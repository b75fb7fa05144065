#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <functional>
#include <span>

#include "pw/joint_component.h"
#include "pw/possible_world.h"
#include "test_util.h"

namespace ptk {
namespace {

// Oracle for a component factor: direct summation over the members' joint
// instance assignments.
double OracleFactor(const model::Database& db,
                    const std::vector<model::ObjectId>& members,
                    const std::vector<pw::PairwiseConstraint>& constraints,
                    const std::vector<model::InstanceId>& placed,
                    model::Position pos) {
  double total = 0.0;
  std::vector<model::InstanceId> iids(members.size(), 0);
  std::function<void(size_t, double)> walk = [&](size_t depth, double p) {
    if (depth == members.size()) {
      for (const auto& c : constraints) {
        int si = -1, li = -1;
        for (size_t i = 0; i < members.size(); ++i) {
          if (members[i] == c.smaller) si = static_cast<int>(i);
          if (members[i] == c.larger) li = static_cast<int>(i);
        }
        const model::Position ps = db.PositionOf({c.smaller, iids[si]});
        const model::Position pl = db.PositionOf({c.larger, iids[li]});
        if (ps >= pl) return;
      }
      total += p;
      return;
    }
    const auto& obj = db.object(members[depth]);
    for (const auto& inst : obj.instances()) {
      if (placed[depth] >= 0 && inst.iid != placed[depth]) continue;
      if (placed[depth] < 0 &&
          db.PositionOf({inst.oid, inst.iid}) <= pos) {
        continue;
      }
      iids[depth] = inst.iid;
      walk(depth + 1, p * inst.prob);
    }
  };
  walk(0, 1.0);
  return total;
}

// Equal within 1e-12 relative; an exact zero must stay an exact zero.
void ExpectRelNear(double got, double want, const std::string& where) {
  if (want == 0.0) {
    EXPECT_EQ(got, 0.0) << where;
  } else {
    EXPECT_LE(std::fabs(got - want), 1e-12 * std::fabs(want))
        << where << " got=" << got << " want=" << want;
  }
}

// Compares Z and Factor against the oracle for every placement inside
// Factor's contract (each member unplaced, or placed at an instance ranked
// at or above `pos`) at every position. Returns the placements checked.
int64_t ExpectMatchesOracle(
    const model::Database& db, const std::vector<model::ObjectId>& members,
    const std::vector<pw::PairwiseConstraint>& constraints) {
  pw::JointComponent::Options options;
  options.keep_table = true;
  const pw::JointComponent comp(db, members, constraints, options);
  EXPECT_TRUE(comp.status().ok());
  const std::vector<model::InstanceId> none(members.size(), -1);
  const double z = OracleFactor(db, members, constraints, none, -1);
  ExpectRelNear(comp.prob_constraints(), z, "Z");
  if (z <= 0.0) return 0;

  int64_t checked = 0;
  std::vector<model::InstanceId> placed(members.size(), -1);
  for (model::Position pos = -1; pos < db.num_instances(); ++pos) {
    std::function<void(size_t)> place = [&](size_t depth) {
      if (depth == members.size()) {
        ExpectRelNear(comp.Factor(placed, pos),
                      OracleFactor(db, members, constraints, placed, pos) / z,
                      "pos=" + std::to_string(pos));
        ++checked;
        return;
      }
      placed[depth] = -1;
      place(depth + 1);
      for (const auto& inst : db.object(members[depth]).instances()) {
        if (db.PositionOf({inst.oid, inst.iid}) > pos) continue;
        placed[depth] = inst.iid;
        place(depth + 1);
      }
      placed[depth] = -1;
    };
    place(0);
  }
  return checked;
}

std::vector<model::ObjectId> FirstMembers(int n) {
  std::vector<model::ObjectId> members(n);
  for (int i = 0; i < n; ++i) members[i] = i;
  return members;
}

TEST(JointComponent, FactorMatchesOracleOnPair) {
  const model::Database db = testing::PaperExampleDb();
  const std::vector<pw::PairwiseConstraint> cons = {{1, 0}};  // o2 < o1
  const pw::JointComponent comp(db, {0, 1}, cons);
  // Z = P(o2 < o1) = 0.16.
  EXPECT_NEAR(comp.prob_constraints(), 0.16, 1e-12);
  EXPECT_GT(ExpectMatchesOracle(db, {0, 1}, cons), 0);
}

TEST(JointComponent, ChainOfThreeMatchesOracle) {
  const model::Database db = testing::RandomDb(4, 3, 5);
  const std::vector<pw::PairwiseConstraint> cons = {{0, 1}, {1, 2}};
  const pw::JointComponent comp(db, {0, 1, 2}, cons);
  if (comp.prob_constraints() <= 0.0) {
    GTEST_SKIP() << "constraints unsatisfiable on this seed";
  }
  EXPECT_GT(ExpectMatchesOracle(db, {0, 1, 2}, cons), 0);
}

TEST(JointComponent, ChainsMatchOracle) {
  for (uint64_t seed = 0; seed < 4; ++seed) {
    for (int n : {2, 4, 6}) {
      const model::Database db = testing::RandomDb(n, 3, 100 + seed);
      std::vector<pw::PairwiseConstraint> cons;
      for (int i = 0; i + 1 < n; ++i) cons.push_back({i, i + 1});
      ExpectMatchesOracle(db, FirstMembers(n), cons);
    }
  }
}

TEST(JointComponent, StarsMatchOracle) {
  // Centre above every leaf, and every leaf above the centre.
  for (uint64_t seed = 0; seed < 3; ++seed) {
    const int n = 6;
    const model::Database db = testing::RandomDb(n, 3, 200 + seed);
    std::vector<pw::PairwiseConstraint> out, in;
    for (int leaf = 1; leaf < n; ++leaf) {
      out.push_back({0, leaf});
      in.push_back({leaf, 0});
    }
    ExpectMatchesOracle(db, FirstMembers(n), out);
    ExpectMatchesOracle(db, FirstMembers(n), in);
  }
}

TEST(JointComponent, AntichainMatchesOracle) {
  // No constraints: Z = 1 and every filter of the 2^n lattice is live.
  const int n = 5;
  const model::Database db = testing::RandomDb(n, 3, 300);
  const pw::JointComponent comp(db, FirstMembers(n), {});
  EXPECT_NEAR(comp.prob_constraints(), 1.0, 1e-12);
  ExpectMatchesOracle(db, FirstMembers(n), {});
}

TEST(JointComponent, RandomDagsMatchOracle) {
  // Edges only from a lower to a higher index keep the poset acyclic.
  int64_t checked = 0;
  for (uint64_t seed = 0; seed < 12; ++seed) {
    util::Rng rng(400 + seed);
    const int n = 3 + static_cast<int>(seed % 7);  // 3..9 members
    const model::Database db =
        testing::RandomDb(n, n <= 6 ? 3 : 2, 500 + seed);
    std::vector<pw::PairwiseConstraint> cons;
    for (int a = 0; a < n; ++a) {
      for (int b = a + 1; b < n; ++b) {
        if (rng.Uniform(0.0, 1.0) < 0.3) cons.push_back({a, b});
      }
    }
    checked += ExpectMatchesOracle(db, FirstMembers(n), cons);
  }
  EXPECT_GT(checked, 0);
}

TEST(JointComponent, LongChainMatchesChainRecurrence) {
  // 70 members: past one 64-bit word of filter bits. A chain's Z has its
  // own recurrence over the global positions: mass[q] = Pr(the chain so
  // far holds and its last member sits at position q).
  const int n = 70;
  model::Database db;
  for (int o = 0; o < n; ++o) {
    db.AddObject({{o * 1.0, 0.7}, {o * 1.0 + 2.5, 0.3}});
  }
  ASSERT_TRUE(db.Finalize().ok());
  std::vector<pw::PairwiseConstraint> cons;
  for (int i = 0; i + 1 < n; ++i) cons.push_back({i, i + 1});
  const pw::JointComponent comp(db, FirstMembers(n), cons);
  ASSERT_TRUE(comp.status().ok());

  std::vector<double> mass(db.num_instances(), 0.0);
  for (const auto& inst : db.object(0).instances()) {
    mass[db.PositionOf({0, inst.iid})] = inst.prob;
  }
  for (int o = 1; o < n; ++o) {
    std::vector<double> next(db.num_instances(), 0.0);
    for (const auto& inst : db.object(o).instances()) {
      const model::Position q = db.PositionOf({o, inst.iid});
      double below = 0.0;
      for (model::Position r = 0; r < q; ++r) below += mass[r];
      next[q] = below * inst.prob;
    }
    mass = std::move(next);
  }
  double z = 0.0;
  for (double v : mass) z += v;
  ExpectRelNear(comp.prob_constraints(), z, "Z");
  EXPECT_EQ(comp.dp_states(), int64_t{n + 1} * db.num_instances());
}

TEST(JointComponent, ContradictionGivesZeroZ) {
  const model::Database db = testing::PaperExampleDb();
  const pw::JointComponent comp(db, {0, 1},
                                {{0, 1}, {1, 0}});  // both directions
  EXPECT_DOUBLE_EQ(comp.prob_constraints(), 0.0);
}

TEST(JointComponent, MemberIndexLookup) {
  const model::Database db = testing::PaperExampleDb();
  const pw::JointComponent comp(db, {0, 2}, {{2, 0}});
  EXPECT_EQ(comp.MemberIndex(0), 0);
  EXPECT_EQ(comp.MemberIndex(2), 1);
  EXPECT_EQ(comp.MemberIndex(1), -1);
  EXPECT_EQ(comp.size(), 2);
}

TEST(JointComponent, RootFactorIsOne) {
  // Factor(nothing placed, pos = -1) must be Z/Z = 1 for any satisfiable
  // constraint set.
  pw::JointComponent::Options options;
  options.keep_table = true;
  for (uint64_t seed = 0; seed < 5; ++seed) {
    const model::Database db = testing::RandomDb(3, 3, seed);
    const pw::JointComponent comp(db, {0, 1}, {{0, 1}}, options);
    if (comp.prob_constraints() <= 0.0) continue;
    const std::vector<model::InstanceId> none = {-1, -1};
    EXPECT_NEAR(comp.Factor(none, -1), 1.0, 1e-12);
  }
}

TEST(JointComponent, BudgetAndCancellation) {
  // An antichain of 16 members has 2^16 filters.
  const int n = 16;
  const model::Database db = testing::RandomDb(n, 2, 7);
  pw::JointComponent::Options options;
  options.max_states = 1000;
  const pw::JointComponent capped(db, FirstMembers(n), {}, options);
  EXPECT_EQ(capped.status().code(), util::Status::Code::kResourceExhausted);
  EXPECT_EQ(capped.prob_constraints(), 0.0);

  std::atomic<bool> cancel{true};
  options = {};
  options.cancel = &cancel;
  const pw::JointComponent cancelled(db, FirstMembers(n), {}, options);
  EXPECT_EQ(cancelled.status().code(), util::Status::Code::kCancelled);

  const pw::JointComponent full(db, FirstMembers(n), {});
  ASSERT_TRUE(full.status().ok());
  EXPECT_NEAR(full.prob_constraints(), 1.0, 1e-12);
}

}  // namespace
}  // namespace ptk
