#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "pw/possible_world.h"
#include "pw/topk_enumerator.h"
#include "test_util.h"

namespace ptk {
namespace {

void ExpectSameDistribution(const pw::TopKDistribution& a,
                            const pw::TopKDistribution& b, double tol) {
  ASSERT_EQ(a.size(), b.size());
  for (const auto& [key, p] : b.entries()) {
    EXPECT_NEAR(a.ProbOf(key), p, tol);
  }
}

class EnumeratorSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EnumeratorSweep, MatchesExactEngineUnconstrained) {
  const model::Database db = testing::RandomDb(7, 4, GetParam());
  pw::TopKEnumerator enumerator(db);
  pw::ExactEngine engine(db);
  for (const pw::OrderMode order :
       {pw::OrderMode::kInsensitive, pw::OrderMode::kSensitive}) {
    for (int k : {1, 2, 3, 5, 7}) {
      pw::TopKDistribution fast, exact;
      ASSERT_TRUE(enumerator.Enumerate(k, order, nullptr, {}, &fast).ok());
      ASSERT_TRUE(engine.TopKDistributionOf(k, order, nullptr, &exact).ok());
      EXPECT_NEAR(fast.total_mass(), 1.0, 1e-9);
      EXPECT_DOUBLE_EQ(fast.lost_mass(), 0.0);
      ExpectSameDistribution(fast, exact, 1e-10);
    }
  }
}

TEST_P(EnumeratorSweep, MatchesExactEngineWithPairConstraint) {
  const model::Database db = testing::RandomDb(6, 3, GetParam() + 1000);
  pw::TopKEnumerator enumerator(db);
  pw::ExactEngine engine(db);
  for (model::ObjectId a = 0; a < 3; ++a) {
    for (model::ObjectId b = a + 1; b < 4; ++b) {
      pw::ConstraintSet cons;
      cons.Add(a, b);
      for (int k : {1, 3, 5}) {
        pw::TopKDistribution fast, exact;
        const util::Status fs = enumerator.Enumerate(
            k, pw::OrderMode::kInsensitive, &cons, {}, &fast);
        const util::Status es = engine.TopKDistributionOf(
            k, pw::OrderMode::kInsensitive, &cons, &exact);
        ASSERT_EQ(fs.ok(), es.ok());
        if (!fs.ok()) continue;  // constraint may have zero probability
        ExpectSameDistribution(fast, exact, 1e-9);
      }
    }
  }
}

TEST_P(EnumeratorSweep, MatchesExactEngineWithChainAndFork) {
  const model::Database db = testing::RandomDb(6, 3, GetParam() + 2000);
  pw::TopKEnumerator enumerator(db);
  pw::ExactEngine engine(db);
  // Chain 0 < 1 < 2 plus an independent pair 3 < 4.
  pw::ConstraintSet cons;
  cons.Add(0, 1);
  cons.Add(1, 2);
  cons.Add(3, 4);
  for (const pw::OrderMode order :
       {pw::OrderMode::kInsensitive, pw::OrderMode::kSensitive}) {
    for (int k : {2, 4}) {
      pw::TopKDistribution fast, exact;
      const util::Status fs =
          enumerator.Enumerate(k, order, &cons, {}, &fast);
      const util::Status es =
          engine.TopKDistributionOf(k, order, &cons, &exact);
      ASSERT_EQ(fs.ok(), es.ok());
      if (!fs.ok()) continue;
      ExpectSameDistribution(fast, exact, 1e-9);
    }
  }
}

TEST_P(EnumeratorSweep, MatchesExactEngineWithRandomConsistentConstraints) {
  // Answers read off one sampled world are always consistent; their
  // components take whatever shape the random pairs give them.
  const model::Database db = testing::RandomDb(7, 3, GetParam() + 3000);
  util::Rng rng(GetParam() + 4000);
  std::vector<model::Position> truth(db.num_objects());
  for (model::ObjectId o = 0; o < db.num_objects(); ++o) {
    const auto& insts = db.object(o).instances();
    const auto& inst = insts[rng.UniformInt(0, insts.size() - 1)];
    truth[o] = db.PositionOf({o, inst.iid});
  }
  pw::ConstraintSet cons;
  const int answers = 2 + static_cast<int>(GetParam() % 6);
  for (int i = 0; i < answers; ++i) {
    const auto a = static_cast<model::ObjectId>(rng.UniformInt(0, 6));
    const auto b = static_cast<model::ObjectId>(rng.UniformInt(0, 6));
    if (a == b) continue;
    if (truth[a] < truth[b]) {
      cons.Add(a, b);
    } else {
      cons.Add(b, a);
    }
  }
  pw::TopKEnumerator enumerator(db);
  pw::ExactEngine engine(db);
  for (const pw::OrderMode order :
       {pw::OrderMode::kInsensitive, pw::OrderMode::kSensitive}) {
    for (int k : {1, 2, 4, 7}) {
      pw::TopKDistribution fast, exact;
      ASSERT_TRUE(enumerator.Enumerate(k, order, &cons, {}, &fast).ok());
      ASSERT_TRUE(engine.TopKDistributionOf(k, order, &cons, &exact).ok());
      ExpectSameDistribution(fast, exact, 1e-10);
      EXPECT_NEAR(fast.Entropy(), exact.Entropy(), 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomDatabases, EnumeratorSweep,
                         ::testing::Range(uint64_t{0}, uint64_t{10}));

TEST(Enumerator, PruningAccountsLostMassExactly) {
  const model::Database db = testing::RandomDb(8, 4, 99);
  pw::TopKEnumerator enumerator(db);
  // Merged-state enumeration keeps individual state masses large, so a
  // fairly aggressive threshold is needed to force pruning on a small db.
  pw::EnumeratorOptions opts;
  opts.epsilon = 0.05;
  pw::TopKDistribution pruned, exact;
  ASSERT_TRUE(enumerator
                  .Enumerate(4, pw::OrderMode::kInsensitive, nullptr, opts,
                             &pruned)
                  .ok());
  ASSERT_TRUE(enumerator
                  .Enumerate(4, pw::OrderMode::kInsensitive, nullptr, {},
                             &exact)
                  .ok());
  EXPECT_GT(pruned.lost_mass(), 0.0);
  EXPECT_NEAR(pruned.total_mass() + pruned.lost_mass(), 1.0, 1e-9);
  // Every retained result's mass is a lower bound of its exact mass.
  for (const auto& [key, p] : pruned.entries()) {
    EXPECT_LE(p, exact.ProbOf(key) + 1e-12);
  }
}

TEST(Enumerator, MaxStatesGuard) {
  const model::Database db = testing::RandomDb(10, 4, 5);
  pw::TopKEnumerator enumerator(db);
  pw::EnumeratorOptions opts;
  opts.max_states = 10;
  pw::TopKDistribution dist;
  const util::Status s =
      enumerator.Enumerate(5, pw::OrderMode::kInsensitive, nullptr, opts,
                           &dist);
  EXPECT_EQ(s.code(), util::Status::Code::kResourceExhausted);
}

TEST(Enumerator, InvalidKRejected) {
  const model::Database db = testing::PaperExampleDb();
  pw::TopKEnumerator enumerator(db);
  pw::TopKDistribution dist;
  EXPECT_FALSE(enumerator
                   .Enumerate(0, pw::OrderMode::kInsensitive, nullptr, {},
                              &dist)
                   .ok());
  EXPECT_FALSE(enumerator
                   .Enumerate(4, pw::OrderMode::kInsensitive, nullptr, {},
                              &dist)
                   .ok());
}

TEST(Enumerator, KEqualsObjectsGivesSingleInsensitiveResult) {
  const model::Database db = testing::RandomDb(5, 3, 11);
  pw::TopKEnumerator enumerator(db);
  pw::TopKDistribution dist;
  ASSERT_TRUE(enumerator
                  .Enumerate(5, pw::OrderMode::kInsensitive, nullptr, {},
                             &dist)
                  .ok());
  // All objects are in the top-5 of 5 objects: one set, probability 1.
  ASSERT_EQ(dist.size(), 1u);
  EXPECT_NEAR(dist.ProbOf({0, 1, 2, 3, 4}), 1.0, 1e-9);
  EXPECT_NEAR(dist.Entropy(), 0.0, 1e-9);
}

TEST(Enumerator, CancelFromAnotherThreadStopsLongEnumeration) {
  // The heavy-skew catalog of Stress.SelectionOnHeavySkew: its
  // unconditioned top-5 enumeration runs for many seconds uncancelled.
  model::Database db;
  util::Rng rng(8);
  for (int o = 0; o < 60; ++o) {
    const double base = rng.Uniform(0.0, 30.0);
    db.AddObject({{base, 0.98}, {base + 40.0, 0.015}, {base + 80.0, 0.005}});
  }
  ASSERT_TRUE(db.Finalize().ok());
  pw::TopKEnumerator enumerator(db);
  std::atomic<bool> cancel{false};
  pw::EnumeratorOptions opts;
  opts.cancel = &cancel;
  std::thread watchdog([&cancel] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    cancel.store(true, std::memory_order_relaxed);
  });
  const auto start = std::chrono::steady_clock::now();
  pw::TopKDistribution dist;
  const util::Status s =
      enumerator.Enumerate(5, pw::OrderMode::kInsensitive, nullptr, opts,
                           &dist);
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  watchdog.join();
  EXPECT_EQ(s.code(), util::Status::Code::kCancelled);
  EXPECT_LT(seconds, 1.0);
}

TEST(Enumerator, ComponentDpStatesCountAgainstMaxStates) {
  // One antichain-like component (a star with 9 leaves) has 2^9 + 1
  // filters; a budget below its DP states stops before the scan.
  model::Database db;
  db.AddObject({{0.5, 0.5}, {1.5, 0.5}});
  for (int o = 1; o < 12; ++o) {
    db.AddObject({{10.0 + o, 0.25}, {50.0 + o, 0.75}});
  }
  ASSERT_TRUE(db.Finalize().ok());
  pw::ConstraintSet cons;
  for (model::ObjectId leaf = 1; leaf < 10; ++leaf) cons.Add(0, leaf);
  pw::TopKEnumerator enumerator(db);
  pw::EnumeratorOptions opts;
  opts.max_states = 500;
  pw::TopKDistribution dist;
  const util::Status s =
      enumerator.Enumerate(3, pw::OrderMode::kInsensitive, &cons, opts, &dist);
  EXPECT_EQ(s.code(), util::Status::Code::kResourceExhausted);
  EXPECT_NE(s.message().find("order filters"), std::string::npos)
      << s.ToString();
  opts.max_states = 1'000'000;
  EXPECT_TRUE(enumerator
                  .Enumerate(3, pw::OrderMode::kInsensitive, &cons, opts,
                             &dist)
                  .ok());
}

}  // namespace
}  // namespace ptk
