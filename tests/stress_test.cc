// Mid-scale stress and failure-injection tests: sizes the exhaustive
// oracle cannot reach, cross-validated by Monte Carlo; resource guards;
// and adversarial data shapes (heavy skew, duplicate cross-object values,
// single-instance objects).

#include <gtest/gtest.h>

#include "core/bound_selector.h"
#include "core/quality.h"
#include "data/synthetic.h"
#include "pw/sampler.h"
#include "pw/topk_enumerator.h"
#include "rank/membership.h"
#include "rank/pairwise_prob.h"
#include "test_util.h"

namespace ptk {
namespace {

TEST(Stress, EnumeratorVsSamplerOnSynTwoHundred) {
  data::SynOptions syn;
  syn.num_objects = 200;
  syn.value_range = 400.0;
  syn.seed = 5;
  const model::Database db = data::MakeSynDataset(syn);
  pw::TopKEnumerator enumerator(db);
  pw::TopKDistribution exact;
  ASSERT_TRUE(enumerator
                  .Enumerate(8, pw::OrderMode::kInsensitive, nullptr, {},
                             &exact)
                  .ok());
  EXPECT_NEAR(exact.total_mass(), 1.0, 1e-6);

  pw::WorldSampler sampler(db);
  pw::WorldSampler::Result mc;
  ASSERT_TRUE(sampler
                  .Estimate(8, pw::OrderMode::kInsensitive, nullptr,
                            120'000, 3, &mc)
                  .ok());
  int checked = 0;
  for (const auto& [key, p] : exact.SortedByProbDesc()) {
    if (p < 0.02 || checked >= 6) break;
    EXPECT_NEAR(mc.distribution.ProbOf(key), p, 0.012);
    ++checked;
  }
  EXPECT_GT(checked, 0);
}

TEST(Stress, MembershipProbabilitiesSumToKAtScale) {
  // Σ_o P(o in top-k) = k exactly (each world contributes k members).
  data::SynOptions syn;
  syn.num_objects = 2000;
  syn.value_range = 4000.0;
  syn.seed = 6;
  const model::Database db = data::MakeSynDataset(syn);
  for (const int k : {1, 5, 15}) {
    rank::MembershipCalculator membership(db, k);
    double total = 0.0;
    for (model::ObjectId o = 0; o < db.num_objects(); ++o) {
      total += membership.ObjectTopKProbability(o);
    }
    EXPECT_NEAR(total, k, 1e-6) << "k=" << k;
  }
}

TEST(Stress, SelectionOnHeavySkew) {
  // Objects whose last instance carries almost no mass exercise the
  // near-one deconvolution paths.
  model::Database db;
  util::Rng rng(8);
  for (int o = 0; o < 60; ++o) {
    const double base = rng.Uniform(0.0, 30.0);
    db.AddObject({{base, 0.98}, {base + 40.0, 0.015}, {base + 80.0, 0.005}});
  }
  ASSERT_TRUE(db.Finalize().ok());
  core::SelectorOptions opts;
  opts.k = 5;
  core::BoundSelector selector(db, opts,
                               core::BoundSelector::Mode::kOptimized);
  std::vector<core::ScoredPair> best;
  ASSERT_TRUE(selector.SelectPairs(3, &best).ok());
  ASSERT_EQ(best.size(), 3u);
  const core::QualityEvaluator evaluator(db, 5,
                                         pw::OrderMode::kInsensitive);
  double exact = 0.0;
  ASSERT_TRUE(evaluator
                  .ExactExpectedImprovement(best[0].a, best[0].b, nullptr,
                                            &exact)
                  .ok());
  EXPECT_GE(exact, -1e-9);
  EXPECT_LE(best[0].ei_lower, exact + 1e-6);
  EXPECT_GE(best[0].ei_upper, exact - 1e-6);
}

TEST(Stress, CrossObjectDuplicateValues) {
  // Many objects sharing raw values: the tie-broken total order must keep
  // every invariant intact (an IMDB-like situation with star grids).
  model::Database db;
  util::Rng rng(9);
  for (int o = 0; o < 30; ++o) {
    std::vector<std::pair<double, double>> pairs;
    const int count = 1 + static_cast<int>(rng.UniformInt(0, 2));
    double total = 0.0;
    for (int i = 0; i < count; ++i) {
      // Values on a coarse grid -> heavy cross-object collisions.
      double v = std::floor(rng.Uniform(0.0, 8.0));
      bool dup = false;
      for (auto& [value, _] : pairs) dup |= (value == v);
      if (dup) continue;
      const double w = rng.Uniform(0.2, 1.0);
      pairs.emplace_back(v, w);
      total += w;
    }
    for (auto& [_, p] : pairs) p /= total;
    db.AddObject(std::move(pairs));
  }
  ASSERT_TRUE(db.Finalize().ok());

  pw::TopKEnumerator enumerator(db);
  pw::ExactEngine engine(db);
  for (const int k : {2, 4}) {
    pw::TopKDistribution fast, exact;
    ASSERT_TRUE(enumerator
                    .Enumerate(k, pw::OrderMode::kInsensitive, nullptr, {},
                               &fast)
                    .ok());
    ASSERT_TRUE(engine
                    .TopKDistributionOf(k, pw::OrderMode::kInsensitive,
                                        nullptr, &exact)
                    .ok());
    ASSERT_EQ(fast.size(), exact.size());
    for (const auto& [key, p] : exact.entries()) {
      EXPECT_NEAR(fast.ProbOf(key), p, 1e-9);
    }
  }
  // Complementarity survives ties.
  for (model::ObjectId a = 0; a < 10; ++a) {
    for (model::ObjectId b = a + 1; b < 10; ++b) {
      EXPECT_NEAR(rank::ProbGreater(db.object(a), db.object(b)) +
                      rank::ProbGreater(db.object(b), db.object(a)),
                  1.0, 1e-12);
    }
  }
}

TEST(Stress, SingleInstanceObjectsAreDeterministic) {
  model::Database db;
  for (int o = 0; o < 12; ++o) {
    db.AddObject({{static_cast<double>(o), 1.0}});
  }
  ASSERT_TRUE(db.Finalize().ok());
  const core::QualityEvaluator evaluator(db, 4,
                                         pw::OrderMode::kInsensitive);
  double h = 0.0;
  ASSERT_TRUE(evaluator.Quality(nullptr, &h).ok());
  EXPECT_NEAR(h, 0.0, 1e-12);  // no uncertainty at all
  double ei = 0.0;
  ASSERT_TRUE(evaluator.ExactExpectedImprovement(0, 1, nullptr, &ei).ok());
  EXPECT_NEAR(ei, 0.0, 1e-12);  // nothing to learn
}

TEST(Stress, EnumeratorHandlesHugeInstanceCounts) {
  // Frontier keys hold object ids only, so an object with 2^16 instances
  // (once past a 16-bit instance field of the key) enumerates exactly.
  model::Database db;
  std::vector<std::pair<double, double>> pairs;
  const int n = (1 << 16);
  pairs.reserve(n);
  for (int i = 0; i < n; ++i) {
    pairs.emplace_back(static_cast<double>(i), 1.0 / n);
  }
  db.AddObject(std::move(pairs));
  db.AddObject({{1.5, 1.0}});
  ASSERT_TRUE(db.Finalize(1e-3).ok());
  pw::TopKEnumerator enumerator(db);
  pw::TopKDistribution dist;
  ASSERT_TRUE(enumerator
                  .Enumerate(1, pw::OrderMode::kInsensitive, nullptr, {},
                             &dist)
                  .ok());
  // Object 0 ranks first exactly when it takes value 0 or 1.
  EXPECT_NEAR(dist.ProbOf({0}), 2.0 / n, 1e-12);
  EXPECT_NEAR(dist.ProbOf({1}), 1.0 - 2.0 / n, 1e-12);
}

TEST(Stress, SelectorsAgreeAtModerateScale) {
  // PBTREE and OPT must produce identical top-3 estimates at a scale where
  // pruning differs substantially between them.
  data::SynOptions syn;
  syn.num_objects = 300;
  syn.value_range = 600.0;
  syn.seed = 10;
  const model::Database db = data::MakeSynDataset(syn);
  core::SelectorOptions opts;
  opts.k = 8;
  core::BoundSelector basic(db, opts, core::BoundSelector::Mode::kBasic);
  core::BoundSelector optimized(db, opts,
                                core::BoundSelector::Mode::kOptimized);
  std::vector<core::ScoredPair> a, b;
  ASSERT_TRUE(basic.SelectPairs(3, &a).ok());
  ASSERT_TRUE(optimized.SelectPairs(3, &b).ok());
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i].ei_estimate, b[i].ei_estimate, 1e-9) << "rank " << i;
  }
  // And OPT must do no more Δ evaluations than PBTREE.
  EXPECT_LE(optimized.stats().pairs_evaluated,
            basic.stats().pairs_evaluated);
}

}  // namespace
}  // namespace ptk
