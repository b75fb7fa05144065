// Engine latency benchmark (PR: RankingEngine incremental conditioning).
//
// Three measurements, all recorded to $PTK_BENCH_JSON when set:
//
//   1. engine_fold_step — per-answer cost of RankingEngine::Fold with
//      update_working=true and the shared membership calculator + PB-tree
//      already built, swept over database sizes. This is the acceptance
//      check that AdaptiveCleaner's per-answer maintenance no longer
//      rebuilds a full model::Database: the copy-on-write overlay touches
//      only the two answered objects, so per-fold time must stay (near)
//      flat while m grows. The `legacy_db_rebuild` rows time what the old
//      implementation did every step — reconstruct and Finalize a full
//      working database — and grow linearly with m for contrast.
//
//   2. session_round_r<i> — per-round latency of a CleaningSession driven
//      by the OPT bound selector (batch model, Section 5.1).
//
//   3. adaptive_step_s<i> — per-step latency of AdaptiveCleaner (select,
//      ask, fold, exact conditioned quality). Unlike engine_fold_step this
//      includes selection and the exact evaluation, both of which depend
//      on m and on the accumulated constraints by design.
//
//   4. semantics_<name>_q<i> — uncertainty-vs-questions ablation across
//      the pluggable ranking objectives (core/semantics.h). Each objective
//      drives its own engine + OPT-derived selector over the same database
//      and the same ground truth; the recorded value is the objective's
//      uncertainty functional after answering question i (q0 = prior).
//
//   5. long_session_s<j>_r<i> — the exact-evaluation layer on long
//      cleaning sessions: SYN m=400 (values in [0, 800], catalog seed 1),
//      k=10, OPT picks, 4 truthful answers per round (session j answers
//      from sampled world j), each cleaned until the next round would join
//      more than 13 objects into one joint component. The recorded value
//      is round i's conditioned top-k enumeration (pw::TopKEnumerator,
//      median of 3); the table also shows the largest component and the
//      entropy.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/bound_selector.h"
#include "core/semantics.h"
#include "crowd/adaptive.h"
#include "crowd/crowd_model.h"
#include "crowd/session.h"
#include "data/synthetic.h"
#include "engine/ranking_engine.h"
#include "harness.h"
#include "pw/topk_enumerator.h"
#include "util/stopwatch.h"

namespace {

// Full reconstruct + Finalize of a working database — the per-answer cost
// of the pre-engine AdaptiveCleaner, timed for contrast.
double LegacyRebuildSeconds(const ptk::model::Database& db, int reps) {
  ptk::util::Stopwatch watch;
  for (int r = 0; r < reps; ++r) {
    ptk::model::Database copy;
    for (int oid = 0; oid < db.num_objects(); ++oid) {
      const auto& object = db.object(oid);
      std::vector<std::pair<double, double>> pairs;
      pairs.reserve(object.instances().size());
      for (const auto& inst : object.instances()) {
        pairs.emplace_back(inst.value, inst.prob);
      }
      copy.AddObject(std::move(pairs));
    }
    if (!copy.Finalize().ok()) std::exit(1);
  }
  return watch.ElapsedSeconds() / reps;
}

int BenchFoldScaling(ptk::bench::JsonWriter* json) {
  using ptk::bench::Fmt;
  using ptk::bench::FmtSci;
  const int k = 10;
  const int folds = 50;
  ptk::bench::Banner(
      "Fold maintenance vs database size (flat = overlay works)");
  std::printf("%d disjoint-pair folds, update_working=true, membership + "
              "PB-tree maintained in place\n\n", folds);
  ptk::bench::Row({"m", "fold avg", "legacy rebuild", "ratio"}, 16);

  for (const int base : {200, 400, 800, 1600}) {
    const int m = ptk::bench::Scaled(base);
    ptk::data::SynOptions syn;
    syn.num_objects = m;
    syn.avg_instances = 3;
    syn.seed = 11 + m;
    const ptk::model::Database db = ptk::data::MakeSynDataset(syn);
    const std::vector<double> truth =
        ptk::crowd::SampleWorldValues(db, 21 + m);

    ptk::engine::RankingEngine::Options options;
    options.k = k;
    ptk::engine::RankingEngine engine(db, options);
    engine.membership();  // build the shared artifacts up front so the
    engine.tree();        // timed folds pay the maintenance, not the build

    ptk::util::Stopwatch watch;
    for (int f = 0; f < folds; ++f) {
      // Disjoint pairs: answers can never contradict each other, so all
      // `folds` folds are applied and each joint component stays tiny.
      const ptk::model::ObjectId a = 2 * f;
      const ptk::model::ObjectId b = 2 * f + 1;
      const ptk::model::ObjectId smaller = truth[a] < truth[b] ? a : b;
      const ptk::model::ObjectId larger = smaller == a ? b : a;
      ptk::engine::RankingEngine::FoldOutcome outcome;
      if (!engine.Fold(smaller, larger, /*update_working=*/true, &outcome)
               .ok()) {
        return 1;
      }
    }
    const double fold_avg = watch.ElapsedSeconds() / folds;
    if (engine.counters().folds_applied != folds) {
      std::fprintf(stderr, "expected %d applied folds, got %lld\n", folds,
                   static_cast<long long>(engine.counters().folds_applied));
      return 1;
    }

    const double rebuild = LegacyRebuildSeconds(db, 5);
    ptk::bench::Row({std::to_string(m), FmtSci(fold_avg),
                     FmtSci(rebuild), Fmt(rebuild / fold_avg, 1)},
                    16);
    json->Record("engine_fold_step", fold_avg,
                 ptk::bench::JsonWriter::DefaultThreads(), m, k);
    json->Record("legacy_db_rebuild", rebuild,
                 ptk::bench::JsonWriter::DefaultThreads(), m, k);
  }
  std::printf("\n");
  return 0;
}

int BenchSessionRounds(ptk::bench::JsonWriter* json) {
  const int k = 5;
  const int quota = 4;
  const int rounds = 3;
  ptk::data::ImdbOptions imdb;
  imdb.num_movies = ptk::bench::Scaled(120);
  imdb.seed = 501;
  const ptk::model::Database db = ptk::data::MakeImdbDataset(imdb);
  const std::vector<double> truth = ptk::crowd::SampleWorldValues(db, 601);

  ptk::bench::Banner("CleaningSession per-round latency (OPT selector)");
  std::printf("IMDB-like m=%d, k=%d, quota=%d\n\n", db.num_objects(), k,
              quota);

  ptk::core::SelectorOptions selector_options;
  selector_options.k = k;
  ptk::core::BoundSelector selector(
      db, selector_options, ptk::core::BoundSelector::Mode::kOptimized);
  ptk::crowd::GroundTruthOracle oracle(truth);
  ptk::crowd::CleaningSession::Options sess;
  sess.k = k;
  ptk::crowd::CleaningSession session(db, &selector, &oracle, sess);
  if (!session.Init().ok()) return 1;

  ptk::bench::Row({"round", "seconds", "H after"}, 14);
  for (int round = 1; round <= rounds; ++round) {
    ptk::util::Stopwatch watch;
    const ptk::util::StatusOr<ptk::crowd::CleaningSession::RoundReport>
        report = session.RunRound(quota);
    if (!report.ok()) return 1;
    const double seconds = watch.ElapsedSeconds();
    ptk::bench::Row({std::to_string(round), ptk::bench::FmtSci(seconds),
                     ptk::bench::Fmt(report->quality_after, 4)},
                    14);
    json->Record("session_round_r" + std::to_string(round), seconds,
                 ptk::bench::JsonWriter::DefaultThreads(), db.num_objects(),
                 k);
  }
  std::printf("\n");
  return 0;
}

int BenchAdaptiveSteps(ptk::bench::JsonWriter* json) {
  const int k = 5;
  const int steps = 6;
  ptk::data::ImdbOptions imdb;
  imdb.num_movies = ptk::bench::Scaled(120);
  imdb.seed = 502;
  const ptk::model::Database db = ptk::data::MakeImdbDataset(imdb);
  const std::vector<double> truth = ptk::crowd::SampleWorldValues(db, 602);

  ptk::bench::Banner("AdaptiveCleaner per-step latency");
  std::printf("IMDB-like m=%d, k=%d; step = select + ask + fold + exact "
              "quality\n\n", db.num_objects(), k);

  ptk::crowd::GroundTruthOracle oracle(truth);
  ptk::crowd::AdaptiveCleaner::Options options;
  options.k = k;
  ptk::crowd::AdaptiveCleaner cleaner(db, &oracle, options);
  if (!cleaner.Init().ok()) return 1;

  ptk::bench::Row({"step", "seconds", "true H"}, 14);
  for (int step = 1; step <= steps; ++step) {
    ptk::util::Stopwatch watch;
    const ptk::util::StatusOr<
        std::vector<ptk::crowd::AdaptiveCleaner::StepReport>>
        reports = cleaner.Run(1);
    if (!reports.ok()) return 1;
    const double seconds = watch.ElapsedSeconds();
    ptk::bench::Row({std::to_string(step), ptk::bench::FmtSci(seconds),
                     ptk::bench::Fmt(reports->back().true_quality, 4)},
                    14);
    json->Record("adaptive_step_s" + std::to_string(step), seconds,
                 ptk::bench::JsonWriter::DefaultThreads(), db.num_objects(),
                 k);
  }
  return 0;
}

int BenchSemanticsAblation(ptk::bench::JsonWriter* json) {
  const int k = 5;
  const int questions = 12;
  ptk::data::SynOptions syn;
  syn.num_objects = ptk::bench::Scaled(60);
  syn.avg_instances = 4;
  // Dense value range so object distributions overlap: with the default
  // 10'000-wide range and 60 objects the prior top-k is already certain
  // and every curve starts (and stays) at zero.
  syn.value_range = 400.0;
  syn.cluster_width = 120.0;
  syn.seed = 701;
  const ptk::model::Database db = ptk::data::MakeSynDataset(syn);
  const std::vector<double> truth = ptk::crowd::SampleWorldValues(db, 702);

  ptk::bench::Banner(
      "Uncertainty vs questions, per ranking objective (OPT-derived)");
  std::printf("synthetic m=%d, k=%d; same database and ground truth for "
              "every objective\n\n", db.num_objects(), k);
  ptk::bench::Row({"objective", "q", "uncertainty", "step secs"}, 16);

  for (const ptk::core::SemanticsId id :
       {ptk::core::SemanticsId::kEntropy,
        ptk::core::SemanticsId::kExpectedRank,
        ptk::core::SemanticsId::kUKRanks}) {
    const std::string name(ptk::core::SemanticsName(id));
    ptk::engine::RankingEngine::Options options;
    options.k = k;
    options.semantics = id;
    ptk::engine::RankingEngine engine(db, options);
    std::unique_ptr<ptk::core::PairSelector> selector =
        engine.MakeSelector(ptk::core::SelectorKind::kOpt);
    if (selector == nullptr) return 1;

    const ptk::util::StatusOr<double> prior = engine.Quality();
    if (!prior.ok()) return 1;
    ptk::bench::Row({name, "0", ptk::bench::Fmt(*prior, 6), "-"}, 16);
    json->Record("semantics_" + name + "_q0", *prior,
                 ptk::bench::JsonWriter::DefaultThreads(), db.num_objects(),
                 k);

    // Selectors score from the base database, so an answered pair would be
    // re-proposed forever; the cleaning loops track asked pairs, and so do
    // we.
    std::set<std::pair<ptk::model::ObjectId, ptk::model::ObjectId>> asked;
    for (int q = 1; q <= questions; ++q) {
      ptk::util::Stopwatch watch;
      std::vector<ptk::core::ScoredPair> pairs;
      if (!selector->SelectPairs(questions + 4, &pairs).ok()) return 1;
      const ptk::core::ScoredPair* pick = nullptr;
      for (const ptk::core::ScoredPair& candidate : pairs) {
        const auto key = std::minmax(candidate.a, candidate.b);
        if (asked.insert(key).second) {
          pick = &candidate;
          break;
        }
      }
      if (pick == nullptr) return 1;
      const ptk::model::ObjectId a = pick->a;
      const ptk::model::ObjectId b = pick->b;
      const ptk::model::ObjectId smaller = truth[a] < truth[b] ? a : b;
      const ptk::model::ObjectId larger = smaller == a ? b : a;
      ptk::engine::RankingEngine::FoldOutcome outcome;
      if (!engine.Fold(smaller, larger, /*update_working=*/true, &outcome)
               .ok()) {
        return 1;
      }
      const ptk::util::StatusOr<double> after = engine.Quality();
      if (!after.ok()) return 1;
      const double seconds = watch.ElapsedSeconds();
      ptk::bench::Row({name, std::to_string(q), ptk::bench::Fmt(*after, 6),
                       ptk::bench::FmtSci(seconds)},
                      16);
      json->Record("semantics_" + name + "_q" + std::to_string(q), *after,
                   ptk::bench::JsonWriter::DefaultThreads(), db.num_objects(),
                   k);
    }
    std::printf("\n");
  }
  return 0;
}

size_t LargestComponent(const ptk::pw::ConstraintSet& constraints) {
  size_t largest = 0;
  for (const auto& comp : constraints.Components()) {
    largest = std::max(largest, comp.members.size());
  }
  return largest;
}

int BenchLongSession(ptk::bench::JsonWriter* json) {
  const int k = 10;
  const int sessions = 12;
  const int pairs_per_round = 4;
  const size_t component_limit = 13;
  ptk::data::SynOptions syn;
  syn.num_objects = ptk::bench::Scaled(400);
  syn.value_range = 2.0 * syn.num_objects;
  syn.seed = 1;
  const ptk::model::Database db = ptk::data::MakeSynDataset(syn);
  const ptk::pw::TopKEnumerator enumerator(db);

  ptk::bench::Banner("Long sessions: conditioned top-k enumeration per round");
  std::printf("SYN m=%d, k=%d, %d truthful OPT answers per round, until a "
              "component would pass %zu objects\n\n",
              db.num_objects(), k, pairs_per_round, component_limit);
  ptk::bench::Row({"session", "round", "component", "enumerate ms",
                   "entropy"},
                  16);
  for (int session = 1; session <= sessions; ++session) {
    const std::vector<double> truth =
        ptk::crowd::SampleWorldValues(db, session);
    ptk::engine::RankingEngine::Options options;
    options.k = k;
    ptk::engine::RankingEngine engine(db, options);
    std::unique_ptr<ptk::core::PairSelector> selector =
        engine.MakeSelector(ptk::core::SelectorKind::kOpt);
    if (selector == nullptr) return 1;
    std::set<std::pair<ptk::model::ObjectId, ptk::model::ObjectId>> asked;
    for (int round = 1;; ++round) {
      std::vector<ptk::core::ScoredPair> pairs;
      const int want = pairs_per_round + static_cast<int>(asked.size());
      if (!selector->SelectPairs(want, &pairs).ok()) return 1;
      ptk::pw::ConstraintSet next = engine.constraints();
      std::vector<std::pair<ptk::model::ObjectId, ptk::model::ObjectId>>
          answers;
      for (const ptk::core::ScoredPair& pair : pairs) {
        if (static_cast<int>(answers.size()) == pairs_per_round) break;
        if (!asked.insert(std::minmax(pair.a, pair.b)).second) continue;
        const ptk::model::ObjectId smaller =
            truth[pair.a] < truth[pair.b] ? pair.a : pair.b;
        const ptk::model::ObjectId larger =
            smaller == pair.a ? pair.b : pair.a;
        answers.emplace_back(smaller, larger);
        next.Add(smaller, larger);
      }
      if (answers.empty() || LargestComponent(next) > component_limit) break;
      for (const auto& [smaller, larger] : answers) {
        ptk::engine::RankingEngine::FoldOutcome outcome;
        if (!engine.Fold(smaller, larger, /*update_working=*/false, &outcome)
                 .ok()) {
          return 1;
        }
      }

      std::vector<double> seconds;
      double entropy = 0.0;
      for (int rep = 0; rep < 3; ++rep) {
        ptk::util::Stopwatch watch;
        ptk::pw::TopKDistribution dist;
        if (!enumerator
                 .Enumerate(k, ptk::pw::OrderMode::kInsensitive,
                            &engine.constraints(), {}, &dist)
                 .ok()) {
          return 1;
        }
        seconds.push_back(watch.ElapsedSeconds());
        entropy = dist.Entropy();
      }
      std::sort(seconds.begin(), seconds.end());
      char entropy_text[32];
      std::snprintf(entropy_text, sizeof(entropy_text), "%.17g", entropy);
      ptk::bench::Row(
          {std::to_string(session), std::to_string(round),
           std::to_string(LargestComponent(engine.constraints())),
           ptk::bench::Fmt(seconds[1] * 1e3, 3), entropy_text},
          16);
      json->Record("long_session_s" + std::to_string(session) + "_r" +
                       std::to_string(round),
                   seconds[1], ptk::bench::JsonWriter::DefaultThreads(),
                   db.num_objects(), k);
    }
  }
  std::printf("\n");
  return 0;
}

}  // namespace

int main() {
  ptk::bench::JsonWriter json;
  if (int rc = BenchFoldScaling(&json)) return rc;
  if (int rc = BenchSessionRounds(&json)) return rc;
  if (int rc = BenchAdaptiveSteps(&json)) return rc;
  if (int rc = BenchSemanticsAblation(&json)) return rc;
  if (int rc = BenchLongSession(&json)) return rc;
  return 0;
}
