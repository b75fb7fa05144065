#include "engine/ranking_engine.h"

#include <algorithm>
#include <array>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace ptk::engine {

namespace {

/// Registry handles for the engine layer, resolved once per process.
struct EngineMetrics {
  obs::Histogram* fold_seconds;
  obs::Counter* folds_applied;
  obs::Counter* folds_rejected;
  obs::Counter* overlay_reweights;
  obs::Counter* distribution_builds;
  obs::Counter* distribution_memo_hits;

  static const EngineMetrics& Get() {
    static const EngineMetrics metrics = {
        obs::GetHistogram("ptk_engine_fold_seconds",
                          "Latency of RankingEngine::Fold"),
        obs::GetCounter("ptk_engine_folds_applied_total",
                        "Answers folded into the constraint set"),
        obs::GetCounter("ptk_engine_folds_rejected_total",
                        "Answers rejected (contradictory or degenerate)"),
        obs::GetCounter("ptk_engine_overlay_reweights_total",
                        "Per-object in-place marginal reweights"),
        obs::GetCounter("ptk_engine_distribution_builds_total",
                        "Full conditioned top-k distribution builds"),
        obs::GetCounter("ptk_engine_distribution_memo_hits_total",
                        "Distribution/Quality reads served by the memo"),
    };
    return metrics;
  }
};

/// Per-semantics uncertainty-evaluation counters, label-in-name (DESIGN.md
/// §4.10). Only the non-default objectives ever touch these, so the
/// default metrics output is unchanged.
obs::Counter* SemanticsEvalsCounter(std::string_view semantics) {
  return obs::GetCounter(
      "ptk_engine_semantics_evals_total{semantics=\"" +
          std::string(semantics) + "\"}",
      "Objective uncertainty evaluations per ranking semantics");
}

}  // namespace

RankingEngine::RankingEngine(const model::Database& db, const Options& options)
    : base_(&db),
      options_(options),
      evaluator_(db, options.k, options.order, options.enumerator),
      overlay_(db),
      semantics_(core::MakeSemantics(options.semantics)) {}

void RankingEngine::PrepareWorkingCopy() { overlay_.Materialize(); }

std::shared_ptr<const rank::MembershipCalculator>
RankingEngine::BaseMembership() {
  if (base_membership_ == nullptr) {
    const auto& shared = options_.shared_membership;
    if (shared != nullptr && &shared->db() == base_ &&
        shared->base_calc() == nullptr &&
        shared->k() == std::clamp(options_.k, 1, base_->num_objects()) &&
        shared->db_version() == base_->mutation_version()) {
      base_membership_ = shared;
    } else {
      base_membership_ =
          std::make_shared<rank::MembershipCalculator>(*base_, options_.k);
    }
  }
  return base_membership_;
}

std::shared_ptr<const pbtree::PBTree> RankingEngine::BaseTree() {
  if (base_tree_ == nullptr) {
    const auto& shared = options_.shared_tree;
    if (shared != nullptr && &shared->db() == base_) {
      base_tree_ = shared;
    } else {
      pbtree::PBTree::Options tree_options;
      tree_options.fanout = options_.fanout;
      base_tree_ = std::make_shared<const pbtree::PBTree>(*base_,
                                                          tree_options);
    }
  }
  return base_tree_;
}

std::shared_ptr<util::EpochManager> RankingEngine::Epochs() {
  if (epochs_ == nullptr) {
    epochs_ = options_.epochs != nullptr
                  ? options_.epochs
                  : std::make_shared<util::EpochManager>();
  }
  return epochs_;
}

std::shared_ptr<const rank::MembershipCalculator> RankingEngine::membership() {
  if (!overlay_.materialized()) return BaseMembership();
  if (delta_membership_ == nullptr) {
    // Layers override prefix columns over the shared base calculator; the
    // constructor scans the delta's current overrides, so building late
    // (or after a snapshot restore) is equivalent to building eagerly.
    delta_membership_ = std::make_shared<rank::MembershipCalculator>(
        BaseMembership(), working_db());
  }
  return delta_membership_;
}

const pbtree::TreeReader& RankingEngine::tree() {
  if (!overlay_.materialized()) return *BaseTree();
  if (delta_tree_ == nullptr) {
    delta_tree_ = std::make_unique<pbtree::DeltaTree>(BaseTree(),
                                                      working_db(), Epochs());
  }
  return *delta_tree_;
}

RankingEngine::MemoryFootprint RankingEngine::DeltaMemory() const {
  MemoryFootprint footprint;
  footprint.overlay_bytes = overlay_.DeltaBytes();
  if (delta_membership_ != nullptr) {
    footprint.membership_bytes = delta_membership_->DeltaBytes();
  }
  if (delta_tree_ != nullptr) {
    footprint.tree_bytes = delta_tree_->delta_bytes();
  }
  return footprint;
}

util::Status RankingEngine::Fold(model::ObjectId smaller,
                                 model::ObjectId larger, bool update_working,
                                 FoldOutcome* outcome) {
  const EngineMetrics& metrics = EngineMetrics::Get();
  obs::ScopedTimer fold_timer(metrics.fold_seconds);
  if (smaller < 0 || smaller >= base_->num_objects() || larger < 0 ||
      larger >= base_->num_objects() || smaller == larger) {
    return util::Status::InvalidArgument(
        "Fold: invalid pair (" + std::to_string(smaller) + ", " +
        std::to_string(larger) + ")");
  }

  // Exact feasibility gate: Eq. 5 is undefined when no possible world
  // survives, so such answers are discarded (the conflict-resolution
  // behaviour of Fig. 2's server). Only the component the pair joins can
  // have lost its last world.
  pw::ConstraintSet candidate = constraints_;
  candidate.Add(smaller, larger);
  const util::StatusOr<double> z =
      evaluator_.ComponentProbability(candidate, smaller);
  if (!z.ok()) return z.status().WithContext("Fold: feasibility gate");
  if (*z <= 0.0) {
    folds_rejected_.fetch_add(1, std::memory_order_relaxed);
    metrics.folds_rejected->Add();
    *outcome = FoldOutcome::kContradictory;
    return util::Status::OK();
  }

  // A marginal-reading objective sees answers only through the working
  // copy, so it forces the reweight regardless of the caller's choice.
  // The OR is applied identically on live folds and WAL replays (which
  // journal the *requested* flag), keeping recovery deterministic.
  const bool fold_working =
      update_working || semantics_->requires_working_fold();
  if (fold_working) {
    const auto& so = working_db().object(smaller);
    const auto& lo = working_db().object(larger);
    // p'_smaller(i) ∝ p(i) · Pr(larger > i); p'_larger(j) ∝ p(j) ·
    // Pr(smaller < j); both with pre-update marginals. The overlay
    // normalizes, so the raw products are passed through.
    std::vector<double> ps(so.num_instances());
    std::vector<double> pl(lo.num_instances());
    double total_s = 0.0, total_l = 0.0;
    for (const auto& inst : so.instances()) {
      ps[inst.iid] = inst.prob * lo.MassGreater(inst);
      total_s += ps[inst.iid];
    }
    for (const auto& inst : lo.instances()) {
      pl[inst.iid] = inst.prob * so.MassLess(inst);
      total_l += pl[inst.iid];
    }
    if (total_s <= 0.0 || total_l <= 0.0) {
      // The marginal approximation zeroed an object even though the exact
      // joint accepts the answer; keep the engine consistent by dropping
      // the answer entirely, as AdaptiveCleaner always has.
      folds_rejected_.fetch_add(1, std::memory_order_relaxed);
      metrics.folds_rejected->Add();
      *outcome = FoldOutcome::kDegenerate;
      return util::Status::OK();
    }
    util::Status s = overlay_.Reweight(smaller, ps);
    if (!s.ok()) return s.WithContext("Fold: reweight smaller");
    s = overlay_.Reweight(larger, pl);
    if (!s.ok()) return s.WithContext("Fold: reweight larger");
    metrics.overlay_reweights->Add(2);

    // Per-object artifact maintenance — the whole point of the delta
    // layers: only the two touched objects' columns / tree paths move,
    // everything else stays the shared base's.
    if (delta_membership_ != nullptr) {
      const std::array<model::ObjectId, 2> touched = {smaller, larger};
      delta_membership_->RefreshObjects(touched);
    }
    if (delta_tree_ != nullptr) {
      delta_tree_->UpdateObject(smaller);
      delta_tree_->UpdateObject(larger);
    }
  }

  constraints_ = std::move(candidate);
  ++version_;
  if (fold_working) {
    semantics_->OnFold(working_db(), smaller, larger);
  }
  folds_applied_.fetch_add(1, std::memory_order_relaxed);
  metrics.folds_applied->Add();
  *outcome = FoldOutcome::kApplied;
  return util::Status::OK();
}

util::Status RankingEngine::RestoreSnapshot(
    const std::vector<std::pair<model::ObjectId, model::ObjectId>>&
        constraints,
    uint64_t version, const std::vector<RestoredWeights>& working) {
  if (version_ != 0 || !constraints_.empty() || overlay_.materialized()) {
    return util::Status::FailedPrecondition(
        "RestoreSnapshot: engine already has state (restore targets a "
        "fresh engine)");
  }
  // ConstraintSet::Add dedups, so the snapshotted set can be smaller than
  // the fold count but never larger.
  if (version < constraints.size()) {
    return util::Status::InvalidArgument(
        "RestoreSnapshot: version " + std::to_string(version) +
        " below constraint count " + std::to_string(constraints.size()));
  }
  for (const auto& [smaller, larger] : constraints) {
    if (smaller < 0 || smaller >= base_->num_objects() || larger < 0 ||
        larger >= base_->num_objects() || smaller == larger) {
      return util::Status::InvalidArgument(
          "RestoreSnapshot: invalid constraint (" + std::to_string(smaller) +
          ", " + std::to_string(larger) + ")");
    }
  }
  pw::ConstraintSet restored;
  for (const auto& [smaller, larger] : constraints) {
    restored.Add(smaller, larger);
  }
  if (!working.empty()) {
    PrepareWorkingCopy();
    for (const RestoredWeights& weights : working) {
      if (util::Status s = overlay_.RestoreExact(weights.oid, weights.probs);
          !s.ok()) {
        return s.WithContext("RestoreSnapshot");
      }
    }
  }
  constraints_ = std::move(restored);
  version_ = version;
  // Restored probabilities arrived without OnFold notifications; the
  // objective rebuilds its memo lazily from the restored marginals, which
  // the determinism contract makes bit-identical to the incremental state
  // of the uninterrupted process.
  semantics_->Invalidate();
  return util::Status::OK();
}

core::SelectorOptions RankingEngine::BaseSelectorOptions() const {
  core::SelectorOptions o;
  o.k = options_.k;
  o.order = options_.order;
  o.enumerator = options_.enumerator;
  o.fanout = options_.fanout;
  o.seed = options_.seed;
  o.rand_k_fraction = options_.rand_k_fraction;
  o.candidate_pool = options_.candidate_pool;
  o.parallel = options_.parallel;
  // o.enumerator already carries the token; mirroring it onto the selector
  // options makes the batch loops poll it too.
  o.cancel = options_.enumerator.cancel;
  return o;
}

std::unique_ptr<core::PairSelector> RankingEngine::MakeSelector(
    SelectorKind kind) {
  core::SelectorOptions o = BaseSelectorOptions();
  // Attach only the artifacts the kind consumes, so e.g. a BF run never
  // pays for a PB-tree build.
  const bool needs_membership =
      kind != SelectorKind::kBruteForce && kind != SelectorKind::kRand;
  const bool needs_tree =
      kind == SelectorKind::kPBTree || kind == SelectorKind::kOpt ||
      kind == SelectorKind::kHrs1 || kind == SelectorKind::kHrs2;
  if (needs_membership) o.membership = membership();
  if (needs_tree) o.shared_tree = &tree();
  std::unique_ptr<core::PairSelector> inner =
      core::MakeSelector(working_db(), kind, o);
  if (options_.semantics == core::SemanticsId::kEntropy) return inner;
  // Non-default objectives: the inner selector provides the candidate
  // pool (its EI scores target entropy), the wrapper rescores by the
  // active objective's expected improvement.
  return std::make_unique<core::RescoredSelector>(
      std::move(inner), semantics_.get(), SemanticsContextNow(),
      options_.candidate_pool);
}

util::Status RankingEngine::EnsureDistribution() const {
  const EngineMetrics& metrics = EngineMetrics::Get();
  if (dist_valid_ && dist_version_ == version_) {
    distribution_hits_.fetch_add(1, std::memory_order_relaxed);
    metrics.distribution_memo_hits->Add();
    return util::Status::OK();
  }
  pw::TopKDistribution dist;
  util::Status s = evaluator_.Distribution(
      constraints_.empty() ? nullptr : &constraints_, &dist);
  if (!s.ok()) return s;
  enumerations_.fetch_add(1, std::memory_order_relaxed);
  metrics.distribution_builds->Add();
  dist_ = std::move(dist);
  if (options_.semantics == core::SemanticsId::kEntropy) {
    // The paper's objective, extracted behind the interface: the entropy
    // semantics reduces the memoized distribution to the same
    // dist_.Entropy() bits the engine always reported.
    core::SemanticsContext ctx = SemanticsContextNow();
    ctx.distribution = &dist_;
    quality_ = semantics_->Uncertainty(ctx);
  } else {
    quality_ = dist_.Entropy();
  }
  dist_valid_ = true;
  dist_version_ = version_;
  return util::Status::OK();
}

core::SemanticsContext RankingEngine::SemanticsContextNow() const {
  core::SemanticsContext ctx;
  ctx.base = base_;
  ctx.working = &working_db();
  ctx.k = options_.k;
  ctx.order = options_.order;
  return ctx;
}

util::StatusOr<pw::TopKDistribution> RankingEngine::Distribution() const {
  util::Status s = EnsureDistribution();
  if (!s.ok()) return s;
  return dist_;
}

util::StatusOr<double> RankingEngine::Quality() const {
  if (options_.semantics == core::SemanticsId::kEntropy) {
    util::Status s = EnsureDistribution();
    if (!s.ok()) return s;
    return quality_;
  }
  if (sem_quality_valid_ && sem_quality_version_ == version_) {
    distribution_hits_.fetch_add(1, std::memory_order_relaxed);
    EngineMetrics::Get().distribution_memo_hits->Add();
    return sem_quality_;
  }
  sem_quality_ = semantics_->Uncertainty(SemanticsContextNow());
  sem_quality_valid_ = true;
  sem_quality_version_ = version_;
  SemanticsEvalsCounter(semantics_->name())->Add();
  return sem_quality_;
}

util::StatusOr<std::vector<topk::ScoredObject>> RankingEngine::PointAnswer()
    const {
  core::SemanticsContext ctx = SemanticsContextNow();
  if (semantics_->needs_distribution()) {
    util::Status s = EnsureDistribution();
    if (!s.ok()) return s;
    ctx.distribution = &dist_;
  }
  return semantics_->PointAnswer(ctx);
}

}  // namespace ptk::engine
