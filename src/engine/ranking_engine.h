#ifndef PTK_ENGINE_RANKING_ENGINE_H_
#define PTK_ENGINE_RANKING_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/quality.h"
#include "core/selector.h"
#include "core/semantics.h"
#include "model/database.h"
#include "model/database_overlay.h"
#include "pbtree/delta_tree.h"
#include "pbtree/pbtree.h"
#include "pw/constraint.h"
#include "pw/topk_distribution.h"
#include "rank/membership.h"
#include "util/epoch.h"
#include "util/status.h"
#include "util/statusor.h"
#include "util/thread_pool.h"

namespace ptk::engine {

/// Selector kinds and their helpers live in core/selector.h now (they are
/// the construction surface of the selection layer, not an engine
/// concept); these aliases keep the historical engine:: spellings valid.
using SelectorKind = core::SelectorKind;

inline std::string_view SelectorKindName(SelectorKind kind) {
  return core::SelectorKindName(kind);
}
inline std::optional<SelectorKind> SelectorKindFromName(
    std::string_view name) {
  return core::SelectorKindFromName(name);
}
inline std::vector<SelectorKind> AllSelectorKinds() {
  return core::AllSelectorKinds();
}

/// The incremental conditioning layer shared by cleaning sessions, the
/// adaptive cleaner, the CLI, and the examples.
///
/// One engine owns, for one base database and one (k, order) query:
///   - the accumulated pairwise constraint set and its version counter,
///   - the exact evaluation path (QualityEvaluator on the *base* database,
///     so reported distributions/qualities are always the exact Eq. 5
///     conditioning, never the marginal approximation),
///   - a sparse copy-on-write working database (model::DatabaseOverlay
///     over a delta Database) that selection operates on: folding an
///     answer reweights only the two affected objects' overrides,
///   - lazily built per-session *delta artifacts* layered over the shared
///     base artifacts: a delta-mode rank::MembershipCalculator (override
///     prefix columns over the shared base calculator) and a
///     pbtree::DeltaTree (copy-on-write path copies over the shared base
///     tree, reclaimed through the shared util::EpochManager),
///   - memoized conditioned top-k distribution and quality H(S_k | A),
///     invalidated by the constraint-set version counter.
///
/// The artifact-ownership contract: the base database, base membership
/// calculator, and base PBTree are immutable and shared by every engine
/// (many concurrent readers); each engine owns exactly one writer-side
/// delta per artifact, kept O(answers folded). An engine never clones the
/// base artifacts, before or after its first fold.
///
/// Contract (pinned by tests/engine_test.cc): every engine-served result is
/// bit-identical — or within 1e-12 where a different summation order is
/// inherent — to recomputing the same quantity from scratch on a freshly
/// built database carrying the working probabilities.
///
/// Not thread-safe: one engine serves one logical cleaning loop.
class RankingEngine {
 public:
  struct Options {
    int k = 10;
    pw::OrderMode order = pw::OrderMode::kInsensitive;
    pw::EnumeratorOptions enumerator;

    /// The objective this engine cleans toward (core/semantics.h). The
    /// default is the paper's entropy objective and keeps every historical
    /// path — distribution memo, EI selection, counters — byte-identical.
    /// Non-default objectives read the conditioned *marginals*: Fold then
    /// always updates the working copy (the requested update_working is
    /// OR-ed with RankingSemantics::requires_working_fold()), Quality()
    /// reports the objective's uncertainty functional, and MakeSelector
    /// rescores candidate pairs by the objective's expected improvement.
    core::SemanticsId semantics = core::SemanticsId::kEntropy;

    /// Selector knobs, passed through to MakeSelector.
    int fanout = 8;
    uint64_t seed = 42;
    double rand_k_fraction = 0.2;
    int candidate_pool = 64;
    util::ParallelConfig parallel;

    /// Shared read-only artifacts on the *base* database. The serving
    /// runtime builds these once per (db, k) / (db, fanout) and hands them
    /// to every session's engine, so N concurrent sessions pay for one
    /// membership scan and one tree build total — and keep sharing them
    /// for their whole lifetime: once a session folds with update_working,
    /// the engine layers per-session deltas (override prefix columns,
    /// copy-on-write tree paths) *over* these base artifacts instead of
    /// cloning them. Compatibility (same database object, same k) is
    /// checked on use; a mismatched artifact degrades to a private base
    /// build rather than serving wrong data.
    std::shared_ptr<const rank::MembershipCalculator> shared_membership;
    std::shared_ptr<const pbtree::PBTree> shared_tree;

    /// Epoch manager that reclaims retired DeltaTree node versions. Shared
    /// across sessions by the serving runtime (one reclamation domain per
    /// catalog); an engine without one lazily owns a private manager.
    std::shared_ptr<util::EpochManager> epochs;
  };

  /// What Fold did with an answer.
  enum class FoldOutcome {
    kApplied,        // accepted: constraints extended, working db updated
    kContradictory,  // zero surviving possible worlds — discarded
    kDegenerate,     // marginal fold would zero out an object — discarded
  };

  /// `db` must be finalized and outlive the engine.
  RankingEngine(const model::Database& db, const Options& options);

  const model::Database& base_db() const { return *base_; }
  /// The copy-on-write database selection operates on. Until the first
  /// update_working fold this *is* base_db() (same object — the overlay
  /// copies lazily), which is what makes shared-artifact borrowing sound.
  const model::Database& working_db() const { return overlay_.db(); }

  /// Forces the sparse working delta into existence now. Idempotent and
  /// cheap (no copy — the delta resolves against the base until objects
  /// are overridden). Kept for callers that want working_db() to stop
  /// aliasing the base before the first fold.
  void PrepareWorkingCopy();
  /// Whether the copy-on-write working database has split from the base
  /// (some update_working fold, PrepareWorkingCopy, or a snapshot restore
  /// with working weights happened). The persist layer snapshots working
  /// marginals only when this is true.
  bool working_materialized() const { return overlay_.materialized(); }
  const Options& options() const { return options_; }
  const pw::ConstraintSet& constraints() const { return constraints_; }
  /// Bumped once per applied fold; memoized artifacts key on it.
  uint64_t version() const { return version_; }

  /// The membership calculator on the working database: the shared base
  /// calculator while the working database still aliases the base, then a
  /// per-session delta calculator layered over it (override prefix
  /// columns, O(answers)), refreshed per-object after every applied
  /// update_working fold.
  std::shared_ptr<const rank::MembershipCalculator> membership();

  /// The PB-tree reader on the working database: the shared base tree
  /// while the working database aliases the base, then a per-session
  /// pbtree::DeltaTree layering copy-on-write path copies over it,
  /// updated after every applied update_working fold.
  const pbtree::TreeReader& tree();

  /// Per-engine delta memory: bytes attributable to this session's
  /// overlay overrides, membership delta columns, and tree node copies.
  /// O(answers folded); stays 0 until the first update_working fold.
  struct MemoryFootprint {
    int64_t overlay_bytes = 0;
    int64_t membership_bytes = 0;
    int64_t tree_bytes = 0;
    int64_t total() const {
      return overlay_bytes + membership_bytes + tree_bytes;
    }
  };
  MemoryFootprint DeltaMemory() const;

  /// Folds the answer "smaller ranks above larger" into the engine:
  /// rejects it as kContradictory when it leaves zero surviving possible
  /// worlds (exact check on the base database, Eq. 5's domain), otherwise
  /// extends the constraint set. With `update_working`, additionally folds
  /// the answer into the working database's marginals
  ///   p'_s(i) ∝ p_s(i)·Pr_l(l > i),  p'_l(j) ∝ p_l(j)·Pr_s(s < j)
  /// (pre-update marginals; the documented cross-object-correlation-
  /// dropping approximation of AdaptiveCleaner) and refreshes the two
  /// objects in every built artifact — O(instances + height·fanout) work,
  /// independent of how many other objects the database holds. Returns a
  /// non-OK status only for errors (invalid ids, or a feasibility sweep
  /// past `Options::enumerator`'s max_states or cancelled by its token,
  /// which leaves the engine unchanged); rejected answers are reported
  /// through `outcome`.
  util::Status Fold(model::ObjectId smaller, model::ObjectId larger,
                    bool update_working, FoldOutcome* outcome);

  /// One working-database marginal to restore, bit-exact (persist layer).
  struct RestoredWeights {
    model::ObjectId oid = model::kInvalidObject;
    std::vector<double> probs;
  };

  /// Fast-forwards a *fresh* engine to a snapshotted state without
  /// re-running the folds it summarizes: installs the accepted constraints
  /// in their original fold order, sets version() to `version`, and — when
  /// `working` is non-empty — materializes the sparse working delta and
  /// restores each listed object's marginals verbatim (no renormalization,
  /// so the working database is bitwise the one that was snapshotted; see
  /// model::DatabaseOverlay::RestoreExact). The restored state is a delta
  /// over the shared base, and the delta artifacts built afterwards pick
  /// the restored overrides up on construction — a warm-restarted session
  /// shares the base membership/tree exactly like a live one. Subsequent
  /// WAL replay folds continue from here and land bit-identically where
  /// the uninterrupted run did. kFailedPrecondition unless the engine is
  /// untouched (no folds, no working copy); kInvalidArgument on
  /// out-of-range object ids or a version inconsistent with the
  /// constraint count.
  util::Status RestoreSnapshot(
      const std::vector<std::pair<model::ObjectId, model::ObjectId>>&
          constraints,
      uint64_t version, const std::vector<RestoredWeights>& working);

  /// A fresh selector of the given kind on the working database, borrowing
  /// the engine's shared artifacts (membership; PB-tree for the
  /// index-based kinds). Create one per selection step: construction is
  /// cheap once the shared artifacts exist, and a selector created before
  /// a Fold would keep serving the refreshed artifacts without re-reading
  /// options.
  std::unique_ptr<core::PairSelector> MakeSelector(SelectorKind kind);

  /// The exact top-k distribution conditioned on the accumulated
  /// constraints (on the base database). Memoized per version().
  util::StatusOr<pw::TopKDistribution> Distribution() const;

  /// The active objective's uncertainty. For the default entropy
  /// semantics: H(S_k | constraints) from the memoized distribution (the
  /// historical behaviour, bit-identical). For other semantics: the
  /// objective's functional over the conditioned working marginals,
  /// memoized per version().
  util::StatusOr<double> Quality() const;

  /// The active objective (engine-owned, stateful — its memo tracks this
  /// engine's working copy).
  const core::RankingSemantics& semantics() const { return *semantics_; }

  /// The point answer under the active semantics (core/semantics.h):
  /// the most probable result set for entropy, the k best expected ranks
  /// for expected_rank, the per-rank winners for ukranks.
  util::StatusOr<std::vector<topk::ScoredObject>> PointAnswer() const;

  /// Pr(constraints hold) on the base database (exact, Eq. 5 numerator).
  double ConstraintProbability(const pw::ConstraintSet& constraints) const {
    return evaluator_.ConstraintProbability(constraints);
  }

  /// The exact evaluation path, for consumers that need the full
  /// QualityEvaluator surface (EI oracles, crowd-expectation queries).
  const core::QualityEvaluator& evaluator() const { return evaluator_; }

  /// Per-engine observability snapshot for tests and benchmarks. The same
  /// events also feed the process-wide obs::MetricsRegistry (see DESIGN.md
  /// §4.10: ptk_engine_fold_seconds, ptk_engine_folds_applied_total, ...),
  /// which aggregates across engines; this accessor stays per-instance.
  struct Counters {
    int64_t enumerations = 0;       // full conditioned-distribution builds
    int64_t distribution_hits = 0;  // memoized Distribution/Quality serves
    int64_t folds_applied = 0;
    int64_t folds_rejected = 0;     // contradictory + degenerate
  };
  /// Returns a consistent-enough snapshot assembled from atomic reads: it
  /// is safe to call while another thread is folding (each field is an
  /// atomic load; the struct is not a cross-field transaction). This used
  /// to hand out a reference into a plain struct mutated by const
  /// accessors — a data race under any concurrent reader.
  Counters counters() const {
    Counters c;
    c.enumerations = enumerations_.load(std::memory_order_relaxed);
    c.distribution_hits = distribution_hits_.load(std::memory_order_relaxed);
    c.folds_applied = folds_applied_.load(std::memory_order_relaxed);
    c.folds_rejected = folds_rejected_.load(std::memory_order_relaxed);
    return c;
  }

 private:
  // Engine options projected onto SelectorOptions, without artifacts.
  core::SelectorOptions BaseSelectorOptions() const;
  // Builds/refreshes the memoized distribution for the current version.
  util::Status EnsureDistribution() const;
  // The context the active semantics reads (base, working, k, order).
  core::SemanticsContext SemanticsContextNow() const;
  // The shared (or lazily owned) base artifacts — always on *base_.
  std::shared_ptr<const rank::MembershipCalculator> BaseMembership();
  std::shared_ptr<const pbtree::PBTree> BaseTree();
  std::shared_ptr<util::EpochManager> Epochs();

  const model::Database* base_;
  Options options_;
  core::QualityEvaluator evaluator_;  // exact path, base database
  model::DatabaseOverlay overlay_;    // sparse working delta
  pw::ConstraintSet constraints_;
  uint64_t version_ = 0;

  // Base artifacts: Options::shared_* when compatible, else built once on
  // the base database and kept for the engine's lifetime.
  std::shared_ptr<const rank::MembershipCalculator> base_membership_;
  std::shared_ptr<const pbtree::PBTree> base_tree_;
  std::shared_ptr<util::EpochManager> epochs_;
  // Per-session deltas over the base artifacts, lazily created on first
  // use after the working delta materializes. Fold refreshes the two
  // touched objects in each; construction picks up overrides already in
  // the delta (snapshot restore).
  std::shared_ptr<rank::MembershipCalculator> delta_membership_;
  std::unique_ptr<pbtree::DeltaTree> delta_tree_;

  // Memoized exact conditioning, keyed on version_.
  mutable bool dist_valid_ = false;
  mutable uint64_t dist_version_ = 0;
  mutable pw::TopKDistribution dist_;
  mutable double quality_ = 0.0;

  // The active objective and — for non-default semantics — its memoized
  // uncertainty, keyed on version_ like the distribution memo. Mutable:
  // the semantics' internal memo refreshes from const Quality() reads.
  mutable std::unique_ptr<core::RankingSemantics> semantics_;
  mutable bool sem_quality_valid_ = false;
  mutable uint64_t sem_quality_version_ = 0;
  mutable double sem_quality_ = 0.0;

  // counters() storage. Atomics, not a struct: the memo counters are
  // bumped from const accessors and folds_* from Fold, while counters()
  // may be read concurrently (e.g. a metrics scrape).
  mutable std::atomic<int64_t> enumerations_{0};
  mutable std::atomic<int64_t> distribution_hits_{0};
  std::atomic<int64_t> folds_applied_{0};
  std::atomic<int64_t> folds_rejected_{0};
};

}  // namespace ptk::engine

#endif  // PTK_ENGINE_RANKING_ENGINE_H_
