#ifndef PTK_MODEL_DATABASE_H_
#define PTK_MODEL_DATABASE_H_

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <utility>
#include <vector>

#include "model/instance.h"
#include "model/uncertain_object.h"
#include "util/status.h"

namespace ptk::persist {
class CatalogIo;  // bit-exact Database (de)serialization, persist/catalog.cc
}

namespace ptk::model {

/// Global position of an instance in the database-wide (value, oid, iid)
/// ascending order; position 0 is the highest-ranked instance.
using Position = int32_t;

/// A probabilistic database: a set of independent uncertain objects under
/// possible-world semantics (Section 3.1). After Finalize() the database is
/// immutable and exposes a global value-sorted instance index used by the
/// top-k enumerator and the membership calculator. The only sanctioned
/// post-Finalize mutation is DatabaseOverlay's in-place marginal reweight,
/// which keeps every value (and therefore the sorted index) intact and
/// bumps mutation_version() so cached derived artifacts can detect
/// staleness (SelectorOptions::MembershipFor).
///
/// A Database can also be a *delta* over a shared immutable base
/// (DatabaseOverlay::Materialize creates one). A delta stores only the
/// objects whose marginals have been reweighted — memory is O(answers
/// folded), not O(m) — and resolves everything else against the base:
/// object() checks the override map first, MassBeyond/MassBefore read the
/// base positions with override suffix masses, and PositionOf delegates
/// outright (reweights never change values, so the global sorted order is
/// shared verbatim). Consumers that genuinely need the full materialized
/// arrays — objects() and sorted_instances() — get a lazily built bulk
/// view patched with the overrides; that view costs O(m) and is the
/// documented exception (brute-force selection, world sampling, exact
/// semantics), never touched by the incremental serving path. A delta is
/// single-writer: its owner serializes reweights, while any number of
/// threads may concurrently read the (never-mutated) base.
class Database {
 public:
  Database() = default;

  /// Adds an object from (value, probability) pairs and returns its id.
  /// Must be called before Finalize().
  ObjectId AddObject(std::vector<std::pair<double, double>> pairs,
                     std::string label = "");

  /// Validates every object (positive probabilities summing to 1 within
  /// `tolerance`, no duplicate values inside one object, at least one
  /// instance) and builds the sorted index. Probabilities are renormalized
  /// to 1 so downstream math is numerically clean; an object whose sum is
  /// already 1 within the rounding of that division keeps its bits, so
  /// Finalize is idempotent (LoadCsv(SaveCsv(db)) reproduces db).
  util::Status Finalize(double tolerance = 1e-6);

  bool finalized() const { return finalized_; }

  /// Monotonic counter of state changes: bumped by Finalize() and by every
  /// in-place marginal reweight (DatabaseOverlay). Consumers that cache
  /// per-database artifacts (membership tables, PB-trees) record the
  /// version they were built against and treat a mismatch as stale.
  uint64_t mutation_version() const { return mutation_version_; }

  int num_objects() const {
    return delta_base_ != nullptr ? delta_base_->num_objects()
                                  : static_cast<int>(objects_.size());
  }
  int num_instances() const {
    return delta_base_ != nullptr ? delta_base_->num_instances()
                                  : static_cast<int>(sorted_.size());
  }

  const UncertainObject& object(ObjectId oid) const {
    if (delta_base_ == nullptr) [[likely]] return objects_[oid];
    return DeltaObject(oid);
  }

  /// Full object array. In delta mode this materializes the O(m) bulk view
  /// (base copy patched with overrides) on first use; incremental callers
  /// should use object() instead.
  const std::vector<UncertainObject>& objects() const {
    if (delta_base_ == nullptr) [[likely]] return objects_;
    EnsureBulk();
    return bulk_objects_;
  }

  const Instance& instance(InstanceRef ref) const {
    return object(ref.oid).instance(ref.iid);
  }

  // ---- Delta mode ----

  /// True if this database is a sparse delta over a shared base.
  bool is_delta() const { return delta_base_ != nullptr; }

  /// The base this delta resolves against, or nullptr in base mode. The
  /// base's sorted index, positions, and non-overridden objects are shared
  /// (reweights never change values, only probabilities).
  const Database* delta_base() const { return delta_base_; }

  /// Ids of objects with an override, ascending. Empty in base mode.
  std::vector<ObjectId> OverriddenObjects() const;

  /// Approximate resident bytes attributable to this delta: override
  /// objects + suffix masses + map nodes + the bulk view if some consumer
  /// forced it. Zero in base mode. Feeds the per-session memory gauge.
  int64_t DeltaBytes() const;

  // ---- Global sorted index (available after Finalize) ----

  /// All instances ascending by (value, oid, iid). In delta mode this
  /// materializes the O(m) bulk view on first use; see objects().
  const std::vector<Instance>& sorted_instances() const {
    if (delta_base_ == nullptr) [[likely]] return sorted_;
    EnsureBulk();
    return bulk_sorted_;
  }

  /// Global position of an instance.
  Position PositionOf(InstanceRef ref) const {
    if (delta_base_ != nullptr) return delta_base_->PositionOf(ref);
    return position_[offset_[ref.oid] + ref.iid];
  }

  /// Probability that object `oid` takes an instance with global position
  /// strictly greater than `pos` (i.e., ranks beyond the first pos+1
  /// sorted instances). Pass -1 for "any instance" (returns 1).
  double MassBeyond(ObjectId oid, Position pos) const;

  /// Probability that object `oid` takes an instance with global position
  /// strictly less than `pos` ("ranks above" the instance at pos).
  double MassBefore(ObjectId oid, Position pos) const;

 private:
  friend class DatabaseOverlay;
  friend class ptk::persist::CatalogIo;

  /// Creates a sparse delta over `base` (which must be finalized and not
  /// itself a delta). The caller must keep `base` alive and unmutated for
  /// the delta's lifetime. Only DatabaseOverlay constructs deltas.
  static Database MakeDelta(const Database& base);

  /// Delta-mode object resolution: override slot if present, else base.
  const UncertainObject& DeltaObject(ObjectId oid) const;

  /// Delta mode: returns (creating on first touch) the override for `oid`,
  /// seeded with a copy of the base object. Stored in a deque so existing
  /// object() references stay valid across later overrides.
  UncertainObject& EnsureOverride(ObjectId oid);

  /// Delta mode: recomputes the override's suffix masses from its instance
  /// probabilities — the same descending accumulation BuildIndex uses, so
  /// MassBeyond/MassBefore answers are bitwise identical to a full copy.
  void RefreshOverrideSuffix(ObjectId oid);

  /// Delta mode: (re)builds the bulk view — a full copy of the base arrays
  /// patched with every override — memoized on mutation_version().
  void EnsureBulk() const;

  /// Replaces object `oid`'s instance probabilities in place (values and
  /// instance count unchanged), renormalizing `probs` to sum exactly to 1.
  /// Probabilities may be zero — a zero-probability instance keeps its slot
  /// in the sorted index but carries no mass anywhere downstream. Only the
  /// object's own instances, their copies in the sorted index, and the
  /// object's suffix masses are touched: O(num_instances(oid)), independent
  /// of database size. Requires finalized(), probs.size() ==
  /// num_instances(oid), all probs >= 0, and a positive total.
  void ReweightObjectInPlace(ObjectId oid, const std::vector<double>& probs);

  /// Persist-restore variant: sets object `oid`'s probabilities *verbatim*
  /// (no renormalization) and refreshes the derived suffix masses. The
  /// inputs are probabilities a previous run's ReweightObjectInPlace
  /// produced, stored as exact bit patterns, so re-dividing by their
  /// not-exactly-1.0 sum would break the bit-identical recovery contract.
  /// Same preconditions as ReweightObjectInPlace otherwise.
  void SetObjectProbsInPlace(ObjectId oid, const std::vector<double>& probs);

  /// The index-construction half of Finalize(): rebuilds sorted_, offset_,
  /// position_, obj_positions_ and obj_suffix_mass_ from objects_ exactly
  /// as Finalize does, without validating or renormalizing. persist's
  /// catalog loader calls it after restoring objects_ with already-
  /// normalized probabilities, where Finalize's renormalization division
  /// could perturb the restored bits.
  void BuildIndex();

  bool finalized_ = false;
  uint64_t mutation_version_ = 0;
  std::vector<UncertainObject> objects_;

  // Sorted index, built by Finalize().
  std::vector<Instance> sorted_;
  std::vector<int> offset_;         // per object: start in position_
  std::vector<Position> position_;  // flat (oid,iid) -> global position
  // Per object: its instances' global positions ascending, and the suffix
  // probability mass starting at each of them.
  std::vector<std::vector<Position>> obj_positions_;
  std::vector<std::vector<double>> obj_suffix_mass_;

  // ---- Delta mode state (empty in base mode) ----
  const Database* delta_base_ = nullptr;
  std::unordered_map<ObjectId, int32_t> over_slot_;  // oid -> deque index
  std::deque<UncertainObject> over_objects_;
  std::deque<std::vector<double>> over_suffix_;
  // Lazy O(m) bulk view for objects()/sorted_instances() consumers;
  // bulk_version_ == 0 means unbuilt (mutation_version() is >= 1 once
  // finalized, so 0 never collides).
  mutable std::vector<UncertainObject> bulk_objects_;
  mutable std::vector<Instance> bulk_sorted_;
  mutable uint64_t bulk_version_ = 0;
};

}  // namespace ptk::model

#endif  // PTK_MODEL_DATABASE_H_
