#ifndef PTK_PW_JOINT_COMPONENT_H_
#define PTK_PW_JOINT_COMPONENT_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "model/database.h"
#include "pw/constraint.h"
#include "util/status.h"

namespace ptk::pw {

/// The joint distribution of one connected component of the comparison
/// graph: a set of objects coupled by pairwise order constraints,
/// conditioned on those constraints holding. The top-k enumerator treats a
/// component as a single group whose "survival" factor it queries as the
/// ranked scan advances.
///
/// The constraints form a poset on the members (x < y: x ranks above y).
/// Everything is computed by one backward DP over its *order filters* (the
/// up-closed member sets). The sweep walks the component's own instances
/// in descending global position; W(F) is the probability that every
/// member of F sits beyond the sweep point with every constraint among
/// them holding. An instance of member j with probability p adds
/// W(F)·p to W(F ∪ {j}) when j ∉ F and every successor of j is in F.
/// Z = W(all members). Cost is O(#filters × component instances): linear
/// for chains, 2^leaves for stars, 2^members only for antichains.
class JointComponent {
 public:
  struct Options {
    /// Keep W after every component position, which Factor() and the
    /// enumerator read. The feasibility gate needs only Z and skips it.
    bool keep_table = false;
    /// Cap on DP states (filters × component instances); exceeding it
    /// leaves status() ResourceExhausted and Z = 0.
    int64_t max_states = std::numeric_limits<int64_t>::max();
    /// Polled while the filters are built and once per swept instance; a
    /// set flag leaves status() Cancelled and Z = 0.
    const std::atomic<bool>* cancel = nullptr;
  };

  /// `members` must be sorted and must contain every object mentioned by
  /// `constraints`. Computes Z only (default Options).
  JointComponent(const model::Database& db,
                 std::vector<model::ObjectId> members,
                 std::vector<PairwiseConstraint> constraints);
  JointComponent(const model::Database& db,
                 std::vector<model::ObjectId> members,
                 std::vector<PairwiseConstraint> constraints,
                 const Options& options);

  const std::vector<model::ObjectId>& members() const { return members_; }
  int size() const { return static_cast<int>(members_.size()); }

  /// OK, or why the sweep stopped (Cancelled / ResourceExhausted).
  const util::Status& status() const { return status_; }

  /// Pr(all constraints hold) — the normalizing constant Z of Eq. 5.
  /// Zero means the constraint set is contradictory (or status() is not
  /// OK).
  double prob_constraints() const { return z_; }

  /// DP states this component's sweep covered (filters × instances).
  int64_t dp_states() const { return dp_states_; }

  /// Index of `oid` within members(), or -1.
  int MemberIndex(model::ObjectId oid) const;

  /// Words of a member bitset (bit i = member i).
  int words() const { return words_; }

  /// Index of the order filter whose member set is `bits` (words()
  /// words), or -1 when that set is not a filter.
  int FilterIndex(std::span<const uint64_t> bits) const;

  /// Table row holding W for "beyond global position `pos`": the number
  /// of the component's instances ranked beyond `pos`. Needs keep_table.
  int RowBeyond(model::Position pos) const;

  /// W of filter `filter` (-1 reads 0) at table row `row`.
  double W(int row, int filter) const {
    return filter < 0 ? 0.0
                      : table_[static_cast<size_t>(row) * num_filters_ +
                               static_cast<size_t>(filter)];
  }

  /// Conditional factor used by the enumerator:
  ///   Pr(placed members take their given instances
  ///      AND every unplaced member ranks strictly beyond global position
  ///          `pos`
  ///      AND all constraints hold) / Z
  ///   = [constraints among placed hold] · Π p_placed · W_pos(unplaced) / Z.
  /// `placed_iids` is parallel to members(); -1 marks an unplaced member.
  /// Contract (asserted): every placed instance sits at a position ≤ `pos`
  /// — the enumerator's invariant, under which a placed member can only
  /// violate a constraint by ranking below an unplaced one, which W reads
  /// as 0 (the unplaced set is then not a filter). `pos == -1` means "no
  /// position restriction yet". Needs keep_table.
  double Factor(std::span<const model::InstanceId> placed_iids,
                model::Position pos) const;

 private:
  int Intern(const uint64_t* bits);
  uint64_t Hash(const uint64_t* bits) const;

  const model::Database* db_;
  std::vector<model::ObjectId> members_;
  // Constraints as member-index pairs (smaller_idx, larger_idx).
  std::vector<std::pair<int, int>> index_constraints_;
  util::Status status_;
  double z_ = 0.0;
  int64_t dp_states_ = 0;

  int words_ = 1;
  int num_filters_ = 0;
  std::vector<uint64_t> filter_bits_;  // num_filters_ × words_
  std::vector<int32_t> slots_;         // open-addressing index, -1 empty
  // Global positions of the component's instances, ascending.
  std::vector<model::Position> positions_;
  // Row t = W after sweeping the t highest-positioned instances.
  std::vector<double> table_;
};

}  // namespace ptk::pw

#endif  // PTK_PW_JOINT_COMPONENT_H_
