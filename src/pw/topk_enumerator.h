#ifndef PTK_PW_TOPK_ENUMERATOR_H_
#define PTK_PW_TOPK_ENUMERATOR_H_

#include <atomic>
#include <cstdint>

#include "model/database.h"
#include "pw/constraint.h"
#include "pw/topk_distribution.h"
#include "util/status.h"

namespace ptk::pw {

/// Tuning of the top-k enumeration.
struct EnumeratorOptions {
  /// States whose probability drops to or below this value are pruned; the
  /// pruned mass is accounted exactly in TopKDistribution::lost_mass().
  /// 0 gives the exact distribution. This implements the paper's "omit
  /// possible worlds with extremely low probabilities" device (§6.2).
  double epsilon = 0.0;

  /// Hard cap on expanded states — frontier states summed over scan
  /// positions plus the joint components' DP states (JointComponent::
  /// dp_states); exceeding it returns ResourceExhausted.
  int64_t max_states = int64_t{50'000'000};

  /// Cooperative cancellation token (util::CancelSource::token()), polled
  /// once per scan position, every 4096 frontier states within one, and
  /// inside the joint components' DP sweeps; a set flag aborts the
  /// enumeration with util::Status::Cancelled. Null means "never
  /// cancelled". The serving runtime's deadline watchdog fires this
  /// mid-enumeration.
  const std::atomic<bool>* cancel = nullptr;
};

/// Computes the distribution over top-k results across possible worlds
/// without materializing the worlds: a ranked scan over the globally
/// value-sorted instances expands *prefix states* — "the top-j result is
/// exactly this instance sequence and every other object ranks beyond scan
/// position t" — whose probabilities factor across objects (the U-Topk
/// state machine of Soliman et al. [29], generalized here to conditioning
/// on pairwise comparison outcomes via JointComponent groups).
///
/// Exact when epsilon == 0; with pruning, the missing probability mass is
/// tracked exactly because pruned states form an antichain of disjoint
/// events. The frontier lives in flat arrays (keys inline, stride k - 1,
/// open-addressing index) iterated in insertion order, so every sum has a
/// fixed order; a component's factors are read from its W table.
class TopKEnumerator {
 public:
  explicit TopKEnumerator(const model::Database& db);

  /// Enumerates the distribution of top-k results, conditioned on
  /// `constraints` when non-null (Eq. 5 generalized to a set of
  /// comparisons). The result's order mode is `order`; the enumeration is
  /// order-sensitive internally and collapsed for kInsensitive.
  util::Status Enumerate(int k, OrderMode order,
                         const ConstraintSet* constraints,
                         const EnumeratorOptions& options,
                         TopKDistribution* out) const;

 private:
  const model::Database* db_;
};

}  // namespace ptk::pw

#endif  // PTK_PW_TOPK_ENUMERATOR_H_
