#ifndef PTK_CORE_QUALITY_H_
#define PTK_CORE_QUALITY_H_

#include <functional>
#include <vector>

#include "model/database.h"
#include "pw/constraint.h"
#include "pw/topk_distribution.h"
#include "pw/topk_enumerator.h"
#include "util/status.h"
#include "util/statusor.h"

namespace ptk::core {

/// Evaluates the paper's quality metric H(S_k) (Eq. 4) and its
/// crowdsourcing-conditioned variants (Section 3.3), delegating the heavy
/// lifting to the top-k enumerator. This is the ground-truth evaluation
/// path: selection algorithms estimate improvements cheaply, and
/// experiments measure realized improvements through this class.
class QualityEvaluator {
 public:
  QualityEvaluator(const model::Database& db, int k, pw::OrderMode order,
                   pw::EnumeratorOptions enum_options = {});

  int k() const { return k_; }
  pw::OrderMode order() const { return order_; }

  /// Distribution over top-k results, conditioned on `constraints` when
  /// non-null.
  util::Status Distribution(const pw::ConstraintSet* constraints,
                            pw::TopKDistribution* out) const;

  /// H(S_k | constraints); pass nullptr for the prior quality H(S_k).
  util::Status Quality(const pw::ConstraintSet* constraints,
                       double* h) const;

  /// Pr(all constraints hold): the product of the component normalizing
  /// constants (components are independent).
  double ConstraintProbability(const pw::ConstraintSet& constraints) const;

  /// Z of the one component of `constraints` that contains `oid` (1 when
  /// no constraint mentions it). The fold gate's check: the other
  /// components were accepted with Z > 0 and are unchanged by a new pair.
  /// The sweep is held to the enumerator options' max_states and cancel
  /// token (ResourceExhausted / Cancelled), so a wide component cannot
  /// take unbounded memory.
  util::StatusOr<double> ComponentProbability(
      const pw::ConstraintSet& constraints, model::ObjectId oid) const;

  /// Exact expected quality improvement EI(S_k | (x, y)) of Eqs. 6-7,
  /// optionally on top of an existing constraint set (in which case the
  /// comparison outcome probability is conditioned on it too). This is the
  /// brute-force evaluation the paper's BF baseline performs per pair.
  util::Status ExactExpectedImprovement(model::ObjectId x, model::ObjectId y,
                                        const pw::ConstraintSet* base,
                                        double* ei) const;

  /// Expected quality EH(S_k | P_n) of Eq. 8 for a batch of pairs, with
  /// per-pair outcome probabilities supplied by `prob_first_greater`
  /// (e.g., the Eq. 19 crowd model). Outcome combinations are weighted by
  /// the product of per-pair probabilities; combinations whose constraint
  /// sets are contradictory are excluded and the rest renormalized. Also
  /// returns EI = H(S_k) - EH via `ei` when non-null.
  util::Status ExpectedQualityUnderCrowd(
      const std::vector<std::pair<model::ObjectId, model::ObjectId>>& pairs,
      const std::function<double(model::ObjectId, model::ObjectId)>&
          prob_first_greater,
      double* eh, double* ei) const;

 private:
  const model::Database* db_;
  int k_;
  pw::OrderMode order_;
  pw::EnumeratorOptions enum_options_;
  pw::TopKEnumerator enumerator_;
};

}  // namespace ptk::core

#endif  // PTK_CORE_QUALITY_H_
