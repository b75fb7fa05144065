#include "core/quality.h"

#include <algorithm>
#include <cmath>

#include "pw/joint_component.h"

namespace ptk::core {

QualityEvaluator::QualityEvaluator(const model::Database& db, int k,
                                   pw::OrderMode order,
                                   pw::EnumeratorOptions enum_options)
    : db_(&db),
      k_(k),
      order_(order),
      enum_options_(enum_options),
      enumerator_(db) {}

util::Status QualityEvaluator::Distribution(
    const pw::ConstraintSet* constraints, pw::TopKDistribution* out) const {
  return enumerator_.Enumerate(k_, order_, constraints, enum_options_, out);
}

util::Status QualityEvaluator::Quality(const pw::ConstraintSet* constraints,
                                       double* h) const {
  pw::TopKDistribution dist;
  util::Status s = Distribution(constraints, &dist);
  if (!s.ok()) return s;
  *h = dist.Entropy();
  return util::Status::OK();
}

double QualityEvaluator::ConstraintProbability(
    const pw::ConstraintSet& constraints) const {
  double z = 1.0;
  for (const auto& comp : constraints.Components()) {
    const pw::JointComponent joint(*db_, comp.members, comp.constraints);
    z *= joint.prob_constraints();
  }
  return z;
}

util::StatusOr<double> QualityEvaluator::ComponentProbability(
    const pw::ConstraintSet& constraints, model::ObjectId oid) const {
  for (auto& comp : constraints.Components()) {
    if (std::binary_search(comp.members.begin(), comp.members.end(), oid)) {
      pw::JointComponent::Options options;
      options.max_states = enum_options_.max_states;
      options.cancel = enum_options_.cancel;
      const pw::JointComponent joint(*db_, std::move(comp.members),
                                     std::move(comp.constraints), options);
      if (!joint.status().ok()) return joint.status();
      return joint.prob_constraints();
    }
  }
  return 1.0;
}

util::Status QualityEvaluator::ExactExpectedImprovement(
    model::ObjectId x, model::ObjectId y, const pw::ConstraintSet* base,
    double* ei) const {
  double h_base = 0.0;
  util::Status s = Quality(base, &h_base);
  if (!s.ok()) return s;

  pw::ConstraintSet with_gt;  // x > y, i.e., y ranks above x
  pw::ConstraintSet with_lt;
  if (base != nullptr) {
    for (const auto& c : base->constraints()) with_gt.Add(c.smaller, c.larger);
    with_lt = with_gt;
  }
  with_gt.Add(y, x);
  with_lt.Add(x, y);
  // Each outcome's probability comes from the same joint-component code the
  // enumerator uses for its normalizing constant, so an outcome is skipped
  // exactly when the enumeration would reject it as impossible (a pair of
  // independently computed probabilities could disagree at the boundary).
  const double zb =
      (base == nullptr || base->empty()) ? 1.0 : ConstraintProbability(*base);
  const double z_gt = ConstraintProbability(with_gt);
  const double z_lt = ConstraintProbability(with_lt);

  double eh = 0.0;
  if (z_gt > 0.0) {
    double h = 0.0;
    s = Quality(&with_gt, &h);
    if (!s.ok()) return s;
    eh += h * (z_gt / zb);
  }
  if (z_lt > 0.0) {
    double h = 0.0;
    s = Quality(&with_lt, &h);
    if (!s.ok()) return s;
    eh += h * (z_lt / zb);
  }
  *ei = h_base - eh;
  return util::Status::OK();
}

util::Status QualityEvaluator::ExpectedQualityUnderCrowd(
    const std::vector<std::pair<model::ObjectId, model::ObjectId>>& pairs,
    const std::function<double(model::ObjectId, model::ObjectId)>&
        prob_first_greater,
    double* eh, double* ei) const {
  const int n = static_cast<int>(pairs.size());
  if (n > 20) {
    return util::Status::InvalidArgument(
        "ExpectedQualityUnderCrowd enumerates 2^n outcomes; n > 20 is not "
        "supported");
  }
  // Crowd and data marginals per pair. The joint outcome distribution is
  // the data's own joint (which knows about shared objects) tilted
  // per-pair toward the crowd marginals:
  //   P(e) ∝ P_data(e) · Π_i [P_crowd,i(e_i) / P_data,i(e_i)].
  // For a single pair this is exactly the Eq. 19 crowd model; for pairs
  // sharing no object it reduces to the independent product; and unlike
  // the naive product it assigns zero weight to outcome combinations the
  // data deems impossible, which keeps EI monotone in the batch.
  std::vector<double> p_crowd(n), p_data(n);
  for (int i = 0; i < n; ++i) {
    p_crowd[i] = prob_first_greater(pairs[i].first, pairs[i].second);
    pw::ConstraintSet single;
    single.Add(pairs[i].second, pairs[i].first);  // first greater
    p_data[i] = ConstraintProbability(single);
  }

  double weighted = 0.0;
  double feasible_mass = 0.0;
  for (uint64_t mask = 0; mask < (uint64_t{1} << n); ++mask) {
    double tilt = 1.0;
    pw::ConstraintSet cons;
    for (int i = 0; i < n; ++i) {
      const bool first_greater = (mask >> i) & 1;
      const double crowd = first_greater ? p_crowd[i] : 1.0 - p_crowd[i];
      const double data = first_greater ? p_data[i] : 1.0 - p_data[i];
      if (data <= 0.0 || crowd <= 0.0) {
        tilt = 0.0;
        break;
      }
      tilt *= crowd / data;
      if (first_greater) {
        cons.Add(pairs[i].second, pairs[i].first);
      } else {
        cons.Add(pairs[i].first, pairs[i].second);
      }
    }
    if (tilt <= 0.0) continue;
    const double joint = ConstraintProbability(cons);
    if (joint <= 0.0) continue;  // contradictory combination
    const double pe = joint * tilt;
    double h = 0.0;
    util::Status s = Quality(&cons, &h);
    if (!s.ok()) return s;
    weighted += h * pe;
    feasible_mass += pe;
  }
  if (feasible_mass <= 0.0) {
    return util::Status::InvalidArgument(
        "every outcome combination is contradictory");
  }
  const double expected = weighted / feasible_mass;
  if (eh != nullptr) *eh = expected;
  if (ei != nullptr) {
    double h_base = 0.0;
    util::Status s = Quality(nullptr, &h_base);
    if (!s.ok()) return s;
    *ei = h_base - expected;
  }
  return util::Status::OK();
}

}  // namespace ptk::core
