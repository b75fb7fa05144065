#include "pw/joint_component.h"

#include <algorithm>
#include <cassert>

#include "obs/metrics.h"
#include "util/cancellation.h"

namespace ptk::pw {

namespace {

struct PwMetrics {
  obs::Histogram* component_members;
  obs::Counter* dp_states;

  static const PwMetrics& Get() {
    static const PwMetrics metrics = {
        obs::GetHistogram("ptk_pw_component_members",
                          "Members of each joint component built",
                          {{2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64}}),
        obs::GetCounter("ptk_pw_dp_states_total",
                        "Joint-component DP states swept (filters x "
                        "component instances)"),
    };
    return metrics;
  }
};

uint64_t Mix(uint64_t h) {  // splitmix64 finalizer
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ull;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebull;
  return h ^ (h >> 31);
}

constexpr int kCancelPollFilters = 4096;

}  // namespace

JointComponent::JointComponent(const model::Database& db,
                               std::vector<model::ObjectId> members,
                               std::vector<PairwiseConstraint> constraints)
    : JointComponent(db, std::move(members), std::move(constraints),
                     Options{}) {}

JointComponent::JointComponent(const model::Database& db,
                               std::vector<model::ObjectId> members,
                               std::vector<PairwiseConstraint> constraints,
                               const Options& options)
    : db_(&db), members_(std::move(members)) {
  assert(std::is_sorted(members_.begin(), members_.end()));
  const int n = size();
  words_ = std::max(1, (n + 63) / 64);
  const PwMetrics& metrics = PwMetrics::Get();
  metrics.component_members->Observe(n);

  // Successor bitsets: succ[j] = members j must rank above.
  std::vector<uint64_t> succ(static_cast<size_t>(n) * words_, 0);
  index_constraints_.reserve(constraints.size());
  for (const PairwiseConstraint& c : constraints) {
    const int si = MemberIndex(c.smaller);
    const int li = MemberIndex(c.larger);
    assert(si >= 0 && li >= 0);
    index_constraints_.emplace_back(si, li);
    succ[si * words_ + li / 64] |= uint64_t{1} << (li % 64);
  }

  // The component's instances, descending global position (sweep order).
  struct Step {
    model::Position pos;
    int member;
    double prob;
  };
  std::vector<Step> steps;
  for (int m = 0; m < n; ++m) {
    for (const model::Instance& inst : db.object(members_[m]).instances()) {
      steps.push_back({db.PositionOf({inst.oid, inst.iid}), m, inst.prob});
    }
  }
  std::sort(steps.begin(), steps.end(),
            [](const Step& a, const Step& b) { return a.pos > b.pos; });
  const int64_t num_steps = static_cast<int64_t>(steps.size());

  // The filter lattice, breadth-first from the empty filter; edges[j]
  // lists (F, F ∪ {j}) for every filter F that j may join.
  std::vector<std::vector<std::pair<int32_t, int32_t>>> edges(n);
  std::vector<uint64_t> bits(words_, 0);
  Intern(bits.data());
  for (int f = 0; f < num_filters_; ++f) {
    if (f % kCancelPollFilters == 0 && util::CancelRequested(options.cancel)) {
      status_ = util::Status::Cancelled("joint component sweep cancelled");
      return;
    }
    for (int j = 0; j < n; ++j) {
      const uint64_t* filter = &filter_bits_[static_cast<size_t>(f) * words_];
      const uint64_t bit = uint64_t{1} << (j % 64);
      if (filter[j / 64] & bit) continue;
      bool ready = true;
      for (int w = 0; w < words_ && ready; ++w) {
        ready = (succ[j * words_ + w] & ~filter[w]) == 0;
      }
      if (!ready) continue;
      bits.assign(filter, filter + words_);
      bits[j / 64] |= bit;
      edges[j].emplace_back(f, Intern(bits.data()));
    }
    if (static_cast<int64_t>(num_filters_) * std::max<int64_t>(1, num_steps) >
        options.max_states) {
      status_ = util::Status::ResourceExhausted(
          "joint component has too many order filters for max_states");
      return;
    }
  }
  dp_states_ = static_cast<int64_t>(num_filters_) * num_steps;
  metrics.dp_states->Add(dp_states_);

  // The sweep. Within one step every source lacks j and every target has
  // it, so updating W in place reads only pre-step values.
  const size_t stride = static_cast<size_t>(num_filters_);
  std::vector<double> w;
  if (options.keep_table) {
    table_.assign((static_cast<size_t>(num_steps) + 1) * stride, 0.0);
  } else {
    w.assign(stride, 0.0);
  }
  double* cur = options.keep_table ? table_.data() : w.data();
  cur[0] = 1.0;
  for (const Step& step : steps) {
    if (util::CancelRequested(options.cancel)) {
      table_.clear();
      status_ = util::Status::Cancelled("joint component sweep cancelled");
      return;
    }
    if (options.keep_table) {
      std::copy(cur, cur + stride, cur + stride);
      cur += stride;
    }
    for (const auto& [from, to] : edges[step.member]) {
      cur[to] += cur[from] * step.prob;
    }
  }
  if (options.keep_table) {
    positions_.reserve(steps.size());
    for (auto it = steps.rbegin(); it != steps.rend(); ++it) {
      positions_.push_back(it->pos);
    }
  }

  std::fill(bits.begin(), bits.end(), 0);
  for (int m = 0; m < n; ++m) bits[m / 64] |= uint64_t{1} << (m % 64);
  const int all = FilterIndex(bits);
  z_ = all < 0 ? 0.0 : cur[all];
}

int JointComponent::MemberIndex(model::ObjectId oid) const {
  const auto it = std::lower_bound(members_.begin(), members_.end(), oid);
  if (it == members_.end() || *it != oid) return -1;
  return static_cast<int>(it - members_.begin());
}

uint64_t JointComponent::Hash(const uint64_t* bits) const {
  uint64_t h = 0x9e3779b97f4a7c15ull;
  for (int w = 0; w < words_; ++w) h = Mix(h ^ bits[w]);
  return h;
}

int JointComponent::Intern(const uint64_t* bits) {
  if (2 * (static_cast<size_t>(num_filters_) + 1) > slots_.size()) {
    slots_.assign(std::max<size_t>(64, 2 * slots_.size()), -1);
    const size_t mask = slots_.size() - 1;
    for (int f = 0; f < num_filters_; ++f) {
      size_t i = Hash(&filter_bits_[static_cast<size_t>(f) * words_]) & mask;
      while (slots_[i] >= 0) i = (i + 1) & mask;
      slots_[i] = f;
    }
  }
  const size_t mask = slots_.size() - 1;
  for (size_t i = Hash(bits) & mask;; i = (i + 1) & mask) {
    const int32_t f = slots_[i];
    if (f < 0) {
      slots_[i] = num_filters_;
      filter_bits_.insert(filter_bits_.end(), bits, bits + words_);
      return num_filters_++;
    }
    if (std::equal(bits, bits + words_,
                   &filter_bits_[static_cast<size_t>(f) * words_])) {
      return f;
    }
  }
}

int JointComponent::FilterIndex(std::span<const uint64_t> bits) const {
  assert(static_cast<int>(bits.size()) == words_);
  if (slots_.empty()) return -1;
  const size_t mask = slots_.size() - 1;
  for (size_t i = Hash(bits.data()) & mask;; i = (i + 1) & mask) {
    const int32_t f = slots_[i];
    if (f < 0) return -1;
    if (std::equal(bits.begin(), bits.end(),
                   &filter_bits_[static_cast<size_t>(f) * words_])) {
      return f;
    }
  }
}

int JointComponent::RowBeyond(model::Position pos) const {
  assert(!table_.empty());
  const auto at_or_before =
      std::upper_bound(positions_.begin(), positions_.end(), pos);
  return static_cast<int>(positions_.end() - at_or_before);
}

double JointComponent::Factor(std::span<const model::InstanceId> placed_iids,
                              model::Position pos) const {
  assert(placed_iids.size() == members_.size());
  const int n = size();
  std::vector<model::Position> at(n, -1);
  std::vector<uint64_t> unplaced(words_, 0);
  double prob = 1.0;
  for (int m = 0; m < n; ++m) {
    if (placed_iids[m] < 0) {
      unplaced[m / 64] |= uint64_t{1} << (m % 64);
      continue;
    }
    const model::InstanceRef ref{members_[m], placed_iids[m]};
    at[m] = db_->PositionOf(ref);
    assert(at[m] <= pos && "Factor: a placed instance lies beyond pos");
    prob *= db_->instance(ref).prob;
  }
  for (const auto& [si, li] : index_constraints_) {
    if (at[si] >= 0 && at[li] >= 0 && at[si] >= at[li]) return 0.0;
  }
  if (z_ <= 0.0) return 0.0;
  return prob * W(RowBeyond(pos), FilterIndex(unplaced)) / z_;
}

}  // namespace ptk::pw
