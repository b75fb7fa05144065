#include "pw/topk_enumerator.h"

#include <algorithm>
#include <cassert>
#include <vector>

#include "pw/joint_component.h"
#include "util/cancellation.h"

namespace ptk::pw {

namespace {

// A frontier state: "the top-j result consists of exactly these objects
// and every other object ranks beyond the current scan position". Its key
// is the placed objects' ids, sorted for kInsensitive and in rank order
// for kSensitive. States agreeing on the key have identical future
// behaviour — a singleton's instance choice is already absorbed into the
// probability, and a component's future factors depend only on which of
// its members are unplaced — so their probabilities are merged,
// collapsing the instance-level branching of the naive U-Topk state
// machine into set-level dynamic programming.
using Oid = model::ObjectId;

// Within one scan position the cancel token is also polled every this
// many frontier states.
constexpr size_t kCancelPollStates = 4096;

bool Contains(const Oid* key, int len, Oid oid) {
  return std::find(key, key + len, oid) != key + len;
}

// Keyed probability masses in flat storage: key i occupies `stride`
// slots of one contiguous array (its first len(i) are used), with an
// open-addressing index over them. Iteration is in insertion order, so
// every sum the enumerator forms has a fixed order independent of hashing.
class StateTable {
 public:
  explicit StateTable(int stride) : stride_(std::max(1, stride)) {}

  // Empties the table, keeping its storage, sized for about `expected`
  // distinct keys.
  void Reset(size_t expected) {
    keys_.clear();
    lens_.clear();
    probs_.clear();
    hashes_.clear();
    size_t capacity = 16;
    while (capacity < 2 * expected) capacity *= 2;
    slots_.assign(capacity, -1);
  }

  size_t size() const { return probs_.size(); }
  const Oid* key(size_t i) const { return &keys_[i * stride_]; }
  int len(size_t i) const { return lens_[i]; }
  double prob(size_t i) const { return probs_[i]; }

  // Adds `p` to the mass of `key` (`len` entries), appending it if new.
  void Add(const Oid* key, int len, double p) {
    if (2 * (size() + 1) > slots_.size()) Rehash(2 * slots_.size());
    const uint64_t h = Hash(key, len);
    const size_t mask = slots_.size() - 1;
    for (size_t i = h & mask;; i = (i + 1) & mask) {
      const int32_t s = slots_[i];
      if (s < 0) {
        slots_[i] = static_cast<int32_t>(size());
        keys_.resize(keys_.size() + stride_);
        std::copy(key, key + len, keys_.end() - stride_);
        lens_.push_back(len);
        probs_.push_back(p);
        hashes_.push_back(h);
        return;
      }
      if (hashes_[s] == h && lens_[s] == len &&
          std::equal(key, key + len, this->key(s))) {
        probs_[s] += p;
        return;
      }
    }
  }

  // Drops every state whose mass is at most `epsilon` into `dist`'s lost
  // mass (merged states are disjoint events, so the account is exact),
  // keeping the order of the rest. The table is only read afterwards.
  void Prune(double epsilon, TopKDistribution* dist) {
    size_t kept = 0;
    for (size_t i = 0; i < size(); ++i) {
      if (probs_[i] <= epsilon) {
        dist->AddLostMass(probs_[i]);
        continue;
      }
      if (kept != i) {
        std::copy(key(i), key(i) + stride_, keys_.begin() + kept * stride_);
        lens_[kept] = lens_[i];
        probs_[kept] = probs_[i];
      }
      ++kept;
    }
    keys_.resize(kept * stride_);
    lens_.resize(kept);
    probs_.resize(kept);
    hashes_.clear();
  }

 private:
  static uint64_t Hash(const Oid* key, int len) {
    uint64_t h = 0x9e3779b97f4a7c15ull ^ static_cast<uint64_t>(len);
    for (int i = 0; i < len; ++i) {
      h = (h ^ static_cast<uint64_t>(key[i])) * 0xff51afd7ed558ccdull;
      h ^= h >> 32;
    }
    return h;
  }

  void Rehash(size_t capacity) {
    slots_.assign(capacity, -1);
    const size_t mask = capacity - 1;
    for (size_t s = 0; s < size(); ++s) {
      size_t i = hashes_[s] & mask;
      while (slots_[i] >= 0) i = (i + 1) & mask;
      slots_[i] = static_cast<int32_t>(s);
    }
  }

  int stride_;
  std::vector<Oid> keys_;
  std::vector<int> lens_;
  std::vector<double> probs_;
  std::vector<uint64_t> hashes_;
  std::vector<int32_t> slots_;
};

}  // namespace

TopKEnumerator::TopKEnumerator(const model::Database& db) : db_(&db) {
  assert(db.finalized());
}

util::Status TopKEnumerator::Enumerate(int k, OrderMode order,
                                       const ConstraintSet* constraints,
                                       const EnumeratorOptions& options,
                                       TopKDistribution* out) const {
  const int m = db_->num_objects();
  if (k < 1 || k > m) {
    return util::Status::InvalidArgument("k must be in [1, num_objects]");
  }
  // Group the objects: each constraint component is one joint group; every
  // other object is an independent singleton. Component DP states count
  // against the same max_states budget as frontier states.
  int64_t total_states = 0;
  std::vector<JointComponent> components;
  std::vector<int> group_of(m, -1);      // oid -> component index, or -1
  std::vector<int> member_index(m, -1);  // oid -> index within component
  if (constraints != nullptr) {
    for (auto& comp : constraints->Components()) {
      JointComponent::Options jc;
      jc.keep_table = true;
      jc.max_states = options.max_states - total_states;
      jc.cancel = options.cancel;
      const int ci = static_cast<int>(components.size());
      components.emplace_back(*db_, std::move(comp.members),
                              std::move(comp.constraints), jc);
      const JointComponent& joint = components.back();
      if (!joint.status().ok()) return joint.status();
      if (joint.prob_constraints() <= 0.0) {
        return util::Status::InvalidArgument(
            "constraint set has zero probability (contradictory "
            "comparisons)");
      }
      total_states += joint.dp_states();
      const auto& members = joint.members();
      for (size_t mi = 0; mi < members.size(); ++mi) {
        group_of[members[mi]] = ci;
        member_index[members[mi]] = static_cast<int>(mi);
      }
    }
  }

  TopKDistribution dist(order);
  const auto& sorted = db_->sorted_instances();
  const model::Position num_positions =
      static_cast<model::Position>(sorted.size());

  StateTable frontier(k - 1);
  StateTable next(k - 1);
  StateTable results(k);  // oids of each emitted top-k result
  frontier.Reset(1);
  frontier.Add(nullptr, 0, 1.0);
  results.Reset(0);
  std::vector<Oid> taken(k);
  std::vector<uint64_t> all_members, bits;  // member bitsets of `joint`

  for (model::Position pos = 0; pos < num_positions && frontier.size() > 0;
       ++pos) {
    if (util::CancelRequested(options.cancel)) {
      return util::Status::Cancelled("top-k enumeration cancelled");
    }
    const model::Instance& inst = sorted[pos];
    const int ci = group_of[inst.oid];
    const JointComponent* joint = ci < 0 ? nullptr : &components[ci];

    // A singleton's skip/take ratios are the same for every state. A
    // component's depend on which members the state placed, through the
    // filter F of its unplaced members: skip W_pos(F) / W_pos-1(F), take
    // p · W_pos(F \ {member}) / W_pos-1(F). Rows of the component's W
    // table: `row` is beyond pos, `row + 1` beyond pos - 1.
    double singleton_old = 0.0, singleton_skip = 0.0, singleton_take = 0.0;
    int row = 0, member = 0;
    if (joint == nullptr) {
      singleton_old = db_->MassBeyond(inst.oid, pos - 1);
      if (singleton_old > 0.0) {
        singleton_skip = db_->MassBeyond(inst.oid, pos) / singleton_old;
        singleton_take = inst.prob / singleton_old;
      }
    } else {
      row = joint->RowBeyond(pos);
      member = member_index[inst.oid];
      all_members.assign(joint->words(), 0);
      for (int mi = 0; mi < joint->size(); ++mi) {
        all_members[mi / 64] |= uint64_t{1} << (mi % 64);
      }
    }

    next.Reset(2 * frontier.size());
    for (size_t i = 0; i < frontier.size(); ++i) {
      if ((i + 1) % kCancelPollStates == 0 &&
          util::CancelRequested(options.cancel)) {
        return util::Status::Cancelled("top-k enumeration cancelled");
      }
      const Oid* key = frontier.key(i);
      const int len = frontier.len(i);
      const double p = frontier.prob(i);
      if (Contains(key, len, inst.oid)) {
        // The scanned instance belongs to an already-placed object: its
        // mutual exclusivity is already absorbed; nothing changes.
        next.Add(key, len, p);
        continue;
      }
      double skip_ratio = 0.0, take_ratio = 0.0;
      if (joint == nullptr) {
        if (singleton_old <= 0.0) continue;  // numerically dead state
        skip_ratio = singleton_skip;
        take_ratio = singleton_take;
      } else {
        bits = all_members;
        for (int e = 0; e < len; ++e) {
          if (group_of[key[e]] != ci) continue;
          const int mi = member_index[key[e]];
          bits[mi / 64] &= ~(uint64_t{1} << (mi % 64));
        }
        const int filter = joint->FilterIndex(bits);
        const double w_old = joint->W(row + 1, filter);
        if (w_old <= 0.0) continue;  // numerically dead state
        skip_ratio = joint->W(row, filter) / w_old;
        bits[member / 64] &= ~(uint64_t{1} << (member % 64));
        take_ratio = inst.prob * joint->W(row, joint->FilterIndex(bits)) /
                     w_old;
      }

      const double p_skip = p * skip_ratio;
      if (p_skip > 0.0) next.Add(key, len, p_skip);

      const double p_take = p * take_ratio;
      if (p_take <= 0.0) continue;
      if (len + 1 == k && p_take <= options.epsilon) {
        dist.AddLostMass(p_take);
        continue;
      }
      std::copy(key, key + len, taken.begin());
      int at = len;
      if (order == OrderMode::kInsensitive) {
        // Keep sorted for merging; insertion position from the back.
        while (at > 0 && taken[at - 1] > inst.oid) {
          taken[at] = taken[at - 1];
          --at;
        }
      }
      taken[at] = inst.oid;
      // A full key is a top-k result; kSensitive keys are in rank order
      // because takes append in scan order.
      (len + 1 == k ? results : next).Add(taken.data(), len + 1, p_take);
    }

    // Prune after merging so the lost mass is exact (pruned merged states
    // are disjoint events).
    next.Prune(options.epsilon, &dist);
    std::swap(frontier, next);
    total_states += static_cast<int64_t>(frontier.size());
    if (total_states > options.max_states) {
      return util::Status::ResourceExhausted(
          "top-k enumeration exceeded max_states; raise epsilon or "
          "max_states");
    }
  }

  for (size_t i = 0; i < results.size(); ++i) {
    const Oid* oids = results.key(i);
    dist.Add(ResultKey(oids, oids + k), results.prob(i));
  }
  *out = std::move(dist);
  return util::Status::OK();
}

}  // namespace ptk::pw
