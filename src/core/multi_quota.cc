#include "core/multi_quota.h"

#include <algorithm>
#include <functional>
#include <map>
#include <unordered_map>

#include "util/entropy.h"

namespace ptk::core {

namespace {

// Connected components of the pair graph (objects are nodes, pairs edges).
std::vector<std::vector<int>> PairComponents(
    const std::vector<std::pair<model::ObjectId, model::ObjectId>>& pairs) {
  std::map<model::ObjectId, int> root_of;  // object -> component id
  std::vector<int> comp_of_pair(pairs.size());
  std::vector<int> parent;
  std::function<int(int)> find = [&](int x) {
    return parent[x] == x ? x : parent[x] = find(parent[x]);
  };
  for (size_t i = 0; i < pairs.size(); ++i) {
    int ca, cb;
    auto it = root_of.find(pairs[i].first);
    if (it == root_of.end()) {
      ca = static_cast<int>(parent.size());
      parent.push_back(ca);
      root_of[pairs[i].first] = ca;
    } else {
      ca = find(it->second);
    }
    it = root_of.find(pairs[i].second);
    if (it == root_of.end()) {
      cb = static_cast<int>(parent.size());
      parent.push_back(cb);
      root_of[pairs[i].second] = cb;
    } else {
      cb = find(it->second);
    }
    parent[find(ca)] = find(cb);
    comp_of_pair[i] = ca;  // provisional; canonicalized below
  }
  std::map<int, std::vector<int>> grouped;
  for (size_t i = 0; i < pairs.size(); ++i) {
    grouped[find(comp_of_pair[i])].push_back(static_cast<int>(i));
  }
  std::vector<std::vector<int>> out;
  out.reserve(grouped.size());
  for (auto& [_, v] : grouped) out.push_back(std::move(v));
  return out;
}

// Exact entropy of the outcome patterns of one component's pairs.
double ComponentEntropy(
    const model::Database& db,
    const std::vector<std::pair<model::ObjectId, model::ObjectId>>& pairs,
    const std::vector<int>& pair_indices, int64_t assignment_limit) {
  // Collect the component's objects.
  std::vector<model::ObjectId> objects;
  for (int pi : pair_indices) {
    objects.push_back(pairs[pi].first);
    objects.push_back(pairs[pi].second);
  }
  std::sort(objects.begin(), objects.end());
  objects.erase(std::unique(objects.begin(), objects.end()), objects.end());

  int64_t assignments = 1;
  for (model::ObjectId o : objects) {
    assignments *= db.object(o).num_instances();
    if (assignments > assignment_limit) return -1.0;
  }

  const auto index_of = [&objects](model::ObjectId o) {
    return static_cast<int>(
        std::lower_bound(objects.begin(), objects.end(), o) -
        objects.begin());
  };

  std::unordered_map<uint64_t, double> pattern_prob;
  std::vector<model::Position> assigned(objects.size(), -1);
  std::function<void(size_t, double)> walk = [&](size_t depth, double prob) {
    if (depth == objects.size()) {
      uint64_t mask = 0;
      for (size_t b = 0; b < pair_indices.size(); ++b) {
        const auto& pr = pairs[pair_indices[b]];
        if (assigned[index_of(pr.first)] > assigned[index_of(pr.second)]) {
          mask |= uint64_t{1} << b;
        }
      }
      pattern_prob[mask] += prob;
      return;
    }
    for (const model::Instance& inst : db.object(objects[depth]).instances()) {
      assigned[depth] = db.PositionOf({inst.oid, inst.iid});
      walk(depth + 1, prob * inst.prob);
    }
  };
  walk(0, 1.0);

  double h = 0.0;
  for (const auto& [_, p] : pattern_prob) h += util::EntropyTerm(p);
  // A certain pattern can carry 1 + ulp (each object's probabilities sum
  // to 1 only up to rounding), whose term is a tiny negative; that is an
  // entropy of 0, not the too-large sentinel.
  return std::max(h, 0.0);
}

}  // namespace

double PairEventsEntropy(
    const model::Database& db,
    const std::vector<std::pair<model::ObjectId, model::ObjectId>>& pairs,
    int64_t assignment_limit) {
  double total = 0.0;
  for (const auto& comp : PairComponents(pairs)) {
    const double h = ComponentEntropy(db, pairs, comp, assignment_limit);
    if (h < 0.0) return -1.0;
    total += h;
  }
  return total;
}

Hrs2Selector::Hrs2Selector(const model::Database& db,
                           const SelectorOptions& options)
    : db_(&db),
      options_(options),
      single_(db, options, BoundSelector::Mode::kOptimized) {}

util::Status Hrs2Selector::SelectPairs(int t, std::vector<ScoredPair>* out) {
  // Candidate pool: the best single-quota pairs.
  const int pool_size = std::max(t, options_.candidate_pool);
  std::vector<ScoredPair> pool;
  util::Status s = single_.SelectPairs(pool_size, &pool);
  if (!s.ok()) return s;
  if (static_cast<int>(pool.size()) <= t) {
    *out = std::move(pool);
    return util::Status::OK();
  }

  // Δ midpoint of each candidate, recovered from the EI interval:
  // estimate = H(A) - Δ_mid and the candidate's own H(A) = estimate +
  // Δ_mid, so precompute Δ_mid = (upper + lower)/2 gap against h_pair.
  // We re-derive Δ_mid directly from the estimator to keep it explicit.
  std::vector<double> delta_mid(pool.size());
  for (size_t i = 0; i < pool.size(); ++i) {
    const EIEstimate est = single_.estimator().Estimate(pool[i].a, pool[i].b);
    delta_mid[i] = est.delta.midpoint();
  }

  std::vector<bool> taken(pool.size(), false);
  std::vector<std::pair<model::ObjectId, model::ObjectId>> selected_pairs;
  std::vector<ScoredPair> selected;
  double selected_delta = 0.0;

  for (int step = 0; step < t; ++step) {
    int best = -1;
    double best_score = 0.0;
    for (size_t c = 0; c < pool.size(); ++c) {
      if (taken[c]) continue;
      selected_pairs.push_back({pool[c].a, pool[c].b});
      const double joint_h = PairEventsEntropy(*db_, selected_pairs);
      selected_pairs.pop_back();
      if (joint_h < 0.0) continue;  // component too large; skip candidate
      const double score = joint_h - (selected_delta + delta_mid[c]);
      if (best < 0 || score > best_score) {
        best = static_cast<int>(c);
        best_score = score;
      }
    }
    if (best < 0) break;
    taken[best] = true;
    selected_pairs.push_back({pool[best].a, pool[best].b});
    selected_delta += delta_mid[best];
    ScoredPair chosen = pool[best];
    chosen.ei_estimate = best_score;  // joint objective at selection time
    selected.push_back(chosen);
  }
  *out = std::move(selected);
  return util::Status::OK();
}

}  // namespace ptk::core
