#include "model/database.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <string>

namespace ptk::model {

ObjectId Database::AddObject(std::vector<std::pair<double, double>> pairs,
                             std::string label) {
  const ObjectId oid = static_cast<ObjectId>(objects_.size());
  objects_.emplace_back(oid, std::move(pairs));
  objects_.back().set_label(std::move(label));
  finalized_ = false;
  return oid;
}

util::Status Database::Finalize(double tolerance) {
  if (objects_.empty()) {
    return util::Status::InvalidArgument("database has no objects");
  }
  for (UncertainObject& obj : objects_) {
    if (obj.instances_.empty()) {
      return util::Status::InvalidArgument(
          "object " + std::to_string(obj.id()) + " has no instances");
    }
    double total = 0.0;
    for (size_t i = 0; i < obj.instances_.size(); ++i) {
      const Instance& inst = obj.instances_[i];
      if (!(inst.prob > 0.0) || inst.prob > 1.0 + tolerance) {
        return util::Status::InvalidArgument(
            "object " + std::to_string(obj.id()) +
            " has an instance with probability outside (0, 1]");
      }
      if (!std::isfinite(inst.value)) {
        return util::Status::InvalidArgument(
            "object " + std::to_string(obj.id()) +
            " has a non-finite instance value");
      }
      if (i > 0 && obj.instances_[i - 1].value == inst.value) {
        return util::Status::InvalidArgument(
            "object " + std::to_string(obj.id()) +
            " has duplicate instance values; merge them before loading");
      }
      total += inst.prob;
    }
    if (std::abs(total - 1.0) > tolerance) {
      return util::Status::InvalidArgument(
          "object " + std::to_string(obj.id()) +
          " probabilities sum to " + std::to_string(total) + ", not 1");
    }
    // Renormalize so possible-world products are clean. A sum already
    // within the rounding of one such division (n·ε) is left as it is, so
    // Finalize is idempotent: a saved and reloaded database keeps its
    // bits.
    const double n = static_cast<double>(obj.instances_.size());
    if (std::abs(total - 1.0) > n * std::numeric_limits<double>::epsilon()) {
      for (Instance& inst : obj.instances_) inst.prob /= total;
    }
  }

  BuildIndex();
  finalized_ = true;
  ++mutation_version_;
  return util::Status::OK();
}

void Database::BuildIndex() {
  sorted_.clear();
  for (const UncertainObject& obj : objects_) {
    sorted_.insert(sorted_.end(), obj.instances_.begin(),
                   obj.instances_.end());
  }
  std::sort(sorted_.begin(), sorted_.end(), InstanceLess);

  offset_.assign(objects_.size(), 0);
  int running = 0;
  for (size_t o = 0; o < objects_.size(); ++o) {
    offset_[o] = running;
    running += objects_[o].num_instances();
  }
  position_.assign(running, -1);
  obj_positions_.assign(objects_.size(), {});
  obj_suffix_mass_.assign(objects_.size(), {});
  for (size_t pos = 0; pos < sorted_.size(); ++pos) {
    const Instance& inst = sorted_[pos];
    position_[offset_[inst.oid] + inst.iid] = static_cast<Position>(pos);
    obj_positions_[inst.oid].push_back(static_cast<Position>(pos));
  }
  for (size_t o = 0; o < objects_.size(); ++o) {
    const auto& positions = obj_positions_[o];
    auto& suffix = obj_suffix_mass_[o];
    suffix.assign(positions.size() + 1, 0.0);
    for (int i = static_cast<int>(positions.size()) - 1; i >= 0; --i) {
      suffix[i] = suffix[i + 1] + sorted_[positions[i]].prob;
    }
  }
}

void Database::ReweightObjectInPlace(ObjectId oid,
                                     const std::vector<double>& probs) {
  if (delta_base_ != nullptr) {
    UncertainObject& obj = EnsureOverride(oid);
    double total = 0.0;
    for (double p : probs) total += p;
    for (int i = 0; i < obj.num_instances(); ++i) {
      obj.instances_[i].prob = probs[i] / total;
    }
    RefreshOverrideSuffix(oid);
    ++mutation_version_;
    return;
  }
  UncertainObject& obj = objects_[oid];
  double total = 0.0;
  for (double p : probs) total += p;
  for (int i = 0; i < obj.num_instances(); ++i) {
    const double p = probs[i] / total;
    obj.instances_[i].prob = p;
    sorted_[position_[offset_[oid] + i]].prob = p;
  }
  // Suffix masses over the object's sorted positions (MassBeyond/Before).
  const auto& positions = obj_positions_[oid];
  auto& suffix = obj_suffix_mass_[oid];
  for (int i = static_cast<int>(positions.size()) - 1; i >= 0; --i) {
    suffix[i] = suffix[i + 1] + sorted_[positions[i]].prob;
  }
  ++mutation_version_;
}

void Database::SetObjectProbsInPlace(ObjectId oid,
                                     const std::vector<double>& probs) {
  if (delta_base_ != nullptr) {
    UncertainObject& obj = EnsureOverride(oid);
    for (int i = 0; i < obj.num_instances(); ++i) {
      obj.instances_[i].prob = probs[i];
    }
    RefreshOverrideSuffix(oid);
    ++mutation_version_;
    return;
  }
  UncertainObject& obj = objects_[oid];
  for (int i = 0; i < obj.num_instances(); ++i) {
    obj.instances_[i].prob = probs[i];
    sorted_[position_[offset_[oid] + i]].prob = probs[i];
  }
  const auto& positions = obj_positions_[oid];
  auto& suffix = obj_suffix_mass_[oid];
  for (int i = static_cast<int>(positions.size()) - 1; i >= 0; --i) {
    suffix[i] = suffix[i + 1] + sorted_[positions[i]].prob;
  }
  ++mutation_version_;
}

double Database::MassBeyond(ObjectId oid, Position pos) const {
  const Database& idx = delta_base_ != nullptr ? *delta_base_ : *this;
  const auto& positions = idx.obj_positions_[oid];
  // First of this object's positions strictly greater than pos.
  const auto it = std::upper_bound(positions.begin(), positions.end(), pos);
  const size_t slot = it - positions.begin();
  if (delta_base_ != nullptr) {
    const auto over = over_slot_.find(oid);
    if (over != over_slot_.end()) return over_suffix_[over->second][slot];
  }
  return idx.obj_suffix_mass_[oid][slot];
}

double Database::MassBefore(ObjectId oid, Position pos) const {
  const Database& idx = delta_base_ != nullptr ? *delta_base_ : *this;
  const auto& positions = idx.obj_positions_[oid];
  const auto it = std::lower_bound(positions.begin(), positions.end(), pos);
  const size_t slot = it - positions.begin();
  if (delta_base_ != nullptr) {
    const auto over = over_slot_.find(oid);
    if (over != over_slot_.end()) {
      const auto& suffix = over_suffix_[over->second];
      return suffix[0] - suffix[slot];
    }
  }
  const auto& suffix = idx.obj_suffix_mass_[oid];
  return suffix[0] - suffix[slot];
}

Database Database::MakeDelta(const Database& base) {
  assert(base.finalized_ && base.delta_base_ == nullptr);
  Database delta;
  delta.delta_base_ = &base;
  delta.finalized_ = true;
  delta.mutation_version_ = base.mutation_version_;
  return delta;
}

const UncertainObject& Database::DeltaObject(ObjectId oid) const {
  const auto it = over_slot_.find(oid);
  if (it != over_slot_.end()) return over_objects_[it->second];
  return delta_base_->objects_[oid];
}

UncertainObject& Database::EnsureOverride(ObjectId oid) {
  auto it = over_slot_.find(oid);
  if (it == over_slot_.end()) {
    const int32_t slot = static_cast<int32_t>(over_objects_.size());
    over_objects_.push_back(delta_base_->objects_[oid]);
    over_suffix_.push_back(delta_base_->obj_suffix_mass_[oid]);
    it = over_slot_.emplace(oid, slot).first;
  }
  return over_objects_[it->second];
}

void Database::RefreshOverrideSuffix(ObjectId oid) {
  const int32_t slot = over_slot_.at(oid);
  const UncertainObject& obj = over_objects_[slot];
  auto& suffix = over_suffix_[slot];
  // Within one object, ascending global position order is ascending value
  // order is iid order, so suffix[i] accumulates the same doubles in the
  // same order as the base-mode loop over sorted_[positions[i]].prob.
  for (int i = obj.num_instances() - 1; i >= 0; --i) {
    suffix[i] = suffix[i + 1] + obj.instances_[i].prob;
  }
}

std::vector<ObjectId> Database::OverriddenObjects() const {
  std::vector<ObjectId> oids;
  oids.reserve(over_slot_.size());
  for (const auto& [oid, slot] : over_slot_) oids.push_back(oid);
  std::sort(oids.begin(), oids.end());
  return oids;
}

int64_t Database::DeltaBytes() const {
  int64_t bytes = 0;
  for (const UncertainObject& obj : over_objects_) {
    bytes += static_cast<int64_t>(sizeof(UncertainObject)) +
             static_cast<int64_t>(obj.num_instances() * sizeof(Instance));
  }
  for (const auto& suffix : over_suffix_) {
    bytes += static_cast<int64_t>(suffix.capacity() * sizeof(double));
  }
  // Hash map node + bucket overhead, approximated.
  bytes += static_cast<int64_t>(over_slot_.size() * 64);
  bytes += static_cast<int64_t>(bulk_objects_.capacity() *
                                sizeof(UncertainObject)) +
           static_cast<int64_t>(bulk_sorted_.capacity() * sizeof(Instance));
  for (const UncertainObject& obj : bulk_objects_) {
    bytes += static_cast<int64_t>(obj.num_instances() * sizeof(Instance));
  }
  return bytes;
}

void Database::EnsureBulk() const {
  if (bulk_version_ == mutation_version_) return;
  if (bulk_version_ == 0) {
    bulk_objects_ = delta_base_->objects_;
    bulk_sorted_ = delta_base_->sorted_;
  }
  // Re-patching every override over the existing view is correct because
  // overrides never revert to base values.
  for (const auto& [oid, slot] : over_slot_) {
    const UncertainObject& obj = over_objects_[slot];
    bulk_objects_[oid] = obj;
    const auto& positions = delta_base_->obj_positions_[oid];
    for (int i = 0; i < obj.num_instances(); ++i) {
      bulk_sorted_[positions[i]].prob = obj.instance(i).prob;
    }
  }
  bulk_version_ = mutation_version_;
}

}  // namespace ptk::model
