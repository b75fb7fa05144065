#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>

#include "data/synthetic.h"

namespace perfbench {

std::optional<WorkloadSpec> SpecFor(const std::string& name) {
  WorkloadSpec spec;
  spec.name = name;
  if (name == "long_session") {
    // Exact evaluation: one entropy session at a time, cleaned far past
    // the point where the top-k is certain.
    spec.objects = 400;
    spec.value_range = 2.0 * spec.objects;
    spec.k = 10;
    spec.wire = serve::WireFormat::kBinary;
    spec.pairs_per_round = 4;
    spec.requesters = 1;
    spec.component_limit = 13;
    spec.ptk_threads = 1;
  } else if (name == "objectives") {
    // Selection and objective state: expected_rank and ukranks sessions
    // open at once, driven round-robin.
    spec.objects = 1600;
    spec.value_range = 2.0 * spec.objects;
    spec.k = 10;
    spec.wire = serve::WireFormat::kBinary;
    spec.pairs_per_round = 4;
    spec.requesters = 6;  // every third one expected_rank, the rest ukranks
    spec.rounds_per_session = 3;
    spec.component_limit = 12;
    spec.ptk_threads = 1;
  } else if (name == "serve_mix") {
    // The serving front end: many short sessions over a catalog small
    // enough for pw::ExactEngine, several requesters pipelined at once.
    spec.objects = 9;
    spec.value_range = 18.0;
    spec.cluster_width = 6.0;
    spec.k = 3;
    spec.wire = serve::WireFormat::kJsonLines;
    spec.shards = 2;
    spec.workers = 1;
    spec.ptk_threads = 1;
    spec.pairs_per_round = 2;
    spec.requesters = 8;
    spec.round_period_ms = 8.0;  // offered: 8 requesters x 125 rounds/s
    spec.rounds_per_session = 3;
    spec.component_limit = spec.objects;
  } else {
    return std::nullopt;
  }
  return spec;
}

model::Database MakeCatalog(const WorkloadSpec& spec) {
  ptk::data::SynOptions syn;
  syn.num_objects = spec.objects;
  syn.avg_instances = spec.avg_instances;
  syn.value_range = spec.value_range;
  syn.cluster_width = spec.cluster_width;
  syn.seed = spec.catalog_seed;
  return ptk::data::MakeSynDataset(syn);
}

std::vector<model::Position> SampleWorld(const model::Database& db,
                                         uint64_t seed) {
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ULL + 0x51ED2705ULL);
  std::vector<model::Position> world(db.num_objects());
  for (model::ObjectId oid = 0; oid < db.num_objects(); ++oid) {
    const auto& instances = db.object(oid).instances();
    const double u = static_cast<double>(rng() >> 11) * 0x1.0p-53;
    double acc = 0.0;
    model::InstanceId pick = instances.back().iid;
    for (const model::Instance& inst : instances) {
      acc += inst.prob;
      if (u < acc) {
        pick = inst.iid;
        break;
      }
    }
    world[oid] = db.PositionOf({oid, pick});
  }
  return world;
}

std::pair<model::ObjectId, model::ObjectId> TruthfulAnswer(
    const std::vector<model::Position>& world, model::ObjectId a,
    model::ObjectId b) {
  return world[a] < world[b] ? std::make_pair(a, b) : std::make_pair(b, a);
}

double PercentileSorted(const std::vector<double>& sorted, double q) {
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (pos - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

Summary Summarize(std::vector<double> samples) {
  Summary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  if (s.n >= 100) {
    // The p90 of each run of consecutive samples (at least 100 each, at
    // most 9 runs), then their median: a burst of host noise lands in one
    // block instead of moving the whole tail.
    const size_t blocks = std::min<size_t>(9, s.n / 100);
    std::vector<double> p90s;
    for (size_t b = 0; b < blocks; ++b) {
      std::vector<double> block(samples.begin() + b * s.n / blocks,
                                samples.begin() + (b + 1) * s.n / blocks);
      std::sort(block.begin(), block.end());
      p90s.push_back(PercentileSorted(block, 0.9));
    }
    std::sort(p90s.begin(), p90s.end());
    s.p90 = PercentileSorted(p90s, 0.5);
  }
  std::sort(samples.begin(), samples.end());
  s.p50 = PercentileSorted(samples, 0.5);
  if (s.n >= 40) {
    s.p25 = PercentileSorted(samples, 0.25);
    s.p75 = PercentileSorted(samples, 0.75);
  }
  return s;
}

namespace {

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

bool GetU64(std::istream& in, uint64_t* v) {
  unsigned char b[8];
  if (!in.read(reinterpret_cast<char*>(b), 8)) return false;
  *v = 0;
  for (int i = 7; i >= 0; --i) *v = (*v << 8) | b[i];
  return true;
}

}  // namespace

bool WriteStream(const std::string& path,
                 const std::vector<StreamEvent>& events) {
  std::string out;
  for (const StreamEvent& e : events) {
    out.push_back(static_cast<char>(e.kind));
    PutU64(&out, e.ticket);
    PutU64(&out, e.frame.size());
    out += e.frame;
  }
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  file.write(out.data(), static_cast<std::streamsize>(out.size()));
  return static_cast<bool>(file);
}

bool ReadStream(const std::string& path, std::vector<StreamEvent>* events) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  events->clear();
  char kind;
  while (in.get(kind)) {
    StreamEvent e;
    e.kind = static_cast<StreamEvent::Kind>(kind);
    uint64_t size = 0;
    if (!GetU64(in, &e.ticket) || !GetU64(in, &size)) return false;
    e.frame.resize(size);
    if (size > 0 && !in.read(e.frame.data(), static_cast<std::streamsize>(size))) {
      return false;
    }
    events->push_back(std::move(e));
  }
  return true;
}

serve::Runtime::Options RuntimeOptionsFor(const WorkloadSpec& spec,
                                          const std::string& persist_dir) {
  serve::Runtime::Options options;
  options.shards = spec.shards;
  options.scheduler.workers = spec.workers;
  options.manager.k = spec.k;
  options.manager.persist.dir = persist_dir;
  options.manager.persist.fsync = false;
  return options;
}

std::vector<std::string> ServerArgsFor(const WorkloadSpec& spec,
                                       const std::string& csv,
                                       const std::string& persist_dir) {
  return {csv,
          "--wire",
          spec.wire == serve::WireFormat::kBinary ? "binary" : "json",
          "--shards",
          std::to_string(spec.shards),
          "--workers",
          std::to_string(spec.workers),
          "--k",
          std::to_string(spec.k),
          "--persist-dir",
          persist_dir,
          "--no-fsync"};
}

JsonObject& JsonObject::Num(const std::string& key, double value) {
  char buf[64];
  if (std::isfinite(value)) {
    std::snprintf(buf, sizeof(buf), "%.17g", value);
  } else {
    std::snprintf(buf, sizeof(buf), "null");
  }
  fields_.emplace_back(key, buf);
  return *this;
}

JsonObject& JsonObject::Int(const std::string& key, int64_t value) {
  fields_.emplace_back(key, std::to_string(value));
  return *this;
}

JsonObject& JsonObject::Bool(const std::string& key, bool value) {
  fields_.emplace_back(key, value ? "true" : "false");
  return *this;
}

JsonObject& JsonObject::Str(const std::string& key, const std::string& value) {
  std::string quoted = "\"";
  for (char c : value) {
    if (c == '"' || c == '\\') {
      quoted.push_back('\\');
      quoted.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      quoted += buf;
    } else {
      quoted.push_back(c);
    }
  }
  quoted.push_back('"');
  fields_.emplace_back(key, quoted);
  return *this;
}

JsonObject& JsonObject::Raw(const std::string& key, const std::string& json) {
  fields_.emplace_back(key, json);
  return *this;
}

std::string JsonObject::Render() const {
  std::string out = "{";
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + fields_[i].first + "\": " + fields_[i].second;
  }
  return out + "}";
}

std::string MetricJson(double value, const std::string& unit) {
  return JsonObject().Num("value", value).Str("unit", unit).Render();
}

int64_t DirectoryBytes(const std::string& dir) {
  namespace fs = std::filesystem;
  int64_t total = 0;
  std::error_code ec;
  for (auto it = fs::recursive_directory_iterator(dir, ec);
       !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
    if (it->is_regular_file(ec)) total += static_cast<int64_t>(it->file_size(ec));
  }
  return total;
}

}  // namespace perfbench
