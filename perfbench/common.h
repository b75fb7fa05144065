// Shared pieces of the benchmark's load generator (loadgen.cc) and its
// traced in-process replay (replay.cc): the workload definitions, catalog
// and sampled-world generation, the percentile rule, the recorded request
// stream, and a minimal JSON writer.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "model/database.h"
#include "model/instance.h"
#include "serve/codec.h"
#include "serve/runtime.h"

namespace perfbench {

namespace model = ptk::model;
namespace serve = ptk::serve;

/// One workload's fixed shape. What a run varies comes from --seed (the
/// sampled worlds the truthful answers are drawn from); the rest is here.
struct WorkloadSpec {
  std::string name;
  // Catalog: SYN (data::MakeSynDataset), fixed per workload. --seed picks
  // the sampled worlds the answers come from, not the catalog: catalogs
  // of one size differ several-fold in exact-evaluation cost.
  uint64_t catalog_seed = 1;
  int objects = 0;
  double value_range = 0.0;
  double cluster_width = 50.0;
  int avg_instances = 3;
  int k = 10;
  // Server.
  serve::WireFormat wire = serve::WireFormat::kBinary;
  int shards = 1;
  int workers = 1;      // scheduler workers per shard
  int ptk_threads = 1;  // engine pool; shards * workers + this <= 4
  // Load.
  int pairs_per_round = 4;
  int requesters = 1;         // in flight at once (serve_mix) or open
                              // at once, round-robin (objectives)
  int rounds_per_session = 0; // 0 = until the component limit (long_session)
  double round_period_ms = 0; // pacing: a requester starts at most one round
                              // per period (0 = as fast as replies come)
  int component_limit = 0;    // a session ends before a round whose answers
                              // would join more objects than this into one
                              // joint component
};

/// The three workloads, by name; nullopt for an unknown name.
std::optional<WorkloadSpec> SpecFor(const std::string& name);

/// The workload's catalog (SYN with spec.catalog_seed, finalized).
model::Database MakeCatalog(const WorkloadSpec& spec);

/// One sampled possible world: world[oid] is the global position
/// (Database::PositionOf) of the instance the object takes. Answers drawn
/// from one world are consistent, so the engine must never reject them.
std::vector<model::Position> SampleWorld(const model::Database& db,
                                         uint64_t seed);

/// The truthful answer to "which of a, b ranks higher" in `world`:
/// (smaller, larger), smaller ranking above.
std::pair<model::ObjectId, model::ObjectId> TruthfulAnswer(
    const std::vector<model::Position>& world, model::ObjectId a,
    model::ObjectId b);

/// The percentile rule: a median needs at least one sample, quartiles at
/// least 40, a p90 at least 100. Below a threshold the statistic is absent.
/// `samples` are in the order taken; the p90 is the median of the p90s of
/// up to 9 consecutive blocks of at least 100 samples each.
struct Summary {
  size_t n = 0;
  std::optional<double> p50, p25, p75, p90;
};
Summary Summarize(std::vector<double> samples);
/// Linear-interpolation percentile of sorted, non-empty samples.
double PercentileSorted(const std::vector<double>& sorted, double q);

/// Time since an arbitrary fixed origin, in seconds (steady clock).
inline double NowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The request stream of a run, as the server received it, for the traced
/// replay: kSend events carry one encoded request frame (wire framing
/// included); kAwait events say that the client waited for the response
/// to the `ticket`-th frame before sending anything further.
struct StreamEvent {
  enum class Kind : uint8_t { kSend = 0, kAwait = 1 } kind = Kind::kSend;
  uint64_t ticket = 0;
  std::string frame;
};
bool WriteStream(const std::string& path,
                 const std::vector<StreamEvent>& events);
bool ReadStream(const std::string& path, std::vector<StreamEvent>* events);

/// The runtime options the workload's ptk_server runs with (mirrors the
/// command line loadgen.cc builds), so the replay serves the same stream
/// through the same configuration. Every workload journals without fsync
/// (--no-fsync; perfbench/README.md, "Flush policy").
serve::Runtime::Options RuntimeOptionsFor(const WorkloadSpec& spec,
                                          const std::string& persist_dir);
std::vector<std::string> ServerArgsFor(const WorkloadSpec& spec,
                                       const std::string& csv,
                                       const std::string& persist_dir);

/// Minimal JSON object writer (flat key order preserved).
class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double value);
  JsonObject& Int(const std::string& key, int64_t value);
  JsonObject& Bool(const std::string& key, bool value);
  JsonObject& Str(const std::string& key, const std::string& value);
  JsonObject& Raw(const std::string& key, const std::string& json);
  std::string Render() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// {"value": v, "unit": u}
std::string MetricJson(double value, const std::string& unit);

/// Bytes of regular files under `dir`, recursively.
int64_t DirectoryBytes(const std::string& dir);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
