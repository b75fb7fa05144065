// The traced run: replays a workload's recorded request stream in-process
// through the same serve::Runtime configuration ptk_server uses, recording
// spans around calls to the library's public functions, and derives the
// per-layer metrics from them.
//
//   ptk_replay --workload NAME --seed N --csv CATALOG --stream FILE
//              --dir RUN_DIR [--spans OUT.tsv] [--overhead 1]
//
// Spans: each has a name, a start, an end, a parent span and a request id
// shared by every span of one request. The replay opens the request's
// root span itself ("request": decode, Runtime::Submit up to its callback,
// encode); spans inside the library come from link-time interposition
// (ld --wrap, symbols in wrap_symbols.txt): a call that crosses a
// translation unit inside libptk reaches the __wrap_ function below first,
// which records a span and calls the original. A wrapped call on a shard
// worker finds its parent on the thread's span stack or, for the
// SessionManager entry points, as the oldest in-flight request of the
// session it names. Spans stay in memory until the run ends.
//
// Counts come from the library's metrics registry and from one `metrics`
// request issued at the end, as an operator would read them.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "core/quality.h"
#include "core/selector.h"
#include "core/semantics.h"
#include "data/csv.h"
#include "engine/ranking_engine.h"
#include "obs/metrics.h"
#include "pbtree/pbtree.h"
#include "persist/wal.h"
#include "pw/constraint.h"
#include "pw/joint_component.h"
#include "pw/topk_distribution.h"
#include "pw/topk_enumerator.h"
#include "rank/membership.h"
#include "serve/codec.h"
#include "serve/message.h"
#include "serve/runtime.h"
#include "serve/session_manager.h"

namespace {

using namespace perfbench;
namespace core = ptk::core;
namespace pw = ptk::pw;
namespace engine = ptk::engine;
namespace persist = ptk::persist;
using ptk::util::Status;
using ptk::util::StatusOr;

// ---------------------------------------------------------------------------
// Span recording.

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";
  uint64_t id = 0;       // sequence number
  uint64_t request = 0;  // shared by every span of one request (0: none)
  int64_t start = 0, end = 0;
  Span* parent = nullptr;
  uint32_t thread = 0;
  double aux = 0.0;  // span-specific figure (component size, result sets, ...)
  std::string session;
};

std::atomic<bool> g_tracing{false};
std::mutex g_spans_mu;
std::deque<Span> g_spans;  // stable addresses: deque never moves elements
std::atomic<uint32_t> g_next_thread{1};
thread_local std::vector<Span*> t_stack;
thread_local uint32_t t_thread = 0;

Span* NewSpan(const char* name, Span* parent, const std::string& session = "") {
  if (t_thread == 0) t_thread = g_next_thread++;
  std::lock_guard<std::mutex> lock(g_spans_mu);
  Span& s = g_spans.emplace_back();
  s.name = name;
  s.id = g_spans.size();
  s.parent = parent;
  s.request = parent != nullptr ? parent->request : 0;
  s.thread = t_thread;
  s.session = session;
  s.start = NowNs();
  return &s;
}

// In-flight requests per session, oldest first: a SessionManager call on a
// shard worker belongs to the oldest request of the session it serves.
std::mutex g_inflight_mu;
std::map<std::string, std::deque<Span*>> g_inflight;
std::deque<Span*> g_inflight_creates;

Span* InflightParent(const std::string& session, bool create) {
  std::lock_guard<std::mutex> lock(g_inflight_mu);
  if (create) return g_inflight_creates.empty() ? nullptr : g_inflight_creates.front();
  auto it = g_inflight.find(session);
  return it == g_inflight.end() || it->second.empty() ? nullptr : it->second.front();
}

// A span on the calling thread's stack for the duration of a scope.
class Scope {
 public:
  explicit Scope(const char* name, const std::string* session = nullptr,
                 bool create = false) {
    if (!g_tracing.load(std::memory_order_relaxed)) return;
    Span* parent = nullptr;
    if (!t_stack.empty()) {
      parent = t_stack.back();
    } else if (session != nullptr) {
      parent = InflightParent(*session, create);
    }
    span_ = NewSpan(name, parent, session != nullptr ? *session : "");
    t_stack.push_back(span_);
  }
  ~Scope() {
    if (span_ == nullptr) return;
    span_->end = NowNs();
    t_stack.pop_back();
  }
  void set_aux(double v) {
    if (span_ != nullptr) span_->aux = v;
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Span* span_ = nullptr;
};

// ---------------------------------------------------------------------------
// Selection, counted through SessionManager::Options::selector_factory.

std::atomic<int64_t> g_pairs_produced{0};

class CountingSelector final : public core::PairSelector {
 public:
  explicit CountingSelector(std::unique_ptr<core::PairSelector> inner)
      : inner_(std::move(inner)) {}
  Status SelectPairs(int t, std::vector<core::ScoredPair>* out) override {
    Scope scope("engine.select_pairs");
    const Status s = inner_->SelectPairs(t, out);
    g_pairs_produced += static_cast<int64_t>(out->size());
    return s;
  }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<core::PairSelector> inner_;
};

std::unique_ptr<core::PairSelector> CountingFactory(engine::RankingEngine& e) {
  std::unique_ptr<core::PairSelector> inner;
  {
    Scope scope("engine.make_selector");
    inner = e.MakeSelector(core::SelectorKind::kOpt);
  }
  return std::make_unique<CountingSelector>(std::move(inner));
}

}  // namespace

// ---------------------------------------------------------------------------
// Link-time wrappers (see wrap_symbols.txt). Each records a span and calls
// the original, __real_<symbol>. Member functions take `this` first.

#define PB_SM_CTOR _ZN3ptk5serve14SessionManagerC1ERKNS_5model8DatabaseERKNS1_7OptionsE
#define PB_SM_CREATE \
  _ZN3ptk5serve14SessionManager13CreateSessionERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEENS_4core11SemanticsIdE
#define PB_SM_NEXT \
  _ZN3ptk5serve14SessionManager9NextPairsERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEi
#define PB_SM_POST \
  _ZN3ptk5serve14SessionManager11PostAnswersERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEERKSt6vectorISt4pairIiiESaISC_EEPNS0_10PostReportE
#define PB_SM_POSTB \
  _ZN3ptk5serve14SessionManager18PostAnswersBatchedERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEPSt6vectorINS1_9PostBatchESaISB_EE
#define PB_SM_QUALITY \
  _ZN3ptk5serve14SessionManager7QualityERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE
#define PB_SM_DIST \
  _ZN3ptk5serve14SessionManager12DistributionERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE
#define PB_SM_RECOVER \
  _ZN3ptk5serve14SessionManager15RecoverSessionsERKSt8functionIFbRKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEEE
#define PB_ENG_FOLD _ZN3ptk6engine13RankingEngine4FoldEiibPNS1_11FoldOutcomeE
#define PB_ENG_QUALITY _ZNK3ptk6engine13RankingEngine7QualityEv
#define PB_ENG_DIST _ZNK3ptk6engine13RankingEngine12DistributionEv
#define PB_QE_CPROB _ZNK3ptk4core16QualityEvaluator21ConstraintProbabilityERKNS_2pw13ConstraintSetE
#define PB_JC_CTOR \
  _ZN3ptk2pw14JointComponentC1ERKNS_5model8DatabaseESt6vectorIiSaIiEES6_INS0_18PairwiseConstraintESaIS9_EE
#define PB_ENUM \
  _ZNK3ptk2pw14TopKEnumerator9EnumerateEiNS0_9OrderModeEPKNS0_13ConstraintSetERKNS0_17EnumeratorOptionsEPNS0_16TopKDistributionE
#define PB_WAL_APPEND _ZN3ptk7persist9WalWriter6AppendERKNS0_9WalRecordE
#define PB_WAL_SYNC _ZN3ptk7persist9WalWriter4SyncEv

#define PB_CAT2(a, b) a##b
#define PB_CAT(a, b) PB_CAT2(a, b)
#define PB_REAL(sym) PB_CAT(__real_, sym)
#define PB_WRAP(sym) PB_CAT(__wrap_, sym)

using ptk::serve::SessionManager;
using SessionAnswers = std::vector<std::pair<int, int>>;

extern "C" {

void PB_REAL(PB_SM_CTOR)(SessionManager*, const ptk::model::Database&,
                         const SessionManager::Options&);
void PB_WRAP(PB_SM_CTOR)(SessionManager* self, const ptk::model::Database& db,
                         const SessionManager::Options& options) {
  Scope scope("session_manager.construct");
  PB_REAL(PB_SM_CTOR)(self, db, options);
}

Status PB_REAL(PB_SM_CREATE)(SessionManager*, const std::string&, core::SemanticsId);
Status PB_WRAP(PB_SM_CREATE)(SessionManager* self, const std::string& id,
                             core::SemanticsId semantics) {
  Scope scope("session_manager.create", &id, true);
  return PB_REAL(PB_SM_CREATE)(self, id, semantics);
}

StatusOr<std::vector<core::ScoredPair>> PB_REAL(PB_SM_NEXT)(SessionManager*,
                                                            const std::string&, int);
StatusOr<std::vector<core::ScoredPair>> PB_WRAP(PB_SM_NEXT)(SessionManager* self,
                                                            const std::string& id,
                                                            int count) {
  Scope scope("session_manager.next_pairs", &id);
  return PB_REAL(PB_SM_NEXT)(self, id, count);
}

Status PB_REAL(PB_SM_POST)(SessionManager*, const std::string&, const SessionAnswers&,
                           ptk::serve::PostReport*);
Status PB_WRAP(PB_SM_POST)(SessionManager* self, const std::string& id,
                           const SessionAnswers& answers, ptk::serve::PostReport* report) {
  Scope scope("session_manager.post_answers", &id);
  return PB_REAL(PB_SM_POST)(self, id, answers, report);
}

Status PB_REAL(PB_SM_POSTB)(SessionManager*, const std::string&,
                            std::vector<SessionManager::PostBatch>*);
Status PB_WRAP(PB_SM_POSTB)(SessionManager* self, const std::string& id,
                            std::vector<SessionManager::PostBatch>* batches) {
  Scope scope("session_manager.post_answers", &id);
  scope.set_aux(static_cast<double>(batches->size()));
  return PB_REAL(PB_SM_POSTB)(self, id, batches);
}

StatusOr<double> PB_REAL(PB_SM_QUALITY)(SessionManager*, const std::string&);
StatusOr<double> PB_WRAP(PB_SM_QUALITY)(SessionManager* self, const std::string& id) {
  Scope scope("session_manager.quality", &id);
  return PB_REAL(PB_SM_QUALITY)(self, id);
}

StatusOr<pw::TopKDistribution> PB_REAL(PB_SM_DIST)(SessionManager*, const std::string&);
StatusOr<pw::TopKDistribution> PB_WRAP(PB_SM_DIST)(SessionManager* self,
                                                   const std::string& id) {
  Scope scope("session_manager.distribution", &id);
  return PB_REAL(PB_SM_DIST)(self, id);
}

StatusOr<int> PB_REAL(PB_SM_RECOVER)(SessionManager*,
                                     const std::function<bool(const std::string&)>&);
StatusOr<int> PB_WRAP(PB_SM_RECOVER)(SessionManager* self,
                                     const std::function<bool(const std::string&)>& filter) {
  Scope scope("session_manager.recover");
  return PB_REAL(PB_SM_RECOVER)(self, filter);
}

Status PB_REAL(PB_ENG_FOLD)(engine::RankingEngine*, int, int, bool,
                            engine::RankingEngine::FoldOutcome*);
Status PB_WRAP(PB_ENG_FOLD)(engine::RankingEngine* self, int smaller, int larger,
                            bool update_working, engine::RankingEngine::FoldOutcome* outcome) {
  Scope scope("engine.fold");
  return PB_REAL(PB_ENG_FOLD)(self, smaller, larger, update_working, outcome);
}

StatusOr<double> PB_REAL(PB_ENG_QUALITY)(const engine::RankingEngine*);
StatusOr<double> PB_WRAP(PB_ENG_QUALITY)(const engine::RankingEngine* self) {
  Scope scope("engine.quality");
  const int64_t hits = self->counters().distribution_hits;
  StatusOr<double> q = PB_REAL(PB_ENG_QUALITY)(self);
  scope.set_aux(self->counters().distribution_hits == hits ? 1.0 : 0.0);  // cold
  return q;
}

StatusOr<pw::TopKDistribution> PB_REAL(PB_ENG_DIST)(const engine::RankingEngine*);
StatusOr<pw::TopKDistribution> PB_WRAP(PB_ENG_DIST)(const engine::RankingEngine* self) {
  Scope scope("engine.distribution");
  return PB_REAL(PB_ENG_DIST)(self);
}

double PB_REAL(PB_QE_CPROB)(const core::QualityEvaluator*, const pw::ConstraintSet&);
double PB_WRAP(PB_QE_CPROB)(const core::QualityEvaluator* self,
                            const pw::ConstraintSet& constraints) {
  Scope scope("quality.constraint_prob");
  return PB_REAL(PB_QE_CPROB)(self, constraints);
}

void PB_REAL(PB_JC_CTOR)(pw::JointComponent*, const ptk::model::Database&,
                         std::vector<int>, std::vector<pw::PairwiseConstraint>);
void PB_WRAP(PB_JC_CTOR)(pw::JointComponent* self, const ptk::model::Database& db,
                         std::vector<int> members,
                         std::vector<pw::PairwiseConstraint> constraints) {
  Scope scope("joint_component.build");
  scope.set_aux(static_cast<double>(members.size()));
  PB_REAL(PB_JC_CTOR)(self, db, std::move(members), std::move(constraints));
}

Status PB_REAL(PB_ENUM)(const pw::TopKEnumerator*, int, pw::OrderMode,
                        const pw::ConstraintSet*, const pw::EnumeratorOptions&,
                        pw::TopKDistribution*);
Status PB_WRAP(PB_ENUM)(const pw::TopKEnumerator* self, int k, pw::OrderMode order,
                        const pw::ConstraintSet* constraints,
                        const pw::EnumeratorOptions& options, pw::TopKDistribution* out) {
  Scope scope("topk_enumerator.enumerate");
  const Status s = PB_REAL(PB_ENUM)(self, k, order, constraints, options, out);
  scope.set_aux(static_cast<double>(out->size()));
  return s;
}

Status PB_REAL(PB_WAL_APPEND)(persist::WalWriter*, const persist::WalRecord&);
Status PB_WRAP(PB_WAL_APPEND)(persist::WalWriter* self, const persist::WalRecord& record) {
  Scope scope("wal.append");
  return PB_REAL(PB_WAL_APPEND)(self, record);
}

Status PB_REAL(PB_WAL_SYNC)(persist::WalWriter*);
std::atomic<int64_t> g_wal_syncs{0};  // traced WalWriter::Sync calls
Status PB_WRAP(PB_WAL_SYNC)(persist::WalWriter* self) {
  Scope scope("wal.sync");
  if (g_tracing.load(std::memory_order_relaxed)) ++g_wal_syncs;
  return PB_REAL(PB_WAL_SYNC)(self);
}

}  // extern "C"

namespace {

// ---------------------------------------------------------------------------
// The replay.

struct Replayed {
  double wall_s = 0.0;
  std::vector<double> op_ms[8];  // Submit to callback, by serve::Op
  int64_t pairs_handed_out = 0;
  int64_t answers_acked = 0;
  int64_t next_pairs = 0;
  std::map<std::string, core::SemanticsId> semantics;  // by session id
  std::vector<double> encode_bytes;
  std::vector<serve::Response> responses;
  serve::Response::Metrics metrics;
  serve::Runtime::Stats stats;
  bool ok = true;
};

// `fsync`: the durable replay turns on ptk_server's default flush policy
// (fsync every acknowledgement) that the workloads run without.
serve::Runtime::Options ReplayOptions(const WorkloadSpec& spec, const std::string& persist,
                                      bool fsync = false) {
  serve::Runtime::Options options = RuntimeOptionsFor(spec, persist);
  options.manager.selector_factory = CountingFactory;
  options.manager.persist.fsync = fsync;
  return options;
}

// Requests the replay makes up itself (the semantics probe) get ids from
// here on, apart from the recorded stream's.
constexpr uint64_t kProbeRequestBase = 1000000000;

// The root span of one request (null when not tracing).
Span* OpenRequest(uint64_t id) {
  if (!g_tracing) return nullptr;
  Span* root = NewSpan("request", nullptr);
  root->request = id;
  return root;
}

// Submits `request` under `root`: a "runtime.submit" span runs from Submit
// to the callback, and the session's in-flight queue offers it as parent to
// the SessionManager call that serves it. `done` runs in the callback with
// the root on the thread's span stack; the root ends after it.
void TracedSubmit(serve::Runtime& runtime, Span* root, serve::Request request,
                  std::function<void(const serve::Response&)> done) {
  const bool create = request.op == serve::Op::kCreateSession;
  const std::string session = request.session;
  Span* submit = root != nullptr ? NewSpan("runtime.submit", root, session) : nullptr;
  if (submit != nullptr) {
    std::lock_guard<std::mutex> lock(g_inflight_mu);
    (create ? g_inflight_creates : g_inflight[session]).push_back(submit);
  }
  runtime.Submit(std::move(request), [root, submit, create, session,
                                      done = std::move(done)](serve::Response response) {
    if (submit != nullptr) {
      submit->end = NowNs();
      std::lock_guard<std::mutex> lock(g_inflight_mu);
      std::deque<Span*>& q = create ? g_inflight_creates : g_inflight[session];
      q.erase(std::find(q.begin(), q.end(), submit));
    }
    if (root != nullptr) t_stack.push_back(root);
    done(response);
    if (root != nullptr) {
      t_stack.pop_back();
      root->end = NowNs();
    }
  });
}

// Replays the stream against a fresh runtime; with `traced`, spans are
// recorded. With `stop`, the replay of the durable (fsync) figures: the
// journal is fsynced on every acknowledgement, and no further request is
// sent once stop() returns true. Returns what the client side saw.
Replayed ReplayStream(const WorkloadSpec& spec, const model::Database& db,
                      const std::vector<StreamEvent>& events, const std::string& persist,
                      bool traced, const std::function<bool()>& stop = nullptr) {
  Replayed out;
  std::filesystem::remove_all(persist);
  g_tracing = traced;
  const serve::Codec& codec = serve::CodecFor(spec.wire);
  std::mutex mu;
  std::condition_variable cv;
  std::set<uint64_t> done;
  const double t0 = NowS();
  {
    serve::Runtime runtime(db, ReplayOptions(spec, persist, stop != nullptr));
    size_t sent_count = 0;
    for (const StreamEvent& e : events) {
      if (stop != nullptr && stop()) break;
      if (e.kind == StreamEvent::Kind::kAwait) {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return done.contains(e.ticket); });
        continue;
      }
      Span* root = OpenRequest(e.ticket + 1);
      serve::Request request;
      {
        if (root != nullptr) t_stack.push_back(root);
        Scope scope("codec.decode");
        auto split = codec.SplitFrame(e.frame);
        if (!split.ok() || !split->complete ||
            !codec.DecodeRequest(split->frame, &request).ok()) {
          std::fprintf(stderr, "ptk_replay: undecodable frame %llu\n",
                       static_cast<unsigned long long>(e.ticket));
          std::exit(1);
        }
        if (root != nullptr) t_stack.pop_back();
      }
      if (root != nullptr) root->session = request.session;
      const serve::Op op = request.op;
      const uint64_t ticket = e.ticket;
      const std::string semantics = request.semantics;
      const double sent = NowS();
      ++sent_count;
      TracedSubmit(runtime, root, std::move(request), [&, root, op, ticket, sent,
                                                       semantics](const serve::Response& response) {
        const double finished = NowS();
        std::string frame;
        {
          Scope scope("codec.encode");
          frame = codec.EncodeResponse(response);
        }
        std::lock_guard<std::mutex> lock(mu);
        out.op_ms[static_cast<int>(op)].push_back((finished - sent) * 1e3);
        out.encode_bytes.push_back(static_cast<double>(frame.size()));
        out.responses.push_back(response);
        if (!response.status.ok()) out.ok = false;
        if (const auto* p = std::get_if<serve::Response::Pairs>(&response.payload)) {
          out.pairs_handed_out += static_cast<int64_t>(p->pairs.size());
          ++out.next_pairs;
        }
        if (const auto* p = std::get_if<serve::Response::Posted>(&response.payload)) {
          out.answers_acked += p->report.applied;
        }
        if (const auto* c = std::get_if<serve::Response::Created>(&response.payload)) {
          out.semantics[c->session] = semantics.empty()
                                          ? core::SemanticsId::kEntropy
                                          : *core::SemanticsFromName(semantics);
          if (root != nullptr) root->session = c->session;
        }
        done.insert(ticket);
        cv.notify_all();
      });
    }
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return done.size() == sent_count; });
    }
    out.wall_s = NowS() - t0;
    // One metrics request at the end, as an operator would issue it.
    serve::Request metrics;
    metrics.op = serve::Op::kMetrics;
    runtime.Submit(metrics, [&](serve::Response r) {
      if (const auto* m = std::get_if<serve::Response::Metrics>(&r.payload)) out.metrics = *m;
    });
    out.stats = runtime.stats();
    runtime.Shutdown();
  }
  g_tracing = false;
  return out;
}

// A workload without expected_rank or ukranks sessions gets a short probe
// of each on the same catalog (two rounds), so that the semantics layer is
// measured on every workload.
void ProbeSemantics(const WorkloadSpec& spec, const model::Database& db, uint64_t seed,
                    const std::string& dir, Replayed* run) {
  bool has[3] = {false, false, false};
  for (const auto& [id, s] : run->semantics) has[static_cast<int>(s)] = true;
  std::filesystem::remove_all(dir);
  g_tracing = true;
  serve::Runtime probe(db, ReplayOptions(spec, dir));
  uint64_t next_id = kProbeRequestBase;
  auto call = [&](serve::Request request) {
    // Shared with the callback: set_value may still be running on the
    // worker when get() returns here.
    auto reply = std::make_shared<std::promise<serve::Response>>();
    std::future<serve::Response> answer = reply->get_future();
    Span* root = OpenRequest(++next_id);
    root->session = request.session;
    TracedSubmit(probe, root, std::move(request), [reply, root](const serve::Response& response) {
      if (const auto* c = std::get_if<serve::Response::Created>(&response.payload)) {
        root->session = c->session;
      }
      reply->set_value(response);
    });
    return answer.get();
  };
  const std::vector<model::Position> world = SampleWorld(db, seed);
  for (const core::SemanticsId id :
       {core::SemanticsId::kExpectedRank, core::SemanticsId::kUKRanks}) {
    if (has[static_cast<int>(id)]) continue;
    serve::Request create;
    create.op = serve::Op::kCreateSession;
    create.semantics = std::string(core::SemanticsName(id));
    const std::string sid = std::get<serve::Response::Created>(call(create).payload).session;
    run->semantics[sid] = id;
    for (int round = 0; round < 2; ++round) {
      serve::Request next;
      next.op = serve::Op::kNextPairs;
      next.session = sid;
      next.count = spec.pairs_per_round;
      const serve::Response pairs = call(next);
      for (const auto& p : std::get<serve::Response::Pairs>(pairs.payload).pairs) {
        serve::Request post;
        post.op = serve::Op::kPostAnswers;
        post.session = sid;
        post.answers = {TruthfulAnswer(world, p.a, p.b)};
        call(post);
      }
    }
  }
  probe.Shutdown();
  g_tracing = false;
}

std::map<std::string, int64_t> Counters() {
  std::map<std::string, int64_t> out;
  for (const auto& c : ptk::obs::MetricsRegistry::Default().Snapshot().counters) {
    out[c.name] = c.value;
  }
  return out;
}

int64_t CounterDelta(const std::map<std::string, int64_t>& before,
                     const std::map<std::string, int64_t>& after, const std::string& prefix) {
  int64_t total = 0;
  for (const auto& [name, value] : after) {
    if (name.rfind(prefix, 0) != 0) continue;
    const auto it = before.find(name);
    total += value - (it == before.end() ? 0 : it->second);
  }
  return total;
}

double Median(std::vector<double> v) {
  const Summary s = Summarize(std::move(v));
  return s.p50.value_or(0.0);
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

template <typename F>
double MedianTimeMs(int reps, F&& fn) {
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) {
    const double t0 = NowS();
    fn();
    ms.push_back((NowS() - t0) * 1e3);
  }
  return Median(ms);
}

double Ms(const Span& s) { return static_cast<double>(s.end - s.start) / 1e6; }

// Codec cost on the workload's messages, in both wire formats: every
// request decoded, every response re-encoded.
struct CodecCosts {
  double json_decode_us = 0, json_encode_us = 0, binary_decode_us = 0, binary_encode_us = 0;
};

CodecCosts MeasureCodecs(const WorkloadSpec& spec, const std::vector<StreamEvent>& events,
                         const std::vector<serve::Response>& responses) {
  const serve::Codec& own = serve::CodecFor(spec.wire);
  const serve::Codec& json = serve::CodecFor(serve::WireFormat::kJsonLines);
  const serve::Codec& binary = serve::CodecFor(serve::WireFormat::kBinary);
  std::vector<std::string> json_frames, binary_frames;
  for (const StreamEvent& e : events) {
    if (e.kind != StreamEvent::Kind::kSend) continue;
    serve::Request r;
    auto split = own.SplitFrame(e.frame);
    if (!split.ok() || !own.DecodeRequest(split->frame, &r).ok()) continue;
    auto body = [](const serve::Codec& c, const std::string& framed) {
      auto s = c.SplitFrame(framed);
      return std::string(s->frame);
    };
    json_frames.push_back(body(json, json.EncodeRequest(r)));
    binary_frames.push_back(body(binary, binary.EncodeRequest(r)));
  }
  auto per_item_us = [](size_t n, auto&& fn) {
    if (n == 0) return 0.0;
    std::vector<double> us;
    for (int rep = 0; rep < 5; ++rep) {
      const double t0 = NowS();
      fn();
      us.push_back((NowS() - t0) * 1e6 / static_cast<double>(n));
    }
    return Median(us);
  };
  CodecCosts c;
  serve::Request sink;
  c.json_decode_us = per_item_us(json_frames.size(), [&] {
    for (const std::string& f : json_frames) (void)json.DecodeRequest(f, &sink);
  });
  c.binary_decode_us = per_item_us(binary_frames.size(), [&] {
    for (const std::string& f : binary_frames) (void)binary.DecodeRequest(f, &sink);
  });
  size_t bytes = 0;
  c.json_encode_us = per_item_us(responses.size(), [&] {
    for (const serve::Response& r : responses) bytes += json.EncodeResponse(r).size();
  });
  c.binary_encode_us = per_item_us(responses.size(), [&] {
    for (const serve::Response& r : responses) bytes += binary.EncodeResponse(r).size();
  });
  return c;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::string(argv[i]).rfind("--", 0) != 0) {
      std::fprintf(stderr, "ptk_replay: bad argument '%s'\n", argv[i]);
      return 2;
    }
    flags[argv[i] + 2] = argv[i + 1];
  }
  for (const char* need : {"workload", "seed", "csv", "stream", "dir"}) {
    if (!flags.contains(need)) {
      std::fprintf(stderr, "ptk_replay: missing --%s\n", need);
      return 2;
    }
  }
  const std::optional<WorkloadSpec> spec_or = SpecFor(flags["workload"]);
  if (!spec_or.has_value()) return 2;
  const WorkloadSpec spec = *spec_or;
  // The engine pool as the workload's server runs it, unless the caller
  // sets PTK_THREADS (the README's thread-scaling figures do).
  setenv("PTK_THREADS", std::to_string(spec.ptk_threads).c_str(), 0);
  const uint64_t seed = std::strtoull(flags["seed"].c_str(), nullptr, 10);
  const std::string dir = flags["dir"];
  std::vector<StreamEvent> events;
  if (!ReadStream(flags["stream"], &events)) {
    std::fprintf(stderr, "ptk_replay: cannot read %s\n", flags["stream"].c_str());
    return 1;
  }

  // Set-up layers: CSV load, membership pre-warm, PB-tree build.
  std::vector<double> csv_ms;
  std::optional<model::Database> db;
  for (int i = 0; i < 5; ++i) {
    const double t0 = NowS();
    auto loaded = ptk::data::LoadCsv(flags["csv"]);
    csv_ms.push_back((NowS() - t0) * 1e3);
    if (!loaded.ok()) {
      std::fprintf(stderr, "ptk_replay: %s\n", loaded.status().ToString().c_str());
      return 1;
    }
    db.emplace(*std::move(loaded));
  }
  const double membership_ms = MedianTimeMs(3, [&] {
    ptk::rank::MembershipCalculator m(*db, spec.k);
    m.ObjectTopKProbability(0);
  });
  const double pbtree_ms = MedianTimeMs(3, [&] {
    ptk::pbtree::PBTree::Options options;
    ptk::pbtree::PBTree tree(*db, options);
  });

  JsonObject notes;
  if (flags["overhead"] == "1") {
    const Replayed plain = ReplayStream(spec, *db, events, dir + "/replay_plain", false);
    notes.Num("untraced_wall_s", plain.wall_s);
    for (int op = 0; op < 7; ++op) {
      if (plain.op_ms[op].empty()) continue;
      notes.Num(std::string("untraced_") + std::string(serve::OpName(static_cast<serve::Op>(op))) +
                    "_p50_ms",
                Median(plain.op_ms[op]));
    }
  }

  {
    std::lock_guard<std::mutex> lock(g_spans_mu);
    g_spans.clear();
  }
  const auto counters_before = Counters();
  g_pairs_produced = 0;
  Replayed run = ReplayStream(spec, *db, events, dir + "/replay", true);

  ProbeSemantics(spec, *db, seed, dir + "/probe", &run);

  // Recovery of the replay's journal, as --recover does it.
  const auto counters_mid = Counters();
  double recover_ms = 0.0;
  {
    g_tracing = true;
    serve::Runtime recovered(*db, ReplayOptions(spec, dir + "/replay"));
    const double t0 = NowS();
    const auto n = recovered.Recover();
    recover_ms = (NowS() - t0) * 1e3;
    if (!n.ok()) {
      std::fprintf(stderr, "ptk_replay: recovery failed: %s\n", n.status().ToString().c_str());
      run.ok = false;
    }
    recovered.Shutdown();
    g_tracing = false;
  }
  const auto counters_after = Counters();

  // The durable figures: the workloads journal without fsync, so the
  // stream's prefix is replayed once more with fsync on every
  // acknowledgement (ptk_server's default), until kDurableSyncs WAL fsyncs
  // or kDurableBudgetS have passed. Its spans are taken out of the trace,
  // so they move only the wal.sync* and wal.fsyncs_per_answer figures.
  constexpr int64_t kDurableSyncs = 300;
  constexpr double kDurableBudgetS = 10.0;
  const size_t durable_first = g_spans.size();
  g_wal_syncs = 0;
  const int64_t pairs_produced = g_pairs_produced;
  const double durable_t0 = NowS();
  const Replayed durable =
      ReplayStream(spec, *db, events, dir + "/durable", true, [&] {
        return g_wal_syncs.load() >= kDurableSyncs || NowS() - durable_t0 > kDurableBudgetS;
      });
  std::vector<double> fsync_ms;
  for (size_t i = durable_first; i < g_spans.size(); ++i) {
    if (g_spans[i].end != 0 && std::string(g_spans[i].name) == "wal.sync") {
      fsync_ms.push_back(Ms(g_spans[i]));
    }
  }
  g_spans.erase(g_spans.begin() + static_cast<std::ptrdiff_t>(durable_first), g_spans.end());
  g_pairs_produced = pairs_produced;
  if (!durable.ok) run.ok = false;

  // --- Derive the per-layer metrics from the spans.
  std::map<std::string, std::vector<double>> by_name;  // durations, ms
  std::map<std::string, std::vector<double>> aux_by_name;
  std::map<uint64_t, const Span*> roots;  // request id -> root span
  for (const Span& s : g_spans) {
    if (s.end == 0) continue;
    by_name[s.name].push_back(Ms(s));
    aux_by_name[s.name].push_back(s.aux);
    if (s.parent == nullptr && s.request != 0) roots[s.request] = &s;
  }
  // Per request: summed durations by span name; the request's op and session.
  std::map<uint64_t, std::map<std::string, double>> per_request;
  // Self time per layer: duration minus the children recorded on the same
  // request (children may run on another thread: a shard worker under
  // runtime.submit).
  std::map<const Span*, double> child_ms;
  for (const Span& s : g_spans) {
    if (s.end == 0) continue;
    if (s.request != 0) per_request[s.request][s.name] += Ms(s);
    if (s.parent != nullptr) child_ms[s.parent] += Ms(s);
  }
  auto layer_of = [](const std::string& name) -> std::string {
    if (name == "request") return "";
    if (name.rfind("codec.", 0) == 0) return "codec";
    if (name.rfind("runtime.", 0) == 0) return "runtime";
    if (name.rfind("session_manager.", 0) == 0) return "session_manager";
    if (name == "engine.select_pairs") return "selector";
    if (name.rfind("engine.", 0) == 0) return "engine";
    if (name.rfind("quality.", 0) == 0) return "quality";
    if (name.rfind("joint_component.", 0) == 0 || name.rfind("topk_enumerator.", 0) == 0) {
      return "pw";
    }
    if (name.rfind("wal.", 0) == 0) return "persist";
    return "";
  };
  std::map<std::string, double> self_ms;
  for (const Span& s : g_spans) {
    if (s.end == 0 || s.request == 0 || s.request > kProbeRequestBase) continue;
    const std::string layer = layer_of(s.name);
    if (layer.empty()) continue;
    self_ms[layer] += Ms(s) - child_ms[&s];
  }
  const double requests = std::max<double>(1.0, static_cast<double>(roots.size()));

  std::vector<double> select_ms, select_er_ms, select_uk_ms, fold_er_ms;
  for (const auto& [req, names] : per_request) {
    const auto root = roots.find(req);
    if (root == roots.end()) continue;
    const std::string& session = root->second->session;
    const auto sem = run.semantics.find(session);
    if (names.contains("session_manager.next_pairs")) {
      const double ms = (names.contains("engine.make_selector") ? names.at("engine.make_selector") : 0) +
                        (names.contains("engine.select_pairs") ? names.at("engine.select_pairs") : 0);
      if (req <= kProbeRequestBase) select_ms.push_back(ms);
      if (sem != run.semantics.end() && sem->second == core::SemanticsId::kExpectedRank) {
        select_er_ms.push_back(ms);
      }
      if (sem != run.semantics.end() && sem->second == core::SemanticsId::kUKRanks) {
        select_uk_ms.push_back(ms);
      }
    }
  }
  for (const Span& s : g_spans) {
    if (s.end == 0 || std::string(s.name) != "engine.fold" || s.request == 0) continue;
    const auto root = roots.find(s.request);
    if (root == roots.end()) continue;
    const auto sem = run.semantics.find(root->second->session);
    if (sem != run.semantics.end() && sem->second == core::SemanticsId::kExpectedRank) {
      fold_er_ms.push_back(Ms(s));
    }
  }
  std::vector<double> quality_cold;
  for (const Span& s : g_spans) {
    if (s.end != 0 && std::string(s.name) == "engine.quality" && s.aux == 1.0) {
      quality_cold.push_back(Ms(s));
    }
  }
  double max_component = 0.0;
  for (double v : aux_by_name["joint_component.build"]) max_component = std::max(max_component, v);

  const double next_pairs = std::max<double>(1.0, static_cast<double>(run.next_pairs));
  auto delta = [&](const std::string& prefix) {
    return static_cast<double>(CounterDelta(counters_before, counters_mid, prefix));
  };
  const Summary fold = Summarize(by_name["engine.fold"]);
  const Summary sync = Summarize(fsync_ms);
  const CodecCosts codecs = MeasureCodecs(spec, events, run.responses);

  JsonObject m;
  auto put = [&](const std::string& name, double value, const std::string& unit) {
    m.Raw(name, MetricJson(value, unit));
  };
  put("csv.load_ms", Median(csv_ms), "ms");
  put("membership.build_ms", membership_ms, "ms");
  put("pbtree.build_ms", pbtree_ms, "ms");
  put("session_manager.construct_ms", Median(by_name["session_manager.construct"]), "ms");
  put("codec.json.decode_us", codecs.json_decode_us, "us");
  put("codec.json.encode_us", codecs.json_encode_us, "us");
  put("codec.binary.decode_us", codecs.binary_decode_us, "us");
  put("codec.binary.encode_us", codecs.binary_encode_us, "us");
  put("codec.response_bytes", Mean(run.encode_bytes), "B");
  put("runtime.submit_to_done_ms", Median(by_name["runtime.submit"]), "ms");
  put("runtime.coalesced_posts", static_cast<double>(run.stats.coalesced_posts), "count");
  put("runtime.batched_reads", static_cast<double>(run.stats.batched_reads), "count");
  put("runtime.shed", static_cast<double>(run.metrics.shed), "count");
  put("session_manager.next_pairs_ms", Median(by_name["session_manager.next_pairs"]), "ms");
  put("session_manager.post_answers_ms", Median(by_name["session_manager.post_answers"]), "ms");
  put("session_manager.quality_ms", Median(by_name["session_manager.quality"]), "ms");
  put("session_manager.create_ms", Median(by_name["session_manager.create"]), "ms");
  put("session_manager.session_bytes",
      run.metrics.sessions_open > 0 ? static_cast<double>(run.metrics.session_bytes_total) /
                                          static_cast<double>(run.metrics.sessions_open)
                                    : 0.0,
      "B");
  put("handout.useful_ratio",
      g_pairs_produced > 0 ? static_cast<double>(run.pairs_handed_out) /
                                 static_cast<double>(g_pairs_produced.load())
                           : 0.0,
      "ratio");
  put("engine.select_ms", Median(select_ms), "ms");
  put("engine.fold_ms", fold.p50.value_or(0.0), "ms");
  put("engine.fold_p90_ms", fold.p90.value_or(fold.p50.value_or(0.0)), "ms");
  put("engine.quality_cold_ms", Median(quality_cold), "ms");
  put("engine.distribution_builds", delta("ptk_engine_distribution_builds_total"), "count");
  put("engine.distribution_hits", delta("ptk_engine_distribution_memo_hits_total"), "count");
  put("engine.folds_rejected", delta("ptk_engine_folds_rejected_total"), "count");
  put("selector.pairs_evaluated", delta("ptk_selector_pairs_evaluated_total") / next_pairs, "count");
  put("selector.delta_prunes", delta("ptk_selector_delta_prunes_total") / next_pairs, "count");
  put("selector.speculative_overshoot",
      delta("ptk_selector_speculative_overshoot_total") / next_pairs, "count");
  put("quality.constraint_prob_ms", Median(by_name["quality.constraint_prob"]), "ms");
  put("joint_component.max_size", max_component, "count");
  put("joint_component.build_ms", Mean(by_name["joint_component.build"]), "ms");
  put("topk_enumerator.enumerate_ms", Mean(by_name["topk_enumerator.enumerate"]), "ms");
  put("topk_enumerator.result_sets", Mean(aux_by_name["topk_enumerator.enumerate"]), "count");
  put("semantics.expected_rank.select_ms", Median(select_er_ms), "ms");
  put("semantics.ukranks.select_ms", Median(select_uk_ms), "ms");
  put("semantics.expected_rank.fold_ms", Median(fold_er_ms), "ms");
  put("semantics.evals", delta("ptk_engine_semantics_evals_total") / next_pairs, "count");
  put("wal.append_us", Median(by_name["wal.append"]) * 1e3, "us");
  put("wal.sync_us", sync.p50.value_or(0.0) * 1e3, "us");
  put("wal.sync_p90_us", sync.p90.value_or(sync.p50.value_or(0.0)) * 1e3, "us");
  put("wal.fsyncs_per_answer",
      durable.answers_acked > 0 ? static_cast<double>(fsync_ms.size()) /
                                      static_cast<double>(durable.answers_acked)
                                : 0.0,
      "count");
  put("snapshot.count", delta("ptk_persist_snapshots_total"), "count");
  put("recovery.replayed_records",
      static_cast<double>(CounterDelta(counters_mid, counters_after,
                                       "ptk_persist_recovery_replayed_total")),
      "count");
  put("recovery.recover_ms", recover_ms, "ms");
  for (const char* layer : {"codec", "runtime", "session_manager", "engine", "selector",
                            "quality", "pw", "persist"}) {
    put(std::string("self.") + layer + "_ms", self_ms[layer] / requests, "ms");
  }
  put("replay.wall_s", run.wall_s, "s");

  if (flags.contains("spans")) {
    std::ofstream tsv(flags["spans"]);
    tsv << "id\tparent\trequest\tthread\tname\tstart_ns\tend_ns\taux\tsession\n";
    for (const Span& s : g_spans) {
      tsv << s.id << '\t' << (s.parent != nullptr ? s.parent->id : 0) << '\t' << s.request << '\t'
          << s.thread << '\t' << s.name << '\t' << s.start << '\t' << s.end << '\t' << s.aux << '\t'
          << s.session << '\n';
    }
  }
  for (int op = 0; op < 7; ++op) {
    if (run.op_ms[op].empty()) continue;
    notes.Num(std::string("traced_") + std::string(serve::OpName(static_cast<serve::Op>(op))) +
                  "_p50_ms",
              Median(run.op_ms[op]));
  }
  notes.Num("traced_wall_s", run.wall_s);
  notes.Int("spans", static_cast<int64_t>(g_spans.size()));
  std::printf("%s\n", JsonObject()
                          .Bool("correct", run.ok)
                          .Raw("notes", notes.Render())
                          .Raw("metrics", m.Render())
                          .Render()
                          .c_str());
  return 0;
}
