// The benchmark's load generator: spawns the real ptk_server, drives one
// workload through its stdin/stdout pipe from this single process (one
// connection), checks every response against properties the method must
// have and against computations made apart from the server, then kills
// the server and times `--recover`. Prints one JSON object as its last
// line (see perfbench/README.md for every field).
//
//   ptk_loadgen --workload NAME --seed N --seconds S --server PATH
//               --dir RUN_DIR [--record STREAM_FILE]
//   ptk_loadgen --self-test
//
// perfbench/run.py builds and invokes this; it is not meant to be run by
// hand, though it can be.

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common.h"
#include "core/semantics.h"
#include "data/csv.h"
#include "engine/ranking_engine.h"
#include "pw/constraint.h"
#include "pw/possible_world.h"
#include "pw/topk_distribution.h"
#include "pw/topk_enumerator.h"
#include "serve/codec.h"
#include "serve/message.h"

extern char** environ;

namespace {

using namespace perfbench;
namespace core = ptk::core;
namespace pw = ptk::pw;
namespace engine = ptk::engine;
using ptk::util::Status;
using Answer = std::pair<model::ObjectId, model::ObjectId>;

// ---------------------------------------------------------------------------
// Correctness bookkeeping.

std::vector<std::string> g_errors;
int64_t g_error_count = 0;

void Fail(const std::string& what) {
  ++g_error_count;
  if (g_errors.size() < 20) g_errors.push_back(what);
  std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
}

bool SameBits(double a, double b) {
  uint64_t x, y;
  std::memcpy(&x, &a, 8);
  std::memcpy(&y, &b, 8);
  return x == y;
}

// Entropy of a distribution whose top-k is certain reads as a tiny negative
// number (about -4e-15) because of summation order; anything below this is
// a real negative.
constexpr double kNegativeEntropyTolerance = 1e-12;

// The JSON wire prints doubles as %.9g. A value computed apart from the
// server is compared at the precision the wire carries: rounded the same
// way, the two must agree within `tol`.
bool AgreesOnWire(double served, double exact, double tol) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", exact);
  return std::fabs(std::strtod(buf, nullptr) - served) <= tol;
}

// ---------------------------------------------------------------------------
// The server process, over two pipes.

class ServerProcess;
// Every server process alive, so that a fatal exit still kills and reaps
// them (std::exit skips the destructors of locals).
std::set<ServerProcess*> g_servers;

class ServerProcess {
 public:
  ServerProcess() { g_servers.insert(this); }
  ~ServerProcess() {
    Kill();
    g_servers.erase(this);
  }

  bool Start(const std::string& binary, const std::vector<std::string>& args,
             int ptk_threads, const std::string& log_path) {
    int to_child[2], from_child[2];
    if (pipe2(to_child, O_CLOEXEC) != 0) return false;
    if (pipe2(from_child, O_CLOEXEC) != 0) return false;
    std::vector<std::string> env_store;
    for (char** e = environ; *e != nullptr; ++e) {
      if (std::strncmp(*e, "PTK_THREADS=", 12) != 0) env_store.push_back(*e);
    }
    env_store.push_back("PTK_THREADS=" + std::to_string(ptk_threads));
    std::vector<char*> envp;
    for (std::string& s : env_store) envp.push_back(s.data());
    envp.push_back(nullptr);
    std::vector<std::string> argv_store = {binary};
    argv_store.insert(argv_store.end(), args.begin(), args.end());
    std::vector<char*> argv;
    for (std::string& s : argv_store) argv.push_back(s.data());
    argv.push_back(nullptr);
    const int log_fd =
        ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
    pid_ = fork();
    if (pid_ < 0) return false;
    if (pid_ == 0) {
      dup2(to_child[0], 0);
      dup2(from_child[1], 1);
      if (log_fd >= 0) dup2(log_fd, 2);
      execve(binary.c_str(), argv.data(), envp.data());
      _exit(127);
    }
    if (log_fd >= 0) ::close(log_fd);
    ::close(to_child[0]);
    ::close(from_child[1]);
    in_fd_ = to_child[1];
    out_fd_ = from_child[0];
    buffer_.clear();
    offset_ = 0;
    return true;
  }

  bool Write(const std::string& bytes) {
    size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = ::write(in_fd_, bytes.data() + off, bytes.size() - off);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      off += static_cast<size_t>(n);
    }
    return true;
  }

  // Reads one complete response frame; false on EOF or a framing error.
  bool ReadFrame(const serve::Codec& codec, std::string* frame) {
    for (;;) {
      auto split = codec.SplitFrame(std::string_view(buffer_).substr(offset_));
      if (!split.ok()) return false;
      if (split->complete) {
        frame->assign(split->frame);
        offset_ += split->consumed;
        if (offset_ > (1 << 20)) {
          buffer_.erase(0, offset_);
          offset_ = 0;
        }
        return true;
      }
      char chunk[1 << 16];
      const ssize_t n = ::read(out_fd_, chunk, sizeof(chunk));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

  // Whether a response frame is buffered or arrives within `timeout_s`.
  bool WaitReadable(const serve::Codec& codec, double timeout_s) {
    auto split = codec.SplitFrame(std::string_view(buffer_).substr(offset_));
    if (split.ok() && split->complete) return true;
    pollfd pfd{out_fd_, POLLIN, 0};
    return ::poll(&pfd, 1, static_cast<int>(std::max(0.0, timeout_s) * 1e3)) != 0;
  }

  // Peak resident set of the server (VmHWM), in KiB; -1 when unreadable.
  int64_t PeakRssKb() const {
    std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(status, line)) {
      if (line.rfind("VmHWM:", 0) == 0) return std::atoll(line.c_str() + 6);
    }
    return -1;
  }

  // Closes stdin and waits for a clean exit; returns the exit status.
  int Finish() {
    if (pid_ <= 0) return -1;
    CloseFds();
    int status = 0;
    waitpid(pid_, &status, 0);
    pid_ = -1;
    return status;
  }

  void Kill() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGKILL);
    int status = 0;
    waitpid(pid_, &status, 0);
    pid_ = -1;
    CloseFds();
  }

 private:
  void CloseFds() {
    if (in_fd_ >= 0) ::close(in_fd_);
    if (out_fd_ >= 0) ::close(out_fd_);
    in_fd_ = out_fd_ = -1;
  }

  pid_t pid_ = -1;
  int in_fd_ = -1;
  int out_fd_ = -1;
  std::string buffer_;
  size_t offset_ = 0;
};

// ---------------------------------------------------------------------------
// The client: sends typed requests, receives responses in request order
// (the server writes them in that order), times each op from send to
// reply, and optionally records the stream for the traced replay.

enum OpIndex { kCreate, kNext, kPost, kQual, kDist, kMetricsOp, kClose, kNumOps };

const char* OpLabel(int op) {
  static const char* kLabels[] = {"create_session", "next_pairs",
                                  "post_answers",   "quality",
                                  "distribution",   "metrics",
                                  "close"};
  return kLabels[op];
}

int OpIndexOf(serve::Op op) {
  switch (op) {
    case serve::Op::kCreateSession: return kCreate;
    case serve::Op::kNextPairs: return kNext;
    case serve::Op::kPostAnswers: return kPost;
    case serve::Op::kQuality: return kQual;
    case serve::Op::kDistribution: return kDist;
    case serve::Op::kMetrics: return kMetricsOp;
    case serve::Op::kClose: return kClose;
  }
  return kMetricsOp;
}

struct OpStats {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<double> ms;  // latency samples inside the measured window
};

class Client {
 public:
  Client(ServerProcess* server, const serve::Codec& codec)
      : server_(server), codec_(codec) {}

  void Reset(ServerProcess* server) {
    server_ = server;
    pending_.clear();
  }

  bool measuring = false;
  std::vector<StreamEvent>* record = nullptr;
  std::array<OpStats, kNumOps> ops;

  uint64_t Send(serve::Request request) {
    const uint64_t ticket = next_ticket_++;
    request.id = std::to_string(ticket);
    const std::string frame = codec_.EncodeRequest(request);
    const int op = OpIndexOf(request.op);
    ++ops[op].attempted;
    pending_.push_back({ticket, op, NowS()});
    if (record != nullptr) {
      record->push_back({StreamEvent::Kind::kSend, ticket - ticket_base_, frame});
    }
    if (!server_->Write(frame)) Fatal("write to ptk_server failed");
    return ticket;
  }

  // The response to the oldest outstanding request.
  serve::Response Receive() {
    if (pending_.empty()) Fatal("receive with nothing outstanding");
    const Pending p = pending_.front();
    pending_.pop_front();
    if (record != nullptr) {
      record->push_back({StreamEvent::Kind::kAwait, p.ticket - ticket_base_, ""});
    }
    std::string frame;
    if (!server_->ReadFrame(codec_, &frame)) Fatal("ptk_server closed its output");
    const double done = NowS();
    auto decoded = codec_.DecodeResponse(frame);
    if (!decoded.ok()) Fatal("undecodable response: " + decoded.status().ToString());
    if (decoded->id != std::to_string(p.ticket)) {
      Fatal("response out of order: got id " + decoded->id + ", expected " +
            std::to_string(p.ticket));
    }
    if (!decoded->status.ok()) ++ops[p.op].failed;
    if (measuring) ops[p.op].ms.push_back((done - p.sent) * 1e3);
    return *std::move(decoded);
  }

  serve::Response Call(serve::Request request) {
    Send(std::move(request));
    return Receive();
  }

  size_t outstanding() const { return pending_.size(); }
  bool ResponseReady(double timeout_s) { return server_->WaitReadable(codec_, timeout_s); }

  // Recorded tickets restart at 0 with each recording, as a fresh
  // runtime's do.
  void StartRecording(std::vector<StreamEvent>* events) {
    record = events;
    ticket_base_ = next_ticket_;
  }

  [[noreturn]] static void Fatal(const std::string& what) {
    std::fprintf(stderr, "ptk_loadgen: fatal: %s\n", what.c_str());
    for (ServerProcess* server : g_servers) server->Kill();
    std::exit(1);
  }

 private:
  struct Pending {
    uint64_t ticket;
    int op;
    double sent;
  };
  ServerProcess* server_;
  const serve::Codec& codec_;
  std::deque<Pending> pending_;
  uint64_t next_ticket_ = 0;
  uint64_t ticket_base_ = 0;
};

serve::Request Req(serve::Op op, const std::string& session = "") {
  serve::Request r;
  r.op = op;
  r.session = session;
  return r;
}

// ---------------------------------------------------------------------------
// Session bookkeeping shared by the workloads.

struct Session {
  std::string id;
  core::SemanticsId semantics = core::SemanticsId::kEntropy;
  std::vector<model::Position> world;
  std::set<Answer> asked;            // minmax-normalized
  std::vector<Answer> applied;       // acknowledged answers, in order
  uint64_t version = 0;              // engine version after the last ack
  double prior = 0.0;                // quality before any answer
  std::vector<double> quality;       // quality after each round
  std::vector<size_t> answers_at;    // applied.size() at each quality read
  std::vector<double> entropy;       // distribution entropy after each round
  bool open = false;
  int rounds = 0;
};

struct Run {
  WorkloadSpec spec;
  uint64_t seed = 0;
  double seconds = 1;
  model::Database db;
  std::string dir, csv, persist, server_bin, log;
  Client* client = nullptr;
  std::vector<Session> sessions;
  int64_t rounds = 0;
  double measured_s = 0;
  // setup_s and recover_s samples (SampleSpawns).
  std::vector<double> setups, recoveries;
  // Cleaning throughput of each unit of the run: a session (long_session),
  // a generation (objectives) or the whole paced run (serve_mix).
  // rounds_per_s is their median, so a burst of host noise that slows a
  // few units does not move it.
  std::vector<double> unit_rates;
  int requesters_started = 0;
};

std::string Where(const Session& s) { return "session " + s.id; }

// Checks a next_pairs response: `count` valid, distinct, never-asked pairs.
std::vector<Answer> CheckPairs(Run& run, Session& s,
                               const serve::Response& r, int count) {
  std::vector<Answer> out;
  if (!r.status.ok()) {
    Fail(Where(s) + ": next_pairs failed: " + r.status.ToString());
    return out;
  }
  const auto* pairs = std::get_if<serve::Response::Pairs>(&r.payload);
  if (pairs == nullptr || static_cast<int>(pairs->pairs.size()) != count) {
    Fail(Where(s) + ": next_pairs returned the wrong number of pairs");
    return out;
  }
  const int m = run.db.num_objects();
  for (const auto& p : pairs->pairs) {
    if (p.a < 0 || p.b < 0 || p.a >= m || p.b >= m || p.a == p.b) {
      Fail(Where(s) + ": invalid pair");
      continue;
    }
    const Answer key = std::minmax(p.a, p.b);
    if (!s.asked.insert(key).second) {
      Fail(Where(s) + ": pair (" + std::to_string(p.a) + "," +
           std::to_string(p.b) + ") handed out twice");
      continue;
    }
    out.emplace_back(p.a, p.b);
  }
  return out;
}

// Checks one single-answer post_answers response for a truthful answer.
void CheckPost(Session& s, const Answer& answer, const serve::Response& r) {
  const auto* posted = std::get_if<serve::Response::Posted>(&r.payload);
  if (!r.status.ok() || posted == nullptr) {
    Fail(Where(s) + ": post_answers failed: " + r.status.ToString());
    return;
  }
  const serve::PostReport& rep = posted->report;
  if (rep.applied != 1 || rep.contradictory != 0 || rep.degenerate != 0) {
    Fail(Where(s) + ": truthful answer rejected");
    return;
  }
  if (rep.version != s.version + 1) {
    Fail(Where(s) + ": version " + std::to_string(rep.version) +
         " after ack, expected " + std::to_string(s.version + 1));
  }
  s.version = rep.version;
  s.applied.push_back(answer);
}

double CheckQuality(Session& s, const serve::Response& r) {
  const auto* q = std::get_if<serve::Response::Quality>(&r.payload);
  if (!r.status.ok() || q == nullptr) {
    Fail(Where(s) + ": quality failed: " + r.status.ToString());
    return 0.0;
  }
  if (!std::isfinite(q->quality) || q->quality < -kNegativeEntropyTolerance) {
    Fail(Where(s) + ": quality out of range");
  }
  return q->quality;
}

// Checks a full distribution listing (limit 0): masses plus lost mass (0
// for the exact enumeration the server runs) sum to 1.
double CheckDistribution(Session& s, const serve::Response& r, double tol) {
  const auto* d = std::get_if<serve::Response::Distribution>(&r.payload);
  if (!r.status.ok() || d == nullptr) {
    Fail(Where(s) + ": distribution failed: " + r.status.ToString());
    return 0.0;
  }
  double mass = 0.0;
  for (const auto& set : d->sets) mass += set.p;
  if (std::fabs(mass - 1.0) > tol) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), ": distribution mass %.17g != 1", mass);
    Fail(Where(s) + buf);
  }
  return d->entropy;
}

Session OpenSession(Run& run, const std::string& semantics,
                    core::SemanticsId id, uint64_t world_seed) {
  Session s;
  s.semantics = id;
  s.world = SampleWorld(run.db, world_seed);
  serve::Request create = Req(serve::Op::kCreateSession);
  create.semantics = semantics;
  const serve::Response r = run.client->Call(create);
  const auto* created = std::get_if<serve::Response::Created>(&r.payload);
  if (!r.status.ok() || created == nullptr) {
    Client::Fatal("create_session failed: " + r.status.ToString());
  }
  s.id = created->session;
  s.open = true;
  return s;
}

double MaxComponent(const std::vector<Answer>& applied) {
  pw::ConstraintSet cs;
  for (const Answer& a : applied) cs.Add(a.first, a.second);
  size_t best = 0;
  for (const auto& c : cs.Components()) best = std::max(best, c.members.size());
  return static_cast<double>(best);
}

// The rest of one cleaning round, one request in flight at a time: each
// answer in its own post_answers frame, then quality and (when
// `with_distribution`) distribution.
void PostAndRead(Run& run, Session& s, const std::vector<Answer>& pairs,
                 bool with_distribution) {
  Client& c = *run.client;
  for (const Answer& p : pairs) {
    const Answer answer = TruthfulAnswer(s.world, p.first, p.second);
    serve::Request post = Req(serve::Op::kPostAnswers, s.id);
    post.answers = {answer};
    CheckPost(s, answer, c.Call(post));
  }
  const double q = CheckQuality(s, c.Call(Req(serve::Op::kQuality, s.id)));
  double h = 0.0;
  if (with_distribution) {
    h = CheckDistribution(s, c.Call(Req(serve::Op::kDistribution, s.id)), 1e-9);
    if (s.semantics == core::SemanticsId::kEntropy && !SameBits(q, h)) {
      Fail(Where(s) + ": quality differs from the distribution's entropy");
    }
  }
  s.quality.push_back(q);
  s.entropy.push_back(h);
  s.answers_at.push_back(s.applied.size());
  ++s.rounds;
  ++run.rounds;
}

// The p90 latencies need at least 100 samples each; a run keeps starting
// sessions past --seconds until it has them.
bool NeedSamples(const Run& run) {
  for (int op : {kNext, kPost, kQual}) {
    if (run.client->ops[op].ms.size() < 100) return true;
  }
  return false;
}

double ReadPrior(Run& run, Session& s) {
  s.prior = CheckQuality(s, run.client->Call(Req(serve::Op::kQuality, s.id)));
  return s.prior;
}

// One cleaning round: next_pairs, then PostAndRead -- unless the session
// has run its rounds, or the round's answers would join more than the
// workload's component limit into one joint component. Then the requester
// leaves the pairs unanswered, and the session is over (returns false).
bool AnswerRound(Run& run, Session& s, bool with_distribution) {
  serve::Request next = Req(serve::Op::kNextPairs, s.id);
  next.count = run.spec.pairs_per_round;
  const std::vector<Answer> pairs =
      CheckPairs(run, s, run.client->Call(next), run.spec.pairs_per_round);
  std::vector<Answer> answers = s.applied;
  for (const Answer& p : pairs) {
    answers.push_back(TruthfulAnswer(s.world, p.first, p.second));
  }
  if (pairs.empty() || MaxComponent(answers) > run.spec.component_limit ||
      (run.spec.rounds_per_session > 0 && s.rounds >= run.spec.rounds_per_session)) {
    return false;
  }
  PostAndRead(run, s, pairs, with_distribution);
  return true;
}

// ---------------------------------------------------------------------------
// Set-up and recovery timing.

// One spawn of ptk_server on `persist_dir` -- a fresh directory (set-up:
// CSV load, artifact pre-warm, catalog save) or, with `recover`, a journal
// to replay -- timed to its first response (a metrics request; the server
// reads nothing before recovery is done), then shut down.
double TimeSpawn(Run& run, const std::string& persist_dir, bool recover) {
  const serve::Codec& codec = serve::CodecFor(run.spec.wire);
  std::vector<std::string> args = ServerArgsFor(run.spec, run.csv, persist_dir);
  if (recover) args.push_back("--recover");
  serve::Request metrics = Req(serve::Op::kMetrics);
  metrics.id = "spawn";
  const std::string frame = codec.EncodeRequest(metrics);
  ServerProcess server;
  const double t0 = NowS();
  if (!server.Start(run.server_bin, args, run.spec.ptk_threads, run.log) ||
      !server.Write(frame)) {
    Client::Fatal("cannot start ptk_server");
  }
  std::string reply;
  if (!server.ReadFrame(codec, &reply)) Client::Fatal("no response after spawn");
  const double elapsed = NowS() - t0;
  if (server.Finish() != 0) Fail("spawned ptk_server did not exit cleanly");
  return elapsed;
}

// Set-up and recovery are sampled kSpawnSamples times each, spread evenly
// over the measured window: a few at each boundary between sessions
// (long_session) or generations (objectives), where no request is in
// flight. On a shared host the speed drifts over tens of seconds, so
// samples taken in one burst would read the host of that moment more than
// the program.
// A recovery sample replays a copy of the live persist directory, which at
// a boundary holds the same journal as at the end of the run: the sessions
// kept open, each finished. `upto_end` takes the samples still due.
constexpr int kSpawnSamples = 60;

void SampleSpawns(Run& run, double window_start, bool upto_end = false) {
  const double due =
      upto_end ? kSpawnSamples
               : std::min<double>(kSpawnSamples,
                                  1 + std::floor((NowS() - window_start) / run.seconds *
                                                 kSpawnSamples));
  const std::string fresh = run.dir + "/setup";
  const std::string copy = run.dir + "/recover";
  while (static_cast<double>(run.setups.size()) < due) {
    std::filesystem::remove_all(fresh);
    run.setups.push_back(TimeSpawn(run, fresh, false));
    std::filesystem::remove_all(copy);
    std::filesystem::copy(run.persist, copy, std::filesystem::copy_options::recursive);
    run.recoveries.push_back(TimeSpawn(run, copy, true));
  }
  std::filesystem::remove_all(fresh);
  std::filesystem::remove_all(copy);
}

// ---------------------------------------------------------------------------
// Workloads.

constexpr size_t kKeepOpen = 12;

// long_session: requesters one after another, each cleaning its own
// entropy session until the next round's answers would join more than
// `component_limit` objects into one joint component.
void DriveLongSession(Run& run) {
  Client& c = *run.client;
  const double t0 = NowS();
  while (NowS() - t0 < run.seconds || NeedSamples(run)) {
    const int r = run.requesters_started++;
    const double start = NowS();
    Session s = OpenSession(run, "", core::SemanticsId::kEntropy,
                            run.seed * 1000 + static_cast<uint64_t>(r) + 1);
    ReadPrior(run, s);
    while (AnswerRound(run, s, true)) {
      const std::vector<double>& posts = c.ops[kPost].ms;
      std::fprintf(stderr, "long_session: session %s round %d component %g "
                           "quality_ms %.3f quality %.6g post_ms %.3f %.3f %.3f %.3f\n",
                   s.id.c_str(), s.rounds, MaxComponent(s.applied),
                   c.ops[kQual].ms.back(), s.quality.back(), posts[posts.size() - 4],
                   posts[posts.size() - 3], posts[posts.size() - 2], posts.back());
    }
    run.unit_rates.push_back(s.rounds / (NowS() - start));
    run.sessions.push_back(std::move(s));
    // The last few sessions stay open for the recovery check; older ones
    // are closed, so the session table never fills.
    Session& old = run.sessions[run.sessions.size() - 1 - std::min<size_t>(
                                    run.sessions.size() - 1, kKeepOpen)];
    if (old.open && run.sessions.size() > kKeepOpen) {
      if (!c.Call(Req(serve::Op::kClose, old.id)).status.ok()) Fail(Where(old) + ": close failed");
      old.open = false;
    }
    SampleSpawns(run, t0);
  }
  run.measured_s = NowS() - t0;
}

// objectives: a generation of expected_rank and ukranks sessions open at
// once, driven round-robin until each has run its rounds (or reached the
// component limit), then closed; the last generation stays open for the
// recovery check.
void DriveObjectives(Run& run) {
  const double t0 = NowS();
  std::vector<Session> generation;
  while (NowS() - t0 < run.seconds || NeedSamples(run)) {
    if (!generation.empty()) SampleSpawns(run, t0);
    for (Session& s : generation) {
      if (run.client->Call(Req(serve::Op::kClose, s.id)).status.ok()) {
        s.open = false;
      } else {
        Fail(Where(s) + ": close failed");
      }
      run.sessions.push_back(std::move(s));
    }
    generation.clear();
    const double start = NowS();
    const int64_t rounds_before = run.rounds;
    for (int i = 0; i < run.spec.requesters; ++i) {
      const bool er = i % 3 == 0;
      const int r = run.requesters_started++;
      generation.push_back(OpenSession(
          run, er ? "expected_rank" : "ukranks",
          er ? core::SemanticsId::kExpectedRank : core::SemanticsId::kUKRanks,
          run.seed * 1000 + static_cast<uint64_t>(r) + 1));
      Session& s = generation.back();
      ReadPrior(run, s);
      // The exact top-k distribution is read once per generation, before
      // any answer: at this catalog size a conditioned one costs seconds.
      if (i == 0) {
        CheckDistribution(s, run.client->Call(Req(serve::Op::kDistribution, s.id)),
                          1e-9);
      }
    }
    std::vector<bool> done(generation.size(), false);
    for (bool any = true; any;) {
      any = false;
      for (size_t i = 0; i < generation.size(); ++i) {
        if (done[i]) continue;
        done[i] = !AnswerRound(run, generation[i], false);
        any = any || !done[i];
      }
    }
    run.unit_rates.push_back((run.rounds - rounds_before) / (NowS() - start));
  }
  for (Session& s : generation) run.sessions.push_back(std::move(s));
  run.measured_s = NowS() - t0;
}

// serve_mix: `requesters` clients in flight at once over the one pipe, each
// running short sessions (create, rounds, close) under the three
// objectives in turn. Answers are pipelined one per frame; quality and
// distribution are pipelined together. Responses arrive in request order.
void DriveServeMix(Run& run) {
  Client& c = *run.client;
  struct Requester {
    enum class Phase { kCreate, kPairs, kPosts, kReads, kClose, kDone };
    Phase phase = Phase::kCreate;
    int waiting = 0;  // responses outstanding
    Session s;
    std::vector<Answer> posted;
    double q = 0, h = 0;
    int semantics_turn = 0;
    double next_round = 0;  // pacing: earliest start of the next round
    bool parked = false;
  };
  static const char* kNames[] = {"", "expected_rank", "ukranks"};
  static const core::SemanticsId kIds[] = {core::SemanticsId::kEntropy,
                                           core::SemanticsId::kExpectedRank,
                                           core::SemanticsId::kUKRanks};
  std::vector<Requester> reqs(run.spec.requesters);
  for (size_t i = 0; i < reqs.size(); ++i) reqs[i].semantics_turn = static_cast<int>(i % 3);
  const double t0 = NowS();
  // Which requester each outstanding frame belongs to, in send order.
  std::deque<std::pair<int, int>> owners;  // (requester, op)
  bool stopping = false;

  auto send = [&](int who, serve::Request r) {
    owners.emplace_back(who, OpIndexOf(r.op));
    ++reqs[who].waiting;
    c.Send(std::move(r));
  };
  // Issues the requester's next step (all frames of one step at once).
  auto advance = [&](int who) {
    Requester& q = reqs[who];
    switch (q.phase) {
      case Requester::Phase::kCreate: {
        if (stopping) {
          q.phase = Requester::Phase::kDone;
          return;
        }
        const int turn = q.semantics_turn;
        q.s = Session();
        q.s.semantics = kIds[turn];
        q.s.world = SampleWorld(run.db, run.seed * 100000 +
                                            static_cast<uint64_t>(run.requesters_started++) + 1);
        serve::Request create = Req(serve::Op::kCreateSession);
        create.semantics = kNames[turn];
        send(who, create);
        return;
      }
      case Requester::Phase::kPairs: {
        const double now = NowS();
        if (now < q.next_round) {
          q.parked = true;
          return;
        }
        q.next_round = now + run.spec.round_period_ms / 1e3;
        serve::Request next = Req(serve::Op::kNextPairs, q.s.id);
        next.count = run.spec.pairs_per_round;
        send(who, next);
        return;
      }
      case Requester::Phase::kPosts:
        for (const Answer& a : q.posted) {
          serve::Request post = Req(serve::Op::kPostAnswers, q.s.id);
          post.answers = {a};
          send(who, post);
        }
        return;
      case Requester::Phase::kReads:
        send(who, Req(serve::Op::kQuality, q.s.id));
        send(who, Req(serve::Op::kDistribution, q.s.id));
        return;
      case Requester::Phase::kClose:
        send(who, Req(serve::Op::kClose, q.s.id));
        return;
      case Requester::Phase::kDone:
        return;
    }
  };
  // Consumes one response for requester `who`; moves the phase on when
  // the step's last response is in.
  auto consume = [&](int who, int op, const serve::Response& r) {
    Requester& q = reqs[who];
    --q.waiting;
    switch (op) {
      case kCreate: {
        const auto* created = std::get_if<serve::Response::Created>(&r.payload);
        if (!r.status.ok() || created == nullptr) {
          Client::Fatal("create_session failed: " + r.status.ToString());
        }
        q.s.id = created->session;
        q.s.open = true;
        q.phase = Requester::Phase::kPairs;
        break;
      }
      case kNext: {
        q.posted.clear();
        for (const Answer& p : CheckPairs(run, q.s, r, run.spec.pairs_per_round)) {
          q.posted.push_back(TruthfulAnswer(q.s.world, p.first, p.second));
        }
        q.phase = Requester::Phase::kPosts;
        break;
      }
      case kPost: {
        const size_t index = q.posted.size() - 1 - static_cast<size_t>(q.waiting);
        CheckPost(q.s, q.posted[index], r);
        if (q.waiting == 0) q.phase = Requester::Phase::kReads;
        break;
      }
      case kQual:
        q.q = CheckQuality(q.s, r);
        break;
      case kDist: {
        if (!stopping && NowS() - t0 >= run.seconds && !NeedSamples(run)) stopping = true;
        q.h = CheckDistribution(q.s, r, 1e-9);
        if (q.s.semantics == core::SemanticsId::kEntropy && q.q != q.h) {
          Fail(Where(q.s) + ": quality differs from the distribution's entropy");
        }
        q.s.quality.push_back(q.q);
        q.s.entropy.push_back(q.h);
        q.s.answers_at.push_back(q.s.applied.size());
        ++q.s.rounds;
        ++run.rounds;
        if (q.s.rounds < run.spec.rounds_per_session) {
          q.phase = Requester::Phase::kPairs;
        } else if (stopping) {
          // The run is over: the last sessions stay open for the
          // recovery check.
          run.sessions.push_back(std::move(q.s));
          q.phase = Requester::Phase::kDone;
        } else {
          q.phase = Requester::Phase::kClose;
        }
        break;
      }
      case kClose:
        if (!r.status.ok()) Fail(Where(q.s) + ": close failed");
        q.s.open = false;
        run.sessions.push_back(std::move(q.s));
        q.semantics_turn = (q.semantics_turn + 1) % 3;
        q.phase = Requester::Phase::kCreate;
        break;
      default:
        break;
    }
  };

  for (size_t i = 0; i < reqs.size(); ++i) advance(static_cast<int>(i));
  for (;;) {
    double earliest = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < reqs.size(); ++i) {
      if (!reqs[i].parked) continue;
      if (NowS() >= reqs[i].next_round) {
        reqs[i].parked = false;
        advance(static_cast<int>(i));
      } else {
        earliest = std::min(earliest, reqs[i].next_round);
      }
    }
    if (owners.empty()) {
      if (std::isinf(earliest)) break;
      std::this_thread::sleep_for(std::chrono::duration<double>(earliest - NowS()));
      continue;
    }
    if (!std::isinf(earliest) && !c.ResponseReady(earliest - NowS())) continue;
    const auto [who, op] = owners.front();
    owners.pop_front();
    const serve::Response r = c.Receive();
    consume(who, op, r);
    if (reqs[who].waiting == 0) advance(who);
  }
  run.measured_s = NowS() - t0;
  // Paced, the rate is capped by the schedule, so no burst can move it far.
  run.unit_rates.push_back(static_cast<double>(run.rounds) / run.measured_s);
  // The prior is the catalog's, read once per objective after the fact on
  // a throwaway session each (outside the measured window).
  for (int turn = 0; turn < 3; ++turn) {
    serve::Request create = Req(serve::Op::kCreateSession);
    create.semantics = kNames[turn];
    const serve::Response r = c.Call(create);
    const auto* created = std::get_if<serve::Response::Created>(&r.payload);
    if (created == nullptr) Client::Fatal("create_session failed");
    Session probe;
    probe.id = created->session;
    const double prior = ReadPrior(run, probe);
    if (!c.Call(Req(serve::Op::kClose, probe.id)).status.ok()) {
      Fail("close failed");
    }
    for (Session& s : run.sessions) {
      if (s.semantics == kIds[turn]) s.prior = prior;
    }
  }
}

// ---------------------------------------------------------------------------
// Oracles: computations made apart from the server.

// long_session: the served quality equals the entropy of a fresh
// conditioned TopKEnumerator run on our own ConstraintSet of the answers
// acknowledged so far. Checked on the first and the last round of every
// session (the last is the most expensive read the session made).
void VerifyLongSession(Run& run) {
  const pw::TopKEnumerator enumerator(run.db);
  int checked = 0;
  for (const Session& s : run.sessions) {
    if (s.quality.empty()) continue;
    const std::set<size_t> rounds = {0, s.quality.size() - 1};
    for (size_t round : rounds) {
      pw::ConstraintSet cs;
      for (size_t i = 0; i < s.answers_at[round]; ++i) {
        cs.Add(s.applied[i].first, s.applied[i].second);
      }
      pw::TopKDistribution dist;
      const Status st = enumerator.Enumerate(run.spec.k, pw::OrderMode::kInsensitive,
                                             &cs, pw::EnumeratorOptions{}, &dist);
      if (!st.ok()) {
        Fail(Where(s) + ": oracle enumeration failed: " + st.ToString());
        continue;
      }
      const double expect = dist.Entropy();
      if (std::fabs(expect - s.quality[round]) > 1e-12) {
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      ": round %zu quality %.17g, oracle %.17g", round + 1,
                      s.quality[round], expect);
        Fail(Where(s) + buf);
      }
      ++checked;
    }
  }
  std::fprintf(stderr, "long_session: %d quality reads checked against a "
                       "fresh TopKEnumerator\n", checked);
}

// objectives: a from-scratch engine folded with the same answers, reading
// its quality at the same points the session did, reports bit-for-bit the
// same qualities (the determinism contract of the ranking semantics: a
// scratch rebuild equals the incremental history).
void VerifyObjectives(Run& run) {
  int checked = 0;
  for (const Session& s : run.sessions) {
    engine::RankingEngine::Options options;
    options.k = run.spec.k;
    options.semantics = s.semantics;
    engine::RankingEngine fresh(run.db, options);
    std::vector<double> served = {s.prior};
    served.insert(served.end(), s.quality.begin(), s.quality.end());
    size_t folded = 0;
    for (size_t read = 0; read < served.size(); ++read) {
      const size_t upto = read == 0 ? 0 : s.answers_at[read - 1];
      for (; folded < upto; ++folded) {
        const Answer& a = s.applied[folded];
        engine::RankingEngine::FoldOutcome outcome;
        if (!fresh.Fold(a.first, a.second, false, &outcome).ok() ||
            outcome != engine::RankingEngine::FoldOutcome::kApplied) {
          Fail(Where(s) + ": from-scratch engine rejected a served answer");
        }
      }
      const auto q = fresh.Quality();
      if (!q.ok() || !SameBits(*q, served[read])) {
        char buf[160];
        std::snprintf(buf, sizeof(buf), ": read %zu served quality %.17g, from scratch %.17g",
                      read, served[read], q.ok() ? *q : -1.0);
        Fail(Where(s) + buf);
      }
      ++checked;
    }
  }
  std::fprintf(stderr, "objectives: %d quality reads checked against a from-scratch "
                       "engine, bit for bit\n", checked);
}

// serve_mix: the final distribution entropy of sampled sessions matches
// pw::ExactEngine's conditioned distribution within 1e-9 (at the wire's
// precision).
void VerifyServeMix(Run& run) {
  const pw::ExactEngine exact(run.db);
  int checked = 0;
  // An even sample of at most 400 sessions, the open ones included.
  const size_t stride = run.sessions.size() / 400 + 1;
  for (size_t i = 0; i < run.sessions.size(); ++i) {
    const Session& s = run.sessions[i];
    if (s.entropy.empty() || (i % stride != 0 && !s.open)) continue;
    pw::ConstraintSet cs;
    for (const Answer& a : s.applied) cs.Add(a.first, a.second);
    pw::TopKDistribution dist;
    const Status st = exact.TopKDistributionOf(run.spec.k, pw::OrderMode::kInsensitive,
                                               &cs, &dist);
    if (!st.ok()) {
      Fail(Where(s) + ": ExactEngine failed: " + st.ToString());
      continue;
    }
    if (!AgreesOnWire(s.entropy.back(), dist.Entropy(), 1e-9)) {
      char buf[160];
      std::snprintf(buf, sizeof(buf), ": served entropy %.17g, ExactEngine %.17g",
                    s.entropy.back(), dist.Entropy());
      Fail(Where(s) + buf);
    }
    ++checked;
  }
  std::fprintf(stderr, "serve_mix: %d sessions checked against ExactEngine\n",
               checked);
}

}  // namespace

int SelfTest();

int main(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    if (key == "--self-test") return SelfTest();
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      std::fprintf(stderr, "ptk_loadgen: bad argument '%s'\n", argv[i]);
      return 2;
    }
    flags[key.substr(2)] = argv[++i];
  }
  for (const char* need : {"workload", "seed", "seconds", "server", "dir"}) {
    if (!flags.contains(need)) {
      std::fprintf(stderr, "ptk_loadgen: missing --%s\n", need);
      return 2;
    }
  }
  const std::optional<WorkloadSpec> spec = SpecFor(flags["workload"]);
  if (!spec.has_value()) {
    std::fprintf(stderr, "ptk_loadgen: unknown workload '%s'\n",
                 flags["workload"].c_str());
    return 2;
  }
  Run run;
  run.spec = *spec;
  run.seed = std::strtoull(flags["seed"].c_str(), nullptr, 10);
  run.seconds = std::atof(flags["seconds"].c_str());
  run.server_bin = flags["server"];
  run.dir = flags["dir"];
  run.csv = run.dir + "/catalog.csv";
  run.persist = run.dir + "/persist";
  run.log = run.dir + "/server.log";
  std::filesystem::create_directories(run.dir);
  std::filesystem::remove_all(run.persist);
  // The oracles work on the database the server loads: the catalog as
  // read back from its CSV (Database::Finalize renormalizes on every
  // load, so the in-memory catalog can differ from it in the last bits).
  if (!ptk::data::SaveCsv(MakeCatalog(run.spec), run.csv).ok()) {
    Client::Fatal("cannot write catalog");
  }
  {
    auto loaded = ptk::data::LoadCsv(run.csv);
    if (!loaded.ok()) Client::Fatal("cannot read catalog: " + loaded.status().ToString());
    run.db = *std::move(loaded);
  }

  // 1. The measured window, with the set-up and recovery samples.
  const serve::Codec& codec = serve::CodecFor(run.spec.wire);
  ServerProcess server;
  if (!server.Start(run.server_bin, ServerArgsFor(run.spec, run.csv, run.persist),
                    run.spec.ptk_threads, run.log)) {
    Client::Fatal("cannot start ptk_server");
  }
  Client client(&server, codec);
  run.client = &client;
  std::vector<StreamEvent> stream;
  if (flags.contains("record")) client.StartRecording(&stream);
  client.measuring = true;
  if (run.spec.name == "long_session") {
    DriveLongSession(run);
  } else if (run.spec.name == "objectives") {
    DriveObjectives(run);
  } else {
    DriveServeMix(run);
  }
  client.measuring = false;
  client.record = nullptr;
  SampleSpawns(run, 0.0, true);
  if (flags.contains("record") && !WriteStream(flags["record"], stream)) {
    Client::Fatal("cannot write the request stream");
  }

  // 2. State before the kill: every open session's quality, the server's
  // peak RSS, nothing shed, and the journal's size.
  std::vector<Session*> open;
  int64_t acked_open = 0;
  for (Session& s : run.sessions) {
    if (!s.open) continue;
    open.push_back(&s);
    acked_open += static_cast<int64_t>(s.applied.size());
  }
  if (open.empty()) Client::Fatal("no open session at the end of the run");
  std::map<std::string, double> before_kill;
  for (Session* s : open) {
    before_kill[s->id] = CheckQuality(*s, client.Call(Req(serve::Op::kQuality, s->id)));
  }
  {
    const serve::Response r = client.Call(Req(serve::Op::kMetrics));
    const auto* m = std::get_if<serve::Response::Metrics>(&r.payload);
    if (m == nullptr || m->shed != 0 || m->sessions_open != static_cast<int64_t>(open.size())) {
      Fail("metrics: requests shed or open-session count off");
    }
  }
  const int64_t rss_kb = server.PeakRssKb();
  const int64_t journal_bytes = DirectoryBytes(run.persist);

  // 3. SIGKILL, then `--recover` on the same journal, timed to the first
  // response like the samples taken in the window.
  server.Kill();
  {
    std::vector<std::string> args = ServerArgsFor(run.spec, run.csv, run.persist);
    args.push_back("--recover");
    const double t0 = NowS();
    if (!server.Start(run.server_bin, args, run.spec.ptk_threads, run.log)) {
      Client::Fatal("cannot restart ptk_server");
    }
    client.Reset(&server);
    if (!client.Call(Req(serve::Op::kMetrics)).status.ok()) Fail("metrics after --recover");
    run.recoveries.push_back(NowS() - t0);
  }
  for (Session* s : open) {
    const double q = CheckQuality(*s, client.Call(Req(serve::Op::kQuality, s->id)));
    if (!SameBits(q, before_kill[s->id])) {
      Fail(Where(*s) + ": quality changed across SIGKILL and --recover");
    }
    // Every acknowledged answer survived iff re-posting the last one (a
    // duplicate: it joins no new object) lands on version acked + 1.
    if (!s->applied.empty()) {
      const Answer last = s->applied.back();
      serve::Request post = Req(serve::Op::kPostAnswers, s->id);
      post.answers = {last};
      CheckPost(*s, last, client.Call(post));
    }
  }
  if (server.Finish() != 0) Fail("ptk_server did not exit cleanly");

  // 4. Oracles, outside every timed window.
  if (run.spec.name == "long_session") {
    VerifyLongSession(run);
  } else if (run.spec.name == "objectives") {
    VerifyObjectives(run);
  } else {
    VerifyServeMix(run);
  }

  // 5. Metrics.
  double auc_sum = 0.0;
  int auc_n = 0;
  for (const Session& s : run.sessions) {
    if (s.quality.empty() || s.prior <= 0.0) continue;
    double sum = 0.0;
    for (double q : s.quality) sum += q / s.prior;
    auc_sum += sum / static_cast<double>(s.quality.size());
    ++auc_n;
  }
  JsonObject metrics;
  metrics.Raw("setup_s", MetricJson(Summarize(run.setups).p50.value(), "s"));
  metrics.Raw("recover_s", MetricJson(Summarize(run.recoveries).p50.value(), "s"));
  metrics.Raw("rounds_per_s",
              MetricJson(Summarize(run.unit_rates).p50.value(), "1/s"));
  struct Want {
    int op;
    const char* name;
    bool p90;
  };
  for (const Want& w : {Want{kNext, "next_pairs", true}, Want{kPost, "post_answers", true},
                        Want{kQual, "quality", true}, Want{kDist, "distribution", false}}) {
    const Summary sum = Summarize(client.ops[w.op].ms);
    if (!sum.p50.has_value()) Client::Fatal(std::string("no samples of ") + w.name);
    metrics.Raw(std::string(w.name) + "_p50_ms", MetricJson(*sum.p50, "ms"));
    if (w.p90) {
      if (!sum.p90.has_value()) {
        Fail(std::string("fewer than 100 samples of ") + w.name + " (" +
             std::to_string(sum.n) + ")");
        metrics.Raw(std::string(w.name) + "_p90_ms", MetricJson(0.0, "ms"));
      } else {
        metrics.Raw(std::string(w.name) + "_p90_ms", MetricJson(*sum.p90, "ms"));
      }
    }
  }
  metrics.Raw("peak_rss_mb", MetricJson(static_cast<double>(rss_kb) / 1024.0, "MiB"));
  metrics.Raw("uncertainty_auc",
              MetricJson(auc_n > 0 ? auc_sum / auc_n : 0.0, "ratio"));
  metrics.Raw("journal_bytes_per_answer",
              MetricJson(acked_open > 0 ? static_cast<double>(journal_bytes) /
                                              static_cast<double>(acked_open)
                                        : 0.0,
                         "B"));

  int64_t attempted = 0, failed = 0;
  JsonObject ops;
  for (int op = 0; op < kNumOps; ++op) {
    attempted += client.ops[op].attempted;
    failed += client.ops[op].failed;
    ops.Raw(OpLabel(op), JsonObject()
                             .Int("attempted", client.ops[op].attempted)
                             .Int("failed", client.ops[op].failed)
                             .Int("samples", static_cast<int64_t>(client.ops[op].ms.size()))
                             .Render());
  }
  std::string errors = "[";
  for (size_t i = 0; i < g_errors.size(); ++i) {
    if (i > 0) errors += ", ";
    errors += JsonObject().Str("e", g_errors[i]).Render();
  }
  errors += "]";
  std::printf("%s\n", JsonObject()
                          .Bool("correct", g_error_count == 0)
                          .Int("attempted", attempted)
                          .Int("failed", failed)
                          .Raw("ops", ops.Render())
                          .Int("rounds", run.rounds)
                          .Int("sessions", static_cast<int64_t>(run.sessions.size()))
                          .Num("measured_s", run.measured_s)
                          .Raw("errors", errors)
                          .Raw("metrics", metrics.Render())
                          .Render()
                          .c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// --self-test: the percentile rule, and the workloads' oracles against
// pw::ExactEngine on a tiny catalog.

int SelfTest() {
  int failures = 0;
  auto expect = [&](bool ok, const char* what) {
    if (!ok) {
      ++failures;
      std::fprintf(stderr, "self-test FAILED: %s\n", what);
    }
  };
  auto samples = [](int n) {
    std::vector<double> v;
    for (int i = 0; i < n; ++i) v.push_back(static_cast<double>((i * 37) % n));
    return v;
  };
  // Percentile rule.
  expect(!Summarize({}).p50.has_value(), "no median without samples");
  {
    const Summary s = Summarize(samples(39));
    expect(s.p50.has_value() && !s.p25.has_value() && !s.p90.has_value(),
           "below 40 samples: median only");
  }
  {
    const Summary s = Summarize(samples(40));
    expect(s.p50.has_value() && s.p25.has_value() && !s.p90.has_value(),
           "40 samples: quartiles, no p90");
  }
  {
    const Summary s = Summarize(samples(99));
    expect(!s.p90.has_value(), "99 samples: no p90");
  }
  {
    const Summary s = Summarize(samples(100));
    expect(s.p90.has_value() && std::fabs(*s.p90 - 89.1) < 1e-9 &&
               std::fabs(*s.p50 - 49.5) < 1e-9,
           "100 samples: p50 49.5, p90 89.1 (linear interpolation)");
  }
  {
    // 300 samples in three blocks; a burst in the last block does not
    // move the p90 (median of the blocks' p90s).
    std::vector<double> v;
    for (int b = 0; b < 3; ++b) {
      for (int i = 0; i < 100; ++i) v.push_back(b == 2 && i >= 50 ? 1000.0 : i);
    }
    const Summary s = Summarize(v);
    expect(s.p90.has_value() && std::fabs(*s.p90 - 89.1) < 1e-9,
           "p90: median of per-block p90s");
  }
  // Oracles on a tiny catalog that ExactEngine enumerates.
  WorkloadSpec tiny = *SpecFor("serve_mix");
  tiny.objects = 7;
  tiny.k = 2;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    tiny.catalog_seed = seed;
    const model::Database db = MakeCatalog(tiny);
    const pw::ExactEngine exact(db);
    const pw::TopKEnumerator enumerator(db);
    const std::vector<model::Position> world = SampleWorld(db, seed);
    pw::ConstraintSet cs;
    engine::RankingEngine::Options er;
    er.k = tiny.k;
    engine::RankingEngine fresh(db, er);
    for (model::ObjectId a = 0; a + 1 < db.num_objects(); a += 2) {
      const Answer ans = TruthfulAnswer(world, a, a + 1);
      cs.Add(ans.first, ans.second);
      engine::RankingEngine::FoldOutcome outcome;
      expect(fresh.Fold(ans.first, ans.second, false, &outcome).ok() &&
                 outcome == engine::RankingEngine::FoldOutcome::kApplied,
             "truthful answers from a sampled world are never rejected");
      pw::TopKDistribution want, got;
      expect(exact.TopKDistributionOf(tiny.k, pw::OrderMode::kInsensitive, &cs, &want).ok(),
             "ExactEngine conditions on truthful answers");
      expect(enumerator.Enumerate(tiny.k, pw::OrderMode::kInsensitive, &cs,
                                  pw::EnumeratorOptions{}, &got).ok(),
             "TopKEnumerator conditions on truthful answers");
      expect(std::fabs(want.Entropy() - got.Entropy()) <= 1e-12,
             "long_session oracle (fresh TopKEnumerator) agrees with ExactEngine");
      const auto q = fresh.Quality();
      expect(q.ok() && std::fabs(*q - want.Entropy()) <= 1e-12,
             "objectives oracle (from-scratch engine) agrees with ExactEngine");
      expect(AgreesOnWire(std::strtod(std::to_string(want.Entropy()).c_str(), nullptr),
                          want.Entropy(), 1e-6) &&
                 !AgreesOnWire(want.Entropy() + 1e-6, want.Entropy(), 1e-9),
             "serve_mix oracle compares at the wire's precision");
      double mass = want.lost_mass();
      for (const auto& [key, p] : want.entries()) mass += p;
      expect(std::fabs(mass - 1.0) <= 1e-9, "masses plus lost mass sum to 1");
    }
  }
  std::printf("self-test: %s\n", failures == 0 ? "ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}
