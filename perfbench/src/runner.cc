#include "runner.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <map>
#include <memory>
#include <thread>

#include "analysis/fleet_analysis.h"
#include "analysis/query_analysis.h"
#include "core/interner.h"
#include "engine/engine.h"
#include "parser/analyzer.h"
#include "storage/recovery.h"
#include "storage/replayer.h"

namespace saql::perfbench {

namespace {

/// Closed-loop batch: the engine's own default pull size.
constexpr size_t kClosedBatch = 1024;
/// Open-loop batches span this much schedule time.
constexpr double kOpenBatchSeconds = 0.0005;
/// Alert latency is reported only for runs with at least this many alerts.
constexpr size_t kMinAlertsForLatency = 1000;
/// Adds the event-less set-ups perform at least, so `add_query_p99_ms`
/// has `Summary::kMinBeyond` samples beyond it on every workload. The
/// set-ups run in slices spread over the run.
constexpr size_t kSetupAdds = 3000;
constexpr size_t kSetupMinReps = 40;
/// Record + replay passes in a traced run of a `trace_storage` workload.
constexpr int kStoragePasses = 3;

PushObserver& FirstPushObserver() {
  static PushObserver observer;
  return observer;
}

/// Failure accounting: every session call and every output check is one
/// attempted operation.
struct Ops {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;

  bool Call(const Status& st, const char* what) {
    ++attempted;
    if (st.ok()) return true;
    Fail(std::string(what) + ": " + st.ToString());
    return false;
  }
  bool Check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) Fail("check failed: " + what);
    return ok;
  }
  void Fail(std::string msg) {
    ++failed;
    if (failures.size() < 20) failures.push_back(std::move(msg));
  }
};

/// Starts the process-wide interner from an empty table, as a freshly
/// started collector process would. No engine may be alive.
void ColdInterner() {
  Interner& interner = Interner::Global();
  interner.Rotate();
  interner.ReclaimBefore(interner.generation());
}

using StepRanges = std::map<std::string, std::pair<Timestamp, Timestamp>>;

struct AlertLog {
  AlertDigest digest;
  bool timed = false;
  std::vector<std::pair<int64_t, Timestamp>> times;  ///< (wall ns, alert ts)
  /// Attack-step queries: alerts inside / outside their step's range.
  std::map<std::string, std::pair<uint64_t, uint64_t>> step_hits;
};

enum class Loop { kClosed, kOpen };

struct PassSpec {
  Loop loop = Loop::kClosed;
  size_t lanes = 1;
  std::string record_path;    ///< empty = no recording
  Tracer* tracer = nullptr;   ///< non-null: traced pass
  bool sample_rss = false;
  bool cold_interner = true;  ///< false: keep the caller's stamped events
  bool churn = true;
  const std::vector<QuerySpec>* queries = nullptr;  ///< default: w.initial
  int32_t run = 0;
};

struct PassResult {
  uint64_t events = 0;
  double setup_s = 0;
  double wall_s = 0;  ///< first Push .. Close return, churn excluded
  double rss_mb = 0;
  AlertLog alerts;
  std::vector<double> add_ms;
  std::vector<double> batch_latency_ms;
  std::vector<double> alert_latency_ms;
  size_t alerts_at_close = 0;  ///< open loop: no later input event
  double gen_lag_ms_max = 0;
  size_t backlog_max = 0;
  ExecutorStats exec;
  std::vector<std::pair<std::string, CompiledQuery::QueryStats>> query_stats;
  size_t groups = 0;
  size_t indexed_groups = 0;
  uint64_t unsynced_max = 0;
};

struct Live {
  std::unique_ptr<SaqlEngine> engine;
  std::unique_ptr<SaqlEngine::Session> session;
  std::vector<FleetAnalysis::Member> fleet;  ///< traced: registered so far
};

/// Attaches `q`. A traced add first times the stages `AddQuery` runs
/// internally — compile, lint, fleet check — by calling them directly, so
/// the attach share is the `engine.add` span minus those three.
bool AddQuery(Live* live, const QuerySpec& q, Tracer* tr, Ops* ops,
              std::vector<double>* add_ms) {
  if (tr != nullptr) {
    AnalyzedQueryPtr aq;
    std::unique_ptr<CompiledQuery> cq;
    {
      Tracer::Scope span(tr, "parser.compile");
      Result<AnalyzedQueryPtr> parsed = CompileSaql(q.text);
      if (parsed.ok()) {
        aq = *parsed;
        Result<std::unique_ptr<CompiledQuery>> compiled =
            CompiledQuery::Create(aq, q.name);
        if (compiled.ok()) cq = std::move(*compiled);
      }
    }
    if (cq != nullptr) {
      {
        Tracer::Scope span(tr, "analysis.lint");
        std::vector<Diagnostic> findings = QueryAnalysis::Lint(*cq);
        (void)findings;
      }
      {
        Tracer::Scope span(tr, "analysis.fleet");
        std::vector<Diagnostic> findings =
            FleetAnalysis::CheckQuery(*aq, live->fleet);
        (void)findings;
      }
      live->fleet.push_back({q.name, aq});
    }
  }
  const int64_t t0 = NowNs();
  Status st;
  {
    Tracer::Scope span(tr, "engine.add");
    st = live->session->AddQuery(q.text, q.name).status();
  }
  add_ms->push_back(static_cast<double>(NowNs() - t0) / 1e6);
  return ops->Call(st, "AddQuery");
}

/// Set-up: engine construction until the session is open with its initial
/// queries attached (and, sharded, its lanes started).
bool OpenLive(const Workload& w, const PassSpec& spec,
              const StepRanges& steps, Ops* ops, PassResult* r, Live* live) {
  if (spec.cold_interner) ColdInterner();
  SessionOptions so;
  so.num_shards = spec.lanes;
  if (!spec.record_path.empty()) {
    so.record_path = spec.record_path;
    so.record_sync = SyncPolicy::GroupCommit();
    so.record_force = true;
  }
  AlertLog* log = &r->alerts;
  so.alert_sink = [log, &steps](const Alert& a) {
    log->digest.Add(a);
    if (log->timed) log->times.emplace_back(NowNs(), a.ts);
    if (!steps.empty()) {
      auto it = steps.find(a.query_name);
      if (it != steps.end()) {
        auto& hits = log->step_hits[a.query_name];
        bool inside = a.ts >= it->second.first && a.ts <= it->second.second;
        ++(inside ? hits.first : hits.second);
      }
    }
  };
  const int64_t t0 = NowNs();
  live->engine = std::make_unique<SaqlEngine>();
  Result<std::unique_ptr<SaqlEngine::Session>> session =
      live->engine->OpenSession(std::move(so));
  if (!ops->Call(session.status(), "OpenSession")) return false;
  live->session = std::move(*session);
  const auto& queries = spec.queries != nullptr ? *spec.queries : w.initial;
  bool ok = true;
  for (const QuerySpec& q : queries) {
    ok &= AddQuery(live, q, spec.tracer, ops, &r->add_ms);
  }
  r->setup_s = static_cast<double>(NowNs() - t0) / 1e9;
  return ok;
}

/// Batch start offsets (plus the end): fixed-size batches, cut at every
/// churn point so attaches land at the same stream position in every
/// loop.
std::vector<size_t> BatchStarts(size_t n, size_t batch,
                                const std::vector<ChurnStep>& churn) {
  std::vector<size_t> starts;
  size_t c = 0;
  for (size_t i = 0; i < n;) {
    starts.push_back(i);
    size_t end = std::min(n, i + batch);
    while (c < churn.size() && churn[c].at_event <= i) ++c;
    if (c < churn.size() && churn[c].at_event < end) end = churn[c].at_event;
    i = end;
  }
  starts.push_back(n);
  return starts;
}

void RemoveLogFiles(const std::string& path) {
  namespace fs = std::filesystem;
  std::error_code ec;
  const fs::path p(path);
  const std::string base = p.filename().string();
  for (const auto& entry : fs::directory_iterator(p.parent_path(), ec)) {
    if (entry.path().filename().string().rfind(base, 0) == 0) {
      fs::remove(entry.path(), ec);
    }
  }
}

/// Joins the open-loop generator on every exit path.
struct JoinOnExit {
  std::thread* t;
  ~JoinOnExit() {
    if (t->joinable()) t->join();
  }
};

/// One pass of the live stream through a fresh session.
PassResult DrivePass(const Workload& w, EventBatch& events,
                     const PassSpec& spec, const StepRanges& steps, Ops* ops) {
  PassResult r;
  r.alerts.timed = spec.loop == Loop::kOpen;
  Tracer* tr = spec.tracer;
  if (tr != nullptr) tr->SetRun(spec.run);
  size_t rss0 = 0;
  if (spec.sample_rss) {
    TrimHeap();
    rss0 = CurrentRssBytes();
  }
  size_t rss_peak = rss0;
  Live live;
  if (!OpenLive(w, spec, steps, ops, &r, &live)) return r;
  const size_t n = events.size();
  static const std::vector<ChurnStep> kNoChurn;
  const std::vector<ChurnStep>& churn = spec.churn ? w.churn : kNoChurn;
  const bool open = spec.loop == Loop::kOpen;
  const size_t batch =
      open ? std::max<size_t>(1, static_cast<size_t>(w.open_rate *
                                                     kOpenBatchSeconds))
           : kClosedBatch;
  const std::vector<size_t> starts = BatchStarts(n, batch, churn);
  const size_t nb = starts.size() - 1;

  // Open loop: event i is due at t0 + i / rate; a batch is released when
  // its last event is due, whatever the engine is doing.
  const double ns_per_event = open ? 1e9 / w.open_rate : 0;
  const int64_t t0 = NowNs() + 2'000'000;
  auto due = [&](size_t i) {
    return t0 + static_cast<int64_t>(static_cast<double>(i) * ns_per_event);
  };
  std::atomic<size_t> released{0};
  int64_t lag_max_ns = 0;
  std::thread generator;
  JoinOnExit join{&generator};
  if (open) {
    generator = std::thread([&] {
      for (size_t b = 0; b < nb; ++b) {
        const int64_t release = due(starts[b + 1] - 1);
        std::this_thread::sleep_for(std::chrono::nanoseconds(
            std::max<int64_t>(0, release - NowNs())));
        lag_max_ns = std::max(lag_max_ns, NowNs() - release);
        released.store(b + 1, std::memory_order_release);
        released.notify_one();
      }
    });
  }

  const bool recording = !spec.record_path.empty();
  const char* push_span = spec.lanes > 1 ? "stream.push"
                          : recording    ? "storage.record_push"
                                         : "engine.push";
  SaqlEngine::Session* s = live.session.get();
  size_t next_churn = 0;
  int64_t excluded_ns = 0;
  int64_t begin = 0;
  int64_t end = 0;
  {
    Tracer::Scope root(tr, recording ? "harness.record" : "harness.pass");
    begin = NowNs();
    for (size_t b = 0; b < nb; ++b) {
      const size_t i = starts[b];
      const size_t count = starts[b + 1] - i;
      if (open) {
        size_t seen = released.load(std::memory_order_acquire);
        while (seen <= b) {
          released.wait(seen, std::memory_order_acquire);
          seen = released.load(std::memory_order_acquire);
        }
        r.backlog_max = std::max(r.backlog_max, seen - b);
      }
      if (next_churn < churn.size() && churn[next_churn].at_event <= i) {
        const int64_t c0 = NowNs();
        for (; next_churn < churn.size() && churn[next_churn].at_event <= i;
             ++next_churn) {
          for (const std::string& name : churn[next_churn].remove) {
            Tracer::Scope span(tr, "engine.remove");
            ops->Call(s->RemoveQuery(name), "RemoveQuery");
          }
          for (const QuerySpec& q : churn[next_churn].add) {
            AddQuery(&live, q, tr, ops, &r.add_ms);
          }
        }
        excluded_ns += NowNs() - c0;
      }
      Event* rows = events.data() + i;
      if (b == 0 && FirstPushObserver()) FirstPushObserver()(rows, count);
      if (tr != nullptr) {
        Tracer::Scope span(tr, "core.intern");
        InternEventSpan(rows, count);
      }
      {
        Tracer::Scope span(tr, push_span);
        ops->Call(s->Push(rows, count), "Push");
      }
      {
        Tracer::Scope span(tr, "engine.watermark");
        ops->Call(s->AdvanceWatermark(s->max_event_ts()), "AdvanceWatermark");
      }
      if (open) {
        r.batch_latency_ms.push_back(static_cast<double>(NowNs() - due(i)) /
                                     1e6);
      }
      if (recording && tr != nullptr) {
        r.unsynced_max = std::max(r.unsynced_max,
                                  s->recorded_events() - s->durable_events());
      }
      if (spec.sample_rss && b % 16 == 0) {
        rss_peak = std::max(rss_peak, CurrentRssBytes());
      }
    }
    if (spec.lanes > 1) {
      Tracer::Scope span(tr, "stream.flush");
      ops->Call(s->Flush(), "Flush");
    }
    if (spec.sample_rss) rss_peak = std::max(rss_peak, CurrentRssBytes());
    {
      Tracer::Scope span(tr, recording ? "storage.close" : "engine.close");
      ops->Call(s->Close(), "Close");
    }
    end = NowNs();
  }
  if (generator.joinable()) generator.join();
  r.gen_lag_ms_max = static_cast<double>(lag_max_ns) / 1e6;
  r.events = n;
  r.wall_s = static_cast<double>(end - begin - excluded_ns) / 1e9;
  r.rss_mb = static_cast<double>(rss_peak - rss0) / (1024.0 * 1024.0);
  r.exec = live.engine->executor_stats();
  r.query_stats = live.engine->query_stats();
  r.groups = live.engine->num_groups();
  r.indexed_groups = live.engine->num_indexed_groups();
  if (open) {
    // Alert latency counts from the due time of the first input event at
    // or past the alert's event time: the event that completed the match
    // or closed the window.
    for (const auto& [wall, ts] : r.alerts.times) {
      auto it = std::lower_bound(
          events.begin(), events.end(), ts,
          [](const Event& e, Timestamp t) { return e.ts < t; });
      if (it == events.end()) {
        ++r.alerts_at_close;
        continue;
      }
      r.alert_latency_ms.push_back(
          static_cast<double>(wall - due(static_cast<size_t>(
                                         it - events.begin()))) /
          1e6);
    }
  }
  return r;
}

/// Replays a recorded log into a fresh direct session: `StreamReplayer`
/// blocks -> `Session::Push` -> `Close`. Traced storage passes only.
PassResult ReplayPass(const Workload& w, const std::string& path,
                      Tracer* tr, int32_t run, const StepRanges& steps,
                      Ops* ops) {
  PassResult r;
  PassSpec spec;
  spec.tracer = tr;
  spec.run = run;
  if (tr != nullptr) tr->SetRun(run);
  Live live;
  if (!OpenLive(w, spec, steps, ops, &r, &live)) return r;
  SaqlEngine::Session* s = live.session.get();
  int64_t begin = 0;
  int64_t end = 0;
  {
    Tracer::Scope root(tr, "harness.replay");
    begin = NowNs();
    StreamReplayer replayer(path, StreamReplayer::Filter{});
    if (ops->Call(replayer.status(), "StreamReplayer")) {
      for (;;) {
        EventBlock* block = nullptr;
        {
          Tracer::Scope span(tr, "storage.replay_read");
          block = replayer.NextBlock(kClosedBatch);
        }
        if (block == nullptr) break;
        if (block->empty()) continue;
        // `Session::Push(EventBlock&)` is `Push(block.MutableRows(), n)`;
        // the two calls are made here so row materialization gets a span.
        const size_t count = block->size();
        Event* rows = nullptr;
        {
          Tracer::Scope span(tr, "core.block_rows");
          rows = block->MutableRows();
        }
        {
          Tracer::Scope span(tr, "core.intern");
          InternEventSpan(rows, count);
        }
        {
          Tracer::Scope span(tr, "engine.push");
          ops->Call(s->Push(rows, count), "Push");
        }
        r.events += count;
        Tracer::Scope span(tr, "engine.watermark");
        ops->Call(s->AdvanceWatermark(s->max_event_ts()), "AdvanceWatermark");
      }
      ops->Call(replayer.status(), "StreamReplayer");
    }
    {
      Tracer::Scope span(tr, "engine.close");
      ops->Call(s->Close(), "Close");
    }
    end = NowNs();
  }
  r.wall_s = static_cast<double>(end - begin) / 1e9;
  return r;
}

StepRanges AttackStepRanges(const Workload& w) {
  StepRanges out;
  for (const auto& [query, step] : w.step_of_query) {
    for (const AptStep& s : w.attack_steps) {
      if (s.step == step && !s.events.empty()) {
        out[query] = {s.events.front().ts, s.events.back().ts};
      }
    }
  }
  return out;
}

/// The workload's output checks on one pass.
void CheckPass(const Workload& w, const PassResult& r,
               const AlertDigest& reference, const std::string& label,
               Ops* ops) {
  ops->Check(r.alerts.digest == reference,
             label + " alert digest " + r.alerts.digest.ToString() +
                 " equals the 1-lane direct session's " +
                 reference.ToString());
  for (const auto& [query, step] : w.step_of_query) {
    auto it = r.alerts.step_hits.find(query);
    const bool inside = it != r.alerts.step_hits.end() &&
                        it->second.first > 0 && it->second.second == 0;
    ops->Check(inside, label + " " + query + " alerts only inside attack step c" +
                           std::to_string(step));
  }
  if (w.expected_alerts >= 0) {
    ops->Check(static_cast<int64_t>(r.alerts.digest.count()) ==
                   w.expected_alerts,
               label + " tenant alerts " +
                   std::to_string(r.alerts.digest.count()) +
                   " equal the distinct subjects after each attach point (" +
                   std::to_string(w.expected_alerts) + ")");
  }
}

class Runner {
 public:
  Runner(const Workload& w, const RunConfig& config, Tracer* tracer)
      : w_(w), config_(config), tracer_(tracer), steps_(AttackStepRanges(w)) {}

  RunReport Run() {
    if (config_.trace) {
      RunTraced();
    } else {
      RunEndToEnd();
    }
    report_.attempted = ops_.attempted;
    report_.failed = ops_.failed;
    for (const std::string& f : ops_.failures) report_.notes.push_back(f);
    return std::move(report_);
  }

 private:
  /// Passes of one kind for a share of the run: a fixed count derived
  /// from `--seconds` and the workload's calibrated pass rate, so every
  /// run does the same work whatever the host's speed.
  int Passes(double per_second, double share, int at_least) const {
    return std::max(at_least, static_cast<int>(std::lround(
                                   config_.seconds * share * per_second)));
  }

  /// A fresh, never-pushed copy of the inputs: the copy happens before
  /// the timed region and leaves every `Event::syms` unstamped.
  EventBatch& Fresh() {
    working_ = w_.events;
    return working_;
  }

  std::string RecordPath() {
    return config_.scratch_dir + "/perfbench-" + std::to_string(getpid()) +
           "-" + std::to_string(record_seq_++) + ".saqllog";
  }

  PassSpec WorkloadSpec(Loop loop) {
    PassSpec spec;
    spec.loop = loop;
    spec.lanes = w_.lanes;
    return spec;
  }

  void Add(const std::string& name, double value, const std::string& unit,
           size_t samples = 0) {
    report_.metrics.push_back({name, value, unit, samples});
  }

  void Note(std::string line) { report_.notes.push_back(std::move(line)); }

  /// The reference alert multiset: a plain 1-lane direct session.
  PassResult Reference() {
    PassSpec spec;
    PassResult r = DrivePass(w_, Fresh(), spec, steps_, &ops_);
    reference_ = r.alerts.digest;
    CheckPass(w_, r, reference_, "reference", &ops_);
    return r;
  }

  /// Record pass, then replay of its log into a fresh session. Returns the
  /// replay pass; the record pass lands in `*recorded`.
  PassResult RecordAndReplay(const PassSpec& spec, PassResult* recorded,
                             bool recover) {
    *recorded = DrivePass(w_, Fresh(), spec, steps_, &ops_);
    CheckPass(w_, *recorded, reference_, "record", &ops_);
    bytes_per_event_ =
        static_cast<double>(LogBytes(spec.record_path)) /
        static_cast<double>(std::max<uint64_t>(1, recorded->events));
    PassResult replay =
        ReplayPass(w_, spec.record_path, spec.tracer, spec.run, steps_, &ops_);
    ops_.Check(replay.events == recorded->events,
               "replayed " + std::to_string(replay.events) +
                   " events, recorded " + std::to_string(recorded->events));
    CheckPass(w_, replay, recorded->alerts.digest, "replay", &ops_);
    if (recover) {
      Tracer::Scope span(spec.tracer, "storage.recover");
      Result<RecoveredLog> log = RecoverDurableLog(spec.record_path);
      if (ops_.Call(log.status(), "RecoverDurableLog")) {
        ops_.Check(log->events.size() == recorded->events,
                   "recovered " + std::to_string(log->events.size()) +
                       " events");
      }
    }
    RemoveLogFiles(spec.record_path);
    return replay;
  }

  static uint64_t LogBytes(const std::string& path) {
    std::error_code ec;
    uint64_t size = std::filesystem::file_size(path, ec);
    return ec ? 0 : size;
  }

  /// Set-ups with no events, `reps` of them: the `setup_s` median and
  /// enough `AddQuery` samples for a p99 on every workload.
  void Setups(size_t reps) {
    for (size_t k = 0; k < reps; ++k) {
      PassSpec spec = WorkloadSpec(Loop::kClosed);
      PassResult r;
      {
        Live live;
        if (OpenLive(w_, spec, steps_, &ops_, &r, &live)) {
          ops_.Call(live.session->Close(), "Close");
        }
      }
      Collect(r);
    }
  }

  void Collect(const PassResult& r) {
    setup_s_.push_back(r.setup_s);
    add_ms_.insert(add_ms_.end(), r.add_ms.begin(), r.add_ms.end());
  }

  /// The end-to-end run: closed passes with the set-ups spread between
  /// them, and the open passes spread evenly among those.
  void RunEndToEnd() {
    // A workload whose own session is the plain direct one is its own
    // reference; the others get a separate direct pass.
    const bool self_reference = w_.lanes == 1;
    if (!self_reference) Reference();
    const int n_closed = Passes(w_.closed_per_s, 1.0, 3);
    const int n_open = Passes(w_.open_per_s, 1.0, 1);
    const size_t per = std::max<size_t>(1, w_.initial.size());
    size_t setups_left =
        std::max(kSetupMinReps, (kSetupAdds + per - 1) / per);
    const size_t setup_slice =
        (setups_left + static_cast<size_t>(n_closed) - 1) /
        static_cast<size_t>(n_closed);

    double closed_events = 0, closed_wall = 0;
    std::vector<double> eps, rss, ingest_p50, ingest_p99, alert;
    size_t at_close = 0;
    int opens_done = 0;
    for (int k = 0; k < n_closed; ++k) {
      const size_t n_setups = std::min(setups_left, setup_slice);
      Setups(n_setups);
      setups_left -= n_setups;

      PassSpec closed = WorkloadSpec(Loop::kClosed);
      closed.sample_rss = true;
      PassResult r = DrivePass(w_, Fresh(), closed, steps_, &ops_);
      if (k == 0 && self_reference) reference_ = r.alerts.digest;
      CheckPass(w_, r, reference_, "closed", &ops_);
      Collect(r);
      closed_events += static_cast<double>(r.events);
      closed_wall += r.wall_s;
      eps.push_back(static_cast<double>(r.events) / r.wall_s);
      rss.push_back(r.rss_mb);
      Note("closed pass " + std::to_string(k) + ": " +
           std::to_string(static_cast<int64_t>(eps.back())) + " events/s");

      for (; opens_done * n_closed < (k + 1) * n_open; ++opens_done) {
        PassSpec open = WorkloadSpec(Loop::kOpen);
        PassResult o = DrivePass(w_, Fresh(), open, steps_, &ops_);
        CheckPass(w_, o, reference_, "open", &ops_);
        Collect(o);
        Summary in = Summarize(o.batch_latency_ms);
        if (in.p50) ingest_p50.push_back(*in.p50);
        if (in.p99) ingest_p99.push_back(*in.p99);
        alert.insert(alert.end(), o.alert_latency_ms.begin(),
                     o.alert_latency_ms.end());
        at_close += o.alerts_at_close;
        lag_max_ms_ = std::max(lag_max_ms_, o.gen_lag_ms_max);
        backlog_max_ = std::max(backlog_max_, o.backlog_max);
        char line[200];
        std::snprintf(line, sizeof(line),
                      "open pass %d: %zu batches, ingest p50 %.3f p99 %.3f "
                      "max %.3f ms, lag max %.3f ms, backlog max %zu",
                      opens_done, in.count, in.p50.value_or(0),
                      in.p99.value_or(0), in.max, o.gen_lag_ms_max,
                      o.backlog_max);
        Note(line);
      }
    }
    Setups(setups_left);

    Add("events_per_s", closed_events / closed_wall, "events/s", eps.size());
    Add("ingest_latency_p50_ms", Median(ingest_p50), "ms", ingest_p50.size());
    Add("ingest_latency_p99_ms", Median(ingest_p99), "ms", ingest_p99.size());
    Summary al = Summarize(alert);
    if (al.count >= kMinAlertsForLatency) {
      if (al.p50) Add("alert_latency_p50_ms", *al.p50, "ms", al.count);
      if (al.p99) Add("alert_latency_p99_ms", *al.p99, "ms", al.count);
    } else {
      Note("alert latency not reported: " + std::to_string(al.count) +
           " timed alerts (" + std::to_string(at_close) +
           " flushed at close) < " + std::to_string(kMinAlertsForLatency));
    }
    Summary add = Summarize(add_ms_);
    if (add.p50) Add("add_query_p50_ms", *add.p50, "ms", add.count);
    if (add.p99) Add("add_query_p99_ms", *add.p99, "ms", add.count);
    Add("setup_s", Median(setup_s_), "s", setup_s_.size());
    Add("engine_rss_mb", Median(rss), "MB", rss.size());
    Add("error_rate",
        static_cast<double>(ops_.failed) /
            static_cast<double>(std::max<uint64_t>(1, ops_.attempted)),
        "ratio", ops_.attempted);
    Note("open loop at " + std::to_string(static_cast<int64_t>(w_.open_rate)) +
         " events/s: generator lag max " + std::to_string(lag_max_ms_) +
         " ms, backlog max " + std::to_string(backlog_max_) + " batches");
  }

  void RunTraced();

  const Workload& w_;
  const RunConfig& config_;
  Tracer* tracer_;
  StepRanges steps_;
  Ops ops_;
  RunReport report_;
  EventBatch working_;
  AlertDigest reference_;
  int record_seq_ = 0;
  double bytes_per_event_ = 0;
  std::vector<double> setup_s_;
  std::vector<double> add_ms_;
  double lag_max_ms_ = 0;
  size_t backlog_max_ = 0;
};

/// Median over runs of the per-run self time of each span name.
std::map<std::string, double> MedianSelfMs(
    const std::map<int32_t, std::map<std::string, double>>& by_run,
    const std::vector<int32_t>& runs) {
  std::map<std::string, std::vector<double>> values;
  for (int32_t run : runs) {
    auto it = by_run.find(run);
    if (it == by_run.end()) continue;
    for (const auto& [name, ms] : it->second) values[name].push_back(ms);
  }
  std::map<std::string, double> out;
  for (auto& [name, v] : values) {
    // A span absent from some runs counts 0 there.
    v.resize(runs.size(), 0.0);
    out[name] = Median(v);
  }
  return out;
}

void Runner::RunTraced() {
  // Untraced baselines first: the reference digest, the direct
  // (single-thread) throughput and the untraced closed loop.
  PassResult ref = Reference();
  const double direct_eps = static_cast<double>(ref.events) / ref.wall_s;
  // Untraced and traced closed passes alternate, so both see the same
  // stretch of host load and their ratio is the tracing overhead. Run ids:
  // 1.. the workload's traced passes, 1000.. traced direct passes, 2000..
  // storage.
  std::vector<double> untraced_eps, traced_eps;
  std::vector<int32_t> runs, direct_runs, storage_runs;
  PassResult last;
  for (int k = 0, n = Passes(w_.closed_per_s, 0.3, 2); k < n; ++k) {
    PassResult r = DrivePass(w_, Fresh(), WorkloadSpec(Loop::kClosed),
                             steps_, &ops_);
    CheckPass(w_, r, reference_, "closed", &ops_);
    untraced_eps.push_back(static_cast<double>(r.events) / r.wall_s);

    PassSpec spec = WorkloadSpec(Loop::kClosed);
    spec.tracer = tracer_;
    spec.run = static_cast<int32_t>(k + 1);
    runs.push_back(spec.run);
    last = DrivePass(w_, Fresh(), spec, steps_, &ops_);
    CheckPass(w_, last, reference_, "traced", &ops_);
    traced_eps.push_back(static_cast<double>(last.events) / last.wall_s);
  }
  // Sharded workloads: the same job on a traced direct session gives the
  // engine's own push cost without the lane pipeline.
  if (w_.lanes > 1) {
    for (int k = 0, n = Passes(w_.closed_per_s, 0.1, 1); k < n; ++k) {
      PassSpec spec;
      spec.tracer = tracer_;
      spec.run = static_cast<int32_t>(1000 + k);
      direct_runs.push_back(spec.run);
      PassResult r = DrivePass(w_, Fresh(), spec, steps_, &ops_);
      CheckPass(w_, r, reference_, "traced-direct", &ops_);
    }
  }
  // Storage: the stream recorded under group commit, the log replayed into
  // a fresh session and, once, recovered.
  std::vector<double> record_eps, replay_eps;
  uint64_t unsynced_max = 0;
  if (w_.trace_storage) {
    for (int k = 0; k < kStoragePasses; ++k) {
      PassSpec spec;
      spec.record_path = RecordPath();
      spec.tracer = tracer_;
      spec.run = static_cast<int32_t>(2000 + k);
      storage_runs.push_back(spec.run);
      PassResult recorded;
      PassResult replay = RecordAndReplay(spec, &recorded, /*recover=*/k == 0);
      record_eps.push_back(static_cast<double>(recorded.events) /
                           recorded.wall_s);
      replay_eps.push_back(static_cast<double>(replay.events) /
                           replay.wall_s);
      unsynced_max = std::max(unsynced_max, recorded.unsynced_max);
    }
  }

  // Open loop, untraced: how late the generator ran and the backlog.
  {
    PassResult r =
        DrivePass(w_, Fresh(), WorkloadSpec(Loop::kOpen), steps_, &ops_);
    CheckPass(w_, r, reference_, "open", &ops_);
    lag_max_ms_ = r.gen_lag_ms_max;
    backlog_max_ = r.backlog_max;
  }

  // Per-model cost: each corpus query alone in its own session over the
  // stream, minus a session with no queries. The stream is interned once
  // up front so every session pays the same (zero) interning.
  std::map<ModelKind, double> model_ms;
  if (!w_.model_of_query.empty()) {
    ColdInterner();
    EventBatch& stamped = Fresh();
    InternEventSpan(stamped.data(), stamped.size());
    auto timed = [&](const std::vector<QuerySpec>& queries) {
      double best = 0;
      for (int k = 0; k < 2; ++k) {
        PassSpec spec;
        spec.cold_interner = false;
        spec.churn = false;
        spec.queries = &queries;
        PassResult r = DrivePass(w_, stamped, spec, steps_, &ops_);
        best = k == 0 ? r.wall_s : std::min(best, r.wall_s);
      }
      return best * 1e3;
    };
    const double empty_ms = timed({});
    for (const QuerySpec& q : w_.initial) {
      model_ms[w_.model_of_query.at(q.name)] += timed({q}) - empty_ms;
    }
  }

  // Per-layer metrics from the spans.
  auto by_run = tracer_->SelfMsByRun();
  std::map<std::string, double> self = MedianSelfMs(by_run, runs);
  std::map<std::string, double> direct = MedianSelfMs(by_run, direct_runs);
  std::map<std::string, double> storage = MedianSelfMs(by_run, storage_runs);
  auto get = [](const std::map<std::string, double>& m, const char* span) {
    auto it = m.find(span);
    return it == m.end() ? 0.0 : it->second;
  };
  auto ms = [&](const char* span) { return get(self, span); };
  // Traced wall time of a workload pass (its root span) and of recovery.
  std::vector<double> traced_wall_ms, recover_ms;
  for (const Span& s : tracer_->spans()) {
    const double dur = static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    const std::string name = s.name;
    if (name == "harness.pass" && s.run >= 1 && s.run < 1000) {
      traced_wall_ms.push_back(dur);
    } else if (name == "storage.recover") {
      recover_ms.push_back(dur);
    }
  }
  const double events = static_cast<double>(w_.events.size());

  Add("core.intern_ms", ms("core.intern"), "ms", runs.size());
  Add("core.intern_ns_per_event", ms("core.intern") * 1e6 / events, "ns",
      runs.size());
  Interner::Stats is = Interner::Global().stats();
  Add("core.interner_entries", static_cast<double>(is.entries), "count");
  Add("core.interner_bytes", static_cast<double>(is.bytes), "bytes");
  Add("core.block_rows_ms", get(storage, "core.block_rows"), "ms",
      storage_runs.size());
  Add("parser.compile_ms", ms("parser.compile"), "ms", runs.size());
  Add("analysis.lint_ms", ms("analysis.lint"), "ms", runs.size());
  Add("analysis.fleet_ms", ms("analysis.fleet"), "ms", runs.size());
  // A difference of two measurements: near 0, and possibly below, where
  // attaching is cheap next to compile + lint + fleet check.
  Add("engine.attach_ms",
      ms("engine.add") - ms("parser.compile") - ms("analysis.lint") -
          ms("analysis.fleet"),
      "ms", runs.size());
  Add("engine.remove_ms", ms("engine.remove"), "ms", runs.size());
  Add("engine.groups", static_cast<double>(last.groups), "count");
  Add("engine.indexed_groups", static_cast<double>(last.indexed_groups),
      "count");
  Add("engine.push_ms",
      w_.lanes > 1 ? get(direct, "engine.push") : ms("engine.push"), "ms",
      w_.lanes > 1 ? direct_runs.size() : runs.size());
  const double in_events =
      static_cast<double>(std::max<uint64_t>(1, last.events));
  Add("engine.deliveries_per_event",
      static_cast<double>(last.exec.deliveries) / in_events, "ratio");
  Add("engine.routed_skips_per_event",
      static_cast<double>(last.exec.routed_skips) / in_events, "ratio");
  uint64_t q_in = 0, q_past = 0, q_match = 0, q_windows = 0;
  for (const auto& [name, st] : last.query_stats) {
    q_in += st.events_in;
    q_past += st.events_past_global;
    q_match += st.matches;
    q_windows += st.windows_closed;
  }
  const double q_in_d = static_cast<double>(std::max<uint64_t>(1, q_in));
  Add("engine.past_global_ratio", static_cast<double>(q_past) / q_in_d,
      "ratio");
  Add("engine.match_ratio", static_cast<double>(q_match) / q_in_d, "ratio");
  Add("engine.watermark_ms", ms("engine.watermark"), "ms", runs.size());
  Add("engine.close_ms", ms("engine.close"), "ms", runs.size());
  Add("engine.windows_closed", static_cast<double>(q_windows), "count");
  Add("engine.alerts", static_cast<double>(last.alerts.digest.count()),
      "count");
  Add("model.rule_ms", model_ms[ModelKind::kRule], "ms");
  Add("model.timeseries_ms", model_ms[ModelKind::kTimeSeries], "ms");
  Add("model.invariant_ms", model_ms[ModelKind::kInvariant], "ms");
  Add("model.outlier_ms", model_ms[ModelKind::kOutlier], "ms");
  Add("stream.push_ms", ms("stream.push"), "ms", runs.size());
  Add("stream.flush_ms", ms("stream.flush"), "ms", runs.size());
  Add("stream.lane_events_per_input",
      w_.lanes > 1 ? static_cast<double>(last.exec.events) / in_events : 0.0,
      "ratio");
  Add("stream.direct_events_per_s", direct_eps, "events/s", 1);
  Add("stream.shard_speedup", Median(untraced_eps) / direct_eps, "ratio",
      untraced_eps.size());
  Add("storage.record_push_ms", get(storage, "storage.record_push"), "ms",
      storage_runs.size());
  Add("storage.unsynced_events_max", static_cast<double>(unsynced_max),
      "count");
  Add("storage.close_ms", get(storage, "storage.close"), "ms",
      storage_runs.size());
  Add("storage.bytes_per_event", bytes_per_event_, "bytes");
  Add("storage.replay_read_ms", get(storage, "storage.replay_read"), "ms",
      storage_runs.size());
  Add("storage.recover_ms", Median(recover_ms), "ms", recover_ms.size());
  Add("storage.record_events_per_s", Median(record_eps), "events/s",
      record_eps.size());
  Add("storage.replay_events_per_s", Median(replay_eps), "events/s",
      replay_eps.size());
  Add("collect.generator_lag_ms_max", lag_max_ms_, "ms");
  Add("collect.backlog_max_batches", static_cast<double>(backlog_max_),
      "count");
  const double overhead = Median(traced_eps) / Median(untraced_eps);
  Add("trace.overhead", overhead, "ratio", traced_eps.size());
  Add("trace.wall_ms", Median(traced_wall_ms), "ms", traced_wall_ms.size());

  // Layer table: per-pass self time by layer (span-name prefix).
  for (const auto& [label, table] :
       {std::pair<const char*, const std::map<std::string, double>*>{
            "pass", &self},
        {"direct pass", &direct},
        {"record+replay", &storage}}) {
    std::map<std::string, double> layers;
    double total = 0;
    for (const auto& [name, v] : *table) {
      layers[name.substr(0, name.find('.'))] += v;
      total += v;
    }
    for (const auto& [layer, v] : layers) {
      char line[160];
      std::snprintf(line, sizeof(line),
                    "layer %-9s self %10.3f ms  %5.1f%% of a traced %s",
                    layer.c_str(), v, 100.0 * v / total, label);
      Note(line);
    }
  }
  if (w_.lanes == 1 && w_.churn.empty()) {
    // The blocking calls of a single-lane pass must account for its wall
    // time, up to what tracing itself adds.
    const double accounted = ms("core.intern") + ms("engine.push") +
                             ms("engine.watermark") + ms("engine.close");
    const double wall = Median(traced_wall_ms);
    const double gap = wall > 0 ? (wall - accounted) / wall : 1.0;
    // Two points on top of the overhead: the ratio of two noisy medians
    // can read at or above 1 even though tracing always costs something.
    const double allowed = std::max(1.0 - overhead, 0.0) + 0.02;
    char line[200];
    std::snprintf(line, sizeof(line),
                  "intern+push+watermark+close = %.3f ms of %.3f ms traced "
                  "wall (unaccounted %.2f%%, allowed %.2f%%)",
                  accounted, wall, 100 * gap, 100 * allowed);
    ops_.Check(gap <= allowed, line);
    Note(line);
  }
}

}  // namespace

void SetFirstPushObserver(PushObserver observer) {
  FirstPushObserver() = std::move(observer);
}

RunReport RunWorkload(const Workload& w, const RunConfig& config,
                      Tracer* tracer) {
  Runner runner(w, config, tracer);
  return runner.Run();
}

}  // namespace saql::perfbench
