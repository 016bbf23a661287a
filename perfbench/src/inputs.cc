#include "inputs.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <fstream>
#include <random>
#include <sstream>

#include "collect/enterprise_sim.h"

namespace saql::perfbench {

namespace {

size_t Scaled(size_t n, double scale) {
  return std::max<size_t>(1000, static_cast<size_t>(std::llround(
                                    static_cast<double>(n) * scale)));
}

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot read " + path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// ---------------------------------------------------------------------------
// apt-demo: the paper's demo stream and query corpus.
// ---------------------------------------------------------------------------

struct CorpusQuery {
  const char* file;
  ModelKind model;
  int attack_step;  ///< 0 = not tied to one step
};

constexpr CorpusQuery kCorpus[] = {
    {"query1_rule.saql", ModelKind::kRule, 5},
    {"query2_timeseries.saql", ModelKind::kTimeSeries, 0},
    {"query3_invariant.saql", ModelKind::kInvariant, 0},
    {"query4_outlier.saql", ModelKind::kOutlier, 0},
    {"apt/r1_initial_compromise.saql", ModelKind::kRule, 1},
    {"apt/r2_malware_infection.saql", ModelKind::kRule, 2},
    {"apt/r3_privilege_escalation.saql", ModelKind::kRule, 3},
    {"apt/r4_penetration.saql", ModelKind::kRule, 4},
    {"apt/a6_invariant_excel.saql", ModelKind::kInvariant, 0},
    {"apt/a7_timeseries_network.saql", ModelKind::kTimeSeries, 0},
    {"apt/a8_outlier_dbscan.saql", ModelKind::kOutlier, 0},
};

Status MakeAptDemo(uint64_t seed, const std::string& query_dir, double scale,
                   Workload* w) {
  // The E13 demo setup (3 workstations, 10 events/host/s, 30 minutes,
  // 126k events) widened to 12 workstations: 16 hosts, ~290k events.
  EnterpriseSimulator::Options opts;
  opts.num_workstations = 12;
  opts.duration = 30 * kMinute;
  opts.events_per_host_per_second = 10 * scale;
  opts.attack_offset = 12 * kMinute;
  opts.seed = seed;
  EnterpriseSimulator sim(opts);
  w->events = sim.Generate();
  w->attack_steps = sim.attack_steps();
  for (const CorpusQuery& q : kCorpus) {
    SAQL_ASSIGN_OR_RETURN(std::string text,
                          ReadFile(query_dir + "/" + q.file));
    std::string name = q.file;
    name = name.substr(name.rfind('/') + 1);
    name = name.substr(0, name.find('.'));
    w->initial.push_back({name, std::move(text)});
    w->model_of_query[name] = q.model;
    if (q.attack_step != 0) w->step_of_query[name] = q.attack_step;
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// tenant-fleet: 1024 stateless tenant queries over four structural shapes.
// ---------------------------------------------------------------------------

constexpr int kTenants = 1024;
constexpr int kTenantExes = kTenants / 4;
constexpr int kInitialTenants = 64;
constexpr int kBoundaries = 60;
constexpr int kChurnPerBoundary = 2;
constexpr int kTenantPids = 16;
constexpr int64_t kTenantPidBase = 993;  // pids 993..1008; `pid > 1000` splits

struct Shape {
  EventOp op;
  EntityType type;
  const char* text;  ///< "<op> <object>" in SAQL
};

constexpr Shape kTenantShapes[4] = {
    {EventOp::kWrite, EntityType::kNetwork, "write ip i"},
    {EventOp::kRead, EntityType::kFile, "read file f"},
    {EventOp::kWrite, EntityType::kFile, "write file f"},
    {EventOp::kStart, EntityType::kProcess, "start proc q"},
};

/// Tenant `i` watches executable `tenant<i/4>.exe` in shape `i % 4`; every
/// fourth tenant adds a numeric residual on the subject pid.
std::string TenantQuery(int i) {
  std::string subj =
      "exe_name = \"tenant" + std::to_string(i / 4) + ".exe\"";
  if (i % 4 == 1) subj += ", pid > 1000";
  return "proc p[" + subj + "] " + kTenantShapes[i % 4].text +
         " as e return distinct p, p.pid";
}

void FillObject(Event* e, size_t i, std::mt19937_64& rng) {
  switch (e->object_type) {
    case EntityType::kProcess:
      e->obj_proc.exe_name = "worker.exe";
      e->obj_proc.pid = 4000 + static_cast<int64_t>(rng() % 50);
      break;
    case EntityType::kFile:
      e->obj_file.path = "/srv/data/file" + std::to_string(i % 200);
      break;
    case EntityType::kNetwork:
      e->obj_net.src_ip = "10.1.9.9";
      e->obj_net.dst_ip = "10.1.0." + std::to_string(i % 40 + 1);
      e->obj_net.dst_port = 443;
      break;
  }
}

void MakeTenantFleet(uint64_t seed, double scale, Workload* w) {
  const size_t n = Scaled(500000, scale);
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ULL + 17);
  w->events.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Event e;
    e.id = i + 1;
    e.ts = static_cast<Timestamp>(i) * 10 * kMillisecond;
    e.agent_id = "edge-" + std::to_string(i % 9);
    const int exe = static_cast<int>(rng() % kTenantExes);
    e.subject.exe_name = "tenant" + std::to_string(exe) + ".exe";
    e.subject.pid = kTenantPidBase + static_cast<int64_t>(rng() % kTenantPids);
    e.subject.user = (i % 2 == 0) ? "svc" : "alice";
    const Shape& shape = kTenantShapes[rng() % 4];
    e.op = shape.op;
    e.object_type = shape.type;
    FillObject(&e, i, rng);
    e.amount = 512 + static_cast<int64_t>(rng() % 2048);
    w->events.push_back(std::move(e));
  }

  // Attach schedule: 64 tenants at set-up, the other 960 in equal slices
  // at 60 stream boundaries; from the second boundary on, two live tenants
  // are retracted and attached again under a fresh name (the query sees
  // only events pushed after its new attach point).
  struct Instance {
    int tenant;
    size_t from, to;
  };
  std::vector<Instance> instances;
  std::vector<std::pair<std::string, size_t>> live;  // name -> instance
  for (int t = 0; t < kInitialTenants; ++t) {
    std::string name = "t" + std::to_string(t);
    w->initial.push_back({name, TenantQuery(t)});
    live.emplace_back(name, instances.size());
    instances.push_back({t, 0, n});
  }
  const int per_boundary = (kTenants - kInitialTenants) / kBoundaries;
  int next = kInitialTenants;
  for (int b = 0; b < kBoundaries; ++b) {
    ChurnStep step;
    step.at_event = static_cast<size_t>(b + 1) * n / (kBoundaries + 1);
    if (b > 0) {
      // Retract first, then attach again: a tenant re-attached here is not
      // a candidate for retraction at the same boundary.
      std::vector<size_t> retracted;
      for (int k = 0; k < kChurnPerBoundary; ++k) {
        size_t pick = static_cast<size_t>(rng() % live.size());
        step.remove.push_back(live[pick].first);
        retracted.push_back(live[pick].second);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
      }
      for (size_t inst : retracted) {
        instances[inst].to = step.at_event;
        const int tenant = instances[inst].tenant;
        std::string again = "t" + std::to_string(tenant) + "r" +
                            std::to_string(b);
        step.add.push_back({again, TenantQuery(tenant)});
        live.emplace_back(again, instances.size());
        instances.push_back({tenant, step.at_event, n});
      }
    }
    for (int k = 0; k < per_boundary && next < kTenants; ++k, ++next) {
      std::string name = "t" + std::to_string(next);
      step.add.push_back({name, TenantQuery(next)});
      live.emplace_back(name, instances.size());
      instances.push_back({next, step.at_event, n});
    }
    w->churn.push_back(std::move(step));
  }

  // Expected alerts: each query instance alerts once per distinct subject
  // (exe, pid) among the events it saw that match its shape and residual.
  std::vector<std::vector<size_t>> by_exe_shape(kTenantExes * 4);
  for (size_t i = 0; i < n; ++i) {
    const Event& e = w->events[i];
    const int exe = std::stoi(e.subject.exe_name.substr(6));
    int shape = 0;
    while (kTenantShapes[shape].op != e.op ||
           kTenantShapes[shape].type != e.object_type) {
      ++shape;
    }
    by_exe_shape[static_cast<size_t>(exe * 4 + shape)].push_back(i);
  }
  int64_t expected = 0;
  for (const Instance& inst : instances) {
    const auto& idx =
        by_exe_shape[static_cast<size_t>((inst.tenant / 4) * 4 +
                                         inst.tenant % 4)];
    uint32_t pids = 0;
    for (auto it = std::lower_bound(idx.begin(), idx.end(), inst.from);
         it != idx.end() && *it < inst.to; ++it) {
      const int64_t pid = w->events[*it].subject.pid;
      if (inst.tenant % 4 == 1 && pid <= 1000) continue;
      pids |= 1u << static_cast<unsigned>(pid - kTenantPidBase);
    }
    expected += std::popcount(pids);
  }
  w->expected_alerts = expected;
}

// ---------------------------------------------------------------------------
// stateful-sharded: 8 mergeable per-process sum windows over a stream that
// is 70% noise no query matches.
// ---------------------------------------------------------------------------

constexpr int kStatefulProcs = 32;
/// Per-process 10 s window volume above which a query alerts; a window
/// sees ~12 matching events of 1000..2999 bytes, so about one window in
/// five alerts.
constexpr int64_t kStatefulThreshold = 28000;

constexpr Shape kStatefulShapes[8] = {
    {EventOp::kWrite, EntityType::kNetwork, "write ip i"},
    {EventOp::kConnect, EntityType::kNetwork, "connect ip i"},
    {EventOp::kRecv, EntityType::kNetwork, "recv ip i"},
    {EventOp::kRead, EntityType::kFile, "read file f"},
    {EventOp::kWrite, EntityType::kFile, "write file f"},
    {EventOp::kDelete, EntityType::kFile, "delete file f"},
    {EventOp::kStart, EntityType::kProcess, "start proc q"},
    {EventOp::kKill, EntityType::kProcess, "kill proc q"},
};

constexpr Shape kNoiseShapes[4] = {
    {EventOp::kChmod, EntityType::kFile, ""},
    {EventOp::kRename, EntityType::kFile, ""},
    {EventOp::kSend, EntityType::kNetwork, ""},
    {EventOp::kExecute, EntityType::kFile, ""},
};

void MakeStatefulSharded(uint64_t seed, double scale, Workload* w) {
  const size_t n = Scaled(600000, scale);
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ULL + 29);
  w->events.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Event e;
    e.id = i + 1;
    e.ts = static_cast<Timestamp>(i) * kMillisecond;
    e.agent_id = "db-server-01";
    const int proc = static_cast<int>(rng() % kStatefulProcs);
    e.subject.pid = 1000 + proc;
    e.subject.exe_name = "app" + std::to_string(proc) + ".exe";
    e.subject.user = "svc";
    const Shape& shape = rng() % 100 < 30 ? kStatefulShapes[rng() % 8]
                                          : kNoiseShapes[rng() % 4];
    e.op = shape.op;
    e.object_type = shape.type;
    FillObject(&e, i, rng);
    e.amount = 1000 + static_cast<int64_t>(rng() % 2000);
    w->events.push_back(std::move(e));
  }
  for (int q = 0; q < 8; ++q) {
    w->initial.push_back(
        {"s" + std::to_string(q),
         std::string("proc p ") + kStatefulShapes[q].text +
             " as e #time(10 s) state ss { amt := sum(e.amount) } "
             "group by p alert ss.amt > " +
             std::to_string(kStatefulThreshold) + " return p, ss.amt"});
  }
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {
      "apt-demo", "tenant-fleet", "stateful-sharded"};
  return kNames;
}

Result<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                              const std::string& query_dir, double scale) {
  Workload w;
  w.name = name;
  // Pass rates: closed and open passes share a run about equally, except
  // in tenant-fleet, whose open pass is long (see its rate).
  if (name == "apt-demo") {
    SAQL_RETURN_IF_ERROR(MakeAptDemo(seed, query_dir, scale, &w));
    w.trace_storage = true;
    w.open_rate = 400000;
    w.closed_per_s = 1.1;
    w.open_per_s = 0.6;
  } else if (name == "tenant-fleet") {
    MakeTenantFleet(seed, scale, &w);
    // The 2-4 s of tenant attaches a pass stall the pushing thread; at this rate
    // they take under a fifth of the 20 s open pass, so the median batch
    // does not queue behind them.
    w.open_rate = 25000;
    w.closed_per_s = 0.17;
    w.open_per_s = 0.029;
  } else if (name == "stateful-sharded") {
    MakeStatefulSharded(seed, scale, &w);
    w.lanes = 2;
    w.open_rate = 400000;
    w.closed_per_s = 0.62;
    w.open_per_s = 0.31;
  } else {
    return Status::InvalidArgument("unknown workload '" + name + "'");
  }
  return w;
}

std::string SerializeInputs(const Workload& w) {
  std::ostringstream out;
  out << w.name << '\n' << w.lanes << ' ' << w.open_rate
      << ' ' << w.expected_alerts << '\n';
  for (const Event& e : w.events) {
    out << e.id << '|' << e.ts << '|' << e.agent_id << '|' << e.subject.pid
        << '|' << e.subject.exe_name << '|' << e.subject.user << '|'
        << static_cast<int>(e.op) << '|' << static_cast<int>(e.object_type)
        << '|' << e.obj_proc.pid << '|' << e.obj_proc.exe_name << '|'
        << e.obj_proc.user << '|' << e.obj_file.path << '|'
        << e.obj_net.src_ip << '|' << e.obj_net.dst_ip << '|'
        << e.obj_net.src_port << '|' << e.obj_net.dst_port << '|'
        << e.obj_net.protocol << '|' << e.amount << '|' << e.failed << '\n';
  }
  for (const QuerySpec& q : w.initial) out << q.name << '=' << q.text << '\n';
  for (const ChurnStep& s : w.churn) {
    out << '@' << s.at_event;
    for (const std::string& r : s.remove) out << " -" << r;
    for (const QuerySpec& q : s.add) out << " +" << q.name << '=' << q.text;
    out << '\n';
  }
  return out.str();
}

}  // namespace saql::perfbench
