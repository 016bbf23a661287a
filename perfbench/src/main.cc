// saql_perfbench: runs one workload of the live-session benchmark and
// prints every metric by name with its unit, the output-check verdict and
// the run's provenance. perfbench/run.py builds this program and turns its
// report into the benchmark's JSON result line.
//
//   saql_perfbench --workload apt-demo --seed 1 --seconds 35 --trace 0
//       --queries queries --scratch .bench_build/scratch
//       [--spans out.jsonl] [--commit <id>]

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>

#include "harness.h"
#include "inputs.h"
#include "runner.h"

namespace {

using saql::perfbench::Metric;

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

int Usage(const char* msg) {
  std::cerr << "saql_perfbench: " << msg
            << "\nusage: saql_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --queries <dir> --scratch <dir> "
               "[--spans <file>] [--commit <id>]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, queries, scratch = ".", spans, commit = "unknown";
  saql::perfbench::RunConfig config;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      config.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      config.trace = value == "1";
    } else if (flag == "--queries") {
      queries = value;
    } else if (flag == "--scratch") {
      scratch = value;
    } else if (flag == "--spans") {
      spans = value;
    } else if (flag == "--commit") {
      commit = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1) return Usage("flags take one value each");
  if (workload.empty() || queries.empty() || !have_seed ||
      config.seconds <= 0) {
    return Usage("--workload, --seed, --seconds and --queries are required");
  }
  config.scratch_dir = scratch;

  char host[256] = "unknown";
  gethostname(host, sizeof(host) - 1);
  const std::string provenance =
      "{\"commit\": " + JsonString(commit) +
      ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
      ", \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE) +
      ", \"compiler\": " + JsonString(PERFBENCH_COMPILER) +
      ", \"host\": " + JsonString(host) +
      ", \"workload\": " + JsonString(workload) +
      ", \"seed\": " + std::to_string(config.seed) +
      ", \"seconds\": " + std::to_string(config.seconds) +
      ", \"trace\": " + (config.trace ? "1" : "0") + "}";
  std::cout << "provenance " << provenance << "\n";

  const int64_t g0 = saql::perfbench::NowNs();
  auto w = saql::perfbench::MakeWorkload(workload, config.seed, queries);
  if (!w.ok()) {
    std::cerr << "saql_perfbench: " << w.status().ToString() << "\n";
    return 1;
  }
  const double gen_s =
      static_cast<double>(saql::perfbench::NowNs() - g0) / 1e9;
  size_t churn_adds = 0;
  for (const auto& step : w->churn) churn_adds += step.add.size();
  std::cout << "inputs events=" << w->events.size()
            << " initial_queries=" << w->initial.size()
            << " churn_steps=" << w->churn.size()
            << " churn_adds=" << churn_adds << " lanes=" << w->lanes
            << " open_rate=" << w->open_rate << " gen_s=" << gen_s << "\n";

  saql::perfbench::Tracer tracer(config.trace);
  saql::perfbench::RunReport report =
      saql::perfbench::RunWorkload(*w, config, &tracer);
  if (config.trace) report.metrics.push_back({"collect.gen_s", gen_s, "s", 1});

  for (const Metric& m : report.metrics) {
    std::printf("metric %s %.17g %s n=%zu\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
  for (const std::string& note : report.notes) {
    std::cout << "note " << note << "\n";
  }
  if (config.trace && !spans.empty()) {
    if (!tracer.WriteJsonLines(spans, provenance)) {
      std::cerr << "saql_perfbench: cannot write spans to " << spans << "\n";
      return 1;
    }
    std::cout << "spans " << tracer.spans().size() << " written to " << spans
              << "\n";
  }
  std::cout << "result correct=" << (report.correct() ? 1 : 0)
            << " attempted=" << report.attempted
            << " failed=" << report.failed << std::endl;
  return 0;
}
