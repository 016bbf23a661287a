#ifndef SAQL_PERFBENCH_RUNNER_H_
#define SAQL_PERFBENCH_RUNNER_H_

// Drives one workload through live `SaqlEngine::Session`s and turns the
// passes into the benchmark's metrics and output checks.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/event.h"
#include "harness.h"
#include "inputs.h"

namespace saql::perfbench {

struct RunConfig {
  uint64_t seed = 1;
  double seconds = 10;
  /// Per-layer run: spans around every layer call, per-layer metrics.
  bool trace = false;
  /// Directory for the recorded logs of `record-replay`.
  std::string scratch_dir = ".";
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  size_t samples = 0;  ///< timings: the sample count behind the value
};

struct RunReport {
  std::vector<Metric> metrics;
  /// Lines for the human-readable report (checks, layer table).
  std::vector<std::string> notes;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct() const { return attempted > 0 && failed == 0; }
};

/// Runs workload `w` for about `config.seconds` of measurement. `tracer`
/// receives the spans of a traced run (`config.trace`).
RunReport RunWorkload(const Workload& w, const RunConfig& config,
                      Tracer* tracer);

/// Called with the rows of the first `Push` of every pass — the test hook
/// for the fresh-input rule. Null by default.
using PushObserver = std::function<void(const Event* rows, size_t count)>;
void SetFirstPushObserver(PushObserver observer);

}  // namespace saql::perfbench

#endif  // SAQL_PERFBENCH_RUNNER_H_
