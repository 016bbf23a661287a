#ifndef SAQL_PERFBENCH_INPUTS_H_
#define SAQL_PERFBENCH_INPUTS_H_

// Workload inputs: the event stream, the query set and the mid-stream
// attach/retract schedule of each workload, generated from the seed before
// any timing starts. Events leave here with `Event::syms` unstamped.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "collect/apt_scenario.h"
#include "core/event.h"
#include "core/result.h"

namespace saql::perfbench {

struct QuerySpec {
  std::string name;
  std::string text;
};

/// Queries retracted and attached just before the event at `at_event` is
/// pushed.
struct ChurnStep {
  size_t at_event = 0;
  std::vector<std::string> remove;
  std::vector<QuerySpec> add;
};

/// The model class of a corpus query, for the per-model cost split.
enum class ModelKind { kRule, kTimeSeries, kInvariant, kOutlier };

struct Workload {
  std::string name;
  /// Timestamp-ordered input stream; never pushed itself — every pass
  /// pushes a fresh copy.
  EventBatch events;
  /// Attached through `Session::AddQuery` while the session is set up.
  std::vector<QuerySpec> initial;
  /// Attached/retracted between pushes (ordered by `at_event`).
  std::vector<ChurnStep> churn;
  /// Session shard lanes (1 = the direct single-threaded executor).
  size_t lanes = 1;
  /// The traced run also records the stream to a durable log (group
  /// commit), replays the log into a fresh session and recovers it: the
  /// storage layer's numbers.
  bool trace_storage = false;
  /// Open-loop release rate, events per second: about half of what the
  /// workload sustains on a 4-core host, so the open loop runs below
  /// capacity.
  double open_rate = 0;
  /// Closed and open passes per second of `--seconds`, calibrated on a
  /// 4-core host so a run measures for about that long. Each run makes a
  /// fixed number of passes, so its work does not depend on host speed.
  double closed_per_s = 0;
  double open_per_s = 0;
  /// apt corpus: query name -> injected attack step it must alert in.
  std::map<std::string, int> step_of_query;
  std::vector<AptStep> attack_steps;
  /// apt corpus: query name -> model class.
  std::map<std::string, ModelKind> model_of_query;
  /// tenant-fleet: alerts the schedule must produce, counted from the
  /// generated inputs (-1 = not checked).
  int64_t expected_alerts = -1;
};

/// The fixed workload names, in reporting order.
const std::vector<std::string>& WorkloadNames();

/// Generates workload `name` from `seed`. `scale` shrinks or grows the
/// stream (1 = the benchmark's size; tests use small scales). Corpus
/// queries are read from `query_dir`.
Result<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                              const std::string& query_dir,
                              double scale = 1.0);

/// Every input byte of `w` — events with all their fields, queries and the
/// churn schedule — serialized, so two generations can be compared.
std::string SerializeInputs(const Workload& w);

}  // namespace saql::perfbench

#endif  // SAQL_PERFBENCH_INPUTS_H_
