#ifndef SAQL_PERFBENCH_HARNESS_H_
#define SAQL_PERFBENCH_HARNESS_H_

// Measurement plumbing shared by every workload: the percentile rule, the
// order-independent alert digest, the in-memory span recorder, and the
// process memory probe.

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "engine/alert.h"

namespace saql::perfbench {

/// Monotonic wall clock in nanoseconds.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// A timing distribution summarized the way the benchmark reports it: the
/// sample count plus every requested percentile that has at least
/// `kMinBeyond` samples beyond it.
struct Summary {
  static constexpr size_t kMinBeyond = 10;
  size_t count = 0;
  std::optional<double> p50;
  std::optional<double> p99;
  double max = 0;
};

/// Nearest-rank percentile `q` (0 < q < 1) of `samples`, or nullopt when
/// fewer than `Summary::kMinBeyond` samples lie beyond it.
std::optional<double> Percentile(std::vector<double> samples, double q);

/// Summarizes `samples` (any order).
Summary Summarize(const std::vector<double>& samples);

/// Order-independent fingerprint of an alert multiset over
/// (query, ts, group, values): equal multisets give equal digests whatever
/// order the alerts arrived in.
class AlertDigest {
 public:
  void Add(const Alert& alert);
  uint64_t count() const { return count_; }
  bool operator==(const AlertDigest& other) const {
    return count_ == other.count_ && sum_ == other.sum_ && xor_ == other.xor_;
  }
  std::string ToString() const;

 private:
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t xor_ = 0;
};

/// One recorded span: a call into a layer, timed from the benchmark's own
/// code. `parent` indexes the enclosing span (-1 for a root); spans of one
/// pass share `run`.
struct Span {
  const char* name = "";  ///< a string literal
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
  int32_t run = 0;
};

/// Span recorder for the driving thread. Spans stay in memory until the
/// run ends. A disabled tracer records nothing and reads no clock.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// RAII span: opens on construction (child of the innermost open span),
  /// closes on destruction.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int32_t index_ = -1;
  };

  /// Tags spans opened from now on with `run`.
  void SetRun(int32_t run) { run_ = run; }

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time of every span: its duration minus the part covered by its
  /// direct children.
  std::vector<int64_t> SelfTimesNs() const;

  /// Per-run self time summed by span name, in milliseconds.
  std::map<int32_t, std::map<std::string, double>> SelfMsByRun() const;

  /// Writes every span as one JSON object per line.
  bool WriteJsonLines(const std::string& path,
                      const std::string& header_json) const;

 private:
  bool enabled_;
  int32_t run_ = 0;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

/// Resident set size of this process, in bytes (0 if unreadable).
size_t CurrentRssBytes();

/// Returns freed heap pages to the OS so a following RSS reading is a
/// clean baseline.
void TrimHeap();

/// Median of `values` (0 for an empty vector).
double Median(std::vector<double> values);

}  // namespace saql::perfbench

#endif  // SAQL_PERFBENCH_HARNESS_H_
