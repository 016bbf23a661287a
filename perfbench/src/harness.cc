#include "harness.h"

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace saql::perfbench {

std::optional<double> Percentile(std::vector<double> samples, double q) {
  const size_t n = samples.size();
  if (n == 0) return std::nullopt;
  // Nearest rank: the smallest sample with at least q*n samples at or
  // below it; n - rank samples lie strictly beyond it in the order.
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  if (n - rank < Summary::kMinBeyond) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

Summary Summarize(const std::vector<double>& samples) {
  Summary s;
  s.count = samples.size();
  s.p50 = Percentile(samples, 0.50);
  s.p99 = Percentile(samples, 0.99);
  for (double v : samples) s.max = std::max(s.max, v);
  return s;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

namespace {

uint64_t Fnv1a(uint64_t h, const void* data, size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

uint64_t Fnv1a(uint64_t h, const std::string& s) {
  h = Fnv1a(h, s.data(), s.size());
  const char sep = '\x1f';
  return Fnv1a(h, &sep, 1);
}

uint64_t Mix(uint64_t x) {  // splitmix64 finalizer
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

}  // namespace

void AlertDigest::Add(const Alert& alert) {
  uint64_t h = 0xcbf29ce484222325ULL;
  h = Fnv1a(h, alert.query_name);
  h = Fnv1a(h, &alert.ts, sizeof(alert.ts));
  h = Fnv1a(h, alert.group);
  for (const auto& [label, value] : alert.values) {
    h = Fnv1a(h, label);
    h = Fnv1a(h, value.ToString());
  }
  h = Mix(h);
  ++count_;
  sum_ += h;
  xor_ ^= Mix(h ^ 0x9e3779b97f4a7c15ULL);
}

std::string AlertDigest::ToString() const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%llu:%016llx%016llx",
                static_cast<unsigned long long>(count_),
                static_cast<unsigned long long>(sum_),
                static_cast<unsigned long long>(xor_));
  return buf;
}

Tracer::Scope::Scope(Tracer* tracer, const char* name) : tracer_(tracer) {
  if (tracer_ == nullptr || !tracer_->enabled_) return;
  Span span;
  span.name = name;
  span.parent = tracer_->open_.empty() ? -1 : tracer_->open_.back();
  span.run = tracer_->run_;
  index_ = static_cast<int32_t>(tracer_->spans_.size());
  tracer_->open_.push_back(index_);
  span.start_ns = NowNs();
  tracer_->spans_.push_back(span);
}

Tracer::Scope::~Scope() {
  if (index_ < 0) return;
  tracer_->spans_[static_cast<size_t>(index_)].end_ns = NowNs();
  tracer_->open_.pop_back();
}

std::vector<int64_t> Tracer::SelfTimesNs() const {
  std::vector<int64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_ns - spans_[i].start_ns;
  }
  // Children of one parent run one after another on the driving thread, so
  // the part of the parent they cover is the sum of their durations.
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      self[static_cast<size_t>(s.parent)] -= s.end_ns - s.start_ns;
    }
  }
  return self;
}

std::map<int32_t, std::map<std::string, double>> Tracer::SelfMsByRun() const {
  std::map<int32_t, std::map<std::string, double>> out;
  std::vector<int64_t> self = SelfTimesNs();
  for (size_t i = 0; i < spans_.size(); ++i) {
    out[spans_[i].run][spans_[i].name] += static_cast<double>(self[i]) / 1e6;
  }
  return out;
}

bool Tracer::WriteJsonLines(const std::string& path,
                            const std::string& header_json) const {
  std::ofstream out(path);
  if (!out) return false;
  out << header_json << "\n";
  std::vector<int64_t> self = SelfTimesNs();
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\": " << i << ", \"name\": \"" << s.name
        << "\", \"run\": " << s.run << ", \"parent\": " << s.parent
        << ", \"start_ns\": " << s.start_ns - origin
        << ", \"end_ns\": " << s.end_ns - origin
        << ", \"self_ns\": " << self[i] << "}\n";
  }
  return static_cast<bool>(out);
}

size_t CurrentRssBytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long size = 0, resident = 0;
  int got = std::fscanf(f, "%lu %lu", &size, &resident);
  std::fclose(f);
  if (got != 2) return 0;
  return static_cast<size_t>(resident) *
         static_cast<size_t>(sysconf(_SC_PAGESIZE));
}

void TrimHeap() { malloc_trim(0); }

}  // namespace saql::perfbench
