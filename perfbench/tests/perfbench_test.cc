// Tests of the benchmark's own machinery: the percentile rule, the alert
// digest, seed determinism of the inputs, and the fresh-input rule.

#include <algorithm>
#include <random>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "harness.h"
#include "inputs.h"
#include "runner.h"

namespace saql::perfbench {
namespace {

std::vector<double> Ramp(size_t n) {
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i + 1);
  return v;
}

TEST(PercentileTest, ReportsOnlyWithTenSamplesBeyond) {
  // p50 of n samples has n - ceil(n/2) beyond it: 19 samples leave 9.
  EXPECT_FALSE(Percentile(Ramp(19), 0.50).has_value());
  ASSERT_TRUE(Percentile(Ramp(20), 0.50).has_value());
  EXPECT_EQ(*Percentile(Ramp(20), 0.50), 10.0);
  // p99 needs 1000 samples: 999 leave 9 beyond the 990th.
  EXPECT_FALSE(Percentile(Ramp(999), 0.99).has_value());
  ASSERT_TRUE(Percentile(Ramp(1000), 0.99).has_value());
  EXPECT_EQ(*Percentile(Ramp(1000), 0.99), 990.0);
  EXPECT_FALSE(Percentile({}, 0.50).has_value());
}

TEST(PercentileTest, SummaryCarriesSampleCount) {
  std::vector<double> v = Ramp(500);
  std::shuffle(v.begin(), v.end(), std::mt19937_64(3));
  Summary s = Summarize(v);
  EXPECT_EQ(s.count, 500u);
  ASSERT_TRUE(s.p50.has_value());
  EXPECT_EQ(*s.p50, 250.0);
  EXPECT_FALSE(s.p99.has_value());
  EXPECT_EQ(s.max, 500.0);
}

std::vector<Alert> SomeAlerts() {
  std::vector<Alert> out;
  for (int i = 0; i < 50; ++i) {
    Alert a;
    a.query_name = "q" + std::to_string(i % 4);
    a.ts = 1000 + i / 3;
    a.group = i % 2 == 0 ? "app.exe" : "";
    a.values.emplace_back("p", Value("app" + std::to_string(i % 7)));
    a.values.emplace_back("amt", Value(static_cast<int64_t>(i * 10)));
    out.push_back(std::move(a));
  }
  return out;
}

TEST(AlertDigestTest, IndependentOfOrder) {
  std::vector<Alert> alerts = SomeAlerts();
  AlertDigest in_order;
  for (const Alert& a : alerts) in_order.Add(a);
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    std::shuffle(alerts.begin(), alerts.end(), std::mt19937_64(seed));
    AlertDigest shuffled;
    for (const Alert& a : alerts) shuffled.Add(a);
    EXPECT_EQ(shuffled, in_order);
  }
}

TEST(AlertDigestTest, SeesEveryField) {
  const std::vector<Alert> alerts = SomeAlerts();
  AlertDigest base;
  for (const Alert& a : alerts) base.Add(a);
  for (int field = 0; field < 4; ++field) {
    std::vector<Alert> changed = alerts;
    switch (field) {
      case 0: changed[7].query_name = "other"; break;
      case 1: changed[7].ts += 1; break;
      case 2: changed[7].group = "x"; break;
      case 3: changed[7].values[1].second = Value(int64_t{-1}); break;
    }
    AlertDigest d;
    for (const Alert& a : changed) d.Add(a);
    EXPECT_NE(d, base) << "field " << field;
  }
  AlertDigest missing;
  for (size_t i = 1; i < alerts.size(); ++i) missing.Add(alerts[i]);
  EXPECT_NE(missing, base);
  AlertDigest doubled = base;
  doubled.Add(alerts[0]);
  EXPECT_NE(doubled, base);
}

TEST(InputsTest, SameSeedGivesIdenticalInputs) {
  for (const std::string& name : WorkloadNames()) {
    auto a = MakeWorkload(name, 7, PERFBENCH_QUERY_DIR, 0.05);
    auto b = MakeWorkload(name, 7, PERFBENCH_QUERY_DIR, 0.05);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    EXPECT_FALSE(a->events.empty());
    EXPECT_EQ(SerializeInputs(*a), SerializeInputs(*b)) << name;
  }
}

TEST(InputsTest, DifferentSeedGivesDifferentInputs) {
  for (const std::string& name : WorkloadNames()) {
    auto a = MakeWorkload(name, 7, PERFBENCH_QUERY_DIR, 0.05);
    auto b = MakeWorkload(name, 8, PERFBENCH_QUERY_DIR, 0.05);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_NE(SerializeInputs(*a), SerializeInputs(*b)) << name;
  }
}

TEST(InputsTest, ChurnScheduleIsConsistent) {
  // Every retraction names a live query and every attach a fresh name, so
  // no session call of the schedule can fail.
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    auto w = MakeWorkload("tenant-fleet", seed, PERFBENCH_QUERY_DIR, 0.01);
    ASSERT_TRUE(w.ok());
    std::set<std::string> live, used;
    for (const QuerySpec& q : w->initial) {
      ASSERT_TRUE(used.insert(q.name).second);
      live.insert(q.name);
    }
    size_t adds = w->initial.size(), last_at = 0;
    for (const ChurnStep& step : w->churn) {
      ASSERT_GE(step.at_event, last_at);
      last_at = step.at_event;
      for (const std::string& name : step.remove) {
        ASSERT_EQ(live.erase(name), 1u) << "seed " << seed << " " << name;
      }
      for (const QuerySpec& q : step.add) {
        ASSERT_TRUE(used.insert(q.name).second) << "seed " << seed;
        live.insert(q.name);
        ++adds;
      }
    }
    EXPECT_EQ(adds, 1142u);
    EXPECT_GE(w->expected_alerts, 0);
  }
}

TEST(InputsTest, UnknownWorkloadIsRejected) {
  EXPECT_FALSE(MakeWorkload("nope", 1, PERFBENCH_QUERY_DIR).ok());
}

bool Unstamped(const Event& e) {
  const EventSymbols& s = e.syms;
  return s.gen == 0 && s.agent == 0 && s.subj_exe == 0 && s.subj_user == 0 &&
         s.obj_exe == 0 && s.obj_user == 0 && s.obj_path == 0;
}

TEST(FreshInputTest, EveryPassPushesUnstampedEvents) {
  for (const std::string& name : {std::string("apt-demo"),
                                  std::string("stateful-sharded")}) {
    auto w = MakeWorkload(name, 3, PERFBENCH_QUERY_DIR, 0.02);
    ASSERT_TRUE(w.ok());
    size_t first_pushes = 0;
    bool all_unstamped = true;
    SetFirstPushObserver([&](const Event* rows, size_t count) {
      ++first_pushes;
      all_unstamped &= std::all_of(rows, rows + count, Unstamped);
    });
    RunConfig config;
    config.seed = 3;
    config.seconds = 0.01;
    Tracer tracer(false);
    RunReport report = RunWorkload(*w, config, &tracer);
    SetFirstPushObserver(nullptr);
    EXPECT_TRUE(report.correct()) << name;
    EXPECT_GE(first_pushes, 3u) << name;  // reference + closed + open
    EXPECT_TRUE(all_unstamped) << name;
    // The generated stream itself is never pushed, so never stamped.
    EXPECT_TRUE(std::all_of(w->events.begin(), w->events.end(), Unstamped));
  }
}

}  // namespace
}  // namespace saql::perfbench
