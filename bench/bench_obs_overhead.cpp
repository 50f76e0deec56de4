// Observability overhead guard — enforces the subsystem's cost budget:
// with tracing *disabled* (no active obs::Session), the instrumentation
// left in the hot paths must add less than 2% to an integration-sized run.
//
// A direct A/B wall-clock comparison of two sub-second training runs is
// hopelessly noisy under real thread scheduling, so the guard measures the
// ingredients separately and projects:
//
//   1. per-op cost of a disabled ScopedTimer over the two bare clock reads
//      it replaces (the old Stopwatch pattern also read the clock twice, so
//      only the ActiveTrace() check + branch is *extra*), and the per-op
//      cost of a disabled CountMetric (one atomic load);
//   2. the number of span/metric operations S and M an integration-sized
//      RNA run actually performs (counted from an enabled run);
//   3. asserts S*extra_span + M*extra_metric < 2% of the baseline wall time.
//
// Exits non-zero on budget violation; CI runs this as a test.

#include <algorithm>
#include <cstdio>

#include "bench_util.hpp"
#include "rna/common/clock.hpp"
#include "rna/obs/metrics.hpp"
#include "rna/obs/trace.hpp"

using namespace rna;
using namespace rna::benchutil;

namespace {

constexpr int kOps = 200000;

/// Per-op cost of two bare steady-clock reads — what the pre-obs Stopwatch
/// pattern paid per timed section.
double BareClockCost() {
  common::Seconds sink = 0.0;
  const common::Stopwatch watch;
  for (int i = 0; i < kOps; ++i) {
    const auto a = common::SteadyClock::now();
    const auto b = common::SteadyClock::now();
    sink += common::ToSeconds(b - a);
  }
  const double total = watch.Elapsed();
  if (sink < 0.0) std::printf("%f", sink);  // defeat dead-code elimination
  return total / kOps;
}

/// Per-op cost of a full disabled ScopedTimer lifecycle (ctor + Stop).
double DisabledTimerCost() {
  double sink = 0.0;
  const common::Stopwatch watch;
  for (int i = 0; i < kOps; ++i) {
    obs::ScopedTimer timer({}, obs::Category::kOther, "probe");
    sink += timer.Stop();
  }
  const double total = watch.Elapsed();
  if (sink < 0.0) std::printf("%f", sink);
  return total / kOps;
}

/// Per-op cost of a disabled CountMetric (no active registry).
double DisabledMetricCost() {
  const common::Stopwatch watch;
  for (int i = 0; i < kOps; ++i) {
    obs::CountMetric("probe.disabled");
  }
  return watch.Elapsed() / kOps;
}

train::TrainerConfig GuardConfig(const NamedScenario& scenario) {
  train::TrainerConfig config =
      BaseBenchConfig(train::Protocol::kRna, scenario, /*world=*/3);
  config.max_rounds = 60;
  config.target_loss = -1.0;
  config.delay_model = std::make_shared<sim::DeterministicSkewModel>(
      0.0015, std::vector<double>{0.0, 0.0005, 0.0030});
  return config;
}

}  // namespace

int main() {
  std::printf("=== Observability overhead guard (<2%% disabled-mode "
              "budget) ===\n");

  const double bare = BareClockCost();
  const double timer = DisabledTimerCost();
  const double extra_span = std::max(0.0, timer - bare);
  const double extra_metric = DisabledMetricCost();
  std::printf("per-op: bare clock pair %.1f ns, disabled ScopedTimer %.1f ns "
              "(extra %.1f ns), disabled CountMetric %.1f ns\n",
              bare * 1e9, timer * 1e9, extra_span * 1e9, extra_metric * 1e9);

  NamedScenario scenario = MakeResnetProxy();

  // Baseline: integration-sized run with observability disabled.
  const train::TrainResult baseline =
      RunProtocol(train::Protocol::kRna, scenario, GuardConfig(scenario));
  std::printf("baseline (no session): %.3f s wall, %zu rounds\n",
              baseline.wall_seconds, baseline.rounds);

  // Enabled run: count how many span/metric operations the same run emits.
  std::size_t spans = 0;
  double metric_ops = 0.0;
  {
    obs::Session session;
    (void)RunProtocol(train::Protocol::kRna, scenario, GuardConfig(scenario));
    spans = session.Trace().TotalRecorded() + session.Trace().TotalDropped();
    for (const obs::MetricsRegistry::Row& row : session.Metrics().Rows()) {
      if (row.kind == "stats") {
        metric_ops += static_cast<double>(row.count);  // one Observe each
      } else if (row.kind == "counter") {
        // Counter values double as op counts: every hot-path counter
        // increments by 1 except fabric.bytes, whose ops are paired 1:1
        // with fabric.messages, and the fabric.pool.* counters, which the
        // pool tracks with raw atomics and flushes as one delta per counter
        // at Fabric::Shutdown (so a bytes-sized value is one CountMetric).
        if (row.name == "fabric.bytes") continue;
        if (row.name.rfind("fabric.pool.", 0) == 0) {
          metric_ops += 1.0;
          continue;
        }
        metric_ops += row.value;
        if (row.name == "fabric.messages") metric_ops += row.value;
      } else {
        metric_ops += 1.0;  // gauges are set O(1) times per run
      }
    }
  }
  std::printf("instrumentation volume: %zu spans, ~%.0f metric ops\n", spans,
              metric_ops);

  const double projected =
      static_cast<double>(spans) * extra_span + metric_ops * extra_metric;
  const double budget = 0.02 * baseline.wall_seconds;
  const double pct = 100.0 * projected / baseline.wall_seconds;
  std::printf("projected disabled-mode overhead: %.3f ms (%.3f%% of "
              "baseline; budget 2%%)\n",
              projected * 1e3, pct);

  if (projected >= budget) {
    std::printf("FAIL: disabled-mode instrumentation overhead exceeds the "
                "2%% budget\n");
    return 1;
  }
  std::printf("PASS\n");
  return 0;
}
