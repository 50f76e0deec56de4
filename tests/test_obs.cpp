// Tests for the observability subsystem: trace recorder semantics (rings,
// wrap-around, stale handles), metrics registry, Chrome trace-event export
// round-trip, the WorkerAccounts figure query, and the end-to-end
// cross-check that a real training run's trace agrees with the engine's
// reported WorkerTimeBreakdown.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "rna/common/clock.hpp"
#include "rna/core/rna.hpp"
#include "rna/data/generators.hpp"
#include "rna/net/fabric.hpp"
#include "rna/obs/export.hpp"
#include "rna/obs/metrics.hpp"
#include "rna/obs/session.hpp"
#include "rna/obs/trace.hpp"

namespace rna::obs {
namespace {

Span MakeSpan(const char* name, Category cat, double start, double dur) {
  Span s;
  s.name = name;
  s.category = cat;
  s.start = start;
  s.duration = dur;
  return s;
}

TEST(TraceRecorder, RecordsAndSnapshots) {
  TraceRecorder rec;
  TrackHandle track = rec.RegisterTrack("alpha");
  ASSERT_TRUE(track.Enabled());
  EXPECT_EQ(track.Recorder(), &rec);

  rec.Record(track, MakeSpan("a", Category::kCompute, 0.0, 1.0));
  rec.Record(track, MakeSpan("b", Category::kWait, 1.0, 0.5));

  const auto tracks = rec.Snapshot();
  ASSERT_EQ(tracks.size(), 1u);
  EXPECT_EQ(tracks[0].name, "alpha");
  EXPECT_EQ(tracks[0].recorded, 2u);
  EXPECT_EQ(tracks[0].dropped, 0u);
  ASSERT_EQ(tracks[0].spans.size(), 2u);
  EXPECT_STREQ(tracks[0].spans[0].name, "a");
  EXPECT_STREQ(tracks[0].spans[1].name, "b");
  EXPECT_EQ(rec.TotalRecorded(), 2u);
  EXPECT_EQ(rec.TrackCount(), 1u);
}

TEST(TraceRecorder, ReRegisteringANameReturnsTheSameTrack) {
  TraceRecorder rec;
  TrackHandle first = rec.RegisterTrack("actor");
  rec.Record(first, MakeSpan("x", Category::kOther, 0.0, 1.0));
  TrackHandle second = rec.RegisterTrack("actor");
  rec.Record(second, MakeSpan("y", Category::kOther, 1.0, 1.0));

  const auto tracks = rec.Snapshot();
  ASSERT_EQ(tracks.size(), 1u);  // one logical track, not two
  EXPECT_EQ(tracks[0].recorded, 2u);
}

TEST(TraceRecorder, RingWrapDropsOldestSpans) {
  TraceRecorder rec(/*track_capacity=*/4);
  TrackHandle track = rec.RegisterTrack("small");
  for (int i = 0; i < 10; ++i) {
    rec.Record(track, MakeSpan("s", Category::kOther,
                               static_cast<double>(i), 1.0));
  }
  const auto tracks = rec.Snapshot();
  ASSERT_EQ(tracks.size(), 1u);
  EXPECT_EQ(tracks[0].recorded, 10u);
  EXPECT_EQ(tracks[0].dropped, 6u);
  ASSERT_EQ(tracks[0].spans.size(), 4u);
  // The survivors are the newest four, oldest-first.
  for (int i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(tracks[0].spans[i].start, 6.0 + i);
  }
  EXPECT_EQ(rec.TotalDropped(), 6u);
}

TEST(TraceRecorder, ConcurrentProducersOnSeparateTracks) {
  // One track per thread is the contract; TSan checks the ring accesses.
  TraceRecorder rec;
  constexpr int kThreads = 4;
  constexpr int kSpansEach = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&rec, t] {
      TrackHandle track = rec.RegisterTrack(WorkerTrack(t, "stress"));
      for (int i = 0; i < kSpansEach; ++i) {
        rec.Record(track, MakeSpan("op", Category::kCompute, i, 0.5));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(rec.TotalRecorded(), kThreads * kSpansEach);
  EXPECT_EQ(rec.TrackCount(), static_cast<std::size_t>(kThreads));
}

TEST(ScopedTimer, AccumulatesAndRecordsWhenActive) {
  TraceRecorder rec;
  SetActiveTrace(&rec);
  common::Seconds acc = 0.0;
  {
    TrackHandle track = RegisterTrack("timed");
    ScopedTimer timer(track, Category::kComm, "op", &acc);
    timer.SetArg("round", 3.0);
    common::SleepFor(0.002);
  }
  SetActiveTrace(nullptr);

  EXPECT_GT(acc, 0.0);
  const auto tracks = rec.Snapshot();
  ASSERT_EQ(tracks.size(), 1u);
  ASSERT_EQ(tracks[0].spans.size(), 1u);
  const Span& span = tracks[0].spans[0];
  EXPECT_STREQ(span.name, "op");
  EXPECT_EQ(span.category, Category::kComm);
  EXPECT_DOUBLE_EQ(span.duration, acc);  // single timing source
  ASSERT_STREQ(span.arg_keys[0], "round");
  EXPECT_DOUBLE_EQ(span.arg_vals[0], 3.0);
}

TEST(ScopedTimer, DisabledHandleStillMeasures) {
  ASSERT_EQ(ActiveTrace(), nullptr);
  common::Seconds acc = 0.0;
  ScopedTimer timer({}, Category::kCompute, "noop", &acc);
  common::SleepFor(0.001);
  const common::Seconds elapsed = timer.Stop();
  EXPECT_GT(elapsed, 0.0);
  EXPECT_DOUBLE_EQ(acc, elapsed);
  EXPECT_DOUBLE_EQ(timer.Stop(), elapsed);  // idempotent
  EXPECT_DOUBLE_EQ(acc, elapsed);           // no double accumulation
}

TEST(ScopedTimer, StaleHandleDoesNotRecordOntoNewRecorder) {
  // A handle from recorder A must not write once B is the active trace:
  // its spans would carry A's epoch and A's ring may be gone.
  auto a = std::make_unique<TraceRecorder>();
  SetActiveTrace(a.get());
  TrackHandle stale = RegisterTrack("from_a");
  TraceRecorder b;
  SetActiveTrace(&b);
  {
    ScopedTimer timer(stale, Category::kOther, "late");
  }
  SetActiveTrace(nullptr);
  EXPECT_EQ(a->TotalRecorded(), 0u);
  EXPECT_EQ(b.TotalRecorded(), 0u);
}

TEST(Metrics, CountersGaugesAndStats) {
  MetricsRegistry reg;
  reg.Add("hits");
  reg.Add("hits", 4);
  reg.Set("level", 0.75);
  reg.Set("level", 0.5);  // gauges keep the last value
  reg.Observe("lat", 1.0);
  reg.Observe("lat", 3.0);

  EXPECT_EQ(reg.CounterValue("hits"), 5);
  EXPECT_DOUBLE_EQ(reg.GaugeValue("level"), 0.5);
  const common::OnlineStats stats = reg.StatsFor("lat");
  EXPECT_EQ(stats.Count(), 2u);
  EXPECT_DOUBLE_EQ(stats.Mean(), 2.0);
  EXPECT_DOUBLE_EQ(stats.Min(), 1.0);
  EXPECT_DOUBLE_EQ(stats.Max(), 3.0);

  // Unknown names read as zero, not errors.
  EXPECT_EQ(reg.CounterValue("nope"), 0);
  EXPECT_DOUBLE_EQ(reg.GaugeValue("nope"), 0.0);
  EXPECT_EQ(reg.StatsFor("nope").Count(), 0u);

  const auto rows = reg.Rows();
  ASSERT_EQ(rows.size(), 3u);

  std::ostringstream jsonl;
  reg.ExportJsonl(jsonl);
  const std::string text = jsonl.str();
  std::size_t lines = 0;
  for (char c : text) lines += (c == '\n');
  EXPECT_EQ(lines, 3u);  // one JSON object per metric
  EXPECT_NE(text.find("\"hits\""), std::string::npos);
}

TEST(Metrics, FreeHelpersAreNoOpsWithoutRegistry) {
  ASSERT_EQ(ActiveMetrics(), nullptr);
  CountMetric("void");  // must not crash
  SetGauge("void", 1.0);
  ObserveMetric("void", 1.0);

  MetricsRegistry reg;
  SetActiveMetrics(&reg);
  CountMetric("live", 2);
  ObserveMetric("live.lat", 0.25);
  SetActiveMetrics(nullptr);
  EXPECT_EQ(reg.CounterValue("live"), 2);
  EXPECT_EQ(reg.StatsFor("live.lat").Count(), 1u);
}

TEST(ChromeExport, RoundTripPreservesSpansTracksAndArgs) {
  TraceRecorder rec;
  TrackHandle w0 = rec.RegisterTrack(WorkerTrack(0, "compute"));
  TrackHandle ctl = rec.RegisterTrack("controller");
  Span batch = MakeSpan("batch", Category::kCompute, 0.001, 0.002);
  batch.arg_keys[0] = "iter";
  batch.arg_vals[0] = 7.0;
  rec.Record(w0, batch);
  Span round = MakeSpan("round", Category::kRound, 0.0005, 0.004);
  round.arg_keys[0] = "round";
  round.arg_vals[0] = 1.0;
  round.arg_keys[1] = "contributors";
  round.arg_vals[1] = 3.0;
  rec.Record(ctl, round);

  std::stringstream io;
  ExportChromeTrace(rec, io);
  const ParsedTrace parsed = ParseChromeTrace(io);

  ASSERT_EQ(parsed.events.size(), 2u);
  ASSERT_EQ(parsed.track_names.size(), 2u);

  const TraceEvent* batch_ev = nullptr;
  const TraceEvent* round_ev = nullptr;
  for (const TraceEvent& ev : parsed.events) {
    if (ev.name == "batch") batch_ev = &ev;
    if (ev.name == "round") round_ev = &ev;
  }
  ASSERT_NE(batch_ev, nullptr);
  ASSERT_NE(round_ev, nullptr);

  EXPECT_EQ(batch_ev->ph, "X");
  EXPECT_EQ(batch_ev->cat, "compute");
  EXPECT_NEAR(batch_ev->ts, 1000.0, 1e-6);   // microseconds
  EXPECT_NEAR(batch_ev->dur, 2000.0, 1e-6);
  ASSERT_TRUE(batch_ev->args.count("iter"));
  EXPECT_DOUBLE_EQ(batch_ev->args.at("iter"), 7.0);
  EXPECT_EQ(parsed.track_names.at(batch_ev->tid), "worker0/compute");

  EXPECT_EQ(round_ev->cat, "round");
  EXPECT_DOUBLE_EQ(round_ev->args.at("round"), 1.0);
  EXPECT_DOUBLE_EQ(round_ev->args.at("contributors"), 3.0);
  EXPECT_EQ(parsed.track_names.at(round_ev->tid), "controller");
}

TEST(ChromeExport, ParserRejectsMalformedInput) {
  const char* bad[] = {
      "",                                   // empty
      "{\"traceEvents\": [",                // truncated
      "[1, 2, 3]",                          // not an object
      "{\"traceEvents\": {\"a\": 1}}",      // events not an array
      "{\"traceEvents\": [{\"ph\": }]}",    // bad value
  };
  for (const char* text : bad) {
    std::istringstream in(text);
    EXPECT_THROW(ParseChromeTrace(in), std::runtime_error) << text;
  }
}

TEST(WorkerAccountsQuery, SumsOnlyBreakdownCategoriesPerRank) {
  TraceRecorder rec;
  TrackHandle compute = rec.RegisterTrack(WorkerTrack(1, "compute"));
  TrackHandle comm = rec.RegisterTrack(WorkerTrack(1, "comm"));
  TrackHandle ctl = rec.RegisterTrack("controller");
  rec.Record(compute, MakeSpan("batch", Category::kCompute, 0.0, 2.0));
  rec.Record(compute, MakeSpan("batch", Category::kCompute, 2.0, 1.0));
  rec.Record(comm, MakeSpan("wait_trigger", Category::kWait, 0.0, 0.5));
  rec.Record(comm, MakeSpan("partial_allreduce", Category::kComm, 0.5, 0.25));
  // Structural spans must not leak into the breakdown sums.
  rec.Record(comm, MakeSpan("round", Category::kRound, 0.0, 99.0));
  rec.Record(ctl, MakeSpan("round", Category::kRound, 0.0, 99.0));

  const auto accounts = WorkerAccounts(rec.Snapshot(), /*world=*/3);
  ASSERT_EQ(accounts.size(), 3u);
  EXPECT_DOUBLE_EQ(accounts[0].compute, 0.0);
  EXPECT_DOUBLE_EQ(accounts[1].compute, 3.0);  // both threads fold into rank 1
  EXPECT_DOUBLE_EQ(accounts[1].wait, 0.5);
  EXPECT_DOUBLE_EQ(accounts[1].comm, 0.25);
  EXPECT_EQ(accounts[1].spans, 4u);  // the kRound spans are not counted
  EXPECT_DOUBLE_EQ(accounts[2].compute, 0.0);
}

TEST(WorkerAccountsQuery, ParsedTraceMatchesLiveSnapshot) {
  TraceRecorder rec;
  TrackHandle t = rec.RegisterTrack(WorkerTrack(0, "compute"));
  rec.Record(t, MakeSpan("batch", Category::kCompute, 0.0, 0.125));
  rec.Record(t, MakeSpan("drain", Category::kComm, 0.125, 0.0625));

  const auto live = WorkerAccounts(rec.Snapshot(), 1);
  std::stringstream io;
  ExportChromeTrace(rec, io);
  const auto exported = WorkerAccounts(ParseChromeTrace(io), 1);

  ASSERT_EQ(exported.size(), 1u);
  EXPECT_NEAR(exported[0].compute, live[0].compute, 1e-9);
  EXPECT_NEAR(exported[0].comm, live[0].comm, 1e-9);
  EXPECT_EQ(exported[0].spans, live[0].spans);
}

TEST(FabricTracing, DelayedDeliveriesRecordInFlightSpansAndMetrics) {
  Session session;
  {
    net::Fabric fabric(
        2, [](net::Rank, net::Rank, std::size_t) { return 0.002; });
    net::Message msg;
    msg.tag = 7;
    msg.data = {1.0f, 2.0f};
    fabric.Send(0, 1, std::move(msg));
    ASSERT_TRUE(fabric.RecvFor(1, 7, /*timeout=*/10.0).has_value());
  }  // destructor joins the timer thread → the "fabric" track is quiescent

  const auto tracks = session.Trace().Snapshot();
  const TraceRecorder::TrackView* fabric_track = nullptr;
  for (const auto& track : tracks) {
    if (track.name == "fabric") fabric_track = &track;
  }
  ASSERT_NE(fabric_track, nullptr);
  ASSERT_EQ(fabric_track->spans.size(), 1u);
  const Span& span = fabric_track->spans[0];
  EXPECT_STREQ(span.name, "in_flight");
  EXPECT_EQ(span.category, Category::kComm);
  EXPECT_GE(span.duration, 0.002);  // at least the injected latency
  ASSERT_STREQ(span.arg_keys[0], "to");
  EXPECT_DOUBLE_EQ(span.arg_vals[0], 1.0);

  EXPECT_EQ(session.Metrics().CounterValue("fabric.messages"), 1);
  EXPECT_EQ(session.Metrics().CounterValue("fabric.delayed_messages"), 1);
  EXPECT_GT(session.Metrics().CounterValue("fabric.bytes"), 0);
  EXPECT_EQ(session.Metrics().StatsFor("fabric.injected_delay_s").Count(), 1u);
}

TEST(Session, InstallsAndUninstallsBothSides) {
  ASSERT_EQ(ActiveTrace(), nullptr);
  ASSERT_EQ(ActiveMetrics(), nullptr);
  {
    Session session;
    EXPECT_EQ(ActiveTrace(), &session.Trace());
    EXPECT_EQ(ActiveMetrics(), &session.Metrics());
  }
  EXPECT_EQ(ActiveTrace(), nullptr);
  EXPECT_EQ(ActiveMetrics(), nullptr);
}

// The end-to-end contract: for a real training run, the per-worker
// compute/wait/comm derived purely from the trace must equal the engine's
// reported WorkerTimeBreakdown — both are fed by the same ScopedTimers.
// Every runner times its waits and communication into the same accounts
// its spans report, so the trace and the breakdown must agree for each of
// the five protocols.
class SessionTrace : public ::testing::TestWithParam<train::Protocol> {};

TEST_P(SessionTrace, TraceAgreesWithReportedBreakdown) {
  data::Dataset all = data::MakeGaussianClusters(600, 8, 4, 0.35, 7);
  auto [train_set, val_set] = all.SplitHoldout(0.2);
  train::ModelFactory factory = [](std::uint64_t model_seed) {
    return std::make_unique<nn::MlpClassifier>(
        std::vector<std::size_t>{8, 16, 4}, model_seed);
  };

  train::TrainerConfig config;
  config.protocol = GetParam();
  config.world = 3;
  config.max_rounds = 30;
  config.patience = 0;
  config.eval_period_s = 0.01;
  config.seed = 11;

  Session session;
  const train::TrainResult r =
      core::RunTraining(config, factory, train_set, val_set);
  const auto accounts =
      WorkerAccounts(session.Trace().Snapshot(), config.world);

  EXPECT_GT(session.Trace().TotalRecorded(), 0u);
  ASSERT_EQ(r.breakdown.size(), config.world);
  ASSERT_EQ(accounts.size(), config.world);
  for (std::size_t w = 0; w < config.world; ++w) {
    EXPECT_GT(accounts[w].spans, 0u) << "rank " << w;
    EXPECT_GT(r.breakdown[w].compute, 0.0) << "rank " << w;
    EXPECT_NEAR(accounts[w].compute, r.breakdown[w].compute, 1e-9);
    EXPECT_NEAR(accounts[w].wait, r.breakdown[w].wait, 1e-9);
    EXPECT_NEAR(accounts[w].comm, r.breakdown[w].comm, 1e-9);
  }

  // Horovod and AD-PSGD have no controller and record no round metrics.
  if (config.protocol == train::Protocol::kHorovod ||
      config.protocol == train::Protocol::kAdPsgd) {
    return;
  }
  // The engine's round metrics flow to the registry alongside the spans.
  EXPECT_EQ(session.Metrics().CounterValue("round.count"),
            static_cast<std::int64_t>(r.rounds));
  // Every rna-h group observes its own contributors, while only rank 0's
  // group counts the rounds.
  if (config.protocol != train::Protocol::kRnaHierarchical) {
    EXPECT_EQ(session.Metrics().StatsFor("round.contributors").Count(),
              r.rounds);
  }
}

std::string ProtocolParamName(
    const ::testing::TestParamInfo<train::Protocol>& info) {
  std::string name = train::ProtocolName(info.param);
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, SessionTrace,
    ::testing::Values(train::Protocol::kHorovod, train::Protocol::kEagerSgd,
                      train::Protocol::kAdPsgd, train::Protocol::kRna,
                      train::Protocol::kRnaHierarchical),
    ProtocolParamName);

}  // namespace
}  // namespace rna::obs
