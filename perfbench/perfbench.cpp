// The repository benchmark binary: runs one workload through the public
// front door core::RunTraining, checks the outputs, and prints every metric
// by name with its unit. The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": N, "failed": F, "metrics": {...}}
//
//   perfbench --workload mixed-hetero --seed 1 --seconds 20 --trace 0
//       timed mode: as many seeds (derived from --seed) as fit in --seconds,
//       each a fixed round budget in its own forked process, untraced;
//       end-to-end metrics are medians over those seeds.
//   perfbench --workload mixed-hetero --seed 1 --seconds 20 --trace 1
//       traced mode: one seed untraced and once more under an obs::Session,
//       plus a Horovod and a world-1 reference run; per-layer metrics come
//       from the TrainResult, the recorded spans and counters, and the
//       benchmark's own hooks (workloads.hpp). Writes the Perfetto trace and
//       the metrics JSONL to --trace-dir.
//
// Exit status: 0 when every check passed, 1 when an output check failed
// (the JSON line is still printed), 2 on a usage error.

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "rna/core/rna.hpp"
#include "rna/obs/export.hpp"
#include "rna/obs/session.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace obs = rna::obs;
namespace train = rna::train;

double Since(SteadyClock::time_point t0) {
  return std::chrono::duration<double>(SteadyClock::now() - t0).count();
}

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (rank - static_cast<double>(lo)) * (v[hi] - v[lo]);
}
double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// First monitor eval at or below `target` (seconds since training start).
std::optional<double> TimeToTarget(const train::TrainResult& r,
                                   double target) {
  for (const train::CurvePoint& p : r.curve) {
    if (p.loss <= target) return p.time;
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// One training run

struct Run {
  train::TrainResult result;
  std::size_t batch = 0;
  std::size_t world = 0;
  double setup_s = 0.0;
  std::optional<double> time_to_target;
  std::string failure;  ///< empty when the seed passed every check

  double SamplesPerS() const {
    return result.wall_seconds > 0.0
               ? static_cast<double>(result.gradients_applied * batch) /
                     result.wall_seconds
               : 0.0;
  }
};

/// Builds the task for `seed` and trains it; `edit` may adjust the config
/// (reference runs). Never throws: a throwing run is a failed run.
template <class Edit>
Run Train(const WorkloadSpec& spec, std::uint64_t seed, HookLedger* hooks,
          Edit edit, Task* task_out = nullptr) {
  Run run;
  try {
    const SteadyClock::time_point t0 = SteadyClock::now();
    Task task = MakeTask(spec.kind, seed, hooks);
    edit(task.config);
    const double data_s = Since(t0);
    run.batch = task.config.batch_size;
    run.world = task.config.world;
    const SteadyClock::time_point t1 = SteadyClock::now();
    run.result =
        rna::core::RunTraining(task.config, task.factory, task.train, task.val);
    const double call_s = Since(t1);
    run.setup_s = data_s + (call_s - run.result.wall_seconds);
    run.time_to_target = TimeToTarget(run.result, spec.target_loss);
    const train::TrainResult& r = run.result;
    if (r.live_workers != task.config.world) {
      run.failure = "lost a worker";
    } else if (!std::isfinite(r.final_loss)) {
      run.failure = "non-finite final loss";
    } else if (r.final_accuracy < spec.accuracy_floor) {
      run.failure = "final accuracy below floor";
    } else if (!run.time_to_target) {
      run.failure = "never reached target loss";
    }
    if (task_out != nullptr) *task_out = std::move(task);
  } catch (const std::exception& e) {
    run.failure = std::string("threw: ") + e.what();
  }
  return run;
}

Run Train(const WorkloadSpec& spec, std::uint64_t seed, HookLedger* hooks) {
  return Train(spec, seed, hooks, [](train::TrainerConfig&) {});
}

/// Seeds of one invocation: distinct per --seed, deterministic.
std::uint64_t SubSeed(std::uint64_t seed, std::size_t i) {
  return seed * 1000 + 1 + i;
}

// ---------------------------------------------------------------------------
// Output

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void PrintJson(bool correct, std::size_t attempted, std::size_t failed,
               const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), v, metrics[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

void PrintTable(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-40s %16.6g  %s\n", m.name.c_str(), m.value, m.unit);
  }
}

// ---------------------------------------------------------------------------
// Timed mode

/// What a seed's child process reports back through its pipe.
struct SeedReport {
  double wall_s = 0.0;
  double samples_per_s = 0.0;
  double time_to_target_s = NAN;
  double final_val_loss = 0.0;
  double final_val_accuracy = 0.0;
  double setup_s = 0.0;
  double peak_rss_mb = 0.0;
  std::uint64_t params_hash = 0;  ///< FNV-1a over the final params' bytes
  std::uint64_t controller_messages = 0;
  char failure[120] = {};         ///< empty when the seed passed
};

std::uint64_t HashBytes(const void* data, std::size_t n) {
  std::uint64_t h = 1469598103934665603ull;
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) h = (h ^ p[i]) * 1099511628211ull;
  return h;
}

/// Trains one seed in a forked child, so every seed starts from a fresh
/// heap: peak_rss_mb is that seed's own peak, and no seed inherits another's
/// allocator state. The parent never starts a thread, so fork is safe.
SeedReport TrainInChild(const WorkloadSpec& spec, std::uint64_t seed) {
  SeedReport rep;
  int fds[2];
  if (pipe(fds) != 0) {
    std::snprintf(rep.failure, sizeof(rep.failure), "pipe failed");
    return rep;
  }
  std::fflush(stdout);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    std::snprintf(rep.failure, sizeof(rep.failure), "fork failed");
    return rep;
  }
  if (pid == 0) {
    close(fds[0]);
    const Run r = Train(spec, seed, nullptr);
    SeedReport out;
    out.wall_s = r.result.wall_seconds;
    out.samples_per_s = r.SamplesPerS();
    out.time_to_target_s = r.time_to_target.value_or(NAN);
    out.final_val_loss = r.result.final_loss;
    out.final_val_accuracy = r.result.final_accuracy;
    out.setup_s = r.setup_s;
    out.peak_rss_mb = PeakRssMb();
    out.params_hash = HashBytes(r.result.final_params.data(),
                                r.result.final_params.size() * sizeof(float));
    out.controller_messages = r.result.controller_messages;
    std::snprintf(out.failure, sizeof(out.failure), "%s", r.failure.c_str());
    const char* p = reinterpret_cast<const char*>(&out);
    std::size_t left = sizeof(out);
    while (left > 0) {
      const ssize_t n = write(fds[1], p, left);
      if (n <= 0) _exit(1);
      p += n;
      left -= static_cast<std::size_t>(n);
    }
    _exit(0);
  }
  close(fds[1]);
  std::size_t got = 0;
  char* p = reinterpret_cast<char*>(&rep);
  while (got < sizeof(rep)) {
    const ssize_t n = read(fds[0], p + got, sizeof(rep) - got);
    if (n <= 0) break;
    got += static_cast<std::size_t>(n);
  }
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (got != sizeof(rep) || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    rep = SeedReport{};
    std::snprintf(rep.failure, sizeof(rep.failure),
                  "child process died (status %d)", status);
  }
  return rep;
}

int TimedMode(const WorkloadSpec& spec, std::uint64_t seed, double seconds) {
  constexpr std::size_t kMinRuns = 3;
  constexpr std::size_t kMaxRuns = 64;
  std::vector<SeedReport> runs;
  const SteadyClock::time_point start = SteadyClock::now();
  std::printf("workload %s, seed %llu, %.0f s budget\n", spec.name,
              static_cast<unsigned long long>(seed), seconds);
  std::printf("  %-8s %9s %12s %10s %9s %8s %9s %8s  %s\n", "seed", "wall_s",
              "samples/s", "ttt_s", "val_loss", "val_acc", "setup_s",
              "rss_mb", "status");
  while (runs.size() < kMaxRuns) {
    const double elapsed = Since(start);
    if (runs.size() >= kMinRuns) {
      const double per_run = elapsed / static_cast<double>(runs.size());
      if (elapsed + per_run > seconds) break;
    }
    const std::uint64_t s = SubSeed(seed, runs.size());
    runs.push_back(TrainInChild(spec, s));
    const SeedReport& r = runs.back();
    std::printf("  %-8llu %9.3f %12.1f %10.4f %9.4f %8.4f %9.4f %8.2f  %s\n",
                static_cast<unsigned long long>(s), r.wall_s, r.samples_per_s,
                r.time_to_target_s, r.final_val_loss, r.final_val_accuracy,
                r.setup_s, r.peak_rss_mb, r.failure[0] ? r.failure : "ok");
  }
  const double measured_s = Since(start);

  std::size_t failed = 0;
  std::vector<double> sps, ttt, loss, acc, setup, rss;
  for (const SeedReport& r : runs) {
    if (r.failure[0] != '\0') {
      ++failed;
      continue;
    }
    sps.push_back(r.samples_per_s);
    ttt.push_back(r.time_to_target_s);
    loss.push_back(r.final_val_loss);
    acc.push_back(r.final_val_accuracy);
    setup.push_back(r.setup_s);
    rss.push_back(r.peak_rss_mb);
  }

  // Output check: lockstep runs are a pure function of the seed, so a
  // replay of the first seed must reproduce its parameters bit for bit and
  // its controller message count exactly.
  bool replay_ok = true;
  if (spec.kind == Kind::kLockstepComm && !runs.empty() &&
      runs.front().failure[0] == '\0') {
    const SeedReport again = TrainInChild(spec, SubSeed(seed, 0));
    replay_ok = again.failure[0] == '\0' &&
                again.params_hash == runs.front().params_hash &&
                again.controller_messages == runs.front().controller_messages;
    std::printf("  replay of seed %llu: %s (params hash %016llx vs %016llx, "
                "controller messages %llu vs %llu)\n",
                static_cast<unsigned long long>(SubSeed(seed, 0)),
                replay_ok ? "bitwise-equal" : "MISMATCH",
                static_cast<unsigned long long>(runs.front().params_hash),
                static_cast<unsigned long long>(again.params_hash),
                static_cast<unsigned long long>(
                    runs.front().controller_messages),
                static_cast<unsigned long long>(again.controller_messages));
  }

  const std::vector<Metric> metrics = {
      {"samples_per_s", Median(sps), "samples/s"},
      {"time_to_target_s", Median(ttt), "s"},
      {"final_val_loss", Median(loss), "nats"},
      {"final_val_accuracy", Median(acc), "fraction"},
      {"setup_s", Median(setup), "s"},
      {"peak_rss_mb", Median(rss), "MB"},
  };
  char title[160];
  std::snprintf(title, sizeof(title),
                "%s: medians over %zu seeds (%zu attempted, %zu failed) "
                "in %.1f s",
                spec.name, sps.size(), runs.size(), failed, measured_s);
  PrintTable(title, metrics);
  const bool correct = failed == 0 && replay_ok && !runs.empty();
  PrintJson(correct, runs.size(), failed, metrics);
  return correct ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Traced mode: trace queries

using Tracks = std::vector<obs::TraceRecorder::TrackView>;

bool EndsWith(const std::string& s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}
bool IsWorkerTrack(const std::string& s, std::string_view role) {
  return s.rfind("worker", 0) == 0 && EndsWith(s, role);
}

/// Durations (µs) of every span named `name` on tracks accepted by `pick`.
template <class Pick>
std::vector<double> SpanUs(const Tracks& tracks, Pick pick,
                           std::string_view name) {
  std::vector<double> out;
  for (const auto& t : tracks) {
    if (!pick(t.name)) continue;
    for (const obs::Span& s : t.spans) {
      if (name == s.name) out.push_back(s.duration * 1e6);
    }
  }
  return out;
}

double SpanArg(const obs::Span& s, std::string_view key) {
  for (int i = 0; i < 2; ++i) {
    if (s.arg_keys[i] != nullptr && key == s.arg_keys[i]) {
      return s.arg_vals[i];
    }
  }
  return 0.0;
}

struct Window {
  double start;
  double end;
};

/// Length of the union of `spans` clipped to `w`.
double Covered(std::vector<Window> spans, Window w) {
  std::sort(spans.begin(), spans.end(),
            [](const Window& a, const Window& b) { return a.start < b.start; });
  double covered = 0.0;
  double reach = w.start;
  for (const Window& s : spans) {
    const double lo = std::max(s.start, reach);
    const double hi = std::min(s.end, w.end);
    if (hi > lo) {
      covered += hi - lo;
      reach = hi;
    }
  }
  return covered;
}

struct Traced {
  std::vector<Metric> metrics;
  std::vector<std::string> problems;  ///< failed checks
};

/// Per-layer metrics of one traced run (see README.md for each source).
Traced AnalyzeTrace(const Run& run, const Task& task,
                    const obs::Session& session,
                    std::vector<HookLedger::Replica> replicas) {
  Traced out;
  auto add = [&](std::string name, double value, const char* unit) {
    out.metrics.push_back({std::move(name), value, unit});
  };
  const train::TrainResult& r = run.result;
  const obs::TraceRecorder& rec = session.Trace();
  const obs::MetricsRegistry& reg = session.Metrics();
  const Tracks tracks = rec.Snapshot();
  const double rounds = static_cast<double>(std::max<std::size_t>(1, r.rounds));
  const std::size_t world = task.config.world;

  auto controller = [](const std::string& n) {
    return EndsWith(n, "controller");
  };
  auto comm = [](const std::string& n) { return IsWorkerTrack(n, "/comm"); };

  // core
  const std::vector<double> round_us = SpanUs(tracks, controller, "round");
  add("core.round_us.p50", Quantile(round_us, 0.5), "us");
  add("core.round_us.p99", Quantile(round_us, 0.99), "us");
  add("core.probe_wait_us.p50",
      Median(SpanUs(tracks, controller, "probe_wait")), "us");
  add("core.controller_busy_us_per_round",
      r.controller_busy_seconds * 1e6 / rounds, "us");
  add("core.controller_msgs_per_round",
      static_cast<double>(r.controller_messages) / rounds, "count");
  add("core.contributors_mean", r.MeanContributors(), "count");

  // train: the Figure 1 split from the engine's own breakdown.
  double compute = 0.0, wait = 0.0, comm_s = 0.0;
  for (const train::WorkerTimeBreakdown& b : r.breakdown) {
    compute += b.compute;
    wait += b.wait;
    comm_s += b.comm;
  }
  const double split = std::max(1e-12, compute + wait + comm_s);
  add("train.compute_share", compute / split, "fraction");
  add("train.wait_share", wait / split, "fraction");
  add("train.comm_share", comm_s / split, "fraction");
  add("train.dropped_ratio",
      static_cast<double>(r.gradients_dropped) /
          static_cast<double>(
              std::max<std::size_t>(1, r.gradients_applied +
                                           r.gradients_dropped)),
      "fraction");

  // Hook intervals on the trace's clock, per replica.
  std::vector<std::vector<Window>> fb(replicas.size());
  std::vector<double> fb_us, evaluate_us;
  auto us = [](const HookLedger::Interval& iv) {
    return std::chrono::duration<double, std::micro>(iv.end - iv.start).count();
  };
  for (std::size_t i = 0; i < replicas.size(); ++i) {
    for (const HookLedger::Interval& iv : replicas[i].forward_backward) {
      fb[i].push_back({rec.SinceEpoch(iv.start), rec.SinceEpoch(iv.end)});
      fb_us.push_back(us(iv));
    }
    for (const HookLedger::Interval& iv : replicas[i].evaluate) {
      evaluate_us.push_back(us(iv));
    }
  }

  // Batch spans per compute track, matched to the replica whose
  // ForwardBackward calls they contain (one replica per compute thread).
  std::vector<double> overhead_us, gap_us;
  std::map<std::string, std::size_t> replica_of;  // compute track → replica
  double batch_s = 0.0, delay_s = 0.0;
  std::size_t batch_spans = 0;
  for (const auto& t : tracks) {
    if (!IsWorkerTrack(t.name, "/compute")) continue;
    std::vector<const obs::Span*> batches;
    for (const obs::Span& s : t.spans) {
      if (std::strcmp(s.name, "batch") == 0) batches.push_back(&s);
    }
    batch_spans += batches.size();
    for (std::size_t k = 0; k < batches.size(); ++k) {
      batch_s += batches[k]->duration;
      delay_s += SpanArg(*batches[k], "delay_s");
      if (k > 0) {
        const obs::Span& prev = *batches[k - 1];
        gap_us.push_back(
            (batches[k]->start - (prev.start + prev.duration)) * 1e6);
      }
    }
    // Two-pointer containment count of each replica against this track.
    std::size_t best = replicas.size(), best_hits = 0;
    std::vector<const Window*> best_match;
    for (std::size_t i = 0; i < fb.size(); ++i) {
      std::vector<const Window*> match(batches.size(), nullptr);
      std::size_t hits = 0, j = 0;
      for (std::size_t k = 0; k < batches.size(); ++k) {
        const double lo = batches[k]->start;
        const double hi = lo + batches[k]->duration;
        while (j < fb[i].size() && fb[i][j].start < lo) ++j;
        if (j < fb[i].size() && fb[i][j].end <= hi) {
          match[k] = &fb[i][j];
          ++hits;
        }
      }
      if (hits > best_hits) {
        best = i;
        best_hits = hits;
        best_match = std::move(match);
      }
    }
    if (best == replicas.size() || best_hits != batches.size()) {
      out.problems.push_back("hook intervals matched " +
                             std::to_string(best_hits) + " of " +
                             std::to_string(batches.size()) +
                             " batch spans on " + t.name);
      continue;
    }
    replica_of[t.name] = best;
    for (std::size_t k = 0; k < batches.size(); ++k) {
      const Window& f = *best_match[k];
      overhead_us.push_back((batches[k]->duration - (f.end - f.start) -
                             SpanArg(*batches[k], "delay_s")) *
                            1e6);
    }
  }
  add("train.step_overhead_us.p50", Median(overhead_us), "us");
  add("train.inter_batch_gap_us.p50", Median(gap_us), "us");

  // Comm-thread self time: the track's active interval minus its spans,
  // per round (one wait_trigger per round the thread joined).
  std::vector<double> self_per_round;
  for (const auto& t : tracks) {
    if (!comm(t.name) || t.spans.empty()) continue;
    std::vector<Window> spans;
    std::size_t waits = 0;
    for (const obs::Span& s : t.spans) {
      spans.push_back({s.start, s.start + s.duration});
      if (std::strcmp(s.name, "wait_trigger") == 0) ++waits;
    }
    const Window active{t.spans.front().start,
                        t.spans.back().start + t.spans.back().duration};
    const double self = (active.end - active.start) - Covered(spans, active);
    self_per_round.push_back(self * 1e6 /
                             static_cast<double>(std::max<std::size_t>(1, waits)));
  }
  double comm_self = 0.0;
  for (double v : self_per_round) comm_self += v;
  add("train.comm_self_us_per_round",
      self_per_round.empty() ? 0.0
                             : comm_self /
                                   static_cast<double>(self_per_round.size()),
      "us");

  // collectives
  const std::vector<double> allreduce_us =
      SpanUs(tracks, comm, "partial_allreduce");
  add("collectives.allreduce_us.p50", Quantile(allreduce_us, 0.5), "us");
  add("collectives.allreduce_us.p99", Quantile(allreduce_us, 0.99), "us");
  add("collectives.broadcast_us.p50",
      Median(SpanUs(tracks, comm, "group_broadcast")), "us");

  // net
  add("net.messages_per_round",
      static_cast<double>(reg.CounterValue("fabric.messages")) / rounds,
      "count");
  add("net.bytes_per_round",
      static_cast<double>(reg.CounterValue("fabric.bytes")) / rounds, "B");
  add("net.pool_hit_rate", reg.GaugeValue("fabric.pool.hit_rate"),
      "fraction");

  // ps
  const std::vector<double> push_pull_us = SpanUs(tracks, comm, "ps_push_pull");
  add("ps.push_pull_us.p50", Quantile(push_pull_us, 0.5), "us");
  add("ps.push_pull_us.p99", Quantile(push_pull_us, 0.99), "us");
  add("ps.serve_us.p50",
      Median(SpanUs(
          tracks, [](const std::string& n) { return n == "ps"; },
          "serve_request")),
      "us");
  add("ps.requests_per_round",
      static_cast<double>(reg.CounterValue("ps.requests")) / rounds, "count");
  add("ps.retries", static_cast<double>(reg.CounterValue("ps.retries")),
      "count");

  // nn (benchmark hooks) + the monitor's eval spans
  add("nn.fwd_bwd_us.p50", Quantile(fb_us, 0.5), "us");
  add("nn.fwd_bwd_us.p99", Quantile(fb_us, 0.99), "us");
  add("nn.fwd_bwd_calls", static_cast<double>(fb_us.size()), "count");
  add("nn.evaluate_us.p50", Median(evaluate_us), "us");
  std::vector<double> eval_ms =
      SpanUs(tracks, [](const std::string& n) { return n == "monitor"; },
             "eval");
  for (double& v : eval_ms) v /= 1e3;
  add("nn.eval_ms.p50", Median(eval_ms), "ms");

  // sim: the injected delay is the workload's input — a sanity check.
  add("sim.injected_delay_share", batch_s > 0.0 ? delay_s / batch_s : 0.0,
      "fraction");
  if (task.delay_probe) {
    // Every drawn delay lands in a batch span, except the rna-h free-running
    // calibration batches, which are deliberately untraced.
    const bool calibrates =
        task.config.protocol == train::Protocol::kRnaHierarchical &&
        !task.config.lockstep;
    const std::uint64_t expected =
        batch_spans + (calibrates ? world * task.config.calibration_iters : 0);
    if (task.delay_probe->Calls() != expected) {
      out.problems.push_back(
          "delay probe saw " + std::to_string(task.delay_probe->Calls()) +
          " draws, trace implies " + std::to_string(expected));
    }
  }

  // obs
  add("obs.spans_dropped", static_cast<double>(rec.TotalDropped()), "count");
  if (rec.TotalDropped() != 0) {
    out.problems.push_back("trace ring dropped " +
                           std::to_string(rec.TotalDropped()) + " spans");
  }

  // Ledger: the engine's breakdown must agree with the span query, and
  // whatever no span (or hook) covers on the worker threads is reported.
  const std::vector<obs::TimeAccount> accounts =
      obs::WorkerAccounts(tracks, world);
  double worst = 0.0;
  for (std::size_t w = 0; w < world && w < r.breakdown.size(); ++w) {
    const train::WorkerTimeBreakdown& b = r.breakdown[w];
    const obs::TimeAccount& a = accounts[w];
    const double total = std::max(1e-9, b.compute + b.wait + b.comm);
    for (const auto& [x, y] : {std::pair{b.compute, a.compute},
                               std::pair{b.wait, a.wait},
                               std::pair{b.comm, a.comm}}) {
      worst = std::max(worst, std::abs(x - y) / total);
    }
  }
  add("ledger.breakdown_max_rel_err", worst, "fraction");
  if (worst > 0.05) {
    out.problems.push_back("breakdown and WorkerAccounts differ by " +
                           std::to_string(worst * 100) + "% of a worker");
  }
  std::optional<Window> train_window;
  for (const auto& t : tracks) {
    if (t.name != "main") continue;
    for (const obs::Span& s : t.spans) {
      if (std::strcmp(s.name, "train_total") == 0) {
        train_window = Window{s.start, s.start + s.duration};
      }
    }
  }
  double thread_wall = 0.0, thread_covered = 0.0;
  if (train_window) {
    for (const auto& t : tracks) {
      if (!IsWorkerTrack(t.name, "/compute") && !comm(t.name)) continue;
      std::vector<Window> spans;
      for (const obs::Span& s : t.spans) {
        spans.push_back({s.start, s.start + s.duration});
      }
      // A compute thread's own model calls: inside its batch spans, except
      // the arena-pinning warm-up before the first one.
      if (const auto it = replica_of.find(t.name); it != replica_of.end()) {
        spans.insert(spans.end(), fb[it->second].begin(),
                     fb[it->second].end());
      }
      thread_wall += train_window->end - train_window->start;
      thread_covered += Covered(std::move(spans), *train_window);
    }
  } else {
    out.problems.push_back("no train_total span on the main track");
  }
  add("ledger.unattributed_share",
      thread_wall > 0.0 ? 1.0 - thread_covered / thread_wall : 0.0,
      "fraction");
  return out;
}

// ---------------------------------------------------------------------------
// Traced mode

int TracedMode(const WorkloadSpec& spec, std::uint64_t seed,
               const std::string& trace_dir) {
  const std::uint64_t s = SubSeed(seed, 0);
  std::vector<std::string> problems;
  // Reference runs only inform; a failed check there fails nothing unless
  // the run itself broke (threw or lost a worker).
  auto check_run = [&](const char* what, const Run& r, bool gating = true) {
    std::printf("  %-10s wall %.3f s, %.1f samples/s, ttt %.4f s, "
                "val loss %.4f, acc %.4f  %s\n",
                what, r.result.wall_seconds, r.SamplesPerS(),
                r.time_to_target.value_or(NAN), r.result.final_loss,
                r.result.final_accuracy,
                r.failure.empty() ? "ok" : r.failure.c_str());
    const bool broke = r.failure.rfind("threw", 0) == 0 ||
                       r.failure == "lost a worker";
    if (!r.failure.empty() && (gating || broke)) {
      problems.push_back(std::string(what) + ": " + r.failure);
    }
  };
  std::printf("workload %s, seed %llu, traced\n", spec.name,
              static_cast<unsigned long long>(s));

  // Untraced twin first: the overhead base and the RNA time to target.
  const Run plain = Train(spec, s, nullptr);
  check_run("untraced", plain);

  // Traced run. Every span must fit: the busiest track of any workload
  // records well under this many at these budgets, and a drop fails the run.
  const std::size_t capacity = std::size_t{1} << 17;
  HookLedger hooks;
  Task task;
  Run traced;
  std::vector<HookLedger::Replica> replicas;
  Traced layers;
  {
    obs::Session session(capacity);
    traced = Train(
        spec, s, &hooks, [](train::TrainerConfig&) {}, &task);
    check_run("traced", traced);
    replicas = hooks.Take();
    if (traced.failure.empty() || traced.result.rounds > 0) {
      layers = AnalyzeTrace(traced, task, session, std::move(replicas));
    }
    std::filesystem::create_directories(trace_dir);
    const std::string base = trace_dir + "/" + spec.name + "-seed" +
                             std::to_string(s);
    session.ExportTrace(base + ".trace.json");
    session.ExportMetrics(base + ".metrics.jsonl");
    std::printf("  wrote %s.trace.json (%llu spans, %llu dropped)\n",
                base.c_str(),
                static_cast<unsigned long long>(session.Trace().TotalRecorded()),
                static_cast<unsigned long long>(session.Trace().TotalDropped()));
  }
  for (const std::string& p : layers.problems) problems.push_back(p);

  std::vector<Metric>& m = layers.metrics;
  const double plain_sps = plain.SamplesPerS();
  m.push_back({"obs.trace_overhead",
               plain_sps > 0.0 ? 1.0 - traced.SamplesPerS() / plain_sps : 0.0,
               "fraction"});

  // Reference runs (informational): Horovod to the same target, and a
  // world-1 run of the same task for scaling efficiency.
  const Run horovod = Train(spec, s, nullptr, [&](train::TrainerConfig& c) {
    c.protocol = train::Protocol::kHorovod;
    c.target_loss = spec.target_loss;
  });
  check_run("horovod", horovod, false);
  const double hvd_ttt = horovod.time_to_target.value_or(NAN);
  m.push_back({"baselines.horovod_time_to_target_s", hvd_ttt, "s"});
  m.push_back({"baselines.speedup_vs_horovod",
               plain.time_to_target ? hvd_ttt / *plain.time_to_target : 0.0,
               "x"});
  const Run solo = Train(spec, s, nullptr, [](train::TrainerConfig& c) {
    c.world = 1;
    c.probe_choices = 1;
    c.max_rounds /= 4;
    if (c.delay_model) {
      c.delay_model = std::make_shared<rna::sim::TieredJitterModel>(
          0.001, std::vector<double>{1.0}, 0.0, 0.001);
    }
  });
  check_run("world-1", solo, false);
  m.push_back({"core.scaling_efficiency",
               solo.SamplesPerS() > 0.0
                   ? plain_sps / (static_cast<double>(plain.world) *
                                  solo.SamplesPerS())
                   : 0.0,
               "fraction"});

  PrintTable("per-layer metrics", m);
  for (const std::string& p : problems) std::printf("  CHECK FAILED: %s\n", p.c_str());
  const std::size_t failed = (plain.failure.empty() ? 0 : 1) +
                             (traced.failure.empty() ? 0 : 1);
  const bool correct = problems.empty();
  PrintJson(correct, 2, failed, m);
  return correct ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <mixed-hetero|lstm-imbalance|"
               "lockstep-comm> --seed <n> --seconds <s> --trace <0|1> "
               "[--trace-dir <dir>]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::map<std::string, std::string> args = {{"--seed", "1"},
                                             {"--seconds", "10"},
                                             {"--trace", "0"},
                                             {"--trace-dir", "traces"}};
  std::string workload;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) return Usage();
    if (key == "--workload") {
      workload = argv[++i];
    } else if (args.count(key) != 0) {
      args[key] = argv[++i];
    } else {
      return Usage();
    }
  }
  const WorkloadSpec* spec = FindWorkload(workload);
  if (spec == nullptr) return Usage();
  std::uint64_t seed = 0;
  double seconds = 0.0;
  try {
    seed = std::stoull(args["--seed"]);
    seconds = std::stod(args["--seconds"]);
  } catch (const std::exception&) {
    return Usage();
  }
  if (args["--trace"] == "1") {
    return TracedMode(*spec, seed, args["--trace-dir"]);
  }
  if (args["--trace"] != "0") return Usage();
  return TimedMode(*spec, seed, seconds);
}
