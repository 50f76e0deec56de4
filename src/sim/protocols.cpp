#include "rna/sim/protocols.hpp"

#include <algorithm>
#include <functional>

#include "rna/common/check.hpp"

namespace rna::sim {

namespace {

/// Cross-iteration worker state shared by the RNA / eager models: the
/// compute thread runs batches back-to-back, buffering up to
/// `staleness_bound` gradients; when the buffer is full the oldest gradient
/// is overwritten (paper §3.3: stale data outside the bound is dropped).
struct PipelinedWorker {
  Seconds next_done = 0.0;    ///< completion time of the batch in flight
  std::size_t backlog = 0;    ///< gradients buffered and not yet reduced
  Seconds computed = 0.0;     ///< total compute time accrued
  std::size_t dropped = 0;    ///< gradients overwritten by the bound
};

/// Advances worker `w`'s compute thread to time `t`.
void AdvanceTo(PipelinedWorker& w, std::size_t worker_idx, Seconds t,
               std::size_t bound, const IterationTimeModel& model,
               common::Rng& rng, std::size_t* iteration_counter) {
  while (w.next_done <= t) {
    if (w.backlog == bound) {
      ++w.dropped;  // overwrite the oldest buffered gradient
    } else {
      ++w.backlog;
    }
    const Seconds dur = model.Sample(worker_idx, (*iteration_counter)++, rng);
    w.computed += dur;
    w.next_done += dur;
  }
}

}  // namespace

SimResult SimulateBsp(const SimConfig& config,
                      const IterationTimeModel& model) {
  RNA_CHECK(config.world > 0);
  common::Rng rng(config.seed);
  SimResult result;
  result.breakdown.resize(config.world);
  const Seconds ring =
      config.comm.RingAllreduce(config.world, config.model_bytes);

  Seconds now = 0.0;
  for (std::size_t round = 0; round < config.rounds; ++round) {
    Seconds slowest = 0.0;
    std::vector<Seconds> times(config.world);
    for (std::size_t w = 0; w < config.world; ++w) {
      times[w] = model.Sample(w, round, rng);
      slowest = std::max(slowest, times[w]);
    }
    for (std::size_t w = 0; w < config.world; ++w) {
      result.breakdown[w].compute += times[w];
      result.breakdown[w].wait += slowest - times[w];
      result.breakdown[w].comm += ring;
    }
    now += slowest + ring;
    result.gradients_applied += config.world;
  }
  result.total_time = now;
  result.rounds = config.rounds;
  return result;
}

SimResult SimulateRna(const SimConfig& config, const IterationTimeModel& model,
                      const RnaSimOptions& options) {
  RNA_CHECK(config.world > 0 && options.probe_choices > 0);
  common::Rng rng(config.seed);
  SimResult result;
  result.breakdown.resize(config.world);
  const Seconds ring =
      config.comm.RingAllreduce(config.world, config.model_bytes);

  std::vector<PipelinedWorker> workers(config.world);
  std::vector<std::size_t> iter_counters(config.world, 0);
  for (std::size_t w = 0; w < config.world; ++w) {
    const Seconds dur = model.Sample(w, iter_counters[w]++, rng);
    workers[w].next_done = dur;
    workers[w].computed = 0.0;  // accrued on completion via AdvanceTo
    // Account the in-flight batch's compute when it completes; AdvanceTo
    // adds durations as they are *started*, so pre-add the first one here.
    workers[w].computed = dur;
  }

  Seconds now = 0.0;
  for (std::size_t round = 0; round < config.rounds; ++round) {
    // Probe q random workers; each replies at the first moment it has a
    // gradient buffered. The earliest reply triggers the collective.
    const auto probed =
        rng.SampleWithoutReplacement(config.world,
                                     std::min(options.probe_choices,
                                              config.world));
    Seconds trigger = -1.0;
    for (std::size_t p : probed) {
      AdvanceTo(workers[p], p, now, options.staleness_bound, model, rng,
                &iter_counters[p]);
      const Seconds reply =
          workers[p].backlog > 0 ? now : workers[p].next_done;
      if (trigger < 0.0 || reply < trigger) trigger = reply;
    }
    trigger +=
        options.probe_overhead * static_cast<double>(probed.size());

    // Everyone joins the collective at `trigger`; workers with a buffered
    // gradient contribute, the rest pass null.
    for (std::size_t w = 0; w < config.world; ++w) {
      AdvanceTo(workers[w], w, trigger, options.staleness_bound, model, rng,
                &iter_counters[w]);
      if (workers[w].backlog > 0) {
        result.gradients_applied += workers[w].backlog;
        workers[w].backlog = 0;
      }
      result.gradients_dropped += workers[w].dropped;
      workers[w].dropped = 0;
      result.breakdown[w].comm += ring;
    }
    now = trigger + ring;
  }

  for (std::size_t w = 0; w < config.world; ++w) {
    // Compute overlaps communication; whatever of the accrued compute time
    // exceeds the horizon was speculative pipeline fill and is clipped.
    result.breakdown[w].compute = std::min(workers[w].computed, now);
    result.breakdown[w].wait =
        std::max(0.0, now - result.breakdown[w].compute);
  }
  result.total_time = now;
  result.rounds = config.rounds;
  return result;
}

SimResult SimulateEagerMajority(const SimConfig& config,
                                const IterationTimeModel& model,
                                std::size_t staleness_bound) {
  RNA_CHECK(config.world > 0);
  common::Rng rng(config.seed);
  SimResult result;
  result.breakdown.resize(config.world);
  const Seconds ring =
      config.comm.RingAllreduce(config.world, config.model_bytes);
  const std::size_t majority = config.world / 2 + 1;

  std::vector<PipelinedWorker> workers(config.world);
  std::vector<std::size_t> iter_counters(config.world, 0);
  for (std::size_t w = 0; w < config.world; ++w) {
    const Seconds dur = model.Sample(w, iter_counters[w]++, rng);
    workers[w].next_done = dur;
    workers[w].computed = dur;
  }

  Seconds now = 0.0;
  for (std::size_t round = 0; round < config.rounds; ++round) {
    // The collective triggers when `majority` workers have a gradient:
    // the majority-th smallest "first gradient available" time.
    std::vector<Seconds> available(config.world);
    for (std::size_t w = 0; w < config.world; ++w) {
      AdvanceTo(workers[w], w, now, staleness_bound, model, rng,
                &iter_counters[w]);
      available[w] = workers[w].backlog > 0 ? now : workers[w].next_done;
    }
    std::vector<Seconds> sorted = available;
    std::nth_element(sorted.begin(), sorted.begin() + (majority - 1),
                     sorted.end());
    const Seconds trigger = sorted[majority - 1];

    for (std::size_t w = 0; w < config.world; ++w) {
      AdvanceTo(workers[w], w, trigger, staleness_bound, model, rng,
                &iter_counters[w]);
      if (workers[w].backlog > 0) {
        result.gradients_applied += workers[w].backlog;
        workers[w].backlog = 0;
      }
      result.gradients_dropped += workers[w].dropped;
      workers[w].dropped = 0;
      result.breakdown[w].comm += ring;
    }
    now = trigger + ring;
  }

  for (std::size_t w = 0; w < config.world; ++w) {
    result.breakdown[w].compute = std::min(workers[w].computed, now);
    result.breakdown[w].wait =
        std::max(0.0, now - result.breakdown[w].compute);
  }
  result.total_time = now;
  result.rounds = config.rounds;
  return result;
}

SimResult SimulateAdPsgd(const SimConfig& config,
                         const IterationTimeModel& model) {
  RNA_CHECK(config.world > 1);
  common::Rng rng(config.seed);
  SimResult result;
  result.breakdown.resize(config.world);
  const Seconds exchange = config.comm.PointToPoint(config.model_bytes);
  const std::size_t target_iterations = config.rounds * config.world;

  Engine engine;
  std::vector<Seconds> lock_free_at(config.world, 0.0);
  std::size_t completed = 0;
  Seconds finish_time = 0.0;

  // One self-scheduling loop per worker. The atomic pairwise average holds
  // both participants' model locks; a busy peer delays the exchange — the
  // synchronization overhead the paper attributes to AD-PSGD (§2.2, §9).
  std::function<void(std::size_t, std::size_t)> compute_done =
      [&](std::size_t w, std::size_t iter) {
        if (completed >= target_iterations) return;
        const Seconds now = engine.Now();
        std::size_t peer = rng.UniformInt(config.world - 1);
        if (peer >= w) ++peer;
        const Seconds start = std::max({now, lock_free_at[w],
                                        lock_free_at[peer]});
        const Seconds end = start + exchange;
        lock_free_at[w] = end;
        lock_free_at[peer] = end;
        result.breakdown[w].wait += start - now;
        result.breakdown[w].comm += exchange;
        ++completed;
        ++result.gradients_applied;
        finish_time = std::max(finish_time, end);
        if (completed >= target_iterations) return;
        const Seconds dur = model.Sample(w, iter + 1, rng);
        result.breakdown[w].compute += dur;
        engine.ScheduleAt(end + dur,
                          [&, w, iter] { compute_done(w, iter + 1); });
      };

  for (std::size_t w = 0; w < config.world; ++w) {
    const Seconds dur = model.Sample(w, 0, rng);
    result.breakdown[w].compute += dur;
    engine.ScheduleAt(dur, [&, w] { compute_done(w, 0); });
  }
  engine.Run();

  result.total_time = std::max(finish_time, engine.Now());
  result.rounds = config.rounds;
  return result;
}

std::vector<double> ProbeResponseTimes(std::size_t world, std::size_t choices,
                                       std::size_t rounds,
                                       const IterationTimeModel& tasks,
                                       Seconds probe_overhead,
                                       std::uint64_t seed) {
  RNA_CHECK(world > 0 && choices > 0 && choices <= world);
  common::Rng rng(seed);

  // Workers process tasks back-to-back; `next_done[w]` is the completion
  // time of the task in flight.
  std::vector<Seconds> next_done(world);
  std::vector<std::size_t> iter(world, 0);
  for (std::size_t w = 0; w < world; ++w) {
    next_done[w] = tasks.Sample(w, iter[w]++, rng);
  }

  std::vector<double> responses;
  responses.reserve(rounds);
  Seconds now = 0.0;
  for (std::size_t round = 0; round < rounds; ++round) {
    const auto probed = rng.SampleWithoutReplacement(world, choices);
    Seconds earliest = -1.0;
    for (std::size_t p : probed) {
      while (next_done[p] <= now) {
        next_done[p] += tasks.Sample(p, iter[p]++, rng);
      }
      if (earliest < 0.0 || next_done[p] < earliest) earliest = next_done[p];
    }
    const Seconds response =
        (earliest - now) + probe_overhead * static_cast<double>(choices);
    responses.push_back(response);
    now = earliest + probe_overhead * static_cast<double>(choices);
  }
  return responses;
}

LongTailModel ProbeBenchmarkTasks() {
  // Log-normal with arithmetic mean 30 ms and log-σ 1.5
  // (arithmetic stddev = mean · sqrt(e^{σ²}−1) ≈ 87 ms), clamped to
  // [6 ms, 400 ms] — calibrated against §8.4's reported medians.
  return LongTailModel(0.030, 0.087, 0.006, 0.4);
}

const std::vector<ModelSpec>& PaperModels() {
  // base_iteration values calibrated so CopyModel (6 GB/s effective PCIe)
  // reproduces Table 5's copy-overhead percentages; LSTM matches the
  // Figure 2(b) mean batch time.
  static const std::vector<ModelSpec> kModels = {
      {"resnet50", 25'559'081, 0.550},
      {"vgg16", 138'357'544, 0.800},
      {"lstm", 34'663'525, 1.219},
      {"transformer", 61'362'176, 0.455},
  };
  return kModels;
}

const ModelSpec& FindModel(const std::string& name) {
  for (const auto& m : PaperModels()) {
    if (m.name == name) return m;
  }
  RNA_CHECK_MSG(false, "unknown model: " + name);
  // Unreachable; RNA_CHECK_MSG throws.
  return PaperModels().front();
}

}  // namespace rna::sim
