#include "rna/train/config.hpp"

#include <sstream>

namespace rna::train {

const char* ProtocolName(Protocol p) {
  switch (p) {
    case Protocol::kHorovod:
      return "horovod";
    case Protocol::kEagerSgd:
      return "eager-sgd";
    case Protocol::kAdPsgd:
      return "ad-psgd";
    case Protocol::kRna:
      return "rna";
    case Protocol::kRnaHierarchical:
      return "rna-h";
  }
  return "?";
}

std::optional<Protocol> ParseProtocol(std::string_view name) {
  if (name == "horovod") return Protocol::kHorovod;
  if (name == "eager-sgd" || name == "eager") return Protocol::kEagerSgd;
  if (name == "ad-psgd" || name == "adpsgd") return Protocol::kAdPsgd;
  if (name == "rna") return Protocol::kRna;
  if (name == "rna-h") return Protocol::kRnaHierarchical;
  return std::nullopt;
}

std::string TrainerConfig::Validate() const {
  std::ostringstream why;
  if (world == 0) {
    why << "world must be >= 1 (got 0)";
  } else if (batch_size == 0) {
    why << "batch_size must be >= 1 (got 0)";
  } else if (max_rounds == 0) {
    why << "max_rounds must be >= 1 (got 0)";
  } else if (probe_choices == 0) {
    why << "probe_choices must be >= 1 (got 0)";
  } else if (probe_choices > world) {
    why << "probe_choices (" << probe_choices << ") cannot exceed world ("
        << world << "): the controller samples distinct workers";
  } else if (staleness_bound == 0) {
    why << "staleness_bound must be >= 1 (got 0): the stage needs room for "
           "at least the newest gradient";
  } else if (eval_period_s <= 0.0) {
    why << "eval_period_s must be positive (got " << eval_period_s << ")";
  } else if (eval_samples == 0) {
    why << "eval_samples must be >= 1 (got 0)";
  } else if (lr_decay_factor < 0.0) {
    // factor == 0 is allowed: tests freeze training by decaying LR to zero.
    why << "lr_decay_factor must be non-negative (got " << lr_decay_factor
        << ")";
  } else if (delay_scale < 0.0) {
    why << "delay_scale must be non-negative (got " << delay_scale << ")";
  } else if (sleep_per_step < 0.0) {
    why << "sleep_per_step must be non-negative";
  } else if (calibration_iters == 0 &&
             protocol == Protocol::kRnaHierarchical) {
    why << "calibration_iters must be >= 1 for rna-h (grouping needs "
           "measured iteration times)";
  } else if (protocol == Protocol::kAdPsgd && world < 2) {
    why << ProtocolName(protocol) << " needs at least two workers (got "
        << world << ")";
  } else if (schedule == collectives::Schedule::kTree && world < 2) {
    why << "the tree schedule needs at least two workers (got " << world
        << "); use ring for a single-worker run";
  } else if (schedule != collectives::Schedule::kRing &&
             protocol == Protocol::kAdPsgd) {
    why << ProtocolName(protocol)
        << " has no allreduce path: --schedule only applies to horovod, "
           "eager-sgd, rna, and rna-h";
  } else if (std::string fault_why = ValidateFault(); !fault_why.empty()) {
    why << fault_why;
  }
  return why.str();
}

std::string TrainerConfig::ValidateFault() const {
  std::ostringstream why;
  const auto bad_prob = [](double p) { return p < 0.0 || p > 1.0; };
  if (bad_prob(fault.drop_prob)) {
    why << "fault.drop_prob must be a probability in [0, 1] (got "
        << fault.drop_prob << ")";
  } else if (bad_prob(fault.dup_prob)) {
    why << "fault.dup_prob must be a probability in [0, 1] (got "
        << fault.dup_prob << ")";
  } else if (bad_prob(fault.delay_prob)) {
    why << "fault.delay_prob must be a probability in [0, 1] (got "
        << fault.delay_prob << ")";
  } else if (bad_prob(fault.ps_drop_prob)) {
    why << "fault.ps_drop_prob must be a probability in [0, 1] (got "
        << fault.ps_drop_prob << ")";
  } else if (fault.delay_s < 0.0) {
    why << "fault.delay_s must be non-negative (got " << fault.delay_s << ")";
  } else if (fault.Enabled() && fault.retry_budget == 0) {
    why << "fault.retry_budget must be >= 1 (got 0): a zero budget makes "
           "every PS call fail unconditionally";
  } else if (fault.Enabled() &&
             (fault.retry_timeout_s <= 0.0 ||
              fault.collective_timeout_s <= 0.0 ||
              fault.probe_timeout_s <= 0.0)) {
    why << "fault recovery timeouts (retry_timeout_s, collective_timeout_s, "
           "probe_timeout_s) must be positive";
  } else if (fault.Enabled() && fault.dead_after_misses == 0) {
    why << "fault.dead_after_misses must be >= 1 (got 0)";
  } else if ((fault.drop_prob > 0.0 || fault.dup_prob > 0.0 ||
              fault.ps_drop_prob > 0.0) &&
             protocol == Protocol::kHorovod) {
    why << ProtocolName(protocol)
        << " cannot run on a lossy fabric: a dropped message ends its BSP "
           "run at the hop deadline (use delay faults instead)";
  } else {
    for (const WorkerFaultSchedule& w : fault.workers) {
      if (w.rank >= world) {
        why << "fault schedule targets rank " << w.rank
            << " outside the world of " << world;
      } else if (w.crash_in_round != WorkerFaultSchedule::kNever &&
                 w.crash_in_round >= max_rounds) {
        why << "fault schedule crash_in_round (" << w.crash_in_round
            << ") is beyond max_rounds (" << max_rounds
            << "): the crash step would never fire";
      } else if (w.hang_for_s < 0.0 || w.flaky_delay_s < 0.0) {
        why << "fault schedule hang_for_s / flaky_delay_s must be "
               "non-negative";
      } else if (bad_prob(w.flaky_prob)) {
        why << "fault schedule flaky_prob must be a probability in [0, 1] "
               "(got "
            << w.flaky_prob << ")";
      } else if (w.HasCrash() && protocol == Protocol::kHorovod) {
        why << ProtocolName(protocol)
            << " cannot survive a crash fault: its collective needs every "
               "member (use hang/flaky faults instead)";
      }
      if (why.tellp() != 0) break;
    }
  }
  return why.str();
}

}  // namespace rna::train
