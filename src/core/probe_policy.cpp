#include "rna/common/check.hpp"
#include "rna/core/rna.hpp"

namespace rna::core {

namespace {

class ProbePolicy final : public train::TriggerPolicy {
 public:
  explicit ProbePolicy(std::size_t choices) : choices_(choices) {
    RNA_CHECK_MSG(choices >= 1, "need at least one probe");
  }

  void BeginRound(std::size_t world, common::Rng& rng) override {
    probes_ = rng.SampleWithoutReplacement(world,
                                           std::min(choices_, world));
  }

  bool ShouldTrigger(const train::ReadinessBoard& ready) override {
    // The probe RPC is answered the moment the probed worker has a
    // gradient; the first answer triggers the round and expires the other
    // probes (§3.2). Cost is O(choices), independent of the world size.
    for (std::size_t p : probes_) {
      if (ready.Count(p) > 0) return true;
    }
    return false;
  }

 private:
  std::size_t choices_;
  std::vector<std::size_t> probes_;
};

}  // namespace

std::unique_ptr<train::TriggerPolicy> MakeProbePolicy(std::size_t choices) {
  return std::make_unique<ProbePolicy>(choices);
}

}  // namespace rna::core
