#include <stdexcept>

#include "protocol_impls.hpp"
#include "rna/baselines/baselines.hpp"
#include "rna/common/check.hpp"
#include "rna/core/rna.hpp"

namespace rna::core {

train::TrainResult RunTraining(const train::TrainerConfig& config,
                               const train::ModelFactory& factory,
                               const data::Dataset& train_data,
                               const data::Dataset& val_data) {
  if (std::string why = config.Validate(); !why.empty()) {
    throw std::invalid_argument("invalid TrainerConfig: " + why);
  }
  switch (config.protocol) {
    case train::Protocol::kHorovod:
      return baselines::RunHorovod(config, factory, train_data, val_data);
    case train::Protocol::kEagerSgd:
      return baselines::RunEagerSgd(config, factory, train_data, val_data);
    case train::Protocol::kAdPsgd:
      return baselines::RunAdPsgd(config, factory, train_data, val_data);
    case train::Protocol::kRna:
      // Flat RNA (§3): the RNA engine over one group, triggered by the
      // power-of-q-choices probe election. Everything else the paper
      // describes (null-gradient participation, W = 1/Σw re-weighting,
      // staleness-weighted accumulation under a bounded-staleness cap,
      // Linear-Scaling-Rule learning rates, cross-iteration compute/comm
      // threads) is configured through TrainerConfig.
      return train::RunPartialCollective(
          config, factory, train_data, val_data,
          [q = config.probe_choices] { return MakeProbePolicy(q); });
    case train::Protocol::kRnaHierarchical:
      return detail::RunHierarchicalRna(config, factory, train_data, val_data);
  }
  RNA_CHECK_MSG(false, "unknown protocol");
  return {};
}

}  // namespace rna::core
