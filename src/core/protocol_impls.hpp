#pragma once

// Private protocol implementations behind the single public entry point
// (core::RunTraining). Not installed with the public headers: everything a
// downstream user needs goes through rna/core/rna.hpp.

#include "rna/core/rna.hpp"

namespace rna::core::detail {

/// Hierarchical RNA (§4): speed groups + asynchronous PS averaging.
train::TrainResult RunHierarchicalRna(const train::TrainerConfig& config,
                                      const train::ModelFactory& factory,
                                      const data::Dataset& train_data,
                                      const data::Dataset& val_data);

}  // namespace rna::core::detail
