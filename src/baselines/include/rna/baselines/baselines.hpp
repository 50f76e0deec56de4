#pragma once

// The three comparison systems of the paper's evaluation (§7.3), each
// re-implemented from scratch on the shared substrates:
//
//  * Horovod — the BSP state of the art: a negotiation barrier (the
//    in-process equivalent of NEGOTIATE_ALLREDUCE) followed by a blocking
//    ring allreduce every iteration; every worker waits for the slowest.
//  * AD-PSGD — asynchronous decentralized parallel SGD: each worker
//    independently computes, then performs an *atomic* pairwise model
//    average with one random neighbor; the atomicity cost (the peer's
//    model is locked during the exchange) is real in this implementation.
//  * eager-SGD — partial collectives triggered by the *majority* rule,
//    running on the same cross-iteration engine as RNA so the comparison
//    isolates the trigger policy.

#include "rna/data/dataset.hpp"
#include "rna/train/config.hpp"
#include "rna/train/metrics.hpp"

namespace rna::baselines {

train::TrainResult RunHorovod(const train::TrainerConfig& config,
                              const train::ModelFactory& factory,
                              const data::Dataset& train_data,
                              const data::Dataset& val_data);

train::TrainResult RunAdPsgd(const train::TrainerConfig& config,
                             const train::ModelFactory& factory,
                             const data::Dataset& train_data,
                             const data::Dataset& val_data);

train::TrainResult RunEagerSgd(const train::TrainerConfig& config,
                               const train::ModelFactory& factory,
                               const data::Dataset& train_data,
                               const data::Dataset& val_data);

}  // namespace rna::baselines
