#include "rna/baselines/baselines.hpp"
#include "rna/train/group_engine.hpp"

namespace rna::baselines {

// eager-SGD (Li et al., PPoPP'20), majority variant: identical machinery to
// RNA (cross-iteration compute, partial ring allreduce with null gradients)
// but the collective fires once a majority of workers have a gradient
// buffered — no randomized initiator election. The paper implements only
// the majority flavour as its baseline (§7.3) because solo collectives hurt
// convergence; both are available here (solo via MakeSoloPolicy for
// ablations).
train::TrainResult RunEagerSgd(const train::TrainerConfig& config,
                               const train::ModelFactory& factory,
                               const data::Dataset& train_data,
                               const data::Dataset& val_data) {
  train::TrainerConfig eager = config;
  // eager-SGD semantics: a worker whose gradient is not ready re-sends its
  // previous (stale) gradient; the collective is a plain average over all N
  // with no re-weighting, and there is no cross-iteration accumulation —
  // only the newest gradient is kept.
  eager.contribution = train::ContributionMode::kStaleReuse;
  eager.combine = train::LocalCombine::kLatest;
  eager.lr_policy = train::LrScalePolicy::kConstant;
  return train::RunPartialCollective(eager, factory, train_data, val_data,
                                     [] { return train::MakeMajorityPolicy(); });
}

}  // namespace rna::baselines
