#pragma once

// Cross-iteration gradient staging — the in-memory analogue of the paper's
// WriteOp/ReadOp TensorFlow kernels (§6). The compute thread writes freshly
// computed gradients (its replica's GradsFlat()) tagged with their
// iteration; the communication thread drains the buffer when a collective
// triggers, combining multiple buffered gradients with the
// staleness-weighted average of §3.3. When the buffer holds
// `staleness_bound` gradients the oldest is overwritten (bounded
// staleness). The ParamBoard is the reverse path: the communication thread
// publishes freshly reduced parameters, the compute thread reads the
// newest version into its replica's ParamsFlat() before each batch
// (ReadOp), keeping what it has if nothing new arrived — this is what lets
// computation run ahead without blocking on communication.

#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <vector>

#include "rna/common/mutex.hpp"
#include "rna/common/thread_annotations.hpp"
#include "rna/train/config.hpp"

namespace rna::train {

class GradientStage {
 public:
  GradientStage(std::size_t dim, std::size_t staleness_bound,
                LocalCombine combine);

  /// Compute-thread side: buffer a gradient produced at `iteration`.
  /// Returns true when the buffer *grew*; false when the gradient replaced
  /// the stalest buffered entry (bounded staleness). Controllers count only
  /// growing writes so their readiness view tracks the true backlog.
  bool Write(std::span<const float> grad, std::int64_t iteration);

  struct Drained {
    std::vector<float> grad;      ///< locally combined gradient
    /// Entries *removed* from the buffer (controllers reconcile their
    /// readiness counts against this, so it must equal the number of
    /// Write()s consumed — kLatest discards all but the newest, but still
    /// reports every removed entry here and counts the rest as dropped).
    std::size_t count = 0;
    std::int64_t newest = -1;     ///< newest source iteration
    std::int64_t oldest = -1;     ///< oldest source iteration
  };

  /// Comm-thread side: removes and combines everything buffered.
  /// std::nullopt when the buffer is empty (→ contribute a null gradient).
  std::optional<Drained> Drain();

  bool HasGradient() const;
  std::size_t BufferedCount() const;
  std::size_t Dropped() const;

 private:
  struct Entry {
    std::vector<float> grad;
    std::int64_t iteration;
  };

  std::size_t dim_;
  std::size_t bound_;
  LocalCombine combine_;
  mutable common::Mutex mu_;
  std::deque<Entry> entries_ RNA_GUARDED_BY(mu_);
  std::size_t dropped_ RNA_GUARDED_BY(mu_) = 0;
};

/// Versioned parameter snapshot exchanged between threads.
class ParamBoard {
 public:
  explicit ParamBoard(std::vector<float> initial);

  /// Publishes a new version (monotonic by construction).
  void Publish(std::span<const float> params, std::int64_t version);

  /// Copies the parameters into `out` (the board's size, e.g. a replica's
  /// ParamsFlat()) if the board holds a version newer than `last_seen`.
  /// Returns the board's current version either way.
  std::int64_t ReadIfNewer(std::int64_t last_seen, std::span<float> out) const;

 private:
  mutable common::Mutex mu_;
  std::vector<float> params_ RNA_GUARDED_BY(mu_);
  std::int64_t version_ RNA_GUARDED_BY(mu_) = 0;
};

}  // namespace rna::train
