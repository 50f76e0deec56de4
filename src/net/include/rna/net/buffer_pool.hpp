#pragma once

// A bounded freelist of reusable float payload buffers for the fabric data
// plane. Every ring hop, broadcast fan-out, and PS push used to allocate a
// fresh Message::data vector (at gradient sizes that is an mmap/munmap pair
// per hop); the pool lets senders acquire recycled storage and receivers
// return a consumed payload's storage, so the steady state of a collective
// moves buffers instead of allocating them.
//
// Ownership rules (see DESIGN.md "Data plane & memory"):
//   - Acquire(n) transfers ownership out of the pool: the caller fills the
//     buffer and typically moves it into Message::data for Send.
//   - Recycle(std::move(v)) transfers ownership back once the payload is
//     consumed (after the receiver folded/copied it out). Recycling a
//     buffer that is still referenced anywhere is a use-after-recycle bug.
//   - The pool never blocks: an empty freelist falls back to allocation
//     (counted as a miss), and a full freelist frees the recycled buffer.
//   - A site that adopts a received payload as its own storage (a PS reply
//     swapped into the leader's model) recycles the storage it replaces,
//     so every acquire is matched by one recycle and the pool stays
//     balanced.
//
// Counters are lock-free atomics (the pool sits on the per-hop hot path);
// PublishMetrics() flushes the deltas into the obs metrics registry as
// `fabric.pool.*`, which is how benches and tests verify the steady state
// is allocation-free instead of asserting it.

#include <atomic>
#include <cstdint>
#include <vector>

#include "rna/common/mutex.hpp"
#include "rna/common/thread_annotations.hpp"

namespace rna::net {

class BufferPool {
 public:
  /// `max_buffers` bounds the freelist; recycles beyond it are freed.
  explicit BufferPool(std::size_t max_buffers = kDefaultMaxBuffers);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// A buffer of exactly `n` elements with unspecified contents, cut from
  /// the smallest pooled buffer that holds `n` (a hit: no reallocation).
  /// When none does, the largest pooled buffer grows (a miss), and with an
  /// empty freelist a fresh one is allocated (a miss too).
  std::vector<float> Acquire(std::size_t n);

  /// Returns a spent payload's storage to the pool.
  void Recycle(std::vector<float>&& buffer);

  struct Stats {
    std::uint64_t hits = 0;          ///< acquires served without allocation
    std::uint64_t misses = 0;        ///< acquires that had to allocate
    std::uint64_t recycled = 0;      ///< buffers returned to the freelist
    std::uint64_t discarded = 0;     ///< recycles dropped (freelist full)
    std::uint64_t bytes_reused = 0;  ///< payload bytes served from the pool
    double HitRate() const {
      const std::uint64_t total = hits + misses;
      return total == 0 ? 0.0 : static_cast<double>(hits) /
                                    static_cast<double>(total);
    }
  };

  Stats GetStats() const;

  /// Flushes counter deltas since the last publish into the active metrics
  /// registry (`fabric.pool.hits` / `.misses` / `.recycled` /
  /// `.bytes_reused`). Safe to call repeatedly; deltas are published once.
  void PublishMetrics();

  static constexpr std::size_t kDefaultMaxBuffers = 64;

 private:
  const std::size_t max_buffers_;

  mutable common::Mutex mu_;
  std::vector<std::vector<float>> free_ RNA_GUARDED_BY(mu_);

  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> recycled_{0};
  std::atomic<std::uint64_t> discarded_{0};
  std::atomic<std::uint64_t> bytes_reused_{0};
  std::atomic<std::uint64_t> published_hits_{0};
  std::atomic<std::uint64_t> published_misses_{0};
  std::atomic<std::uint64_t> published_recycled_{0};
  std::atomic<std::uint64_t> published_bytes_{0};
};

}  // namespace rna::net
