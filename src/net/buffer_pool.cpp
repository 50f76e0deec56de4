#include "rna/net/buffer_pool.hpp"

#include <cstddef>

#include "rna/obs/metrics.hpp"

namespace rna::net {

namespace {

// Whether a pooled buffer of capacity `cap` serves an n-float request
// better than one of capacity `best`: any fitting buffer beats one that
// does not, a smaller fitting one beats a larger, and among buffers that do
// not fit the larger wins.
bool BetterFit(std::size_t cap, std::size_t best, std::size_t n) {
  const bool fits = cap >= n;
  if (fits != (best >= n)) return fits;
  return fits ? cap < best : cap > best;
}

}  // namespace

BufferPool::BufferPool(std::size_t max_buffers)
    : max_buffers_(max_buffers == 0 ? 1 : max_buffers) {}

std::vector<float> BufferPool::Acquire(std::size_t n) {
  // Zero-length payloads (empty ring chunks when world > data.size()) need
  // no storage: hand out a fresh empty vector and leave the freelist and
  // the hit/miss accounting alone.
  if (n == 0) return {};
  std::vector<float> buffer;
  {
    common::MutexLock lock(mu_);
    // Best fit: the smallest pooled buffer that holds n floats, else the
    // largest one, which grows the least. Taking whatever was recycled last
    // would let a small ring chunk answer a model-sized request and
    // reallocate while a fitting buffer sits idle. The scan runs newest
    // first, so equal capacities go last-in, first-out.
    std::size_t pick = free_.size();
    for (std::size_t i = free_.size(); i-- > 0;) {
      if (pick == free_.size() || BetterFit(free_[i].capacity(),
                                            free_[pick].capacity(), n)) {
        pick = i;
      }
    }
    if (pick < free_.size()) {
      buffer = std::move(free_[pick]);
      free_.erase(free_.begin() + static_cast<std::ptrdiff_t>(pick));
    }
  }
  const bool hit = buffer.capacity() >= n;
  // resize() never reallocates when capacity suffices; a pooled buffer
  // smaller than the request grows in place of a fresh allocation and
  // counts as a miss.
  buffer.resize(n);
  if (hit) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    bytes_reused_.fetch_add(n * sizeof(float), std::memory_order_relaxed);
  } else {
    misses_.fetch_add(1, std::memory_order_relaxed);
  }
  return buffer;
}

void BufferPool::Recycle(std::vector<float>&& buffer) {
  if (buffer.capacity() == 0) return;  // nothing worth keeping
  {
    common::MutexLock lock(mu_);
    if (free_.size() < max_buffers_) {
      free_.push_back(std::move(buffer));
      recycled_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
  discarded_.fetch_add(1, std::memory_order_relaxed);
  // `buffer` frees here, outside the lock.
}

BufferPool::Stats BufferPool::GetStats() const {
  Stats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.recycled = recycled_.load(std::memory_order_relaxed);
  s.discarded = discarded_.load(std::memory_order_relaxed);
  s.bytes_reused = bytes_reused_.load(std::memory_order_relaxed);
  return s;
}

void BufferPool::PublishMetrics() {
  auto flush = [](std::atomic<std::uint64_t>& current,
                  std::atomic<std::uint64_t>& published, const char* name) {
    const std::uint64_t now = current.load(std::memory_order_relaxed);
    const std::uint64_t prev =
        published.exchange(now, std::memory_order_relaxed);
    if (now > prev) {
      obs::CountMetric(name, static_cast<std::int64_t>(now - prev));
    }
  };
  flush(hits_, published_hits_, "fabric.pool.hits");
  flush(misses_, published_misses_, "fabric.pool.misses");
  flush(recycled_, published_recycled_, "fabric.pool.recycled");
  flush(bytes_reused_, published_bytes_, "fabric.pool.bytes_reused");
  obs::SetGauge("fabric.pool.hit_rate", GetStats().HitRate());
}

}  // namespace rna::net
