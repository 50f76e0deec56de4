#pragma once

// An in-process message fabric: N endpoints, each with a tag-addressed
// mailbox supporting timed and multi-tag receives; every receive has a
// deadline. This is the repo's substitute for MPI point-to-point transport
// (see DESIGN.md); all collectives, the parameter server, the RNA
// controller RPCs and the AD-PSGD gossip run on top of it.
//
// An optional latency model delays deliveries on a dedicated timer thread,
// letting experiments inject network heterogeneity without touching
// protocol code.

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include <atomic>

#include "rna/common/clock.hpp"
#include "rna/common/mutex.hpp"
#include "rna/common/thread_annotations.hpp"
#include "rna/net/buffer_pool.hpp"
#include "rna/net/message.hpp"
#include "rna/net/wire.hpp"

namespace rna::net {

class FaultPlan;

/// Seconds of delivery delay for a message of `bytes` from `from` to `to`.
/// Return 0 for immediate delivery.
using LatencyModel =
    std::function<common::Seconds(Rank from, Rank to, std::size_t bytes)>;

/// Tag-addressed mailbox. Thread-safe; one instance per endpoint.
class Mailbox {
 public:
  /// Enqueues a message; returns false if the mailbox is closed.
  bool Put(Message msg);

  /// Waits up to `timeout` for a message with the tag; std::nullopt on
  /// timeout or close-and-drained. Messages with other tags are unaffected.
  /// A zero (or negative) timeout degenerates to TryGet: one pop attempt,
  /// no wait.
  std::optional<Message> GetFor(int tag, common::Seconds timeout);

  /// Timed multi-tag receive: waits until a message matching any tag
  /// arrives, the deadline passes (std::nullopt), or the mailbox closes.
  /// When several match, the oldest queued one wins, whatever the order of
  /// `tags`. This is what lets the controller wait on "probe reply OR
  /// goodbye" with a deadline instead of blocking forever on a dead worker.
  std::optional<Message> GetAnyFor(std::span<const int> tags,
                                   common::Seconds timeout);

  std::optional<Message> TryGet(int tag);

  /// Number of queued messages for a tag.
  std::size_t Pending(int tag) const;

  /// True once Close() has been called. Lets a timed-receive retry loop
  /// tell "timed out, keep waiting" apart from "fabric is gone, give up".
  bool IsClosed() const;

  /// Discards every queued message whose tag lies in [tag_lo, tag_hi];
  /// returns the number removed. Used to sweep stale chunks of an aborted
  /// collective round so they can never alias a later round's traffic.
  std::size_t PurgeTagRange(int tag_lo, int tag_hi);

  void Close();

 private:
  std::optional<Message> PopLocked(std::span<const int> tags)
      RNA_REQUIRES(mu_);

  mutable common::Mutex mu_;
  common::CondVar cv_;
  std::deque<Message> messages_ RNA_GUARDED_BY(mu_);
  bool closed_ RNA_GUARDED_BY(mu_) = false;
};

/// Cumulative per-endpoint traffic counters.
struct TrafficStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t bytes_sent = 0;
};

/// Cumulative per-wire-format traffic: how many chunk payloads a policy
/// produced, the bytes they represent uncompressed (`raw_bytes`), and the
/// bytes that actually crossed the fabric (`wire_bytes`). raw == wire for
/// wire::Format::kRaw; the gap is the compression saving.
struct WireTraffic {
  std::uint64_t chunks = 0;
  std::uint64_t raw_bytes = 0;
  std::uint64_t wire_bytes = 0;
};

class Fabric {
 public:
  explicit Fabric(std::size_t endpoints, LatencyModel latency = {});
  ~Fabric();

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  std::size_t Size() const { return mailboxes_.size(); }

  /// Installs a fault plan consulted on every subsequent Send (see
  /// fault.hpp). Must be called before any protocol thread sends — the
  /// pointer is read without a lock on the hot path, so installation must
  /// happen-before thread creation. Starts the delivery timer thread if the
  /// plan may inject delays and no latency model already did.
  void InstallFaultPlan(std::shared_ptr<FaultPlan> plan);

  const FaultPlan* InstalledFaultPlan() const { return fault_plan_.get(); }

  /// Delivers (possibly after a modelled delay) to `to`'s mailbox.
  void Send(Rank from, Rank to, Message msg);

  // Receive helpers delegating to the endpoint's mailbox.
  std::optional<Message> RecvFor(Rank at, int tag, common::Seconds timeout);
  std::optional<Message> RecvAnyFor(Rank at, std::span<const int> tags,
                                    common::Seconds timeout);
  std::optional<Message> TryRecv(Rank at, int tag);

  /// Drops queued messages tagged in [tag_lo, tag_hi] at `at`'s mailbox.
  std::size_t Purge(Rank at, int tag_lo, int tag_hi);

  /// True once `at`'s mailbox has been closed (Shutdown()).
  bool IsClosed(Rank at) const;

  /// Closes every mailbox; all blocked receivers wake with std::nullopt.
  void Shutdown();

  /// The fabric-wide payload freelist. Senders Acquire() hop/push buffers
  /// from it and receivers Recycle() consumed payloads back, making the
  /// collective steady state allocation-free (see buffer_pool.hpp for the
  /// ownership rules). Thread-safe.
  BufferPool& Pool() { return pool_; }

  TrafficStats StatsFor(Rank rank) const;
  TrafficStats TotalStats() const;

  /// Attributes one encoded chunk to a wire format: `raw_bytes` is the
  /// chunk's uncompressed size, `wire_bytes` what was actually sent.
  /// Lock-free; called by the collectives on every chunk send.
  void CountWire(wire::Format format, std::size_t raw_bytes,
                 std::size_t wire_bytes);

  WireTraffic WireStatsFor(wire::Format format) const;

  /// Flushes per-format wire counters into the obs metrics registry as
  /// `fabric.wire.<format>.{chunks,raw_bytes,wire_bytes}`. Idempotent
  /// deltas, same contract as BufferPool::PublishMetrics(); called from
  /// Shutdown().
  void PublishWireMetrics();

 private:
  struct PendingDelivery {
    common::SteadyClock::time_point due;
    common::SteadyClock::time_point enqueued;  ///< for latency attribution
    Rank to;
    Message msg;
    bool operator>(const PendingDelivery& other) const { return due > other.due; }
  };

  void TimerLoop();
  void EnsureTimerThread();
  void EnqueueDelayed(Rank to, Message msg, common::Seconds delay);

  // Immutable after construction; safe to index without a lock.
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  BufferPool pool_;
  LatencyModel latency_;
  // Written once by InstallFaultPlan before protocol threads exist; read
  // lock-free by Send afterwards.
  std::shared_ptr<FaultPlan> fault_plan_;

  // Per-endpoint traffic counters, one cache-padded slot per sender.
  // Relaxed atomics keep Send lock-free: a thousand concurrent senders
  // must never serialize on a shared stats mutex (the contention showed
  // up as per-worker controller cost growing with the world size).
  struct alignas(64) TrafficCounters {
    std::atomic<std::uint64_t> messages_sent{0};
    std::atomic<std::uint64_t> bytes_sent{0};
  };
  std::vector<TrafficCounters> stats_;

  // Per-wire-format counters (index = wire::Format). Hot-path atomics with
  // shadow `published_` values so PublishWireMetrics() flushes idempotent
  // deltas, mirroring BufferPool.
  struct WireCounters {
    std::atomic<std::uint64_t> chunks{0};
    std::atomic<std::uint64_t> raw_bytes{0};
    std::atomic<std::uint64_t> wire_bytes{0};
    std::atomic<std::uint64_t> published_chunks{0};
    std::atomic<std::uint64_t> published_raw{0};
    std::atomic<std::uint64_t> published_wire{0};
  };
  WireCounters wire_counters_[wire::kFormatCount];

  // Delayed-delivery machinery (only active when a latency model is set).
  common::Mutex timer_mu_;
  common::CondVar timer_cv_;
  std::vector<PendingDelivery> timer_heap_ RNA_GUARDED_BY(timer_mu_);
  bool timer_stop_ RNA_GUARDED_BY(timer_mu_) = false;
  std::thread timer_thread_;
};

}  // namespace rna::net
