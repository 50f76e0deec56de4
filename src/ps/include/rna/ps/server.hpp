#pragma once

// A ps-lite-style parameter server on the fabric: a server thread owning a
// flat parameter vector, and a client handle exposing TryPull and
// TryPushPull. Requests from different clients are served independently in
// arrival order, which is exactly the asynchronous-across-groups behaviour
// the paper's hierarchical synchronization relies on (§4, §6): each group
// initiator PushPulls its group model whenever it finishes a round, with no
// cross-group barrier.
//
// Scale-out: the model's flat vector may be split into `shards` contiguous
// ranges, each owned by an independent ParameterServer on its own fabric
// endpoint (first_server + s). The client stripes every call across them.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "rna/common/mutex.hpp"
#include "rna/common/thread_annotations.hpp"
#include "rna/net/fabric.hpp"

namespace rna::ps {

using net::Rank;

/// How a pushed vector is folded into the server state. The values are
/// the wire encoding; the server rejects any other.
enum class ApplyMode : std::int64_t {
  kAssign = 0,   ///< state = x
  kAverage = 2,  ///< state = (state + x)/2 (model averaging, paper §6)
};

/// Message tags used on the server endpoint; replies are delivered to the
/// client's endpoint with kReply.
struct PsTags {
  static constexpr int kRequest = 9000;
  static constexpr int kReply = 9001;
};

/// Contiguous shard boundaries: shard `s` of `shards` owns
/// [ShardFirst, ShardLast) of a `dim`-float model; the first dim % shards
/// shards are one element larger.
inline std::size_t ShardFirst(std::size_t dim, std::size_t shards,
                              std::size_t s) {
  const std::size_t base = dim / shards;
  const std::size_t extra = dim % shards;
  return s * base + (s < extra ? s : extra);
}

inline std::size_t ShardLast(std::size_t dim, std::size_t shards,
                             std::size_t s) {
  return ShardFirst(dim, shards, s + 1);
}

/// Client handle bound to one fabric endpoint, for a `dim`-float model
/// served by `shards` range-sharded servers on endpoints
/// [first_server, first_server + shards). A call sends every shard's
/// request before awaiting any reply, then collects the replies in
/// whatever order the shards answer (shard s is recognized by its source
/// rank), so it costs one round trip of the largest shard rather than
/// `shards` sequential ones. One shard is the classic single-server
/// protocol: one request carrying the whole payload, whose reply payload
/// becomes the result as is.
///
/// Fault tolerance: a call makes up to `budget` attempts; the shards still
/// missing a reply are re-sent after t, 2t, 4t, … seconds (each shard
/// reply renews the current window). The default is one attempt that
/// waits common::kLosslessDeadline; ConfigureRetry sets budget and t. A
/// failed call returns std::nullopt and the caller decides what to skip;
/// no call aborts. Retries are at-least-once: a slow (rather than
/// dropped) request can be applied twice, which every mode absorbs
/// (kAssign writes the same values again; kAverage re-averages toward the
/// same pushed model). A reply of the wrong size is dropped and its shard
/// counts as missing.
class PsClient {
 public:
  /// `shards` must be in [1, dim].
  PsClient(net::Fabric& fabric, Rank self, Rank first_server,
           std::size_t shards, std::size_t dim);

  /// Sets the retry policy (see class comment): `budget` total attempts
  /// (0 counts as 1), the first waiting `first_timeout_s` (kept when not
  /// positive).
  void ConfigureRetry(std::size_t budget, double first_timeout_s);

  /// Fetch the current server state; std::nullopt on shutdown or an
  /// exhausted retry budget (e.g., an elastic joiner fetching its first
  /// model over a lossy fabric retries on its next turn).
  std::optional<std::vector<float>> TryPull();

  /// Atomically fold `values` in and return the post-update state — the
  /// PSPushPull() of the paper's hierarchical synchronization.
  /// std::nullopt on shutdown or an exhausted retry budget (the caller
  /// skips this sync and moves on).
  std::optional<std::vector<float>> TryPushPull(std::span<const float> values,
                                                ApplyMode mode);

 private:
  std::optional<std::vector<float>> TryCall(std::span<const float> values,
                                            ApplyMode mode);

  net::Fabric* fabric_;
  Rank self_;
  Rank first_server_;
  std::size_t shards_;
  std::size_t dim_;
  std::size_t retry_budget_ = 1;
  double retry_timeout_s_ = common::kLosslessDeadline;
  std::vector<bool> have_;  ///< per shard: replied in the call in flight
};

class ParameterServer {
 public:
  /// The server owns fabric endpoint `rank` and a state vector of `dim`
  /// floats (initialized from `initial`).
  ParameterServer(net::Fabric& fabric, Rank rank,
                  std::vector<float> initial);
  ~ParameterServer();

  ParameterServer(const ParameterServer&) = delete;
  ParameterServer& operator=(const ParameterServer&) = delete;

  void Start();
  /// Stops the server thread (idempotent). The fabric must still be alive.
  /// With ConfigureParent, stop children before their parent (reverse tree
  /// id order) so an in-flight parent sync can still be answered.
  void Stop();

  /// Makes this server an interior node of a PS tree: after every
  /// applied payload it PushPulls its whole state to the same-shard server
  /// at `parent` (kAverage) and adopts the merged result *before*
  /// replying, so a client always reads state that has been folded toward
  /// the root. Call before Start(). `retry_budget` / `retry_timeout_s`
  /// follow PsClient::ConfigureRetry semantics; a failed sync is skipped
  /// (counted, state kept local).
  void ConfigureParent(Rank parent, std::size_t retry_budget = 1,
                       double retry_timeout_s = common::kLosslessDeadline);

  Rank ServerRank() const { return rank_; }
  /// Requests applied and answered; a malformed request is dropped
  /// unanswered, counted in `ps.rejected_requests` instead.
  std::uint64_t RequestsServed() const { return requests_served_.load(); }

  /// A copy of the current state.
  std::vector<float> Snapshot() const;

 private:
  void ServeLoop();
  void SyncWithParent();

  net::Fabric& fabric_;
  Rank rank_;
  const std::size_t dim_;  ///< state size; requests must match it
  mutable common::Mutex state_mu_;
  std::vector<float> state_ RNA_GUARDED_BY(state_mu_);
  std::atomic<std::uint64_t> requests_served_{0};
  std::atomic<bool> stop_{false};

  // Parent-sync wiring (ServeLoop-thread only after Start()). The server
  // thread doubles as a one-shard client of its parent on its own
  // endpoint: replies carry PsTags::kReply, which ServeLoop never
  // consumes, so the two roles cannot steal each other's messages.
  std::optional<PsClient> parent_;

  std::thread thread_;
};

}  // namespace rna::ps
