#pragma once

// A ps-lite-style parameter server on the fabric: a server thread owning a
// flat parameter vector, and a client handle exposing TryPull and
// TryPushPull. Requests from different clients are served independently in
// arrival order, which is exactly the asynchronous-across-groups behaviour
// the paper's hierarchical synchronization relies on (§4, §6): each group
// initiator PushPulls its group model whenever it finishes a round, with no
// cross-group barrier.

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

/// Client handle bound to one fabric endpoint, for a `dim`-float model
/// served by the ParameterServer at `server`. A call sends one request
/// carrying the whole payload, and the reply payload becomes the result as
/// is.
///
/// Fault tolerance: a call makes up to `budget` attempts; the request is
/// re-sent after t, 2t, 4t, … seconds without a reply (any reply renews
/// the current window). The default is one attempt that waits
/// common::kLosslessDeadline; ConfigureRetry sets budget and t. A failed
/// call returns std::nullopt and the caller decides what to skip; no call
/// aborts. Retries are at-least-once: a slow (rather than dropped) request
/// can be applied twice, which every mode absorbs (kAssign writes the same
/// values again; kAverage re-averages toward the same pushed model). A
/// reply of the wrong size, or from another endpoint, is dropped and the
/// wait goes on.
class PsClient {
 public:
  PsClient(net::Fabric& fabric, Rank self, Rank server, std::size_t dim);

  /// Sets the retry policy (see class comment): `budget` total attempts
  /// (0 counts as 1), the first waiting `first_timeout_s` (kept when not
  /// positive).
  void ConfigureRetry(std::size_t budget, double first_timeout_s);

  /// Fetch the current server state; std::nullopt on shutdown or an
  /// exhausted retry budget.
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
  Rank server_;
  std::size_t dim_;
  std::size_t retry_budget_ = 1;
  double retry_timeout_s_ = common::kLosslessDeadline;
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
  void Stop();

  Rank ServerRank() const { return rank_; }
  /// Requests applied and answered; a malformed request is dropped
  /// unanswered, counted in `ps.rejected_requests` instead.
  std::uint64_t RequestsServed() const { return requests_served_.load(); }

  /// A copy of the current state.
  std::vector<float> Snapshot() const;

 private:
  void ServeLoop();

  net::Fabric& fabric_;
  Rank rank_;
  const std::size_t dim_;  ///< state size; requests must match it
  mutable common::Mutex state_mu_;
  std::vector<float> state_ RNA_GUARDED_BY(state_mu_);
  std::atomic<std::uint64_t> requests_served_{0};
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

}  // namespace rna::ps
