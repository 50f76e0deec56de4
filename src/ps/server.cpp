#include "rna/ps/server.hpp"

#include <algorithm>

#include "rna/common/check.hpp"
#include "rna/common/simd.hpp"
#include "rna/obs/metrics.hpp"
#include "rna/obs/trace.hpp"

namespace rna::ps {

namespace {

// meta layout for requests: [0]=ApplyMode, [1]=want_reply (always 1),
// [2]=has_payload; a reply carries only the state payload.
constexpr std::size_t kMetaSize = 3;
constexpr std::size_t kMetaMode = 0;
constexpr std::size_t kMetaWantReply = 1;
constexpr std::size_t kMetaHasPayload = 2;

// Mode sentinel carried by the self-addressed stop poke; real requests in
// flight ahead of it are still served.
constexpr std::int64_t kStopSentinel = -1;

// A request the server can serve: a three-word meta naming a known mode and
// asking for a reply, and either no payload or exactly `dim` floats.
bool Servable(const net::Message& req, std::size_t dim) {
  if (req.meta.size() != kMetaSize) return false;
  const std::int64_t mode = req.meta[kMetaMode];
  const std::int64_t has_payload = req.meta[kMetaHasPayload];
  return (mode == static_cast<std::int64_t>(ApplyMode::kAssign) ||
          mode == static_cast<std::int64_t>(ApplyMode::kAverage)) &&
         req.meta[kMetaWantReply] == 1 &&
         (has_payload == 0 || has_payload == 1) &&
         req.data.size() == (has_payload == 1 ? dim : 0);
}

}  // namespace

ParameterServer::ParameterServer(net::Fabric& fabric, Rank rank,
                                 std::vector<float> initial)
    : fabric_(fabric),
      rank_(rank),
      dim_(initial.size()),
      state_(std::move(initial)) {}

ParameterServer::~ParameterServer() { Stop(); }

void ParameterServer::Start() {
  RNA_CHECK_MSG(!thread_.joinable(), "server already started");
  stop_.store(false);
  thread_ = std::thread([this] { ServeLoop(); });
}

void ParameterServer::Stop() {
  if (!thread_.joinable()) return;
  stop_.store(true);
  // A self-addressed stop poke: the server drains requests already queued
  // ahead of it, then exits when the poke is reached.
  net::Message poke;
  poke.tag = PsTags::kRequest;
  poke.meta = {kStopSentinel, 0, 0};
  fabric_.Send(rank_, rank_, std::move(poke));
  thread_.join();
}

std::vector<float> ParameterServer::Snapshot() const {
  common::MutexLock lock(state_mu_);
  return state_;
}

void ParameterServer::ServeLoop() {
  const obs::TrackHandle track = obs::RegisterTrack("ps");
  for (;;) {
    // Bounded waits only (the chaos lint gate bans untimed receives in
    // src/ps): wake periodically to notice stop/shutdown even if the
    // self-addressed stop poke is swallowed by an injected drop.
    auto req = fabric_.RecvFor(rank_, PsTags::kRequest, 0.05);
    if (!req.has_value()) {
      if (stop_.load() || fabric_.IsClosed(rank_)) return;
      continue;  // idle timeout
    }
    // Only this server's own Stop() may end the loop.
    if (req->src == rank_ && req->meta.size() == kMetaSize &&
        req->meta[kMetaMode] == kStopSentinel) {
      return;
    }
    // A malformed frame is dropped unanswered and leaves the state as is;
    // its sender sees a missing reply, as after a dropped request.
    if (!Servable(*req, dim_)) {
      fabric_.Pool().Recycle(std::move(req->data));
      obs::CountMetric("ps.rejected_requests");
      continue;
    }
    obs::ScopedTimer rpc_timer(track, obs::Category::kRpc, "serve_request");
    rpc_timer.SetArg("src", static_cast<double>(req->src));
    obs::CountMetric("ps.requests");
    const auto mode = static_cast<ApplyMode>(req->meta[kMetaMode]);
    const bool has_payload = req->meta[kMetaHasPayload] == 1;

    net::Message reply;
    reply.tag = PsTags::kReply;
    {
      common::MutexLock lock(state_mu_);
      if (has_payload) {
        switch (mode) {
          case ApplyMode::kAssign:
            std::copy(req->data.begin(), req->data.end(), state_.begin());
            break;
          case ApplyMode::kAverage:
            common::simd::AverageInto(state_, req->data);
            break;
        }
      }
    }
    fabric_.Pool().Recycle(std::move(req->data));
    {
      common::MutexLock lock(state_mu_);
      // Pooled reply payload: push requests recycled above keep the
      // freelist warm, so the pull-reply path stops allocating once the
      // protocol reaches steady state.
      reply.data = fabric_.Pool().Acquire(state_.size());
      std::copy(state_.begin(), state_.end(), reply.data.begin());
    }
    requests_served_.fetch_add(1);
    fabric_.Send(rank_, req->src, std::move(reply));
  }
}

PsClient::PsClient(net::Fabric& fabric, Rank self, Rank server,
                   std::size_t dim)
    : fabric_(&fabric), self_(self), server_(server), dim_(dim) {}

void PsClient::ConfigureRetry(std::size_t budget, double first_timeout_s) {
  retry_budget_ = budget == 0 ? 1 : budget;
  if (first_timeout_s > 0.0) retry_timeout_s_ = first_timeout_s;
}

std::optional<std::vector<float>> PsClient::TryCall(
    std::span<const float> values, ApplyMode mode) {
  if (!values.empty()) {
    RNA_CHECK_MSG(values.size() == dim_, "PS payload dimension mismatch");
  }
  // A retried request can produce two replies; drain leftovers so a stale
  // reply from the previous call can never satisfy this one.
  while (auto stale = fabric_->TryRecv(self_, PsTags::kReply)) {
    fabric_->Pool().Recycle(std::move(stale->data));
    obs::CountMetric("ps.stale_replies_dropped");
  }

  for (std::size_t attempt = 0; attempt < retry_budget_; ++attempt) {
    if (attempt > 0) obs::CountMetric("ps.retries");
    net::Message req;
    req.tag = PsTags::kRequest;
    req.meta = {static_cast<std::int64_t>(mode), 1, values.empty() ? 0 : 1};
    if (!values.empty()) {
      req.data = fabric_->Pool().Acquire(dim_);
      std::copy(values.begin(), values.end(), req.data.begin());
    }
    fabric_->Send(self_, server_, std::move(req));

    // Exponential backoff: t, 2t, 4t, ... per attempt; any reply renews
    // the window. A stray or wrong-size reply is recycled and ignored.
    const double backoff = static_cast<double>(std::uint64_t{1} << attempt);
    const double timeout = retry_timeout_s_ * backoff;
    while (auto reply = fabric_->RecvFor(self_, PsTags::kReply, timeout)) {
      if (reply->src == server_ && reply->data.size() == dim_) {
        return std::move(reply->data);
      }
      if (reply->src == server_) obs::CountMetric("ps.rejected_replies");
      fabric_->Pool().Recycle(std::move(reply->data));
    }
    if (fabric_->IsClosed(self_)) return std::nullopt;
  }
  obs::CountMetric("ps.call_failures");
  return std::nullopt;
}

std::optional<std::vector<float>> PsClient::TryPull() {
  return TryCall({}, ApplyMode::kAssign);
}

std::optional<std::vector<float>> PsClient::TryPushPull(
    std::span<const float> values, ApplyMode mode) {
  RNA_CHECK_MSG(!values.empty(), "PushPull requires a payload");
  return TryCall(values, mode);
}

}  // namespace rna::ps
