// Tests for the ps-lite-style parameter server: the two apply modes (assign
// and average), push/pull round trips, concurrent clients, clean shutdown,
// rejection of malformed request frames — plus the client's request frame,
// its retry loop and its reply checks against a scripted server.

#include <gtest/gtest.h>

#include <future>
#include <string_view>
#include <thread>

#include "rna/common/clock.hpp"
#include "rna/net/fabric.hpp"
#include "rna/obs/session.hpp"
#include "rna/ps/server.hpp"

namespace rna::ps {
namespace {

TEST(ParameterServer, PullReturnsInitialState) {
  net::Fabric fabric(3);
  ParameterServer server(fabric, 2, {1.0f, 2.0f, 3.0f});
  server.Start();
  PsClient client(fabric, 0, 2, /*dim=*/3);
  EXPECT_EQ(client.TryPull().value(), (std::vector<float>{1.0f, 2.0f, 3.0f}));
  server.Stop();
}

TEST(ParameterServer, PushAssignReplacesState) {
  net::Fabric fabric(2);
  ParameterServer server(fabric, 1, {0.0f, 0.0f});
  server.Start();
  PsClient client(fabric, 0, 1, 2);
  EXPECT_EQ(
      client.TryPushPull(std::vector<float>{5.0f, 6.0f}, ApplyMode::kAssign)
          .value(),
      (std::vector<float>{5.0f, 6.0f}));
  EXPECT_EQ(client.TryPull().value(), (std::vector<float>{5.0f, 6.0f}));
  server.Stop();
}

TEST(ParameterServer, PushPullAveragesAtomically) {
  // The hierarchical path: group pushes its model, receives the running
  // average.
  net::Fabric fabric(2);
  ParameterServer server(fabric, 1, {0.0f});
  server.Start();
  PsClient client(fabric, 0, 1, 1);
  const auto first =
      client.TryPushPull(std::vector<float>{8.0f}, ApplyMode::kAverage);
  EXPECT_EQ(first.value(), (std::vector<float>{4.0f}));  // (0+8)/2
  const auto second =
      client.TryPushPull(std::vector<float>{4.0f}, ApplyMode::kAverage);
  EXPECT_EQ(second.value(), (std::vector<float>{4.0f}));  // (4+4)/2
  server.Stop();
}

TEST(ParameterServer, MixedModesCompose) {
  net::Fabric fabric(2);
  ParameterServer server(fabric, 1, {2.0f});
  server.Start();
  PsClient client(fabric, 0, 1, 1);
  EXPECT_EQ(
      client.TryPushPull(std::vector<float>{4.0f}, ApplyMode::kAverage).value(),
      (std::vector<float>{3.0f}));  // (2+4)/2
  EXPECT_EQ(
      client.TryPushPull(std::vector<float>{10.0f}, ApplyMode::kAssign).value(),
      (std::vector<float>{10.0f}));
  EXPECT_EQ(
      client.TryPushPull(std::vector<float>{0.0f}, ApplyMode::kAverage).value(),
      (std::vector<float>{5.0f}));  // (10+0)/2
  server.Stop();
}

TEST(ParameterServer, ConcurrentClientsAllServed) {
  const std::size_t clients = 6;
  net::Fabric fabric(clients + 1);
  ParameterServer server(fabric, clients, std::vector<float>{0.0f});
  server.Start();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      PsClient client(fabric, c, clients, 1);
      for (int i = 0; i < 50; ++i) {
        EXPECT_TRUE(
            client.TryPushPull(std::vector<float>{1.0f}, ApplyMode::kAverage)
                .has_value());
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(server.RequestsServed(), 300u);  // 6 clients × 50 calls
  // 300 halvings of the distance to 1 round to 1 exactly in float.
  PsClient reader(fabric, 0, clients, 1);
  EXPECT_EQ(reader.TryPull().value()[0], 1.0f);
  server.Stop();
}

TEST(ParameterServer, SnapshotMatchesPull) {
  net::Fabric fabric(2);
  ParameterServer server(fabric, 1, {1.5f, 2.5f});
  server.Start();
  PsClient client(fabric, 0, 1, 2);
  ASSERT_TRUE(
      client.TryPushPull(std::vector<float>{1.0f, 1.0f}, ApplyMode::kAverage)
          .has_value());
  const auto pulled = client.TryPull();
  EXPECT_EQ(pulled.value(), (std::vector<float>{1.25f, 1.75f}));
  EXPECT_EQ(pulled.value(), server.Snapshot());
  server.Stop();
}

TEST(ParameterServer, StopIsIdempotent) {
  net::Fabric fabric(2);
  ParameterServer server(fabric, 1, {0.0f});
  server.Start();
  server.Stop();
  server.Stop();  // second stop is a no-op
}

TEST(ParameterServer, RestartAfterStop) {
  net::Fabric fabric(2);
  ParameterServer server(fabric, 1, {0.0f});
  server.Start();
  PsClient client(fabric, 0, 1, 1);
  ASSERT_TRUE(
      client.TryPushPull(std::vector<float>{3.0f}, ApplyMode::kAssign)
          .has_value());
  server.Stop();
  server.Start();
  EXPECT_EQ(client.TryPull().value(), (std::vector<float>{3.0f}));
  server.Stop();
}

TEST(ParameterServer, MalformedRequestsAreRejected) {
  // Each bad frame is dropped unanswered and leaves the state as is; the
  // server keeps serving, and only its own Stop() ends it.
  constexpr auto kAssign = static_cast<std::int64_t>(ApplyMode::kAssign);
  struct Frame {
    std::vector<std::int64_t> meta;
    std::size_t floats;
  };
  const Frame bad[] = {
      {{}, 0},                  // no meta
      {{kAssign, 1}, 0},        // short meta
      {{kAssign, 1, 0, 0}, 0},  // long meta
      {{1, 1, 1}, 3},           // mode 1, between kAssign and kAverage
      {{7, 1, 1}, 3},           // unknown mode
      {{-1, 0, 0}, 0},          // stop sentinel from another rank
      {{kAssign, 0, 1}, 3},     // no reply wanted
      {{kAssign, 2, 1}, 3},     // want_reply not 1
      {{kAssign, 1, 2}, 3},     // has_payload not 0 or 1
      {{kAssign, 1, 1}, 0},     // missing payload
      {{kAssign, 1, 1}, 2},     // short payload
      {{kAssign, 1, 1}, 4},     // long payload
      {{kAssign, 1, 0}, 3},     // payload without has_payload
  };
  obs::Session session;
  net::Fabric fabric(2);
  ParameterServer server(fabric, 1, {1.0f, 2.0f, 3.0f});
  server.Start();
  for (const Frame& frame : bad) {
    net::Message req;
    req.tag = PsTags::kRequest;
    req.meta = frame.meta;
    req.data.assign(frame.floats, 9.0f);
    fabric.Send(0, 1, std::move(req));
  }
  // Frames from one sender arrive in order, so the pull is served after
  // every bad frame; the retry budget turns a stopped server into a
  // failure instead of a hang.
  PsClient client(fabric, 0, 1, 3);
  client.ConfigureRetry(3, 0.5);
  EXPECT_EQ(client.TryPull().value(), (std::vector<float>{1.0f, 2.0f, 3.0f}));
  EXPECT_FALSE(fabric.TryRecv(0, PsTags::kReply).has_value())
      << "a malformed frame was answered";
  EXPECT_EQ(server.RequestsServed(), 1u);
  EXPECT_EQ(session.Metrics().CounterValue("ps.rejected_requests"),
            static_cast<std::int64_t>(std::size(bad)));
  server.Stop();
}

// ------------------------------------------------------ scripted server
//
// The test thread plays the server endpoint kServer, answering or
// swallowing each request by script, while the call under test runs on its
// own thread.

constexpr net::Rank kClient = 0;
constexpr net::Rank kServer = 1;
constexpr std::size_t kDim = 7;

// The next request at the server endpoint.
net::Message NextRequest(net::Fabric& fabric) {
  auto req = fabric.RecvFor(kServer, PsTags::kRequest, 10.0);
  if (!req.has_value()) {
    ADD_FAILURE() << "no request reached the server";
    return {};
  }
  return std::move(*req);
}

// The server replies with `state`.
void Answer(net::Fabric& fabric, const std::vector<float>& state) {
  net::Message reply;
  reply.tag = PsTags::kReply;
  reply.data = state;
  fabric.Send(kServer, kClient, std::move(reply));
}

std::vector<float> ServerState() {
  std::vector<float> state(kDim);
  for (std::size_t i = 0; i < kDim; ++i) {
    state[i] = 0.5f + static_cast<float>(i);
  }
  return state;
}

TEST(PsClient, CallSendsTheClassicFrame) {
  // Exactly one request to the server carrying the whole payload, and the
  // reply payload adopted as the result without a copy.
  net::Fabric fabric(2);
  PsClient client(fabric, kClient, kServer, /*dim=*/3);
  const std::vector<float> payload{1.0f, 2.0f, 3.0f};
  auto push_pull = std::async(std::launch::async, [&] {
    return client.TryPushPull(payload, ApplyMode::kAverage);
  });
  const net::Message req = NextRequest(fabric);
  EXPECT_EQ(req.src, kClient);
  EXPECT_EQ(req.meta, (std::vector<std::int64_t>{
                          static_cast<std::int64_t>(ApplyMode::kAverage), 1,
                          1}));
  EXPECT_EQ(req.data, payload);
  net::Message reply;
  reply.tag = PsTags::kReply;
  reply.data = {7.0f, 8.0f, 9.0f};
  const float* reply_storage = reply.data.data();
  fabric.Send(kServer, kClient, std::move(reply));
  const auto pushed = push_pull.get();
  ASSERT_TRUE(pushed.has_value());
  EXPECT_EQ(*pushed, (std::vector<float>{7.0f, 8.0f, 9.0f}));
  EXPECT_EQ(pushed->data(), reply_storage);
  EXPECT_FALSE(fabric.TryRecv(kServer, PsTags::kRequest).has_value())
      << "a call sends exactly one request";

  auto pull = std::async(std::launch::async, [&] { return client.TryPull(); });
  const net::Message pull_req = NextRequest(fabric);
  EXPECT_EQ(pull_req.meta,
            (std::vector<std::int64_t>{
                static_cast<std::int64_t>(ApplyMode::kAssign), 1, 0}));
  EXPECT_TRUE(pull_req.data.empty());
  net::Message state;
  state.tag = PsTags::kReply;
  state.data = {4.0f, 5.0f, 6.0f};
  fabric.Send(kServer, kClient, std::move(state));
  EXPECT_EQ(pull.get().value(), (std::vector<float>{4.0f, 5.0f, 6.0f}));
}

TEST(PsClient, WrongSizeReplyIsIgnored) {
  // A reply of the wrong size is recycled and counted; the call keeps
  // waiting, and the retry's reply completes it.
  obs::Session session;
  net::Fabric fabric(kServer + 1);
  PsClient client(fabric, kClient, kServer, kDim);
  client.ConfigureRetry(3, 0.25);
  const std::vector<float> state = ServerState();
  auto pull = std::async(std::launch::async, [&] { return client.TryPull(); });
  NextRequest(fabric);
  Answer(fabric, std::vector<float>(kDim - 1, -1.0f));
  NextRequest(fabric);  // the retry
  Answer(fabric, state);
  const auto pulled = pull.get();
  ASSERT_TRUE(pulled.has_value());
  EXPECT_EQ(*pulled, state);
  EXPECT_EQ(session.Metrics().CounterValue("ps.rejected_replies"), 1);
  EXPECT_EQ(session.Metrics().CounterValue("ps.retries"), 1);
}

// The retry loop against a scripted server.
class PsRetry : public ::testing::Test {
 protected:
  std::int64_t Count(std::string_view name) const {
    return session_.Metrics().CounterValue(name);
  }

  obs::Session session_;
  net::Fabric fabric_{kServer + 1};
};

TEST_F(PsRetry, SwallowedRequestIsResent) {
  PsClient client(fabric_, kClient, kServer, kDim);
  client.ConfigureRetry(3, 0.25);
  const std::vector<float> state = ServerState();
  auto pull = std::async(std::launch::async, [&] { return client.TryPull(); });
  NextRequest(fabric_);
  NextRequest(fabric_);
  Answer(fabric_, state);
  const auto pulled = pull.get();
  ASSERT_TRUE(pulled.has_value());
  EXPECT_EQ(*pulled, state);
  EXPECT_EQ(Count("ps.retries"), 1);
  EXPECT_EQ(Count("ps.call_failures"), 0);
}

TEST_F(PsRetry, UnansweredCallFailsAfterTheFullBackoff) {
  // `budget` attempts wait t, 2t, 4t, …; budget 1 is one attempt of t.
  constexpr double kT = 0.02;
  for (const std::size_t budget : {std::size_t{1}, std::size_t{3}}) {
    SCOPED_TRACE(budget);
    const std::int64_t failures = Count("ps.call_failures");
    const std::int64_t retries = Count("ps.retries");
    PsClient client(fabric_, kClient, kServer, kDim);
    client.ConfigureRetry(budget, kT);
    const common::Stopwatch watch;
    const auto pushed = client.TryPushPull(ServerState(), ApplyMode::kAverage);
    const double elapsed = watch.Elapsed();
    EXPECT_FALSE(pushed.has_value());
    EXPECT_EQ(Count("ps.call_failures") - failures, 1);
    EXPECT_EQ(Count("ps.retries") - retries,
              static_cast<std::int64_t>(budget) - 1);
    EXPECT_GE(elapsed,
              kT * static_cast<double>((std::size_t{1} << budget) - 1));
    for (std::size_t attempt = 0; attempt < budget; ++attempt) {
      EXPECT_TRUE(fabric_.TryRecv(kServer, PsTags::kRequest).has_value())
          << "attempt " << attempt;
    }
    EXPECT_FALSE(fabric_.TryRecv(kServer, PsTags::kRequest).has_value());
  }
}

TEST_F(PsRetry, ShutdownEndsAPendingWait) {
  // The default policy's one attempt waits common::kLosslessDeadline; a
  // shutdown ends it early with std::nullopt, not a failed call or abort.
  PsClient client(fabric_, kClient, kServer, kDim);
  const common::Stopwatch watch;
  auto push_pull = std::async(std::launch::async, [&] {
    return client.TryPushPull(ServerState(), ApplyMode::kAverage);
  });
  NextRequest(fabric_);
  fabric_.Shutdown();
  EXPECT_FALSE(push_pull.get().has_value());
  EXPECT_LT(watch.Elapsed(), common::kLosslessDeadline / 2);
  EXPECT_EQ(Count("ps.call_failures"), 0);
}

TEST_F(PsRetry, StaleReplyIsDropped) {
  PsClient client(fabric_, kClient, kServer, kDim);
  // A reply left over from an earlier, retried call.
  Answer(fabric_, std::vector<float>(kDim, -1.0f));
  const std::vector<float> state = ServerState();
  auto pull = std::async(std::launch::async, [&] { return client.TryPull(); });
  NextRequest(fabric_);
  Answer(fabric_, state);
  EXPECT_EQ(pull.get().value(), state);
  EXPECT_EQ(Count("ps.stale_replies_dropped"), 1);
}

}  // namespace
}  // namespace rna::ps
