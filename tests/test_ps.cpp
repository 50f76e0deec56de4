// Tests for the ps-lite-style parameter server: the two apply modes (assign
// and average), push/pull round trips, concurrent clients, clean shutdown,
// rejection of malformed request frames — plus the scale-out layer
// (range-sharded servers striped by one PsClient, parent-folding in the
// recursive PS tree), the one-shard request frame, and the client's retry
// loop and reply checks against a scripted server.

#include <gtest/gtest.h>

#include <future>
#include <memory>
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
  PsClient client(fabric, 0, 2, /*shards=*/1, /*dim=*/3);
  EXPECT_EQ(client.TryPull().value(), (std::vector<float>{1.0f, 2.0f, 3.0f}));
  server.Stop();
}

TEST(ParameterServer, PushAssignReplacesState) {
  net::Fabric fabric(2);
  ParameterServer server(fabric, 1, {0.0f, 0.0f});
  server.Start();
  PsClient client(fabric, 0, 1, 1, 2);
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
  PsClient client(fabric, 0, 1, 1, 1);
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
  PsClient client(fabric, 0, 1, 1, 1);
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
      PsClient client(fabric, c, clients, 1, 1);
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
  PsClient reader(fabric, 0, clients, 1, 1);
  EXPECT_EQ(reader.TryPull().value()[0], 1.0f);
  server.Stop();
}

TEST(ParameterServer, SnapshotMatchesPull) {
  net::Fabric fabric(2);
  ParameterServer server(fabric, 1, {1.5f, 2.5f});
  server.Start();
  PsClient client(fabric, 0, 1, 1, 2);
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
  PsClient client(fabric, 0, 1, 1, 1);
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
  PsClient client(fabric, 0, 1, 1, 3);
  client.ConfigureRetry(3, 0.5);
  EXPECT_EQ(client.TryPull().value(), (std::vector<float>{1.0f, 2.0f, 3.0f}));
  EXPECT_FALSE(fabric.TryRecv(0, PsTags::kReply).has_value())
      << "a malformed frame was answered";
  EXPECT_EQ(server.RequestsServed(), 1u);
  EXPECT_EQ(session.Metrics().CounterValue("ps.rejected_requests"),
            static_cast<std::int64_t>(std::size(bad)));
  server.Stop();
}

// ------------------------------------------------------- sharded clients

TEST(ShardedPs, ShardRangesPartitionEveryDim) {
  for (const std::size_t dim : {1u, 5u, 64u, 999u}) {
    for (std::size_t shards = 1; shards <= std::min<std::size_t>(dim, 8);
         ++shards) {
      std::size_t covered = 0;
      for (std::size_t s = 0; s < shards; ++s) {
        EXPECT_EQ(ShardFirst(dim, shards, s), covered);
        const std::size_t len = ShardLast(dim, shards, s) - covered;
        EXPECT_GE(len, dim / shards);
        EXPECT_LE(len, dim / shards + 1);
        covered += len;
      }
      EXPECT_EQ(covered, dim);
    }
  }
}

// Helper: a bank of range-sharded servers over `init`, started on
// endpoints [first, first + shards).
std::vector<std::unique_ptr<ParameterServer>> StartShardBank(
    net::Fabric& fabric, net::Rank first, const std::vector<float>& init,
    std::size_t shards) {
  std::vector<std::unique_ptr<ParameterServer>> servers;
  for (std::size_t s = 0; s < shards; ++s) {
    std::vector<float> slice(
        init.begin() + static_cast<std::ptrdiff_t>(
                           ShardFirst(init.size(), shards, s)),
        init.begin() + static_cast<std::ptrdiff_t>(
                           ShardLast(init.size(), shards, s)));
    servers.push_back(std::make_unique<ParameterServer>(
        fabric, first + s, std::move(slice)));
    servers.back()->Start();
  }
  return servers;
}

TEST(ShardedPs, MultiShardPushPullMatchesSinglePs) {
  // Equivalence oracle: the same op sequence against a 4-shard bank and
  // one full-dim server must produce identical states throughout.
  constexpr std::size_t kDim = 10;  // 4 shards of sizes 3/3/2/2
  constexpr std::size_t kShards = 4;
  std::vector<float> init(kDim);
  for (std::size_t i = 0; i < kDim; ++i) init[i] = static_cast<float>(i);

  net::Fabric fabric(2 + kShards + 1);
  auto bank = StartShardBank(fabric, 2, init, kShards);
  ParameterServer reference(fabric, 2 + kShards, init);
  reference.Start();
  PsClient sharded(fabric, 0, 2, kShards, kDim);
  PsClient plain(fabric, 1, 2 + kShards, 1, kDim);

  const ApplyMode modes[] = {ApplyMode::kAverage, ApplyMode::kAverage,
                             ApplyMode::kAssign, ApplyMode::kAverage};
  for (int op = 0; op < 4; ++op) {
    std::vector<float> payload(kDim);
    for (std::size_t i = 0; i < kDim; ++i) {
      payload[i] = static_cast<float>((op + 1) * 10 + i);
    }
    const auto a = sharded.TryPushPull(payload, modes[op]);
    const auto b = plain.TryPushPull(payload, modes[op]);
    ASSERT_TRUE(a.has_value() && b.has_value()) << "op " << op;
    ASSERT_EQ(*a, *b) << "op " << op;
  }
  EXPECT_EQ(sharded.TryPull().value(), plain.TryPull().value());
  for (auto& s : bank) s->Stop();
  reference.Stop();
}

TEST(ShardedPs, ConcurrentStripedClientsAllServed) {
  constexpr std::size_t kClients = 4;
  constexpr std::size_t kShards = 3;
  constexpr std::size_t kDim = 7;
  net::Fabric fabric(kClients + kShards);
  auto bank =
      StartShardBank(fabric, kClients, std::vector<float>(kDim, 0.0f),
                     kShards);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      PsClient client(fabric, c, kClients, kShards, kDim);
      for (int i = 0; i < 25; ++i) {
        EXPECT_TRUE(client
                        .TryPushPull(std::vector<float>(kDim, 1.0f),
                                     ApplyMode::kAverage)
                        .has_value());
      }
    });
  }
  for (auto& t : threads) t.join();
  for (auto& s : bank) EXPECT_EQ(s->RequestsServed(), 100u);  // 4 × 25
  // 100 halvings of the distance to 1 round to 1 exactly in float.
  PsClient reader(fabric, 0, kClients, kShards, kDim);
  EXPECT_EQ(reader.TryPull().value(), std::vector<float>(kDim, 1.0f));
  for (auto& s : bank) s->Stop();
}

// ---------------------------------------------------------- parent folds

TEST(ShardedPs, ParentSyncFoldsChildIntoParent) {
  // Two-node tree, one shard: the child averages its state into the root
  // after every applied payload, so a client pushing to the child sees
  // state that reflects the root's — cross-group averaging through the
  // tree instead of a shared endpoint.
  net::Fabric fabric(3);
  ParameterServer root(fabric, 1, {0.0f});
  root.Start();
  ParameterServer child(fabric, 2, {0.0f});
  child.ConfigureParent(1);
  child.Start();

  PsClient client(fabric, 0, 2, 1, 1);
  // Child applies 8 -> state 8; the parent sync runs before the reply, so
  // the returned state is already root-averaged: (0+8)/2 = 4 at the root,
  // child adopts 4.
  const auto replied =
      client.TryPushPull(std::vector<float>{8.0f}, ApplyMode::kAssign);
  EXPECT_EQ(replied.value(), (std::vector<float>{4.0f}));
  EXPECT_EQ(root.Snapshot(), (std::vector<float>{4.0f}));
  EXPECT_EQ(child.Snapshot(), (std::vector<float>{4.0f}));
  // A pull applies no payload, so it does not sync: with the root reset
  // to 0 behind the child's back, a pull from the child still reads 4 and
  // leaves the root at 0 (a sync would have made both (0+4)/2 = 2).
  PsClient root_client(fabric, 0, 1, 1, 1);
  ASSERT_TRUE(
      root_client.TryPushPull(std::vector<float>{0.0f}, ApplyMode::kAssign)
          .has_value());
  EXPECT_EQ(client.TryPull().value(), (std::vector<float>{4.0f}));
  EXPECT_EQ(root.Snapshot(), (std::vector<float>{0.0f}));
  child.Stop();  // children before parents
  root.Stop();
}

// ------------------------------------------------------ scripted server
//
// The test thread plays the server endpoints [kFirst, kFirst + shards),
// answering or swallowing each request by script, while the call under
// test runs on its own thread.

constexpr net::Rank kClient = 0;
constexpr net::Rank kFirst = 1;
constexpr std::size_t kDim = 7;

// The next request at shard `s`'s endpoint.
net::Message NextRequest(net::Fabric& fabric, std::size_t s) {
  auto req = fabric.RecvFor(kFirst + s, PsTags::kRequest, 10.0);
  if (!req.has_value()) {
    ADD_FAILURE() << "no request reached shard " << s;
    return {};
  }
  return std::move(*req);
}

// Shard `s` replies with its slice of `state`.
void Answer(net::Fabric& fabric, std::size_t shards, std::size_t s,
            const std::vector<float>& state) {
  net::Message reply;
  reply.tag = PsTags::kReply;
  reply.data.assign(
      state.begin() + static_cast<std::ptrdiff_t>(ShardFirst(kDim, shards, s)),
      state.begin() + static_cast<std::ptrdiff_t>(ShardLast(kDim, shards, s)));
  fabric.Send(kFirst + s, kClient, std::move(reply));
}

std::vector<float> ServerState() {
  std::vector<float> state(kDim);
  for (std::size_t i = 0; i < kDim; ++i) {
    state[i] = 0.5f + static_cast<float>(i);
  }
  return state;
}

TEST(PsClient, OneShardCallSendsTheClassicFrame) {
  // One shard is the single-server protocol: exactly one request to the
  // server carrying the whole payload, and the reply payload adopted as
  // the result without a copy.
  net::Fabric fabric(2);
  PsClient client(fabric, kClient, kFirst, /*shards=*/1, /*dim=*/3);
  const std::vector<float> payload{1.0f, 2.0f, 3.0f};
  auto push_pull = std::async(std::launch::async, [&] {
    return client.TryPushPull(payload, ApplyMode::kAverage);
  });
  const net::Message req = NextRequest(fabric, 0);
  EXPECT_EQ(req.src, kClient);
  EXPECT_EQ(req.meta, (std::vector<std::int64_t>{
                          static_cast<std::int64_t>(ApplyMode::kAverage), 1,
                          1}));
  EXPECT_EQ(req.data, payload);
  net::Message reply;
  reply.tag = PsTags::kReply;
  reply.data = {7.0f, 8.0f, 9.0f};
  const float* reply_storage = reply.data.data();
  fabric.Send(kFirst, kClient, std::move(reply));
  const auto pushed = push_pull.get();
  ASSERT_TRUE(pushed.has_value());
  EXPECT_EQ(*pushed, (std::vector<float>{7.0f, 8.0f, 9.0f}));
  EXPECT_EQ(pushed->data(), reply_storage);
  EXPECT_FALSE(fabric.TryRecv(kFirst, PsTags::kRequest).has_value())
      << "a one-shard call sends exactly one request";

  auto pull = std::async(std::launch::async, [&] { return client.TryPull(); });
  const net::Message pull_req = NextRequest(fabric, 0);
  EXPECT_EQ(pull_req.meta,
            (std::vector<std::int64_t>{
                static_cast<std::int64_t>(ApplyMode::kAssign), 1, 0}));
  EXPECT_TRUE(pull_req.data.empty());
  net::Message state;
  state.tag = PsTags::kReply;
  state.data = {4.0f, 5.0f, 6.0f};
  fabric.Send(kFirst, kClient, std::move(state));
  EXPECT_EQ(pull.get().value(), (std::vector<float>{4.0f, 5.0f, 6.0f}));
}

TEST(PsClient, RetryResendsOnlyTheMissingShard) {
  constexpr std::size_t kShards = 3;
  obs::Session session;
  net::Fabric fabric(kFirst + kShards);
  PsClient client(fabric, kClient, kFirst, kShards, kDim);
  client.ConfigureRetry(3, 0.25);
  const std::vector<float> state = ServerState();
  auto pull = std::async(std::launch::async, [&] { return client.TryPull(); });
  for (std::size_t s = 0; s < kShards; ++s) {
    NextRequest(fabric, s);
    if (s != 1) Answer(fabric, kShards, s, state);  // shard 1 stays silent
  }
  NextRequest(fabric, 1);  // the retry
  Answer(fabric, kShards, 1, state);
  const auto pulled = pull.get();
  ASSERT_TRUE(pulled.has_value());
  EXPECT_EQ(*pulled, state);
  EXPECT_EQ(session.Metrics().CounterValue("ps.retries"), 1);
  EXPECT_FALSE(fabric.TryRecv(kFirst + 0, PsTags::kRequest).has_value());
  EXPECT_FALSE(fabric.TryRecv(kFirst + 2, PsTags::kRequest).has_value());
}

TEST(PsClient, WrongSizeReplyIsIgnored) {
  // A reply of the wrong size for its shard is recycled and counted; the
  // shard stays missing, so the retry re-sends to it alone.
  for (const std::size_t shards : {std::size_t{1}, std::size_t{3}}) {
    SCOPED_TRACE(shards);
    obs::Session session;
    net::Fabric fabric(kFirst + shards);
    PsClient client(fabric, kClient, kFirst, shards, kDim);
    client.ConfigureRetry(3, 0.25);
    const std::vector<float> state = ServerState();
    auto pull =
        std::async(std::launch::async, [&] { return client.TryPull(); });
    for (std::size_t s = 0; s < shards; ++s) {
      NextRequest(fabric, s);
      if (s != 0) {
        Answer(fabric, shards, s, state);
        continue;
      }
      net::Message short_reply;
      short_reply.tag = PsTags::kReply;
      short_reply.data.assign(ShardLast(kDim, shards, 0) - 1, -1.0f);
      fabric.Send(kFirst, kClient, std::move(short_reply));
    }
    NextRequest(fabric, 0);  // the retry
    Answer(fabric, shards, 0, state);
    const auto pulled = pull.get();
    ASSERT_TRUE(pulled.has_value());
    EXPECT_EQ(*pulled, state);
    EXPECT_EQ(session.Metrics().CounterValue("ps.rejected_replies"), 1);
    EXPECT_EQ(session.Metrics().CounterValue("ps.retries"), 1);
    for (std::size_t s = 1; s < shards; ++s) {
      EXPECT_FALSE(fabric.TryRecv(kFirst + s, PsTags::kRequest).has_value());
    }
  }
}

// The retry loop is the same for one shard and a striped bank.
class PsRetry : public ::testing::TestWithParam<std::size_t> {
 protected:
  std::size_t Shards() const { return GetParam(); }
  std::int64_t Count(std::string_view name) const {
    return session_.Metrics().CounterValue(name);
  }

  obs::Session session_;
  net::Fabric fabric_{kFirst + 3};
};

TEST_P(PsRetry, SwallowedRequestIsResent) {
  PsClient client(fabric_, kClient, kFirst, Shards(), kDim);
  client.ConfigureRetry(3, 0.25);
  const std::vector<float> state = ServerState();
  auto pull = std::async(std::launch::async, [&] { return client.TryPull(); });
  for (std::size_t s = 0; s < Shards(); ++s) NextRequest(fabric_, s);
  for (std::size_t s = 0; s < Shards(); ++s) {
    NextRequest(fabric_, s);
    Answer(fabric_, Shards(), s, state);
  }
  const auto pulled = pull.get();
  ASSERT_TRUE(pulled.has_value());
  EXPECT_EQ(*pulled, state);
  EXPECT_EQ(Count("ps.retries"), 1);
  EXPECT_EQ(Count("ps.call_failures"), 0);
}

TEST_P(PsRetry, UnansweredCallFailsAfterTheFullBackoff) {
  // `budget` attempts wait t, 2t, 4t, …; budget 1 is one attempt of t.
  constexpr double kT = 0.02;
  for (const std::size_t budget : {std::size_t{1}, std::size_t{3}}) {
    SCOPED_TRACE(budget);
    const std::int64_t failures = Count("ps.call_failures");
    const std::int64_t retries = Count("ps.retries");
    PsClient client(fabric_, kClient, kFirst, Shards(), kDim);
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
    for (std::size_t s = 0; s < Shards(); ++s) {
      for (std::size_t attempt = 0; attempt < budget; ++attempt) {
        EXPECT_TRUE(fabric_.TryRecv(kFirst + s, PsTags::kRequest).has_value())
            << "shard " << s << " attempt " << attempt;
      }
      EXPECT_FALSE(fabric_.TryRecv(kFirst + s, PsTags::kRequest).has_value());
    }
  }
}

TEST_P(PsRetry, ShutdownEndsAPendingWait) {
  // The default policy's one attempt waits common::kLosslessDeadline; a
  // shutdown ends it early with std::nullopt, not a failed call or abort.
  PsClient client(fabric_, kClient, kFirst, Shards(), kDim);
  const common::Stopwatch watch;
  auto push_pull = std::async(std::launch::async, [&] {
    return client.TryPushPull(ServerState(), ApplyMode::kAverage);
  });
  for (std::size_t s = 0; s < Shards(); ++s) NextRequest(fabric_, s);
  fabric_.Shutdown();
  EXPECT_FALSE(push_pull.get().has_value());
  EXPECT_LT(watch.Elapsed(), common::kLosslessDeadline / 2);
  EXPECT_EQ(Count("ps.call_failures"), 0);
}

TEST_P(PsRetry, StaleReplyIsDropped) {
  PsClient client(fabric_, kClient, kFirst, Shards(), kDim);
  // A reply left over from an earlier, retried call.
  Answer(fabric_, Shards(), 0, std::vector<float>(kDim, -1.0f));
  const std::vector<float> state = ServerState();
  auto pull = std::async(std::launch::async, [&] { return client.TryPull(); });
  for (std::size_t s = 0; s < Shards(); ++s) {
    NextRequest(fabric_, s);
    Answer(fabric_, Shards(), s, state);
  }
  EXPECT_EQ(pull.get().value(), state);
  EXPECT_EQ(Count("ps.stale_replies_dropped"), 1);
}

INSTANTIATE_TEST_SUITE_P(Shards, PsRetry,
                         ::testing::Values(std::size_t{1}, std::size_t{3}));

}  // namespace
}  // namespace rna::ps
