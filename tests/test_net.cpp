// Tests for the in-process fabric: tag-scoped delivery, timed receives,
// multi-tag receives, shutdown semantics, traffic accounting, and the
// latency-injection timer path.

#include <gtest/gtest.h>

#include <thread>

#include "rna/common/clock.hpp"
#include "rna/net/fabric.hpp"

namespace rna::net {
namespace {

// Every receive has a deadline; the tests' is long enough to never fire on
// a message that is on its way.
constexpr common::Seconds kTestWait = 10.0;

Message Make(int tag, std::vector<float> data = {},
             std::vector<std::int64_t> meta = {}) {
  Message m;
  m.tag = tag;
  m.data = std::move(data);
  m.meta = std::move(meta);
  return m;
}

TEST(Fabric, PointToPointDelivery) {
  Fabric fabric(2);
  fabric.Send(0, 1, Make(5, {1.0f, 2.0f}, {42}));
  auto msg = fabric.RecvFor(1, 5, kTestWait);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->src, 0u);
  EXPECT_EQ(msg->tag, 5);
  EXPECT_EQ(msg->data[1], 2.0f);
  EXPECT_EQ(msg->meta[0], 42);
}

TEST(Fabric, TagScopedFifo) {
  Fabric fabric(2);
  fabric.Send(0, 1, Make(1, {1.0f}));
  fabric.Send(0, 1, Make(2, {2.0f}));
  fabric.Send(0, 1, Make(1, {3.0f}));
  // Tag 2 first despite arriving second; tag-1 messages keep FIFO order.
  EXPECT_EQ(fabric.RecvFor(1, 2, kTestWait)->data[0], 2.0f);
  EXPECT_EQ(fabric.RecvFor(1, 1, kTestWait)->data[0], 1.0f);
  EXPECT_EQ(fabric.RecvFor(1, 1, kTestWait)->data[0], 3.0f);
}

TEST(Fabric, RecvAnyPicksEarliestMatching) {
  Fabric fabric(2);
  fabric.Send(0, 1, Make(7, {7.0f}));
  fabric.Send(0, 1, Make(8, {8.0f}));
  const int tags[] = {8, 7};
  // The queue is scanned front-first, so the earlier message wins even
  // though its tag is listed second.
  auto msg = fabric.RecvAnyFor(1, tags, kTestWait);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->tag, 7);
}

TEST(Fabric, TryRecvNonBlocking) {
  Fabric fabric(1);
  EXPECT_FALSE(fabric.TryRecv(0, 3).has_value());
  fabric.Send(0, 0, Make(3));
  EXPECT_TRUE(fabric.TryRecv(0, 3).has_value());
}

TEST(Fabric, RecvForTimesOut) {
  Fabric fabric(1);
  const common::Stopwatch watch;
  EXPECT_FALSE(fabric.RecvFor(0, 1, 0.02).has_value());
  EXPECT_GE(watch.Elapsed(), 0.015);
}

TEST(Fabric, RecvForReturnsEarlyOnArrival) {
  Fabric fabric(2);
  std::thread sender([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    fabric.Send(0, 1, Make(9));
  });
  const common::Stopwatch watch;
  auto msg = fabric.RecvFor(1, 9, 5.0);
  EXPECT_TRUE(msg.has_value());
  EXPECT_LT(watch.Elapsed(), 1.0);
  sender.join();
}

TEST(Fabric, BlockingRecvCrossThread) {
  Fabric fabric(2);
  std::thread receiver([&] {
    auto msg = fabric.RecvFor(1, 4, kTestWait);
    ASSERT_TRUE(msg.has_value());
    EXPECT_EQ(msg->data[0], 1.5f);
  });
  fabric.Send(0, 1, Make(4, {1.5f}));
  receiver.join();
}

TEST(Fabric, ShutdownWakesBlockedReceivers) {
  Fabric fabric(1);
  std::thread receiver([&] {
    const common::Stopwatch watch;
    EXPECT_FALSE(fabric.RecvFor(0, 1, kTestWait).has_value());
    EXPECT_LT(watch.Elapsed(), kTestWait / 2);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  fabric.Shutdown();
  receiver.join();
}

TEST(Fabric, PendingCounts) {
  Fabric fabric(2);
  fabric.Send(0, 1, Make(1));
  fabric.Send(0, 1, Make(1));
  fabric.Send(0, 1, Make(2));
  // Pending is exposed on the mailbox via Recv-side behavior: consume and
  // verify counts through TryRecv.
  EXPECT_TRUE(fabric.TryRecv(1, 1).has_value());
  EXPECT_TRUE(fabric.TryRecv(1, 1).has_value());
  EXPECT_FALSE(fabric.TryRecv(1, 1).has_value());
  EXPECT_TRUE(fabric.TryRecv(1, 2).has_value());
}

TEST(Fabric, TrafficStatsAccumulate) {
  Fabric fabric(2);
  fabric.Send(0, 1, Make(1, {1.0f, 2.0f}, {3}));
  fabric.Send(0, 1, Make(1, {1.0f}));
  const TrafficStats s = fabric.StatsFor(0);
  EXPECT_EQ(s.messages_sent, 2u);
  EXPECT_EQ(s.bytes_sent, 2 * sizeof(float) + sizeof(std::int64_t) +
                              sizeof(float));
  EXPECT_EQ(fabric.TotalStats().messages_sent, 2u);
  EXPECT_EQ(fabric.StatsFor(1).messages_sent, 0u);
}

TEST(Fabric, InvalidRankRejected) {
  Fabric fabric(2);
  EXPECT_THROW(fabric.Send(0, 5, Make(1)), std::logic_error);
  EXPECT_THROW(fabric.RecvFor(9, 1, kTestWait), std::logic_error);
}

TEST(Fabric, LatencyModelDelaysDelivery) {
  Fabric fabric(2, [](Rank, Rank, std::size_t) { return 0.03; });
  const common::Stopwatch watch;
  fabric.Send(0, 1, Make(1));
  auto msg = fabric.RecvFor(1, 1, kTestWait);
  ASSERT_TRUE(msg.has_value());
  EXPECT_GE(watch.Elapsed(), 0.025);
}

TEST(Fabric, LatencyModelPreservesPerPairOrderWhenEqual) {
  // Constant latency cannot reorder messages between the same endpoints.
  Fabric fabric(2, [](Rank, Rank, std::size_t) { return 0.005; });
  for (int i = 0; i < 10; ++i) {
    fabric.Send(0, 1, Make(1, {static_cast<float>(i)}));
  }
  for (int i = 0; i < 10; ++i) {
    auto msg = fabric.RecvFor(1, 1, kTestWait);
    ASSERT_TRUE(msg.has_value());
    EXPECT_EQ(msg->data[0], static_cast<float>(i));
  }
}

TEST(Fabric, ZeroLatencyPathSkipsTimer) {
  Fabric fabric(2, [](Rank from, Rank, std::size_t) {
    return from == 0 ? 0.0 : 0.01;
  });
  fabric.Send(0, 1, Make(1));
  EXPECT_TRUE(fabric.TryRecv(1, 1).has_value());  // immediate
}

TEST(Fabric, PerSenderFifoUnderConcurrency) {
  // Several senders blast one receiver; within each sender's stream, the
  // sequence numbers must arrive in order (the property the ring's
  // parity-tag scheme relies on).
  const std::size_t senders = 4;
  const int per_sender = 500;
  Fabric fabric(senders + 1);
  std::vector<std::thread> threads;
  for (std::size_t s = 0; s < senders; ++s) {
    threads.emplace_back([&, s] {
      for (int i = 0; i < per_sender; ++i) {
        fabric.Send(s, senders, Make(1, {}, {static_cast<std::int64_t>(i)}));
      }
    });
  }
  std::vector<std::int64_t> next(senders, 0);
  for (int received = 0; received < static_cast<int>(senders) * per_sender;
       ++received) {
    auto msg = fabric.RecvFor(senders, 1, kTestWait);
    ASSERT_TRUE(msg.has_value());
    ASSERT_EQ(msg->meta[0], next[msg->src]) << "sender " << msg->src;
    ++next[msg->src];
  }
  for (auto& t : threads) t.join();
}

TEST(Fabric, ConcurrentBidirectionalExchange) {
  // Two endpoints exchanging in both directions simultaneously must not
  // lose or duplicate messages.
  Fabric fabric(2);
  const int n = 2000;
  auto pump = [&](Rank self, Rank peer) {
    std::int64_t sum = 0;
    for (int i = 0; i < n; ++i) {
      fabric.Send(self, peer, Make(7, {}, {i}));
      auto msg = fabric.RecvFor(self, 7, kTestWait);
      if (!msg.has_value()) break;
      sum += msg->meta[0];
    }
    return sum;
  };
  std::int64_t sum1 = 0;
  std::thread t([&] { sum1 = pump(1, 0); });
  const std::int64_t sum0 = pump(0, 1);
  t.join();
  const std::int64_t expected =
      static_cast<std::int64_t>(n) * (n - 1) / 2;
  EXPECT_EQ(sum0, expected);
  EXPECT_EQ(sum1, expected);
}

TEST(Mailbox, GetAnyForHonorsClose) {
  Mailbox box;
  std::thread t([&] {
    const int tags[] = {1, 2};
    const common::Stopwatch watch;
    EXPECT_FALSE(box.GetAnyFor(tags, kTestWait).has_value());
    EXPECT_LT(watch.Elapsed(), kTestWait / 2);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  box.Close();
  t.join();
}

TEST(Mailbox, PutAfterCloseRejected) {
  Mailbox box;
  box.Close();
  Message m;
  EXPECT_FALSE(box.Put(std::move(m)));
}

TEST(Mailbox, GetAnyForReturnsEarliestMatching) {
  Mailbox box;
  box.Put(Make(7, {7.0f}));
  box.Put(Make(8, {8.0f}));
  const int tags[] = {8, 7};
  // Front-of-queue wins, same as GetAny: arrival order, not tag-list order.
  auto msg = box.GetAnyFor(tags, 1.0);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->tag, 7);
}

TEST(Mailbox, GetAnyForTimesOutLeavingOtherTagsIntact) {
  Mailbox box;
  box.Put(Make(3));
  const int tags[] = {1, 2};
  const common::Stopwatch watch;
  EXPECT_FALSE(box.GetAnyFor(tags, 0.02).has_value());
  EXPECT_GE(watch.Elapsed(), 0.015);
  // The non-matching message was not consumed or reordered.
  EXPECT_EQ(box.Pending(3), 1u);
}

TEST(Mailbox, GetAnyForWakesOnArrival) {
  Mailbox box;
  std::thread sender([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    box.Put(Make(2));
  });
  const int tags[] = {1, 2};
  const common::Stopwatch watch;
  auto msg = box.GetAnyFor(tags, 5.0);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->tag, 2);
  EXPECT_LT(watch.Elapsed(), 1.0);
  sender.join();
}

TEST(Mailbox, GetAnyForHonorsCloseDuringWait) {
  // The controller's "probe reply OR goodbye with deadline" wait must not
  // outlive the fabric: close wakes it with nullopt before the deadline.
  Mailbox box;
  std::thread waiter([&] {
    const int tags[] = {1, 2};
    const common::Stopwatch watch;
    EXPECT_FALSE(box.GetAnyFor(tags, 10.0).has_value());
    EXPECT_LT(watch.Elapsed(), 5.0);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  box.Close();
  waiter.join();
}

TEST(Mailbox, GetForZeroTimeoutIsOnePopAttempt) {
  // Zero (and negative) timeouts degenerate to TryGet: no wait, so a poll
  // loop built on GetFor(…, 0) can never block.
  Mailbox box;
  const common::Stopwatch watch;
  EXPECT_FALSE(box.GetFor(1, 0.0).has_value());
  EXPECT_FALSE(box.GetFor(1, -1.0).has_value());
  EXPECT_LT(watch.Elapsed(), 0.01);
  box.Put(Make(1, {4.0f}));
  auto msg = box.GetFor(1, 0.0);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->data[0], 4.0f);
}

TEST(Mailbox, GetForZeroTimeoutAfterClose) {
  Mailbox box;
  box.Put(Make(1));
  box.Close();
  // Close drains nothing: queued messages stay readable, then nullopt.
  EXPECT_TRUE(box.GetFor(1, 0.0).has_value());
  EXPECT_FALSE(box.GetFor(1, 0.0).has_value());
}

TEST(Mailbox, PurgeTagRangeRemovesOnlyRange) {
  Mailbox box;
  box.Put(Make(10));
  box.Put(Make(11));
  box.Put(Make(12));
  box.Put(Make(20));
  EXPECT_EQ(box.PurgeTagRange(10, 11), 2u);
  EXPECT_EQ(box.Pending(10), 0u);
  EXPECT_EQ(box.Pending(12), 1u);
  EXPECT_EQ(box.Pending(20), 1u);
}

}  // namespace
}  // namespace rna::net
