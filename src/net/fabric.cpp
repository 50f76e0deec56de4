#include "rna/net/fabric.hpp"

#include <algorithm>

#include "rna/common/check.hpp"
#include "rna/net/fault.hpp"
#include "rna/obs/metrics.hpp"
#include "rna/obs/trace.hpp"

namespace rna::net {

namespace {

bool TagMatches(int tag, std::span<const int> tags) {
  return std::find(tags.begin(), tags.end(), tag) != tags.end();
}

}  // namespace

bool Mailbox::Put(Message msg) {
  {
    common::MutexLock lock(mu_);
    if (closed_) return false;
    messages_.push_back(std::move(msg));
  }
  cv_.NotifyAll();
  return true;
}

std::optional<Message> Mailbox::PopLocked(std::span<const int> tags) {
  for (auto it = messages_.begin(); it != messages_.end(); ++it) {
    if (TagMatches(it->tag, tags)) {
      Message msg = std::move(*it);
      messages_.erase(it);
      return msg;
    }
  }
  return std::nullopt;
}

std::optional<Message> Mailbox::GetFor(int tag, common::Seconds timeout) {
  const int tags[] = {tag};
  return GetAnyFor(tags, timeout);
}

std::optional<Message> Mailbox::GetAnyFor(std::span<const int> tags,
                                          common::Seconds timeout) {
  if (timeout <= 0.0) {  // degenerate to a non-blocking poll
    common::MutexLock lock(mu_);
    return PopLocked(tags);
  }
  const auto deadline =
      common::SteadyClock::now() + common::FromSeconds(timeout);
  common::MutexLock lock(mu_);
  for (;;) {
    if (auto found = PopLocked(tags)) return found;
    if (closed_) return std::nullopt;
    if (cv_.WaitUntil(mu_, deadline) == std::cv_status::timeout) {
      return PopLocked(tags);  // final chance after the timeout
    }
  }
}

std::size_t Mailbox::PurgeTagRange(int tag_lo, int tag_hi) {
  common::MutexLock lock(mu_);
  const std::size_t before = messages_.size();
  std::erase_if(messages_, [&](const Message& m) {
    return m.tag >= tag_lo && m.tag <= tag_hi;
  });
  return before - messages_.size();
}

std::optional<Message> Mailbox::TryGet(int tag) {
  const int tags[] = {tag};
  common::MutexLock lock(mu_);
  return PopLocked(tags);
}

bool Mailbox::IsClosed() const {
  common::MutexLock lock(mu_);
  return closed_;
}

std::size_t Mailbox::Pending(int tag) const {
  common::MutexLock lock(mu_);
  return static_cast<std::size_t>(
      std::count_if(messages_.begin(), messages_.end(),
                    [&](const Message& m) { return m.tag == tag; }));
}

void Mailbox::Close() {
  {
    common::MutexLock lock(mu_);
    closed_ = true;
  }
  cv_.NotifyAll();
}

Fabric::Fabric(std::size_t endpoints, LatencyModel latency)
    : latency_(std::move(latency)), stats_(endpoints) {
  RNA_CHECK_MSG(endpoints > 0, "fabric needs at least one endpoint");
  mailboxes_.reserve(endpoints);
  for (std::size_t i = 0; i < endpoints; ++i) {
    mailboxes_.push_back(std::make_unique<Mailbox>());
  }
  if (latency_) EnsureTimerThread();
}

void Fabric::EnsureTimerThread() {
  if (!timer_thread_.joinable()) {
    timer_thread_ = std::thread([this] { TimerLoop(); });
  }
}

void Fabric::InstallFaultPlan(std::shared_ptr<FaultPlan> plan) {
  fault_plan_ = std::move(plan);
  // Delay faults need the delivery timer even without a latency model.
  if (fault_plan_) EnsureTimerThread();
}

Fabric::~Fabric() {
  Shutdown();
  if (timer_thread_.joinable()) {
    {
      common::MutexLock lock(timer_mu_);
      timer_stop_ = true;
    }
    timer_cv_.NotifyAll();
    timer_thread_.join();
  }
}

void Fabric::Send(Rank from, Rank to, Message msg) {
  RNA_CHECK(from < Size() && to < Size());
  msg.src = from;
  const std::size_t bytes = msg.ByteSize();
  stats_[from].messages_sent.fetch_add(1, std::memory_order_relaxed);
  stats_[from].bytes_sent.fetch_add(bytes, std::memory_order_relaxed);
  obs::CountMetric("fabric.messages");
  obs::CountMetric("fabric.bytes", static_cast<std::int64_t>(bytes));
  FaultDecision fault;
  if (fault_plan_) fault = fault_plan_->Decide(from, to, msg.tag);
  if (fault.drop) {
    // The sender already paid for the bytes (stats above); the message
    // simply never arrives — exactly a lossy link. Its payload storage is
    // still perfectly good: recycle it so a drop storm does not degrade
    // the pool's steady state.
    obs::CountMetric("fault.net.dropped");
    pool_.Recycle(std::move(msg.data));
    return;
  }
  if (fault.duplicate) obs::CountMetric("fault.net.duplicated");
  if (fault.extra_delay > 0.0) {
    obs::CountMetric("fault.net.delayed");
    obs::ObserveMetric("fault.net.extra_delay_s", fault.extra_delay);
  }
  common::Seconds delay = fault.extra_delay;
  if (latency_) delay += latency_(from, to, bytes);
  if (delay <= 0.0) {
    if (fault.duplicate) mailboxes_[to]->Put(msg);
    mailboxes_[to]->Put(std::move(msg));
    return;
  }
  obs::CountMetric("fabric.delayed_messages");
  obs::ObserveMetric("fabric.injected_delay_s", delay);
  if (fault.duplicate) EnqueueDelayed(to, msg, delay);
  EnqueueDelayed(to, std::move(msg), delay);
}

void Fabric::EnqueueDelayed(Rank to, Message msg, common::Seconds delay) {
  const auto now = common::SteadyClock::now();
  {
    common::MutexLock lock(timer_mu_);
    timer_heap_.push_back(PendingDelivery{now + common::FromSeconds(delay),
                                          now, to, std::move(msg)});
    std::push_heap(timer_heap_.begin(), timer_heap_.end(),
                   std::greater<PendingDelivery>{});
  }
  timer_cv_.NotifyAll();
}

void Fabric::TimerLoop() {
  // One span per delayed delivery, covering enqueue → handoff, so injected
  // network latency shows up as its own lane in the trace. The handle is
  // owned by this (single) timer thread.
  const obs::TrackHandle track = obs::RegisterTrack("fabric");
  common::MutexLock lock(timer_mu_);
  for (;;) {
    if (timer_stop_) return;
    if (timer_heap_.empty()) {
      timer_cv_.Wait(timer_mu_);
      continue;
    }
    const auto due = timer_heap_.front().due;
    if (common::SteadyClock::now() < due) {
      timer_cv_.WaitUntil(timer_mu_, due);
      continue;
    }
    std::pop_heap(timer_heap_.begin(), timer_heap_.end(),
                  std::greater<PendingDelivery>{});
    PendingDelivery delivery = std::move(timer_heap_.back());
    timer_heap_.pop_back();
    // Deliver outside the lock: Put takes the mailbox lock and may wake a
    // receiver that immediately calls Send back into this fabric.
    lock.Unlock();
    if (obs::TraceRecorder* rec = track.Recorder();
        track.Enabled() && rec == obs::ActiveTrace()) {
      obs::Span span;
      span.name = "in_flight";
      span.category = obs::Category::kComm;
      span.start = rec->SinceEpoch(delivery.enqueued);
      span.duration =
          common::ToSeconds(common::SteadyClock::now() - delivery.enqueued);
      span.arg_keys[0] = "to";
      span.arg_vals[0] = static_cast<double>(delivery.to);
      rec->Record(track, span);
    }
    mailboxes_[delivery.to]->Put(std::move(delivery.msg));
    lock.Lock();
  }
}

std::optional<Message> Fabric::RecvFor(Rank at, int tag,
                                       common::Seconds timeout) {
  RNA_CHECK(at < Size());
  return mailboxes_[at]->GetFor(tag, timeout);
}

std::optional<Message> Fabric::RecvAnyFor(Rank at, std::span<const int> tags,
                                          common::Seconds timeout) {
  RNA_CHECK(at < Size());
  return mailboxes_[at]->GetAnyFor(tags, timeout);
}

std::size_t Fabric::Purge(Rank at, int tag_lo, int tag_hi) {
  RNA_CHECK(at < Size());
  return mailboxes_[at]->PurgeTagRange(tag_lo, tag_hi);
}

bool Fabric::IsClosed(Rank at) const {
  RNA_CHECK(at < Size());
  return mailboxes_[at]->IsClosed();
}

std::optional<Message> Fabric::TryRecv(Rank at, int tag) {
  RNA_CHECK(at < Size());
  return mailboxes_[at]->TryGet(tag);
}

void Fabric::Shutdown() {
  for (auto& mailbox : mailboxes_) mailbox->Close();
  // Counter deltas flush idempotently, so the dtor's second Shutdown only
  // publishes whatever accrued since this one.
  pool_.PublishMetrics();
  PublishWireMetrics();
}

void Fabric::CountWire(wire::Format format, std::size_t raw_bytes,
                       std::size_t wire_bytes) {
  auto& c = wire_counters_[static_cast<std::size_t>(format)];
  c.chunks.fetch_add(1, std::memory_order_relaxed);
  c.raw_bytes.fetch_add(raw_bytes, std::memory_order_relaxed);
  c.wire_bytes.fetch_add(wire_bytes, std::memory_order_relaxed);
}

WireTraffic Fabric::WireStatsFor(wire::Format format) const {
  const auto& c = wire_counters_[static_cast<std::size_t>(format)];
  WireTraffic t;
  t.chunks = c.chunks.load(std::memory_order_relaxed);
  t.raw_bytes = c.raw_bytes.load(std::memory_order_relaxed);
  t.wire_bytes = c.wire_bytes.load(std::memory_order_relaxed);
  return t;
}

void Fabric::PublishWireMetrics() {
  // Metric names must outlive the registry; build them per format from
  // static storage.
  static const char* const kNames[wire::kFormatCount][3] = {
      {"fabric.wire.raw.chunks", "fabric.wire.raw.raw_bytes",
       "fabric.wire.raw.wire_bytes"},
      {"fabric.wire.fp16.chunks", "fabric.wire.fp16.raw_bytes",
       "fabric.wire.fp16.wire_bytes"},
      {"fabric.wire.int8.chunks", "fabric.wire.int8.raw_bytes",
       "fabric.wire.int8.wire_bytes"},
      {"fabric.wire.topk.chunks", "fabric.wire.topk.raw_bytes",
       "fabric.wire.topk.wire_bytes"},
  };
  auto flush = [](std::atomic<std::uint64_t>& current,
                  std::atomic<std::uint64_t>& published, const char* name) {
    const std::uint64_t now = current.load(std::memory_order_relaxed);
    const std::uint64_t prev =
        published.exchange(now, std::memory_order_relaxed);
    if (now > prev) {
      obs::CountMetric(name, static_cast<std::int64_t>(now - prev));
    }
  };
  for (std::size_t f = 0; f < wire::kFormatCount; ++f) {
    auto& c = wire_counters_[f];
    flush(c.chunks, c.published_chunks, kNames[f][0]);
    flush(c.raw_bytes, c.published_raw, kNames[f][1]);
    flush(c.wire_bytes, c.published_wire, kNames[f][2]);
  }
}

TrafficStats Fabric::StatsFor(Rank rank) const {
  RNA_CHECK(rank < Size());
  TrafficStats out;
  out.messages_sent = stats_[rank].messages_sent.load(std::memory_order_relaxed);
  out.bytes_sent = stats_[rank].bytes_sent.load(std::memory_order_relaxed);
  return out;
}

TrafficStats Fabric::TotalStats() const {
  TrafficStats total;
  for (const auto& s : stats_) {
    total.messages_sent += s.messages_sent.load(std::memory_order_relaxed);
    total.bytes_sent += s.bytes_sent.load(std::memory_order_relaxed);
  }
  return total;
}

}  // namespace rna::net
