#include "src/repl/replica.h"

#include <chrono>

#include "src/common/check.h"
#include "src/repl/frame.h"
#include "src/server/client.h"
#include "src/server/shard.h"

namespace jnvm::repl {

namespace {

// Retry backoff bounds. Sliced sleeps keep Stop() responsive.
constexpr int kBackoffStartMs = 20;
constexpr int kBackoffMaxMs = 500;

}  // namespace

std::unique_ptr<ReplClient> ReplClient::Start(
    const std::string& primary_host, uint16_t primary_port,
    const std::vector<server::Shard*>& shards) {
  JNVM_CHECK(!shards.empty());
  auto c = std::unique_ptr<ReplClient>(new ReplClient());
  c->host_ = primary_host;
  c->port_ = primary_port;
  c->shards_ = shards;
  c->conns_.resize(shards.size(), nullptr);
  c->established_.resize(shards.size(), 0);
  c->pending_acks_.resize(shards.size(), 0);
  c->sent_acks_.resize(shards.size(), 0);
  // Seal hooks before the threads: the first apply's seal must not be lost.
  for (uint32_t i = 0; i < shards.size(); ++i) {
    ReplClient* self = c.get();
    shards[i]->SetSealHook(
        [self, i](uint64_t sealed) { self->NotifySealed(i, sealed); });
  }
  c->ack_thread_ = std::thread(&ReplClient::AckLoop, c.get());
  c->threads_.reserve(shards.size());
  for (uint32_t i = 0; i < shards.size(); ++i) {
    c->threads_.emplace_back(&ReplClient::PullLoop, c.get(), i);
  }
  return c;
}

ReplClient::~ReplClient() { Stop(); }

void ReplClient::Stop() {
  {
    std::lock_guard<std::mutex> lk(stopped_mu_);
    if (stopped_) {
      return;
    }
    stopped_ = true;
  }
  stop_.store(true, std::memory_order_release);
  ack_cv_.notify_all();
  {
    std::lock_guard<std::mutex> lk(conns_mu_);
    for (server::Client* c : conns_) {
      if (c != nullptr) {
        c->ShutdownSocket();  // breaks blocked stream reads
      }
    }
  }
  if (ack_thread_.joinable()) {
    ack_thread_.join();
  }
  for (std::thread& t : threads_) {
    if (t.joinable()) {
      t.join();
    }
  }
  // The shards outlive this client (PROMOTE stops it, the server keeps
  // running): drop the hooks so no worker calls into a dead object.
  for (server::Shard* shard : shards_) {
    shard->SetSealHook(nullptr);
  }
}

void ReplClient::NotifySealed(uint32_t shard_index, uint64_t sealed_seq) {
  {
    std::lock_guard<std::mutex> lk(ack_mu_);
    if (sealed_seq <= pending_acks_[shard_index]) {
      return;
    }
    pending_acks_[shard_index] = sealed_seq;
  }
  ack_cv_.notify_one();
}

// Sends REPLACK frames on the stream connections. A failed or skipped send
// (stream down, handshake in progress) is simply dropped: the next
// REPLSYNC's from-seq re-establishes the watermark implicitly.
void ReplClient::AckLoop() {
  while (!stop_.load(std::memory_order_acquire)) {
    std::vector<std::pair<uint32_t, uint64_t>> due;
    {
      std::unique_lock<std::mutex> lk(ack_mu_);
      ack_cv_.wait(lk, [&] {
        if (stop_.load(std::memory_order_acquire)) {
          return true;
        }
        for (size_t i = 0; i < pending_acks_.size(); ++i) {
          if (pending_acks_[i] > sent_acks_[i]) {
            return true;
          }
        }
        return false;
      });
      for (size_t i = 0; i < pending_acks_.size(); ++i) {
        if (pending_acks_[i] > sent_acks_[i]) {
          due.emplace_back(static_cast<uint32_t>(i), pending_acks_[i]);
        }
      }
    }
    for (const auto& [i, seq] : due) {
      std::lock_guard<std::mutex> lk(conns_mu_);
      if (conns_[i] == nullptr || established_[i] == 0) {
        // No live stream: skip, and record the seq as handled — the next
        // handshake's from-seq carries the watermark instead.
        sent_acks_[i] = seq;
        continue;
      }
      conns_[i]->SendCommand(
          {"REPLACK", std::to_string(i), std::to_string(seq)});
      sent_acks_[i] = seq;
    }
  }
}

ReplClientStats ReplClient::Stats() const {
  ReplClientStats s;
  s.records_received = records_received_.load(std::memory_order_relaxed);
  s.snapshots_installed = snapshots_installed_.load(std::memory_order_relaxed);
  s.resyncs = resyncs_.load(std::memory_order_relaxed);
  s.gap_resyncs = gap_resyncs_.load(std::memory_order_relaxed);
  s.bad_configs = bad_configs_.load(std::memory_order_relaxed);
  s.diff_resyncs = diff_resyncs_.load(std::memory_order_relaxed);
  s.diff_rejected = diff_rejected_.load(std::memory_order_relaxed);
  s.retry_later = retry_later_.load(std::memory_order_relaxed);
  return s;
}

// REPLSNAP → kSnapInstall → wait for the install's durability point.
bool ReplClient::Bootstrap(server::Client* conn, server::Shard* shard,
                           uint32_t shard_index) {
  if (!conn->SendCommand({"REPLSNAP", std::to_string(shard_index)})) {
    return false;
  }
  server::RespReply r;
  if (!conn->ReadOneReply(&r)) {
    return false;
  }
  if (r.type == server::RespReply::Type::kError &&
      r.str.rfind("RETRYLATER", 0) == 0) {
    // The primary is itself mid-bootstrap (a chained feeder still
    // installing its own snapshot). Explicit defer, not an error: count it
    // and let the caller's connection backoff pace the retry.
    retry_later_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  if (r.type != server::RespReply::Type::kBulk) {
    return false;
  }
  server::Request req;
  req.op = server::Request::Op::kSnapInstall;
  req.value = std::move(r.str);
  std::string payload;
  if (shard->Call(std::move(req), &payload) != server::Shard::CallResult::kOk) {
    return false;
  }
  snapshots_installed_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool ReplClient::FetchDigests(server::Shard* shard, std::string* out) {
  server::Request req;
  req.op = server::Request::Op::kLogDigests;
  std::string payload;
  // Success payloads are '+'-prefixed binary digest frames (see
  // ExecuteLogDigests); anything else means no usable log to advertise.
  if (shard->Call(std::move(req), &payload) != server::Shard::CallResult::kOk ||
      payload.empty() || payload[0] != '+') {
    return false;
  }
  *out = payload.substr(1);
  return true;
}

void ReplClient::PullLoop(uint32_t shard_index) {
  server::Shard* shard = shards_[shard_index];
  int backoff_ms = kBackoffStartMs;
  const auto nap = [&](int ms) {
    for (int waited = 0; waited < ms && !stop_.load(std::memory_order_acquire);
         waited += 10) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  };

  while (!stop_.load(std::memory_order_acquire)) {
    std::string error;
    auto conn = server::Client::Connect(host_, port_, &error);
    if (conn == nullptr) {
      nap(backoff_ms);
      backoff_ms = std::min(backoff_ms * 2, kBackoffMaxMs);
      continue;
    }
    {
      std::lock_guard<std::mutex> lk(conns_mu_);
      conns_[shard_index] = conn.get();
    }

    bool established = false;
    bool handshaking = true;
    while (handshaking && !stop_.load(std::memory_order_acquire)) {
      handshaking = false;
      if (shard->repl_needs_snapshot() &&
          !Bootstrap(conn.get(), shard, shard_index)) {
        break;
      }
      const uint64_t from = shard->repl_next_seq();
      // Segment-diff handshake (DESIGN.md §11): when this shard's own log
      // already holds records, advertise their per-segment CRC digests so
      // the primary can verify the shared prefix and stream only the tail
      // — a stale rejoiner then ships bytes proportional to what it missed,
      // not to the store size. An empty/unusable local log (fresh replica,
      // mid-install) falls back to plain REPLSYNC.
      //
      // The shard count rides in either handshake: a primary with a
      // different count rejects with -BADCONFIG instead of silently feeding
      // a stream this replica would route to the wrong shards.
      bool diff_sent = false;
      std::string digests;
      if (from > 1 && !shard->repl_needs_snapshot() &&
          FetchDigests(shard, &digests)) {
        if (!conn->SendCommand({"REPLDIFF", std::to_string(shard_index),
                                std::to_string(from), digests,
                                std::to_string(shards_.size())})) {
          break;
        }
        diff_sent = true;
      } else if (!conn->SendCommand({"REPLSYNC", std::to_string(shard_index),
                                     std::to_string(from),
                                     std::to_string(shards_.size())})) {
        break;
      }
      server::RespReply r;
      if (!conn->ReadOneReply(&r)) {
        break;
      }
      if (r.type == server::RespReply::Type::kError) {
        if (r.str.rfind("BADCONFIG", 0) == 0) {
          // Terminal: no amount of retrying or bootstrapping fixes a
          // configuration mismatch — stop this shard's pull loop and leave
          // the rejection visible in the stats.
          bad_configs_.fetch_add(1, std::memory_order_relaxed);
          std::lock_guard<std::mutex> lk(conns_mu_);
          established_[shard_index] = 0;
          conns_[shard_index] = nullptr;
          return;
        }
        if (r.str.rfind("RETRYLATER", 0) == 0) {
          // The primary is itself mid-bootstrap: explicit defer. Tear the
          // connection down and let the backoff pace the retry.
          retry_later_.fetch_add(1, std::memory_order_relaxed);
          break;
        }
        if (diff_sent && r.str.rfind("DIFFBASE", 0) == 0) {
          // Digest mismatch: this replica's retained history diverged from
          // the primary's (old epoch, corrupt tail). Full snapshot it is.
          diff_rejected_.fetch_add(1, std::memory_order_relaxed);
        }
        // -SNAPSHOT (truncated past `from`), -DIFFBASE, or a fresh log
        // epoch after the primary self-healed: bootstrap and re-handshake
        // on this conn.
        if (Bootstrap(conn.get(), shard, shard_index)) {
          handshaking = true;
        }
        continue;
      }
      if (r.type != server::RespReply::Type::kSimple) {
        break;  // protocol violation
      }
      if (diff_sent) {
        diff_resyncs_.fetch_add(1, std::memory_order_relaxed);
      }
      established = true;
      {
        // Handshake done: the pull thread stops writing to this socket, so
        // the ack thread may now interleave REPLACK frames (conns_mu_).
        std::lock_guard<std::mutex> lk(conns_mu_);
        established_[shard_index] = 1;
      }
      backoff_ms = kBackoffStartMs;
      // The stream is contiguous by construction (the backlog and the
      // subscription are registered in one control batch), so any sequence
      // discontinuity means the upstream's log changed under us — a
      // mid-tree feeder that re-bootstrapped onto a new epoch, or a record
      // truncated out of a chained feeder's retention window mid-stream.
      // Submitting past a gap would be silently dropped by ExecuteApply
      // forever; tear down instead and resync from our durable boundary
      // (which lands on -SNAPSHOT → bootstrap when seqs no longer line up).
      uint64_t expected = from;
      for (;;) {
        server::RespReply rec;
        if (!conn->ReadOneReply(&rec) ||
            rec.type != server::RespReply::Type::kBulk) {
          break;  // stream torn down (or peer gone)
        }
        uint64_t seq = 0;
        std::string_view body;
        if (!DecodeRecord(rec.str, &seq, &body) || seq != expected) {
          gap_resyncs_.fetch_add(1, std::memory_order_relaxed);
          break;
        }
        ++expected;
        records_received_.fetch_add(1, std::memory_order_relaxed);
        server::Request req;
        req.op = server::Request::Op::kApply;
        req.value = std::move(rec.str);
        if (!shard->Submit(std::move(req))) {
          break;  // local shard draining
        }
      }
    }

    {
      std::lock_guard<std::mutex> lk(conns_mu_);
      established_[shard_index] = 0;
      conns_[shard_index] = nullptr;
    }
    conn.reset();
    if (!stop_.load(std::memory_order_acquire)) {
      if (established) {
        resyncs_.fetch_add(1, std::memory_order_relaxed);
      }
      nap(backoff_ms);
      backoff_ms = std::min(backoff_ms * 2, kBackoffMaxMs);
    }
  }
}

}  // namespace jnvm::repl
