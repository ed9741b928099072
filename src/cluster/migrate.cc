#include "src/cluster/migrate.h"

#include <chrono>
#include <cstring>

#include "src/cluster/slot_map.h"
#include "src/server/client.h"
#include "src/server/shard.h"

namespace jnvm::cluster {

namespace {

// "host:port" → parts; false on malformed addresses (empty node slots).
bool SplitAddr(const std::string& addr, std::string* host, uint16_t* port) {
  const size_t colon = addr.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 >= addr.size()) {
    return false;
  }
  *host = addr.substr(0, colon);
  const long p = std::strtol(addr.c_str() + colon + 1, nullptr, 10);
  if (p <= 0 || p > 65535) {
    return false;
  }
  *port = static_cast<uint16_t>(p);
  return true;
}

}  // namespace

Migrator::Migrator(ClusterState* cs, std::vector<server::Shard*> shards)
    : cs_(cs), shards_(std::move(shards)) {}

Migrator::~Migrator() { Join(); }

void Migrator::Join() {
  if (thread_.joinable()) {
    thread_.join();
  }
}

std::string Migrator::status() const {
  std::lock_guard<std::mutex> lk(mu_);
  return status_;
}

void Migrator::SetStatus(const std::string& s) {
  std::lock_guard<std::mutex> lk(mu_);
  status_ = s;
}

void Migrator::Throttle(const MigrateOptions& o) const {
  if (o.throttle_ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(o.throttle_ms));
  }
}

bool Migrator::Start(const MigrateOptions& opts, std::string* err) {
  if (busy_.exchange(true, std::memory_order_acq_rel)) {
    if (err != nullptr) *err = "a migration is already running";
    return false;
  }
  // Take (or re-take, for a restart re-drive) the persisted migrating
  // state before the thread spawns, so a Start that the state machine
  // refuses never leaves a zombie thread.
  const bool resuming = cs_->mig_state() == MigState::kHandoff;
  if (!resuming && !cs_->StartMigrating(opts.lo, opts.hi, opts.peer, err)) {
    busy_.store(false, std::memory_order_release);
    return false;
  }
  if (resuming) {
    uint32_t lo = 0, hi = 0, peer = 0;
    cs_->MigRange(&lo, &hi, &peer);
    if (lo != opts.lo || hi != opts.hi || peer != opts.peer) {
      if (err != nullptr) {
        *err = "a frozen handoff for a different range must be re-driven "
               "with its own parameters";
      }
      busy_.store(false, std::memory_order_release);
      return false;
    }
  }
  Join();  // reap the previous run's thread
  SetStatus("starting");
  thread_ = std::thread(&Migrator::Run, this, opts);
  return true;
}

bool Migrator::ShipOps(const MigrateOptions& o, server::Client* dest,
                       std::vector<repl::ReplOp>& ops) {
  std::vector<repl::ReplOp> chunk;
  uint64_t bytes = 0;
  const auto flush = [&]() -> bool {
    if (chunk.empty()) {
      return true;
    }
    std::string frame;
    repl::EncodeBatch(chunk, &frame);
    server::RespReply r;
    if (!dest->Roundtrip({"MIGAPPLY", frame}, &r)) {
      SetStatus("failed: MIGAPPLY i/o: " + dest->last_error());
      return false;
    }
    if (r.type != server::RespReply::Type::kSimple) {
      SetStatus("failed: MIGAPPLY rejected: " + r.str);
      return false;
    }
    chunk.clear();
    bytes = 0;
    return true;
  };
  for (repl::ReplOp& op : ops) {
    bytes += op.key.size() + op.value.size() + 32;
    for (const std::string& f : op.record.fields) {
      bytes += f.size();
    }
    chunk.push_back(std::move(op));
    if (bytes >= o.apply_chunk_bytes && !flush()) {
      return false;
    }
  }
  ops.clear();
  return flush();
}

bool Migrator::SnapshotShard(const MigrateOptions& o, size_t shard_idx,
                             server::Client* dest, uint64_t* cursor) {
  for (uint32_t attempt = 0;; ++attempt) {
    server::Request req;
    req.op = server::Request::Op::kSlotSnap;
    req.slot_lo = static_cast<uint16_t>(o.lo);
    req.slot_hi = static_cast<uint16_t>(o.hi);
    std::string payload;
    const auto r = shards_[shard_idx]->Call(std::move(req), &payload);
    if (r == server::Shard::CallResult::kStopped) {
      SetStatus("failed: shard stopping");
      return false;
    }
    if (r == server::Shard::CallResult::kFailed) {
      if (payload.rfind("-TRYAGAIN", 0) == 0 && attempt < o.max_retries) {
        std::this_thread::sleep_for(std::chrono::milliseconds(o.retry_ms));
        continue;  // staged txns in flight; wait them out
      }
      SetStatus("failed: slot snapshot: " + payload);
      return false;
    }
    uint64_t snap_seq = 0;
    std::vector<repl::SnapshotEntry> entries;
    if (payload.empty() ||
        !repl::DecodeSnapshot(std::string_view(payload).substr(1), &snap_seq,
                              &entries)) {
      SetStatus("failed: bad slot snapshot frame");
      return false;
    }
    std::vector<repl::ReplOp> ops;
    ops.reserve(entries.size());
    for (repl::SnapshotEntry& e : entries) {
      repl::ReplOp op;
      op.kind = repl::ReplOp::Kind::kPut;
      op.key = std::move(e.key);
      op.record = std::move(e.record);
      ops.push_back(std::move(op));
    }
    if (!ShipOps(o, dest, ops)) {
      return false;
    }
    *cursor = snap_seq + 1;
    return true;
  }
}

Migrator::TailResult Migrator::TailShard(const MigrateOptions& o,
                                         size_t shard_idx,
                                         server::Client* dest,
                                         uint64_t* cursor, bool* caught_up) {
  server::Request req;
  req.op = server::Request::Op::kSlotTail;
  req.slot_lo = static_cast<uint16_t>(o.lo);
  req.slot_hi = static_cast<uint16_t>(o.hi);
  req.repl_seq = *cursor;
  std::string payload;
  const auto r = shards_[shard_idx]->Call(std::move(req), &payload);
  if (r == server::Shard::CallResult::kStopped) {
    SetStatus("failed: shard stopping");
    return TailResult::kFail;
  }
  if (r == server::Shard::CallResult::kFailed) {
    if (payload.rfind("-TXNTAIL", 0) == 0 ||
        payload.rfind("-TAILTRUNC", 0) == 0) {
      return TailResult::kResnap;
    }
    SetStatus("failed: slot tail: " + payload);
    return TailResult::kFail;
  }
  // "+<u64 next LE><u8 caught_up><batch frame>"
  if (payload.size() < 1 + 8 + 1) {
    SetStatus("failed: short slot tail frame");
    return TailResult::kFail;
  }
  uint64_t next = 0;
  for (int i = 0; i < 8; ++i) {
    next |= static_cast<uint64_t>(static_cast<unsigned char>(payload[1 + i]))
            << (8 * i);
  }
  *caught_up = payload[9] != 0;
  std::vector<repl::ReplOp> ops;
  if (!repl::DecodeBatch(std::string_view(payload).substr(10), &ops)) {
    SetStatus("failed: bad slot tail batch");
    return TailResult::kFail;
  }
  if (!ops.empty() && !ShipOps(o, dest, ops)) {
    return TailResult::kFail;
  }
  *cursor = next;
  return TailResult::kOk;
}

bool Migrator::BarrierSeq(size_t shard_idx, uint64_t* seq) {
  server::Request req;
  req.op = server::Request::Op::kLastSeq;
  std::string payload;
  if (shards_[shard_idx]->Call(std::move(req), &payload) !=
          server::Shard::CallResult::kOk ||
      payload.empty() || payload[0] != ':') {
    SetStatus("failed: handoff barrier: " + payload);
    return false;
  }
  *seq = std::strtoull(payload.c_str() + 1, nullptr, 10);
  return true;
}

void Migrator::Run(MigrateOptions o) {
  const auto done = [&](const std::string& s) {
    SetStatus(s);
    busy_.store(false, std::memory_order_release);
  };
  // Rollback is legal only before MIGCOMMIT is acked: the destination has
  // provably not committed (commit needs the source in handoff AND the
  // commit ack closes the only window), so the source still owns every key.
  const auto fail_rollback = [&](server::Client* dest) {
    if (dest != nullptr) {
      server::RespReply r;
      dest->Roundtrip({"MIGABORT", std::to_string(o.lo), std::to_string(o.hi)},
                      &r);  // best effort
    }
    if (cs_->mig_state() == MigState::kMigrating) {
      cs_->AbortMigration(nullptr);
    }
    // In handoff the destination's state is unknown — stay frozen and let a
    // re-drive resolve it (MIGSTART answers +OWNED or +IMPORTING).
    busy_.store(false, std::memory_order_release);
  };

  std::string host;
  uint16_t port = 0;
  if (!SplitAddr(cs_->NodeAddr(o.peer), &host, &port)) {
    SetStatus("failed: peer has no address");
    fail_rollback(nullptr);
    return;
  }
  std::string cerr;
  std::unique_ptr<server::Client> dest =
      server::Client::Connect(host, port, &cerr);
  if (dest == nullptr) {
    SetStatus("failed: connect " + host + ": " + cerr);
    fail_rollback(nullptr);
    return;
  }

  SetStatus("migstart");
  Throttle(o);
  server::RespReply r;
  if (!dest->Roundtrip({"MIGSTART", std::to_string(o.lo), std::to_string(o.hi),
                        std::to_string(cs_->self()),
                        std::to_string(cs_->epoch())},
                       &r)) {
    SetStatus("failed: MIGSTART i/o: " + dest->last_error());
    fail_rollback(nullptr);
    return;
  }
  if (r.type == server::RespReply::Type::kSimple && r.str == "OWNED") {
    // The destination durably committed a previous drive of this exact
    // migration: roll forward, whatever side we crashed on.
    std::string err;
    if (!cs_->EnterHandoff(&err) || !cs_->FinishMigration(&err)) {
      done("failed: roll-forward: " + err);
      return;
    }
    done("done");
    return;
  }
  if (r.type != server::RespReply::Type::kSimple) {
    SetStatus("failed: MIGSTART rejected: " + r.str);
    fail_rollback(nullptr);
    return;
  }

  const bool resumed_frozen = cs_->mig_state() == MigState::kHandoff;
  std::vector<uint64_t> cursor(shards_.size(), 0);

  // Copy phase: image every shard's slice of the range.
  for (size_t i = 0; i < shards_.size(); ++i) {
    SetStatus("copy shard " + std::to_string(i + 1) + "/" +
              std::to_string(shards_.size()));
    Throttle(o);
    if (!SnapshotShard(o, i, dest.get(), &cursor[i])) {
      fail_rollback(dest.get());
      return;
    }
  }

  // Catch-up: drain tails while the range still serves, to shrink the
  // frozen window. Convergence is not required here — the handoff barrier
  // below guarantees it.
  if (!resumed_frozen) {
    for (uint32_t round = 0; round < o.catchup_rounds; ++round) {
      SetStatus("catch-up round " + std::to_string(round + 1));
      bool all_caught = true;
      for (size_t i = 0; i < shards_.size(); ++i) {
        bool caught = false;
        const TailResult t = TailShard(o, i, dest.get(), &cursor[i], &caught);
        if (t == TailResult::kResnap) {
          if (!SnapshotShard(o, i, dest.get(), &cursor[i])) {
            fail_rollback(dest.get());
            return;
          }
          caught = false;
        } else if (t == TailResult::kFail) {
          fail_rollback(dest.get());
          return;
        }
        all_caught &= caught;
      }
      if (all_caught) {
        break;
      }
    }
  }

  // Handoff: freeze the range (reads AND writes answer -TRYAGAIN), then
  // drain the bounded remainder behind a per-shard barrier.
  SetStatus("handoff");
  std::string err;
  if (!cs_->EnterHandoff(&err)) {
    SetStatus("failed: handoff: " + err);
    fail_rollback(dest.get());
    return;
  }
  Throttle(o);
  for (size_t i = 0; i < shards_.size(); ++i) {
    uint64_t barrier = 0;
    if (!BarrierSeq(i, &barrier)) {
      fail_rollback(dest.get());
      return;
    }
    uint32_t attempts = 0;
    while (cursor[i] <= barrier) {
      bool caught = false;
      const TailResult t = TailShard(o, i, dest.get(), &cursor[i], &caught);
      if (t == TailResult::kResnap) {
        // A still-staged txn straddles the range: wait it out, re-image.
        if (++attempts > o.max_retries) {
          SetStatus("failed: staged txn never resolved during handoff");
          fail_rollback(dest.get());
          return;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(o.retry_ms));
        if (!SnapshotShard(o, i, dest.get(), &cursor[i])) {
          fail_rollback(dest.get());
          return;
        }
        // The re-image needs a fresh barrier: records kept sealing.
        if (!BarrierSeq(i, &barrier)) {
          fail_rollback(dest.get());
          return;
        }
        continue;
      }
      if (t == TailResult::kFail) {
        fail_rollback(dest.get());
        return;
      }
    }
  }

  // MIGCOMMIT: the destination's owner-word rewrite is THE commit point.
  SetStatus("commit");
  Throttle(o);
  if (!dest->Roundtrip({"MIGCOMMIT", std::to_string(o.lo),
                        std::to_string(o.hi),
                        std::to_string(cs_->epoch() + 1)},
                       &r) ||
      r.type != server::RespReply::Type::kSimple) {
    // The commit may or may not have landed: DO NOT roll back. Stay frozen;
    // the re-drive asks MIGSTART and learns the truth (+OWNED / +IMPORTING).
    done("failed: MIGCOMMIT unacked (" +
         (r.type == server::RespReply::Type::kError ? r.str
                                                    : dest->last_error()) +
         "); range frozen, re-drive to resolve");
    return;
  }
  Throttle(o);
  if (!cs_->FinishMigration(&err)) {
    done("failed: finish: " + err);
    return;
  }
  done("done");
}

}  // namespace jnvm::cluster
