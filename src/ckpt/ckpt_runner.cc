#include "src/ckpt/ckpt_runner.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "src/cluster/slot_map.h"
#include "src/server/protocol.h"
#include "src/server/shard.h"

namespace jnvm::ckpt {

namespace {

// Slots walked per kCkpt chunk: 8 chunks cover the 16384-slot space, so
// client batches interleave at least 8 times per shard during the walk.
constexpr uint32_t kWalkChunkSlots = cluster::kNumSlots / 8;

}  // namespace

CheckpointRunner::CheckpointRunner(std::vector<server::Shard*> shards,
                                   server::CompletionSink* sink)
    : shards_(std::move(shards)), sink_(sink) {}

CheckpointRunner::~CheckpointRunner() { Join(); }

void CheckpointRunner::Join() {
  if (thread_.joinable()) {
    thread_.join();
  }
}

std::string CheckpointRunner::status() const {
  std::lock_guard<std::mutex> lk(mu_);
  return status_;
}

void CheckpointRunner::SetStatus(const std::string& s) {
  std::lock_guard<std::mutex> lk(mu_);
  status_ = s;
}

bool CheckpointRunner::Trigger(uint64_t conn_id, uint64_t seq) {
  if (busy_.exchange(true, std::memory_order_acq_rel)) {
    return false;
  }
  Join();  // reap the previous pass's thread
  SetStatus("starting");
  thread_ = std::thread(&CheckpointRunner::Run, this, conn_id, seq);
  return true;
}

bool CheckpointRunner::CheckpointShard(size_t shard_idx, std::string* summary,
                                       std::string* err) {
  server::Shard* shard = shards_[shard_idx];
  // Walk phase: fuzzy — each chunk is one singleton control batch, client
  // batches run in between.
  for (uint32_t lo = 0; lo < cluster::kNumSlots; lo += kWalkChunkSlots) {
    const uint32_t hi =
        std::min<uint32_t>(lo + kWalkChunkSlots, cluster::kNumSlots) - 1;
    SetStatus("walk shard " + std::to_string(shard_idx + 1) + "/" +
              std::to_string(shards_.size()) + " slots " + std::to_string(lo) +
              ".." + std::to_string(hi));
    server::Request req;
    req.op = server::Request::Op::kCkpt;
    req.field = 0;  // walk
    req.slot_lo = static_cast<uint16_t>(lo);
    req.slot_hi = static_cast<uint16_t>(hi);
    std::string payload;
    const auto r = shard->Call(std::move(req), &payload);
    if (r == server::Shard::CallResult::kStopped) {
      *err = "shard " + std::to_string(shard_idx) + " is stopping";
      return false;
    }
    if (r == server::Shard::CallResult::kFailed) {
      *err = "shard " + std::to_string(shard_idx) + " walk: " +
             (payload.empty() ? "refused" : payload.substr(1));
      return false;
    }
  }
  // Finalize: THE durability point of the checkpoint (see ckpt_meta.h).
  SetStatus("finalize shard " + std::to_string(shard_idx + 1) + "/" +
            std::to_string(shards_.size()));
  server::Request req;
  req.op = server::Request::Op::kCkpt;
  req.field = 1;  // finalize
  std::string payload;
  const auto r = shard->Call(std::move(req), &payload);
  if (r == server::Shard::CallResult::kStopped) {
    *err = "shard " + std::to_string(shard_idx) + " is stopping";
    return false;
  }
  if (r == server::Shard::CallResult::kFailed) {
    *err = "shard " + std::to_string(shard_idx) + " finalize: " +
           (payload.empty() ? "refused" : payload.substr(1));
    return false;
  }
  *summary = payload.substr(1);  // "begin=<b> end=<e> truncated=<n>"
  return true;
}

void CheckpointRunner::Run(uint64_t conn_id, uint64_t seq) {
  std::string reply;
  std::string detail;
  bool failed = false;
  for (size_t i = 0; i < shards_.size(); ++i) {
    std::string summary;
    std::string err;
    if (!CheckpointShard(i, &summary, &err)) {
      SetStatus("failed: " + err);
      if (conn_id != 0) {
        server::AppendErrorCode(&reply, "CKPT " + err);
      }
      failed = true;
      break;
    }
    if (!detail.empty()) {
      detail += " ";
    }
    detail += "shard" + std::to_string(i) + " " + summary;
  }
  if (!failed) {
    SetStatus("done " + detail);
    if (conn_id != 0) {
      server::AppendSimple(&reply, "OK " + detail);
    }
  }
  // Clear busy before posting the completion: the reply means "this pass is
  // over", so a client that pipelines CKPT right behind it must not race a
  // still-set flag into -BUSY. A concurrent Trigger that wins the flag while
  // this thread unwinds simply Join()s it first.
  busy_.store(false, std::memory_order_release);
  if (conn_id != 0) {
    server::Completion c;
    c.conn_id = conn_id;
    c.seq = seq;
    c.reply = std::move(reply);
    sink_->OnCompletion(std::move(c));
  }
}

}  // namespace jnvm::ckpt
