// Per-connection state for the server event loops (DESIGN.md §7).
//
// A connection is pinned to the event loop that accepted it for its whole
// life: the owning loop's index rides in the top bits of `id`, completions
// route back to that loop by id, and everything in this struct is
// therefore touched by exactly one thread — no locks here, by design.
//
// Commands are sequenced per connection in arrival order. Replies can be
// produced out of order — pipelined commands fan out to different shards
// whose batches complete independently — so each finished reply is staged
// in a reorder buffer and flushed to the socket only when every earlier
// command of the connection has replied. RESP clients rely on this: the
// k-th reply answers the k-th command.
//
// Execution order is FIFO per (connection, shard): the requests one
// connection sends one shard enter that shard's queue, and so execute, in
// command order — a GET sees the connection's earlier SET of the same key.
// Across shards there is no order: a read burst's per-shard runs are handed
// over independently (Server::SubmitRuns), and under backpressure one
// shard's suffix may stall while another shard's run is accepted.
//
// The write side is a chunked queue of two chunk kinds (DESIGN.md §7):
//   * owned chunks — a mutable tail that coalesces small RESP replies, so
//     ordinary request/reply traffic pays no per-reply chunk overhead;
//   * shared frames — refcounted immutable buffers
//     (std::shared_ptr<const std::string>) enqueued by reference. A sealed
//     replication batch is serialized once and every REPLSYNC subscriber
//     queues the same bytes: fan-out costs one pointer per subscriber, not
//     one memcpy of the batch.
// The flush path drains multiple chunks per syscall with writev(); a
// partial write leaves `out_off` mid-chunk and the next flush resumes
// there. Cap accounting (`max_conn_out_bytes`) counts *logical* pending
// bytes — a shared frame charges its full size to every subscriber holding
// it, so a slow subscriber is still evicted at the same backlog it would
// have reached with private copies.
#ifndef JNVM_SRC_SERVER_CONN_H_
#define JNVM_SRC_SERVER_CONN_H_

#include <sys/uio.h>

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <utility>

#include "src/server/protocol.h"
#include "src/server/shard.h"

namespace jnvm::server {

// A parsed request whose target shard queue was full when it was handed
// over. The connection stops reading (backpressure) and the request waits
// here until the shard drains. The queue re-drives front-first, so the
// connection's order per shard is preserved.
struct StalledRequest {
  uint32_t shard = 0;
  Request req;
};

// One element of the chunked output queue. Exactly one representation is
// active: `shared` (immutable refcounted frame, fan-out by reference) or
// `own` (mutable buffer coalescing small replies).
struct OutChunk {
  std::shared_ptr<const std::string> shared;
  std::string own;

  const char* data() const { return shared != nullptr ? shared->data() : own.data(); }
  size_t size() const { return shared != nullptr ? shared->size() : own.size(); }
};

struct Conn {
  // Replies at or below this size coalesce into the mutable tail chunk;
  // larger ones are moved in wholesale as their own chunk (no byte copy).
  static constexpr size_t kCoalesceMax = 2048;
  // A tail chunk stops accepting appends past this size so one buffer never
  // grows without bound; the next reply starts a fresh chunk.
  static constexpr size_t kTailChunkMax = 256 * 1024;

  int fd = -1;
  uint64_t id = 0;
  RespParser parser;

  // Write side: the chunk queue. `out_off` is the consumed prefix of the
  // front chunk (partial-write resume point); `out_bytes` is the logical
  // pending total across all chunks.
  std::deque<OutChunk> outq;
  size_t out_off = 0;
  size_t out_bytes = 0;

  uint64_t next_seq = 0;      // sequence assigned to the next parsed command
  uint64_t next_to_send = 0;  // sequence whose reply goes out next
  std::map<uint64_t, std::string> replies;  // finished, waiting their turn

  uint64_t inflight = 0;  // submitted to shards, not yet completed
  bool closing = false;   // close once the queue drains and inflight == 0

  // Session consistency tokens (MINSEQ <shard> <seq>): per-shard floor a
  // read on this connection must observe. Monotone — MINSEQ only raises a
  // slot, so a session can never accidentally weaken its own contract.
  std::map<uint32_t, uint64_t> min_seq;

  uint64_t MinSeqFor(uint32_t shard) const {
    const auto it = min_seq.find(shard);
    return it == min_seq.end() ? 0 : it->second;
  }
  void RaiseMinSeq(uint32_t shard, uint64_t seq) {
    uint64_t& slot = min_seq[shard];
    if (seq > slot) {
      slot = seq;
    }
  }

  // Cluster plane (DESIGN.md §10): set by ASKING, consumed by the next
  // key command — a one-shot permit to serve a slot this node is still
  // *importing* (the table names the source until the handoff commits).
  bool asking = false;

  // MULTI/EXEC transaction queue (DESIGN.md §9). While `in_multi`, data
  // commands buffer here (replying +QUEUED) instead of dispatching; EXEC
  // turns the buffer into one atomic transaction, DISCARD drops it. A
  // queue-time error (bad arity, command outside the txn subset) marks the
  // txn dirty: EXEC then refuses with -TXNABORT rather than running a
  // half-valid batch.
  bool in_multi = false;
  bool txn_dirty = false;
  std::vector<txn::TxnOp> txn_ops;

  // Backpressure: parsed requests waiting for shard-queue space. While
  // non-empty the connection is read-paused (`paused`): the poller stops
  // watching readable and no further buffered commands are dispatched, so
  // per-connection memory stays bounded by what was already read.
  std::deque<StalledRequest> stalled;
  bool paused = false;

  // Set while this connection is on DrainCompletions' deferred-flush list:
  // completions landing in the same drain round coalesce into one writev.
  bool flush_pending = false;

  // Queues reply bytes: small strings coalesce into the mutable tail chunk,
  // large ones are adopted by move.
  void AppendOut(std::string&& s) {
    if (s.empty()) {
      return;
    }
    out_bytes += s.size();
    if (s.size() <= kCoalesceMax && !outq.empty() &&
        outq.back().shared == nullptr && outq.back().own.size() < kTailChunkMax) {
      outq.back().own += s;
      return;
    }
    OutChunk c;
    c.own = std::move(s);
    outq.push_back(std::move(c));
  }

  // Queues a shared immutable frame by reference (no byte copy). The frame
  // still charges its full size to this connection's logical backlog.
  void AppendFrame(std::shared_ptr<const std::string> frame) {
    if (frame == nullptr || frame->empty()) {
      return;
    }
    out_bytes += frame->size();
    OutChunk c;
    c.shared = std::move(frame);
    outq.push_back(std::move(c));
  }

  // Stages the reply for `seq`, then moves every consecutive ready reply
  // into the output queue. Returns true when new bytes became writable.
  bool Complete(uint64_t seq, std::string&& reply) {
    replies.emplace(seq, std::move(reply));
    bool advanced = false;
    auto it = replies.find(next_to_send);
    while (it != replies.end()) {
      AppendOut(std::move(it->second));  // staged string moves, never copies
      replies.erase(it);
      ++next_to_send;
      advanced = true;
      it = replies.find(next_to_send);
    }
    return advanced;
  }

  bool WantsWrite() const { return out_bytes > 0; }

  // Logical pending bytes (cap accounting): shared frames count at full
  // size per subscriber even though the bytes exist once.
  size_t pending_out_bytes() const { return out_bytes; }

  // Fills up to `max` iovecs from the pending chunks, starting at the
  // front chunk's resume offset. Returns the count filled.
  size_t BuildIovecs(struct iovec* iov, size_t max) const {
    size_t n = 0;
    size_t off = out_off;
    for (const OutChunk& c : outq) {
      if (n == max) {
        break;
      }
      iov[n].iov_base = const_cast<char*>(c.data() + off);
      iov[n].iov_len = c.size() - off;
      ++n;
      off = 0;
    }
    return n;
  }

  // Consumes `n` accepted bytes: pops fully written chunks (releasing
  // owned memory / shared refs) and leaves `out_off` mid-chunk on a
  // partial write so the next flush resumes exactly there.
  void ConsumeOut(size_t n) {
    out_bytes -= n;
    while (n > 0) {
      OutChunk& front = outq.front();
      const size_t left = front.size() - out_off;
      if (n < left) {
        out_off += n;
        return;
      }
      n -= left;
      out_off = 0;
      outq.pop_front();
    }
  }
};

}  // namespace jnvm::server

#endif  // JNVM_SRC_SERVER_CONN_H_
