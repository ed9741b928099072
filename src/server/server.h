// The J-NVM network server (DESIGN.md §7): a RESP front-end over N shards.
//
// Threading model: a pool of event-loop threads (ServerOptions::loops, default
// 1) and one worker thread per shard (src/server/shard.h). Each loop owns a
// SO_REUSEPORT listener (or, with ServerOptions::reuseport off, loop 0
// accepts and hands fds off round-robin through per-loop inboxes), and a
// connection is pinned to its accepting loop for life — all of its socket
// I/O, parsing and reply assembly happen on that one thread, so
// per-connection state needs no locks. Replies are delivered in
// per-connection command order (src/server/conn.h).
//
// The loop ↔ shard hand-off is batched both ways. Loop → shard: Dispatch
// appends each plain GET/SET/DEL/TOUCH/HSET to a per-shard run, and
// SubmitRuns pushes every run with one Shard::TrySubmitMany (one lock, one
// notify) at the end of each ProcessInput and before any other command
// dispatches. Shard → loop: a shard posts a whole batch of completions
// through OnCompletions, each routed to the completion queue of the loop
// whose index rides in its connection id; each owning loop's lock is taken
// once per batch,
// and its self-pipe is written only when its `wake_pending` flag flips
// false → true. The loop clears the flag after draining the pipe and before
// swapping out its completion queue, so a producer that posts after the
// swap always finds the flag down and writes a fresh byte: no wakeup is
// lost, and a burst of batches costs one wake. A connection's requests stay
// FIFO per (connection, shard) — a run stalls its unaccepted suffix in
// order — but not across shards (src/server/conn.h).
//
// Joins. A reply that spans shards — a MultiOp (MSET, PROMOTE, MIGSTART,
// MIGAPPLY) or a phase of a cross-shard EXEC — is counted down here, never
// on a shard worker: each part's completion routes home by its connection
// id, and JoinPart records the first error, counts down and, at zero,
// answers the join (flipping PROMOTE's shards first) or advances the txn.
// Only the owning loop touches a join after its parts are submitted, so
// neither join type needs an atomic or a lock. The join holds its
// connection's one inflight slot; its parts hold none, and a part the loop
// fails itself (stopped shard) goes through JoinPart too.
//
// Commands (RESP arrays of bulk strings; names case-insensitive). One
// static table in server.cc (Server::Commands) lists them all with their
// argument counts and admission flags; Dispatch looks the name up there.
//   PING                       +PONG
//   SET key value              +OK           (durable when replied)
//   GET key                    $value | $-1
//   DEL key                    :1 | :0
//   HSET key field value       :1 | :0       (field = decimal index)
//   TOUCH key                  :1 | :0       (proxy touch, no materialize)
//   MSET k1 v1 [k2 v2 ...]     +OK           (all pairs durable when replied)
//   STATS                      $<text>       (per-shard + server counters)
//   SHUTDOWN                   +OK | -ERR    (quiesce, audit I1–I7, save images)
//   MINSEQ shard seq           +OK           (raise this connection's read
//                              floor for the shard: session reads)
//   LASTSEQ shard              :<seq>        (the shard's sealed watermark)
// A command with the wrong argument count answers -ERR wrong number of
// arguments for <NAME>.
//
// Transactions (DESIGN.md §9):
//   MULTI                      +OK           (opens a txn; SET/GET/DEL queue
//                              with +QUEUED; anything else dirties the txn)
//   EXEC                       *N array of per-op replies | *0 (empty txn) |
//                              -TXNABORT <reason> (all-or-nothing refusal)
//   DISCARD                    +OK           (drops the queued txn)
// A single-shard txn commits through the shard's ordinary group commit; a
// cross-shard txn two-phase-commits with the decision record sealed in the
// coordinator shard's replication log. Either way the EXEC reply means every
// op is durably applied (or, on -TXNABORT, none is). A transaction's 2PC
// state machine is driven entirely by the loop owning its connection (phase
// joins route back by conn id), so its phases never race across loops.
//
// Replication plane (DESIGN.md §8):
//   REPLSYNC shard from        +SYNC <from>, then a bulk stream of sealed
//                              record frames — the connection becomes a
//                              one-way feed (first/only command on it)
//   REPLDIFF shard from digest [nshards [epoch]]
//                              segment-diff resync (DESIGN.md §11): the
//                              follower advertises per-segment CRC digests;
//                              the primary verifies them against its
//                              retained log and answers like REPLSYNC on
//                              match, -DIFFBASE (take REPLSNAP) on
//                              divergence, -SNAPSHOT when `from` fell below
//                              the truncation watermark
//   REPLSNAP shard             $<snapshot>   (bootstrap / catch-up image;
//                              -RETRYLATER while the shard is itself
//                              mid-bootstrap)
//
// Checkpoint plane (DESIGN.md §11):
//   CKPT                       +OK <detail> | -BUSY | -ERR — runs one fuzzy
//                              checkpoint pass over every shard (walk +
//                              finalize + log truncation); the reply lands
//                              when the pass completes. ServerOptions::
//                              ckpt_interval_ms triggers the same pass on a
//                              timer.
//   PROMOTE                    +OK | -ERR    (stop pulling, audit I1–I7 on
//                              every shard, flip followers writable)
//   REPLACK shard seq          (no reply) a subscriber's durability ack;
//                              a malformed one closes the connection
//
// Cluster plane (DESIGN.md §10; -ERR cluster support is disabled unless
// ServerOptions::cluster): ASKING, CLUSTER MEET|SLOTS|SETSLOT|INFO, and the
// MIGSTART / MIGAPPLY / MIGCOMMIT / MIGABORT migration protocol a peer's
// Migrator speaks.
// A server started with ServerOptions::replica_of runs every shard as a
// follower (-READONLY to client writes) and pulls those commands from the
// primary itself via repl::ReplClient.
//
// Readiness (src/server/poller.h): every loop blocks in its own
// level-triggered epoll set and flushes each dirty connection with one
// writev.
#ifndef JNVM_SRC_SERVER_SERVER_H_
#define JNVM_SRC_SERVER_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/ckpt/ckpt_runner.h"
#include "src/cluster/meta.h"
#include "src/cluster/migrate.h"
#include "src/repl/replica.h"
#include "src/server/conn.h"
#include "src/server/poller.h"
#include "src/server/shard.h"
#include "src/txn/txn.h"

namespace jnvm::server {

struct ServerOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;  // 0 = ephemeral; read back with port()
  uint32_t nshards = 4;
  ShardOptions shard;
  // Event-loop threads (clamped to [1, 64]), each blocking in its own epoll
  // set. Each owns a listener and the connections it accepts.
  uint32_t loops = 1;
  // With loops > 1: true gives every loop its own SO_REUSEPORT listener;
  // false runs hand-off mode (loop 0 owns the only listener and deals
  // accepted fds round-robin to the pool), whose deterministic connection
  // placement the multi-loop tests rely on.
  bool reuseport = true;
  // "host:port" of a primary to replicate from. Non-empty = replica role:
  // every shard opens as a follower (shard.follower and shard.repl_log are
  // forced on) and a ReplClient pulls the primary's record stream. The
  // shard count must match the primary's. PROMOTE clears the role.
  std::string replica_of;

  // ---- Checkpoint plane (DESIGN.md §11) -----------------------------------
  // Periodic fuzzy checkpoint: every ckpt_interval_ms the server runs the
  // same pass the CKPT verb runs (walk + finalize + log truncation) from
  // the runner's own thread. 0 = manual CKPT only. Replicas skip the timer
  // (their logs truncate when the primary's checkpoints stream through).
  uint32_t ckpt_interval_ms = 0;

  // ---- Cluster plane (DESIGN.md §10) --------------------------------------
  // Enables hash-slot routing: the node opens (or recovers) its persisted
  // slot table, single-key commands route through it (-MOVED / -ASK /
  // -TRYAGAIN / -CLUSTERDOWN for slots this node does not plainly own), the
  // CLUSTER / ASKING / MIG* command families appear, and STATS gains a
  // `cluster:` line. cluster_meta.announce defaults to the bound host:port.
  bool cluster = false;
  cluster::ClusterOptions cluster_meta;

  // Per-connection memory caps. A connection whose unparsed input exceeds
  // max_conn_in_bytes, or whose pending output exceeds max_conn_out_bytes
  // (the classic slow REPLSYNC subscriber), is disconnected and counted in
  // STATS (in_overflows / out_overflows) — a stalled peer cannot OOM the
  // server. The input cap must exceed the largest legal command frame.
  uint64_t max_conn_in_bytes = 32ull << 20;
  uint64_t max_conn_out_bytes = 64ull << 20;
};

// A reply joined from several shard requests (MSET, PROMOTE, MIGSTART,
// MIGAPPLY). A handler builds it and submits one part per shard; every
// part's completion carries it back to the loop owning the connection,
// the only thread that touches it afterwards (Server::JoinPart).
struct MultiOp {
  uint32_t remaining = 0;       // parts not yet completed
  std::string error;            // first failing part's reply; empty = healthy
  std::string ok_reply = "OK";  // joined success reply (MIGSTART: IMPORTING)
  // Two-phase PROMOTE: each shard only audits; when every part is in and
  // none failed, the join flips every listed shard writable. An audit
  // failure on any shard therefore flips none: no mixed read-only/writable
  // fleet.
  std::vector<Shard*> promote_shards;
};

// Aggregate outcome of a SHUTDOWN / Stop(): per-shard quiesce reports.
struct ShutdownReport {
  bool ok = false;  // every shard quiesced with a clean integrity audit
  std::vector<ShardReport> shards;
  std::string Summary() const;
};

// Per-loop counters. Each is mutated only by its owning loop thread, but
// STATS (served on whichever loop got the command) aggregates across all
// loops, so the slots are relaxed atomics — an aggregate can lag a few
// operations but can never be torn or lose increments.
struct LoopCounters {
  std::atomic<uint64_t> accepted{0};
  std::atomic<uint64_t> commands{0};
  std::atomic<uint64_t> protocol_errors{0};
  std::atomic<uint64_t> in_overflows{0};   // dropped: input cap exceeded
  std::atomic<uint64_t> out_overflows{0};  // dropped: output cap exceeded
  // Output-path counters (chunked writev flush, DESIGN.md §7).
  std::atomic<uint64_t> flush_syscalls{0};  // flush syscalls that accepted bytes
  std::atomic<uint64_t> flushed_bytes{0};   // bytes the kernel accepted
  std::atomic<uint64_t> flush_chunks{0};    // chunks submitted across those
  std::atomic<uint64_t> frame_refs{0};      // shared frames enqueued by ref
  std::atomic<uint64_t> frame_bytes{0};     // logical bytes those refs share
  std::atomic<uint64_t> moved_replies{0};   // cluster -MOVED redirects
  std::atomic<uint64_t> open_conns{0};      // live connections on this loop
};

class Server : public CompletionSink {
  struct Loop;  // one event-loop thread's state (below)

 public:
  // One row of the command table (server.cc), the only list of commands and
  // of how each is admitted. Tests walk it.
  struct Command {
    enum Flag : uint8_t {
      kKeyOp = 1,        // one key: batched into the shard run, slot-routed
      kQueued = 2,       // MULTI queues it for EXEC (+QUEUED)
      kTxnControl = 4,   // MULTI / EXEC / DISCARD: also runs inside MULTI
      kClusterOnly = 8,  // -ERR unless ServerOptions::cluster
      kOneWay = 16,      // no seq, no reply; malformed = protocol error
      kPairs = 32,       // the arguments after the name come in pairs
    };
    std::string_view name;  // canonical upper case
    uint8_t min_args;       // argument counts include the name
    uint8_t max_args;       // 0 = no limit
    uint8_t flags;
    // Answers the command (inline or through a shard) and returns true;
    // false only for a one-way frame it cannot parse.
    bool (*handler)(Server& s, Loop& lp, Conn& conn, uint64_t seq,
                    std::vector<std::string>& args);
  };
  // The table, in lookup order (the hot GET and SET rows first).
  static std::span<const Command> Commands();

  // Binds, listens, opens the shards (recovering from images when present)
  // and starts the event-loop pool. Returns nullptr on socket failure with
  // the reason in *error.
  static std::unique_ptr<Server> Start(const ServerOptions& opts,
                                       std::string* error);
  ~Server() override;

  uint16_t port() const { return port_; }
  bool AnyShardRecovered() const;
  // Replica role (null on a primary, and after the client was stopped the
  // pointer stays valid for Stats()).
  const repl::ReplClient* repl_client() const { return repl_client_.get(); }
  // Cluster plane (null unless ServerOptions::cluster). Tests and tools.
  cluster::ClusterState* cluster_state() { return cluster_.get(); }
  cluster::Migrator* migrator() { return migrator_.get(); }
  // Checkpoint driver (always present). Tests and tools.
  ckpt::CheckpointRunner* ckpt_runner() { return ckpt_runner_.get(); }

  // Blocks until every event loop exits (SHUTDOWN command or
  // RequestShutdown).
  void Wait();
  // Programmatic shutdown: same path as the SHUTDOWN command.
  void RequestShutdown();

  // Valid after the event loops exited.
  const ShutdownReport& shutdown_report() const { return shutdown_report_; }

  // CompletionSink (called from shard workers and any loop): routes the
  // completion to the loop owning its connection and wakes it.
  void OnCompletion(Completion&& c) override;
  // One lock per owning loop per batch, at most one wake byte per loop.
  void OnCompletions(std::vector<Completion>& batch) override;

 private:
  struct Handlers;  // the command handlers (server.cc)

  // Everything one event-loop thread owns. Connections live and die on one
  // loop; cross-thread traffic enters only through `mu`-guarded queues
  // (completions, handed-off fds) plus the wake pipe.
  struct Loop {
    uint32_t index = 0;
    int listen_fd = -1;  // own SO_REUSEPORT listener; -1 in hand-off mode
    int wake_r = -1, wake_w = -1;  // self-pipe
    Poller poller;
    std::thread thread;

    std::unordered_map<uint64_t, std::unique_ptr<Conn>> conns;
    std::unordered_map<int, uint64_t> by_fd;
    uint64_t next_conn = 1;  // low 48 bits of the next conn id

    std::mutex mu;  // guards completions + fd_inbox (the cross-thread doors)
    std::vector<Completion> completions;
    std::vector<int> fd_inbox;  // accepted fds handed off by loop 0
    // DrainCompletions' buffers (loop thread only), kept so their capacity
    // survives across drains: `drained` trades places with `completions`,
    // `dirty` lists the connections to flush.
    std::vector<Completion> drained;
    std::vector<uint64_t> dirty;
    // True from the post that wrote a wake byte until the loop drained the
    // pipe (PostWake): later posts skip the write syscall.
    std::atomic<bool> wake_pending{false};

    // Plain requests parsed but not yet handed to their shard, one run per
    // shard. Only the connection in ProcessInput fills them, and SubmitRuns
    // empties them before ProcessInput returns.
    std::vector<std::vector<Request>> runs;

    // Connections with a non-empty stall queue (backpressure), retried
    // after completions drain and on each loop tick.
    std::vector<uint64_t> stalled_conns;
    // Requests with no connection order to keep, waiting for shard-queue
    // space (a loop never blocks on Submit): internal txn requests (phases
    // 2–3, recovery resolution), and stalled join parts whose shard stopped
    // (FailStalledRequest) or whose connection closed (CloseConn).
    std::deque<std::pair<uint32_t, Request>> pending;

    LoopCounters counters;

    // Loop-local shutdown progression (guarded by being loop-thread-only).
    bool intake_stopped = false;  // phase 1 processed: no accepts, no reads
    bool exiting = false;         // phase 2 processed: leave the loop
  };

  Server() = default;

  // Loop index lives in bits 48+ of the conn id (loop 1 = pool index 0, so
  // id 0 keeps meaning "no connection" / internal).
  static constexpr int kLoopShift = 48;
  Loop& LoopFor(uint64_t conn_id);
  // Unconditional wake byte: for state not posted under lp.mu (shutdown).
  void WakeLoop(Loop& lp);
  // Wake after posting under lp.mu (completions, handed-off fds): writes
  // the byte only on the wake_pending false → true flip.
  void PostWake(Loop& lp);

  void EventLoop(Loop& lp);
  void AcceptPending(Loop& lp);
  // Registers a freshly accepted fd on this loop (both accept paths).
  void RegisterConn(Loop& lp, int fd);
  // Hand-off fallback: drains fds loop 0 accepted for this loop.
  void DrainFdInbox(Loop& lp);
  void CloseConn(Loop& lp, uint64_t id);
  void HandleReadable(Loop& lp, Conn& conn);
  void HandleWritable(Loop& lp, Conn& conn);
  // Parses + dispatches the commands already buffered on the connection;
  // stops early on a read-pause (shard backpressure) or a protocol error.
  void ProcessInput(Loop& lp, Conn& conn);
  // Looks the command up in the table, admits it (arity, MULTI, cluster)
  // and runs its handler; false = protocol error, close conn.
  bool Dispatch(Loop& lp, Conn& conn, std::vector<std::string>& args);
  // Queues `req` on shard `shard_idx` or stalls it on the connection
  // (read-pause backpressure); a stopping shard fails it at once, the way
  // FailStalledRequest does.
  void SubmitOrStall(Loop& lp, Conn& conn, uint32_t shard_idx, Request&& req);
  // Pushes the loop's runs (all `conn`'s) with one TrySubmitMany per shard.
  // A kFull suffix stalls on the connection in order; kStopped fails the
  // run's requests the way FailStalledRequest does.
  void SubmitRuns(Loop& lp, Conn& conn);
  // Re-drives stalled requests after shard queues drained; resumes reading
  // and parsing when a connection's stall queue empties.
  void RetryStalled(Loop& lp);
  void PauseReads(Loop& lp, Conn& conn);
  // Resolves the reply slot of a request whose shard `shard_idx` is
  // stopping. A join part moves to lp.pending, whose retry fails it.
  void FailStalledRequest(Loop& lp, Conn& conn, uint32_t shard_idx,
                          Request& req);
  void DrainCompletions(Loop& lp);
  // Ships every connection DrainCompletions dirtied: one HandleWritable
  // (writev) each.
  void FlushDirty(Loop& lp, const std::vector<uint64_t>& dirty);
  // ---- Joins -------------------------------------------------------------
  // Counts one join part down with its outcome `c.reply` (an error fails
  // the join; a txn part's -WAITTIMEOUT only degrades the EXEC reply). At
  // zero it flips PROMOTE's shards and answers the join, or advances the
  // txn, whether or not the client is still connected. Runs on the loop
  // owning the join's connection, for shard completions and for parts the
  // loop fails itself.
  void JoinPart(Loop& lp, Completion& c);
  // Answers a finished join on its connection, if it still exists, and
  // flushes it.
  void AnswerJoin(Loop& lp, uint64_t conn_id, uint64_t seq, std::string reply);
  // ---- Transactions (DESIGN.md §9) ---------------------------------------
  // Phase machine, driven by JoinPart when a phase's last part is in.
  // Always runs on the loop owning the txn's connection.
  void AdvanceTxn(Loop& lp, const std::shared_ptr<txn::TxnState>& t);
  // Assembles and delivers the final EXEC reply (*N array, -TXNABORT or
  // -WAITTIMEOUT) to the owning connection, if it still exists.
  void DeliverTxnReply(Loop& lp, const std::shared_ptr<txn::TxnState>& t);
  // Submits a request that has no connection order to keep (txn phases
  // 2–3, recovery resolution, join parts lp.pending holds) without ever
  // blocking the loop: kFull requests park in lp.pending and retry on loop
  // ticks; a join part whose shard stopped fails through JoinPart. Phase 1
  // goes through the connection's stall queue instead (SubmitOrStall).
  void SubmitUnordered(Loop& lp, uint32_t shard_idx, Request&& req);
  void RetryPending(Loop& lp);
  // Crash/promote resolution: commit-or-abort every prepared-but-undecided
  // txn by presence of the sealed decision in its coordinator's log.
  void ResolveCrossShardTxns(Loop& lp);
  // Disconnects a connection whose pending output exceeded the cap.
  // True when the connection was evicted (iterators into conns invalid).
  bool EnforceOutCap(Loop& lp, Conn& conn);
  std::string BuildStats();
  // Two-phase cross-loop shutdown, run by the coordinating loop: phase 1
  // stops intake on every loop (accepts + new input) and barriers on it, so
  // no loop can submit new work while the shards quiesce; phase 2 releases
  // every loop to drain its completions, flush and close its connections.
  void DoShutdown(Loop& lp, uint64_t conn_id, uint64_t seq);
  // Phase-1 entry each loop runs on itself exactly once.
  void StopIntake(Loop& lp);
  // Phase-2 exit each loop runs on itself: fail stalled work, drain, flush,
  // close, leave.
  void FinishLoop(Loop& lp);
  void FlushAllBestEffort(Loop& lp);

  ServerOptions opts_;
  uint16_t port_ = 0;
  std::vector<std::unique_ptr<Loop>> loops_;
  // Hand-off mode (a pool of loops, reuseport off, one listener on loop 0):
  // decided once in Start, because StopIntake rewrites listen_fd on other
  // loops' threads.
  bool handoff_ = false;
  uint32_t rr_next_ = 0;  // hand-off round-robin cursor (loop 0 only)
  std::vector<std::unique_ptr<Shard>> shards_;
  // Declared after shards_ so destruction stops the pull threads first.
  std::unique_ptr<repl::ReplClient> repl_client_;
  // Cluster plane: the persisted slot table and the migration driver.
  // Declared after shards_ (and destroyed first) because the migrator
  // thread submits control requests to the shards.
  std::unique_ptr<cluster::ClusterState> cluster_;
  std::unique_ptr<cluster::Migrator> migrator_;
  // Checkpoint driver: declared after shards_ (destroyed first) because its
  // thread submits control batches to the shards, like the migrator.
  std::unique_ptr<ckpt::CheckpointRunner> ckpt_runner_;
  uint64_t last_ckpt_ms_ = 0;  // loop-0 tick timer state

  std::atomic<bool> shutdown_requested_{false};
  // 0 = running; 1 = quiesce (no accepts, no new input, loops keep draining
  // completions); 2 = exit (final drain + flush + close). Advanced only by
  // the coordinating loop.
  std::atomic<int> shutdown_phase_{0};
  std::atomic<bool> shutdown_claimed_{false};  // one loop coordinates
  std::mutex shutdown_mu_;
  std::condition_variable shutdown_cv_;
  uint32_t intake_stopped_loops_ = 0;  // guarded by shutdown_mu_
  ShutdownReport shutdown_report_;

  // Transactions: id generator shared by all loops (atomic).
  txn::TxnIdGenerator txn_ids_;
};

}  // namespace jnvm::server

#endif  // JNVM_SRC_SERVER_SERVER_H_
