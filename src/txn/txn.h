// Cross-shard transaction subsystem (DESIGN.md §9).
//
// MULTI/EXEC batches that touch one shard commit through the existing group
// commit (one record, one Psync). Cross-shard batches run two-phase over
// the per-shard replication logs, in the ARIES log-as-commit-point
// tradition:
//
//   prepare   each participant shard seals a kTxnPrepare record carrying
//             the txn's staged writes for that shard — a physical redo
//             image persisted *without* applying; the store is untouched.
//   decision  the coordinator shard (lowest write-participant index) seals
//             one kTxnCommit record carrying the participant set, each
//             participant's prepare seq and its staged-writes frame. That
//             seal is the txn's durability point.
//   apply     each participant replays its staged writes through the
//             store's apply path inside J-PFA failure-atomic block(s) and
//             seals a kTxnCommit marker in its own log, so every shard's
//             log stays a self-contained deterministic apply script for
//             replicas and chained followers.
//
// A prepared-but-undecided txn resolves at recovery (and at PROMOTE) by
// presence/absence of the sealed decision record on the coordinator's log:
// present → apply + marker, absent → explicit kTxnAbort marker. Abort is
// always explicit on the wire (-TXNABORT) and in the log — never a silent
// partial apply.
//
// This header holds the pieces shared by the shard worker, the server's
// coordinator hook, recovery, and the crashcheck `txn` workload: record
// payload framing, the per-shard participant state (staged table + decision
// index), log scanning/replay, and the in-flight coordinator state machine.
#ifndef JNVM_SRC_TXN_TXN_H_
#define JNVM_SRC_TXN_TXN_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "src/repl/frame.h"
#include "src/repl/repl_log.h"

namespace jnvm::core {
class JnvmRuntime;
}
namespace jnvm::server {
class KvMap;
}

namespace jnvm::txn {

using TxnId = uint64_t;

// 8-byte little-endian txn id <-> the ReplOp::key of a txn record.
std::string TxnIdKey(TxnId id);
bool ParseTxnIdKey(std::string_view key, TxnId* id);

// Monotonic id source. Ids embed the generator's construction time so they
// never repeat across server incarnations: recovery pairs prepare records
// with decision records *by id*, and a reused id could marry a fresh
// prepare to a stale decision still retained in the coordinator's log.
class TxnIdGenerator {
 public:
  TxnIdGenerator();
  TxnId Next() { return base_ + next_.fetch_add(1, std::memory_order_relaxed); }

 private:
  TxnId base_;
  std::atomic<uint64_t> next_{1};
};

// ---- Decision record payload ----------------------------------------------

// One write participant in a sealed decision. The staged-writes frame makes
// the decision self-contained: a promoted replica whose participant stream
// never received the prepare (per-shard streams are independent) can replay
// the writes from the coordinator's record instead of losing the txn.
struct DecisionPart {
  uint32_t shard = 0;
  uint64_t prepare_seq = 0;   // participant log seq that sealed the prepare
  std::string writes_frame;   // EncodeBatch of the participant's staged writes

  bool operator==(const DecisionPart&) const = default;
};

struct Decision {
  std::vector<DecisionPart> parts;

  bool operator==(const Decision&) const = default;
};

void EncodeDecision(const Decision& d, std::string* out);
bool DecodeDecision(std::string_view frame, Decision* out);

// ---- Per-shard participant state -------------------------------------------

// A prepared-but-not-yet-decided txn on one shard.
struct StagedTxn {
  uint32_t coordinator = 0;   // shard whose log holds (or will hold) the decision
  uint64_t prepare_seq = 0;   // log seq of this shard's sealed prepare record
  std::vector<repl::ReplOp> writes;
};

// Staged txns keyed by id. The shard worker is the only mutator; the event
// loop reads it when planning PROMOTE-time resolution, hence the lock.
class StagedTable {
 public:
  void Stage(TxnId id, StagedTxn t);
  // Removes and returns the staged txn; false when absent (idempotent
  // re-delivery of a marker, or an abort for a never-prepared txn).
  bool Take(TxnId id, StagedTxn* out);
  bool Drop(TxnId id);
  bool Has(TxnId id) const;
  size_t Size() const;
  // (id, coordinator) of every staged txn, for resolution planning.
  std::vector<std::pair<TxnId, uint32_t>> Undecided() const;
  // Smallest prepare_seq among staged txns, UINT64_MAX when none. Checkpoint
  // truncation clamps below it: an undecided txn's prepare record must stay
  // in the log until its decision resolves it (DESIGN.md §11).
  uint64_t MinPrepareSeq() const;

 private:
  mutable std::mutex mu_;
  std::map<TxnId, StagedTxn> staged_;
};

// Sealed decisions retained by a coordinator shard, keyed by id. Bounded by
// pruning against the log's start_seq: a decision older than the log's
// retention can no longer pair with a retained prepare.
class DecisionIndex {
 public:
  void Add(TxnId id, uint64_t seq, Decision d);
  bool Has(TxnId id) const;
  bool Lookup(TxnId id, Decision* out) const;
  void PruneBelow(uint64_t start_seq);
  size_t Size() const;
  std::vector<std::pair<TxnId, Decision>> All() const;

 private:
  mutable std::mutex mu_;
  std::map<TxnId, std::pair<uint64_t, Decision>> by_id_;  // id -> (seq, decision)
};

// ---- Log scan + replay (recovery, redo tail, crashcheck oracle) ------------

struct LogScanResult {
  std::map<TxnId, StagedTxn> staged;                       // prepared, undecided
  std::map<TxnId, std::pair<uint64_t, Decision>> decisions;  // id -> (seq, d)
};

// Rebuilds txn state from the sealed records [log.start_seq(), stop_before)
// — pass stop_before = 0 for the whole retained log. Transitions: prepare
// stages, marker/decision resolves (erases the staged entry, decisions are
// indexed), abort drops. Store state is not touched.
void ScanLogForTxns(const repl::ReplLog& log, uint64_t stop_before,
                    LogScanResult* out);

// Replays one sealed record's ops against the store *and* the txn state:
// plain ops go through the Apply* path, prepare stages, marker/decision
// applies the staged writes (idempotently) then erases, abort drops. Used
// by the shard's redo-tail recovery and the crashcheck recovery oracle.
// `rt` may be null (no failure-atomic wrapping — crashcheck runtimes).
void ReplayRecordOps(core::JnvmRuntime* rt, server::KvMap* kv,
                     const std::vector<repl::ReplOp>& ops, LogScanResult* state);

// Applies a txn's staged writes through the store's apply path inside
// failure-atomic block(s): one J-PFA redo-log block when the per-thread log
// can hold the whole txn (an entry budget per write, against the capacity
// the runtime reports), else one block per write — cross-write atomicity is
// then still guaranteed by redo replay of the prepare record at recovery.
// Idempotent. `rt` may be null (plain apply, no FA mediation). `observe`,
// when set, is called per write with whether the store changed shape
// (kPut inserted / kDel removed) — the shard's per-slot accounting hook.
void ApplyStagedWrites(
    core::JnvmRuntime* rt, server::KvMap* kv,
    const std::vector<repl::ReplOp>& writes,
    const std::function<void(const repl::ReplOp&, bool)>& observe = {});

// ---- Recovery / promote resolution -----------------------------------------

// One shard's view for resolution planning.
struct ShardTxnView {
  std::vector<std::pair<TxnId, uint32_t>> undecided;  // (id, coordinator)
  const DecisionIndex* decisions = nullptr;
  uint64_t log_next_seq = 0;
};

struct ResolutionAction {
  uint32_t shard = 0;
  TxnId id = 0;
  uint32_t coordinator = 0;     // the shard whose log holds (or lacks) the decision
  bool commit = false;          // true → apply + marker; false → abort marker
  // Promote repair: the participant never received its prepare (its log
  // never reached prepare_seq), so the writes come from the decision record.
  bool repair = false;
  std::string repair_writes_frame;
};

// Cross-shard resolution: every staged-undecided txn commits iff its
// coordinator's log holds the sealed decision; decisions whose participant
// provably never received the prepare (gapless logs: next_seq <=
// prepare_seq) yield repair actions carrying the writes.
std::vector<ResolutionAction> PlanResolution(
    const std::vector<ShardTxnView>& shards);

// ---- In-flight coordinator state (wire path) -------------------------------

// One queued MULTI op, with its slot in the EXEC reply array.
struct TxnOp {
  enum class Kind : uint8_t { kSet, kGet, kDel };
  Kind kind = Kind::kSet;
  std::string key;
  std::string value;        // kSet only
  size_t reply_index = 0;
};

// One participant shard's slice of the txn.
struct TxnPart {
  uint32_t shard = 0;
  std::vector<TxnOp> ops;     // this shard's ops, in original txn order
  bool has_writes = false;
  std::string writes_frame;   // filled by the shard worker at prepare
  uint64_t prepare_seq = 0;   // filled when the prepare batch seals
};

// The coordinator-side state of one in-flight EXEC. Every field is written
// before its phase's parts are submitted, or by the one shard worker that
// runs a part (its TxnPart and its ops' reply slots), or by the event loop
// owning conn_id, which counts each phase down as the parts' completions
// arrive and reads a part's results only after its completion passed the
// loop's lock. No field is shared between threads at once, so none needs
// a lock.
struct TxnState {
  TxnId id = 0;
  uint64_t conn_id = 0;
  uint64_t reply_seq = 0;     // conn reorder slot reserved for the EXEC reply
  uint32_t coordinator = 0;
  size_t nops = 0;
  bool single_shard = false;

  std::vector<TxnPart> parts;

  enum Phase { kPhasePrepare = 0, kPhaseDecide = 1, kPhaseApply = 2 };
  Phase phase = kPhasePrepare;
  uint32_t remaining = 0;  // parts of the current phase still out

  std::vector<std::string> replies;  // per-op RESP fragments (index = reply_index)
  std::string abort_reason;          // first failure wins; empty = healthy
  bool wait_timeout = false;         // WAIT-K deadline passed on some batch

  // Decision payload over the write participants (prepare phase complete).
  Decision BuildDecision() const;
};

}  // namespace jnvm::txn

#endif  // JNVM_SRC_TXN_TXN_H_
