// Scripted workloads for the crash-consistency checker (see checker.h).
//
// A workload is a deterministic script of operations against one persistent
// structure plus a DRAM *oracle* that knows, for every crash cut, which
// states the recovered heap is allowed to be in:
//
//   * every operation whose durability fence retired before the crash
//     ("committed") must be fully visible after recovery,
//   * the operation the crash interrupted ("in-flight") must be absent or
//     fully applied — never torn,
//   * nothing else may differ, and structural invariants (mirror matches
//     the persistent cells, `core::integrity` I1–I7) must hold.
//
// Determinism contract: constructing the same workload kind with the same
// (script_seed, op_count) must produce the identical operation script, and
// running it against a fresh heap must produce the identical persistence
// event trace — the checker verifies this with PmemDevice::TraceHash().
//
// Durability fine print per adapter (derived from the J-PDT/J-PFA code,
// §4.1.6, §4.2, §4.3 of the paper):
//   map/set  — Put/Remove/Add fence before returning: committed ⇒ durable.
//   map-kv   — the shard store (server::KvMap): even ops are one command
//              that fences before returning (HSET in place commits a
//              failure-atomic block); odd ops are a group-commit batch
//              sealed by one Psync, each command old-or-new when in flight.
//   pfa      — FaEnd's commit protocol fences: committed ⇒ durable; the
//              in-flight block is all-or-nothing (§4.2).
//   string   — RootMap::Put/Remove are failure-atomic: same as pfa.
//   array    — PExtArray::Append queues its count bump but the *next*
//              operation's fence seals it (§4.3.1: losing the bump loses
//              the append). The oracle therefore accepts the state after
//              j ∈ {committed-1, committed, committed+1} operations.
//   server, repl, ckpt, repl-apply, wait, read-your-writes — run the
//              shipped server::Shard (Shard::OpenOn on the checker's
//              runtime, Shard::RunBatch per op, the shard's own open path
//              at recovery). One batch is one group commit sealed by one
//              Psync before its replies: a delivered reply (or, on a
//              follower, a seal-hook ack) is durable; each command of the
//              in-flight batch is old-or-new, never torn. With the log, the
//              recovered log seals c or c+1 records and the redo tail lands
//              the store on that boundary; a checkpoint's meta is
//              old-or-new per field and never lets replay skip a record.
//   txn      — one op is one MULTI/EXEC txn through the 2PC record
//              sequence (DESIGN.md §9), modelled on one heap (three
//              shards): committed ⇒ the decision record is sealed and every
//              participant's writes are (re)applied at recovery; an
//              undecided in-flight txn resolves all-or-nothing by the
//              decision's presence — never a partial apply.
//   migrate  — one op is one step of a live slot handoff (DESIGN.md §10):
//              writes, copy stream, and the migration state machine of
//              both nodes' slot tables in one heap. Recovery must roll an
//              interrupted `migrating` back, keep `handoff` frozen until
//              an owner word proves the flip, and never let both tables
//              serve a slot (split-brain); stores stay old-or-new.
#ifndef JNVM_SRC_CRASHCHECK_WORKLOADS_H_
#define JNVM_SRC_CRASHCHECK_WORKLOADS_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/core/runtime.h"

namespace jnvm::crashcheck {

// Where the crash fell: operations [0, committed) completed before the
// crash event; `in_flight` is the operation the crash interrupted (absent
// when the script ran to completion).
struct CrashCut {
  size_t committed = 0;
  std::optional<size_t> in_flight;
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual const std::string& name() const = 0;
  virtual size_t op_count() const = 0;

  // Creates the persistent roots on a freshly formatted runtime and leaves
  // the heap quiescent (Psync'd): crash points are swept over the
  // operations, not over setup.
  virtual void Setup(core::JnvmRuntime& rt) = 0;

  // Executes operation i. May throw nvm::SimulatedCrash.
  virtual void RunOp(core::JnvmRuntime& rt, size_t i) = 0;

  // Validates the recovered heap against the oracle for `cut`. Appends one
  // human-readable message per violated invariant.
  virtual void Check(core::JnvmRuntime& rt, const CrashCut& cut,
                     std::vector<std::string>* violations) = 0;
};

// Registered workload kinds: "map-hash", "map-tree", "map-skip",
// "map-long", "map-kv", "set", "array", "string", "pfa", "server", "repl",
// "repl-apply", "wait", "read-your-writes", "txn", "migrate", "ckpt".
std::vector<std::string> WorkloadKinds();

// Factory; aborts on an unknown kind. `op_count` is the script length;
// `script_seed` drives the op mix.
std::unique_ptr<Workload> MakeWorkload(const std::string& kind,
                                       uint64_t script_seed, size_t op_count);

// A deliberately broken workload (unfenced root-map publication claimed
// durable) used to prove the oracle fires; not part of WorkloadKinds().
std::unique_ptr<Workload> MakeFaultyWorkload(uint64_t script_seed, size_t op_count);

}  // namespace jnvm::crashcheck

#endif  // JNVM_SRC_CRASHCHECK_WORKLOADS_H_
