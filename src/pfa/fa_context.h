// Per-thread failure-atomic block state (§3.2, §4.2).
//
// J-NVM "maintains a per-thread counter that tracks the nested level of
// failure-atomic blocks. At runtime, J-NVM checks this counter when it loads
// or stores a field" — proxies consult FaContext on every access; a zero
// depth grants direct access to NVMM without mediation.
#ifndef JNVM_SRC_PFA_FA_CONTEXT_H_
#define JNVM_SRC_PFA_FA_CONTEXT_H_

#include <atomic>
#include <memory>
#include <unordered_map>

#include "src/pfa/fa_log.h"

namespace jnvm::pfa {

class FaContext {
 public:
  FaContext(Heap* heap, const FaHooks* hooks, uint32_t slot)
      : heap_(heap), hooks_(hooks), log_(heap, slot) {}

  int depth() const { return depth_; }
  bool InFa() const { return depth_ > 0; }

  // Redo-log slot occupancy, for callers sizing a failure-atomic block
  // against the slot's fixed capacity (e.g. a cross-shard txn apply that
  // must decide between one block and per-write blocks, DESIGN.md §9).
  uint64_t log_capacity() const { return log_.capacity_entries(); }
  uint64_t log_entries_used() const { return log_.count(); }

  void Begin() { ++depth_; }

  // Leaves the current block; the outermost End commits.
  void End() {
    JNVM_CHECK(depth_ > 0);
    if (--depth_ == 0) {
      Commit();
    }
  }

  // Abandons the whole (possibly nested) block: in-flight copies are
  // dropped, allocations reclaimed, deferred frees forgotten.
  void Abort();

  // ---- Redirection used by proxy field accessors (only when InFa()) -----

  // Where should a load of `block` read from?
  Offset ReadBlock(Offset block) const {
    auto it = inflight_.find(block);
    return it == inflight_.end() ? block : it->second;
  }

  // Where should a store to `block` (of a *valid* object) go? Creates the
  // in-flight copy and the log entry on first touch.
  Offset WriteBlockCow(Offset block);

  // Records an object allocated inside the block (validated at commit).
  void NoteAlloc(Offset master) { log_.Append({EntryType::kAlloc, master, 0}); }
  // Defers an object free to commit.
  void NoteFreeObject(Offset master) { log_.Append({EntryType::kFree, master, 0}); }
  // Defers a pool-slot free to commit.
  void NoteFreePoolSlot(Offset slot) { log_.Append({EntryType::kPoolFree, slot, 0}); }

 private:
  void Commit();

  Heap* heap_;
  const FaHooks* hooks_;
  FaLog log_;
  int depth_ = 0;
  std::unordered_map<Offset, Offset> inflight_;  // original block -> copy
};

// Hands out one FaContext per thread, backed by one persistent log slot
// each. Thread bindings are cached in thread-local storage. An exited
// thread's context dies with it, but its log slot is never reused, so over
// its life a runtime can serve at most log_slot_count (24 by default)
// distinct threads that run failure-atomic blocks. A server shard uses at
// most two: the thread that opened it and its worker.
class FaManager {
 public:
  FaManager(Heap* heap, FaHooks hooks);
  ~FaManager();

  FaContext& ForCurrentThread();
  const FaHooks& hooks() const { return hooks_; }

 private:
  Heap* heap_;
  FaHooks hooks_;
  uint64_t generation_;  // disambiguates reused FaManager addresses in TLS
  std::atomic<uint32_t> next_slot_{0};
};

}  // namespace jnvm::pfa

#endif  // JNVM_SRC_PFA_FA_CONTEXT_H_
