#include "src/core/recovery.h"

#include <cstdio>
#include <cstdlib>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/clock.h"
#include "src/core/object_view.h"
#include "src/core/pool.h"
#include "src/core/runtime.h"

namespace jnvm::core {

namespace {

// The collection pass (§4.1.3): a worklist traversal of the live object
// graph starting from the root map. Complexity is linear in the number of
// live objects — which is why it runs at recovery and never at runtime
// (§2.2.1). A k-block object costs k + 1 header reads: one where VisitRef
// vets the reference, then one per block when its chain is collected; the
// mark, the class id and the view all come from that one chain.
class GraphWalker : public RefVisitor {
 public:
  GraphWalker(JnvmRuntime* rt, heap::LiveBitmap* bitmap)
      : rt_(rt), heap_(&rt->heap()), bitmap_(bitmap) {}

  void Run(nvm::Offset root_master) {
    if (root_master != 0) {
      Push(root_master);
    }
    while (!worklist_.empty()) {
      const nvm::Offset master = worklist_.back();
      worklist_.pop_back();
      if (bitmap_->IsMarked(heap_->BlockIndex(master))) {
        continue;  // already traced via another path
      }
      std::vector<nvm::Offset> chain;
      const uint16_t class_id = heap_->CollectBlocks(master, &chain).id;
      for (const nvm::Offset b : chain) {
        bitmap_->Mark(heap_->BlockIndex(b));
      }
      ++traversed_;

      const ClassInfo* info = rt_->ClassInfoForId(class_id);
      JNVM_CHECK_MSG(info != nullptr,
                     ("live object of unregistered class id " +
                      std::to_string(class_id) + " ('" +
                      heap_->ClassName(class_id) + "')")
                         .c_str());
      ObjectView view(heap_, std::move(chain));
      if (info->trace) {
        info->trace(view, *this);
      }
      if (info->recover) {
        info->recover(view);  // the recover() hook (§3.2.1)
      }
    }
  }

  void VisitRef(ObjectView& view, size_t off) override {
    const nvm::Offset ref = view.Read<uint64_t>(off);
    if (ref == 0) {
      return;
    }
    if (ref >= heap_->bump() || ref < heap_->first_block()) {
      Nullify(view, off);  // torn or stale reference outside the heap
      return;
    }
    if (!heap_->IsBlockAligned(ref)) {
      VisitPoolRef(view, off, ref);
      return;
    }
    const heap::BlockHeader h = heap_->ReadHeader(ref);
    const ClassInfo* info = rt_->ClassInfoForId(h.id);
    if (!h.IsMaster() || !h.valid || info == nullptr || info->is_pool) {
      // Invalid (partially deleted or never validated) object: nullify the
      // reference instead of exposing it (§2.4).
      Nullify(view, off);
      return;
    }
    if (!bitmap_->IsMarked(heap_->BlockIndex(ref))) {
      Push(ref);
    }
  }

  const std::unordered_map<nvm::Offset, std::vector<nvm::Offset>>& live_pool_slots()
      const {
    return live_pool_slots_;
  }
  uint64_t traversed() const { return traversed_; }
  uint64_t nullified() const { return nullified_; }
  uint64_t pool_slot_count() const { return pool_slot_count_; }

 private:
  void Push(nvm::Offset master) { worklist_.push_back(master); }

  void VisitPoolRef(ObjectView& view, size_t off, nvm::Offset ref) {
    const nvm::Offset block =
        (ref / heap_->block_size()) * heap_->block_size();
    const heap::BlockHeader h = heap_->ReadHeader(block);
    const ClassInfo* info = rt_->ClassInfoForId(h.id);
    if (!h.IsMaster() || info == nullptr || !info->is_pool) {
      Nullify(view, off);
      return;
    }
    bitmap_->Mark(heap_->BlockIndex(block));
    auto& slots = live_pool_slots_[block];
    slots.push_back(ref);
    ++pool_slot_count_;
  }

  // Env-gated diagnostic: a nullified reference is recovery working as
  // designed, but WHICH ref got dropped (and what its target looked like)
  // is the first question when a crash-consistency sweep finds a torn
  // structure. JNVM_DEBUG_NULLIFY=1 prints one line per dropped ref.
  void Nullify(ObjectView& view, size_t off) {
    static const bool debug = getenv("JNVM_DEBUG_NULLIFY") != nullptr;
    if (debug) {
      const nvm::Offset ref = view.Read<uint64_t>(off);
      const ClassInfo* owner = rt_->ClassInfoForId(heap_->ClassIdOf(view.master()));
      fprintf(stderr,
              "NULLIFY owner=%s master=%llu off=%zu ref=%llu "
              "(first=%llu bump=%llu bs=%u aligned=%d)",
              owner ? owner->name.c_str() : "?",
              (unsigned long long)view.master(), off, (unsigned long long)ref,
              (unsigned long long)heap_->first_block(),
              (unsigned long long)heap_->bump(), heap_->block_size(),
              heap_->IsBlockAligned(ref));
      if (ref >= heap_->first_block() && ref < heap_->bump() &&
          heap_->IsBlockAligned(ref)) {
        const heap::BlockHeader h = heap_->ReadHeader(ref);
        const ClassInfo* tc = rt_->ClassInfoForId(h.id);
        fprintf(stderr, " target{master=%d valid=%d id=%u cls=%s}", h.IsMaster(),
                h.valid, h.id, tc ? tc->name.c_str() : "?");
      }
      fprintf(stderr, "\n");
    }
    view.Write<uint64_t>(off, 0);
    view.PwbRange(off, sizeof(uint64_t));
    ++nullified_;
  }

  JnvmRuntime* rt_;
  Heap* heap_;
  heap::LiveBitmap* bitmap_;
  std::vector<nvm::Offset> worklist_;
  std::unordered_map<nvm::Offset, std::vector<nvm::Offset>> live_pool_slots_;
  uint64_t traversed_ = 0;
  uint64_t nullified_ = 0;
  uint64_t pool_slot_count_ = 0;
};

pfa::FaHooks RecoveryHooks(JnvmRuntime& rt) {
  pfa::FaHooks hooks;
  PoolManager* pools = &rt.pools();
  hooks.pool_free = [pools](nvm::Offset slot) { pools->FreeSlot(slot); };
  return hooks;
}

}  // namespace

RecoveryReport RecoverGraph(JnvmRuntime& rt) {
  Stopwatch sw;
  RecoveryReport report;
  report.graph = true;
  Heap& heap = rt.heap();
  const uint64_t reads_before = heap.dev().stats().reads;

  // Step 1: redo logs first (§4.2 "After a failure, J-NVM first handles the
  // per-thread logs of failure-atomic blocks, then it executes the recovery
  // procedure").
  report.replay = pfa::ReplayAllLogs(&heap, RecoveryHooks(rt));

  // Step 2: collection pass.
  heap::LiveBitmap bitmap = heap.NewBitmap();
  GraphWalker walker(&rt, &bitmap);
  walker.Run(heap.root_master());
  report.traversed_objects = walker.traversed();
  report.nullified_refs = walker.nullified();
  report.live_pool_slots = walker.pool_slot_count();

  // Step 3: pool allocators (precise occupancy from reachability).
  rt.pools().RebuildFromLiveSlots(walker.live_pool_slots());

  // Step 4: sweep + the single terminal pfence (§4.1.3).
  report.sweep = heap.SweepUnmarked(bitmap);
  report.device_reads = heap.dev().stats().reads - reads_before;
  report.seconds = sw.ElapsedSec();
  return report;
}

RecoveryReport RecoverBlockScan(JnvmRuntime& rt) {
  Stopwatch sw;
  RecoveryReport report;
  report.graph = false;
  Heap& heap = rt.heap();
  const uint64_t reads_before = heap.dev().stats().reads;

  report.replay = pfa::ReplayAllLogs(&heap, RecoveryHooks(rt));
  // The scan hands over the pool masters it meets, so the pool allocators
  // rebuild without reading every header a second time.
  std::vector<std::pair<nvm::Offset, uint16_t>> pool_masters;
  report.sweep = heap.RecoverBlockScan([&](nvm::Offset master, uint16_t id) {
    const ClassInfo* info = rt.ClassInfoForId(id);
    if (info != nullptr && info->is_pool) {
      pool_masters.emplace_back(master, id);
    }
  });
  rt.pools().RebuildFromScan(pool_masters);
  report.device_reads = heap.dev().stats().reads - reads_before;
  report.seconds = sw.ElapsedSec();
  return report;
}

}  // namespace jnvm::core
