#include "src/core/pool.h"

#include <algorithm>
#include <array>

namespace jnvm::core {

namespace {

// Size classes chosen so the per-block waste (headers + padding) stays
// small across the record/field sizes of the evaluation (§5.3.5 reports
// 21.2 % NVMM overhead for 100 B fields with 256 B blocks).
constexpr std::array<uint16_t, 10> kSizeClasses = {16, 24, 32, 48, 64,
                                                   96, 128, 160, 200, 245};

constexpr size_t kMetaSlotSizeOff = 0;  // u16 in pool block payload
constexpr size_t kMetaOccupancyOff = 2;

}  // namespace

size_t PoolManager::max_slot_bytes() const {
  // Must satisfy nslots >= 1 for the largest class.
  return kSizeClasses.back();
}

size_t PoolManager::SizeClassFor(size_t bytes) {
  for (const uint16_t sc : kSizeClasses) {
    if (bytes <= sc) {
      return sc;
    }
  }
  return 0;  // too large for any pool
}

uint16_t PoolManager::SlotBytesOf(Heap* heap, Offset slot) {
  const Offset block = (slot / heap->block_size()) * heap->block_size();
  return heap->dev().Read<uint16_t>(heap->PayloadOf(block) + kMetaSlotSizeOff);
}

bool PoolManager::AddBlock(uint16_t class_id, uint16_t slot_size, FreeList* list) {
  const Offset block = heap_->AllocBlockRaw();
  if (block == 0) {
    return false;
  }
  const size_t payload = heap_->payload_per_block();
  const uint32_t nslots = NumSlots(payload, slot_size);
  JNVM_CHECK(nslots >= 1);

  heap::BlockHeader h;
  h.id = class_id;
  h.valid = true;  // pool blocks carry the element class; liveness is per slot
  h.next = 0;
  heap_->dev().Write<uint64_t>(block, h.Pack());
  const Offset meta = heap_->PayloadOf(block);
  heap_->dev().Write<uint16_t>(meta + kMetaSlotSizeOff, slot_size);
  heap_->dev().Memset(meta + kMetaOccupancyOff, 0, nslots);
  heap_->PwbRange(block, kMetaOccupancyOff + nslots + heap::kBlockHeaderBytes);
  // No fence: the first published slot's fence makes the block durable.

  PushBlockSlots(block, slot_size, list, nullptr);
  ++stats_.blocks_created;
  return true;
}

void PoolManager::PushBlockSlots(Offset block, uint16_t slot_size, FreeList* list,
                                 const std::vector<bool>* occupied) {
  const size_t payload = heap_->payload_per_block();
  const uint32_t nslots = NumSlots(payload, slot_size);
  const Offset slots_base = heap_->PayloadOf(block) + kMetaOccupancyOff + nslots;
  for (uint32_t i = 0; i < nslots; ++i) {
    if (occupied != nullptr && (*occupied)[i]) {
      continue;
    }
    list->slots.push_back(slots_base + static_cast<Offset>(i) * slot_size);
  }
}

Offset PoolManager::AllocSlot(uint16_t class_id, size_t bytes) {
  const size_t sc = SizeClassFor(bytes);
  JNVM_CHECK_MSG(sc != 0, "object too large for pool allocation");
  std::lock_guard<std::mutex> lk(mu_);
  FreeList& list = lists_[{class_id, static_cast<uint16_t>(sc)}];
  if (list.slots.empty() && !AddBlock(class_id, static_cast<uint16_t>(sc), &list)) {
    return 0;
  }
  const Offset slot = list.slots.back();
  list.slots.pop_back();

  // Occupancy hint: set before the publish fence of the enclosing object.
  const Offset block = (slot / heap_->block_size()) * heap_->block_size();
  const uint32_t nslots = NumSlots(heap_->payload_per_block(), static_cast<uint16_t>(sc));
  const Offset slots_base = heap_->PayloadOf(block) + kMetaOccupancyOff + nslots;
  const uint32_t index = static_cast<uint32_t>((slot - slots_base) / sc);
  const Offset occ = heap_->PayloadOf(block) + kMetaOccupancyOff + index;
  heap_->dev().Write<uint8_t>(occ, 1);
  heap_->Pwb(occ);
  ++stats_.slots_allocated;
  return slot;
}

void PoolManager::FreeSlot(Offset slot) {
  const Offset block = (slot / heap_->block_size()) * heap_->block_size();
  const uint16_t class_id = heap_->ClassIdOf(block);
  const uint16_t slot_size = SlotBytesOf(heap_, slot);
  const uint32_t nslots = NumSlots(heap_->payload_per_block(), slot_size);
  const Offset slots_base = heap_->PayloadOf(block) + kMetaOccupancyOff + nslots;
  const uint32_t index = static_cast<uint32_t>((slot - slots_base) / slot_size);
  JNVM_DCHECK(slots_base + static_cast<Offset>(index) * slot_size == slot);

  const Offset occ = heap_->PayloadOf(block) + kMetaOccupancyOff + index;
  heap_->dev().Write<uint8_t>(occ, 0);
  heap_->Pwb(occ);  // no fence, like JNVM.free (§4.1.5)

  std::lock_guard<std::mutex> lk(mu_);
  lists_[{class_id, slot_size}].slots.push_back(slot);
  ++stats_.slots_freed;
}

void PoolManager::ResetVolatile() {
  std::lock_guard<std::mutex> lk(mu_);
  lists_.clear();
}

void PoolManager::RebuildFromLiveSlots(
    const std::unordered_map<Offset, std::vector<Offset>>& live_by_block) {
  std::lock_guard<std::mutex> lk(mu_);
  lists_.clear();
  for (const auto& [block, live_slots] : live_by_block) {
    const uint16_t class_id = heap_->ClassIdOf(block);
    const uint16_t slot_size =
        heap_->dev().Read<uint16_t>(heap_->PayloadOf(block) + kMetaSlotSizeOff);
    const uint32_t nslots = NumSlots(heap_->payload_per_block(), slot_size);
    const Offset slots_base = heap_->PayloadOf(block) + kMetaOccupancyOff + nslots;

    std::vector<bool> occupied(nslots, false);
    for (const Offset slot : live_slots) {
      const uint32_t index = static_cast<uint32_t>((slot - slots_base) / slot_size);
      JNVM_CHECK(index < nslots);
      occupied[index] = true;
    }
    // Rewrite the hints precisely (reachability is the ground truth).
    for (uint32_t i = 0; i < nslots; ++i) {
      heap_->dev().Write<uint8_t>(heap_->PayloadOf(block) + kMetaOccupancyOff + i,
                                  occupied[i] ? 1 : 0);
    }
    heap_->PwbRange(heap_->PayloadOf(block) + kMetaOccupancyOff, nslots);
    PushBlockSlots(block, slot_size, &lists_[{class_id, slot_size}], &occupied);
  }
  // The caller (core recovery) fences once at the end of the procedure.
}

void PoolManager::RebuildFromScan(
    const std::vector<std::pair<Offset, uint16_t>>& pool_masters) {
  std::lock_guard<std::mutex> lk(mu_);
  lists_.clear();
  for (const auto& [block, class_id] : pool_masters) {
    const uint16_t slot_size =
        heap_->dev().Read<uint16_t>(heap_->PayloadOf(block) + kMetaSlotSizeOff);
    const uint32_t nslots = NumSlots(heap_->payload_per_block(), slot_size);
    std::vector<bool> occupied(nslots, false);
    bool any_live = false;
    for (uint32_t i = 0; i < nslots; ++i) {
      const uint8_t occ =
          heap_->dev().Read<uint8_t>(heap_->PayloadOf(block) + kMetaOccupancyOff + i);
      occupied[i] = occ != 0;
      any_live = any_live || occupied[i];
    }
    if (!any_live) {
      heap_->FreeObject(block);
      continue;
    }
    PushBlockSlots(block, slot_size, &lists_[{class_id, slot_size}], &occupied);
  }
}

PoolManager::PoolStats PoolManager::stats() const { return stats_; }

}  // namespace jnvm::core
