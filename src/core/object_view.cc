#include "src/core/object_view.h"

#include <algorithm>
#include <utility>

namespace jnvm::core {

ObjectView::ObjectView(Heap* heap, Offset master)
    : heap_(heap), master_(master), ppb_(heap->payload_per_block()) {
  JNVM_DCHECK(heap->IsBlockAligned(master));
  // Single-block objects (the common case) avoid the vector.
  if (heap->ReadHeader(master).next == 0) {
    capacity_ = ppb_;
  } else {
    heap->CollectBlocks(master, &blocks_);
    capacity_ = blocks_.size() * ppb_;
  }
}

ObjectView::ObjectView(Heap* heap, std::vector<Offset> chain)
    : heap_(heap), master_(chain.front()), ppb_(heap->payload_per_block()) {
  JNVM_DCHECK(heap->IsBlockAligned(master_));
  if (chain.size() > 1) {
    blocks_ = std::move(chain);
  }
  capacity_ = block_count() * ppb_;
}

ObjectView::ObjectView(Heap* heap, Offset slot, size_t slot_bytes)
    : heap_(heap), master_(slot), pool_(true), capacity_(slot_bytes), ppb_(slot_bytes) {
  JNVM_DCHECK(!heap->IsBlockAligned(slot));
}

void ObjectView::ReadBytes(size_t off, void* dst, size_t n) const {
  JNVM_DCHECK(off + n <= capacity_);
  char* out = static_cast<char*>(dst);
  while (n > 0) {
    const size_t within = pool_ ? off : off % ppb_;
    const size_t chunk = std::min(n, ppb_ - within);
    heap_->dev().ReadBytes(Locate(off), out, chunk);
    off += chunk;
    out += chunk;
    n -= chunk;
  }
}

void ObjectView::WriteBytes(size_t off, const void* src, size_t n) {
  JNVM_DCHECK(off + n <= capacity_);
  const char* in = static_cast<const char*>(src);
  while (n > 0) {
    const size_t within = pool_ ? off : off % ppb_;
    const size_t chunk = std::min(n, ppb_ - within);
    heap_->dev().WriteBytes(Locate(off), in, chunk);
    off += chunk;
    in += chunk;
    n -= chunk;
  }
}

void ObjectView::PwbRange(size_t off, size_t n) {
  while (n > 0) {
    const size_t within = pool_ ? off : off % ppb_;
    const size_t chunk = std::min(n, ppb_ - within);
    heap_->dev().PwbRange(Locate(off), chunk);
    off += chunk;
    n -= chunk;
  }
}

void ObjectView::Zero(size_t off, size_t n) {
  JNVM_DCHECK(off + n <= capacity_);
  while (n > 0) {
    const size_t within = pool_ ? off : off % ppb_;
    const size_t chunk = std::min(n, ppb_ - within);
    const Offset loc = Locate(off);
    heap_->dev().Memset(loc, 0, chunk);
    heap_->dev().PwbRange(loc, chunk);
    off += chunk;
    n -= chunk;
  }
}

void ObjectView::PwbAll() { PwbRange(0, capacity_); }

}  // namespace jnvm::core
