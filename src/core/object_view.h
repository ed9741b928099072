// Raw accessor over the persistent data structure of one object.
//
// An ObjectView addresses an object's payload as a contiguous byte range and
// hides the block chain behind the index arithmetic described in §4.1
// ("retrieving the block that contains a given field simply requires a
// division"). It performs *no* failure-atomic redirection — it is the
// low-level view used by recovery and by PObject internally.
//
// For pool-allocated objects (small immutables, §4.4) the view covers one
// slot inside a shared block.
#ifndef JNVM_SRC_CORE_OBJECT_VIEW_H_
#define JNVM_SRC_CORE_OBJECT_VIEW_H_

#include <vector>

#include "src/heap/heap.h"

namespace jnvm::core {

using heap::Heap;
using nvm::Offset;

class ObjectView {
 public:
  // Null view (unattached proxy state); any access is invalid.
  ObjectView() = default;
  // Chained object: walks the block chain of `master`.
  ObjectView(Heap* heap, Offset master);
  // Chained object whose blocks the caller already holds, master first (as
  // Heap::AllocObject hands them out): reads no header.
  ObjectView(Heap* heap, std::vector<Offset> chain);
  // Pool slot: `slot` points inside a pool block; `slot_bytes` is its size.
  ObjectView(Heap* heap, Offset slot, size_t slot_bytes);

  Heap& heap() const { return *heap_; }
  Offset master() const { return master_; }
  bool is_pool_slot() const { return pool_; }
  size_t capacity() const { return capacity_; }
  size_t block_count() const { return pool_ ? 1 : (blocks_.empty() ? 1 : blocks_.size()); }

  // Device offset holding payload byte `off` (the field must not straddle a
  // block payload boundary for scalar access; byte ranges may).
  Offset Locate(size_t off) const {
    JNVM_DCHECK(off < capacity_);
    if (pool_) {
      return master_ + off;
    }
    const size_t ppb = ppb_;
    const size_t i = off / ppb;
    const Offset block = blocks_.empty() ? master_ : blocks_[i];
    return heap_->PayloadOf(block) + (off % ppb);
  }

  // Block (device offset) containing payload byte `off`; pool slots live in
  // their enclosing pool block.
  Offset BlockFor(size_t off) const {
    if (pool_) {
      return (master_ / heap_->block_size()) * heap_->block_size();
    }
    const size_t i = off / ppb_;
    return blocks_.empty() ? master_ : blocks_[i];
  }

  template <typename T>
  T Read(size_t off) const {
    JNVM_DCHECK(off / ppb_ == (off + sizeof(T) - 1) / ppb_ || pool_);
    return heap_->dev().Read<T>(Locate(off));
  }

  template <typename T>
  void Write(size_t off, T v) {
    JNVM_DCHECK(off / ppb_ == (off + sizeof(T) - 1) / ppb_ || pool_);
    heap_->dev().Write<T>(Locate(off), v);
  }

  // Byte-range access; spans block boundaries.
  void ReadBytes(size_t off, void* dst, size_t n) const;
  void WriteBytes(size_t off, const void* src, size_t n);

  // Queues the cache lines of [off, off+n) for write-back.
  void PwbRange(size_t off, size_t n);
  // Zeroes [off, off+n) and queues it for write-back: one device memset and
  // one write-back range per block, as Heap::AllocObject voids a payload.
  void Zero(size_t off, size_t n);
  // Queues every payload line of the object.
  void PwbAll();

  const std::vector<Offset>& blocks() const { return blocks_; }

 private:
  Heap* heap_ = nullptr;
  Offset master_ = 0;  // master block offset, or slot offset for pool slots
  bool pool_ = false;
  size_t capacity_ = 0;
  size_t ppb_ = 0;     // payload bytes per block (pool: slot size)
  std::vector<Offset> blocks_;  // empty for single-block and pool objects
};

}  // namespace jnvm::core

#endif  // JNVM_SRC_CORE_OBJECT_VIEW_H_
