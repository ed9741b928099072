// PRefArray — a fixed-capacity persistent array of references.
//
// The building block of the root map and of every J-PDT map/set (§4.3.2):
// the persistent part of a map is exactly an extensible array of references
// to key/value pairs, and mutating the map incurs a *single* reference write
// into this array, which keeps the persistent structure consistent at all
// times.
#ifndef JNVM_SRC_CORE_REF_ARRAY_H_
#define JNVM_SRC_CORE_REF_ARRAY_H_

#include "src/core/pobject.h"

namespace jnvm::core {

class PRefArray final : public PObject {
 public:
  static const ClassInfo* Class();

  explicit PRefArray(Resurrect) {}
  // Allocates with all slots null (the heap voids fresh payloads).
  PRefArray(JnvmRuntime& rt, uint64_t capacity);

  uint64_t capacity() const { return ReadField<uint64_t>(kCapacityOff); }

  nvm::Offset GetRaw(uint64_t i) const {
    JNVM_DCHECK(i < capacity());
    return ReadRefRaw(SlotOff(i));
  }

  // Single-word publication: store + queue line, no fence (§4.3.2 — "the
  // persistent data structure is always in a consistent state because
  // modifying it incurs a single write to NVMM").
  void SetRaw(uint64_t i, nvm::Offset ref) {
    JNVM_DCHECK(i < capacity());
    WriteRefRaw(SlotOff(i), ref);
    PwbField(SlotOff(i), sizeof(uint64_t));
  }

  // Cells [first, first + n) into out[0, n): one device read per block the
  // range spans instead of one per cell (mirror rebuilds at recovery).
  void GetRawRange(uint64_t first, uint64_t n, nvm::Offset* out) const {
    JNVM_DCHECK(first + n <= capacity());
    ReadBytesField(SlotOff(first), out, n * sizeof(uint64_t));
  }

  Handle<PObject> Get(uint64_t i) const { return ReadPObject(SlotOff(i)); }
  void Set(uint64_t i, const PObject* obj) {
    SetRaw(i, obj == nullptr ? 0 : obj->addr());
  }

  // Atomic update per §4.1.6 (validates the target and fences first).
  void UpdateSlot(uint64_t i, PObject* target) { UpdateRef(SlotOff(i), target); }

  static size_t PayloadBytesFor(uint64_t capacity) {
    return kSlotsOff + capacity * sizeof(uint64_t);
  }

 private:
  static constexpr size_t kCapacityOff = 0;
  static constexpr size_t kSlotsOff = 8;
  static size_t SlotOff(uint64_t i) { return kSlotsOff + i * sizeof(uint64_t); }

  static void Trace(ObjectView& view, RefVisitor& v);
};

}  // namespace jnvm::core

#endif  // JNVM_SRC_CORE_REF_ARRAY_H_
