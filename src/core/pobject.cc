#include "src/core/pobject.h"

#include <utility>
#include <vector>

#include "src/core/pool.h"
#include "src/core/runtime.h"

namespace jnvm::core {

pfa::FaContext* PObject::ActiveFa() const { return rt_->CurrentFaOrNull(); }

void PObject::AllocatePersistent(JnvmRuntime& rt, const ClassInfo* cls,
                                 size_t payload_bytes, bool zero) {
  JNVM_CHECK(!attached_);
  rt_ = &rt;
  heap_ = &rt.heap();
  cls_ = cls;
  const uint16_t id = rt.ClassIdFor(cls);
  std::vector<nvm::Offset> chain;
  const nvm::Offset master = heap_->AllocObject(id, payload_bytes, zero, &chain);
  JNVM_CHECK_MSG(master != 0, "persistent heap full");
  view_ = ObjectView(heap_, std::move(chain));
  attached_ = true;
  if (pfa::FaContext* fa = ActiveFa(); fa != nullptr && fa->InFa()) {
    fa->NoteAlloc(master);  // validated at commit (§4.2)
  }
}

void PObject::AllocatePersistentPooled(JnvmRuntime& rt, const ClassInfo* cls,
                                       size_t bytes) {
  JNVM_CHECK(!attached_);
  JNVM_CHECK_MSG(cls->is_pool, "pool allocation of a non-pool class");
  rt_ = &rt;
  heap_ = &rt.heap();
  cls_ = cls;
  const uint16_t id = rt.ClassIdFor(cls);
  const nvm::Offset slot = rt.pools().AllocSlot(id, bytes);
  JNVM_CHECK_MSG(slot != 0, "persistent heap full");
  view_ = ObjectView(heap_, slot, PoolManager::SlotBytesOf(heap_, slot));
  attached_ = true;
  // No alloc log entry: pool objects have no valid bit; an uncommitted crash
  // leaves the slot unreachable and recovery reclaims it.
}

void PObject::AttachExisting(JnvmRuntime& rt, nvm::Offset ref) {
  JNVM_CHECK(!attached_);
  rt_ = &rt;
  heap_ = &rt.heap();
  cls_ = nullptr;  // filled by the runtime's resurrection path if needed
  if (heap_->IsBlockAligned(ref)) {
    view_ = ObjectView(heap_, ref);
  } else {
    view_ = ObjectView(heap_, ref, PoolManager::SlotBytesOf(heap_, ref));
  }
  attached_ = true;
}

void PObject::Detach() {
  attached_ = false;
  view_ = ObjectView();
}

bool PObject::IsValidObject() const {
  const ObjectView& v = view();
  if (v.is_pool_slot()) {
    return true;
  }
  return heap_->IsValid(v.master());
}

void PObject::Validate() {
  ObjectView& v = MutableView();
  if (v.is_pool_slot()) {
    v.PwbAll();  // flush-before-publish stands in for the valid bit (§4.4)
    return;
  }
  heap_->SetValid(v.master());
}

void PObject::Pwb() { MutableView().PwbAll(); }

void PObject::Pfence() const { heap_->Pfence(); }

void PObject::Psync() const { heap_->Psync(); }

void PObject::DurabilityFence() const { heap_->DurabilityFence(); }

nvm::Offset PObject::LocateForRead(size_t off, size_t n) const {
  const ObjectView& v = view();
  const nvm::Offset loc = v.Locate(off);
  pfa::FaContext* fa = ActiveFa();
  if (fa == nullptr || !fa->InFa() || v.is_pool_slot()) {
    return loc;
  }
  const nvm::Offset block = v.BlockFor(off);
  const nvm::Offset target = fa->ReadBlock(block);
  return target == block ? loc : target + (loc - block);
}

nvm::Offset PObject::LocateForWrite(size_t off, size_t n) {
  ObjectView& v = MutableView();
  const nvm::Offset loc = v.Locate(off);
  pfa::FaContext* fa = ActiveFa();
  if (fa == nullptr || !fa->InFa() || v.is_pool_slot()) {
    return loc;
  }
  if (!heap_->IsValid(v.master())) {
    // Writes to invalid objects go direct (§4.2): an uncommitted crash
    // deletes the object anyway.
    return loc;
  }
  const nvm::Offset block = v.BlockFor(off);
  const nvm::Offset copy = fa->WriteBlockCow(block);
  return copy + (loc - block);
}

void PObject::ReadBytesField(size_t off, void* dst, size_t n) const {
  char* out = static_cast<char*>(dst);
  const size_t ppb = view().is_pool_slot() ? view().capacity()
                                           : heap_->payload_per_block();
  while (n > 0) {
    const size_t within = off % ppb;
    const size_t chunk = std::min(n, ppb - within);
    heap_->dev().ReadBytes(LocateForRead(off, chunk), out, chunk);
    off += chunk;
    out += chunk;
    n -= chunk;
  }
}

void PObject::WriteBytesField(size_t off, const void* src, size_t n) {
  const char* in = static_cast<const char*>(src);
  const size_t ppb = view().is_pool_slot() ? view().capacity()
                                           : heap_->payload_per_block();
  while (n > 0) {
    const size_t within = off % ppb;
    const size_t chunk = std::min(n, ppb - within);
    heap_->dev().WriteBytes(LocateForWrite(off, chunk), in, chunk);
    off += chunk;
    in += chunk;
    n -= chunk;
  }
}

Handle<PObject> PObject::ReadPObject(size_t off) const {
  return rt_->ResurrectRef(ReadRefRaw(off));
}

void PObject::WritePObject(size_t off, const PObject* target) {
  WriteRefRaw(off, target == nullptr ? 0 : target->addr());
}

void PObject::UpdateRef(size_t off, PObject* target) {
  pfa::FaContext* fa = ActiveFa();
  if (fa != nullptr && fa->InFa()) {
    // Commit already provides atomicity; a plain logged store suffices.
    WritePObject(off, target);
    return;
  }
  // Figure 6: validate the new object, pfence, then store — the collection
  // pass can then never nullify this reference.
  if (target != nullptr && !target->IsValidObject()) {
    target->Pwb();
    target->Validate();
  }
  heap_->Pfence();
  WritePObject(off, target);
  PwbField(off, sizeof(uint64_t));
}

void PObject::UpdateRefAndFreeOld(size_t off, PObject* target) {
  const nvm::Offset old_ref = ReadRefRaw(off);
  UpdateRef(off, target);
  if (old_ref == 0) {
    return;
  }
  pfa::FaContext* fa = ActiveFa();
  if (fa == nullptr || !fa->InFa()) {
    // The new reference must be durable before the old object's memory can
    // possibly be invalidated or reused — otherwise a crash could leave the
    // field pointing at an invalid object and recovery would nullify it,
    // losing the (still intact) old value. Under group commit this is a
    // durability fence only: FreeRef defers the reclamation past the
    // batch's Psync (JnvmRuntime::DrainGroupFrees), which restores the
    // swing-before-reuse ordering without a per-operation fence.
    heap_->DurabilityFence();
  }
  rt_->FreeRef(old_ref);
}

}  // namespace jnvm::core
