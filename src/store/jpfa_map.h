// JpfaHashMap — a persistent hash map written the "high-level" way (§5.1
// J-PFA backend): a straightforward chained-bucket structure whose methods
// are wrapped in failure-atomic blocks, exactly like code produced by the
// generator from @Persistent(fa="non-private") classes (§2.5).
//
// Unlike the J-PDT maps there is no hand-crafted publication protocol and no
// volatile mirror: lookups walk NVMM chains, and every mutation pays the
// redo-log machinery (in-flight block copies, commit fences). Figure 7/12's
// comparison J-PFA vs J-PDT quantifies that convenience cost ("J-PDT is
// still up to 65% faster").
#ifndef JNVM_SRC_STORE_JPFA_MAP_H_
#define JNVM_SRC_STORE_JPFA_MAP_H_

#include <mutex>

#include "src/core/ref_array.h"
#include "src/core/runtime.h"
#include "src/pdt/pstring.h"
#include "src/store/precord.h"

namespace jnvm::store {

// One chain link: {ref key (PString), ref value, ref next}.
class JpfaEntry final : public core::PObject {
 public:
  static const core::ClassInfo* Class();

  explicit JpfaEntry(core::Resurrect) {}
  JpfaEntry(core::JnvmRuntime& rt, const core::PObject* key,
            const core::PObject* value, nvm::Offset next) {
    AllocatePersistent(rt, Class(), 24);
    WritePObject(kKeyOff, key);
    WritePObject(kValueOff, value);
    WriteRefRaw(kNextOff, next);
    Pwb();
  }

  core::Handle<pdt::PString> Key() const { return ReadPObjectAs<pdt::PString>(kKeyOff); }
  nvm::Offset KeyRaw() const { return ReadRefRaw(kKeyOff); }
  core::Handle<core::PObject> Value() const { return ReadPObject(kValueOff); }
  nvm::Offset ValueRaw() const { return ReadRefRaw(kValueOff); }
  void SetValue(const core::PObject* v) { WritePObject(kValueOff, v); }
  nvm::Offset NextRaw() const { return ReadRefRaw(kNextOff); }
  void SetNextRaw(nvm::Offset next) { WriteRefRaw(kNextOff, next); }

  static constexpr size_t kKeyOff = 0;
  static constexpr size_t kValueOff = 8;
  static constexpr size_t kNextOff = 16;

 private:
  static void Trace(core::ObjectView& view, core::RefVisitor& v);
};

class JpfaHashMap final : public core::PObject {
 public:
  static const core::ClassInfo* Class();

  explicit JpfaHashMap(core::Resurrect) {}
  // Fixed bucket count (no rehash — sized at creation like a pre-dimensioned
  // Java HashMap; documented simplification).
  JpfaHashMap(core::JnvmRuntime& rt, uint64_t nbuckets);

  void Resurrect_() override { buckets_ = ReadPObjectAs<core::PRefArray>(kBucketsOff); }

  // All public operations execute inside failure-atomic blocks.
  core::Handle<core::PObject> Get(const std::string& key);
  void Put(const std::string& key, core::PObject* value, bool free_old = true);
  bool Remove(const std::string& key, bool free_value = true);
  uint64_t Size();

 private:
  static constexpr size_t kBucketsOff = 0;
  static constexpr size_t kSizeOff = 8;

  static void Trace(core::ObjectView& view, core::RefVisitor& v);

  // Returns the entry for key (or nullptr); `prev` gets the predecessor.
  core::Handle<JpfaEntry> FindLocked(const std::string& key, uint64_t* bucket,
                                     core::Handle<JpfaEntry>* prev);

  std::mutex mu_;
  core::Handle<core::PRefArray> buckets_;  // transient
};

}  // namespace jnvm::store

#endif  // JNVM_SRC_STORE_JPFA_MAP_H_
