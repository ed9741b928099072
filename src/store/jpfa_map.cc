#include "src/store/jpfa_map.h"

namespace jnvm::store {

const core::ClassInfo* JpfaEntry::Class() {
  static const core::ClassInfo* info = RegisterClass(
      core::MakeClassInfo<JpfaEntry>("jnvm.store.JpfaEntry", &JpfaEntry::Trace));
  return info;
}

void JpfaEntry::Trace(core::ObjectView& view, core::RefVisitor& v) {
  v.VisitRef(view, kKeyOff);
  v.VisitRef(view, kValueOff);
  v.VisitRef(view, kNextOff);
}

const core::ClassInfo* JpfaHashMap::Class() {
  static const core::ClassInfo* info = RegisterClass(
      core::MakeClassInfo<JpfaHashMap>("jnvm.store.JpfaHashMap", &JpfaHashMap::Trace));
  return info;
}

void JpfaHashMap::Trace(core::ObjectView& view, core::RefVisitor& v) {
  v.VisitRef(view, kBucketsOff);
}

JpfaHashMap::JpfaHashMap(core::JnvmRuntime& rt, uint64_t nbuckets) {
  AllocatePersistent(rt, Class(), 16);
  auto buckets = std::make_shared<core::PRefArray>(rt, nbuckets);
  buckets->Validate();
  WritePObject(kBucketsOff, buckets.get());
  WriteField<uint64_t>(kSizeOff, 0);
  PwbField(0, 16);
  buckets_ = std::move(buckets);
}

core::Handle<JpfaEntry> JpfaHashMap::FindLocked(const std::string& key,
                                                uint64_t* bucket,
                                                core::Handle<JpfaEntry>* prev) {
  *bucket = std::hash<std::string>()(key) % buckets_->capacity();
  if (prev != nullptr) {
    prev->reset();
  }
  nvm::Offset cur = buckets_->GetRaw(*bucket);
  core::Handle<JpfaEntry> prev_entry;
  while (cur != 0) {
    auto entry = runtime().ResurrectRefAs<JpfaEntry>(cur);
    if (entry->Key()->Equals(key)) {
      if (prev != nullptr) {
        *prev = prev_entry;
      }
      return entry;
    }
    prev_entry = entry;
    cur = entry->NextRaw();
  }
  return nullptr;
}

core::Handle<core::PObject> JpfaHashMap::Get(const std::string& key) {
  core::JnvmRuntime& rt = runtime();
  std::lock_guard<std::mutex> lk(mu_);
  core::FaBlock fa(rt);  // generated methods are failure-atomic (§2.5)
  uint64_t bucket;
  auto entry = FindLocked(key, &bucket, nullptr);
  return entry == nullptr ? nullptr : entry->Value();
}

void JpfaHashMap::Put(const std::string& key, core::PObject* value, bool free_old) {
  core::JnvmRuntime& rt = runtime();
  std::lock_guard<std::mutex> lk(mu_);
  rt.FaStart();
  uint64_t bucket;
  auto entry = FindLocked(key, &bucket, nullptr);
  if (entry != nullptr) {
    const nvm::Offset old = entry->ValueRaw();
    entry->SetValue(value);
    if (free_old && old != 0) {
      rt.FreeRef(old);  // deferred to commit inside the block
    }
  } else {
    pdt::PString k(rt, key);
    JpfaEntry fresh(rt, &k, value, buckets_->GetRaw(bucket));
    buckets_->Set(bucket, &fresh);
    WriteField<uint64_t>(kSizeOff, ReadField<uint64_t>(kSizeOff) + 1);
  }
  rt.FaEnd();
}

bool JpfaHashMap::Remove(const std::string& key, bool free_value) {
  core::JnvmRuntime& rt = runtime();
  std::lock_guard<std::mutex> lk(mu_);
  rt.FaStart();
  uint64_t bucket;
  core::Handle<JpfaEntry> prev;
  auto entry = FindLocked(key, &bucket, &prev);
  if (entry == nullptr) {
    rt.FaEnd();
    return false;
  }
  if (prev == nullptr) {
    buckets_->SetRaw(bucket, entry->NextRaw());
  } else {
    prev->SetNextRaw(entry->NextRaw());
  }
  const nvm::Offset kref = entry->KeyRaw();
  const nvm::Offset vref = entry->ValueRaw();
  if (kref != 0) {
    rt.FreeRef(kref);
  }
  if (free_value && vref != 0) {
    rt.FreeRef(vref);
  }
  rt.Free(*entry);
  WriteField<uint64_t>(kSizeOff, ReadField<uint64_t>(kSizeOff) - 1);
  rt.FaEnd();
  return true;
}

uint64_t JpfaHashMap::Size() {
  core::JnvmRuntime& rt = runtime();
  std::lock_guard<std::mutex> lk(mu_);
  core::FaBlock fa(rt);
  return ReadField<uint64_t>(kSizeOff);
}

}  // namespace jnvm::store
