#include "src/store/kvstore.h"

namespace jnvm::store {

namespace {
void DeleteRecord(void* p) { delete static_cast<Record*>(p); }
}  // namespace

// Allocates a managed record object shaped like its Java original: one node
// per record plus one ballast child per field, so the collector's tracing
// work scales with the object graph exactly as in the JVM (§2.2.1).
gcsim::ObjRef KvStore::MakeRecordNode(const Record& r) {
  auto* copy = new Record(r);
  std::vector<uint64_t> child_bytes;
  child_bytes.reserve(r.fields.size());
  for (const std::string& f : r.fields) {
    child_bytes.push_back(f.size() + 48);
  }
  return gc_heap_->AllocGraph(64, child_bytes, copy, &DeleteRecord);
}

KvStore::KvStore(Backend* backend, gcsim::ManagedHeap* gc_heap,
                 const StoreOptions& opts)
    : backend_(backend),
      gc_heap_(gc_heap),
      capacity_(static_cast<uint64_t>(opts.cache_ratio *
                                      static_cast<double>(opts.expected_records))) {
  stripes_.reserve(opts.lock_stripes);
  for (uint32_t i = 0; i < opts.lock_stripes; ++i) {
    stripes_.push_back(std::make_unique<std::mutex>());
  }
}

KvStore::~KvStore() {
  if (gc_heap_ != nullptr) {
    std::lock_guard<std::mutex> lk(cache_mu_);
    for (auto& [key, entry] : cache_) {
      gc_heap_->RemoveRoot(entry.node);
    }
  }
}

std::mutex& KvStore::StripeFor(const std::string& key) {
  return *stripes_[std::hash<std::string>()(key) % stripes_.size()];
}

bool KvStore::CacheGetLocked(const std::string& key, Record* out) {
  auto it = cache_.find(key);
  if (it == cache_.end()) {
    return false;
  }
  lru_.splice(lru_.begin(), lru_, it->second.lru_it);  // touch
  *out = *static_cast<Record*>(gc_heap_->External(it->second.node));
  return true;
}

void KvStore::CacheInsertLocked(const std::string& key, const Record& r) {
  auto it = cache_.find(key);
  if (it != cache_.end()) {
    // Java semantics: the cache holds a *new* value object; the old one
    // becomes floating garbage for the collector.
    gc_heap_->RemoveRoot(it->second.node);
    it->second.node = MakeRecordNode(r);
    gc_heap_->AddRoot(it->second.node);
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    return;
  }
  while (cache_.size() >= capacity_ && !lru_.empty()) {
    const std::string victim = lru_.back();
    lru_.pop_back();
    auto vit = cache_.find(victim);
    if (vit != cache_.end()) {
      gc_heap_->RemoveRoot(vit->second.node);  // freed at the next GC cycle
      cache_.erase(vit);
    }
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
  const gcsim::ObjRef node = MakeRecordNode(r);
  gc_heap_->AddRoot(node);
  lru_.push_front(key);
  cache_.emplace(key, CacheEntry{node, lru_.begin()});
}

void KvStore::CacheUpdateFieldLocked(const std::string& key, size_t field,
                                     const std::string& value) {
  auto it = cache_.find(key);
  if (it == cache_.end()) {
    return;
  }
  auto* rec = static_cast<Record*>(gc_heap_->External(it->second.node));
  if (field >= rec->fields.size()) {
    return;
  }
  Record updated = *rec;
  updated.fields[field] = value;
  // Replace the cached value object (Infinispan put()): allocation churn
  // proportional to the update rate, independent of the cache ratio.
  gc_heap_->RemoveRoot(it->second.node);
  it->second.node = MakeRecordNode(updated);
  gc_heap_->AddRoot(it->second.node);
  lru_.splice(lru_.begin(), lru_, it->second.lru_it);
}

void KvStore::CacheEraseLocked(const std::string& key) {
  auto it = cache_.find(key);
  if (it == cache_.end()) {
    return;
  }
  gc_heap_->RemoveRoot(it->second.node);
  lru_.erase(it->second.lru_it);
  cache_.erase(it);
}

bool KvStore::Read(const std::string& key, Record* out) {
  std::lock_guard<std::mutex> lk(StripeFor(key));
  if (cache_enabled()) {
    std::lock_guard<std::mutex> clk(cache_mu_);
    if (CacheGetLocked(key, out)) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
  }
  if (!backend_->Get(key, out)) {
    return false;
  }
  if (cache_enabled()) {
    std::lock_guard<std::mutex> clk(cache_mu_);
    CacheInsertLocked(key, *out);
  }
  return true;
}

bool KvStore::ReadTouch(const std::string& key) {
  if (cache_enabled()) {
    Record tmp;
    return Read(key, &tmp);
  }
  std::lock_guard<std::mutex> lk(StripeFor(key));
  return backend_->Touch(key);
}

bool KvStore::Insert(const std::string& key, const Record& r) {
  std::lock_guard<std::mutex> lk(StripeFor(key));
  const bool inserted = backend_->Put(key, r);  // write-through
  if (cache_enabled()) {
    std::lock_guard<std::mutex> clk(cache_mu_);
    CacheInsertLocked(key, r);
  }
  return inserted;
}

bool KvStore::Put(const std::string& key, const Record& r) { return Insert(key, r); }

bool KvStore::Update(const std::string& key, size_t field, const std::string& value) {
  std::lock_guard<std::mutex> lk(StripeFor(key));
  if (!backend_->UpdateField(key, field, value)) {  // write-through
    return false;
  }
  if (cache_enabled()) {
    std::lock_guard<std::mutex> clk(cache_mu_);
    CacheUpdateFieldLocked(key, field, value);
  }
  return true;
}

bool KvStore::Delete(const std::string& key) {
  std::lock_guard<std::mutex> lk(StripeFor(key));
  const bool ok = backend_->Delete(key);
  if (cache_enabled()) {
    std::lock_guard<std::mutex> clk(cache_mu_);
    CacheEraseLocked(key);
  }
  return ok;
}

bool KvStore::ReadModifyWrite(const std::string& key, size_t field,
                              const std::string& value) {
  Record r;
  if (!Read(key, &r)) {
    return false;
  }
  return Update(key, field, value);
}

size_t KvStore::WarmCache(const std::vector<std::string>& keys) {
  if (!cache_enabled()) {
    return 0;
  }
  size_t loaded = 0;
  Record r;
  for (const std::string& key : keys) {
    if (loaded >= capacity_) {
      break;
    }
    if (backend_->Get(key, &r)) {
      std::lock_guard<std::mutex> clk(cache_mu_);
      CacheInsertLocked(key, r);
      ++loaded;
    }
  }
  return loaded;
}

CacheStats KvStore::cache_stats() const {
  CacheStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.entries = cache_.size();
  return s;
}

}  // namespace jnvm::store
