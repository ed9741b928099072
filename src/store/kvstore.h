// KvStore — the Infinispan-like embedded data store (§5.1).
//
// Structure copied from the evaluation setup: a volatile cache in front of a
// pluggable persistence backend. The cache holds up to cache_ratio ×
// expected_records entries as managed objects in the (garbage-collected)
// gcsim heap — exactly the Java-heap pressure of the original. Writes are
// write-through (durability in the critical path, Figure 9a); reads hit the
// cache first and populate it on miss. Accesses are protected by striped
// locks ("accesses to the persistent state are protected by the locks of
// Infinispan", §5.3.2).
//
// For J-NVM backends the paper disables caching ("it is disabled in all our
// experiments using J-NVM as a backend") — pass cache_ratio = 0.
#ifndef JNVM_SRC_STORE_KVSTORE_H_
#define JNVM_SRC_STORE_KVSTORE_H_

#include <atomic>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "src/gcsim/managed_heap.h"
#include "src/store/backend.h"

namespace jnvm::store {

struct StoreOptions {
  double cache_ratio = 0.10;
  uint64_t expected_records = 0;  // cache capacity = ratio × expected
  uint32_t lock_stripes = 64;
};

struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t entries = 0;
};

class KvStore {
 public:
  // `gc_heap` may be null when cache_ratio == 0 (J-NVM backends).
  KvStore(Backend* backend, gcsim::ManagedHeap* gc_heap, const StoreOptions& opts);
  ~KvStore();

  Backend& backend() { return *backend_; }

  bool Read(const std::string& key, Record* out);
  // YCSB read with persistent-values semantics: J-NVM backends touch a
  // proxy instead of materializing the record; cache-fronted backends
  // behave exactly like Read.
  bool ReadTouch(const std::string& key);
  // Insert-or-replace; true when the key was newly inserted.
  bool Insert(const std::string& key, const Record& r);
  // Full-record replace (same insert signal as Insert).
  bool Put(const std::string& key, const Record& r);
  // Field-granular update (the YCSB update op).
  bool Update(const std::string& key, size_t field, const std::string& value);
  bool Delete(const std::string& key);
  // Read-modify-write (YCSB rmw): read all fields, update one.
  bool ReadModifyWrite(const std::string& key, size_t field, const std::string& value);

  // Restart path (Figure 11): reload up to the cache capacity eagerly, like
  // Infinispan rebuilding its cache from the store.
  size_t WarmCache(const std::vector<std::string>& keys);

  CacheStats cache_stats() const;

 private:
  struct CacheEntry {
    gcsim::ObjRef node = 0;
    std::list<std::string>::iterator lru_it;
  };

  std::mutex& StripeFor(const std::string& key);
  gcsim::ObjRef MakeRecordNode(const Record& r);
  bool cache_enabled() const { return capacity_ > 0 && gc_heap_ != nullptr; }

  // All cache helpers require cache_mu_.
  bool CacheGetLocked(const std::string& key, Record* out);
  void CacheInsertLocked(const std::string& key, const Record& r);
  void CacheUpdateFieldLocked(const std::string& key, size_t field,
                              const std::string& value);
  void CacheEraseLocked(const std::string& key);

  Backend* backend_;
  gcsim::ManagedHeap* gc_heap_;
  uint64_t capacity_;
  std::vector<std::unique_ptr<std::mutex>> stripes_;

  std::mutex cache_mu_;
  std::unordered_map<std::string, CacheEntry> cache_;
  std::list<std::string> lru_;  // front = most recent

  std::atomic<uint64_t> hits_{0}, misses_{0}, evictions_{0};
};

}  // namespace jnvm::store

#endif  // JNVM_SRC_STORE_KVSTORE_H_
