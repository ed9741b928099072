// The J-PDT persistent maps and sets (§4.3.2).
//
// Design straight from the paper: "to construct a persistent map, J-PDT
// stores the references to the persistent key/value pairs in a persistent
// extensible array. In the proxy, J-NVM maintains two volatile data
// structures: a free queue that stores the empty cells in the persistent
// array, and a mirror map that mirrors the persistent array in volatile
// memory. The mirror map implements the logic of the data structure."
//
// The persistent structure is always consistent because a mutation incurs a
// single reference write into the array. One pfence per insert (publish) and
// one per remove (unlink-before-reuse) sit in the critical path — the cost
// §5.3.4 attributes to crash handling.
//
// Mirrors give the three structures of Figure 12:
//   PStringHashMap      — std::unordered_map mirror   (HashMap)
//   PStringTreeMap      — std::map mirror (red-black) (TreeMap)
//   PStringSkipListMap  — SkipListMap mirror          (SkipListMap)
// plus integer-keyed variants with inline keys (TPC-B accounts).
//
// Proxy-caching variants (§4.3.2 "Base, cached and eager maps and sets"):
//   kBase   — a fresh value proxy per lookup (lowest memory),
//   kCached — value proxies cached on demand,
//   kEager  — the cache is populated during resurrection.
//
// A persistent set is a persistent map that binds each key to itself — use
// Add/Contains (the stored value reference is null).
#ifndef JNVM_SRC_PDT_PMAP_H_
#define JNVM_SRC_PDT_PMAP_H_

#include <functional>
#include <list>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>

#include "src/core/ref_array.h"
#include "src/core/runtime.h"
#include "src/pdt/ppair.h"
#include "src/pdt/pstring.h"
#include "src/pdt/skiplist.h"

namespace jnvm::pdt {

enum class ProxyCaching { kBase, kCached, kEager };

// ---- Key policies ------------------------------------------------------------

struct StringKeyPolicy {
  using VKey = std::string;
  using PairT = PRefPair;

  static PairT MakePair(core::JnvmRuntime& rt, const VKey& key,
                        core::PObject* value) {
    PString k(rt, key);
    k.Validate();  // no fence; the map's publish fence covers it
    return PairT(rt, &k, value);
  }
  static VKey LoadKey(PairT& pair) {
    const auto k = std::static_pointer_cast<PString>(pair.Key());
    return k->Str();
  }
  static void FreeKey(core::JnvmRuntime& rt, PairT& pair) {
    const nvm::Offset kref = pair.KeyRaw();
    if (kref != 0) {
      rt.FreeRef(kref);
    }
  }
};

struct LongKeyPolicy {
  using VKey = int64_t;
  using PairT = PIntPair;

  static PairT MakePair(core::JnvmRuntime& rt, const VKey& key,
                        core::PObject* value) {
    return PairT(rt, key, value);
  }
  static VKey LoadKey(PairT& pair) { return pair.Key(); }
  static void FreeKey(core::JnvmRuntime&, PairT&) {}  // inline key
};

// ---- Mirror access shims (std-style maps vs SkipListMap) ----------------------

template <typename M, typename K>
bool MirrorFind(const M& m, const K& k, uint64_t* slot) {
  auto it = m.find(k);
  if (it == m.end()) {
    return false;
  }
  *slot = it->second;
  return true;
}

template <typename K, typename L>
bool MirrorFind(const SkipListMap<K, uint64_t, L>& m, const K& k, uint64_t* slot) {
  auto it = m.find(k);
  if (it == m.end()) {
    return false;
  }
  *slot = it.value();
  return true;
}

template <typename M, typename K>
void MirrorForEach(const M& m, const std::function<void(const K&, uint64_t)>& fn) {
  for (const auto& [k, slot] : m) {
    fn(k, slot);
  }
}

template <typename K, typename L>
void MirrorForEach(const SkipListMap<K, uint64_t, L>& m,
                   const std::function<void(const K&, uint64_t)>& fn) {
  for (auto it = m.begin(); it != m.end(); ++it) {
    fn(it.key(), it.value());
  }
}

// Ordered-mirror range walk over [from, to); returns entries visited.
// Callable only for mirrors with lower_bound (tree / skip-list maps) — the
// instantiation fails for hash mirrors, which have no order.
template <typename K, typename V, typename Cmp, typename Alloc, typename Fn>
size_t MirrorForRange(const std::map<K, V, Cmp, Alloc>& m, const K& from,
                      const K& to, Fn&& fn) {
  size_t n = 0;
  for (auto it = m.lower_bound(from); it != m.end() && it->first < to; ++it) {
    fn(it->first, it->second);
    ++n;
  }
  return n;
}

template <typename K, typename L, typename Fn>
size_t MirrorForRange(const SkipListMap<K, uint64_t, L>& m, const K& from,
                      const K& to, Fn&& fn) {
  size_t n = 0;
  for (auto it = m.lower_bound(from); it != m.end() && it.key() < to; ++it) {
    fn(it.key(), it.value());
    ++n;
  }
  return n;
}

// ---- The map template ----------------------------------------------------------

template <typename Traits>
class PMap final : public core::PObject {
 public:
  using KeyPolicy = typename Traits::KeyPolicy;
  using VKey = typename KeyPolicy::VKey;
  using PairT = typename KeyPolicy::PairT;
  using Mirror = typename Traits::Mirror;

  static const core::ClassInfo* Class() {
    static const core::ClassInfo* info = RegisterClass(
        core::MakeClassInfo<PMap>(Traits::kClassName, &PMap::TraceFn));
    return info;
  }

  explicit PMap(core::Resurrect) {}

  explicit PMap(core::JnvmRuntime& rt, uint64_t initial_capacity = 16,
                ProxyCaching caching = ProxyCaching::kBase)
      : caching_(caching) {
    AllocatePersistent(rt, Class(), 8);
    auto arr = std::make_shared<core::PRefArray>(rt, initial_capacity);
    arr->Validate();
    WritePObject(kArrOff, arr.get());
    PwbField(kArrOff, 8);
    arr_ = std::move(arr);
    for (uint64_t i = initial_capacity; i > 0; --i) {
      free_slots_.push_back(i - 1);
    }
  }

  // Resurrection (§4.3.2): inspect each cell; non-null references feed the
  // mirror, empty ones feed the volatile free queue.
  void Resurrect_() override {
    std::lock_guard<std::mutex> lk(mu_);
    arr_ = ReadPObjectAs<core::PRefArray>(kArrOff);
    mirror_.clear();
    free_slots_.clear();
    cache_.clear();
    cache_lru_.clear();
    lru_pos_.clear();
    const uint64_t cap = arr_->capacity();
    for (uint64_t i = 0; i < cap; ++i) {
      const nvm::Offset ref = arr_->GetRaw(i);
      if (ref == 0) {
        free_slots_.push_back(i);
        continue;
      }
      auto pair = PairAt(i);
      mirror_[KeyPolicy::LoadKey(*pair)] = i;
    }
    if (caching_ == ProxyCaching::kEager) {
      PopulateCacheLocked();
    }
  }

  // Selects the proxy-caching variant. kEager populates immediately.
  // `max_entries` bounds the cached variant to the hottest proxies (§4.3.2:
  // "it would be possible to extend this code to include only the hottest
  // proxies"); 0 means unbounded. Ignored for kBase/kEager.
  void SetCaching(ProxyCaching caching, uint64_t max_entries = 0) {
    std::lock_guard<std::mutex> lk(mu_);
    caching_ = caching;
    cache_capacity_ = caching == ProxyCaching::kCached ? max_entries : 0;
    if (caching_ == ProxyCaching::kBase) {
      cache_.clear();
      cache_lru_.clear();
    } else if (caching_ == ProxyCaching::kEager) {
      PopulateCacheLocked();
    }
  }
  ProxyCaching caching() const { return caching_; }
  size_t CachedProxies() {
    std::lock_guard<std::mutex> lk(mu_);
    return cache_.size();
  }

  bool Contains(const VKey& key) {
    std::lock_guard<std::mutex> lk(mu_);
    uint64_t slot;
    return MirrorFind(mirror_, key, &slot);
  }

  core::Handle<core::PObject> Get(const VKey& key) {
    std::lock_guard<std::mutex> lk(mu_);
    uint64_t slot;
    if (!MirrorFind(mirror_, key, &slot)) {
      return nullptr;
    }
    if (caching_ != ProxyCaching::kBase) {
      auto it = cache_.find(slot);
      if (it != cache_.end()) {
        TouchLruLocked(slot);
        return it->second;
      }
    }
    auto value = PairAt(slot)->Value();
    if (caching_ != ProxyCaching::kBase && value != nullptr) {
      InsertCacheLocked(slot, value);
    }
    return value;
  }

  template <typename T>
  core::Handle<T> GetAs(const VKey& key) {
    return std::static_pointer_cast<T>(Get(key));
  }

  // Insert-or-replace; true when the key was newly inserted (false =
  // replaced an existing mapping). With free_old_value, a replaced value's
  // persistent structure is freed (the Infinispan backend's behaviour,
  // §4.1.6).
  bool Put(const VKey& key, core::PObject* value, bool free_old_value = true) {
    core::JnvmRuntime& rt = runtime();
    std::lock_guard<std::mutex> lk(mu_);
    uint64_t slot;
    if (MirrorFind(mirror_, key, &slot)) {
      auto pair = PairAt(slot);
      if (free_old_value) {
        pair->SetValueAndFreeOld(value);  // fences internally (§4.1.6)
      } else {
        pair->SetValue(value);
        DurabilityFence();  // durable on return (write-through semantics)
      }
      EraseCacheLocked(slot);
      return false;
    }
    slot = TakeSlotLocked();
    PairT pair = KeyPolicy::MakePair(rt, key, value);
    pair.Validate();
    if (value != nullptr && !value->IsValidObject()) {
      value->Pwb();
      value->Validate();
    }
    Pfence();                         // everything durable …
    arr_->SetRaw(slot, pair.addr());  // … before the single publishing write
    DurabilityFence();                // … and the publication durable on return
    mirror_[key] = slot;
    return true;
  }

  // Set-style insert (a set maps each key to itself, §4.3.2).
  void Add(const VKey& key) { Put(key, nullptr, false); }

  bool Remove(const VKey& key, bool free_value = true) {
    core::JnvmRuntime& rt = runtime();
    std::lock_guard<std::mutex> lk(mu_);
    uint64_t slot;
    if (!MirrorFind(mirror_, key, &slot)) {
      return false;
    }
    auto pair = PairAt(slot);
    arr_->SetRaw(slot, 0);
    // Unlink durable before any of the memory can be recycled. Under group
    // commit the frees below are deferred past the batch's Psync, so this
    // reduces to a durability fence and is elided.
    DurabilityFence();
    KeyPolicy::FreeKey(rt, *pair);
    const nvm::Offset vref = pair->ValueRaw();
    if (free_value && vref != 0) {
      rt.FreeRef(vref);
    }
    rt.Free(*pair);
    mirror_.erase(key);
    free_slots_.push_back(slot);
    EraseCacheLocked(slot);
    return true;
  }

  size_t Size() {
    std::lock_guard<std::mutex> lk(mu_);
    return mirror_.size();
  }

  // Iterates keys in mirror order (sorted for tree/skip-list mirrors).
  void ForEach(const std::function<void(const VKey&, core::Handle<core::PObject>)>& fn) {
    std::lock_guard<std::mutex> lk(mu_);
    MirrorForEach<typename Traits::Mirror, VKey>(
        mirror_, [&](const VKey& k, uint64_t slot) { fn(k, PairAt(slot)->Value()); });
  }

  // Range scan over [from, to) for ordered structures (tree / skip-list
  // maps). YCSB's scan operation; hash maps have no order and cannot
  // instantiate this (the paper's Infinispan exposes scans only through an
  // indexed interface for the same reason, §5.2).
  size_t ForEachRange(const VKey& from, const VKey& to,
                      const std::function<void(const VKey&, core::Handle<core::PObject>)>& fn) {
    std::lock_guard<std::mutex> lk(mu_);
    return MirrorForRange(mirror_, from, to, [&](const VKey& k, uint64_t slot) {
      fn(k, PairAt(slot)->Value());
    });
  }

  uint64_t CapacitySlots() {
    std::lock_guard<std::mutex> lk(mu_);
    return arr_->capacity();
  }

  // Oracle adapter (src/crashcheck): walks the *persistent* array directly,
  // bypassing the volatile mirror, so the crash-consistency checker can
  // cross-validate the mirror (what the application sees) against the
  // durable cells (what actually survived the crash). Returns the number of
  // occupied cells visited.
  size_t ForEachPersisted(
      const std::function<void(const VKey&, core::Handle<core::PObject>)>& fn) {
    std::lock_guard<std::mutex> lk(mu_);
    const uint64_t cap = arr_->capacity();
    size_t occupied = 0;
    for (uint64_t i = 0; i < cap; ++i) {
      if (arr_->GetRaw(i) == 0) {
        continue;
      }
      ++occupied;
      auto pair = PairAt(i);
      fn(KeyPolicy::LoadKey(*pair), pair->Value());
    }
    return occupied;
  }

 private:
  static constexpr size_t kArrOff = 0;

  static void TraceFn(core::ObjectView& view, core::RefVisitor& v) {
    v.VisitRef(view, kArrOff);
  }

  core::Handle<PairT> PairAt(uint64_t slot) const {
    return runtime().template ResurrectRefAs<PairT>(arr_->GetRaw(slot));
  }

  uint64_t TakeSlotLocked() {
    if (!free_slots_.empty()) {
      const uint64_t slot = free_slots_.back();
      free_slots_.pop_back();
      return slot;
    }
    core::JnvmRuntime& rt = runtime();
    const uint64_t old_cap = arr_->capacity();
    auto bigger = std::make_shared<core::PRefArray>(rt, old_cap * 2);
    for (uint64_t i = 0; i < old_cap; ++i) {
      bigger->SetRaw(i, arr_->GetRaw(i));
    }
    UpdateRefAndFreeOld(kArrOff, bigger.get());  // §4.1.6 atomic extension
    arr_ = std::move(bigger);
    for (uint64_t i = old_cap * 2; i > old_cap; --i) {
      free_slots_.push_back(i - 1);
    }
    const uint64_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }

  void PopulateCacheLocked() {
    MirrorForEach<typename Traits::Mirror, VKey>(
        mirror_, [&](const VKey&, uint64_t slot) {
          if (cache_.find(slot) == cache_.end()) {
            auto v = PairAt(slot)->Value();
            if (v != nullptr) {
              cache_[slot] = std::move(v);
            }
          }
        });
  }

  void EraseCacheLocked(uint64_t slot) {
    cache_.erase(slot);
    auto it = lru_pos_.find(slot);
    if (it != lru_pos_.end()) {
      cache_lru_.erase(it->second);
      lru_pos_.erase(it);
    }
  }

  // LRU bookkeeping only runs for bounded caches (cache_capacity_ != 0).
  void TouchLruLocked(uint64_t slot) {
    if (cache_capacity_ == 0) {
      return;
    }
    auto it = lru_pos_.find(slot);
    if (it != lru_pos_.end()) {
      cache_lru_.splice(cache_lru_.begin(), cache_lru_, it->second);
    }
  }

  void InsertCacheLocked(uint64_t slot, core::Handle<core::PObject> value) {
    if (cache_capacity_ != 0) {
      while (cache_.size() >= cache_capacity_ && !cache_lru_.empty()) {
        const uint64_t victim = cache_lru_.back();
        cache_lru_.pop_back();
        lru_pos_.erase(victim);
        cache_.erase(victim);  // only the hottest proxies stay
      }
      cache_lru_.push_front(slot);
      lru_pos_[slot] = cache_lru_.begin();
    }
    cache_[slot] = std::move(value);
  }

  std::mutex mu_;
  core::Handle<core::PRefArray> arr_;  // transient
  Mirror mirror_;                      // transient: the structure's logic
  std::vector<uint64_t> free_slots_;   // transient free queue
  std::unordered_map<uint64_t, core::Handle<core::PObject>> cache_;  // cached/eager
  std::list<uint64_t> cache_lru_;  // bounded-cache eviction order
  std::unordered_map<uint64_t, std::list<uint64_t>::iterator> lru_pos_;
  uint64_t cache_capacity_ = 0;  // 0 = unbounded
  ProxyCaching caching_ = ProxyCaching::kBase;
};

// ---- Concrete instantiations ---------------------------------------------------

struct StringHashTraits {
  static constexpr const char* kClassName = "jnvm.PHashMap";
  using KeyPolicy = StringKeyPolicy;
  using Mirror = std::unordered_map<std::string, uint64_t>;
};
struct StringTreeTraits {
  static constexpr const char* kClassName = "jnvm.PTreeMap";
  using KeyPolicy = StringKeyPolicy;
  using Mirror = std::map<std::string, uint64_t>;
};
struct StringSkipTraits {
  static constexpr const char* kClassName = "jnvm.PSkipListMap";
  using KeyPolicy = StringKeyPolicy;
  using Mirror = SkipListMap<std::string, uint64_t>;
};
struct LongHashTraits {
  static constexpr const char* kClassName = "jnvm.PLongHashMap";
  using KeyPolicy = LongKeyPolicy;
  using Mirror = std::unordered_map<int64_t, uint64_t>;
};
struct LongTreeTraits {
  static constexpr const char* kClassName = "jnvm.PLongTreeMap";
  using KeyPolicy = LongKeyPolicy;
  using Mirror = std::map<int64_t, uint64_t>;
};

using PStringHashMap = PMap<StringHashTraits>;
using PStringTreeMap = PMap<StringTreeTraits>;
using PStringSkipListMap = PMap<StringSkipTraits>;
using PLongHashMap = PMap<LongHashTraits>;
using PLongTreeMap = PMap<LongTreeTraits>;

// ---- Sets -----------------------------------------------------------------------
//
// "We first implement a persistent set as a persistent map that associates
// each key with itself" (§4.3.2). PSet is the thin volatile adapter over
// the corresponding map class (no value objects are stored).

template <typename MapT>
class PSet {
 public:
  using VKey = typename MapT::VKey;

  // Adopts an existing (possibly resurrected) map as the set's storage.
  explicit PSet(core::Handle<MapT> storage) : map_(std::move(storage)) {}
  PSet(core::JnvmRuntime& rt, uint64_t initial_capacity = 16)
      : map_(std::make_shared<MapT>(rt, initial_capacity)) {}

  MapT& map() { return *map_; }
  core::Handle<MapT> storage() const { return map_; }

  void Add(const VKey& key) { map_->Add(key); }
  bool Contains(const VKey& key) { return map_->Contains(key); }
  bool Remove(const VKey& key) { return map_->Remove(key, false); }
  size_t Size() { return map_->Size(); }
  void ForEach(const std::function<void(const VKey&)>& fn) {
    map_->ForEach([&](const VKey& k, core::Handle<core::PObject>) { fn(k); });
  }

 private:
  core::Handle<MapT> map_;
};

using PStringHashSet = PSet<PStringHashMap>;
using PStringTreeSet = PSet<PStringTreeMap>;
using PLongHashSet = PSet<PLongHashMap>;

}  // namespace jnvm::pdt

#endif  // JNVM_SRC_PDT_PMAP_H_
