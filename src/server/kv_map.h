// KvMap — the shard's key/value store: one persistent object per key
// (DESIGN.md §7).
//
// A KvMap is a J-PDT map (§4.3.2) specialised for the server. Its
// persistent part is one reference to a PRefArray of slots; each occupied
// slot references a KvEntry, a leaf object whose block chain holds the key
// bytes and the record's fields inline — the way PIntPair inlines integer
// keys, and the way Redis-NVM's nvm_copy_sds keeps header and bytes in one
// allocation. A key therefore costs one object, not the three of a
// PRefPair + PString + PRecord mapping.
//
// The volatile part is the map's usual proxy state: a key → slot mirror and
// a free-slot queue, nothing per key beyond the mirror. Mutations keep the
// J-PDT protocols:
//   * insert/replace — allocate and fill a fresh entry, validate it, one
//     ordering Pfence, then the single publishing slot write (§4.3.2); a
//     replaced entry is freed only once the slot write is durable (under
//     group commit: by JnvmRuntime::DrainGroupFrees after the batch Psync);
//   * remove — clear the slot, make the unlink durable, free the entry;
//   * growth — a doubled array swapped in by UpdateRefAndFreeOld (§4.1.6).
// Every write goes through the PObject / JnvmRuntime paths, so a caller
// inside a failure-atomic block (txn::ApplyStagedWrites) gets J-PFA's
// redirection for free.
//
// Reads: GET (AppendBulkValue) reads the slot cell and then each block of
// the entry exactly once — header and payload in one device read — and
// encodes the RESP bulk reply straight from those bytes. TOUCH (Touch) and
// presence checks (Contains) answer from the mirror and read no NVMM. There
// is no proxy cache: it exists in J-PDT to avoid re-walking block chains
// (§4.3.2), and the raw read walks each chain once anyway.
//
// Threading: one writer — the shard worker (or a caller that owns the
// shard while its worker idles). Size() and stats() are safe from any
// thread.
#ifndef JNVM_SRC_SERVER_KV_MAP_H_
#define JNVM_SRC_SERVER_KV_MAP_H_

#include <atomic>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/core/ref_array.h"
#include "src/core/runtime.h"
#include "src/store/record.h"

namespace jnvm::server {

// Operation counters (STATS `shardN:` line). gets counts GET and TOUCH.
struct KvOpStats {
  uint64_t puts = 0;
  uint64_t gets = 0;
  uint64_t get_misses = 0;
  uint64_t updates = 0;
  uint64_t deletes = 0;        // only those that removed a key
  uint64_t bytes_written = 0;  // record/field payload bytes through Put/Update
  uint64_t bytes_read = 0;     // value bytes returned by GET and Read
};

// One key and its record. Payload layout:
//   u32 key_len | u32 nfields | u32 field_capacity | key bytes |
//   nfields × { u32 len | bytes[field_capacity] }
// Fields are fixed-capacity cells so an update that fits rewrites its cell.
class KvEntry final : public core::PObject {
 public:
  static const core::ClassInfo* Class();

  explicit KvEntry(core::Resurrect) {}
  // Allocates an invalid entry holding `image` (an EncodeImage result) and
  // queues its lines for write-back. No fence: publication is the map's.
  KvEntry(core::JnvmRuntime& rt, std::string_view image);

  // Builds an entry's payload image. Every field must fit field_capacity.
  static void EncodeImage(std::string_view key, const store::Record& r,
                          uint32_t field_capacity, std::string* out);

  // A parsed payload image (views into the caller's bytes).
  struct Image {
    std::string_view key;
    uint32_t nfields = 0;
    uint32_t field_capacity = 0;
    std::string_view cells;  // nfields × (4 + field_capacity) bytes

    std::string_view Field(size_t i) const;
  };
  // False when `payload` is too short for the sizes its header declares.
  static bool ParseImage(std::string_view payload, Image* out);

  uint32_t NumFields() const { return ReadField<uint32_t>(kNumFieldsOff); }
  uint32_t FieldCapacity() const { return ReadField<uint32_t>(kFieldCapOff); }
  std::string Key() const;
  store::Record ToRecord() const;
  // Payload offset of field i's cell.
  size_t FieldOff(size_t i) const {
    return kKeyOff + ReadField<uint32_t>(kKeyLenOff) + i * (4ull + FieldCapacity());
  }
  // Rewrites field i's cell and queues its lines; no fence. Requires
  // value.size() <= FieldCapacity().
  void SetField(size_t i, std::string_view value);

  static constexpr size_t kKeyLenOff = 0;
  static constexpr size_t kNumFieldsOff = 4;
  static constexpr size_t kFieldCapOff = 8;
  static constexpr size_t kKeyOff = 12;

 private:
  // Payload bytes the header declares (key and every cell included).
  size_t ImageBytes() const;
};

class KvMap final : public core::PObject {
 public:
  static const core::ClassInfo* Class();

  explicit KvMap(core::Resurrect) {}
  KvMap(core::JnvmRuntime& rt, uint64_t initial_capacity);

  // Binds the map registered under `root_name` in the root map (recovery
  // rebuilds its mirror), or creates and registers an empty one. Aborts
  // when the binding holds an object of another class.
  static core::Handle<KvMap> OpenOrCreate(core::JnvmRuntime& rt,
                                          const std::string& root_name,
                                          uint64_t initial_capacity);

  // Recovery: rebuilds the mirror and the free-slot queue from the slot
  // array, reading each live entry's first block for its key.
  void Resurrect_() override;

  size_t Size() const { return size_.load(std::memory_order_relaxed); }
  uint64_t CapacitySlots() const { return arr_->capacity(); }

  // Mirror lookup only; no NVMM read and no counter.
  bool Contains(const std::string& key) const {
    return mirror_.find(key) != mirror_.end();
  }
  // TOUCH: Contains, counted as a get.
  bool Touch(const std::string& key);

  // Insert-or-replace; true when the key was newly inserted. Insert is the
  // same operation under the name the embedded store uses.
  bool Put(const std::string& key, const store::Record& r);
  bool Insert(const std::string& key, const store::Record& r) { return Put(key, r); }

  // GET: appends the record as one RESP bulk string (fields joined) to
  // *reply. Reads the slot cell and each block of the entry once, raw — the
  // caller must not be inside a failure-atomic block. False (nothing
  // appended) when the key is absent.
  bool AppendBulkValue(const std::string& key, std::string* reply);

  // Materialises the record through the entry's proxy (FA-aware).
  bool Read(const std::string& key, store::Record* out);

  // HSET: false when the key is absent or has no field `field`. A value
  // that fits the field's capacity is written in place inside a
  // failure-atomic block (old or new after a crash, never torn); a larger
  // one — or a cell spanning more than kInPlaceMaxBlocks blocks, which
  // would outgrow the block's redo-log budget — replaces the entry.
  bool UpdateField(const std::string& key, size_t field, std::string_view value);

  // True when the key was present and is now unlinked.
  bool Remove(const std::string& key);

  // Mirror walks. ForEachKey reads no NVMM; ForEachRecordIf reads only the
  // entries `want` accepts (every entry when `want` is empty).
  void ForEachKey(const std::function<void(const std::string&)>& fn) const;
  void ForEachRecordIf(
      const std::function<bool(const std::string&)>& want,
      const std::function<void(const std::string&, const store::Record&)>& fn);

  // Oracle adapter (src/crashcheck): walks the durable slot cells, not the
  // mirror, reading key and record from each entry. Returns the number of
  // occupied cells.
  size_t ForEachPersisted(
      const std::function<void(const std::string&, const store::Record&)>& fn);

  KvOpStats stats() const;

  static constexpr size_t kInPlaceMaxBlocks = 8;

 private:
  static constexpr size_t kArrOff = 0;

  static void TraceFn(core::ObjectView& view, core::RefVisitor& v);

  uint64_t TakeSlot();
  // Allocates an entry for (key, r), publishes it in `slot` and frees `old`
  // (0 = none) once the publication is durable.
  void Publish(uint64_t slot, const std::string& key, const store::Record& r,
               nvm::Offset old);
  // Reads the entry at `master` into *payload, one device read per block
  // (header and payload together). key_only stops after the key's bytes.
  void ReadChainRaw(nvm::Offset master, bool key_only, std::string* payload);

  core::Handle<core::PRefArray> arr_;                 // transient
  std::unordered_map<std::string, uint64_t> mirror_;  // key → slot
  std::vector<uint64_t> free_slots_;
  std::atomic<uint64_t> size_{0};
  std::string image_;     // scratch: entry image being built
  std::string payload_;   // scratch: raw chain read
  std::vector<char> block_;  // scratch: one raw block

  std::atomic<uint64_t> puts_{0}, gets_{0}, get_misses_{0}, updates_{0},
      deletes_{0}, bytes_written_{0}, bytes_read_{0};
};

}  // namespace jnvm::server

#endif  // JNVM_SRC_SERVER_KV_MAP_H_
