// Persistence backend interface for the key-value store (§5.1).
//
// One implementation per backend the paper evaluates: J-PDT, J-PFA, FS
// (ext4-DAX on NVMM), PCJ (PMDK over a simulated JNI), plus the dummy
// baselines TmpFS, NullFS and Volatile.
//
// All persistent backends are write-through: an operation is durable when it
// returns (Infinispan "uses a write-through policy for durability" —
// Figure 9a discussion). Under a heap group-commit batch (src/server fence
// batching) the durability point moves to the batch's Psync instead.
//
// The public entry points are non-virtual and count every operation into
// OpStats (puts/gets/updates/deletes and payload bytes) before delegating to
// the Do* virtuals — the counters feed the server's STATS command, the
// loadgen report and the Figure 7 harness.
#ifndef JNVM_SRC_STORE_BACKEND_H_
#define JNVM_SRC_STORE_BACKEND_H_

#include <atomic>
#include <functional>
#include <string>

#include "src/store/record.h"

namespace jnvm::store {

// Per-backend operation counters. Snapshot type returned by stats().
struct OpStats {
  uint64_t puts = 0;
  uint64_t gets = 0;        // Get + Touch calls
  uint64_t get_misses = 0;  // absent-key Gets/Touches
  uint64_t updates = 0;     // field-granular updates
  uint64_t deletes = 0;     // only those that removed a key
  uint64_t bytes_written = 0;  // record/field payload bytes through Put/Update
  uint64_t bytes_read = 0;     // record payload bytes returned by Get

  uint64_t ops() const { return puts + gets + updates + deletes; }
};

class Backend {
 public:
  virtual ~Backend() = default;

  virtual std::string name() const = 0;
  virtual size_t Size() = 0;

  // Insert-or-replace; true when the key was newly inserted (false =
  // replaced). The signal feeds the server's per-slot key accounting
  // (DESIGN.md §10) — a slot migration needs to know how many keys a slot
  // holds without scanning the whole store.
  bool Put(const std::string& key, const Record& r) {
    puts_.fetch_add(1, std::memory_order_relaxed);
    bytes_written_.fetch_add(r.TotalBytes(), std::memory_order_relaxed);
    return DoPut(key, r);
  }

  // Returns false when absent.
  bool Get(const std::string& key, Record* out) {
    gets_.fetch_add(1, std::memory_order_relaxed);
    if (!DoGet(key, out)) {
      get_misses_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    bytes_read_.fetch_add(out->TotalBytes(), std::memory_order_relaxed);
    return true;
  }

  // Field-granular update (YCSB updates touch a single field). Returns
  // false when the key is absent. Backends without sub-record granularity
  // (file systems, PCJ) pay their natural read-modify-write cost here.
  bool UpdateField(const std::string& key, size_t field, const std::string& value) {
    updates_.fetch_add(1, std::memory_order_relaxed);
    if (!DoUpdateField(key, field, value)) {
      return false;
    }
    bytes_written_.fetch_add(value.size(), std::memory_order_relaxed);
    return true;
  }

  bool Delete(const std::string& key) {
    if (!DoDelete(key)) {
      return false;
    }
    deletes_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  // YCSB read against a "persistent values" client (§5.2: the modified
  // Infinispan client hands the application persistent keys and values):
  // J-NVM backends return a proxy and touch one field — no conversion of
  // the whole record. Marshalling backends have no such shortcut and
  // materialize the record (the DoTouch default).
  bool Touch(const std::string& key) {
    gets_.fetch_add(1, std::memory_order_relaxed);
    if (!DoTouch(key)) {
      get_misses_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    return true;
  }

  // Replication bootstrap (REPLSNAP): materializes every record through
  // `fn`. Returns false for backends without full-iteration support. Not
  // counted in OpStats — snapshot transfer is not client traffic.
  virtual bool SnapshotRecords(
      const std::function<void(const std::string&, const Record&)>& fn) {
    (void)fn;
    return false;
  }

  OpStats stats() const {
    OpStats s;
    s.puts = puts_.load(std::memory_order_relaxed);
    s.gets = gets_.load(std::memory_order_relaxed);
    s.get_misses = get_misses_.load(std::memory_order_relaxed);
    s.updates = updates_.load(std::memory_order_relaxed);
    s.deletes = deletes_.load(std::memory_order_relaxed);
    s.bytes_written = bytes_written_.load(std::memory_order_relaxed);
    s.bytes_read = bytes_read_.load(std::memory_order_relaxed);
    return s;
  }

  void ResetStats() {
    puts_ = gets_ = get_misses_ = updates_ = deletes_ = 0;
    bytes_written_ = bytes_read_ = 0;
  }

 protected:
  // Returns true when the key was newly inserted.
  virtual bool DoPut(const std::string& key, const Record& r) = 0;
  virtual bool DoGet(const std::string& key, Record* out) = 0;
  virtual bool DoUpdateField(const std::string& key, size_t field,
                             const std::string& value) = 0;
  virtual bool DoDelete(const std::string& key) = 0;
  virtual bool DoTouch(const std::string& key) {
    Record tmp;
    return DoGet(key, &tmp);
  }

 private:
  std::atomic<uint64_t> puts_{0}, gets_{0}, get_misses_{0};
  std::atomic<uint64_t> updates_{0}, deletes_{0};
  std::atomic<uint64_t> bytes_written_{0}, bytes_read_{0};
};

}  // namespace jnvm::store

#endif  // JNVM_SRC_STORE_BACKEND_H_
