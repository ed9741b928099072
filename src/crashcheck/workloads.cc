#include "src/crashcheck/workloads.h"

#include <algorithm>
#include <map>
#include <set>

#include "src/cluster/meta.h"
#include "src/cluster/slot_map.h"
#include "src/common/rand.h"
#include "src/pdt/pext_array.h"
#include "src/pdt/pmap.h"
#include "src/pdt/pstring.h"
#include "src/repl/frame.h"
#include "src/repl/repl_log.h"
#include "src/server/kv_map.h"
#include "src/server/protocol.h"
#include "src/server/shard.h"
#include "src/txn/txn.h"

namespace jnvm::crashcheck {
namespace {

using core::Handle;
using core::JnvmRuntime;
using core::PObject;

// ---- Script helpers ---------------------------------------------------------

template <typename K>
struct KeyMaker;

template <>
struct KeyMaker<std::string> {
  static std::string Make(int i) { return "k" + std::to_string(i); }
  static std::string Print(const std::string& k) { return k; }
};

template <>
struct KeyMaker<int64_t> {
  static int64_t Make(int i) { return 1000 + i; }
  static std::string Print(int64_t k) { return std::to_string(k); }
};

// Unique per-op values so a lost or stale update is always distinguishable.
// Padded values exceed the pool slot limit and take the chained-block
// representation, so both PString layouts are swept.
std::string ValueFor(size_t i, bool padded) {
  std::string v = "v" + std::to_string(i);
  if (padded) {
    v += std::string(220, 'x');
  }
  return v;
}

std::string PrintString(const Handle<PObject>& v) {
  auto s = std::static_pointer_cast<pdt::PString>(v);
  return s == nullptr ? std::string("<null>") : s->Str();
}

// The shard store exactly as Shard::Open binds it; the tiny initial
// capacity makes scripts sweep slot-array growth as well.
Handle<server::KvMap> OpenStore(JnvmRuntime& rt, const std::string& root) {
  return server::KvMap::OpenOrCreate(rt, root, /*initial_capacity=*/4);
}

std::string FirstField(const store::Record& r) {
  return r.fields.empty() ? std::string("<empty>") : r.fields[0];
}

// Key → first field of every record, read through the store's mirror (what
// a recovered shard serves). The mirror must equal the durable slot cells
// (what survived the crash); any difference is reported.
std::map<std::string, std::string> StoreValues(server::KvMap& store,
                                               std::vector<std::string>* out) {
  std::map<std::string, std::string> mirror;
  store.ForEachRecordIf({}, [&](const std::string& k, const store::Record& r) {
    mirror[k] = FirstField(r);
  });
  std::map<std::string, std::string> cells;
  store.ForEachPersisted([&](const std::string& k, const store::Record& r) {
    if (!cells.emplace(k, FirstField(r)).second) {
      out->push_back("key " + k + " published in two slot cells");
    }
  });
  if (mirror != cells) {
    out->push_back("store mirror (" + std::to_string(mirror.size()) +
                   " keys) disagrees with the durable slot cells (" +
                   std::to_string(cells.size()) + " keys)");
  }
  return mirror;
}

// ---- Map workload (hash / tree / skip-list / long-key adapters) -------------

template <typename MapT>
class MapWorkload final : public Workload {
 public:
  using VKey = typename MapT::VKey;
  struct Op {
    bool remove = false;
    VKey key;
    std::string value;
  };

  MapWorkload(std::string name, uint64_t seed, size_t n) : name_(std::move(name)) {
    Xorshift rng(seed);
    std::set<VKey> live;
    script_.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      const VKey key = KeyMaker<VKey>::Make(static_cast<int>(rng.NextBelow(12)));
      if (live.count(key) != 0 && rng.NextBelow(4) == 0) {
        script_.push_back(Op{true, key, {}});
        live.erase(key);
      } else {
        script_.push_back(Op{false, key, ValueFor(i, rng.NextBelow(6) == 0)});
        live.insert(key);
      }
    }
  }

  const std::string& name() const override { return name_; }
  size_t op_count() const override { return script_.size(); }

  void Setup(JnvmRuntime& rt) override {
    map_.reset();
    map_ = std::make_shared<MapT>(rt, 4);  // small: the growth path is swept
    map_->Pwb();
    map_->Validate();
    rt.root().Put("m", map_.get());
    rt.Psync();
  }

  void RunOp(JnvmRuntime& rt, size_t i) override {
    const Op& op = script_[i];
    if (op.remove) {
      map_->Remove(op.key);
    } else {
      pdt::PString v(rt, op.value);
      map_->Put(op.key, &v);
    }
  }

  void Check(JnvmRuntime& rt, const CrashCut& cut,
             std::vector<std::string>* out) override {
    auto m = rt.root().GetAs<MapT>("m");
    if (m == nullptr) {
      out->push_back("map root binding lost");
      return;
    }
    // Oracle state: the committed prefix, replayed in DRAM.
    std::map<VKey, std::string> expected;
    for (size_t i = 0; i < cut.committed; ++i) {
      const Op& op = script_[i];
      if (op.remove) {
        expected.erase(op.key);
      } else {
        expected[op.key] = op.value;
      }
    }
    // The application view (mirror) ...
    std::map<VKey, std::string> got;
    m->ForEach([&](const VKey& k, Handle<PObject> v) { got[k] = PrintString(v); });
    // ... must agree with the durable cells.
    std::map<VKey, std::string> durable;
    m->ForEachPersisted(
        [&](const VKey& k, Handle<PObject> v) { durable[k] = PrintString(v); });
    if (durable != got) {
      out->push_back("mirror diverges from the persistent cells");
    }
    if (m->Size() != got.size()) {
      out->push_back("map Size() != number of mirrored entries");
    }

    const Op* inflight = cut.in_flight.has_value() && *cut.in_flight < script_.size()
                             ? &script_[*cut.in_flight]
                             : nullptr;
    for (const auto& [k, v] : expected) {
      if (inflight != nullptr && k == inflight->key) {
        continue;  // judged below
      }
      auto it = got.find(k);
      if (it == got.end()) {
        out->push_back("committed key " + KeyMaker<VKey>::Print(k) + " lost");
      } else if (it->second != v) {
        out->push_back("committed key " + KeyMaker<VKey>::Print(k) +
                       " has value '" + it->second + "', want '" + v + "'");
      }
    }
    for (const auto& [k, v] : got) {
      if (expected.count(k) == 0 && (inflight == nullptr || k != inflight->key)) {
        out->push_back("phantom key " + KeyMaker<VKey>::Print(k));
      }
    }
    if (inflight != nullptr) {
      // The interrupted op must be all-or-nothing.
      const auto it = got.find(inflight->key);
      const auto old_it = expected.find(inflight->key);
      if (it == got.end()) {
        if (!inflight->remove && old_it != expected.end()) {
          out->push_back("in-flight put erased pre-existing key " +
                         KeyMaker<VKey>::Print(inflight->key));
        }
      } else {
        const bool is_old = old_it != expected.end() && it->second == old_it->second;
        const bool is_new = !inflight->remove && it->second == inflight->value;
        if (!is_old && !is_new) {
          out->push_back("in-flight op left torn value '" + it->second +
                         "' for key " + KeyMaker<VKey>::Print(inflight->key));
        }
      }
    }
  }

 private:
  std::string name_;
  std::vector<Op> script_;
  Handle<MapT> map_;
};

// ---- Shard-store workload (server::KvMap, DESIGN.md §7) ----------------------
//
// The map the server's shards run: one KvEntry per key, key and fields in
// one block chain. The script mixes inserts, replaces with one- and
// multi-block values and one- and two-field records, removes, and HSETs
// that fit their cell (in place, inside a failure-atomic block) or overflow
// it (the entry is replaced); twelve keys over an initial capacity of 4
// force two slot-array swaps. Even ops run per-op durable (every command
// fences on its own, frees are immediate); odd ops are 2–3 commands under
// group commit (elided durability fences, one Psync, then the deferred
// frees) — Shard::WorkerLoop's batch.
//
// Oracle: committed ops fully visible; each command of the in-flight op
// independently old-or-new (keys are distinct within an op); the mirror
// equals the durable slot cells; nothing else.

class KvMapWorkload final : public Workload {
 public:
  struct Cmd {
    enum class Kind : uint8_t { kPut, kRemove, kHset };
    Kind kind = Kind::kPut;
    std::string key;
    store::Record record;  // kPut
    uint32_t field = 0;    // kHset
    std::string value;     // kHset
  };
  struct Op {
    bool group = false;
    std::vector<Cmd> cmds;
  };

  KvMapWorkload(uint64_t seed, size_t n) : name_("map-kv") {
    Xorshift rng(seed);
    std::map<std::string, store::Record> live;
    std::map<std::string, uint32_t> cap;  // field capacity KvMap gives it
    const auto capacity_of = [](const store::Record& r) {
      size_t c = 1;
      for (const std::string& f : r.fields) {
        c = std::max(c, f.size());
      }
      return static_cast<uint32_t>(c);
    };
    script_.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      Op op;
      op.group = i % 2 == 1;
      const uint32_t ncmds = op.group ? 2 + static_cast<uint32_t>(rng.NextBelow(2)) : 1;
      std::set<std::string> used;
      for (uint32_t j = 0; j < ncmds; ++j) {
        std::string key;
        do {
          key = "k" + std::to_string(rng.NextBelow(12));
        } while (used.count(key) != 0);
        used.insert(key);
        const std::string tag = std::to_string(i) + "." + std::to_string(j);
        Cmd c;
        c.key = key;
        const auto it = live.find(key);
        const uint64_t pick = rng.NextBelow(8);
        if (it != live.end() && pick < 2) {
          c.kind = Cmd::Kind::kRemove;
          live.erase(it);
        } else if (it != live.end() && pick < 5) {
          c.kind = Cmd::Kind::kHset;
          c.field = static_cast<uint32_t>(rng.NextBelow(it->second.fields.size()));
          c.value = "h" + tag;
          if (rng.NextBelow(2) == 0 && c.value.size() <= cap[key]) {
            c.value.resize(c.value.size() + rng.NextBelow(cap[key] - c.value.size() + 1), 'y');
          } else {
            // Overflow: longer than the cell, sometimes by several blocks.
            c.value.resize(cap[key] + 1 + (rng.NextBelow(2) == 0 ? 0 : 400), 'z');
          }
          it->second.fields[c.field] = c.value;
          if (c.value.size() > cap[key]) {
            cap[key] = capacity_of(it->second);
          }
        } else {
          c.kind = Cmd::Kind::kPut;
          const uint64_t nfields = 1 + rng.NextBelow(2);
          for (uint64_t f = 0; f < nfields; ++f) {
            std::string v = "v" + tag + "." + std::to_string(f);
            if (rng.NextBelow(4) == 0) {
              v.resize(600, 'x');  // a three-block entry
            }
            c.record.fields.push_back(std::move(v));
          }
          live[key] = c.record;
          cap[key] = capacity_of(c.record);
        }
        op.cmds.push_back(std::move(c));
      }
      script_.push_back(std::move(op));
    }
  }

  const std::string& name() const override { return name_; }
  size_t op_count() const override { return script_.size(); }

  void Setup(JnvmRuntime& rt) override {
    map_ = OpenStore(rt, "kv");
    rt.Psync();
  }

  void RunOp(JnvmRuntime& rt, size_t i) override {
    const Op& op = script_[i];
    if (op.group) {
      rt.heap().BeginGroupCommit();
    }
    for (const Cmd& c : op.cmds) {
      switch (c.kind) {
        case Cmd::Kind::kPut:
          map_->Put(c.key, c.record);
          break;
        case Cmd::Kind::kRemove:
          map_->Remove(c.key);
          break;
        case Cmd::Kind::kHset:
          map_->UpdateField(c.key, c.field, c.value);
          break;
      }
    }
    if (op.group) {
      rt.heap().EndGroupCommit();
      rt.Psync();
      rt.DrainGroupFrees();
    }
  }

  void Check(JnvmRuntime& rt, const CrashCut& cut,
             std::vector<std::string>* out) override {
    if (!rt.root().Exists("kv")) {
      out->push_back("store root binding lost");
      return;
    }
    auto m = OpenStore(rt, "kv");
    std::map<std::string, store::Record> got;
    m->ForEachRecordIf({}, [&](const std::string& k, const store::Record& r) {
      got[k] = r;
    });
    std::map<std::string, store::Record> durable;
    m->ForEachPersisted([&](const std::string& k, const store::Record& r) {
      if (!durable.emplace(k, r).second) {
        out->push_back("key " + k + " published in two slot cells");
      }
    });
    if (durable != got) {
      out->push_back("mirror diverges from the persistent cells");
    }
    if (m->Size() != got.size()) {
      out->push_back("Size() != number of mirrored entries");
    }

    std::map<std::string, store::Record> expected;
    for (size_t i = 0; i < cut.committed; ++i) {
      for (const Cmd& c : script_[i].cmds) {
        Apply(c, &expected);
      }
    }
    const Op* inflight = cut.in_flight.has_value() && *cut.in_flight < script_.size()
                             ? &script_[*cut.in_flight]
                             : nullptr;
    const auto inflight_cmd = [&](const std::string& k) -> const Cmd* {
      if (inflight != nullptr) {
        for (const Cmd& c : inflight->cmds) {
          if (c.key == k) {
            return &c;
          }
        }
      }
      return nullptr;
    };
    for (const auto& [k, r] : expected) {
      if (inflight_cmd(k) != nullptr) {
        continue;  // judged below
      }
      const auto it = got.find(k);
      if (it == got.end()) {
        out->push_back("committed key " + k + " lost");
      } else if (it->second != r) {
        out->push_back("committed key " + k + " has '" + Print(it->second) +
                       "', want '" + Print(r) + "'");
      }
    }
    for (const auto& [k, r] : got) {
      if (expected.count(k) == 0 && inflight_cmd(k) == nullptr) {
        out->push_back("phantom key " + k);
      }
    }
    if (inflight == nullptr) {
      return;
    }
    for (const Cmd& c : inflight->cmds) {
      std::map<std::string, store::Record> after = expected;
      Apply(c, &after);
      const auto it = got.find(c.key);
      const auto old_it = expected.find(c.key);
      const auto new_it = after.find(c.key);
      if (it == got.end()) {
        if (old_it != expected.end() && new_it != after.end()) {
          out->push_back("in-flight op erased pre-existing key " + c.key);
        }
        continue;
      }
      const bool is_old = old_it != expected.end() && it->second == old_it->second;
      const bool is_new = new_it != after.end() && it->second == new_it->second;
      if (!is_old && !is_new) {
        out->push_back("in-flight op left torn record '" + Print(it->second) +
                       "' for key " + c.key);
      }
    }
  }

 private:
  static void Apply(const Cmd& c, std::map<std::string, store::Record>* state) {
    switch (c.kind) {
      case Cmd::Kind::kPut:
        (*state)[c.key] = c.record;
        break;
      case Cmd::Kind::kRemove:
        state->erase(c.key);
        break;
      case Cmd::Kind::kHset: {
        const auto it = state->find(c.key);
        if (it != state->end() && c.field < it->second.fields.size()) {
          it->second.fields[c.field] = c.value;
        }
        break;
      }
    }
  }

  static std::string Print(const store::Record& r) {
    std::string s;
    for (size_t i = 0; i < r.fields.size(); ++i) {
      s += (i == 0 ? "" : "|") + r.fields[i].substr(0, 24);
    }
    return s;
  }

  std::string name_;
  std::vector<Op> script_;
  Handle<server::KvMap> map_;
};

// ---- Set workload (PSet adapter over the hash map) --------------------------

class SetWorkload final : public Workload {
 public:
  struct Op {
    bool remove = false;
    std::string key;
  };

  SetWorkload(uint64_t seed, size_t n) : name_("set") {
    Xorshift rng(seed);
    std::set<std::string> live;
    script_.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      const std::string key = "e" + std::to_string(rng.NextBelow(14));
      if (live.count(key) != 0 && rng.NextBelow(3) == 0) {
        script_.push_back(Op{true, key});
        live.erase(key);
      } else {
        script_.push_back(Op{false, key});
        live.insert(key);
      }
    }
  }

  const std::string& name() const override { return name_; }
  size_t op_count() const override { return script_.size(); }

  void Setup(JnvmRuntime& rt) override {
    set_.reset();
    auto storage = std::make_shared<pdt::PStringHashMap>(rt, 4);
    storage->Pwb();
    storage->Validate();
    rt.root().Put("s", storage.get());
    rt.Psync();
    set_ = std::make_unique<pdt::PStringHashSet>(std::move(storage));
  }

  void RunOp(JnvmRuntime& rt, size_t i) override {
    const Op& op = script_[i];
    if (op.remove) {
      set_->Remove(op.key);
    } else {
      set_->Add(op.key);
    }
  }

  void Check(JnvmRuntime& rt, const CrashCut& cut,
             std::vector<std::string>* out) override {
    auto storage = rt.root().GetAs<pdt::PStringHashMap>("s");
    if (storage == nullptr) {
      out->push_back("set root binding lost");
      return;
    }
    pdt::PStringHashSet set(storage);
    std::set<std::string> expected;
    for (size_t i = 0; i < cut.committed; ++i) {
      const Op& op = script_[i];
      if (op.remove) {
        expected.erase(op.key);
      } else {
        expected.insert(op.key);
      }
    }
    std::set<std::string> got;
    set.ForEach([&](const std::string& k) { got.insert(k); });

    const Op* inflight = cut.in_flight.has_value() && *cut.in_flight < script_.size()
                             ? &script_[*cut.in_flight]
                             : nullptr;
    for (const std::string& k : expected) {
      if (inflight != nullptr && k == inflight->key) {
        continue;
      }
      if (got.count(k) == 0) {
        out->push_back("committed set element " + k + " lost");
      }
      if (!set.Contains(k)) {
        out->push_back("Contains() denies committed element " + k);
      }
    }
    for (const std::string& k : got) {
      if (expected.count(k) == 0 && (inflight == nullptr || k != inflight->key)) {
        out->push_back("phantom set element " + k);
      }
    }
    // In-flight add/remove: present-or-absent are both fine; nothing to do.
  }

 private:
  std::string name_;
  std::vector<Op> script_;
  std::unique_ptr<pdt::PStringHashSet> set_;
};

// ---- Extensible-array workload ----------------------------------------------

class ArrayWorkload final : public Workload {
 public:
  struct Op {
    bool pop = false;
    std::string value;
  };

  ArrayWorkload(uint64_t seed, size_t n) : name_("array") {
    Xorshift rng(seed);
    size_t size = 0;
    script_.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      if (size > 0 && rng.NextBelow(4) == 0) {
        script_.push_back(Op{true, {}});
        --size;
      } else {
        script_.push_back(Op{false, ValueFor(i, rng.NextBelow(8) == 0)});
        ++size;
      }
    }
  }

  const std::string& name() const override { return name_; }
  size_t op_count() const override { return script_.size(); }

  void Setup(JnvmRuntime& rt) override {
    arr_.reset();
    arr_ = std::make_shared<pdt::PExtArray>(rt, 2);  // grows repeatedly
    arr_->Pwb();
    arr_->Validate();
    rt.root().Put("arr", arr_.get());
    rt.Psync();
  }

  void RunOp(JnvmRuntime& rt, size_t i) override {
    const Op& op = script_[i];
    if (op.pop) {
      arr_->PopBack();
    } else {
      pdt::PString s(rt, op.value);
      arr_->Append(&s);
    }
  }

  void Check(JnvmRuntime& rt, const CrashCut& cut,
             std::vector<std::string>* out) override {
    auto arr = rt.root().GetAs<pdt::PExtArray>("arr");
    if (arr == nullptr) {
      out->push_back("array root binding lost");
      return;
    }
    const uint64_t n = arr->Size();
    std::vector<std::string> got;
    got.reserve(n);
    for (uint64_t i = 0; i < n; ++i) {
      const auto s = std::static_pointer_cast<pdt::PString>(arr->Get(i));
      if (s == nullptr) {
        out->push_back("torn element: index " + std::to_string(i) +
                       " below Size() is null");
        return;
      }
      got.push_back(s->Str());
    }
    // Append's count bump is queued but only the *next* op's fence seals it
    // (§4.3.1: losing the bump loses the append), so the recovered array may
    // trail the committed cut by one op — or lead it by one if the in-flight
    // op landed. Accept the state after j ops for j in [committed-1,
    // committed+1]; anything else is a violation.
    const size_t lo = cut.committed == 0 ? 0 : cut.committed - 1;
    const size_t hi = std::min(script_.size(), cut.committed + 1);
    for (size_t j = lo; j <= hi; ++j) {
      if (StateAfter(j) == got) {
        return;
      }
    }
    out->push_back("array state (size " + std::to_string(got.size()) +
                   ") matches no op prefix in [" + std::to_string(lo) + ", " +
                   std::to_string(hi) + "] (committed " +
                   std::to_string(cut.committed) + ")");
  }

 private:
  std::vector<std::string> StateAfter(size_t j) const {
    std::vector<std::string> st;
    for (size_t i = 0; i < j; ++i) {
      if (script_[i].pop) {
        st.pop_back();
      } else {
        st.push_back(script_[i].value);
      }
    }
    return st;
  }

  std::string name_;
  std::vector<Op> script_;
  Handle<pdt::PExtArray> arr_;
};

// ---- Root-map + PString workload --------------------------------------------
//
// Publishes pool-sized and chained strings under a rotating set of root
// bindings. RootMap::Put/Remove are failure-atomic, so every committed op
// is durable and the in-flight op is all-or-nothing.

class RootStringWorkload final : public Workload {
 public:
  struct Op {
    bool remove = false;
    std::string key;
    std::string value;
  };

  RootStringWorkload(std::string name, uint64_t seed, size_t n, bool faulty)
      : name_(std::move(name)), faulty_(faulty) {
    Xorshift rng(seed);
    std::set<std::string> live;
    script_.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      // The faulty variant uses per-op keys: every op takes the insert
      // path, which never fences — that is the planted bug.
      const std::string key = faulty_ ? "f" + std::to_string(i)
                                      : "s" + std::to_string(rng.NextBelow(6));
      if (!faulty_ && live.count(key) != 0 && rng.NextBelow(5) == 0) {
        script_.push_back(Op{true, key, {}});
        live.erase(key);
      } else {
        script_.push_back(Op{false, key, "w" + ValueFor(i, rng.NextBelow(3) == 0)});
        live.insert(key);
      }
    }
  }

  const std::string& name() const override { return name_; }
  size_t op_count() const override { return script_.size(); }

  void Setup(JnvmRuntime& rt) override { rt.Psync(); }

  void RunOp(JnvmRuntime& rt, size_t i) override {
    const Op& op = script_[i];
    if (op.remove) {
      rt.root().Remove(op.key);
      return;
    }
    pdt::PString v(rt, op.value);
    if (faulty_) {
      v.Pwb();
      v.Validate();
      rt.root().Wput(op.key, &v);  // planted bug: no publication fence
    } else {
      rt.root().Put(op.key, &v);
    }
  }

  void Check(JnvmRuntime& rt, const CrashCut& cut,
             std::vector<std::string>* out) override {
    std::map<std::string, std::string> expected;
    for (size_t i = 0; i < cut.committed; ++i) {
      const Op& op = script_[i];
      if (op.remove) {
        expected.erase(op.key);
      } else {
        expected[op.key] = op.value;
      }
    }
    const Op* inflight = cut.in_flight.has_value() && *cut.in_flight < script_.size()
                             ? &script_[*cut.in_flight]
                             : nullptr;
    const std::string prefix = faulty_ ? "f" : "s";
    std::map<std::string, std::string> got;
    for (const std::string& k : rt.root().Keys()) {
      if (k.rfind(prefix, 0) != 0) {
        continue;
      }
      got[k] = PrintString(rt.root().Get(k));
    }
    for (const auto& [k, v] : expected) {
      if (inflight != nullptr && k == inflight->key) {
        continue;
      }
      auto it = got.find(k);
      if (it == got.end()) {
        out->push_back("committed root binding " + k + " lost");
      } else if (it->second != v) {
        out->push_back("committed root binding " + k + " has value '" +
                       it->second + "', want '" + v + "'");
      }
    }
    for (const auto& [k, v] : got) {
      if (expected.count(k) == 0 && (inflight == nullptr || k != inflight->key)) {
        out->push_back("phantom root binding " + k);
      }
    }
    if (inflight != nullptr) {
      const auto it = got.find(inflight->key);
      const auto old_it = expected.find(inflight->key);
      if (it == got.end()) {
        if (!inflight->remove && old_it != expected.end()) {
          out->push_back("in-flight root put erased binding " + inflight->key);
        }
      } else {
        const bool is_old = old_it != expected.end() && it->second == old_it->second;
        const bool is_new = !inflight->remove && it->second == inflight->value;
        if (!is_old && !is_new) {
          out->push_back("in-flight root op left torn value '" + it->second +
                         "' for binding " + inflight->key);
        }
      }
    }
  }

 private:
  std::string name_;
  bool faulty_;
  std::vector<Op> script_;
};

// ---- J-PFA workload ----------------------------------------------------------
//
// Multi-object transfers inside failure-atomic blocks. The oracle checks the
// §4.2 guarantee: the recovered balances equal the committed-prefix state
// with the in-flight block either fully applied or fully absent, and the
// total is conserved unconditionally.

class CrashAccount final : public PObject {
 public:
  static const core::ClassInfo* Class() {
    static const core::ClassInfo* info =
        core::RegisterClass(core::MakeClassInfo<CrashAccount>("crashcheck.Account"));
    return info;
  }

  explicit CrashAccount(core::Resurrect) {}
  CrashAccount(JnvmRuntime& rt, int64_t balance) {
    AllocatePersistent(rt, Class(), 8);
    SetBalance(balance);
  }

  int64_t Balance() const { return ReadField<int64_t>(0); }
  void SetBalance(int64_t v) { WriteField<int64_t>(0, v); }
};

class PfaWorkload final : public Workload {
 public:
  static constexpr int kAccounts = 6;
  static constexpr int64_t kInitial = 1000;

  struct Transfer {
    int from = 0;
    int to = 0;
    int64_t amount = 0;
  };
  struct Op {
    std::vector<Transfer> transfers;  // applied in one outer FA block
    bool nested = false;              // second transfer runs in a nested block
  };

  PfaWorkload(uint64_t seed, size_t n) : name_("pfa") {
    Xorshift rng(seed);
    script_.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      Op op;
      op.transfers.push_back(RandomTransfer(rng));
      if (rng.NextBelow(4) == 0) {
        op.transfers.push_back(RandomTransfer(rng));
        op.nested = rng.NextBelow(2) == 0;
      }
      script_.push_back(std::move(op));
    }
  }

  const std::string& name() const override { return name_; }
  size_t op_count() const override { return script_.size(); }

  void Setup(JnvmRuntime& rt) override {
    accounts_.clear();
    for (int j = 0; j < kAccounts; ++j) {
      auto a = std::make_shared<CrashAccount>(rt, kInitial);
      rt.root().Put("a" + std::to_string(j), a.get());
      accounts_.push_back(std::move(a));
    }
    rt.Psync();
  }

  void RunOp(JnvmRuntime& rt, size_t i) override {
    const Op& op = script_[i];
    rt.FaStart();
    Apply(op.transfers[0]);
    if (op.transfers.size() > 1) {
      if (op.nested) {
        rt.FaStart();
        Apply(op.transfers[1]);
        rt.FaEnd();  // inner end: must not commit (§4.2 nesting)
      } else {
        Apply(op.transfers[1]);
      }
    }
    rt.FaEnd();
  }

  void Check(JnvmRuntime& rt, const CrashCut& cut,
             std::vector<std::string>* out) override {
    std::vector<int64_t> got;
    for (int j = 0; j < kAccounts; ++j) {
      auto a = rt.root().GetAs<CrashAccount>("a" + std::to_string(j));
      if (a == nullptr) {
        out->push_back("account binding a" + std::to_string(j) + " lost");
        return;
      }
      got.push_back(a->Balance());
    }
    int64_t sum = 0;
    for (const int64_t b : got) {
      sum += b;
    }
    if (sum != kAccounts * kInitial) {
      out->push_back("total balance " + std::to_string(sum) + " != " +
                     std::to_string(kAccounts * kInitial) +
                     " — an FA block applied partially");
    }
    const std::vector<int64_t> before = StateAfter(cut.committed);
    if (got == before) {
      return;
    }
    if (cut.in_flight.has_value() && *cut.in_flight < script_.size() &&
        got == StateAfter(*cut.in_flight + 1)) {
      return;  // the in-flight block committed just before the crash
    }
    std::string msg = "balances [";
    for (size_t j = 0; j < got.size(); ++j) {
      msg += (j == 0 ? "" : ",") + std::to_string(got[j]);
    }
    out->push_back(msg + "] match neither the pre- nor post-in-flight state (committed " +
                   std::to_string(cut.committed) + ")");
  }

 private:
  static Transfer RandomTransfer(Xorshift& rng) {
    Transfer t;
    t.from = static_cast<int>(rng.NextBelow(kAccounts));
    t.to = static_cast<int>(rng.NextBelow(kAccounts - 1));
    if (t.to >= t.from) {
      ++t.to;
    }
    t.amount = 1 + static_cast<int64_t>(rng.NextBelow(50));
    return t;
  }

  void Apply(const Transfer& t) {
    accounts_[t.from]->SetBalance(accounts_[t.from]->Balance() - t.amount);
    accounts_[t.to]->SetBalance(accounts_[t.to]->Balance() + t.amount);
  }

  std::vector<int64_t> StateAfter(size_t j) const {
    std::vector<int64_t> st(kAccounts, kInitial);
    for (size_t i = 0; i < j && i < script_.size(); ++i) {
      for (const Transfer& t : script_[i].transfers) {
        st[t.from] -= t.amount;
        st[t.to] += t.amount;
      }
    }
    return st;
  }

  std::string name_;
  std::vector<Op> script_;
  std::vector<Handle<CrashAccount>> accounts_;
};

// ---- Shipped-shard workloads (DESIGN.md §6.1) --------------------------------
//
// "server", "repl", "ckpt", "repl-apply", "wait" and "read-your-writes" run
// the shard that ships. Setup opens a server::Shard on the checker's runtime
// (Shard::OpenOn: no worker thread), each RunOp submits real Requests
// through Shard::RunBatch, the worker's only batch path, and Check reopens
// the shard on the recovered runtime, so recovery is the shard's own root
// binding, txn state rebuild and redo tail. The workloads make no
// persistence call of their own.
//
// The judge is indexed by replies as well as by the cut. A recording sink
// keeps every reply the shard delivered before the crash, and on a follower
// the last seq its seal hook acked (the REPLACK a primary's WAIT-K waits
// for). A delivered request must be durable; a request in flight and not
// delivered may read old or new, never torn.

// One client write of a script. kHset writes field 0 of a live key.
struct KvCmd {
  enum class Kind : uint8_t { kSet, kDel, kHset };
  Kind kind = Kind::kSet;
  std::string key;
  std::string value;  // kSet / kHset
};
using KvBatch = std::vector<KvCmd>;
using KvState = std::map<std::string, std::string>;  // key → field 0

struct ScriptShape {
  uint32_t cmds = 3;  // per batch, on distinct keys
  uint32_t keys = 10;
  bool del = true;
  bool hset = false;
};

// The one script generator: batches of SET, DEL and HSET over a small key
// set. Command j of batch i carries ValueFor(i * cmds + j), so a lost or
// stale write always shows. An HSET value either fits the key's cell (the
// shard writes it in place) or outgrows it (the entry is republished).
std::vector<KvBatch> MakeScript(uint64_t seed, size_t n, const ScriptShape& shape) {
  Xorshift rng(seed);
  std::map<std::string, size_t> cap;  // live key → its cell's field capacity
  std::vector<KvBatch> script(n);
  for (size_t i = 0; i < n; ++i) {
    std::set<std::string> used;
    for (uint32_t j = 0; j < shape.cmds; ++j) {
      KvCmd c;
      do {
        c.key = "k" + std::to_string(rng.NextBelow(shape.keys));
      } while (used.count(c.key) != 0);
      used.insert(c.key);
      const auto it = cap.find(c.key);
      const uint64_t pick = rng.NextBelow(8);
      if (it != cap.end() && shape.del && pick < 2) {
        c.kind = KvCmd::Kind::kDel;
        cap.erase(it);
      } else if (it != cap.end() && shape.hset && pick < 4) {
        c.kind = KvCmd::Kind::kHset;
        c.value = "h" + std::to_string(i * shape.cmds + j);
        if (c.value.size() <= it->second && rng.NextBelow(2) == 0) {
          c.value.resize(it->second, 'y');
        } else {
          c.value.resize(it->second + 1 + (rng.NextBelow(2) == 0 ? 0 : 300), 'z');
          it->second = c.value.size();
        }
      } else {
        c.kind = KvCmd::Kind::kSet;
        c.value = ValueFor(i * shape.cmds + j, rng.NextBelow(6) == 0);
        cap[c.key] = c.value.size();
      }
      script[i].push_back(std::move(c));
    }
  }
  return script;
}

std::optional<std::string> Lookup(const KvState& s, const std::string& key) {
  const auto it = s.find(key);
  return it == s.end() ? std::nullopt : std::optional<std::string>(it->second);
}

// The key's value after `c` (an HSET of an absent key changes nothing).
std::optional<std::string> After(const KvCmd& c, std::optional<std::string> v) {
  if (c.kind == KvCmd::Kind::kDel) {
    return std::nullopt;
  }
  if (c.kind == KvCmd::Kind::kHset && !v.has_value()) {
    return v;
  }
  return c.value;
}

KvState Fold(const std::vector<KvBatch>& script, size_t batches) {
  KvState s;
  for (size_t i = 0; i < batches; ++i) {
    for (const KvCmd& c : script[i]) {
      const auto v = After(c, Lookup(s, c.key));
      if (v.has_value()) {
        s[c.key] = *v;
      } else {
        s.erase(c.key);
      }
    }
  }
  return s;
}

const char* OpName(const KvCmd& c) {
  return c.kind == KvCmd::Kind::kSet ? "SET" : c.kind == KvCmd::Kind::kDel ? "DEL" : "HSET";
}

// The batch's replication record exactly as Shard::Execute builds it.
std::string FrameOf(const KvBatch& b) {
  std::vector<repl::ReplOp> rops;
  for (const KvCmd& c : b) {
    repl::ReplOp op;
    op.key = c.key;
    if (c.kind == KvCmd::Kind::kSet) {
      op.kind = repl::ReplOp::Kind::kPut;
      op.record.fields.push_back(c.value);
    } else if (c.kind == KvCmd::Kind::kDel) {
      op.kind = repl::ReplOp::Kind::kDel;
    } else {
      op.kind = repl::ReplOp::Kind::kUpdate;
      op.value = c.value;
    }
    rops.push_back(std::move(op));
  }
  std::string f;
  repl::EncodeBatch(rops, &f);
  return f;
}

constexpr uint64_t kClientConn = 1;

// Batch i's client requests; command j is request seq i * cmds + j + 1.
std::vector<server::Request> ClientBatch(const KvBatch& b, size_t i) {
  std::vector<server::Request> reqs;
  for (size_t j = 0; j < b.size(); ++j) {
    server::Request r;
    r.op = b[j].kind == KvCmd::Kind::kSet   ? server::Request::Op::kSet
           : b[j].kind == KvCmd::Kind::kDel ? server::Request::Op::kDel
                                            : server::Request::Op::kHset;
    r.key = b[j].key;
    r.value = b[j].value;
    r.conn_id = kClientConn;
    r.seq = i * b.size() + j + 1;
    reqs.push_back(std::move(r));
  }
  return reqs;
}

// One shipped record for a follower's apply path (the ReplClient submits it
// as an internal request: no reply).
std::vector<server::Request> ApplyBatch(uint64_t seq, const std::string& frame) {
  std::vector<server::Request> reqs(1);
  reqs[0].op = server::Request::Op::kApply;
  repl::EncodeRecord(seq, frame, &reqs[0].value);
  return reqs;
}

// What the shard told its clients: every delivered reply by request seq, and
// the last sealed seq its seal hook acked.
struct Delivered final : server::CompletionSink {
  std::map<uint64_t, std::string> replies;
  uint64_t acked = 0;
  void OnCompletion(server::Completion&& c) override {
    if (!c.stream) {
      replies[c.seq] = std::move(c.reply);
    }
  }
};

// Parses consecutive RESP replies; false on a malformed stream.
bool ParseReplies(const std::string& bytes, std::vector<server::RespReply>* out) {
  server::RespReplyParser p;
  p.Feed(bytes.data(), bytes.size());
  server::RespReply r;
  std::string err;
  server::RespParser::Status st;
  while ((st = p.Next(&r, &err)) == server::RespParser::Status::kCommand) {
    out->push_back(std::move(r));
  }
  return st == server::RespParser::Status::kNeedMore;
}

// Store half of the judge. The recovered store (`got`, from StoreValues,
// which also checks the mirror against the durable slot cells) must equal
// `expected`, except that each command of `inflight` leaves its key old or
// new, and new when its reply was delivered (`delivered` holds those
// positions).
void JudgeStore(const KvState& got, const KvState& expected,
                const KvBatch* inflight, const std::set<size_t>& delivered,
                std::vector<std::string>* out) {
  const auto show = [](const std::optional<std::string>& v) {
    return v.has_value() ? "'" + v->substr(0, 24) + "'" : std::string("<absent>");
  };
  std::map<std::string, size_t> pos;  // in-flight key → command index
  std::set<std::string> keys;
  for (size_t j = 0; inflight != nullptr && j < inflight->size(); ++j) {
    pos[(*inflight)[j].key] = j;
    keys.insert((*inflight)[j].key);
  }
  for (const auto& [k, v] : expected) keys.insert(k);
  for (const auto& [k, v] : got) keys.insert(k);
  for (const std::string& k : keys) {
    const auto want = Lookup(expected, k);
    const auto have = Lookup(got, k);
    const auto it = pos.find(k);
    if (it == pos.end()) {
      if (have != want) {
        out->push_back("key " + k + " is " + show(have) + ", want " + show(want));
      }
      continue;
    }
    const KvCmd& c = (*inflight)[it->second];
    const auto next = After(c, want);
    if (delivered.count(it->second) != 0) {
      if (have != next) {
        out->push_back(std::string("delivered ") + OpName(c) + " of key " + k +
                       " is not durable: " + show(have) + ", want " + show(next));
      }
    } else if (have != want && have != next) {
      out->push_back(std::string("in-flight ") + OpName(c) + " left key " + k +
                     " torn: " + show(have) + " is neither " + show(want) +
                     " nor " + show(next));
    }
  }
}

// Every delivered client reply is the one its command earns (+OK for SET,
// :1 for DEL and for HSET of a live key), and its batch is one of the first
// `durable` (its record sealed, on a shard with a log).
void JudgeReplies(const std::vector<KvBatch>& script, uint32_t cmds,
                  const Delivered& d, uint64_t durable,
                  std::vector<std::string>* out) {
  for (const auto& [seq, reply] : d.replies) {
    const uint64_t i = (seq - 1) / cmds;
    const KvCmd& c = script[i][(seq - 1) % cmds];
    const char* want = c.kind == KvCmd::Kind::kSet ? "+OK\r\n" : ":1\r\n";
    if (reply != want) {
      out->push_back(std::string("reply to ") + OpName(c) + " of key " + c.key +
                     " is '" + reply + "'");
    }
    if (i >= durable) {
      out->push_back("reply to batch " + std::to_string(i) +
                     " delivered, but the log seals only " +
                     std::to_string(durable) + " batches");
    }
  }
}

// Positions in batch i whose replies were delivered.
std::set<size_t> DeliveredIn(const Delivered& d, size_t i, uint32_t cmds) {
  std::set<size_t> out;
  for (uint32_t j = 0; j < cmds; ++j) {
    if (d.replies.count(i * cmds + j + 1) != 0) {
      out.insert(j);
    }
  }
  return out;
}

// Log half of the judge: the recovered log seals `c` records, or c+1 when
// the crash cut the batch that appends record c+1, and each retained record
// byte-matches frames[seq - 1]. The records are read through the shard's
// REPLSYNC path, as a replica would. Returns the sealed count, or nullopt
// when it is out of range.
std::optional<uint64_t> JudgeLog(server::Shard& shard, uint64_t c, bool inflight,
                                 const std::vector<std::string>& frames,
                                 std::vector<std::string>* out) {
  const uint64_t sealed = shard.repl_next_seq() - 1;
  if (sealed != c && !(inflight && sealed == c + 1)) {
    out->push_back("log retains " + std::to_string(sealed) + " records, want " +
                   std::to_string(c) + (inflight ? " or +1" : ""));
    return std::nullopt;
  }
  std::vector<server::Request> sync(1);
  sync[0].op = server::Request::Op::kReplSync;
  sync[0].repl_seq = shard.Stats().repl.start_seq;
  const auto waiter = std::make_shared<server::ReplWaiter>();
  sync[0].waiter = waiter;
  shard.RunBatch(sync);
  std::vector<server::RespReply> replies;
  if (!ParseReplies(waiter->payload, &replies) || replies.empty() ||
      replies[0].type != server::RespReply::Type::kSimple) {
    out->push_back("REPLSYNC of the recovered log failed: " + waiter->payload);
    return sealed;
  }
  for (size_t r = 1; r < replies.size(); ++r) {
    uint64_t seq = 0;
    std::string_view payload;
    if (!repl::DecodeRecord(replies[r].str, &seq, &payload) || seq == 0 ||
        seq > frames.size() || payload != frames[seq - 1]) {
      out->push_back("record " + std::to_string(seq) +
                     " unreadable or does not match the script");
    }
  }
  return sealed;
}

class ShardWorkload : public Workload {
 public:
  // The shard holds the sink's address, and the seal hook this one's.
  ShardWorkload(const ShardWorkload&) = delete;
  ShardWorkload& operator=(const ShardWorkload&) = delete;

  const std::string& name() const override { return name_; }

  void Setup(JnvmRuntime& rt) override {
    shard_.reset();  // the last run's shard; its runtime is already gone
    sink_ = Delivered();
    shard_ = server::Shard::OpenOn(&rt, opts_, 0, &sink_);
    if (opts_.follower) {
      shard_->SetSealHook([this](uint64_t seq) { sink_.acked = seq; });
    }
  }

  void Check(JnvmRuntime& rt, const CrashCut& cut,
             std::vector<std::string>* out) override {
    const Delivered before = sink_;
    Delivered after;
    std::string error;
    auto shard = server::Shard::OpenOn(&rt, opts_, 0, &after, &error);
    if (shard == nullptr) {
      out->push_back("the recovered shard does not open: " + error);
      return;
    }
    if (shard->repl_needs_snapshot()) {
      out->push_back("log reports needs_snapshot without a snapshot install");
      return;
    }
    Judge(*shard, cut, before, out);
  }

 protected:
  ShardWorkload(std::string name, server::ShardOptions opts)
      : name_(std::move(name)), opts_(opts) {}

  virtual void Judge(server::Shard& shard, const CrashCut& cut,
                     const Delivered& d, std::vector<std::string>* out) = 0;

  void Run(std::vector<server::Request> batch) { shard_->RunBatch(batch); }

  std::string name_;
  server::ShardOptions opts_;
  Delivered sink_;  // before shard_: the shard posts into it until it dies
  std::unique_ptr<server::Shard> shard_;
};

// A shard with a four-cell slot array, so scripts sweep its growth, and
// 384-byte log segments, so they sweep rollover, truncation and oversized
// records: most batch records fit a segment, so a full ring recycles its
// head in place, while the padded SETs and the grown HSETs still outgrow
// one and take a dedicated segment.
server::ShardOptions TinyShard(bool repl_log, bool follower, uint32_t max_segments) {
  server::ShardOptions o;
  o.map_capacity = 4;
  o.repl_log = repl_log;
  o.repl_segment_bytes = 384;
  o.repl_max_segments = max_segments;
  o.follower = follower;
  return o;
}

// "server": the shard as `jnvm_server --no-repl-log` runs it. One op is one
// batch of SET/DEL/HSET: group commit, one Psync, deferred frees, replies.
// Sealed batches are exact; each command of the in-flight batch is old or
// new, and new once its reply went out.
class ServerWorkload final : public ShardWorkload {
 public:
  static constexpr ScriptShape kShape{6, 12, true, true};

  ServerWorkload(uint64_t seed, size_t n)
      : ShardWorkload("server", TinyShard(false, false, 0)),
        script_(MakeScript(seed, n, kShape)) {}

  size_t op_count() const override { return script_.size(); }

  void RunOp(JnvmRuntime&, size_t i) override { Run(ClientBatch(script_[i], i)); }

 protected:
  void Judge(server::Shard& shard, const CrashCut& cut, const Delivered& d,
             std::vector<std::string>* out) override {
    const bool inflight = cut.in_flight.has_value() && *cut.in_flight < script_.size();
    JudgeReplies(script_, kShape.cmds, d, script_.size(), out);
    JudgeStore(StoreValues(shard.kv(), out), Fold(script_, cut.committed),
               inflight ? &script_[cut.committed] : nullptr,
               DeliveredIn(d, cut.committed, kShape.cmds), out);
  }

 private:
  std::vector<KvBatch> script_;
};

// "repl" and "ckpt": the default primary. Each write batch appends one
// record that the batch's Psync seals with the store mutations and before
// the replies. The recovered log seals c or c+1 records, each byte-equal to
// the script's frame; after the shard's redo tail the store equals the
// first `sealed` batches, the in-flight batch old-or-new when its record did
// not seal. "ckpt" puts a checkpoint in every eighth op, as the two kCkpt
// singleton batches of CkptRunner: the fuzzy walk over every slot, then the
// finalize (Psync → CkptMeta publish → Pfence → TruncateBelow). Its meta is
// exact outside a checkpoint op and old-or-new per field inside one, and
// recovery replays from the published begin, which never passes the log.
// Its ring has two slots, so the seven writes between checkpoints fill it
// and roll it over (recycling a segment) before a checkpoint truncates it.
class PrimaryWorkload final : public ShardWorkload {
 public:
  static constexpr ScriptShape kShape{5, 10, true, true};
  static constexpr size_t kCkptEvery = 8;

  PrimaryWorkload(std::string name, uint64_t seed, size_t n, bool ckpt)
      : ShardWorkload(std::move(name), TinyShard(true, false, ckpt ? 2 : 3)),
        ckpt_(ckpt),
        n_(n) {
    for (size_t i = 0; i < n; ++i) {
      writes_before_.push_back(i - ckpts_before_.size());
      ckpt_ops_before_.push_back(ckpts_before_.size());
      if (IsCkpt(i)) {
        ckpts_before_.push_back(writes_before_.back());
      }
    }
    writes_before_.push_back(n - ckpts_before_.size());
    ckpt_ops_before_.push_back(ckpts_before_.size());
    script_ = MakeScript(seed, writes_before_.back(), kShape);
    for (const KvBatch& b : script_) {
      frames_.push_back(FrameOf(b));
    }
  }

  size_t op_count() const override { return n_; }

  void RunOp(JnvmRuntime&, size_t i) override {
    if (!IsCkpt(i)) {
      Run(ClientBatch(script_[writes_before_[i]], writes_before_[i]));
      return;
    }
    for (uint32_t field = 0; field < 2; ++field) {
      std::vector<server::Request> op(1);
      op[0].op = server::Request::Op::kCkpt;
      op[0].field = field;
      op[0].slot_hi = cluster::kNumSlots - 1;
      Run(std::move(op));
    }
  }

 protected:
  void Judge(server::Shard& shard, const CrashCut& cut, const Delivered& d,
             std::vector<std::string>* out) override {
    const bool has_inflight = cut.in_flight.has_value() && *cut.in_flight < n_;
    const bool inflight_ckpt = has_inflight && IsCkpt(*cut.in_flight);
    const bool inflight_write = has_inflight && !inflight_ckpt;
    const uint64_t c = writes_before_[cut.committed];
    const auto sealed = JudgeLog(shard, c, inflight_write, frames_, out);
    if (!sealed.has_value()) {
      return;
    }
    if (ckpt_) {
      JudgeMeta(shard, cut.committed, inflight_ckpt, out);
    }
    JudgeReplies(script_, kShape.cmds, d, *sealed, out);
    const bool unsealed = inflight_write && *sealed == c;
    JudgeStore(StoreValues(shard.kv(), out), Fold(script_, *sealed),
               unsealed ? &script_[c] : nullptr, DeliveredIn(d, c, kShape.cmds),
               out);
  }

 private:
  bool IsCkpt(size_t i) const { return ckpt_ && i % kCkptEvery == kCkptEvery - 1; }

  // The meta the k-th checkpoint publishes: begin = the next record, and the
  // walk's accounting of the store it saw.
  struct Meta {
    uint64_t count = 0, begin = 1, keys = 0, bytes = 0;
  };
  Meta MetaAfter(size_t k) const {
    Meta m;
    if (k == 0) {
      return m;
    }
    m.count = k;
    m.begin = ckpts_before_[k - 1] + 1;
    for (const auto& [key, v] : Fold(script_, ckpts_before_[k - 1])) {
      ++m.keys;
      m.bytes += key.size() + v.size();
    }
    return m;
  }

  void JudgeMeta(server::Shard& shard, size_t committed, bool inflight,
                 std::vector<std::string>* out) const {
    const server::CkptStats got = shard.Stats().ckpt;
    const size_t k = ckpt_ops_before_[committed];
    const Meta old = MetaAfter(k);
    const Meta next = inflight ? MetaAfter(k + 1) : old;
    const auto either = [](uint64_t v, uint64_t a, uint64_t b) { return v == a || v == b; };
    if (!either(got.count, old.count, next.count) ||
        !either(got.begin_seq, old.begin, next.begin) ||
        !either(got.end_seq, old.begin - 1, next.begin - 1) ||
        !either(got.walked_keys, old.keys, next.keys) ||
        !either(got.walked_bytes, old.bytes, next.bytes)) {
      out->push_back(std::string(inflight ? "in-flight checkpoint left torn meta"
                                          : "checkpoint meta mismatch") +
                     ": count=" + std::to_string(got.count) +
                     " begin=" + std::to_string(got.begin_seq) +
                     ", want count=" + std::to_string(old.count) +
                     " begin=" + std::to_string(old.begin) +
                     (inflight ? " or the next checkpoint's" : ""));
    }
    if (got.begin_seq > shard.repl_next_seq()) {
      out->push_back("checkpoint begin " + std::to_string(got.begin_seq) +
                     " ahead of log next " + std::to_string(shard.repl_next_seq()));
    }
  }

  bool ckpt_;
  size_t n_;
  std::vector<KvBatch> script_;         // the write batches
  std::vector<std::string> frames_;     // frames_[seq - 1]
  std::vector<uint64_t> writes_before_; // write ops among ops [0, i)
  std::vector<size_t> ckpt_ops_before_; // checkpoint ops among ops [0, i)
  std::vector<uint64_t> ckpts_before_;  // per checkpoint: writes before it
};

// "repl-apply", "wait" and "read-your-writes": a follower fed the primary's
// sealed records as kApply requests, one record per apply batch. Each batch
// mirrors the record into the local log under the primary's seq, and its
// Psync seals both before the seal hook acks it.
//   repl-apply — the replica's restart: the shard's redo tail, then the
//     resync stream (every record past the sealed one, through the same
//     apply path) must land on the full-script state.
//   wait — WAIT-K from the follower's side: a record the seal hook acked is
//     retained and replayable, and the store sits on the sealed boundary.
//   read-your-writes — before each record, a GET carrying that record's seq
//     as its session token parks in the shard and is released by the
//     record's apply batch. A released read, and after recovery any read
//     with a token up to the sealed seq, sees a version at least its token.
class FollowerWorkload final : public ShardWorkload {
 public:
  enum class Mode : uint8_t { kResync, kAcks, kSessions };

  FollowerWorkload(std::string name, uint64_t seed, size_t n, Mode mode)
      : ShardWorkload(std::move(name), TinyShard(true, true, 3)),
        mode_(mode),
        shape_(mode == Mode::kSessions ? ScriptShape{2, 5, false, false}
                                       : ScriptShape{4, 10, true, true}),
        script_(MakeScript(seed, n, shape_)) {
    for (const KvBatch& b : script_) {
      frames_.push_back(FrameOf(b));
    }
  }

  size_t op_count() const override { return script_.size(); }

  void RunOp(JnvmRuntime&, size_t i) override {
    if (mode_ == Mode::kSessions) {
      server::Request read;
      read.op = server::Request::Op::kGet;
      read.key = script_[i][0].key;
      read.min_seq = i + 1;
      read.conn_id = kClientConn;
      read.seq = i + 1;
      shard_->GateSessionRead(read, /*now_ms=*/0);
    }
    Run(ApplyBatch(i + 1, frames_[i]));
  }

 protected:
  void Judge(server::Shard& shard, const CrashCut& cut, const Delivered& d,
             std::vector<std::string>* out) override {
    const uint64_t c = cut.committed;
    const bool inflight = cut.in_flight.has_value() && *cut.in_flight < script_.size();
    // An acked record, and every completed apply batch, must survive.
    const uint64_t retained = shard.repl_next_seq() - 1;
    if (retained < d.acked || retained < c) {
      out->push_back("acked record lost: log retains " + std::to_string(retained) +
                     " records, the seal hook acked " + std::to_string(d.acked) +
                     ", " + std::to_string(c) + " batches completed");
      return;
    }
    const auto sealed = JudgeLog(shard, c, inflight, frames_, out);
    if (!sealed.has_value()) {
      return;
    }
    if (mode_ == Mode::kResync) {
      for (uint64_t q = *sealed + 1; q <= script_.size(); ++q) {
        auto batch = ApplyBatch(q, frames_[q - 1]);
        shard.RunBatch(batch);
      }
      JudgeStore(StoreValues(shard.kv(), out), Fold(script_, script_.size()),
                 nullptr, {}, out);
      return;
    }
    const KvState got = StoreValues(shard.kv(), out);
    if (mode_ == Mode::kSessions) {
      JudgeSessions(got, *sealed, d, out);
    }
    const bool unsealed = inflight && *sealed == c;
    JudgeStore(got, Fold(script_, *sealed), unsealed ? &script_[c] : nullptr, {},
               out);
  }

 private:
  // ValueFor(i * cmds + j) was written by record i + 1.
  uint64_t VersionOf(const std::string& value) const {
    uint64_t idx = 0;
    for (size_t p = 1; p < value.size() && value[p] >= '0' && value[p] <= '9'; ++p) {
      idx = idx * 10 + static_cast<uint64_t>(value[p] - '0');
    }
    return idx / shape_.cmds + 1;
  }

  void JudgeSessions(const KvState& got, uint64_t sealed, const Delivered& d,
                     std::vector<std::string>* out) const {
    for (const auto& [token, reply] : d.replies) {
      std::vector<server::RespReply> r;
      if (!ParseReplies(reply, &r) || r.size() != 1 ||
          r[0].type != server::RespReply::Type::kBulk ||
          VersionOf(r[0].str) < token) {
        out->push_back("released read with token " + std::to_string(token) +
                       " answered '" + reply.substr(0, 24) + "'");
      }
      if (token > sealed) {
        out->push_back("watermark regressed: log retains " + std::to_string(sealed) +
                       " records but a read with token " + std::to_string(token) +
                       " was released");
      }
    }
    for (uint64_t m = 1; m <= sealed; ++m) {
      for (const KvCmd& c : script_[m - 1]) {
        const auto v = Lookup(got, c.key);
        if (!v.has_value() || VersionOf(*v) < m) {
          out->push_back("session read with token " + std::to_string(m) +
                         " observes key " + c.key + " older than the token");
        }
      }
    }
  }

  Mode mode_;
  ScriptShape shape_;
  std::vector<KvBatch> script_;
  std::vector<std::string> frames_;  // frames_[seq - 1]
};

// ---- Cross-shard transaction workload (DESIGN.md §9) -------------------------
//
// "txn" models the 2PC persistence discipline end to end: each checker op is
// one MULTI/EXEC txn driven through the exact record sequence the shard
// worker seals — a single-shard txn as one [prepare|marker] record, a
// cross-shard txn as per-participant kTxnPrepare records, the coordinator's
// kTxnCommit decision record (THE durability point), then the other
// participants' commit markers — with every store apply running strictly
// post-seal of its justifying record, like Shard::ApplyPostSealTxns.
//
// Check re-runs the shard's actual recovery (ScanLogForTxns + redo tail via
// ReplayRecordOps, exactly Shard::Open) and the server's resolution
// (PlanResolution over every shard's view, exactly
// Server::ResolveCrossShardTxns), then judges all-or-nothing: a txn whose
// coordinator's recovered log retains the decision (or, single-shard, the
// combined record) must be fully visible on every participant; any other txn
// must have no store effect anywhere. The expected state is the fold of
// exactly the decided txns, compared key-exact — a partial apply on any
// shard is an atomicity violation, never an allowed outcome.

class TxnWorkload final : public Workload {
 public:
  static constexpr uint32_t kShards = 3;

  struct Part {
    uint32_t shard = 0;
    std::vector<repl::ReplOp> writes;
    std::string writes_frame;     // EncodeBatch(writes)
    uint64_t prepare_seq = 0;     // seq the prepare record seals under
    std::string record_frame;     // single: [prepare|marker]; cross: [prepare]
  };
  struct Txn {
    bool single = false;
    std::vector<Part> parts;      // shard-ascending; parts[0].shard coordinates
    std::string decision_frame;   // cross only: coordinator's decision record
    std::string marker_frame;     // cross only: participant commit marker
  };

  TxnWorkload(uint64_t seed, size_t n) : name_("txn") {
    // Per-shard key pools under the server's routing hash.
    std::vector<std::string> pool[kShards];
    for (int i = 0; i < 64; ++i) {
      const std::string k = "k" + std::to_string(i);
      pool[server::ShardFor(k, kShards)].push_back(k);
    }
    for (uint32_t s = 0; s < kShards; ++s) {
      JNVM_CHECK_MSG(pool[s].size() >= 2, "txn workload: thin key pool");
    }

    Xorshift rng(seed);
    uint64_t next_seq[kShards];
    for (uint32_t s = 0; s < kShards; ++s) {
      next_seq[s] = 1;
      cum_[s].assign(n + 1, 0);
    }
    txns_.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      Txn t;
      t.single = rng.NextBelow(3) == 0;
      // Two writes per txn: same shard (distinct keys) or one per shard on
      // two distinct shards, coordinator = the lower one.
      std::vector<std::pair<uint32_t, std::string>> targets;
      if (t.single) {
        const uint32_t s = static_cast<uint32_t>(rng.NextBelow(kShards));
        const size_t k1 = rng.NextBelow(pool[s].size());
        size_t k2 = rng.NextBelow(pool[s].size() - 1);
        k2 += k2 >= k1 ? 1 : 0;
        targets.emplace_back(s, pool[s][k1]);
        targets.emplace_back(s, pool[s][k2]);
      } else {
        const uint32_t a = static_cast<uint32_t>(rng.NextBelow(kShards));
        uint32_t b = static_cast<uint32_t>(
            (a + 1 + rng.NextBelow(kShards - 1)) % kShards);
        const uint32_t lo = std::min(a, b), hi = std::max(a, b);
        targets.emplace_back(lo, pool[lo][rng.NextBelow(pool[lo].size())]);
        targets.emplace_back(hi, pool[hi][rng.NextBelow(pool[hi].size())]);
      }
      for (size_t j = 0; j < targets.size(); ++j) {
        const auto& [s, key] = targets[j];
        repl::ReplOp w;
        if (rng.NextBelow(5) == 0) {
          w.kind = repl::ReplOp::Kind::kDel;
          w.key = key;
        } else {
          w.kind = repl::ReplOp::Kind::kPut;
          w.key = key;
          w.record.fields.push_back(
              ValueFor(2 * i + j, rng.NextBelow(6) == 0));
        }
        if (t.parts.empty() || t.parts.back().shard != s) {
          Part p;
          p.shard = s;
          t.parts.push_back(std::move(p));
        }
        t.parts.back().writes.push_back(std::move(w));
      }
      const txn::TxnId id = i + 1;
      const uint32_t coord = t.parts[0].shard;
      for (Part& p : t.parts) {
        repl::EncodeBatch(p.writes, &p.writes_frame);
      }
      // Precompute the record frames and the seqs they seal under, in the
      // exact order RunOp appends them; the oracle byte-matches the logs.
      if (t.single) {
        Part& p = t.parts[0];
        p.prepare_seq = next_seq[coord];
        std::vector<repl::ReplOp> rops(2);
        rops[0].kind = repl::ReplOp::Kind::kTxnPrepare;
        rops[0].key = txn::TxnIdKey(id);
        rops[0].field = coord;
        rops[0].value = p.writes_frame;
        rops[1].kind = repl::ReplOp::Kind::kTxnCommit;
        rops[1].key = txn::TxnIdKey(id);
        repl::EncodeBatch(rops, &p.record_frame);
        recs_[coord].push_back(p.record_frame);
        ++next_seq[coord];
      } else {
        for (Part& p : t.parts) {
          p.prepare_seq = next_seq[p.shard];
          std::vector<repl::ReplOp> rops(1);
          rops[0].kind = repl::ReplOp::Kind::kTxnPrepare;
          rops[0].key = txn::TxnIdKey(id);
          rops[0].field = coord;
          rops[0].value = p.writes_frame;
          repl::EncodeBatch(rops, &p.record_frame);
          recs_[p.shard].push_back(p.record_frame);
          ++next_seq[p.shard];
        }
        txn::Decision d;
        for (const Part& p : t.parts) {
          d.parts.push_back({p.shard, p.prepare_seq, p.writes_frame});
        }
        std::vector<repl::ReplOp> drops(1);
        drops[0].kind = repl::ReplOp::Kind::kTxnCommit;
        drops[0].key = txn::TxnIdKey(id);
        txn::EncodeDecision(d, &drops[0].value);
        repl::EncodeBatch(drops, &t.decision_frame);
        recs_[coord].push_back(t.decision_frame);
        ++next_seq[coord];
        std::vector<repl::ReplOp> mrops(1);
        mrops[0].kind = repl::ReplOp::Kind::kTxnCommit;
        mrops[0].key = txn::TxnIdKey(id);
        repl::EncodeBatch(mrops, &t.marker_frame);
        for (size_t j = 1; j < t.parts.size(); ++j) {
          recs_[t.parts[j].shard].push_back(t.marker_frame);
          ++next_seq[t.parts[j].shard];
        }
      }
      for (uint32_t s = 0; s < kShards; ++s) {
        cum_[s][i + 1] = next_seq[s] - 1;
      }
      txns_.push_back(std::move(t));
    }
  }

  const std::string& name() const override { return name_; }
  size_t op_count() const override { return txns_.size(); }

  void Setup(JnvmRuntime& rt) override {
    shards_.clear();
    logs_.clear();
    for (uint32_t s = 0; s < kShards; ++s) {
      shards_.push_back(OpenStore(rt, StoreRoot(s)));
      logs_.push_back(repl::ReplLog::OpenOrCreate(&rt, LogRoot(s), LogOpts()));
    }
    rt.Psync();
  }

  void RunOp(JnvmRuntime& rt, size_t i) override {
    const Txn& t = txns_[i];
    if (t.single) {
      // Single-shard fast path: one sealed record, then the post-seal apply.
      AppendRecord(rt, t.parts[0].shard, t.parts[0].record_frame);
      ApplyWrites(rt, t.parts[0].shard, t.parts[0].writes);
      return;
    }
    for (const Part& p : t.parts) {
      AppendRecord(rt, p.shard, p.record_frame);  // phase 1: prepares seal
    }
    const uint32_t coord = t.parts[0].shard;
    AppendRecord(rt, coord, t.decision_frame);    // phase 2: commit point
    ApplyWrites(rt, coord, t.parts[0].writes);
    for (size_t j = 1; j < t.parts.size(); ++j) { // phase 3: markers + applies
      AppendRecord(rt, t.parts[j].shard, t.marker_frame);
      ApplyWrites(rt, t.parts[j].shard, t.parts[j].writes);
    }
  }

  void Check(JnvmRuntime& rt, const CrashCut& cut,
             std::vector<std::string>* out) override {
    const size_t n = txns_.size();
    // Recover each shard exactly like Shard::Open: reopen store + log, scan
    // the records below the tail for txn state, then redo the tail record.
    std::vector<Handle<server::KvMap>> backends;
    std::vector<std::unique_ptr<repl::ReplLog>> logs;
    std::vector<txn::LogScanResult> scans(kShards);
    std::vector<txn::DecisionIndex> indexes(kShards);
    for (uint32_t s = 0; s < kShards; ++s) {
      backends.push_back(OpenStore(rt, StoreRoot(s)));
      logs.push_back(repl::ReplLog::OpenOrCreate(&rt, LogRoot(s), LogOpts()));
      auto& log = *logs[s];
      if (log.needs_snapshot()) {
        out->push_back("shard " + std::to_string(s) +
                       " log reports needs_snapshot on a primary");
        continue;
      }
      // Sealed boundary: between the records of the committed ops and those
      // of the in-flight op (any phase of it may or may not have sealed, and
      // an unsealed append whose lines all survived counts as retained).
      const uint64_t sealed = log.next_seq() - 1;
      const uint64_t lo = cum_[s][std::min(cut.committed, n)];
      const uint64_t hi = cut.in_flight.has_value()
                              ? cum_[s][std::min(*cut.in_flight + 1, n)]
                              : lo;
      if (sealed < lo || sealed > hi) {
        out->push_back("shard " + std::to_string(s) + " log retains " +
                       std::to_string(sealed) + " records, want [" +
                       std::to_string(lo) + ", " + std::to_string(hi) + "]");
        continue;
      }
      std::string payload;
      for (uint64_t q = log.start_seq(); q < log.next_seq(); ++q) {
        if (!log.Read(q, &payload)) {
          out->push_back("shard " + std::to_string(s) + " record " +
                         std::to_string(q) + " unreadable");
        } else if (payload != recs_[s][q - 1]) {
          out->push_back("shard " + std::to_string(s) + " record " +
                         std::to_string(q) + " does not match the script");
        }
      }
      if (!log.empty()) {
        txn::ScanLogForTxns(log, log.next_seq() - 1, &scans[s]);
        if (log.Read(log.next_seq() - 1, &payload)) {
          std::vector<repl::ReplOp> ops;
          if (repl::DecodeBatch(payload, &ops)) {
            txn::ReplayRecordOps(&rt, backends[s].get(), ops, &scans[s]);
          } else {
            out->push_back("shard " + std::to_string(s) +
                           " tail record corrupt");
          }
        }
        for (auto& [id, st] : scans[s].staged) {
          if (st.prepare_seq == 0) {
            st.prepare_seq = log.next_seq() - 1;
          }
        }
      }
      for (const auto& [id, sd] : scans[s].decisions) {
        indexes[s].Add(id, sd.first, sd.second);
      }
    }
    rt.Psync();

    // Cross-shard resolution, exactly Server::ResolveCrossShardTxns: every
    // prepared-but-undecided txn commits iff its coordinator's recovered log
    // holds the sealed decision, else it aborts (staged writes dropped).
    std::vector<txn::ShardTxnView> views(kShards);
    for (uint32_t s = 0; s < kShards; ++s) {
      for (const auto& [id, st] : scans[s].staged) {
        views[s].undecided.emplace_back(id, st.coordinator);
      }
      views[s].decisions = &indexes[s];
      views[s].log_next_seq = logs[s]->next_seq();
    }
    for (const txn::ResolutionAction& a : txn::PlanResolution(views)) {
      if (!a.commit) {
        continue;
      }
      std::vector<repl::ReplOp> writes;
      if (a.repair) {
        // Unreachable single-node (a decision seals only after every prepare
        // Psync retired), but resolve it the way PROMOTE would.
        if (!repl::DecodeBatch(a.repair_writes_frame, &writes)) {
          out->push_back("resolution repair frame corrupt");
          continue;
        }
      } else {
        const auto it = scans[a.shard].staged.find(a.id);
        if (it == scans[a.shard].staged.end()) {
          out->push_back("resolution commit for unstaged txn " +
                         std::to_string(a.id));
          continue;
        }
        writes = it->second.writes;
      }
      txn::ApplyStagedWrites(&rt, backends[a.shard].get(), writes);
    }
    rt.Psync();

    // Oracle: txn i is decided iff the coordinator's recovered log reached
    // the end of op i's coordinator slice — single-shard: the combined
    // record; cross-shard: prepare + decision. Everything it wrote must be
    // visible on every participant; an undecided txn must have no effect.
    std::vector<bool> decided(n, false);
    for (size_t i = 0; i < n; ++i) {
      const uint32_t coord = txns_[i].parts[0].shard;
      decided[i] = logs[coord]->next_seq() - 1 >= cum_[coord][i + 1];
    }
    std::map<std::string, std::string> expected[kShards];
    for (size_t i = 0; i < n; ++i) {
      if (!decided[i]) {
        continue;
      }
      for (const Part& p : txns_[i].parts) {
        for (const repl::ReplOp& w : p.writes) {
          if (w.kind == repl::ReplOp::Kind::kDel) {
            expected[p.shard].erase(w.key);
          } else {
            expected[p.shard][w.key] =
                w.record.fields.empty() ? std::string("<empty>")
                                        : w.record.fields[0];
          }
        }
      }
    }
    for (uint32_t s = 0; s < kShards; ++s) {
      std::map<std::string, std::string> got = StoreValues(*backends[s], out);
      for (const auto& [k, v] : expected[s]) {
        const auto it = got.find(k);
        if (it == got.end()) {
          out->push_back("atomicity: shard " + std::to_string(s) +
                         " lost decided-txn key " + k + " (partial apply)");
        } else if (it->second != v) {
          out->push_back("atomicity: shard " + std::to_string(s) + " key " +
                         k + " has '" + it->second + "', want '" + v + "'");
        }
      }
      for (const auto& [k, v] : got) {
        if (expected[s].count(k) == 0) {
          out->push_back("atomicity: shard " + std::to_string(s) +
                         " phantom key " + k +
                         " (undecided txn left a store effect)");
        }
      }
    }
    rt.Psync();  // leave the heap quiescent for the checker's I1–I7 audit
  }

 private:
  static repl::ReplLogOptions LogOpts() {
    // Roomy segments: the oracle equates "decided" with "record retained",
    // so the sweep must never truncate a record it still reasons about.
    repl::ReplLogOptions o;
    o.segment_bytes = 32768;
    o.max_segments = 8;
    return o;
  }
  static std::string StoreRoot(uint32_t s) { return "shard" + std::to_string(s); }
  static std::string LogRoot(uint32_t s) { return "txnlog" + std::to_string(s); }

  void AppendRecord(JnvmRuntime& rt, uint32_t s, const std::string& frame) {
    rt.heap().BeginGroupCommit();
    logs_[s]->Append(logs_[s]->next_seq(), frame);
    rt.heap().EndGroupCommit();
    rt.Psync();  // the record is sealed exactly here
  }

  void ApplyWrites(JnvmRuntime& rt, uint32_t s,
                   const std::vector<repl::ReplOp>& writes) {
    rt.heap().BeginGroupCommit();
    txn::ApplyStagedWrites(&rt, shards_[s].get(), writes);
    rt.heap().EndGroupCommit();
    rt.Psync();
    rt.DrainGroupFrees();
  }

  std::string name_;
  std::vector<Txn> txns_;
  std::vector<std::string> recs_[kShards];  // per-shard record frames, in order
  std::vector<uint64_t> cum_[kShards];      // records through op i (index i+1)
  std::vector<Handle<server::KvMap>> shards_;
  std::vector<std::unique_ptr<repl::ReplLog>> logs_;
};

// ---- Cluster slot-migration workload (DESIGN.md §10) -------------------------
//
// Models a live slot handoff end to end with BOTH sides' persistent state in
// one heap: two ClusterState roots (source node 0, destination node 1) plus
// one J-PDT backend per side. The script is the migration protocol laid out
// as checker ops — source writes, StartImporting/StartMigrating, the copy
// stream, catch-up writes, EnterHandoff, the post-freeze drain, CommitImport
// (THE commit point), FinishMigration, then post-migration writes routed to
// the new owner — so the sweep crashes inside every persistence point of the
// state machine, including the multi-line owner-range rewrites.
//
// Oracle: recovery must land the two slot tables in a state the crash cut
// allows (migrating rolls back, handoff stays frozen until an owner word
// proves the flip, a committed import owns the range), no slot may ever be
// served by both nodes (split-brain), and each side's store must equal the
// DRAM replay of its committed ops with the usual old-or-new allowance for
// the one in-flight op.

class MigrateWorkload final : public Workload {
 public:
  static constexpr uint32_t kLo = 0;
  static constexpr uint32_t kHi = 8191;  // half the slot space moves

  enum class Kind : uint8_t {
    kSrcPut,        // client write at the source (pre-handoff owner)
    kDstPut,        // client write at the destination (post-commit owner)
    kCopy,          // MIGAPPLY: ship one key's current value to the dest
    kStartImport,   // dest: MIGSTART accepted
    kStartMigrate,  // source: migration record persisted
    kHandoff,       // source: range frozen
    kCommit,        // dest: owner flip — the migration's commit point
    kFinish,        // source: owner flip + record clear
  };
  struct Op {
    Kind kind;
    std::string key;
    std::string value;
  };

  MigrateWorkload(uint64_t seed, size_t n) : name_("migrate") {
    Xorshift rng(seed);
    // Small key pool spanning both sides of the range boundary.
    std::vector<std::string> pool;
    std::vector<std::string> pool_in;
    for (int i = 0; i < 12; ++i) {
      pool.push_back("mk" + std::to_string(i));
      if (InRange(pool.back())) {
        pool_in.push_back(pool.back());
      }
    }
    JNVM_CHECK(!pool_in.empty() && pool_in.size() < pool.size());

    std::map<std::string, std::string> src;  // build-time value model
    std::set<std::string> dirty;             // in-range keys not yet shipped
    size_t opno = 0;
    auto value = [&](const std::string& k) {
      return "v" + std::to_string(opno) + ":" + k;
    };
    auto src_put = [&](const std::string& k) {
      const std::string v = value(k);
      script_.push_back(Op{Kind::kSrcPut, k, v});
      src[k] = v;
      if (InRange(k)) {
        dirty.insert(k);
      }
      ++opno;
    };
    auto copy_dirty = [&]() {
      for (const std::string& k : dirty) {  // std::set: deterministic order
        script_.push_back(Op{Kind::kCopy, k, src[k]});
        ++opno;
      }
      dirty.clear();
    };

    const size_t chunk = n / 3 + 2;
    for (size_t i = 0; i < chunk; ++i) {  // steady state before the move
      src_put(pool[rng.NextBelow(pool.size())]);
    }
    script_.push_back(Op{Kind::kStartImport, {}, {}});
    script_.push_back(Op{Kind::kStartMigrate, {}, {}});
    opno += 2;
    copy_dirty();  // snapshot copy of every live in-range key
    for (size_t i = 0; i < chunk; ++i) {  // writes racing the copy stream
      src_put(pool[rng.NextBelow(pool.size())]);
    }
    copy_dirty();  // catch-up round
    src_put(pool_in[0]);  // late writes the post-freeze drain must ship
    src_put(pool_in[pool_in.size() - 1]);
    script_.push_back(Op{Kind::kHandoff, {}, {}});
    ++opno;
    copy_dirty();  // the drain: tail records shipped after the freeze
    script_.push_back(Op{Kind::kCommit, {}, {}});
    script_.push_back(Op{Kind::kFinish, {}, {}});
    opno += 2;
    for (size_t i = 0; i < chunk; ++i) {  // the new owner takes the writes
      const std::string& k = pool[rng.NextBelow(pool.size())];
      if (InRange(k)) {
        script_.push_back(Op{Kind::kDstPut, k, value(k)});
        ++opno;
      } else {
        src_put(k);
      }
    }
  }

  const std::string& name() const override { return name_; }
  size_t op_count() const override { return script_.size(); }

  void Setup(JnvmRuntime& rt) override {
    src_cs_.reset();
    dst_cs_.reset();
    src_be_.reset();
    dst_be_.reset();
    src_cs_ = cluster::ClusterState::Bind(&rt, "cluster.src", 0, "src:1");
    dst_cs_ = cluster::ClusterState::Bind(&rt, "cluster.dst", 1, "dst:2");
    std::string err;
    for (cluster::ClusterState* cs : {src_cs_.get(), dst_cs_.get()}) {
      JNVM_CHECK(cs->Meet(0, "src:1", &err));
      JNVM_CHECK(cs->Meet(1, "dst:2", &err));
      JNVM_CHECK(cs->AssignRange(0, cluster::kNumSlots - 1, 0, &err));
    }
    src_be_ = OpenStore(rt, "mig.src");
    dst_be_ = OpenStore(rt, "mig.dst");
    rt.Psync();
  }

  void RunOp(JnvmRuntime& rt, size_t i) override {
    const Op& op = script_[i];
    std::string err;
    switch (op.kind) {
      case Kind::kSrcPut:
      case Kind::kDstPut:
      case Kind::kCopy: {
        server::KvMap* b =
            op.kind == Kind::kSrcPut ? src_be_.get() : dst_be_.get();
        rt.heap().BeginGroupCommit();
        store::Record r;
        r.fields.push_back(op.value);
        b->Put(op.key, r);
        rt.heap().EndGroupCommit();
        rt.Psync();
        rt.DrainGroupFrees();
        return;
      }
      case Kind::kStartImport:
        JNVM_CHECK(dst_cs_->StartImporting(kLo, kHi, 0, &err));
        return;
      case Kind::kStartMigrate:
        JNVM_CHECK(src_cs_->StartMigrating(kLo, kHi, 1, &err));
        return;
      case Kind::kHandoff:
        JNVM_CHECK(src_cs_->EnterHandoff(&err));
        return;
      case Kind::kCommit:
        JNVM_CHECK(dst_cs_->CommitImport(kLo, kHi, src_cs_->epoch() + 1, &err));
        return;
      case Kind::kFinish:
        JNVM_CHECK(src_cs_->FinishMigration(&err));
        return;
    }
  }

  void Check(JnvmRuntime& rt, const CrashCut& cut,
             std::vector<std::string>* out) override {
    // Re-binding runs RecoverLocked — the migration-record recovery rules
    // under test (rollback of `migrating`, frozen or rolled-forward
    // `handoff`, preserved `importing`).
    auto src_cs = cluster::ClusterState::Bind(&rt, "cluster.src", 0, "src:1");
    auto dst_cs = cluster::ClusterState::Bind(&rt, "cluster.dst", 1, "dst:2");
    if (src_cs == nullptr || dst_cs == nullptr) {
      out->push_back("cluster meta root lost");
      return;
    }

    // Recovery may leave only these machine states on each side.
    const cluster::MigState sm = src_cs->mig_state();
    if (sm != cluster::MigState::kNone && sm != cluster::MigState::kHandoff) {
      out->push_back("source recovered in state " +
                     std::to_string(static_cast<uint32_t>(sm)) +
                     " (migrating must roll back)");
    }
    const cluster::MigState dm = dst_cs->mig_state();
    if (dm != cluster::MigState::kNone && dm != cluster::MigState::kImporting) {
      out->push_back("destination recovered in state " +
                     std::to_string(static_cast<uint32_t>(dm)));
    }

    // Fingerprint the recovered tables and match them against the states
    // the cut allows. State-transition ops never change the value maps and
    // writes never change the fingerprint, so the two judgements are
    // independent.
    const State s0 = StateAfter(cut.committed);
    const Op* inflight = cut.in_flight.has_value() &&
                                 *cut.in_flight < script_.size()
                             ? &script_[*cut.in_flight]
                             : nullptr;
    const int src_fp = sm == cluster::MigState::kHandoff ? 1
                       : src_cs->OwnsRange(kLo, kHi)     ? 0
                                                         : 2;
    const int dst_fp = dst_cs->OwnsRange(kLo, kHi) ? 1 : 0;
    bool fp_ok = src_fp == SrcFp(s0) && dst_fp == DstFp(s0);
    if (!fp_ok && inflight != nullptr) {
      const State s1 = StateAfter(*cut.in_flight + 1);
      fp_ok = src_fp == SrcFp(s1) && dst_fp == DstFp(s1);
    }
    if (!fp_ok) {
      out->push_back("slot tables recovered to (src=" +
                     std::to_string(src_fp) + ", dst=" +
                     std::to_string(dst_fp) + "), cut at " +
                     std::to_string(cut.committed) + " allows (src=" +
                     std::to_string(SrcFp(s0)) + ", dst=" +
                     std::to_string(DstFp(s0)) + ")");
    }

    // Split-brain audit: no slot may route kLocal on both nodes, ever.
    for (uint32_t s = 0; s < cluster::kNumSlots; ++s) {
      const auto sr = src_cs->Lookup(static_cast<uint16_t>(s), false);
      const auto dr = dst_cs->Lookup(static_cast<uint16_t>(s), false);
      if (sr.action == cluster::Route::Action::kLocal &&
          dr.action == cluster::Route::Action::kLocal) {
        out->push_back("SPLIT BRAIN: slot " + std::to_string(s) +
                       " served by both nodes");
        return;
      }
    }

    // Value oracle per side: the recovered store equals the committed
    // replay, old-or-new for the in-flight op's key.
    CheckSide(rt, "mig.src", s0.src, InflightFor(inflight, /*src=*/true), out);
    CheckSide(rt, "mig.dst", s0.dst, InflightFor(inflight, /*src=*/false), out);
  }

 private:
  static bool InRange(const std::string& key) {
    const uint16_t s = cluster::SlotForKey(key);
    return s >= kLo && s <= kHi;
  }

  struct State {
    std::map<std::string, std::string> src;
    std::map<std::string, std::string> dst;
    bool handoff = false;
    bool committed = false;
    bool finished = false;
  };

  State StateAfter(size_t j) const {
    State st;
    for (size_t i = 0; i < j && i < script_.size(); ++i) {
      const Op& op = script_[i];
      switch (op.kind) {
        case Kind::kSrcPut:
          st.src[op.key] = op.value;
          break;
        case Kind::kDstPut:
        case Kind::kCopy:
          st.dst[op.key] = op.value;
          break;
        case Kind::kHandoff:
          st.handoff = true;
          break;
        case Kind::kCommit:
          st.committed = true;
          break;
        case Kind::kFinish:
          st.finished = true;
          break;
        default:
          break;
      }
    }
    return st;
  }

  // Source table after recovery: 0 = owns the range and serves it (an
  // interrupted `migrating` rolls back here), 1 = frozen in handoff,
  // 2 = flipped to the peer.
  static int SrcFp(const State& s) {
    return s.finished ? 2 : (s.handoff ? 1 : 0);
  }
  // Destination table: 1 once the import committed.
  static int DstFp(const State& s) { return s.committed ? 1 : 0; }

  // The in-flight op's key on this side, if any (old-or-new allowance).
  static const Op* InflightFor(const Op* inflight, bool src) {
    if (inflight == nullptr) {
      return nullptr;
    }
    const bool on_src = inflight->kind == Kind::kSrcPut;
    const bool on_dst =
        inflight->kind == Kind::kDstPut || inflight->kind == Kind::kCopy;
    return (src ? on_src : on_dst) ? inflight : nullptr;
  }

  static void CheckSide(JnvmRuntime& rt, const std::string& root,
                        const std::map<std::string, std::string>& want,
                        const Op* inflight, std::vector<std::string>* out) {
    if (!rt.root().Exists(root)) {
      out->push_back("store root " + root + " lost");
      return;
    }
    const std::map<std::string, std::string> got =
        StoreValues(*OpenStore(rt, root), out);
    for (const auto& [k, v] : want) {
      if (inflight != nullptr && inflight->key == k) {
        continue;  // judged below
      }
      const auto it = got.find(k);
      if (it == got.end()) {
        out->push_back(root + ": committed key " + k + " lost");
      } else if (it->second != v) {
        out->push_back(root + ": key " + k + " has '" + it->second +
                       "', want '" + v + "'");
      }
    }
    for (const auto& [k, v] : got) {
      if (want.count(k) == 0 && (inflight == nullptr || inflight->key != k)) {
        out->push_back(root + ": phantom key " + k);
      }
    }
    if (inflight != nullptr) {
      const auto it = got.find(inflight->key);
      const auto old_it = want.find(inflight->key);
      if (it == got.end()) {
        if (old_it != want.end()) {
          out->push_back(root + ": in-flight put erased key " + inflight->key);
        }
      } else {
        const bool is_old = old_it != want.end() && it->second == old_it->second;
        const bool is_new = it->second == inflight->value;
        if (!is_old && !is_new) {
          out->push_back(root + ": in-flight op left torn value '" +
                         it->second + "' for key " + inflight->key);
        }
      }
    }
  }

  std::string name_;
  std::vector<Op> script_;
  std::unique_ptr<cluster::ClusterState> src_cs_;
  std::unique_ptr<cluster::ClusterState> dst_cs_;
  Handle<server::KvMap> src_be_;
  Handle<server::KvMap> dst_be_;
};

}  // namespace

std::vector<std::string> WorkloadKinds() {
  return {"map-hash", "map-tree",   "map-skip", "map-long", "map-kv", "set",
          "array",    "string",     "pfa",      "server",   "repl",
          "repl-apply", "wait",     "read-your-writes",       "txn",
          "migrate",  "ckpt"};
}

std::unique_ptr<Workload> MakeWorkload(const std::string& kind,
                                       uint64_t script_seed, size_t op_count) {
  // Recovery types every live object by its registered class: register the
  // shard store before any workload opens a heap, not on first use.
  server::KvMap::Class();
  server::KvEntry::Class();
  if (kind == "map-hash") {
    return std::make_unique<MapWorkload<pdt::PStringHashMap>>("map-hash",
                                                              script_seed, op_count);
  }
  if (kind == "map-tree") {
    return std::make_unique<MapWorkload<pdt::PStringTreeMap>>("map-tree",
                                                              script_seed, op_count);
  }
  if (kind == "map-skip") {
    return std::make_unique<MapWorkload<pdt::PStringSkipListMap>>("map-skip",
                                                                  script_seed, op_count);
  }
  if (kind == "map-long") {
    return std::make_unique<MapWorkload<pdt::PLongHashMap>>("map-long",
                                                            script_seed, op_count);
  }
  if (kind == "map-kv") {
    return std::make_unique<KvMapWorkload>(script_seed, op_count);
  }
  if (kind == "set") {
    return std::make_unique<SetWorkload>(script_seed, op_count);
  }
  if (kind == "array") {
    return std::make_unique<ArrayWorkload>(script_seed, op_count);
  }
  if (kind == "string") {
    return std::make_unique<RootStringWorkload>("string", script_seed, op_count,
                                                /*faulty=*/false);
  }
  if (kind == "pfa") {
    return std::make_unique<PfaWorkload>(script_seed, op_count);
  }
  if (kind == "server") {
    return std::make_unique<ServerWorkload>(script_seed, op_count);
  }
  if (kind == "repl" || kind == "ckpt") {
    return std::make_unique<PrimaryWorkload>(kind, script_seed, op_count,
                                             /*ckpt=*/kind == "ckpt");
  }
  if (kind == "repl-apply") {
    return std::make_unique<FollowerWorkload>(kind, script_seed, op_count,
                                              FollowerWorkload::Mode::kResync);
  }
  if (kind == "wait") {
    return std::make_unique<FollowerWorkload>(kind, script_seed, op_count,
                                              FollowerWorkload::Mode::kAcks);
  }
  if (kind == "read-your-writes") {
    return std::make_unique<FollowerWorkload>(kind, script_seed, op_count,
                                              FollowerWorkload::Mode::kSessions);
  }
  if (kind == "txn") {
    return std::make_unique<TxnWorkload>(script_seed, op_count);
  }
  if (kind == "migrate") {
    return std::make_unique<MigrateWorkload>(script_seed, op_count);
  }
  JNVM_CHECK_MSG(false, ("unknown crashcheck workload: " + kind).c_str());
  return nullptr;
}

std::unique_ptr<Workload> MakeFaultyWorkload(uint64_t script_seed, size_t op_count) {
  return std::make_unique<RootStringWorkload>("faulty-string", script_seed,
                                              op_count, /*faulty=*/true);
}

}  // namespace jnvm::crashcheck
