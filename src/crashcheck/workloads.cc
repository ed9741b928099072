#include "src/crashcheck/workloads.h"

#include <algorithm>
#include <map>
#include <set>

#include "src/ckpt/ckpt_meta.h"
#include "src/cluster/meta.h"
#include "src/cluster/slot_map.h"
#include "src/common/rand.h"
#include "src/pdt/pext_array.h"
#include "src/pdt/pmap.h"
#include "src/pdt/pstring.h"
#include "src/repl/frame.h"
#include "src/repl/repl_log.h"
#include "src/server/kv_map.h"
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

// ---- Server workload ---------------------------------------------------------
//
// Models the network server's fence-batching path (src/server): commands are
// routed to per-shard J-PDT stores by server::ShardFor, executed in groups
// under Heap::BeginGroupCommit (durability fences elided), sealed by one
// Psync, and only then are the batch's deferred frees drained — exactly the
// Shard::WorkerLoop sequence. One checker "op" is one whole batch.
//
// Oracle (group-commit contract): every sealed batch is fully visible; each
// command of the in-flight batch is independently old-or-new (its elided
// durability fence means it may not have survived, but the retained
// ordering fences forbid torn values); nothing else may differ. Keys are
// distinct within a batch so "old-or-new" is well defined per key.

class ServerWorkload final : public Workload {
 public:
  static constexpr uint32_t kShards = 4;
  static constexpr uint32_t kBatch = 4;

  struct Cmd {
    bool remove = false;
    std::string key;
    std::string value;
  };

  ServerWorkload(uint64_t seed, size_t n) : name_("server") {
    Xorshift rng(seed);
    std::set<std::string> live;
    script_.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      std::vector<Cmd> batch;
      std::set<std::string> used;  // keys distinct within a batch
      for (uint32_t j = 0; j < kBatch; ++j) {
        std::string key;
        do {
          key = "k" + std::to_string(rng.NextBelow(12));
        } while (used.count(key) != 0);
        used.insert(key);
        if (live.count(key) != 0 && rng.NextBelow(4) == 0) {
          batch.push_back(Cmd{true, key, {}});
          live.erase(key);
        } else {
          batch.push_back(
              Cmd{false, key, ValueFor(i * kBatch + j, rng.NextBelow(6) == 0)});
          live.insert(key);
        }
      }
      script_.push_back(std::move(batch));
    }
  }

  const std::string& name() const override { return name_; }
  size_t op_count() const override { return script_.size(); }

  void Setup(JnvmRuntime& rt) override {
    shards_.clear();
    for (uint32_t s = 0; s < kShards; ++s) {
      shards_.push_back(OpenStore(rt, RootName(s)));
    }
    rt.Psync();
  }

  void RunOp(JnvmRuntime& rt, size_t i) override {
    rt.heap().BeginGroupCommit();
    for (const Cmd& c : script_[i]) {
      server::KvMap* b = shards_[server::ShardFor(c.key, kShards)].get();
      if (c.remove) {
        b->Remove(c.key);
      } else {
        store::Record r;
        r.fields.push_back(c.value);
        b->Put(c.key, r);
      }
    }
    rt.heap().EndGroupCommit();
    rt.Psync();  // the batch's single durability point
    rt.DrainGroupFrees();
  }

  void Check(JnvmRuntime& rt, const CrashCut& cut,
             std::vector<std::string>* out) override {
    // Oracle state: the sealed batches, replayed in DRAM.
    std::map<std::string, std::string> expected;
    for (size_t i = 0; i < cut.committed; ++i) {
      for (const Cmd& c : script_[i]) {
        if (c.remove) {
          expected.erase(c.key);
        } else {
          expected[c.key] = c.value;
        }
      }
    }
    const std::vector<Cmd>* inflight =
        cut.in_flight.has_value() && *cut.in_flight < script_.size()
            ? &script_[*cut.in_flight]
            : nullptr;

    std::map<std::string, std::string> got;
    for (uint32_t s = 0; s < kShards; ++s) {
      if (!rt.root().Exists(RootName(s))) {
        out->push_back("shard root binding " + RootName(s) + " lost");
        return;
      }
      for (const auto& [k, v] : StoreValues(*OpenStore(rt, RootName(s)), out)) {
        got[k] = v;
        if (server::ShardFor(k, kShards) != s) {
          out->push_back("key " + k + " found on shard " + std::to_string(s) +
                         ", routed to " +
                         std::to_string(server::ShardFor(k, kShards)));
        }
      }
    }

    auto inflight_cmd = [&](const std::string& k) -> const Cmd* {
      if (inflight == nullptr) {
        return nullptr;
      }
      for (const Cmd& c : *inflight) {
        if (c.key == k) {
          return &c;
        }
      }
      return nullptr;
    };

    for (const auto& [k, v] : expected) {
      const Cmd* c = inflight_cmd(k);
      if (c != nullptr) {
        continue;  // judged below
      }
      auto it = got.find(k);
      if (it == got.end()) {
        out->push_back("sealed-batch key " + k + " lost");
      } else if (it->second != v) {
        out->push_back("sealed-batch key " + k + " has value '" + it->second +
                       "', want '" + v + "'");
      }
    }
    for (const auto& [k, v] : got) {
      if (expected.count(k) == 0 && inflight_cmd(k) == nullptr) {
        out->push_back("phantom key " + k);
      }
    }
    if (inflight != nullptr) {
      // Each in-flight command independently old-or-new, never torn.
      for (const Cmd& c : *inflight) {
        const auto it = got.find(c.key);
        const auto old_it = expected.find(c.key);
        if (it == got.end()) {
          if (!c.remove && old_it != expected.end()) {
            out->push_back("in-flight batch erased pre-existing key " + c.key);
          }
          continue;  // absent: old-absent, removed, or unsurvived put
        }
        const bool is_old = old_it != expected.end() && it->second == old_it->second;
        const bool is_new = !c.remove && it->second == c.value;
        if (!is_old && !is_new) {
          out->push_back("in-flight batch left torn value '" + it->second +
                         "' for key " + c.key);
        }
      }
    }
  }

 private:
  static std::string RootName(uint32_t s) {
    return "shard" + std::to_string(s);
  }

  std::string name_;
  std::vector<std::vector<Cmd>> script_;
  std::vector<Handle<server::KvMap>> shards_;
};

// ---- Replication workloads (DESIGN.md §8) ------------------------------------
//
// "repl" models the *primary* produce path: each checker op is one
// group-commit batch that mutates per-shard J-PDT stores AND appends the
// batch's replication record to each touched shard's durable ReplLog —
// store, log and (in the real server) client replies all sealed by the
// batch's one Psync, exactly Shard::WorkerLoop. Tiny segments force the
// ring through rollover, truncation and the oversized-record path.
//
// Oracle: per shard, the recovered log retains sealed_s records with
// sealed_s ∈ {c_s, c_s + 1} — c_s sealed batches, plus possibly the
// in-flight batch's record when its lines happened to survive; every
// retained record must byte-match the script's frame. After the redo tail
// (Shard::Open re-applies the last retained record) the store must equal
// the replay of exactly sealed_s batches, with the usual old-or-new
// allowance for keys of an *unsealed* in-flight batch.

class ReplWorkload final : public Workload {
 public:
  static constexpr uint32_t kShards = 2;
  static constexpr uint32_t kBatch = 3;

  struct Cmd {
    bool remove = false;
    std::string key;
    std::string value;
  };

  ReplWorkload(uint64_t seed, size_t n) : name_("repl") {
    Xorshift rng(seed);
    std::set<std::string> live;
    script_.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      std::vector<Cmd> batch;
      std::set<std::string> used;
      for (uint32_t j = 0; j < kBatch; ++j) {
        std::string key;
        do {
          key = "k" + std::to_string(rng.NextBelow(10));
        } while (used.count(key) != 0);
        used.insert(key);
        if (live.count(key) != 0 && rng.NextBelow(4) == 0) {
          batch.push_back(Cmd{true, key, {}});
          live.erase(key);
        } else {
          batch.push_back(
              Cmd{false, key, ValueFor(i * kBatch + j, rng.NextBelow(6) == 0)});
          live.insert(key);
        }
      }
      script_.push_back(std::move(batch));
    }
    // Pre-encode each batch's per-shard replication frame; `touches_[s]` is
    // the list of batch indices whose frame lands on shard s — entry m of it
    // is the batch sealed as shard-s record m+1.
    for (uint32_t s = 0; s < kShards; ++s) {
      touches_[s].clear();
      frames_[s].clear();
    }
    for (size_t i = 0; i < script_.size(); ++i) {
      std::vector<repl::ReplOp> rops[kShards];
      for (const Cmd& c : script_[i]) {
        repl::ReplOp op;
        op.kind = c.remove ? repl::ReplOp::Kind::kDel : repl::ReplOp::Kind::kPut;
        op.key = c.key;
        if (!c.remove) {
          op.record.fields.push_back(c.value);
        }
        rops[server::ShardFor(c.key, kShards)].push_back(std::move(op));
      }
      for (uint32_t s = 0; s < kShards; ++s) {
        if (!rops[s].empty()) {
          touches_[s].push_back(i);
          std::string f;
          repl::EncodeBatch(rops[s], &f);
          frames_[s].push_back(std::move(f));
        }
      }
    }
  }

  const std::string& name() const override { return name_; }
  size_t op_count() const override { return script_.size(); }

  void Setup(JnvmRuntime& rt) override {
    shards_.clear();
    logs_.clear();
    for (uint32_t s = 0; s < kShards; ++s) {
      shards_.push_back(OpenStore(rt, StoreRoot(s)));
      logs_.push_back(repl::ReplLog::OpenOrCreate(&rt, LogRoot(s), TinyLog()));
    }
    rt.Psync();
  }

  void RunOp(JnvmRuntime& rt, size_t i) override {
    rt.heap().BeginGroupCommit();
    bool touched[kShards] = {};
    for (const Cmd& c : script_[i]) {
      const uint32_t s = server::ShardFor(c.key, kShards);
      touched[s] = true;
      if (c.remove) {
        shards_[s]->Remove(c.key);
      } else {
        store::Record r;
        r.fields.push_back(c.value);
        shards_[s]->Put(c.key, r);
      }
    }
    for (uint32_t s = 0; s < kShards; ++s) {
      if (touched[s]) {
        const size_t rec = logs_[s]->next_seq() - 1;  // 0-based record index
        logs_[s]->Append(logs_[s]->next_seq(), frames_[s][rec]);
      }
    }
    rt.heap().EndGroupCommit();
    rt.Psync();  // seals the store mutations and the log records together
    rt.DrainGroupFrees();
  }

  void Check(JnvmRuntime& rt, const CrashCut& cut,
             std::vector<std::string>* out) override {
    const std::vector<Cmd>* inflight =
        cut.in_flight.has_value() && *cut.in_flight < script_.size()
            ? &script_[*cut.in_flight]
            : nullptr;

    for (uint32_t s = 0; s < kShards; ++s) {
      auto log = repl::ReplLog::OpenOrCreate(&rt, LogRoot(s), TinyLog());
      if (log->needs_snapshot()) {
        out->push_back("shard " + std::to_string(s) +
                       " log reports needs_snapshot on a primary");
        continue;
      }
      // Sealed boundary: c_s committed records, +1 only if the in-flight
      // batch touched this shard and its record's lines survived.
      const uint64_t c_s = CountTouches(s, cut.committed);
      const bool inflight_touches =
          inflight != nullptr && CountTouches(s, *cut.in_flight + 1) > c_s;
      const uint64_t sealed = log->next_seq() - 1;
      if (sealed != c_s && !(inflight_touches && sealed == c_s + 1)) {
        out->push_back("shard " + std::to_string(s) + " log retains " +
                       std::to_string(sealed) + " records, want " +
                       std::to_string(c_s) +
                       (inflight_touches ? " or +1" : ""));
        continue;
      }
      // Every retained record must byte-match the script's frame.
      std::string payload;
      for (uint64_t q = log->start_seq(); q < log->next_seq(); ++q) {
        if (!log->Read(q, &payload)) {
          out->push_back("shard " + std::to_string(s) + " record " +
                         std::to_string(q) + " unreadable");
        } else if (payload != frames_[s][q - 1]) {
          out->push_back("shard " + std::to_string(s) + " record " +
                         std::to_string(q) + " does not match the script");
        }
      }
      // Redo tail (Shard::Open): re-apply the last retained record so the
      // store lands exactly on the sealed boundary.
      auto backend = OpenStore(rt, StoreRoot(s));
      if (!log->empty() && log->Read(log->next_seq() - 1, &payload)) {
        std::vector<repl::ReplOp> rops;
        if (!repl::DecodeBatch(payload, &rops)) {
          out->push_back("shard " + std::to_string(s) + " tail record corrupt");
        } else {
          ApplyOps(*backend, rops);
        }
      }

      // Store oracle for this shard's keys.
      std::map<std::string, std::string> expected;
      for (uint64_t m = 0; m < sealed; ++m) {
        for (const Cmd& c : script_[touches_[s][m]]) {
          if (server::ShardFor(c.key, kShards) != s) {
            continue;
          }
          if (c.remove) {
            expected.erase(c.key);
          } else {
            expected[c.key] = c.value;
          }
        }
      }
      // Keys of an *unsealed* in-flight batch are individually old-or-new;
      // a sealed in-flight record was forced by the redo above.
      const bool inflight_unsealed = inflight_touches && sealed == c_s;

      std::map<std::string, std::string> got = StoreValues(*backend, out);

      auto inflight_cmd = [&](const std::string& k) -> const Cmd* {
        if (!inflight_unsealed) {
          return nullptr;
        }
        for (const Cmd& c : *inflight) {
          if (c.key == k && server::ShardFor(c.key, kShards) == s) {
            return &c;
          }
        }
        return nullptr;
      };
      for (const auto& [k, v] : expected) {
        if (inflight_cmd(k) != nullptr) {
          continue;
        }
        const auto it = got.find(k);
        if (it == got.end()) {
          out->push_back("shard " + std::to_string(s) + " sealed key " + k +
                         " lost");
        } else if (it->second != v) {
          out->push_back("shard " + std::to_string(s) + " sealed key " + k +
                         " has '" + it->second + "', want '" + v + "'");
        }
      }
      for (const auto& [k, v] : got) {
        if (expected.count(k) == 0 && inflight_cmd(k) == nullptr) {
          out->push_back("shard " + std::to_string(s) + " phantom key " + k);
        }
      }
      if (inflight_unsealed) {
        for (const Cmd& c : *inflight) {
          if (server::ShardFor(c.key, kShards) != s) {
            continue;
          }
          const auto it = got.find(c.key);
          const auto old_it = expected.find(c.key);
          if (it == got.end()) {
            if (!c.remove && old_it != expected.end()) {
              out->push_back("in-flight batch erased pre-existing key " + c.key);
            }
            continue;
          }
          const bool is_old =
              old_it != expected.end() && it->second == old_it->second;
          const bool is_new = !c.remove && it->second == c.value;
          if (!is_old && !is_new) {
            out->push_back("in-flight batch left torn value '" + it->second +
                           "' for key " + c.key);
          }
        }
      }
    }
    rt.Psync();  // leave the heap quiescent for the checker's I1–I7 audit
  }

 private:
  static repl::ReplLogOptions TinyLog() {
    repl::ReplLogOptions o;
    o.segment_bytes = 256;  // forces rollover, truncation and oversized records
    o.max_segments = 3;
    return o;
  }
  static std::string StoreRoot(uint32_t s) { return "shard" + std::to_string(s); }
  static std::string LogRoot(uint32_t s) { return "repl" + std::to_string(s); }

  uint64_t CountTouches(uint32_t s, size_t batches) const {
    uint64_t n = 0;
    for (const size_t b : touches_[s]) {
      n += b < batches ? 1 : 0;
    }
    return n;
  }

  static void ApplyOps(server::KvMap& b, const std::vector<repl::ReplOp>& rops) {
    for (const repl::ReplOp& op : rops) {
      switch (op.kind) {
        case repl::ReplOp::Kind::kPut:
          b.Put(op.key, op.record);
          break;
        case repl::ReplOp::Kind::kDel:
          b.Remove(op.key);
          break;
        case repl::ReplOp::Kind::kUpdate:
          b.UpdateField(op.key, op.field, op.value);
          break;
        default:
          break;  // repl scripts carry no txn ops
      }
    }
  }

  std::string name_;
  std::vector<std::vector<Cmd>> script_;
  std::vector<size_t> touches_[kShards];
  std::vector<std::string> frames_[kShards];
  std::vector<Handle<server::KvMap>> shards_;
  std::vector<std::unique_ptr<repl::ReplLog>> logs_;
};

// ---- Checkpoint workload (DESIGN.md §11) ------------------------------------
//
// "ckpt" models the fuzzy-checkpoint + truncation plane: write batches (the
// "repl" produce path, one shard) interleave with checkpoint ops that run
// the finalize sequence of Shard::ExecuteCkpt — Psync (store effects
// durable) → CkptMeta::Publish(begin = next_seq) → Pfence → TruncateBelow —
// inside a group-commit batch, so the checker's sweep crashes at every
// persistence event of the walk accounting, the meta publication and the
// segment unlink/free chain.
//
// Oracle: recovery from (image, tail) must equal full-log replay. The store
// image already holds every sealed batch's effects (that is what the
// pre-publish Psync certifies), so replaying only [replay_from, next) —
// replay_from = min(max(meta.begin, log.start), log.next), exactly
// Shard::Open — must land on the same state as replaying the whole script's
// sealed prefix. A checkpoint that published `begin` before the store
// effects below it were durable shows up as a lost sealed key. Meta fields
// are 8-byte stores: a crash inside Publish exposes per-field old-or-new
// (any mix is safe — recovery reads only BeginSeq, and both bounds are
// valid), so exact-match assertions apply only when the in-flight op is not
// a checkpoint.

class CkptWorkload final : public Workload {
 public:
  static constexpr uint32_t kBatch = 3;
  static constexpr size_t kCkptEvery = 4;  // op i is a checkpoint when i%4==3

  struct Cmd {
    bool remove = false;
    std::string key;
    std::string value;
  };

  CkptWorkload(uint64_t seed, size_t n) : name_("ckpt") {
    Xorshift rng(seed);
    std::map<std::string, std::string> model;
    uint64_t next_rec = 1;
    writes_before_.reserve(n + 1);
    ckpts_before_.reserve(n + 1);
    for (size_t i = 0; i < n; ++i) {
      writes_before_.push_back(next_rec - 1);
      ckpts_before_.push_back(ckpt_begin_.size());
      if (i % kCkptEvery == kCkptEvery - 1) {
        // Checkpoint op: record the pair it will publish and the walk
        // accounting over the model state at this point.
        ckpt_begin_.push_back(next_rec);
        uint64_t keys = 0, bytes = 0;
        for (const auto& [k, v] : model) {
          ++keys;
          bytes += k.size() + v.size();
        }
        ckpt_walked_keys_.push_back(keys);
        ckpt_walked_bytes_.push_back(bytes);
        script_.push_back({});  // no commands
        continue;
      }
      std::vector<Cmd> batch;
      std::set<std::string> used;
      for (uint32_t j = 0; j < kBatch; ++j) {
        std::string key;
        do {
          key = "k" + std::to_string(rng.NextBelow(10));
        } while (used.count(key) != 0);
        used.insert(key);
        if (model.count(key) != 0 && rng.NextBelow(4) == 0) {
          batch.push_back(Cmd{true, key, {}});
          model.erase(key);
        } else {
          batch.push_back(
              Cmd{false, key, ValueFor(i * kBatch + j, rng.NextBelow(6) == 0)});
          model[key] = batch.back().value;
        }
      }
      std::vector<repl::ReplOp> rops;
      for (const Cmd& c : batch) {
        repl::ReplOp op;
        op.kind = c.remove ? repl::ReplOp::Kind::kDel : repl::ReplOp::Kind::kPut;
        op.key = c.key;
        if (!c.remove) {
          op.record.fields.push_back(c.value);
        }
        rops.push_back(std::move(op));
      }
      std::string f;
      repl::EncodeBatch(rops, &f);
      frames_.push_back(std::move(f));
      script_.push_back(std::move(batch));
      ++next_rec;
    }
    writes_before_.push_back(next_rec - 1);
    ckpts_before_.push_back(ckpt_begin_.size());
  }

  const std::string& name() const override { return name_; }
  size_t op_count() const override { return script_.size(); }

  void Setup(JnvmRuntime& rt) override {
    backend_ = OpenStore(rt, "store");
    log_ = repl::ReplLog::OpenOrCreate(&rt, "log", TinyLog());
    ckpt::CkptMeta::Class();
    meta_ = std::make_shared<ckpt::CkptMeta>(rt);
    rt.root().Put("ckptmeta", meta_.get());
    rt.Psync();
  }

  void RunOp(JnvmRuntime& rt, size_t i) override {
    if (i % kCkptEvery == kCkptEvery - 1) {
      // The fuzzy walk: snapshot-cursor accounting (no copying — the store
      // IS the image), then the finalize sequence of ExecuteCkpt.
      uint64_t keys = 0, bytes = 0;
      backend_->ForEachRecordIf(
          {}, [&](const std::string& k, const store::Record& r) {
            ++keys;
            bytes += k.size() + r.TotalBytes();
          });
      rt.heap().BeginGroupCommit();
      rt.Psync();  // every sealed batch's store effects durable before begin
      const uint64_t begin = log_->next_seq();
      meta_->Publish(begin, begin - 1, keys, bytes);
      rt.Pfence();  // meta durable before the truncation unlinks
      log_->TruncateBelow(begin);
      rt.heap().EndGroupCommit();
      rt.Psync();  // seals the ring-slot unlinks before the deferred frees
      rt.DrainGroupFrees();
      return;
    }
    rt.heap().BeginGroupCommit();
    for (const Cmd& c : script_[i]) {
      if (c.remove) {
        backend_->Remove(c.key);
      } else {
        store::Record r;
        r.fields.push_back(c.value);
        backend_->Put(c.key, r);
      }
    }
    log_->Append(log_->next_seq(), frames_[writes_before_[i]]);
    rt.heap().EndGroupCommit();
    rt.Psync();
    rt.DrainGroupFrees();
  }

  void Check(JnvmRuntime& rt, const CrashCut& cut,
             std::vector<std::string>* out) override {
    const bool has_inflight =
        cut.in_flight.has_value() && *cut.in_flight < script_.size();
    const bool inflight_ckpt =
        has_inflight && *cut.in_flight % kCkptEvery == kCkptEvery - 1;
    const bool inflight_write = has_inflight && !inflight_ckpt;

    auto log = repl::ReplLog::OpenOrCreate(&rt, "log", TinyLog());
    if (log->needs_snapshot()) {
      out->push_back("log reports needs_snapshot on a primary");
      return;
    }
    ckpt::CkptMeta::Class();
    auto meta = rt.root().GetAs<ckpt::CkptMeta>("ckptmeta");
    if (meta == nullptr) {
      out->push_back("checkpoint meta root binding lost");
      return;
    }

    // Sealed boundary (as in "repl"): committed write batches, +1 only when
    // the in-flight op is a write batch whose record lines survived.
    const uint64_t c_w = writes_before_[cut.committed];
    const uint64_t sealed = log->next_seq() - 1;
    if (sealed != c_w && !(inflight_write && sealed == c_w + 1)) {
      out->push_back("log retains " + std::to_string(sealed) +
                     " records, want " + std::to_string(c_w) +
                     (inflight_write ? " or +1" : ""));
      return;
    }

    // Meta: exact for a cut outside a checkpoint op; per-field old-or-new
    // when the crash fell inside one (Publish is plain 8-byte stores).
    const size_t c_k = ckpts_before_[cut.committed];
    const uint64_t begin_old = c_k == 0 ? 1 : ckpt_begin_[c_k - 1];
    const uint64_t keys_old = c_k == 0 ? 0 : ckpt_walked_keys_[c_k - 1];
    const uint64_t bytes_old = c_k == 0 ? 0 : ckpt_walked_bytes_[c_k - 1];
    if (!inflight_ckpt) {
      if (meta->Count() != c_k || meta->BeginSeq() != begin_old ||
          meta->EndSeq() != begin_old - 1 || meta->WalkedKeys() != keys_old ||
          meta->WalkedBytes() != bytes_old) {
        out->push_back("checkpoint meta mismatch: count=" +
                       std::to_string(meta->Count()) + " begin=" +
                       std::to_string(meta->BeginSeq()) + ", want count=" +
                       std::to_string(c_k) + " begin=" +
                       std::to_string(begin_old));
      }
    } else {
      const uint64_t begin_new = ckpt_begin_[c_k];
      auto either = [](uint64_t got, uint64_t a, uint64_t b) {
        return got == a || got == b;
      };
      if (!either(meta->Count(), c_k, c_k + 1) ||
          !either(meta->BeginSeq(), begin_old, begin_new) ||
          !either(meta->EndSeq(), begin_old - 1, begin_new - 1) ||
          !either(meta->WalkedKeys(), keys_old, ckpt_walked_keys_[c_k]) ||
          !either(meta->WalkedBytes(), bytes_old, ckpt_walked_bytes_[c_k])) {
        out->push_back("in-flight checkpoint left torn meta: count=" +
                       std::to_string(meta->Count()) + " begin=" +
                       std::to_string(meta->BeginSeq()));
      }
    }
    // LSN invariant: whatever begin recovery reads, it clamps inside the
    // retained log — never a replay gap.
    if (meta->BeginSeq() > log->next_seq()) {
      out->push_back("checkpoint begin " + std::to_string(meta->BeginSeq()) +
                     " ahead of log next " + std::to_string(log->next_seq()));
    }

    // Every retained record must byte-match the script's frame.
    std::string payload;
    for (uint64_t q = log->start_seq(); q < log->next_seq(); ++q) {
      if (!log->Read(q, &payload)) {
        out->push_back("record " + std::to_string(q) + " unreadable");
      } else if (payload != frames_[q - 1]) {
        out->push_back("record " + std::to_string(q) +
                       " does not match the script");
      }
    }

    // Recovery = image + tail replay from the clamped checkpoint bound
    // (exactly Shard::Open → RedoLogTail).
    auto backend = OpenStore(rt, "store");
    const uint64_t replay_from = std::min(
        std::max(meta->BeginSeq(), log->start_seq()), log->next_seq());
    for (uint64_t q = replay_from; q < log->next_seq(); ++q) {
      if (!log->Read(q, &payload)) {
        out->push_back("replay record " + std::to_string(q) + " unreadable");
        continue;
      }
      std::vector<repl::ReplOp> rops;
      if (!repl::DecodeBatch(payload, &rops)) {
        out->push_back("replay record " + std::to_string(q) + " corrupt");
        continue;
      }
      for (const repl::ReplOp& op : rops) {
        if (op.kind == repl::ReplOp::Kind::kPut) {
          backend->Put(op.key, op.record);
        } else if (op.kind == repl::ReplOp::Kind::kDel) {
          backend->Remove(op.key);
        }
      }
    }

    // Full-log-replay oracle: the tail-replayed store must equal the state
    // after ALL sealed batches (old-or-new per key for an unsealed
    // in-flight write batch).
    std::map<std::string, std::string> expected;
    {
      uint64_t rec = 0;
      for (size_t i = 0; i < script_.size() && rec < sealed; ++i) {
        if (i % kCkptEvery == kCkptEvery - 1) {
          continue;
        }
        ++rec;
        for (const Cmd& c : script_[i]) {
          if (c.remove) {
            expected.erase(c.key);
          } else {
            expected[c.key] = c.value;
          }
        }
      }
    }
    const std::vector<Cmd>* inflight =
        inflight_write ? &script_[*cut.in_flight] : nullptr;
    const bool inflight_unsealed = inflight != nullptr && sealed == c_w;
    auto inflight_cmd = [&](const std::string& k) -> const Cmd* {
      if (!inflight_unsealed) {
        return nullptr;
      }
      for (const Cmd& c : *inflight) {
        if (c.key == k) {
          return &c;
        }
      }
      return nullptr;
    };

    std::map<std::string, std::string> got = StoreValues(*backend, out);
    for (const auto& [k, v] : expected) {
      if (inflight_cmd(k) != nullptr) {
        continue;
      }
      const auto it = got.find(k);
      if (it == got.end()) {
        out->push_back("sealed key " + k + " lost after tail replay from " +
                       std::to_string(replay_from));
      } else if (it->second != v) {
        out->push_back("sealed key " + k + " has '" + it->second +
                       "', want '" + v + "' after tail replay");
      }
    }
    for (const auto& [k, v] : got) {
      if (expected.count(k) == 0 && inflight_cmd(k) == nullptr) {
        out->push_back("phantom key " + k + " after tail replay");
      }
    }
    if (inflight_unsealed) {
      for (const Cmd& c : *inflight) {
        const auto it = got.find(c.key);
        const auto old_it = expected.find(c.key);
        if (it == got.end()) {
          if (!c.remove && old_it != expected.end()) {
            out->push_back("in-flight batch erased pre-existing key " + c.key);
          }
          continue;
        }
        const bool is_old =
            old_it != expected.end() && it->second == old_it->second;
        const bool is_new = !c.remove && it->second == c.value;
        if (!is_old && !is_new) {
          out->push_back("in-flight batch left torn value '" + it->second +
                         "' for key " + c.key);
        }
      }
    }
    rt.Psync();  // leave the heap quiescent for the checker's I1–I7 audit
  }

 private:
  static repl::ReplLogOptions TinyLog() {
    repl::ReplLogOptions o;
    o.segment_bytes = 256;  // a few records per segment: truncation bites
    o.max_segments = 6;
    return o;
  }

  std::string name_;
  std::vector<std::vector<Cmd>> script_;   // empty vector = checkpoint op
  std::vector<std::string> frames_;        // frames_[seq - 1]
  std::vector<uint64_t> writes_before_;    // write ops among [0, i)
  std::vector<size_t> ckpts_before_;       // ckpt ops among [0, i)
  std::vector<uint64_t> ckpt_begin_;       // per ckpt op: the begin it seals
  std::vector<uint64_t> ckpt_walked_keys_;
  std::vector<uint64_t> ckpt_walked_bytes_;
  Handle<server::KvMap> backend_;
  std::unique_ptr<repl::ReplLog> log_;
  Handle<ckpt::CkptMeta> meta_;
};

// "repl-apply" models the *replica* apply path plus the post-crash resync:
// each checker op applies one shipped record under group commit and mirrors
// it into the local log (Shard::ExecuteApply). Check performs the replica's
// full restart sequence — redo tail, then re-pull every record past the
// sealed boundary (what REPLSYNC from sealed+1 delivers) — and the store
// must land exactly on the full-script state: acknowledged-by-primary data
// survives any replica crash, and re-applying records is idempotent.

class ReplApplyWorkload final : public Workload {
 public:
  static constexpr uint32_t kBatch = 3;

  ReplApplyWorkload(uint64_t seed, size_t n) : name_("repl-apply") {
    Xorshift rng(seed);
    std::set<std::string> live;
    script_.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      std::vector<ReplWorkload::Cmd> batch;
      std::set<std::string> used;
      for (uint32_t j = 0; j < kBatch; ++j) {
        std::string key;
        do {
          key = "k" + std::to_string(rng.NextBelow(10));
        } while (used.count(key) != 0);
        used.insert(key);
        if (live.count(key) != 0 && rng.NextBelow(4) == 0) {
          batch.push_back(ReplWorkload::Cmd{true, key, {}});
          live.erase(key);
        } else {
          batch.push_back(ReplWorkload::Cmd{
              false, key, ValueFor(i * kBatch + j, rng.NextBelow(6) == 0)});
          live.insert(key);
        }
      }
      std::vector<repl::ReplOp> rops;
      for (const ReplWorkload::Cmd& c : batch) {
        repl::ReplOp op;
        op.kind = c.remove ? repl::ReplOp::Kind::kDel : repl::ReplOp::Kind::kPut;
        op.key = c.key;
        if (!c.remove) {
          op.record.fields.push_back(c.value);
        }
        rops.push_back(std::move(op));
      }
      std::string f;
      repl::EncodeBatch(rops, &f);
      frames_.push_back(std::move(f));
      ops_.push_back(std::move(rops));
      script_.push_back(std::move(batch));
    }
  }

  const std::string& name() const override { return name_; }
  size_t op_count() const override { return script_.size(); }

  void Setup(JnvmRuntime& rt) override {
    backend_ = OpenStore(rt, "shard0");
    log_ = repl::ReplLog::OpenOrCreate(&rt, "repl0", TinyLog());
    rt.Psync();
  }

  void RunOp(JnvmRuntime& rt, size_t i) override {
    // Shard::ExecuteApply: apply the record's ops, mirror the record into
    // the local log with the primary's sequence number, one Psync for both.
    rt.heap().BeginGroupCommit();
    Apply(ops_[i]);
    log_->Append(static_cast<uint64_t>(i) + 1, frames_[i]);
    rt.heap().EndGroupCommit();
    rt.Psync();
    rt.DrainGroupFrees();
  }

  void Check(JnvmRuntime& rt, const CrashCut& cut,
             std::vector<std::string>* out) override {
    auto log = repl::ReplLog::OpenOrCreate(&rt, "repl0", TinyLog());
    backend_ = OpenStore(rt, "shard0");
    if (log->needs_snapshot()) {
      out->push_back("log reports needs_snapshot without a snapshot install");
      return;
    }
    const uint64_t c = cut.committed;
    const bool has_inflight =
        cut.in_flight.has_value() && *cut.in_flight < script_.size();
    const uint64_t sealed = log->next_seq() - 1;
    if (sealed != c && !(has_inflight && sealed == c + 1)) {
      out->push_back("log retains " + std::to_string(sealed) +
                     " records, want " + std::to_string(c) +
                     (has_inflight ? " or +1" : ""));
      return;
    }
    std::string payload;
    for (uint64_t q = log->start_seq(); q < log->next_seq(); ++q) {
      if (!log->Read(q, &payload) || payload != frames_[q - 1]) {
        out->push_back("record " + std::to_string(q) +
                       " unreadable or does not match the shipped frame");
      }
    }

    // Restart sequence: redo the tail record, then resync — REPLSYNC from
    // sealed+1 re-delivers every later record; apply them all.
    if (sealed > 0) {
      Apply(ops_[sealed - 1]);  // redo tail
    }
    for (uint64_t q = sealed; q < script_.size(); ++q) {
      Apply(ops_[q]);  // resync stream
    }
    rt.Psync();

    // After redo + resync the store must equal the full-script state.
    std::map<std::string, std::string> expected;
    for (const auto& batch : script_) {
      for (const ReplWorkload::Cmd& cmd : batch) {
        if (cmd.remove) {
          expected.erase(cmd.key);
        } else {
          expected[cmd.key] = cmd.value;
        }
      }
    }
    std::map<std::string, std::string> got = StoreValues(*backend_, out);
    for (const auto& [k, v] : expected) {
      const auto it = got.find(k);
      if (it == got.end()) {
        out->push_back("post-resync key " + k + " lost");
      } else if (it->second != v) {
        out->push_back("post-resync key " + k + " has '" + it->second +
                       "', want '" + v + "'");
      }
    }
    for (const auto& [k, v] : got) {
      if (expected.count(k) == 0) {
        out->push_back("post-resync phantom key " + k);
      }
    }
  }

 private:
  static repl::ReplLogOptions TinyLog() {
    repl::ReplLogOptions o;
    o.segment_bytes = 256;
    o.max_segments = 3;
    return o;
  }

  void Apply(const std::vector<repl::ReplOp>& rops) {
    for (const repl::ReplOp& op : rops) {
      switch (op.kind) {
        case repl::ReplOp::Kind::kPut:
          backend_->Put(op.key, op.record);
          break;
        case repl::ReplOp::Kind::kDel:
          backend_->Remove(op.key);
          break;
        case repl::ReplOp::Kind::kUpdate:
          backend_->UpdateField(op.key, op.field, op.value);
          break;
        default:
          break;  // these scripts carry no txn ops
      }
    }
  }

  std::string name_;
  std::vector<std::vector<ReplWorkload::Cmd>> script_;
  std::vector<std::vector<repl::ReplOp>> ops_;
  std::vector<std::string> frames_;
  Handle<server::KvMap> backend_;
  std::unique_ptr<repl::ReplLog> log_;
};

// "wait" models the WAIT-K ack contract from the follower's side. The
// primary releases a parked batch only after a follower's apply-batch Psync
// retires — the exact event after which the seal hook emits REPLACK. One
// checker op is therefore one *acked unit*: apply the shipped record's ops,
// mirror the record into the local log, one Psync (Shard::ExecuteApply).
//
// The oracle enforces "WAIT-acked implies replayable from the follower's
// log": a committed (= acked to the primary) record missing from the
// recovered log is THE violation — the primary told a client the write
// reached the replica, so no replica crash may lose it. Concretely:
//   * sealed (= log->next_seq()-1) must be >= committed; sealed may exceed
//     it by exactly one when the crash interrupted an op after its append
//     sealed but before the checker observed the fence retire,
//   * every sealed record must byte-match the shipped frame,
//   * redoing the tail record must land the store exactly on the state
//     after `sealed` batches — the in-flight batch's keys may read old or
//     new (its store writes race the crash) but never torn, and no other
//     key may deviate.
class WaitWorkload final : public Workload {
 public:
  static constexpr uint32_t kBatch = 3;

  WaitWorkload(uint64_t seed, size_t n) : name_("wait") {
    Xorshift rng(seed);
    std::set<std::string> live;
    script_.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      std::vector<ReplWorkload::Cmd> batch;
      std::set<std::string> used;
      for (uint32_t j = 0; j < kBatch; ++j) {
        std::string key;
        do {
          key = "k" + std::to_string(rng.NextBelow(10));
        } while (used.count(key) != 0);
        used.insert(key);
        if (live.count(key) != 0 && rng.NextBelow(4) == 0) {
          batch.push_back(ReplWorkload::Cmd{true, key, {}});
          live.erase(key);
        } else {
          batch.push_back(ReplWorkload::Cmd{
              false, key, ValueFor(i * kBatch + j, rng.NextBelow(6) == 0)});
          live.insert(key);
        }
      }
      std::vector<repl::ReplOp> rops;
      for (const ReplWorkload::Cmd& c : batch) {
        repl::ReplOp op;
        op.kind = c.remove ? repl::ReplOp::Kind::kDel : repl::ReplOp::Kind::kPut;
        op.key = c.key;
        if (!c.remove) {
          op.record.fields.push_back(c.value);
        }
        rops.push_back(std::move(op));
      }
      std::string f;
      repl::EncodeBatch(rops, &f);
      frames_.push_back(std::move(f));
      ops_.push_back(std::move(rops));
      script_.push_back(std::move(batch));
    }
  }

  const std::string& name() const override { return name_; }
  size_t op_count() const override { return script_.size(); }

  void Setup(JnvmRuntime& rt) override {
    backend_ = OpenStore(rt, "shard0");
    log_ = repl::ReplLog::OpenOrCreate(&rt, "repl0", TinyLog());
    rt.Psync();
  }

  void RunOp(JnvmRuntime& rt, size_t i) override {
    rt.heap().BeginGroupCommit();
    Apply(ops_[i]);
    log_->Append(static_cast<uint64_t>(i) + 1, frames_[i]);
    rt.heap().EndGroupCommit();
    rt.Psync();  // <- the ack point: after this retires, REPLACK may go out
    rt.DrainGroupFrees();
  }

  void Check(JnvmRuntime& rt, const CrashCut& cut,
             std::vector<std::string>* out) override {
    auto log = repl::ReplLog::OpenOrCreate(&rt, "repl0", TinyLog());
    backend_ = OpenStore(rt, "shard0");
    if (log->needs_snapshot()) {
      out->push_back("log reports needs_snapshot without a snapshot install");
      return;
    }
    const uint64_t c = cut.committed;
    const bool has_inflight =
        cut.in_flight.has_value() && *cut.in_flight < script_.size();
    const uint64_t sealed = log->next_seq() - 1;
    if (sealed < c) {
      out->push_back("acked record lost: log retains " +
                     std::to_string(sealed) + " records but " +
                     std::to_string(c) + " were acked to the primary");
      return;
    }
    if (sealed != c && !(has_inflight && sealed == c + 1)) {
      out->push_back("log retains " + std::to_string(sealed) +
                     " records, want " + std::to_string(c) +
                     (has_inflight ? " or +1" : ""));
      return;
    }
    std::string payload;
    for (uint64_t q = log->start_seq(); q < log->next_seq(); ++q) {
      if (!log->Read(q, &payload) || payload != frames_[q - 1]) {
        out->push_back("acked record " + std::to_string(q) +
                       " unreadable or does not match the shipped frame");
      }
    }

    // Replica restart: redo the tail record, then compare against the state
    // exactly `sealed` batches in.
    if (sealed > 0) {
      Apply(ops_[sealed - 1]);
    }
    rt.Psync();

    std::map<std::string, std::string> expected;
    for (uint64_t b = 0; b < sealed; ++b) {
      for (const ReplWorkload::Cmd& cmd : script_[b]) {
        if (cmd.remove) {
          expected.erase(cmd.key);
        } else {
          expected[cmd.key] = cmd.value;
        }
      }
    }
    // Keys the unsealed in-flight batch touched may be old or new: its
    // store mutations happened before the crash but its record never
    // sealed, so the resync stream will re-deliver it.
    std::map<std::string, const ReplWorkload::Cmd*> inflight;
    if (has_inflight && sealed == c) {
      for (const ReplWorkload::Cmd& cmd : script_[c]) {
        inflight[cmd.key] = &cmd;
      }
    }

    std::map<std::string, std::string> got = StoreValues(*backend_, out);
    std::set<std::string> keys;
    for (const auto& [k, v] : expected) keys.insert(k);
    for (const auto& [k, v] : got) keys.insert(k);
    for (const auto& [k, cmd] : inflight) keys.insert(k);
    for (const std::string& k : keys) {
      const auto eit = expected.find(k);
      const auto git = got.find(k);
      const auto iit = inflight.find(k);
      if (iit != inflight.end()) {
        const bool old_ok = (git == got.end() && eit == expected.end()) ||
                            (git != got.end() && eit != expected.end() &&
                             git->second == eit->second);
        const bool new_ok = iit->second->remove
                                ? git == got.end()
                                : git != got.end() &&
                                      git->second == iit->second->value;
        if (!old_ok && !new_ok) {
          out->push_back("in-flight key " + k + " torn: '" +
                         (git == got.end() ? std::string("<absent>")
                                           : git->second) +
                         "' is neither the pre- nor post-batch value");
        }
        continue;
      }
      if (eit == expected.end()) {
        out->push_back("phantom key " + k + " after replaying acked prefix");
      } else if (git == got.end()) {
        out->push_back("acked key " + k + " lost");
      } else if (git->second != eit->second) {
        out->push_back("acked key " + k + " has '" + git->second +
                       "', want '" + eit->second + "'");
      }
    }
  }

 private:
  static repl::ReplLogOptions TinyLog() {
    repl::ReplLogOptions o;
    o.segment_bytes = 256;
    o.max_segments = 3;
    return o;
  }

  void Apply(const std::vector<repl::ReplOp>& rops) {
    for (const repl::ReplOp& op : rops) {
      switch (op.kind) {
        case repl::ReplOp::Kind::kPut:
          backend_->Put(op.key, op.record);
          break;
        case repl::ReplOp::Kind::kDel:
          backend_->Remove(op.key);
          break;
        case repl::ReplOp::Kind::kUpdate:
          backend_->UpdateField(op.key, op.field, op.value);
          break;
        default:
          break;  // these scripts carry no txn ops
      }
    }
  }

  std::string name_;
  std::vector<std::vector<ReplWorkload::Cmd>> script_;
  std::vector<std::vector<repl::ReplOp>> ops_;
  std::vector<std::string> frames_;
  Handle<server::KvMap> backend_;
  std::unique_ptr<repl::ReplLog> log_;
};

// "read-your-writes" models the session-read contract (DESIGN.md §8) across
// replica crashes: a client holds a MINSEQ token for every write the primary
// acked to it, and a replica may only answer its reads from a state whose
// applied watermark covers the token. Each checker op is one shipped record
// applied and mirrored under one Psync — the exact event after which
// Shard::PublishReplStats advances the watermark and parked session reads
// are released. The crash cuts at every persistence event inside that op.
//
// Oracle, per cut:
//   * the recovered watermark (sealed = log->next_seq()-1) never regresses
//     below the ack point: sealed >= committed (sealed == committed + 1 only
//     when the in-flight op's append happened to seal),
//   * for every session token m in [1, sealed] — every read a client could
//     legally issue after recovery — the store's value for the key written
//     at seq m carries a version >= m: no read EVER observes state older
//     than the reader's min-seq token,
//   * the full store equals the replay of exactly `sealed` records, with
//     the usual old-or-new allowance for the unsealed in-flight record's
//     key — old is fine for *that* key because its seq is > every issuable
//     token.
//
// Each record writes exactly one key (round-robin over a small key set) with
// the value "v<op-index>", so a stale read is always distinguishable as a
// too-small version number.
class ReadYourWritesWorkload final : public Workload {
 public:
  static constexpr int kKeys = 5;

  ReadYourWritesWorkload(uint64_t seed, size_t n) : name_("read-your-writes") {
    Xorshift rng(seed);
    script_.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      // Round-robin keys with a random skip so every key accumulates
      // multiple versions at irregular seq distances.
      const int k = static_cast<int>((i + rng.NextBelow(2)) % kKeys);
      script_.push_back(Op{"k" + std::to_string(k),
                           ValueFor(i, rng.NextBelow(6) == 0)});
      repl::ReplOp rop;
      rop.kind = repl::ReplOp::Kind::kPut;
      rop.key = script_.back().key;
      rop.record.fields.push_back(script_.back().value);
      std::string f;
      repl::EncodeBatch({rop}, &f);
      frames_.push_back(std::move(f));
    }
  }

  const std::string& name() const override { return name_; }
  size_t op_count() const override { return script_.size(); }

  void Setup(JnvmRuntime& rt) override {
    backend_ = OpenStore(rt, "shard0");
    log_ = repl::ReplLog::OpenOrCreate(&rt, "repl0", TinyLog());
    rt.Psync();
  }

  void RunOp(JnvmRuntime& rt, size_t i) override {
    rt.heap().BeginGroupCommit();
    store::Record r;
    r.fields.push_back(script_[i].value);
    backend_->Put(script_[i].key, r);
    log_->Append(static_cast<uint64_t>(i) + 1, frames_[i]);
    rt.heap().EndGroupCommit();
    rt.Psync();  // watermark advance: parked session reads release here
    rt.DrainGroupFrees();
  }

  void Check(JnvmRuntime& rt, const CrashCut& cut,
             std::vector<std::string>* out) override {
    auto log = repl::ReplLog::OpenOrCreate(&rt, "repl0", TinyLog());
    backend_ = OpenStore(rt, "shard0");
    if (log->needs_snapshot()) {
      out->push_back("log reports needs_snapshot without a snapshot install");
      return;
    }
    const uint64_t c = cut.committed;
    const bool has_inflight =
        cut.in_flight.has_value() && *cut.in_flight < script_.size();
    const uint64_t sealed = log->next_seq() - 1;
    if (sealed < c) {
      out->push_back("watermark regressed: log retains " +
                     std::to_string(sealed) + " records but seq " +
                     std::to_string(c) + " was already released to readers");
      return;
    }
    if (sealed != c && !(has_inflight && sealed == c + 1)) {
      out->push_back("log retains " + std::to_string(sealed) +
                     " records, want " + std::to_string(c) +
                     (has_inflight ? " or +1" : ""));
      return;
    }
    std::string payload;
    for (uint64_t q = log->start_seq(); q < log->next_seq(); ++q) {
      if (!log->Read(q, &payload) || payload != frames_[q - 1]) {
        out->push_back("record " + std::to_string(q) +
                       " unreadable or does not match the shipped frame");
      }
    }

    // Replica restart: redo the tail record (Shard::Open), then the store is
    // what post-recovery session reads observe.
    if (sealed > 0) {
      store::Record r;
      r.fields.push_back(script_[sealed - 1].value);
      backend_->Put(script_[sealed - 1].key, r);
    }
    rt.Psync();

    std::map<std::string, std::string> got = StoreValues(*backend_, out);

    // The in-flight record's key (when unsealed) is old-or-new; its seq is
    // above every issuable token, so "old" never violates a session.
    const std::string* inflight_key =
        has_inflight && sealed == c ? &script_[c].key : nullptr;

    // Session-read oracle: every token a client could hold after recovery.
    for (uint64_t m = 1; m <= sealed; ++m) {
      const std::string& k = script_[m - 1].key;
      const auto it = got.find(k);
      if (it == got.end()) {
        out->push_back("session read with token " + std::to_string(m) +
                       " misses key " + k + " written at that seq");
        continue;
      }
      const uint64_t version = VersionOf(it->second);
      if (version < m) {
        out->push_back("session read with token " + std::to_string(m) +
                       " observed key " + k + " at version " +
                       std::to_string(version) + " — older than the token");
      }
    }

    // Full-store check against the replay of exactly `sealed` records.
    std::map<std::string, std::string> expected;
    for (uint64_t q = 0; q < sealed; ++q) {
      expected[script_[q].key] = script_[q].value;
    }
    for (const auto& [k, v] : expected) {
      if (inflight_key != nullptr && k == *inflight_key) {
        continue;
      }
      const auto it = got.find(k);
      if (it == got.end()) {
        out->push_back("released key " + k + " lost");
      } else if (it->second != v) {
        out->push_back("released key " + k + " has '" + it->second +
                       "', want '" + v + "'");
      }
    }
    for (const auto& [k, v] : got) {
      if (expected.count(k) == 0 &&
          (inflight_key == nullptr || k != *inflight_key)) {
        out->push_back("phantom key " + k);
      }
    }
    if (inflight_key != nullptr) {
      const auto it = got.find(*inflight_key);
      const auto old_it = expected.find(*inflight_key);
      if (it != got.end()) {
        const bool is_old =
            old_it != expected.end() && it->second == old_it->second;
        const bool is_new = it->second == script_[c].value;
        if (!is_old && !is_new) {
          out->push_back("in-flight op left torn value '" + it->second +
                         "' for key " + *inflight_key);
        }
      } else if (old_it != expected.end()) {
        out->push_back("in-flight put erased pre-existing key " +
                       *inflight_key);
      }
    }
  }

 private:
  struct Op {
    std::string key;
    std::string value;  // "v<op-index>" (+ optional padding)
  };

  static repl::ReplLogOptions TinyLog() {
    repl::ReplLogOptions o;
    o.segment_bytes = 256;
    o.max_segments = 3;
    return o;
  }

  // ValueFor() encodes the op index right after the leading 'v'; the op at
  // index i seals as seq i+1.
  static uint64_t VersionOf(const std::string& value) {
    uint64_t idx = 0;
    for (size_t p = 1; p < value.size() && value[p] >= '0' && value[p] <= '9';
         ++p) {
      idx = idx * 10 + static_cast<uint64_t>(value[p] - '0');
    }
    return idx + 1;
  }

  std::string name_;
  std::vector<Op> script_;
  std::vector<std::string> frames_;
  Handle<server::KvMap> backend_;
  std::unique_ptr<repl::ReplLog> log_;
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
  if (kind == "repl") {
    return std::make_unique<ReplWorkload>(script_seed, op_count);
  }
  if (kind == "repl-apply") {
    return std::make_unique<ReplApplyWorkload>(script_seed, op_count);
  }
  if (kind == "wait") {
    return std::make_unique<WaitWorkload>(script_seed, op_count);
  }
  if (kind == "read-your-writes") {
    return std::make_unique<ReadYourWritesWorkload>(script_seed, op_count);
  }
  if (kind == "txn") {
    return std::make_unique<TxnWorkload>(script_seed, op_count);
  }
  if (kind == "migrate") {
    return std::make_unique<MigrateWorkload>(script_seed, op_count);
  }
  if (kind == "ckpt") {
    return std::make_unique<CkptWorkload>(script_seed, op_count);
  }
  JNVM_CHECK_MSG(false, ("unknown crashcheck workload: " + kind).c_str());
  return nullptr;
}

std::unique_ptr<Workload> MakeFaultyWorkload(uint64_t script_seed, size_t op_count) {
  return std::make_unique<RootStringWorkload>("faulty-string", script_seed,
                                              op_count, /*faulty=*/true);
}

}  // namespace jnvm::crashcheck
