#include "src/txn/txn.h"

#include <chrono>
#include <cstring>

#include "src/core/runtime.h"
#include "src/server/kv_map.h"

namespace jnvm::txn {

namespace {

// Entry budget per staged write when sizing one failure-atomic block: a
// worst-case apply allocates an entry, copies the slot-array block it
// publishes in and frees the replaced entry (plus, rarely, a slot-array
// swap), or rewrites in place a cell spanning up to
// KvMap::kInPlaceMaxBlocks entry blocks.
constexpr uint64_t kFaEntriesPerWrite = 16;

void PutU32(std::string* out, uint32_t v) {
  char b[4];
  std::memcpy(b, &v, 4);
  out->append(b, 4);
}

void PutU64(std::string* out, uint64_t v) {
  char b[8];
  std::memcpy(b, &v, 8);
  out->append(b, 8);
}

void PutBytes(std::string* out, std::string_view s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s.data(), s.size());
}

struct Cursor {
  std::string_view in;
  size_t off = 0;

  bool TakeU32(uint32_t* v) {
    if (in.size() - off < 4) return false;
    std::memcpy(v, in.data() + off, 4);
    off += 4;
    return true;
  }
  bool TakeU64(uint64_t* v) {
    if (in.size() - off < 8) return false;
    std::memcpy(v, in.data() + off, 8);
    off += 8;
    return true;
  }
  bool TakeBytes(std::string* s) {
    uint32_t n = 0;
    if (!TakeU32(&n) || in.size() - off < n) return false;
    s->assign(in.data() + off, n);
    off += n;
    return true;
  }
  bool Done() const { return off == in.size(); }
};

// Returns whether the store changed shape: kPut that inserted a fresh key,
// kDel that removed one. Updates rewrite in place and report false.
bool ApplyOneWrite(server::KvMap* kv, const repl::ReplOp& op) {
  switch (op.kind) {
    case repl::ReplOp::Kind::kPut:
      return kv->Put(op.key, op.record);
    case repl::ReplOp::Kind::kDel:
      return kv->Remove(op.key);
    case repl::ReplOp::Kind::kUpdate:
      kv->UpdateField(op.key, op.field, op.value);
      return false;
    default:
      return false;  // txn kinds never nest inside a staged-writes frame
  }
}

}  // namespace

std::string TxnIdKey(TxnId id) {
  std::string key;
  PutU64(&key, id);
  return key;
}

bool ParseTxnIdKey(std::string_view key, TxnId* id) {
  if (key.size() != 8) return false;
  std::memcpy(id, key.data(), 8);
  return true;
}

TxnIdGenerator::TxnIdGenerator() {
  const auto now = std::chrono::system_clock::now().time_since_epoch();
  base_ = static_cast<TxnId>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(now).count());
}

// ---- Decision payload ------------------------------------------------------

void EncodeDecision(const Decision& d, std::string* out) {
  out->clear();
  PutU32(out, static_cast<uint32_t>(d.parts.size()));
  for (const DecisionPart& p : d.parts) {
    PutU32(out, p.shard);
    PutU64(out, p.prepare_seq);
    PutBytes(out, p.writes_frame);
  }
}

bool DecodeDecision(std::string_view frame, Decision* out) {
  Cursor c{frame};
  uint32_t nparts = 0;
  if (!c.TakeU32(&nparts)) return false;
  // shard + prepare_seq + writes length prefix per part.
  if (nparts > (frame.size() - c.off) / 16) return false;
  out->parts.clear();
  out->parts.reserve(nparts);
  for (uint32_t i = 0; i < nparts; ++i) {
    DecisionPart p;
    if (!c.TakeU32(&p.shard) || !c.TakeU64(&p.prepare_seq) ||
        !c.TakeBytes(&p.writes_frame)) {
      return false;
    }
    out->parts.push_back(std::move(p));
  }
  return c.Done();
}

// ---- StagedTable -----------------------------------------------------------

void StagedTable::Stage(TxnId id, StagedTxn t) {
  std::lock_guard<std::mutex> lk(mu_);
  staged_[id] = std::move(t);
}

bool StagedTable::Take(TxnId id, StagedTxn* out) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = staged_.find(id);
  if (it == staged_.end()) return false;
  *out = std::move(it->second);
  staged_.erase(it);
  return true;
}

bool StagedTable::Drop(TxnId id) {
  std::lock_guard<std::mutex> lk(mu_);
  return staged_.erase(id) != 0;
}

bool StagedTable::Has(TxnId id) const {
  std::lock_guard<std::mutex> lk(mu_);
  return staged_.count(id) != 0;
}

size_t StagedTable::Size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return staged_.size();
}

std::vector<std::pair<TxnId, uint32_t>> StagedTable::Undecided() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<std::pair<TxnId, uint32_t>> out;
  out.reserve(staged_.size());
  for (const auto& [id, t] : staged_) {
    out.emplace_back(id, t.coordinator);
  }
  return out;
}

uint64_t StagedTable::MinPrepareSeq() const {
  std::lock_guard<std::mutex> lk(mu_);
  uint64_t min_seq = UINT64_MAX;
  for (const auto& [id, t] : staged_) {
    if (t.prepare_seq != 0 && t.prepare_seq < min_seq) {
      min_seq = t.prepare_seq;
    }
  }
  return min_seq;
}

// ---- DecisionIndex ---------------------------------------------------------

void DecisionIndex::Add(TxnId id, uint64_t seq, Decision d) {
  std::lock_guard<std::mutex> lk(mu_);
  by_id_[id] = {seq, std::move(d)};
}

bool DecisionIndex::Has(TxnId id) const {
  std::lock_guard<std::mutex> lk(mu_);
  return by_id_.count(id) != 0;
}

bool DecisionIndex::Lookup(TxnId id, Decision* out) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = by_id_.find(id);
  if (it == by_id_.end()) return false;
  *out = it->second.second;
  return true;
}

void DecisionIndex::PruneBelow(uint64_t start_seq) {
  std::lock_guard<std::mutex> lk(mu_);
  for (auto it = by_id_.begin(); it != by_id_.end();) {
    if (it->second.first < start_seq) {
      it = by_id_.erase(it);
    } else {
      ++it;
    }
  }
}

size_t DecisionIndex::Size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return by_id_.size();
}

std::vector<std::pair<TxnId, Decision>> DecisionIndex::All() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<std::pair<TxnId, Decision>> out;
  out.reserve(by_id_.size());
  for (const auto& [id, sd] : by_id_) {
    out.emplace_back(id, sd.second);
  }
  return out;
}

// ---- Log scan + replay -----------------------------------------------------

namespace {

// One txn-op state transition, shared by the pure scan (kv == nullptr) and
// the redo replay (kv != nullptr, store effects applied).
void TxnTransition(core::JnvmRuntime* rt, server::KvMap* kv,
                   const repl::ReplOp& op, uint64_t seq, LogScanResult* state) {
  TxnId id = 0;
  if (!ParseTxnIdKey(op.key, &id)) return;
  switch (op.kind) {
    case repl::ReplOp::Kind::kTxnPrepare: {
      StagedTxn t;
      t.coordinator = op.field;
      t.prepare_seq = seq;
      std::vector<repl::ReplOp> writes;
      if (repl::DecodeBatch(op.value, &writes)) {
        t.writes = std::move(writes);
      }
      state->staged[id] = std::move(t);
      break;
    }
    case repl::ReplOp::Kind::kTxnCommit: {
      auto it = state->staged.find(id);
      if (kv != nullptr && it != state->staged.end()) {
        ApplyStagedWrites(rt, kv, it->second.writes);
      }
      if (it != state->staged.end()) state->staged.erase(it);
      if (!op.value.empty()) {
        Decision d;
        if (DecodeDecision(op.value, &d)) {
          state->decisions[id] = {seq, std::move(d)};
        }
      }
      break;
    }
    case repl::ReplOp::Kind::kTxnAbort:
      state->staged.erase(id);
      break;
    default:
      break;
  }
}

}  // namespace

void ScanLogForTxns(const repl::ReplLog& log, uint64_t stop_before,
                    LogScanResult* out) {
  const uint64_t stop = stop_before != 0 ? stop_before : log.next_seq();
  std::string payload;
  std::vector<repl::ReplOp> ops;
  for (uint64_t seq = log.start_seq(); seq < stop; ++seq) {
    if (!log.Read(seq, &payload)) continue;
    if (!repl::DecodeBatch(payload, &ops)) continue;
    for (const repl::ReplOp& op : ops) {
      switch (op.kind) {
        case repl::ReplOp::Kind::kTxnPrepare:
        case repl::ReplOp::Kind::kTxnCommit:
        case repl::ReplOp::Kind::kTxnAbort:
          TxnTransition(nullptr, nullptr, op, seq, out);
          break;
        default:
          break;
      }
    }
  }
}

void ReplayRecordOps(core::JnvmRuntime* rt, server::KvMap* kv,
                     const std::vector<repl::ReplOp>& ops,
                     LogScanResult* state) {
  for (const repl::ReplOp& op : ops) {
    switch (op.kind) {
      case repl::ReplOp::Kind::kPut:
      case repl::ReplOp::Kind::kDel:
      case repl::ReplOp::Kind::kUpdate:
        ApplyOneWrite(kv, op);
        break;
      case repl::ReplOp::Kind::kTxnPrepare:
      case repl::ReplOp::Kind::kTxnCommit:
      case repl::ReplOp::Kind::kTxnAbort:
        TxnTransition(rt, kv, op, /*seq=*/0, state);
        break;
    }
  }
}

void ApplyStagedWrites(
    core::JnvmRuntime* rt, server::KvMap* kv,
    const std::vector<repl::ReplOp>& writes,
    const std::function<void(const repl::ReplOp&, bool)>& observe) {
  const auto apply = [&](const repl::ReplOp& op) {
    const bool changed = ApplyOneWrite(kv, op);
    if (observe) {
      observe(op, changed);
    }
  };
  if (rt == nullptr) {
    for (const repl::ReplOp& op : writes) apply(op);
    return;
  }
  const uint64_t cap = rt->FaLogCapacity();
  if (writes.size() * kFaEntriesPerWrite <= cap) {
    core::FaBlock fa(*rt);
    for (const repl::ReplOp& op : writes) apply(op);
  } else {
    // The txn outgrows one J-PFA redo-log slot: apply per-write blocks;
    // cross-write atomicity still holds through redo replay of the sealed
    // prepare record at recovery.
    for (const repl::ReplOp& op : writes) {
      core::FaBlock fa(*rt);
      apply(op);
    }
  }
}

// ---- Resolution planning ---------------------------------------------------

std::vector<ResolutionAction> PlanResolution(
    const std::vector<ShardTxnView>& shards) {
  std::vector<ResolutionAction> plan;
  // Staged ids per shard, for the repair pass below.
  std::vector<std::set<TxnId>> staged_ids(shards.size());

  for (uint32_t s = 0; s < shards.size(); ++s) {
    for (const auto& [id, coord] : shards[s].undecided) {
      staged_ids[s].insert(id);
      const bool commit = coord < shards.size() &&
                          shards[coord].decisions != nullptr &&
                          shards[coord].decisions->Has(id);
      plan.push_back({s, id, coord, commit, /*repair=*/false, {}});
    }
  }

  // Repair pass: a sealed decision names each participant's prepare seq.
  // Logs are gapless, so a participant whose log never reached that seq
  // provably never received the prepare — replay its writes from the
  // decision record itself (the promote-with-lagging-stream case).
  for (uint32_t c = 0; c < shards.size(); ++c) {
    if (shards[c].decisions == nullptr) continue;
    for (const auto& [id, d] : shards[c].decisions->All()) {
      for (const DecisionPart& p : d.parts) {
        if (p.shard >= shards.size() || p.shard == c) continue;
        if (staged_ids[p.shard].count(id) != 0) continue;  // resolved above
        if (shards[p.shard].log_next_seq > p.prepare_seq) continue;  // done
        plan.push_back({p.shard, id, c, /*commit=*/true, /*repair=*/true,
                        p.writes_frame});
      }
    }
  }
  return plan;
}

// ---- TxnState --------------------------------------------------------------

Decision TxnState::BuildDecision() const {
  Decision d;
  for (const TxnPart& p : parts) {
    if (!p.has_writes) continue;
    d.parts.push_back({p.shard, p.prepare_seq, p.writes_frame});
  }
  return d;
}

}  // namespace jnvm::txn
