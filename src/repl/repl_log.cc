#include "src/repl/repl_log.h"

#include <cstring>

#include "src/common/check.h"
#include "src/repl/frame.h"

namespace jnvm::repl {

namespace {

// Record header inside a segment: { u32 len | u32 crc | u64 seq }.
constexpr size_t kRecHdrBytes = 16;
// Single-block root layout bound (see repl_log.h): ring must fit the first
// block so the packed word and every slot are single-line stores.
constexpr uint32_t kMaxRingSlots = 24;

uint32_t RecordCrc(uint64_t seq, std::string_view payload) {
  char seq_bytes[8];
  std::memcpy(seq_bytes, &seq, 8);
  return Crc32(payload, Crc32(std::string_view(seq_bytes, 8)));
}

}  // namespace

// ---- ReplLogRoot -----------------------------------------------------------

const core::ClassInfo* ReplLogRoot::Class() {
  static const core::ClassInfo* info = RegisterClass(
      core::MakeClassInfo<ReplLogRoot>("repl.Log", &ReplLogRoot::Trace));
  return info;
}

void ReplLogRoot::Trace(core::ObjectView& view, core::RefVisitor& v) {
  const uint32_t cap = view.Read<uint32_t>(kSegCapOff);
  for (uint32_t i = 0; i < cap && i < kMaxRingSlots; ++i) {
    v.VisitRef(view, kRingOff + 8ull * i);
  }
}

ReplLogRoot::ReplLogRoot(core::JnvmRuntime& rt, const ReplLogOptions& opts) {
  AllocatePersistent(rt, Class(), kRingOff + 8ull * opts.max_segments);
  WriteField<uint32_t>(kSegCapOff, opts.max_segments);
  WriteField<uint32_t>(kSegBytesOff, opts.segment_bytes);
  WriteField<uint64_t>(kPackedOff, 0);
  WriteField<uint64_t>(kResetSeqOff, 1);
  WriteField<uint64_t>(kSnapPendingOff, 0);
  Pwb();
  Validate();
}

void ReplLogRoot::WritePacked(uint32_t head, uint32_t count) {
  WriteField<uint64_t>(kPackedOff, (static_cast<uint64_t>(head) << 32) | count);
  PwbField(kPackedOff, 8);
}

void ReplLogRoot::WriteResetSeq(uint64_t v) {
  WriteField<uint64_t>(kResetSeqOff, v);
  PwbField(kResetSeqOff, 8);
}

void ReplLogRoot::WriteSnapPending(uint64_t v) {
  WriteField<uint64_t>(kSnapPendingOff, v);
  PwbField(kSnapPendingOff, 8);
}

void ReplLogRoot::WriteSlot(uint32_t i, nvm::Offset ref) {
  WriteRefRaw(kRingOff + 8ull * i, ref);
  PwbField(kRingOff + 8ull * i, 8);
}

// ---- ReplLogSegment --------------------------------------------------------

const core::ClassInfo* ReplLogSegment::Class() {
  static const core::ClassInfo* info = RegisterClass(
      core::MakeClassInfo<ReplLogSegment>("repl.LogSegment"));
  return info;
}

ReplLogSegment::ReplLogSegment(core::JnvmRuntime& rt, uint64_t base_seq,
                               uint32_t data_capacity) {
  // zero = true matters: the record scan relies on virgin space reading as
  // the len == 0 terminator, and the zeroes become durable under the
  // publication fence.
  AllocatePersistent(rt, Class(), kDataOff + data_capacity);
  WriteField<uint64_t>(kBaseSeqOff, base_seq);
  WriteField<uint32_t>(kDataCapOff, data_capacity);
  WriteField<uint32_t>(kDataCapOff + 4, 0);
  PwbField(0, kDataOff);
}

void ReplLogSegment::WriteBaseSeq(uint64_t seq) {
  WriteField<uint64_t>(kBaseSeqOff, seq);
  PwbField(kBaseSeqOff, 8);
}

// ---- ReplLog ---------------------------------------------------------------

std::unique_ptr<ReplLog> ReplLog::OpenOrCreate(core::JnvmRuntime* rt,
                                               const std::string& root_name,
                                               const ReplLogOptions& opts) {
  JNVM_CHECK(rt != nullptr);
  JNVM_CHECK_MSG(opts.max_segments >= 2 && opts.max_segments <= kMaxRingSlots,
                 "replication log ring must have 2..24 slots");
  JNVM_CHECK(opts.segment_bytes >= 64);
  ReplLogRoot::Class();
  ReplLogSegment::Class();

  auto log = std::unique_ptr<ReplLog>(new ReplLog());
  log->rt_ = rt;
  log->opts_ = opts;
  bool created = false;
  if (rt->root().Exists(root_name)) {
    log->root_ = rt->root().GetAs<ReplLogRoot>(root_name);
    JNVM_CHECK(log->root_ != nullptr);
  } else {
    log->root_ = std::make_shared<ReplLogRoot>(*rt, opts);
    rt->root().Put(root_name, log->root_.get());  // failure-atomic publish
    created = true;
  }
  // The persisted geometry wins over the caller's options across restarts.
  log->seg_cap_ = log->root_->SegCapacity();
  log->opts_.segment_bytes = log->root_->SegmentBytes();
  log->opts_.max_segments = log->seg_cap_;
  log->Bind(created);
  return log;
}

void ReplLog::Bind(bool created) {
  if (created) {
    head_ = 0;
    start_seq_ = next_seq_ = root_->ResetSeq();
    return;
  }
  if (root_->SnapPending() != 0) {
    // A crash interrupted a snapshot install: the store image and the log
    // disagree. Complete the reset (drop everything) and report that a
    // fresh snapshot is required before this log can be appended to.
    needs_snapshot_ = true;
    std::vector<nvm::Offset> frees;
    for (uint32_t i = 0; i < seg_cap_; ++i) {
      const nvm::Offset ref = root_->Slot(i);
      if (ref != 0) {
        root_->WriteSlot(i, 0);
        frees.push_back(ref);
      }
    }
    root_->WritePacked(0, 0);
    rt_->Pfence();  // unlinks durable before the frees
    for (const nvm::Offset ref : frees) {
      rt_->FreeRef(ref);
    }
    head_ = 0;
    start_seq_ = next_seq_ = root_->ResetSeq();
    return;
  }
  Reconcile();
  ScanSegments();
}

void ReplLog::Reconcile() {
  const uint64_t packed = root_->Packed();
  uint32_t head = ReplLogRoot::HeadOf(packed);
  uint32_t count = ReplLogRoot::CountOf(packed);
  JNVM_CHECK(head < seg_cap_ && count <= seg_cap_);

  // 1. Free segments published in a slot whose count bump never became
  // durable (they carry no sealed records by construction), slots whose
  // truncation zeroing was lost after the head already advanced, and a head
  // caught mid-recycle (popped from the range, full count not yet durable).
  std::vector<nvm::Offset> frees;
  bool wrote = false;
  for (uint32_t i = 0; i < seg_cap_; ++i) {
    const uint32_t dist = (i + seg_cap_ - head) % seg_cap_;
    if (dist < count) {
      continue;  // occupied range
    }
    const nvm::Offset ref = root_->Slot(i);
    if (ref != 0) {
      root_->WriteSlot(i, 0);
      frees.push_back(ref);
      wrote = true;
    }
  }
  // 2. A truncation that zeroed the head slot but whose packed update was
  // lost: shrink over the zero prefix.
  const uint32_t head0 = head;
  const uint32_t count0 = count;
  while (count > 0 && root_->Slot(head) == 0) {
    head = (head + 1) % seg_cap_;
    --count;
  }
  // 3. A publication whose count bump became durable but whose slot write
  // was lost: the zero sits at the *tail* of the occupied range. Everything
  // from the first post-prefix zero onward belongs to the batch the crash
  // interrupted (earlier batches sealed their publications under Psync), so
  // none of it carries sealed records — drop the whole suffix.
  for (uint32_t i = 0; i < count; ++i) {
    if (root_->Slot((head + i) % seg_cap_) != 0) {
      continue;
    }
    for (uint32_t j = i + 1; j < count; ++j) {
      const uint32_t slot = (head + j) % seg_cap_;
      const nvm::Offset ref = root_->Slot(slot);
      if (ref != 0) {
        root_->WriteSlot(slot, 0);
        frees.push_back(ref);
      }
    }
    count = i;
    break;
  }
  if (head != head0 || count != count0) {
    root_->WritePacked(head, count);
    wrote = true;
  }
  if (wrote) {
    rt_->Pfence();
  }
  for (const nvm::Offset ref : frees) {
    rt_->FreeRef(ref);
  }
  head_ = head;
}

void ReplLog::ScanSegments() {
  const uint32_t count = ReplLogRoot::CountOf(root_->Packed());
  start_seq_ = next_seq_ = root_->ResetSeq();
  uint64_t expected = 0;
  bool have_any = false;
  bool stop = false;
  uint32_t kept = 0;
  std::vector<nvm::Offset> frees;
  bool wrote = false;

  for (uint32_t i = 0; i < count && !stop; ++i) {
    const uint32_t slot = (head_ + i) % seg_cap_;
    const nvm::Offset ref = root_->Slot(slot);
    JNVM_CHECK(ref != 0);  // zero prefixes/suffixes were dropped by Reconcile
    auto obj = rt_->ResurrectRefAs<ReplLogSegment>(ref);
    const uint64_t base = obj->BaseSeq();
    if (have_any && base != expected) {
      // Discontinuity (e.g. a recycled tail whose new base was lost): drop
      // this segment and the rest.
      stop = true;
      break;
    }

    Seg seg;
    seg.obj = obj;
    seg.slot = slot;
    seg.base_seq = base;
    const uint32_t cap = obj->DataCapacity();
    seg.capacity = cap;
    uint32_t off = 0;
    bool torn = false;
    uint64_t want = base;
    for (;;) {
      if (off + kRecHdrBytes > cap) {
        break;  // segment full to the brim
      }
      uint32_t len = 0, crc = 0;
      uint64_t seq = 0;
      obj->ReadData(off, &len, 4);
      if (len == 0) {
        break;  // clean end
      }
      obj->ReadData(off + 4, &crc, 4);
      obj->ReadData(off + 8, &seq, 8);
      if (len > cap - off - kRecHdrBytes) {
        torn = true;
        break;
      }
      std::string payload(len, '\0');
      obj->ReadData(off + kRecHdrBytes, payload.data(), len);
      if (seq != want || RecordCrc(seq, payload) != crc) {
        torn = true;  // torn tail or stale bytes — at most the last record
        break;
      }
      seg.offs.push_back(off);
      off += kRecHdrBytes + static_cast<uint32_t>(len);
      bytes_ += kRecHdrBytes + len;
      ++want;
    }
    seg.write_off = off;

    const bool last_kept = torn || i == count - 1;
    if (last_kept && off < cap) {
      // Zero the tail so bytes of a torn (unsealed) record can never
      // masquerade as a sealed record under a later scan. Fenced below.
      obj->ZeroData(off, cap - off);
      wrote = true;
    }

    if (!have_any) {
      start_seq_ = base;
      have_any = true;
    }
    expected = want;
    if (seg.offs.empty() && !segs_.empty()) {
      // An empty non-first segment (published, crashed before its first
      // record sealed): drop it rather than retain a hole.
      stop = true;
      break;
    }
    segs_.push_back(std::move(seg));
    ++kept;
    if (torn) {
      stop = true;
    }
  }

  if (kept < count) {
    // Drop the unreachable remainder: zero the slots, shrink the count,
    // fence, then free.
    for (uint32_t i = kept; i < count; ++i) {
      const uint32_t slot = (head_ + i) % seg_cap_;
      const nvm::Offset ref = root_->Slot(slot);
      if (ref != 0) {
        root_->WriteSlot(slot, 0);
        frees.push_back(ref);
      }
    }
    root_->WritePacked(head_, kept);
    wrote = true;
  }
  if (wrote) {
    rt_->Pfence();
  }
  for (const nvm::Offset ref : frees) {
    rt_->FreeRef(ref);
  }
  if (have_any && !segs_.empty()) {
    next_seq_ = expected;
  } else {
    segs_.clear();
    start_seq_ = next_seq_ = root_->ResetSeq();
  }
}

void ReplLog::PersistPacked() {
  root_->WritePacked(head_, static_cast<uint32_t>(segs_.size()));
}

void ReplLog::AddSegment(uint64_t base_seq, uint32_t data_capacity) {
  JNVM_CHECK(segs_.size() < seg_cap_);
  auto obj = std::make_shared<ReplLogSegment>(*rt_, base_seq, data_capacity);
  obj->Validate();
  // Ordering fence: header and zeroes durable before the ring references
  // the segment — recovery never sees a published-but-torn segment.
  obj->Pfence();
  Seg seg;
  seg.obj = obj;
  seg.slot = (head_ + static_cast<uint32_t>(segs_.size())) % seg_cap_;
  seg.base_seq = base_seq;
  seg.capacity = data_capacity;
  root_->WriteSlot(seg.slot, obj->addr());
  segs_.push_back(std::move(seg));
  PersistPacked();  // sealed by the batch's Psync
}

// Ring-full rollover without the allocator: the evicted head becomes the
// new tail in place. Its slot is the one the tail takes next, so the ring
// slots never change; only the data area and base_seq are rewritten. Each
// step leaves a crash state Reconcile and ScanSegments already interpret
// (DESIGN.md §11).
void ReplLog::RecycleHead(uint64_t base_seq) {
  JNVM_CHECK(segs_.size() == seg_cap_);
  Seg seg = std::move(segs_.front());
  segs_.pop_front();
  bytes_ -= seg.write_off;
  head_ = (head_ + 1) % seg_cap_;
  start_seq_ = segs_.front().base_seq;
  // 1. The slot leaves the occupied range: until the full count below is
  // durable, recovery frees the segment (rule 1). Fenced before any byte of
  // it changes, so the ring never names a half-rewritten segment.
  PersistPacked();
  rt_->Pfence();
  // 2. Void the old records, durable before the header names the new base:
  // bytes past the new records then read as the terminator, never as a
  // stale record that happens to carry the next seq and a valid check.
  seg.obj->ZeroData(0, seg.capacity);
  rt_->Pfence();
  // 3. Rebase and count it back in as the tail. A crash that keeps the count
  // but loses the base reads as a discontinuity, and the scan drops it. The
  // batch's Psync seals both with the record.
  seg.obj->WriteBaseSeq(base_seq);
  seg.base_seq = base_seq;
  seg.write_off = 0;
  seg.offs.clear();
  segs_.push_back(std::move(seg));
  PersistPacked();
}

void ReplLog::TruncateHead() {
  JNVM_CHECK(!segs_.empty());
  Seg& h = segs_.front();
  const nvm::Offset ref = h.obj->addr();
  bytes_ -= h.write_off;
  if (segs_.size() == 1) {
    // Dropping the last retained segment: without this, the sequence
    // watermark survives only in DRAM and an empty ring would recover from
    // a stale ResetSeq, regressing next_seq. Persist the watermark under an
    // ordering fence *before* the zeroing that could expose the empty ring.
    root_->WriteResetSeq(next_seq_);
    rt_->Pfence();
  }
  root_->WriteSlot(h.slot, 0);
  head_ = (head_ + 1) % seg_cap_;
  segs_.pop_front();
  PersistPacked();
  // Unlink-before-free: under group commit the fence is elided because the
  // free is deferred past the batch's Psync (DrainGroupFrees).
  root_->DurabilityFence();
  rt_->FreeRef(ref);
  start_seq_ = segs_.empty() ? next_seq_ : segs_.front().base_seq;
}

void ReplLog::Append(uint64_t seq, std::string_view payload) {
  JNVM_CHECK_MSG(!needs_snapshot_, "replication log awaiting snapshot install");
  JNVM_CHECK_MSG(seq == next_seq_, "replication log append out of sequence");
  const size_t need = kRecHdrBytes + payload.size();
  const uint32_t def = opts_.segment_bytes;
  if (segs_.empty() || segs_.back().write_off + need > segs_.back().capacity) {
    const bool full = segs_.size() == seg_cap_;
    if (full && need <= def && segs_.front().capacity == def) {
      RecycleHead(seq);
    } else {
      if (full) {
        TruncateHead();
      }
      // An oversized record gets a dedicated segment.
      AddSegment(seq, static_cast<uint32_t>(need > def ? need : def));
      if (segs_.size() == 1) {
        start_seq_ = seq;
      }
    }
  }
  Seg& tail = segs_.back();
  const uint32_t off = tail.write_off;
  char hdr[kRecHdrBytes];
  const uint32_t len = static_cast<uint32_t>(payload.size());
  const uint32_t crc = RecordCrc(seq, payload);
  std::memcpy(hdr, &len, 4);
  std::memcpy(hdr + 4, &crc, 4);
  std::memcpy(hdr + 8, &seq, 8);
  tail.obj->WriteData(off, hdr, kRecHdrBytes);
  if (!payload.empty()) {
    tail.obj->WriteData(off + kRecHdrBytes, payload.data(), payload.size());
  }
  tail.obj->PwbData(off, need);  // no fence: the batch Psync seals it
  tail.offs.push_back(off);
  tail.write_off = off + static_cast<uint32_t>(need);
  next_seq_ = seq + 1;
  bytes_ += need;
}

uint32_t ReplLog::TruncateBelow(uint64_t seq) {
  uint32_t reclaimed = 0;
  while (!segs_.empty() &&
         segs_.front().base_seq + segs_.front().offs.size() <= seq) {
    if (reclaimed > 0) {
      // Ordering fence between successive head truncations: Reconcile's
      // zero-prefix shrink assumes zeroed slots form a durable *prefix* of
      // the occupied ring. Without the fence a crash could persist slot
      // k+1's zeroing while losing slot k's, leaving an interior zero no
      // recovery rule covers. (Ring-full eviction never needs this: it
      // truncates at most one head per append.)
      rt_->Pfence();
    }
    TruncateHead();
    ++reclaimed;
  }
  return reclaimed;
}

std::vector<SegDigest> ReplLog::SegmentDigests() const {
  std::vector<SegDigest> out;
  out.reserve(segs_.size());
  char buf[4096];
  for (const Seg& seg : segs_) {
    SegDigest d;
    d.base_seq = seg.base_seq;
    d.records = static_cast<uint32_t>(seg.offs.size());
    uint32_t crc = 0x811c9dc5u;  // Crc32 seed
    for (uint32_t off = 0; off < seg.write_off;) {
      const size_t n = std::min<size_t>(sizeof(buf), seg.write_off - off);
      seg.obj->ReadData(off, buf, n);
      crc = Crc32(std::string_view(buf, n), crc);
      off += static_cast<uint32_t>(n);
    }
    d.crc = crc;
    out.push_back(d);
  }
  return out;
}

bool ReplLog::VerifyDigest(const SegDigest& d) const {
  if (d.records == 0) {
    return false;  // an empty advertised segment carries no evidence
  }
  if (d.base_seq < start_seq_ || d.base_seq + d.records > next_seq_) {
    return false;  // range not fully retained here
  }
  uint32_t crc = 0x811c9dc5u;
  std::string payload;
  for (uint64_t seq = d.base_seq; seq < d.base_seq + d.records; ++seq) {
    if (!Read(seq, &payload)) {
      return false;
    }
    // Reconstruct the exact on-media header: { u32 len | u32 crc | u64 seq }.
    char hdr[kRecHdrBytes];
    const uint32_t len = static_cast<uint32_t>(payload.size());
    const uint32_t rcrc = RecordCrc(seq, payload);
    std::memcpy(hdr, &len, 4);
    std::memcpy(hdr + 4, &rcrc, 4);
    std::memcpy(hdr + 8, &seq, 8);
    crc = Crc32(std::string_view(hdr, kRecHdrBytes), crc);
    crc = Crc32(payload, crc);
  }
  return crc == d.crc;
}

bool ReplLog::Read(uint64_t seq, std::string* payload) const {
  if (seq < start_seq_ || seq >= next_seq_) {
    return false;
  }
  for (const Seg& seg : segs_) {
    if (seq < seg.base_seq || seq >= seg.base_seq + seg.offs.size()) {
      continue;
    }
    const uint32_t off = seg.offs[seq - seg.base_seq];
    uint32_t len = 0;
    seg.obj->ReadData(off, &len, 4);
    payload->resize(len);
    if (len != 0) {
      seg.obj->ReadData(off + kRecHdrBytes, payload->data(), len);
    }
    return true;
  }
  return false;
}

void ReplLog::BeginInstall() {
  root_->WriteSnapPending(1);
  // The marker must be durable before the store image is overwritten — a
  // crash mid-install then forces a re-bootstrap instead of serving a store
  // that disagrees with the log.
  rt_->Pfence();
  needs_snapshot_ = true;
}

void ReplLog::FinishInstall(uint64_t next) {
  std::vector<nvm::Offset> frees;
  for (const Seg& seg : segs_) {
    root_->WriteSlot(seg.slot, 0);
    frees.push_back(seg.obj->addr());
  }
  segs_.clear();
  head_ = 0;
  root_->WritePacked(0, 0);
  root_->WriteResetSeq(next);
  // One ordering fence covers the installed store image (written by the
  // caller) and the log reset before the pending marker clears.
  rt_->Pfence();
  root_->WriteSnapPending(0);  // sealed by the caller's Psync
  for (const nvm::Offset ref : frees) {
    rt_->FreeRef(ref);
  }
  start_seq_ = next_seq_ = next;
  bytes_ = 0;
  needs_snapshot_ = false;
}

}  // namespace jnvm::repl
