// Durable per-shard replication log (DESIGN.md §8).
//
// The log is a ring of fixed-size NVMM segments allocated from the shard's
// own heap. Each record is one group-commit batch frame, sequence-numbered
// and checksummed; sealing is *implicit*: a record is sealed when the
// batch's Psync retires — the same durability point that releases client
// replies. The flush-ordering discipline is per-batch, not per-record
// (the Delay-Free Concurrency insight): Append issues only write-backs, no
// fences; the shard's one Psync per batch seals the record, the client
// replies, and the store mutations together.
//
// On-media layout
//   ReplLogRoot ("repl.Log"), single block:
//     u32 seg_capacity        ring slots (fixed at creation)
//     u32 segment_bytes       default data capacity per segment
//     u64 packed head|count   ring occupancy — one word, so truncation and
//                             publication advance it with a single store
//     u64 reset_seq           first sequence number after a reset/install
//     u64 snap_pending        non-zero while a snapshot install is between
//                             its two fences (see BeginInstall)
//     u64 refs[seg_capacity]  the segment ring
//   ReplLogSegment ("repl.LogSegment"), chained blocks:
//     u64 base_seq            sequence number of the first record
//     u32 data_capacity
//     u32 reserved
//     then records: { u32 len | u32 crc | u64 seq | payload[len] } back to
//     back; len == 0 terminates the scan (segments are zeroed when
//     allocated and when recycled, so virgin space reads as the terminator).
//
// Crash consistency
//   - Publication: a new segment is written, flushed and validated under an
//     ordering pfence *before* its ring slot and the packed count advance —
//     recovery never sees a published-but-torn segment.
//   - Rollover: when the ring is full, a record that fits a default-size
//     segment recycles the evicted head in place as the new tail — same
//     ring slot, same blocks, nothing freed or allocated. The packed word
//     first drops the head from the occupied range (pfence), the data area
//     is zeroed (pfence), then base_seq and the full count are written and
//     sealed with the record by the batch Psync. A crash before the full
//     count is durable leaves the slot outside the range, and recovery
//     frees it; after, a stale base_seq reads as a discontinuity.
//   - Truncation/reset: checkpoint truncation, reset, and a rollover that
//     involves an oversized segment zero the ring slot before the segment
//     is freed (same unlink-before-free discipline as the J-PDT maps; the
//     free is deferred past the batch Psync under group commit).
//   - Torn tail: at most the last record can be torn (earlier records were
//     sealed by their batch's Psync). Recovery detects it by checksum, by
//     sequence discontinuity, or by a zero length word, then zeroes the
//     segment's tail under a fence so stale bytes can never masquerade as a
//     sealed record after later appends.
//   - Partially published tail segments (slot written, count not yet
//     durable) carry no sealed records by construction and are freed.
//   - Snapshot install: BeginInstall persists snap_pending under a fence
//     before the store image is overwritten; FinishInstall fences the new
//     store state before clearing it. A crash in between reports
//     needs_snapshot() and the replica re-bootstraps.
#ifndef JNVM_SRC_REPL_REPL_LOG_H_
#define JNVM_SRC_REPL_REPL_LOG_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "src/core/pobject.h"
#include "src/core/runtime.h"
#include "src/repl/frame.h"

namespace jnvm::repl {

struct ReplLogOptions {
  // Data bytes per segment (oversized records get a dedicated segment).
  uint32_t segment_bytes = 64 << 10;
  // Ring capacity = retention: appending past it truncates the oldest
  // segment. Bounded by the single-block root layout (≤ 24 slots).
  uint32_t max_segments = 8;
};

class ReplLogRoot final : public core::PObject {
 public:
  static const core::ClassInfo* Class();

  explicit ReplLogRoot(core::Resurrect) {}
  ReplLogRoot(core::JnvmRuntime& rt, const ReplLogOptions& opts);

  static constexpr size_t kSegCapOff = 0;
  static constexpr size_t kSegBytesOff = 4;
  static constexpr size_t kPackedOff = 8;
  static constexpr size_t kResetSeqOff = 16;
  static constexpr size_t kSnapPendingOff = 24;
  static constexpr size_t kRingOff = 32;

  uint32_t SegCapacity() const { return ReadField<uint32_t>(kSegCapOff); }
  uint32_t SegmentBytes() const { return ReadField<uint32_t>(kSegBytesOff); }
  uint64_t Packed() const { return ReadField<uint64_t>(kPackedOff); }
  uint64_t ResetSeq() const { return ReadField<uint64_t>(kResetSeqOff); }
  uint64_t SnapPending() const { return ReadField<uint64_t>(kSnapPendingOff); }
  nvm::Offset Slot(uint32_t i) const { return ReadRefRaw(kRingOff + 8ull * i); }

  void WritePacked(uint32_t head, uint32_t count);
  void WriteResetSeq(uint64_t v);
  void WriteSnapPending(uint64_t v);
  void WriteSlot(uint32_t i, nvm::Offset ref);

  static uint32_t HeadOf(uint64_t packed) { return static_cast<uint32_t>(packed >> 32); }
  static uint32_t CountOf(uint64_t packed) { return static_cast<uint32_t>(packed); }

 private:
  static void Trace(core::ObjectView& view, core::RefVisitor& v);
};

class ReplLogSegment final : public core::PObject {
 public:
  static const core::ClassInfo* Class();

  explicit ReplLogSegment(core::Resurrect) {}
  // Allocated invalid and zeroed; the caller writes the header, flushes and
  // validates, then fences before publishing the ring slot.
  ReplLogSegment(core::JnvmRuntime& rt, uint64_t base_seq, uint32_t data_capacity);

  static constexpr size_t kBaseSeqOff = 0;
  static constexpr size_t kDataCapOff = 8;
  static constexpr size_t kDataOff = 16;

  uint64_t BaseSeq() const { return ReadField<uint64_t>(kBaseSeqOff); }
  uint32_t DataCapacity() const { return ReadField<uint32_t>(kDataCapOff); }

  void ReadData(size_t off, void* dst, size_t n) const { ReadBytesField(kDataOff + off, dst, n); }
  void WriteData(size_t off, const void* src, size_t n) { WriteBytesField(kDataOff + off, src, n); }
  void PwbData(size_t off, size_t n) { PwbField(kDataOff + off, n); }
  // Zeroes data bytes [off, off+n) and queues them for write-back; no fence.
  void ZeroData(size_t off, size_t n) { MutableView().Zero(kDataOff + off, n); }
  // Rebases a recycled segment; write-back queued, no fence.
  void WriteBaseSeq(uint64_t seq);
};

// Volatile manager over the persistent ring. Single-writer: the shard
// worker thread is the only mutator (reads of retained records also happen
// on the worker — the device is not synchronized).
class ReplLog {
 public:
  // Binds the log named `root_name` in the runtime's root map, creating it
  // on first use. On the recovery path this scans every retained segment,
  // reconciles half-published/half-truncated ring slots and zeroes a torn
  // tail (under one ordering fence).
  static std::unique_ptr<ReplLog> OpenOrCreate(core::JnvmRuntime* rt,
                                               const std::string& root_name,
                                               const ReplLogOptions& opts);

  // Oldest retained sequence number (reads below it need a snapshot).
  uint64_t start_seq() const { return start_seq_; }
  // Next sequence number to append; the last retained record is next-1.
  uint64_t next_seq() const { return next_seq_; }
  bool empty() const { return next_seq_ == start_seq_; }
  uint64_t bytes() const { return bytes_; }
  uint32_t segments() const { return static_cast<uint32_t>(segs_.size()); }
  // True when a crash interrupted a snapshot install: the store image and
  // the log disagree and the replica must re-bootstrap via REPLSNAP.
  bool needs_snapshot() const { return needs_snapshot_; }

  // Appends one record; `seq` must equal next_seq(). Write-backs only — the
  // caller's batch Psync seals it. When the ring is full the oldest segment
  // goes: recycled as the new tail (two ordering pfences), or, when it or
  // the record is oversized, truncated with its free deferred under group
  // commit.
  void Append(uint64_t seq, std::string_view payload);

  // Copies the payload of record `seq`; false when truncated away or not
  // yet appended.
  bool Read(uint64_t seq, std::string* payload) const;

  // Drops whole head segments whose records all precede `seq` (LSN-style
  // reclaim against a durable checkpoint). Partially-covered segments are
  // retained — truncation granularity is the segment. Unlink-before-free as
  // in ring-full truncation; the frees defer past the caller's batch Psync
  // under group commit. Returns the number of segments reclaimed.
  uint32_t TruncateBelow(uint64_t seq);

  // One digest per retained segment, oldest first (repl::SegDigest,
  // frame.h). The CRC covers the raw record bytes [0, write_off) — records
  // pack back-to-back from data offset 0, so the byte stream of a record
  // range is a pure function of the records themselves, not of segment
  // boundaries (see VerifyDigest).
  std::vector<SegDigest> SegmentDigests() const;

  // Recomputes, from this log's retained records, the exact byte stream a
  // peer's segment holding records [base, base+records) contains, and
  // compares its CRC. Returns false when any record in the range is not
  // retained here or the CRCs differ — the peer's copy diverges and only a
  // snapshot can reconcile it.
  bool VerifyDigest(const SegDigest& d) const;

  // Snapshot install protocol (replica bootstrap) — see header comment.
  void BeginInstall();
  // Drops every retained record, sets next_seq to `next`, fences the reset
  // and clears the pending marker (sealed by the caller's Psync).
  void FinishInstall(uint64_t next);

 private:
  struct Seg {
    core::Handle<ReplLogSegment> obj;
    uint32_t slot = 0;               // ring slot holding this segment's ref
    uint64_t base_seq = 0;
    uint32_t capacity = 0;           // data bytes (the segment's DataCapacity)
    uint32_t write_off = 0;          // first free data byte
    std::vector<uint32_t> offs;      // record offsets; offs[seq - base_seq]
  };

  ReplLog() = default;

  void Bind(bool created);
  void Reconcile();   // frees out-of-range slots, shrinks over zero head slots
  void ScanSegments();
  void AddSegment(uint64_t base_seq, uint32_t data_capacity);
  void RecycleHead(uint64_t base_seq);
  void TruncateHead();
  void PersistPacked();

  core::JnvmRuntime* rt_ = nullptr;
  core::Handle<ReplLogRoot> root_;
  ReplLogOptions opts_;
  uint32_t seg_cap_ = 0;

  uint32_t head_ = 0;   // mirror of the packed word; count = segs_.size()
  std::deque<Seg> segs_;
  uint64_t start_seq_ = 1;
  uint64_t next_seq_ = 1;
  uint64_t bytes_ = 0;
  bool needs_snapshot_ = false;
};

}  // namespace jnvm::repl

#endif  // JNVM_SRC_REPL_REPL_LOG_H_
