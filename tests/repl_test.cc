// Tests for the replication subsystem (src/repl + the server's replication
// plane): wire-frame codecs, the durable per-shard replication log
// (append/read, ring rollover, torn-tail recovery, snapshot-install
// markers), follower write rejection, and in-process primary→replica
// end-to-end flows — live sync, snapshot bootstrap, replica restart resync,
// and promotion after the primary dies.

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/core/runtime.h"
#include "src/nvm/pmem_device.h"
#include "src/pdt/register_all.h"
#include "src/repl/frame.h"
#include "src/repl/repl_log.h"
#include "src/server/client.h"
#include "src/server/server.h"
#include "src/server/shard.h"

namespace jnvm::repl {
namespace {

void RegisterClasses() {
  pdt::RegisterStandardClasses();
  ReplLogRoot::Class();
  ReplLogSegment::Class();
}

// ---- Wire frames ------------------------------------------------------------

std::string Binary(size_t n, uint8_t seed) {
  std::string s;
  for (size_t i = 0; i < n; ++i) {
    s.push_back(static_cast<char>((seed + i * 7) & 0xff));  // \r \n \0 included
  }
  return s;
}

TEST(ReplFrame, BatchRoundtripAllKindsBinarySafe) {
  std::vector<ReplOp> ops(3);
  ops[0].kind = ReplOp::Kind::kPut;
  ops[0].key = Binary(17, 3);
  ops[0].record.fields = {Binary(100, 9), "", Binary(1, 0)};
  ops[1].kind = ReplOp::Kind::kDel;
  ops[1].key = Binary(1, 13);
  ops[2].kind = ReplOp::Kind::kUpdate;
  ops[2].key = "plain";
  ops[2].field = 7;
  ops[2].value = Binary(64, 200);

  std::string frame;
  EncodeBatch(ops, &frame);
  std::vector<ReplOp> got;
  ASSERT_TRUE(DecodeBatch(frame, &got));
  EXPECT_EQ(got, ops);
}

TEST(ReplFrame, EmptyBatchRoundtrips) {
  std::string frame;
  EncodeBatch({}, &frame);
  std::vector<ReplOp> got;
  ASSERT_TRUE(DecodeBatch(frame, &got));
  EXPECT_TRUE(got.empty());
}

TEST(ReplFrame, TruncatedBatchRejectedAtEveryCut) {
  std::vector<ReplOp> ops(1);
  ops[0].key = "k";
  ops[0].record.fields = {"value-bytes"};
  std::string frame;
  EncodeBatch(ops, &frame);
  for (size_t cut = 0; cut < frame.size(); ++cut) {
    std::vector<ReplOp> got;
    EXPECT_FALSE(DecodeBatch(std::string_view(frame).substr(0, cut), &got))
        << "cut at " << cut;
  }
}

TEST(ReplFrame, RecordRoundtripAndShortInputRejected) {
  const std::string batch = Binary(33, 77);
  std::string frame;
  EncodeRecord(42, batch, &frame);
  uint64_t seq = 0;
  std::string_view body;
  ASSERT_TRUE(DecodeRecord(frame, &seq, &body));
  EXPECT_EQ(seq, 42u);
  EXPECT_EQ(body, batch);
  EXPECT_FALSE(DecodeRecord(std::string_view(frame).substr(0, 7), &seq, &body));
}

TEST(ReplFrame, SnapshotRoundtrip) {
  std::vector<SnapshotEntry> entries(2);
  entries[0].key = Binary(9, 1);
  entries[0].record.fields = {Binary(40, 5), Binary(3, 8)};
  entries[1].key = "k2";
  entries[1].record.fields = {"v"};
  std::string frame;
  EncodeSnapshot(1234, entries, &frame);
  uint64_t snap_seq = 0;
  std::vector<SnapshotEntry> got;
  ASSERT_TRUE(DecodeSnapshot(frame, &snap_seq, &got));
  EXPECT_EQ(snap_seq, 1234u);
  EXPECT_EQ(got, entries);
  EXPECT_FALSE(DecodeSnapshot(std::string_view(frame).substr(0, frame.size() - 1),
                              &snap_seq, &got));
}

// ---- Replication log --------------------------------------------------------

struct LogFixture {
  explicit LogFixture(bool strict = false) {
    RegisterClasses();
    nvm::DeviceOptions o;
    o.size_bytes = 32 << 20;
    o.strict = strict;
    dev = std::make_unique<nvm::PmemDevice>(o);
    rt = core::JnvmRuntime::Format(dev.get());
  }
  void Reopen() {
    rt.reset();
    rt = core::JnvmRuntime::Open(dev.get());
  }
  std::unique_ptr<nvm::PmemDevice> dev;
  std::unique_ptr<core::JnvmRuntime> rt;
};

ReplLogOptions TinyLog() {
  ReplLogOptions o;
  o.segment_bytes = 256;
  o.max_segments = 3;
  return o;
}

std::string Payload(uint64_t seq) {
  return "payload-" + std::to_string(seq) + "-" + Binary(16, static_cast<uint8_t>(seq));
}

TEST(ReplLog, AppendReadRoundtrip) {
  LogFixture f;
  auto log = ReplLog::OpenOrCreate(f.rt.get(), "repl0", ReplLogOptions{});
  EXPECT_TRUE(log->empty());
  EXPECT_EQ(log->next_seq(), 1u);
  for (uint64_t s = 1; s <= 20; ++s) {
    log->Append(s, Payload(s));
  }
  f.rt->Psync();
  EXPECT_EQ(log->next_seq(), 21u);
  EXPECT_EQ(log->start_seq(), 1u);
  for (uint64_t s = 1; s <= 20; ++s) {
    std::string got;
    ASSERT_TRUE(log->Read(s, &got)) << s;
    EXPECT_EQ(got, Payload(s));
  }
  std::string got;
  EXPECT_FALSE(log->Read(0, &got));
  EXPECT_FALSE(log->Read(21, &got));
}

TEST(ReplLog, RolloverTruncatesOldestAndBoundsSegments) {
  LogFixture f;
  auto log = ReplLog::OpenOrCreate(f.rt.get(), "repl0", TinyLog());
  const uint64_t kN = 60;  // ~40 B payloads over 256 B segments → many rolls
  for (uint64_t s = 1; s <= kN; ++s) {
    log->Append(s, Payload(s));
    f.rt->Psync();
    f.rt->DrainGroupFrees();
  }
  EXPECT_LE(log->segments(), 3u);
  EXPECT_GT(log->start_seq(), 1u);  // retention kicked in
  EXPECT_EQ(log->next_seq(), kN + 1);
  std::string got;
  EXPECT_FALSE(log->Read(log->start_seq() - 1, &got));  // truncated away
  for (uint64_t s = log->start_seq(); s <= kN; ++s) {
    ASSERT_TRUE(log->Read(s, &got)) << s;
    EXPECT_EQ(got, Payload(s));
  }
}

TEST(ReplLog, OversizedRecordGetsDedicatedSegment) {
  LogFixture f;
  auto log = ReplLog::OpenOrCreate(f.rt.get(), "repl0", TinyLog());
  const std::string big = Binary(1000, 42);  // > segment_bytes
  log->Append(1, big);
  f.rt->Psync();
  std::string got;
  ASSERT_TRUE(log->Read(1, &got));
  EXPECT_EQ(got, big);
}

TEST(ReplLog, ReopenRecoversSealedRecords) {
  LogFixture f;
  {
    auto log = ReplLog::OpenOrCreate(f.rt.get(), "repl0", TinyLog());
    for (uint64_t s = 1; s <= 30; ++s) {
      log->Append(s, Payload(s));
      f.rt->Psync();
      f.rt->DrainGroupFrees();
    }
  }
  f.rt->Psync();
  f.Reopen();
  auto log = ReplLog::OpenOrCreate(f.rt.get(), "repl0", TinyLog());
  EXPECT_FALSE(log->needs_snapshot());
  EXPECT_EQ(log->next_seq(), 31u);
  std::string got;
  for (uint64_t s = log->start_seq(); s <= 30; ++s) {
    ASSERT_TRUE(log->Read(s, &got)) << s;
    EXPECT_EQ(got, Payload(s));
  }
}

TEST(ReplLog, TornTailNeverResurrectsUnsealedRecord) {
  // Seal records 1..3 with Psyncs, append record 4 WITHOUT a Psync, crash.
  // Under every eviction seed, recovery must retain 1..3 byte-identical and
  // report next_seq ∈ {4, 5}: 4 when the tail tore, 5 only if every line of
  // record 4 happened to survive — in which case it must read back intact.
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    LogFixture f(/*strict=*/true);
    {
      auto log = ReplLog::OpenOrCreate(f.rt.get(), "repl0", ReplLogOptions{});
      for (uint64_t s = 1; s <= 3; ++s) {
        log->Append(s, Payload(s));
        f.rt->Psync();
      }
      log->Append(4, Payload(4));  // unsealed: no Psync
      f.rt->Abandon();
    }
    f.rt.reset();
    f.dev->Crash(seed * 0x9e3779b97f4a7c15ull);
    f.rt = core::JnvmRuntime::Open(f.dev.get());
    auto log = ReplLog::OpenOrCreate(f.rt.get(), "repl0", ReplLogOptions{});
    EXPECT_FALSE(log->needs_snapshot()) << "seed " << seed;
    ASSERT_GE(log->next_seq(), 4u) << "seed " << seed;
    ASSERT_LE(log->next_seq(), 5u) << "seed " << seed;
    std::string got;
    for (uint64_t s = 1; s < log->next_seq(); ++s) {
      ASSERT_TRUE(log->Read(s, &got)) << "seed " << seed << " seq " << s;
      EXPECT_EQ(got, Payload(s)) << "seed " << seed << " seq " << s;
    }
    // Appending after tail-zeroing must work and survive a reopen.
    log->Append(log->next_seq(), Payload(99));
    f.rt->Psync();
  }
}

// The ring's segments are recycled, never replaced: after 100 rollovers
// the ring slots hold the addresses they held when the ring first filled,
// and a reopen reads back every retained record.
TEST(ReplLog, RolloverRecyclesTheRingsOwnSegments) {
  LogFixture f;
  auto log = ReplLog::OpenOrCreate(f.rt.get(), "repl0", TinyLog());
  const auto ring = [&] {
    const auto root = f.rt->root().GetAs<ReplLogRoot>("repl0");
    std::set<nvm::Offset> slots;
    for (uint32_t i = 0; i < root->SegCapacity(); ++i) {
      slots.insert(root->Slot(i));
    }
    return slots;
  };
  uint64_t seq = 1;
  const auto append = [&] {
    log->Append(seq, Payload(seq));
    f.rt->Psync();
    f.rt->DrainGroupFrees();
    ++seq;
  };
  while (log->segments() < 3) {
    append();
  }
  const std::set<nvm::Offset> first = ring();
  ASSERT_EQ(first.size(), 3u);
  ASSERT_EQ(first.count(0), 0u);
  const heap::HeapStats h0 = f.rt->heap().stats();
  int rollovers = 0;
  while (rollovers < 100) {
    const uint64_t start = log->start_seq();
    append();
    rollovers += log->start_seq() != start ? 1 : 0;
  }
  EXPECT_EQ(ring(), first);
  EXPECT_EQ(log->segments(), 3u);
  const heap::HeapStats h1 = f.rt->heap().stats();
  EXPECT_EQ(h1.objects_allocated, h0.objects_allocated);
  EXPECT_EQ(h1.blocks_freed, h0.blocks_freed);

  const uint64_t start = log->start_seq();
  ASSERT_EQ(log->next_seq(), seq);
  log.reset();
  f.Reopen();
  log = ReplLog::OpenOrCreate(f.rt.get(), "repl0", TinyLog());
  EXPECT_EQ(log->start_seq(), start);
  EXPECT_EQ(log->next_seq(), seq);
  std::string got;
  for (uint64_t s = start; s < seq; ++s) {
    ASSERT_TRUE(log->Read(s, &got)) << s;
    EXPECT_EQ(got, Payload(s));
  }
}

// A recycled segment's old bytes never pass for a record. Record 1 of the
// first segment carries, inside its payload, a well-formed record 11 (its
// length, a check computed as the log computes it, seq 11, payload) at the
// data offset where the recycled segment's second record will start: the
// first cache line after record 10. Records 1..9 fill the 3-slot ring and
// are sealed; record 10 recycles the first segment and is never sealed.
// Under every eviction, recovery keeps 10 or 11 records, each as appended.
// The zeroing of the data area, durable before the new base_seq can be, is
// what keeps record 11 out: drop it or its fence and some eviction reads
// the forged record back.
TEST(ReplLog, RecycledSegmentNeverYieldsAForgedRecord) {
  // Block 0 of a segment: 8 B header, then base_seq and data capacity, so
  // data offset d sits at block offset 24 + d; record 10 (16 + 24 B) fills
  // the rest of the first line and record 11 starts the second.
  constexpr size_t kLine = 64;
  constexpr size_t kForgedAt = kLine - 24;
  const std::string forged_payload(24, 'F');
  std::string forged(16, '\0');
  const uint32_t forged_len = static_cast<uint32_t>(forged_payload.size());
  const uint64_t forged_seq = 11;
  char seq_bytes[8];
  std::memcpy(seq_bytes, &forged_seq, 8);
  const uint32_t forged_crc =
      Crc32(forged_payload, Crc32(std::string_view(seq_bytes, 8)));
  std::memcpy(forged.data(), &forged_len, 4);
  std::memcpy(forged.data() + 4, &forged_crc, 4);
  std::memcpy(forged.data() + 8, &forged_seq, 8);
  forged += forged_payload;
  // 64 B payloads: three 80 B records per 256 B segment.
  const auto payload = [&](uint64_t seq) {
    if (seq == 10) {
      return std::string(24, 'n');
    }
    std::string p(64, static_cast<char>('a' + seq));
    if (seq == 1) {
      p.replace(kForgedAt - 16, forged.size(), forged);
    }
    return p;
  };

  int kept_record_10 = 0;
  for (uint64_t seed = 1; seed <= 64; ++seed) {
    LogFixture f(/*strict=*/true);
    {
      auto log = ReplLog::OpenOrCreate(f.rt.get(), "repl0", TinyLog());
      for (uint64_t s = 1; s <= 9; ++s) {
        log->Append(s, payload(s));
        f.rt->Psync();
        f.rt->DrainGroupFrees();
      }
      ASSERT_EQ(log->segments(), 3u);
      log->Append(10, payload(10));  // recycles segment 1; unsealed
      ASSERT_EQ(log->start_seq(), 4u);
      f.rt->Abandon();
    }
    f.rt.reset();
    f.dev->Crash(seed * 0x9e3779b97f4a7c15ull);
    f.rt = core::JnvmRuntime::Open(f.dev.get());
    auto log = ReplLog::OpenOrCreate(f.rt.get(), "repl0", TinyLog());
    ASSERT_GE(log->next_seq(), 10u) << "seed " << seed;
    ASSERT_LE(log->next_seq(), 11u) << "seed " << seed;
    kept_record_10 += log->next_seq() == 11 ? 1 : 0;
    std::string got;
    for (uint64_t s = log->start_seq(); s < log->next_seq(); ++s) {
      ASSERT_TRUE(log->Read(s, &got)) << "seed " << seed << " seq " << s;
      EXPECT_EQ(got, payload(s)) << "seed " << seed << " seq " << s;
    }
  }
  // Some evictions kept record 10 in the recycled segment, which is where
  // the forged record would have been read next.
  EXPECT_GT(kept_record_10, 0);
}

TEST(ReplLog, TruncateBelowReclaimsPrefixAndPreservesWatermark) {
  LogFixture f;
  auto log = ReplLog::OpenOrCreate(f.rt.get(), "repl0", TinyLog());
  for (uint64_t s = 1; s <= 12; ++s) {
    log->Append(s, Payload(s));
    f.rt->Psync();
    f.rt->DrainGroupFrees();
  }
  // Checkpoint-style truncation at the second retained segment's base:
  // exactly the first segment is reclaimed, everything at or above the
  // bound stays readable.
  const auto digests = log->SegmentDigests();
  ASSERT_GE(digests.size(), 2u);
  const uint64_t bound = digests[1].base_seq;
  ASSERT_GT(bound, log->start_seq());
  EXPECT_EQ(log->TruncateBelow(bound), 1u);
  f.rt->Psync();
  f.rt->DrainGroupFrees();
  EXPECT_EQ(log->start_seq(), bound);
  std::string got;
  EXPECT_FALSE(log->Read(bound - 1, &got));
  for (uint64_t s = bound; s <= 12; ++s) {
    ASSERT_TRUE(log->Read(s, &got)) << s;
    EXPECT_EQ(got, Payload(s));
  }
  // Truncation is segment-granular: a bound inside a segment reclaims
  // nothing (the segment still holds records at or above the bound).
  EXPECT_EQ(log->TruncateBelow(bound + 1), 0u);

  // Truncate-to-empty (a checkpoint covering every sealed record) must
  // persist the sequence watermark: a reopen may not regress next_seq even
  // though no segment survives to carry it.
  EXPECT_GT(log->TruncateBelow(log->next_seq()), 0u);
  f.rt->Psync();
  f.rt->DrainGroupFrees();
  EXPECT_TRUE(log->empty());
  EXPECT_EQ(log->next_seq(), 13u);
  f.Reopen();
  log = ReplLog::OpenOrCreate(f.rt.get(), "repl0", TinyLog());
  EXPECT_TRUE(log->empty());
  EXPECT_FALSE(log->needs_snapshot());
  EXPECT_EQ(log->next_seq(), 13u);
  log->Append(13, Payload(13));
  f.rt->Psync();
  ASSERT_TRUE(log->Read(13, &got));
  EXPECT_EQ(got, Payload(13));
}

TEST(ReplLog, SegmentDigestsVerifyDetectsMatchAndDivergence) {
  LogFixture f;
  auto a = ReplLog::OpenOrCreate(f.rt.get(), "la", TinyLog());
  auto b = ReplLog::OpenOrCreate(f.rt.get(), "lb", TinyLog());
  for (uint64_t s = 1; s <= 8; ++s) {
    a->Append(s, Payload(s));
    b->Append(s, Payload(s));
  }
  f.rt->Psync();
  // Identical histories: every advertised range verifies on the peer.
  for (const SegDigest& d : a->SegmentDigests()) {
    EXPECT_TRUE(b->VerifyDigest(d)) << d.base_seq;
  }
  // Same seq, different bytes — the divergence a stale rejoin must catch.
  a->Append(9, "branch-a");
  b->Append(9, "branch-b");
  f.rt->Psync();
  const auto da = a->SegmentDigests();
  EXPECT_FALSE(b->VerifyDigest(da.back()));
  // Advertisement frame codec roundtrip, truncated input rejected.
  std::string frame;
  EncodeSegDigests(da, &frame);
  std::vector<SegDigest> got;
  ASSERT_TRUE(DecodeSegDigests(frame, &got));
  EXPECT_EQ(got, da);
  EXPECT_FALSE(DecodeSegDigests(
      std::string_view(frame).substr(0, frame.size() - 1), &got));
  // A range reaching below the retained log cannot be verified — the
  // primary answers -SNAPSHOT rather than guessing.
  b->TruncateBelow(b->SegmentDigests()[1].base_seq);
  f.rt->Psync();
  f.rt->DrainGroupFrees();
  EXPECT_FALSE(b->VerifyDigest(da.front()));
}

TEST(ReplLog, InterruptedSnapshotInstallReportsNeedsSnapshot) {
  LogFixture f;
  {
    auto log = ReplLog::OpenOrCreate(f.rt.get(), "repl0", ReplLogOptions{});
    log->Append(1, Payload(1));
    f.rt->Psync();
    log->BeginInstall();  // crash window opens here
    f.rt->Psync();
  }
  f.Reopen();
  {
    auto log = ReplLog::OpenOrCreate(f.rt.get(), "repl0", ReplLogOptions{});
    EXPECT_TRUE(log->needs_snapshot());
    log->FinishInstall(41);  // re-bootstrap completed at snap_seq 40
    f.rt->Psync();
    EXPECT_FALSE(log->needs_snapshot());
    EXPECT_EQ(log->next_seq(), 41u);
    EXPECT_TRUE(log->empty());
  }
  f.Reopen();
  auto log = ReplLog::OpenOrCreate(f.rt.get(), "repl0", ReplLogOptions{});
  EXPECT_FALSE(log->needs_snapshot());
  EXPECT_EQ(log->next_seq(), 41u);
}

}  // namespace
}  // namespace jnvm::repl

// ---- Follower shard and primary→replica e2e ---------------------------------

namespace jnvm::server {
namespace {

class CollectSink : public CompletionSink {
 public:
  void OnCompletion(Completion&& c) override {
    std::lock_guard<std::mutex> lk(mu_);
    got_.push_back(std::move(c));
  }
  std::vector<Completion> take() {
    std::lock_guard<std::mutex> lk(mu_);
    return std::move(got_);
  }

 private:
  mutable std::mutex mu_;
  std::vector<Completion> got_;
};

ShardOptions SmallShard() {
  ShardOptions o;
  o.device_bytes = 32ull << 20;
  o.map_capacity = 1 << 10;
  o.batch = 8;
  return o;
}

TEST(FollowerShard, RejectsClientWritesServesReads) {
  CollectSink sink;
  ShardOptions o = SmallShard();
  o.follower = true;
  auto shard = Shard::Open(o, 0, &sink);
  ASSERT_TRUE(shard->follower());

  auto submit = [&](Request::Op op, const std::string& key, uint64_t seq) {
    Request r;
    r.op = op;
    r.key = key;
    r.value = "v";
    r.conn_id = 1;
    r.seq = seq;
    ASSERT_TRUE(shard->Submit(std::move(r)));
  };
  submit(Request::Op::kSet, "k", 1);
  submit(Request::Op::kDel, "k", 2);
  submit(Request::Op::kHset, "k", 3);
  submit(Request::Op::kGet, "missing", 4);
  const ShardReport rep = shard->Quiesce();
  EXPECT_TRUE(rep.integrity_ok);

  auto got = sink.take();
  ASSERT_EQ(got.size(), 4u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(got[i].reply.rfind("-READONLY", 0), 0u) << got[i].reply;
  }
  EXPECT_EQ(got[3].reply, "$-1\r\n");  // reads still served
}

TEST(FollowerShard, MidBootstrapRefusesSnapshotAndDiffWithRetryLater) {
  // Craft a shard image whose replication log crashed between a snapshot
  // install's fences (snap_pending set, never cleared). A follower opening
  // it is mid-bootstrap: its store is not a sealed prefix of anything, so
  // feeding a downstream (REPLSNAP / REPLDIFF) must be refused with the
  // explicit -RETRYLATER the pull client backs off on.
  const std::string base =
      (std::filesystem::temp_directory_path() /
       ("jnvm_retrylater_" + std::to_string(::getpid())))
          .string();
  const std::string img = base + ".shard0.img";
  {
    pdt::RegisterStandardClasses();
    repl::ReplLogRoot::Class();
    repl::ReplLogSegment::Class();
    nvm::DeviceOptions d;
    d.size_bytes = SmallShard().device_bytes;
    auto dev = std::make_unique<nvm::PmemDevice>(d);
    auto rt = core::JnvmRuntime::Format(dev.get());
    auto log = repl::ReplLog::OpenOrCreate(rt.get(), "server.repl",
                                           repl::ReplLogOptions{});
    log->Append(1, "sealed-record");
    rt->Psync();
    log->BeginInstall();  // the crash window
    rt->Psync();
    ASSERT_TRUE(dev->SaveTo(img));
  }

  CollectSink sink;
  ShardOptions o = SmallShard();
  o.follower = true;
  o.image_base = base;
  auto shard = Shard::Open(o, 0, &sink);
  ASSERT_TRUE(shard->recovered());
  EXPECT_TRUE(shard->repl_needs_snapshot());

  Request snap;
  snap.op = Request::Op::kReplSnap;
  snap.conn_id = 1;
  snap.seq = 1;
  ASSERT_TRUE(shard->Submit(std::move(snap)));
  Request diff;
  diff.op = Request::Op::kReplDiff;
  diff.conn_id = 1;
  diff.seq = 2;
  diff.repl_seq = 1;
  ASSERT_TRUE(shard->Submit(std::move(diff)));
  shard->Quiesce();

  auto got = sink.take();
  ASSERT_EQ(got.size(), 2u);
  for (const Completion& c : got) {
    EXPECT_EQ(c.reply.rfind("-RETRYLATER", 0), 0u) << c.reply;
  }
  EXPECT_EQ(shard->Stats().ckpt.retry_later, 2u);
  shard.reset();
  std::filesystem::remove(img);
}

class ReplE2E : public ::testing::Test {
 protected:
  ServerOptions PrimaryOpts() {
    ServerOptions o;
    o.nshards = 2;
    o.shard = SmallShard();
    return o;
  }
  ServerOptions ReplicaOpts(uint16_t primary_port) {
    ServerOptions o = PrimaryOpts();
    o.replica_of = "127.0.0.1:" + std::to_string(primary_port);
    return o;
  }

  // Polls the replica until every expected key reads back with its expected
  // value (replication is asynchronous; acked-on-primary ⇒ eventually
  // visible on the replica).
  static bool WaitForKeys(Client& c, int n, int timeout_ms = 10000) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
    int next = 0;  // verified prefix — only re-check the first missing key
    while (std::chrono::steady_clock::now() < deadline) {
      while (next < n &&
             c.Get(Key(next)).value_or("") == "val:" + std::to_string(next)) {
        ++next;
      }
      if (next == n) {
        return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return false;
  }
  static std::string Key(int i) { return "rk:" + std::to_string(i); }
};

TEST_F(ReplE2E, LiveSyncPromoteAfterPrimaryDeath) {
  std::string err;
  auto primary = Server::Start(PrimaryOpts(), &err);
  ASSERT_NE(primary, nullptr) << err;
  auto pc = Client::Connect("127.0.0.1", primary->port(), &err);
  ASSERT_NE(pc, nullptr) << err;

  const int kN = 200;
  for (int i = 0; i < kN / 2; ++i) {
    ASSERT_TRUE(pc->Set(Key(i), "val:" + std::to_string(i)));
  }

  // Replica joins mid-stream; earlier records are still retained in the
  // primary's (default-sized) logs, so it catches up without a snapshot.
  auto replica = Server::Start(ReplicaOpts(primary->port()), &err);
  ASSERT_NE(replica, nullptr) << err;
  for (int i = kN / 2; i < kN; ++i) {
    ASSERT_TRUE(pc->Set(Key(i), "val:" + std::to_string(i)));
  }

  auto rc = Client::Connect("127.0.0.1", replica->port(), &err);
  ASSERT_NE(rc, nullptr) << err;
  ASSERT_TRUE(WaitForKeys(*rc, kN));

  // Writes are rejected while following.
  RespReply r;
  ASSERT_TRUE(rc->Roundtrip({"SET", "nope", "x"}, &r));
  ASSERT_EQ(r.type, RespReply::Type::kError);
  EXPECT_EQ(r.str.rfind("READONLY", 0), 0u) << r.str;

  // STATS shows the replica role and the pull-client counters.
  const auto stats = rc->Stats();
  ASSERT_TRUE(stats.has_value());
  EXPECT_NE(stats->find("role=replica"), std::string::npos);
  EXPECT_NE(stats->find("replclient:"), std::string::npos);

  // Primary dies; promote the replica and it becomes writable.
  primary->RequestShutdown();
  primary->Wait();
  ASSERT_TRUE(primary->shutdown_report().ok);

  ASSERT_TRUE(rc->Roundtrip({"PROMOTE"}, &r));
  ASSERT_EQ(r.type, RespReply::Type::kSimple) << r.str;
  EXPECT_EQ(r.str, "OK");

  // Every key acked by the dead primary survives, and writes now succeed.
  for (int i = 0; i < kN; ++i) {
    EXPECT_EQ(rc->Get(Key(i)).value_or("<missing>"), "val:" + std::to_string(i));
  }
  ASSERT_TRUE(rc->Set("after-promote", "yes"));
  EXPECT_EQ(rc->Get("after-promote").value_or("?"), "yes");

  ASSERT_TRUE(rc->Shutdown());
  replica->Wait();
  EXPECT_TRUE(replica->shutdown_report().ok);  // audit clean on ex-follower
}

TEST_F(ReplE2E, SnapshotBootstrapWhenLogTruncated) {
  // Tiny primary logs: by the time the replica joins, record 1 is long
  // truncated and REPLSYNC from 1 must fail over to a REPLSNAP bootstrap.
  ServerOptions popts = PrimaryOpts();
  popts.shard.repl_segment_bytes = 512;
  popts.shard.repl_max_segments = 2;
  std::string err;
  auto primary = Server::Start(popts, &err);
  ASSERT_NE(primary, nullptr) << err;
  auto pc = Client::Connect("127.0.0.1", primary->port(), &err);
  ASSERT_NE(pc, nullptr) << err;

  const int kN = 300;
  for (int i = 0; i < kN; ++i) {
    ASSERT_TRUE(pc->Set(Key(i), "val:" + std::to_string(i)));
  }

  auto replica = Server::Start(ReplicaOpts(primary->port()), &err);
  ASSERT_NE(replica, nullptr) << err;
  auto rc = Client::Connect("127.0.0.1", replica->port(), &err);
  ASSERT_NE(rc, nullptr) << err;
  ASSERT_TRUE(WaitForKeys(*rc, kN));

  ASSERT_NE(replica->repl_client(), nullptr);
  EXPECT_GE(replica->repl_client()->Stats().snapshots_installed, 1u);

  // The stream keeps flowing after the bootstrap.
  ASSERT_TRUE(pc->Set("post-snap", "1"));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!rc->Get("post-snap").has_value() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(rc->Get("post-snap").value_or("?"), "1");

  ASSERT_TRUE(rc->Shutdown());
  replica->Wait();
  ASSERT_TRUE(pc->Shutdown());
  primary->Wait();
}

TEST_F(ReplE2E, ReplicaRestartResumesFromSealedSeq) {
  const std::string base =
      (std::filesystem::temp_directory_path() /
       ("jnvm_repl_restart_" + std::to_string(::getpid())))
          .string();
  std::string err;
  auto primary = Server::Start(PrimaryOpts(), &err);
  ASSERT_NE(primary, nullptr) << err;
  auto pc = Client::Connect("127.0.0.1", primary->port(), &err);
  ASSERT_NE(pc, nullptr) << err;

  ServerOptions ropts = ReplicaOpts(primary->port());
  ropts.shard.image_base = base;

  const int kHalf = 100;
  {
    auto replica = Server::Start(ropts, &err);
    ASSERT_NE(replica, nullptr) << err;
    for (int i = 0; i < kHalf; ++i) {
      ASSERT_TRUE(pc->Set(Key(i), "val:" + std::to_string(i)));
    }
    auto rc = Client::Connect("127.0.0.1", replica->port(), &err);
    ASSERT_NE(rc, nullptr) << err;
    ASSERT_TRUE(WaitForKeys(*rc, kHalf));
    ASSERT_TRUE(rc->Shutdown());  // saves follower images
    replica->Wait();
    ASSERT_TRUE(replica->shutdown_report().ok);
  }

  // More writes land while the replica is down.
  for (int i = kHalf; i < 2 * kHalf; ++i) {
    ASSERT_TRUE(pc->Set(Key(i), "val:" + std::to_string(i)));
  }

  {
    auto replica = Server::Start(ropts, &err);  // recovers follower images
    ASSERT_NE(replica, nullptr) << err;
    EXPECT_TRUE(replica->AnyShardRecovered());
    auto rc = Client::Connect("127.0.0.1", replica->port(), &err);
    ASSERT_NE(rc, nullptr) << err;
    ASSERT_TRUE(WaitForKeys(*rc, 2 * kHalf));
    // Catch-up came from the retained stream, not a snapshot: the replica
    // resumed from its recovered sealed seq through the segment-diff
    // handshake (REPLDIFF advertised its digests; the primary verified them
    // and shipped only the tail).
    ASSERT_NE(replica->repl_client(), nullptr);
    EXPECT_EQ(replica->repl_client()->Stats().snapshots_installed, 0u);
    EXPECT_GE(replica->repl_client()->Stats().diff_resyncs, 1u);
    EXPECT_EQ(replica->repl_client()->Stats().diff_rejected, 0u);
    ASSERT_TRUE(rc->Shutdown());
    replica->Wait();
    ASSERT_TRUE(replica->shutdown_report().ok);
  }

  ASSERT_TRUE(pc->Shutdown());
  primary->Wait();
  for (uint32_t i = 0; i < ropts.nshards; ++i) {
    std::filesystem::remove(base + ".shard" + std::to_string(i) + ".img");
  }
}

// Sums every occurrence of `field` (e.g. "wait_timeouts=") in a STATS body.
uint64_t SumStatsField(const std::string& stats, const char* field) {
  uint64_t sum = 0;
  size_t pos = 0;
  const size_t n = std::strlen(field);
  while ((pos = stats.find(field, pos)) != std::string::npos) {
    pos += n;
    sum += std::strtoull(stats.c_str() + pos, nullptr, 10);
  }
  return sum;
}

TEST_F(ReplE2E, CheckpointTruncatesAndBoundsRestartReplay) {
  // The CKPT verb runs the fuzzy per-shard checkpoint: walk accounting over
  // every record, durable [begin,end] pair, sealed segments below begin
  // reclaimed. A restart then replays only the log tail past begin, not the
  // whole history — recovery work tracks the residual log, not the heap.
  const std::string base =
      (std::filesystem::temp_directory_path() /
       ("jnvm_ckpt_e2e_" + std::to_string(::getpid())))
          .string();
  ServerOptions popts = PrimaryOpts();
  popts.shard.image_base = base;
  popts.shard.repl_segment_bytes = 1024;
  popts.shard.repl_max_segments = 24;  // retention alone never truncates here
  std::string err;
  const int kPre = 200, kPost = 40;
  {
    auto primary = Server::Start(popts, &err);
    ASSERT_NE(primary, nullptr) << err;
    auto pc = Client::Connect("127.0.0.1", primary->port(), &err);
    ASSERT_NE(pc, nullptr) << err;
    for (int i = 0; i < kPre; ++i) {
      ASSERT_TRUE(pc->Set(Key(i), "val:" + std::to_string(i)));
    }

    RespReply r;
    ASSERT_TRUE(pc->Roundtrip({"CKPT"}, &r));
    ASSERT_EQ(r.type, RespReply::Type::kSimple) << r.str;
    EXPECT_EQ(r.str.rfind("OK", 0), 0u) << r.str;
    // A second trigger while idle also succeeds (nothing is running).
    ASSERT_TRUE(pc->Roundtrip({"CKPT"}, &r));
    ASSERT_EQ(r.type, RespReply::Type::kSimple) << r.str;

    const std::string stats = pc->Stats().value_or("");
    EXPECT_EQ(SumStatsField(stats, "walked_keys="), static_cast<uint64_t>(kPre))
        << stats;
    // Each walk chunk reads back only its own slot range, and together the
    // chunks still account every key and value byte exactly once.
    uint64_t live_bytes = 0;
    for (int i = 0; i < kPre; ++i) {
      live_bytes += Key(i).size() + ("val:" + std::to_string(i)).size();
    }
    EXPECT_EQ(SumStatsField(stats, "walked_bytes="), live_bytes) << stats;
    EXPECT_GE(SumStatsField(stats, "truncated_segs="), 1u) << stats;

    // Tail records appended past the checkpoint bound.
    for (int i = kPre; i < kPre + kPost; ++i) {
      ASSERT_TRUE(pc->Set(Key(i), "val:" + std::to_string(i)));
    }
    ASSERT_TRUE(pc->Shutdown());  // saves the shard images
    primary->Wait();
    ASSERT_TRUE(primary->shutdown_report().ok);
  }

  auto primary = Server::Start(popts, &err);  // recovers from the images
  ASSERT_NE(primary, nullptr) << err;
  EXPECT_TRUE(primary->AnyShardRecovered());
  auto pc = Client::Connect("127.0.0.1", primary->port(), &err);
  ASSERT_NE(pc, nullptr) << err;
  for (int i = 0; i < kPre + kPost; ++i) {
    EXPECT_EQ(pc->Get(Key(i)).value_or("<missing>"),
              "val:" + std::to_string(i));
  }
  // Replay was bounded by the durable checkpoint pair: at most the kPost
  // post-checkpoint records, never the kPre history below begin.
  const std::string stats = pc->Stats().value_or("");
  const uint64_t replayed = SumStatsField(stats, "replayed=");
  EXPECT_GT(replayed, 0u) << stats;
  EXPECT_LE(replayed, static_cast<uint64_t>(kPost)) << stats;
  // The walk accounting survived the restart (meta is durable).
  EXPECT_EQ(SumStatsField(stats, "walked_keys="), static_cast<uint64_t>(kPre))
      << stats;

  ASSERT_TRUE(pc->Shutdown());
  primary->Wait();
  for (uint32_t i = 0; i < popts.nshards; ++i) {
    std::filesystem::remove(base + ".shard" + std::to_string(i) + ".img");
  }
}

// ---- WAIT-K synchronous replication -----------------------------------------
// A --wait-acks=K primary parks each write batch between its local Psync
// and its reply until K subscribers have acknowledged (REPLACK) the sealed
// seq; past the timeout the write replies degrade to -WAITTIMEOUT but the
// data stays locally durable. Both pollers drive the ack routing and the
// parked-batch timeout tick, so the suite is parameterized like ServerE2E.

TEST_F(ReplE2E, ApplyBatchDecouplesReplicaGroupCommit) {
  // --apply-batch lets a replica fold many shipped records (each one sealed
  // primary batch) into one local group commit. Primary at batch=1 seals
  // one record per write; a replica joining after the fact drains the whole
  // backlog, so with apply_batch=32 its worker must need far fewer batches
  // than records applied — and converge to the same data.
  ServerOptions popts = PrimaryOpts();
  popts.shard.batch = 1;  // one sealed record per SET
  std::string err;
  auto primary = Server::Start(popts, &err);
  ASSERT_NE(primary, nullptr) << err;
  auto pc = Client::Connect("127.0.0.1", primary->port(), &err);
  ASSERT_NE(pc, nullptr) << err;

  const int kN = 300;
  for (int i = 0; i < kN; ++i) {
    ASSERT_TRUE(pc->Set(Key(i), "val:" + std::to_string(i)));
  }

  ServerOptions ropts = ReplicaOpts(primary->port());
  ropts.shard.batch = 1;           // replica's own client-facing batch
  ropts.shard.apply_batch = 32;    // but applies group up to 32 records
  // Slow fences make singleton applies visibly slow, so the pull loop
  // outpaces the worker and the queue depth actually exercises grouping.
  ropts.shard.fence_ns = 100'000;
  auto replica = Server::Start(ropts, &err);
  ASSERT_NE(replica, nullptr) << err;
  auto rc = Client::Connect("127.0.0.1", replica->port(), &err);
  ASSERT_NE(rc, nullptr) << err;
  ASSERT_TRUE(WaitForKeys(*rc, kN));

  const std::string stats = rc->Stats().value_or("");
  const uint64_t applied = SumStatsField(stats, "applied=");
  const uint64_t psyncs = SumStatsField(stats, "psyncs=");
  EXPECT_EQ(applied, static_cast<uint64_t>(kN)) << stats;
  // The backlog drained in grouped applies: one Psync seals a whole group,
  // so far fewer durability points than records. (Without decoupling,
  // batch=1 would Psync once per applied record — ~kN total.)
  EXPECT_LT(psyncs, applied / 4) << stats;
  EXPECT_GT(SumStatsField(stats, "max_batch="), 2u) << stats;  // real groups
  EXPECT_NE(stats.find("apply_batch=32"), std::string::npos) << stats;

  ASSERT_TRUE(rc->Shutdown());
  replica->Wait();
  EXPECT_TRUE(replica->shutdown_report().ok);  // grouped applies audit clean
  ASSERT_TRUE(pc->Shutdown());
  primary->Wait();
}

class WaitE2E : public ::testing::Test {
 protected:
  ServerOptions PrimaryOpts(uint32_t wait_acks, uint32_t timeout_ms) {
    ServerOptions o;
    o.nshards = 2;
    o.shard = SmallShard();
    o.shard.wait_acks = wait_acks;
    o.shard.wait_timeout_ms = timeout_ms;
    return o;
  }
  ServerOptions ReplicaOpts(uint16_t primary_port) {
    ServerOptions o;
    o.nshards = 2;
    o.shard = SmallShard();
    o.replica_of = "127.0.0.1:" + std::to_string(primary_port);
    return o;
  }
  // Blocks until `want` REPLSYNC subscriptions are live on the primary, so
  // a K>0 test's first write doesn't race the replica's handshake.
  static void WaitForSubs(Client& pc, uint64_t want) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (SumStatsField(pc.Stats().value_or(""), "subs=") < want) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  static std::string Key(int i) { return "wk:" + std::to_string(i); }
};

TEST_F(WaitE2E, K1AckRoundtripRepliesOkWithoutTimeouts) {
  std::string err;
  auto primary = Server::Start(PrimaryOpts(1, /*timeout_ms=*/5000), &err);
  ASSERT_NE(primary, nullptr) << err;
  auto replica = Server::Start(ReplicaOpts(primary->port()), &err);
  ASSERT_NE(replica, nullptr) << err;
  auto pc = Client::Connect("127.0.0.1", primary->port(), &err);
  ASSERT_NE(pc, nullptr) << err;
  WaitForSubs(*pc, 2);

  const int kN = 50;
  for (int i = 0; i < kN; ++i) {
    ASSERT_TRUE(pc->Set(Key(i), "val:" + std::to_string(i)))
        << pc->last_error();
  }
  // +OK under WAIT-1 means the replica acked: acked watermarks advanced and
  // nothing timed out — every reply above waited for real replication.
  const std::string stats = pc->Stats().value_or("");
  EXPECT_EQ(SumStatsField(stats, "wait_timeouts="), 0u) << stats;
  EXPECT_GT(SumStatsField(stats, "acked="), 0u) << stats;
  EXPECT_NE(stats.find("wait_acks=1"), std::string::npos) << stats;

  auto rc = Client::Connect("127.0.0.1", replica->port(), &err);
  ASSERT_NE(rc, nullptr) << err;
  for (int i = 0; i < kN; ++i) {
    EXPECT_EQ(rc->Get(Key(i)).value_or("<missing>"),
              "val:" + std::to_string(i));  // acked ⇒ already applied
  }
  ASSERT_TRUE(rc->Shutdown());
  replica->Wait();
  ASSERT_TRUE(pc->Shutdown());
  primary->Wait();
}

TEST_F(WaitE2E, SoleReplicaDownDegradesToWaitTimeout) {
  std::string err;
  auto primary = Server::Start(PrimaryOpts(1, /*timeout_ms=*/200), &err);
  ASSERT_NE(primary, nullptr) << err;
  auto pc = Client::Connect("127.0.0.1", primary->port(), &err);
  ASSERT_NE(pc, nullptr) << err;

  // No replica exists: the write must come back as an explicit
  // -WAITTIMEOUT, never a silent local-only +OK.
  RespReply r;
  ASSERT_TRUE(pc->Roundtrip({"SET", Key(0), "v0"}, &r));
  ASSERT_EQ(r.type, RespReply::Type::kError) << r.str;
  EXPECT_EQ(r.str.rfind("WAITTIMEOUT", 0), 0u) << r.str;

  // ...but the write is locally durable, reads are unaffected, and the
  // timeout is counted.
  EXPECT_EQ(pc->Get(Key(0)).value_or("<missing>"), "v0");
  EXPECT_TRUE(pc->Ping());
  const std::string stats = pc->Stats().value_or("");
  EXPECT_GE(SumStatsField(stats, "wait_timeouts="), 1u) << stats;

  ASSERT_TRUE(pc->Shutdown());
  primary->Wait();
  EXPECT_TRUE(primary->shutdown_report().ok);
}

TEST_F(WaitE2E, MsetWithoutQuorumAnswersWaitTimeoutAndAppliesEveryPair) {
  // MSET's join funnels a part's error into its one reply: every pair's
  // batch seals locally and then misses its ack deadline, so MSET answers
  // -WAITTIMEOUT (never a local-only +OK) while every pair is applied.
  std::string err;
  auto primary = Server::Start(PrimaryOpts(1, /*timeout_ms=*/200), &err);
  ASSERT_NE(primary, nullptr) << err;
  auto pc = Client::Connect("127.0.0.1", primary->port(), &err);
  ASSERT_NE(pc, nullptr) << err;

  std::vector<std::string> mset = {"MSET"};
  std::set<uint32_t> shards;
  for (int i = 0; i < 6; ++i) {
    mset.push_back(Key(i));
    mset.push_back("v" + std::to_string(i));
    shards.insert(ShardFor(Key(i), 2));
  }
  ASSERT_EQ(shards.size(), 2u);  // parts on both shards
  RespReply r;
  ASSERT_TRUE(pc->Roundtrip(mset, &r));
  ASSERT_EQ(r.type, RespReply::Type::kError) << r.str;
  EXPECT_EQ(r.str.rfind("WAITTIMEOUT wrote locally durable; replica quorum of "
                        "1 not reached for seq ",
                        0),
            0u)
      << r.str;
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(pc->Get(Key(i)).value_or("<missing>"), "v" + std::to_string(i));
  }

  ASSERT_TRUE(pc->Shutdown());
  primary->Wait();
  EXPECT_TRUE(primary->shutdown_report().ok);
}

TEST_F(WaitE2E, MsetOnReplicaAnswersReadonly) {
  std::string err;
  auto primary = Server::Start(PrimaryOpts(0, 1000), &err);
  ASSERT_NE(primary, nullptr) << err;
  auto replica = Server::Start(ReplicaOpts(primary->port()), &err);
  ASSERT_NE(replica, nullptr) << err;
  auto rc = Client::Connect("127.0.0.1", replica->port(), &err);
  ASSERT_NE(rc, nullptr) << err;

  RespReply r;
  ASSERT_TRUE(rc->Roundtrip({"MSET", Key(0), "a", Key(1), "b", Key(2), "c"}, &r));
  ASSERT_EQ(r.type, RespReply::Type::kError) << r.str;
  EXPECT_EQ(r.str, "READONLY replica - write rejected");
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(rc->Get(Key(i)).has_value()) << Key(i);
  }

  ASSERT_TRUE(rc->Shutdown());
  replica->Wait();
  auto pc = Client::Connect("127.0.0.1", primary->port(), &err);
  ASSERT_NE(pc, nullptr) << err;
  ASSERT_TRUE(pc->Shutdown());
  primary->Wait();
}

TEST_F(WaitE2E, ReplicaKilledMidStreamThenNewReplicaRestoresQuorum) {
  std::string err;
  auto primary = Server::Start(PrimaryOpts(1, /*timeout_ms=*/200), &err);
  ASSERT_NE(primary, nullptr) << err;
  auto pc = Client::Connect("127.0.0.1", primary->port(), &err);
  ASSERT_NE(pc, nullptr) << err;

  {
    auto replica = Server::Start(ReplicaOpts(primary->port()), &err);
    ASSERT_NE(replica, nullptr) << err;
    WaitForSubs(*pc, 2);
    ASSERT_TRUE(pc->Set(Key(0), "v0")) << pc->last_error();
    auto rc = Client::Connect("127.0.0.1", replica->port(), &err);
    ASSERT_NE(rc, nullptr) << err;
    ASSERT_TRUE(rc->Shutdown());  // replica leaves; its subs unsubscribe
    replica->Wait();
  }

  // Quorum lost: writes degrade (reply is -WAITTIMEOUT, never +OK) but the
  // primary keeps serving and stays responsive. Allow a few +OK-free
  // iterations while the dead subscriber's eviction propagates.
  {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    RespReply r;
    for (int i = 1;; ++i) {
      ASSERT_TRUE(pc->Roundtrip({"SET", Key(i), "vx"}, &r));
      if (r.type == RespReply::Type::kError) {
        EXPECT_EQ(r.str.rfind("WAITTIMEOUT", 0), 0u) << r.str;
        break;
      }
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "writes kept replying +OK with no live replica";
    }
    EXPECT_TRUE(pc->Ping());
    EXPECT_EQ(pc->Get(Key(0)).value_or("<missing>"), "v0");
  }

  // A fresh replica re-subscribes (its from-seq is an implicit ack
  // watermark) and +OK service resumes.
  auto replica = Server::Start(ReplicaOpts(primary->port()), &err);
  ASSERT_NE(replica, nullptr) << err;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  for (;;) {
    if (pc->Set("resumed", "yes")) {
      break;
    }
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "quorum never recovered: " << pc->last_error();
  }

  auto rc = Client::Connect("127.0.0.1", replica->port(), &err);
  ASSERT_NE(rc, nullptr) << err;
  ASSERT_TRUE(rc->Shutdown());
  replica->Wait();
  ASSERT_TRUE(pc->Shutdown());
  primary->Wait();
}

TEST_F(WaitE2E, EveryWaitAckedKeySurvivesPromotion) {
  std::string err;
  auto primary = Server::Start(PrimaryOpts(1, /*timeout_ms=*/5000), &err);
  ASSERT_NE(primary, nullptr) << err;
  auto replica = Server::Start(ReplicaOpts(primary->port()), &err);
  ASSERT_NE(replica, nullptr) << err;
  auto pc = Client::Connect("127.0.0.1", primary->port(), &err);
  ASSERT_NE(pc, nullptr) << err;
  WaitForSubs(*pc, 2);

  // Every +OK below is a WAIT-acked write: the replica has it.
  const int kN = 100;
  for (int i = 0; i < kN; ++i) {
    ASSERT_TRUE(pc->Set(Key(i), "val:" + std::to_string(i)))
        << pc->last_error();
  }

  // Primary dies; no drain grace for the replica — acked is enough.
  primary->RequestShutdown();
  primary->Wait();
  pc.reset();

  auto rc = Client::Connect("127.0.0.1", replica->port(), &err);
  ASSERT_NE(rc, nullptr) << err;
  RespReply r;
  ASSERT_TRUE(rc->Roundtrip({"PROMOTE"}, &r));
  ASSERT_EQ(r.type, RespReply::Type::kSimple) << r.str;

  // The WAIT contract: acked-before-death ⇒ present after promotion, with
  // no waiting or resync.
  for (int i = 0; i < kN; ++i) {
    EXPECT_EQ(rc->Get(Key(i)).value_or("<missing>"),
              "val:" + std::to_string(i));
  }
  ASSERT_TRUE(rc->Set("after-promote", "yes"));

  ASSERT_TRUE(rc->Shutdown());
  replica->Wait();
  EXPECT_TRUE(replica->shutdown_report().ok);
}

TEST_F(WaitE2E, PromoteIsAllOrNothingWhenOneShardFailsAudit) {
  std::string err;
  auto primary = Server::Start(PrimaryOpts(0, 1000), &err);
  ASSERT_NE(primary, nullptr) << err;
  auto pc = Client::Connect("127.0.0.1", primary->port(), &err);
  ASSERT_NE(pc, nullptr) << err;

  ServerOptions ropts = ReplicaOpts(primary->port());
  ropts.shard.fail_promote_audit_shard = 1;  // injected audit failure
  auto replica = Server::Start(ropts, &err);
  ASSERT_NE(replica, nullptr) << err;

  // Write one key per shard so both shards' follower state is observable.
  std::string k0, k1;
  for (int i = 0; k0.empty() || k1.empty(); ++i) {
    const std::string k = Key(i);
    (ShardFor(k, 2) == 0 ? k0 : k1) = k;
  }
  ASSERT_TRUE(pc->Set(k0, "a"));
  ASSERT_TRUE(pc->Set(k1, "b"));

  auto rc = Client::Connect("127.0.0.1", replica->port(), &err);
  ASSERT_NE(rc, nullptr) << err;

  // PROMOTE must fail (shard 1's audit is rigged to fail)...
  RespReply r;
  ASSERT_TRUE(rc->Roundtrip({"PROMOTE"}, &r));
  ASSERT_EQ(r.type, RespReply::Type::kError) << r.str;
  EXPECT_EQ(r.str, "ERR promote audit failed on shard 1: injected audit failure");

  // ...and no shard may have flipped: writes to keys on BOTH shards are
  // still rejected. (The one-phase bug flipped shard 0 before shard 1's
  // audit failed, splitting the server into half-primary half-follower.)
  for (const std::string& k : {k0, k1}) {
    RespReply w;
    ASSERT_TRUE(rc->Roundtrip({"SET", k, "x"}, &w)) << k;
    ASSERT_EQ(w.type, RespReply::Type::kError) << k << ": " << w.str;
    EXPECT_EQ(w.str.rfind("READONLY", 0), 0u) << k << ": " << w.str;
  }

  rc->Shutdown();
  replica->Wait();
  ASSERT_TRUE(pc->Shutdown());
  primary->Wait();
}

// ---- Session reads: shard-level parking (MINSEQ gate, DESIGN.md §8) ---------
// Direct-shard tests drive GateSessionRead/TickReadStale from the test
// thread (playing the event loop) while kApply records advance the applied
// watermark on the worker thread — the exact division of labor in the
// server.

std::string PutRecord(uint64_t seq, const std::string& key,
                      const std::string& value) {
  repl::ReplOp op;
  op.kind = repl::ReplOp::Kind::kPut;
  op.key = key;
  op.record.fields.push_back(value);
  std::string batch, rec;
  repl::EncodeBatch({op}, &batch);
  repl::EncodeRecord(seq, batch, &rec);
  return rec;
}

std::string Bulk(const std::string& v) {
  return "$" + std::to_string(v.size()) + "\r\n" + v + "\r\n";
}

class SessionShard : public ::testing::Test {
 protected:
  std::unique_ptr<Shard> OpenFollower(ShardOptions o) {
    o.follower = true;
    return Shard::Open(o, 0, &sink_);
  }

  void Apply(Shard& sh, uint64_t seq, const std::string& key,
             const std::string& value) {
    Request r;
    r.op = Request::Op::kApply;
    r.value = PutRecord(seq, key, value);
    ASSERT_TRUE(sh.Submit(std::move(r)));
  }

  static void WaitSealed(Shard& sh, uint64_t seq) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (sh.repl_next_seq() < seq + 1) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  static Request Read(const std::string& key, uint64_t min_seq, uint64_t conn,
                      uint64_t seq) {
    Request r;
    r.op = Request::Op::kGet;
    r.key = key;
    r.conn_id = conn;
    r.seq = seq;
    r.min_seq = min_seq;
    return r;
  }

  // Parked completions arrive from the worker thread; poll until n landed.
  std::vector<Completion>& WaitCompletions(size_t n) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (got_.size() < n &&
           std::chrono::steady_clock::now() < deadline) {
      for (Completion& c : sink_.take()) {
        got_.push_back(std::move(c));
      }
      if (got_.size() < n) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    EXPECT_GE(got_.size(), n);
    return got_;
  }

  CollectSink sink_;
  std::vector<Completion> got_;
};

TEST_F(SessionShard, MinSeqSatisfiedAtExactBoundary) {
  auto sh = OpenFollower(SmallShard());
  Apply(*sh, 1, "k", "v1");
  WaitSealed(*sh, 1);

  // Token == watermark: the boundary is inclusive — no park, no stale.
  Request r = Read("k", /*min_seq=*/1, /*conn=*/1, /*seq=*/1);
  EXPECT_EQ(sh->GateSessionRead(r, /*now_ms=*/0), Shard::ReadGate::kReady);
  ASSERT_TRUE(sh->Submit(std::move(r)));
  auto& got = WaitCompletions(1);
  EXPECT_EQ(got[0].reply, Bulk("v1"));

  // Token == watermark + 1 parks, and the apply that lands exactly on the
  // token releases it with the new value.
  Request r2 = Read("k", 2, 1, 2);
  EXPECT_EQ(sh->GateSessionRead(r2, 0), Shard::ReadGate::kParked);
  EXPECT_EQ(sh->Stats().repl.parked_reads, 1u);
  Apply(*sh, 2, "k", "v2");
  WaitCompletions(2);
  EXPECT_EQ(got[1].reply, Bulk("v2"));
  EXPECT_EQ(sh->Stats().repl.released_reads, 1u);
  EXPECT_EQ(sh->Stats().repl.stale_reads, 0u);
  EXPECT_TRUE(sh->Quiesce().integrity_ok);
}

TEST_F(SessionShard, OneApplyReleasesParkedReadersInParkOrder) {
  auto sh = OpenFollower(SmallShard());
  Apply(*sh, 1, "k", "v1");
  WaitSealed(*sh, 1);

  for (uint64_t conn = 1; conn <= 3; ++conn) {
    Request r = Read("k", /*min_seq=*/2, conn, /*seq=*/conn);
    ASSERT_EQ(sh->GateSessionRead(r, 0), Shard::ReadGate::kParked) << conn;
  }
  EXPECT_EQ(sh->Stats().repl.parked_reads, 3u);

  // One watermark advance releases all three, in park order, all with the
  // post-advance value.
  Apply(*sh, 2, "k", "v2");
  auto& got = WaitCompletions(3);
  ASSERT_EQ(got.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(got[i].conn_id, i + 1) << "release order broke park order";
    EXPECT_EQ(got[i].reply, Bulk("v2"));
  }
  EXPECT_EQ(sh->Stats().repl.released_reads, 3u);
  EXPECT_EQ(sh->Stats().repl.parked_reads, 0u);
  EXPECT_TRUE(sh->Quiesce().integrity_ok);
}

TEST_F(SessionShard, ParkBoundOverflowAndDeadlineAnswerStale) {
  ShardOptions o = SmallShard();
  o.read_park_max = 2;
  o.read_stale_timeout_ms = 100;
  auto sh = OpenFollower(o);
  Apply(*sh, 1, "k", "v1");
  WaitSealed(*sh, 1);

  Request a = Read("k", 5, 1, 1);
  Request b = Read("k", 5, 2, 2);
  ASSERT_EQ(sh->GateSessionRead(a, /*now_ms=*/1000), Shard::ReadGate::kParked);
  ASSERT_EQ(sh->GateSessionRead(b, 1000), Shard::ReadGate::kParked);

  // The third read overflows the bound: -STALE immediately, never silence.
  Request c = Read("k", 5, 3, 3);
  ASSERT_EQ(sh->GateSessionRead(c, 1000), Shard::ReadGate::kStale);
  auto& got = WaitCompletions(1);
  EXPECT_EQ(got[0].conn_id, 3u);
  EXPECT_EQ(got[0].reply.rfind("-STALE", 0), 0u) << got[0].reply;

  // Before the deadline the tick is a no-op; past it both parked reads
  // expire (still uncovered: the watermark never reached 5).
  sh->TickReadStale(1000 + o.read_stale_timeout_ms - 1);
  EXPECT_EQ(sh->Stats().repl.parked_reads, 2u);
  sh->TickReadStale(1000 + o.read_stale_timeout_ms);
  WaitCompletions(3);
  EXPECT_EQ(got[1].conn_id, 1u);
  EXPECT_EQ(got[2].conn_id, 2u);
  for (size_t i = 1; i < 3; ++i) {
    EXPECT_EQ(got[i].reply.rfind("-STALE", 0), 0u) << got[i].reply;
  }
  EXPECT_EQ(sh->Stats().repl.stale_reads, 3u);
  EXPECT_EQ(sh->Stats().repl.released_reads, 0u);
  EXPECT_TRUE(sh->Quiesce().integrity_ok);
}

TEST_F(SessionShard, ApplyStreamFlowsPastParkedReads) {
  // Regression: parked reads live OUTSIDE the worker queue. A read waiting
  // for a future watermark must never delay, reorder, or starve the kApply
  // stream — the original design bug (parking the read IN the queue) would
  // deadlock right here, with the releasing apply stuck behind the read.
  auto sh = OpenFollower(SmallShard());
  Apply(*sh, 1, "k", "v1");
  WaitSealed(*sh, 1);

  Request mid = Read("k", /*min_seq=*/5, /*conn=*/1, /*seq=*/1);
  ASSERT_EQ(sh->GateSessionRead(mid, 0), Shard::ReadGate::kParked);
  Request never = Read("k", /*min_seq=*/1000, /*conn=*/2, /*seq=*/2);
  ASSERT_EQ(sh->GateSessionRead(never, 0), Shard::ReadGate::kParked);

  // The full apply stream lands while both reads are parked.
  for (uint64_t s = 2; s <= 10; ++s) {
    Apply(*sh, s, "k", "v" + std::to_string(s));
  }
  WaitSealed(*sh, 10);
  EXPECT_EQ(sh->repl_next_seq(), 11u);

  // The mid read released at the first batch covering seq 5: its value is
  // v5..v10 — at or past its token, never older.
  auto& got = WaitCompletions(1);
  EXPECT_EQ(got[0].conn_id, 1u);
  uint64_t version = 0;
  ASSERT_EQ(std::sscanf(got[0].reply.c_str(), "$%*d\r\nv%llu",
                        reinterpret_cast<unsigned long long*>(&version)),
            1)
      << got[0].reply;
  EXPECT_GE(version, 5u) << got[0].reply;
  EXPECT_LE(version, 10u) << got[0].reply;

  // Applies were not reordered or dropped around the parked reads: the
  // store's final state is the full prefix.
  Request tail = Read("k", 10, 3, 3);
  EXPECT_EQ(sh->GateSessionRead(tail, 0), Shard::ReadGate::kReady);
  ASSERT_TRUE(sh->Submit(std::move(tail)));
  WaitCompletions(2);
  EXPECT_EQ(got[1].reply, Bulk("v10"));

  // Quiesce force-stales the unsatisfiable read instead of hanging.
  EXPECT_TRUE(sh->Quiesce().integrity_ok);
  WaitCompletions(3);
  EXPECT_EQ(got[2].conn_id, 2u);
  EXPECT_EQ(got[2].reply.rfind("-STALE", 0), 0u) << got[2].reply;
}

// ---- Session reads + chained (tree) replication e2e -------------------------
// The MINSEQ dispatch, the read-stale tick, and the chained REPLSYNC serving.

class SessionE2E : public ::testing::Test {
 protected:
  static constexpr uint32_t kShards = 2;

  ServerOptions Opts() {
    ServerOptions o;
    o.nshards = kShards;
    o.shard = SmallShard();
    return o;
  }
  ServerOptions FollowerOpts(uint16_t upstream_port) {
    ServerOptions o = Opts();
    o.replica_of = "127.0.0.1:" + std::to_string(upstream_port);
    return o;
  }
  static std::string Key(int i) { return "sk:" + std::to_string(i); }
  static std::string Val(int i) { return "val:" + std::to_string(i); }

  // Raises the replica connection's tokens to the primary's current sealed
  // watermarks — after this, session reads must observe every write the
  // primary has acked so far, or answer -STALE. Never a silent old value.
  static void RaiseTokens(Client& pc, Client& rc) {
    for (uint32_t s = 0; s < kShards; ++s) {
      const auto tok = pc.LastSeq(s);
      ASSERT_TRUE(tok.has_value()) << pc.last_error();
      ASSERT_TRUE(rc.MinSeq(s, *tok)) << rc.last_error();
    }
  }
};

TEST_F(SessionE2E, ReadYourWritesAcrossConnections) {
  std::string err;
  auto primary = Server::Start(Opts(), &err);
  ASSERT_NE(primary, nullptr) << err;
  auto replica = Server::Start(FollowerOpts(primary->port()), &err);
  ASSERT_NE(replica, nullptr) << err;
  auto pc = Client::Connect("127.0.0.1", primary->port(), &err);
  ASSERT_NE(pc, nullptr) << err;
  auto rc = Client::Connect("127.0.0.1", replica->port(), &err);
  ASSERT_NE(rc, nullptr) << err;

  // No polling loop anywhere: each round writes through the primary, raises
  // the session tokens, and the replica read must return the fresh value on
  // the FIRST attempt — parking bridges the replication lag.
  const int kN = 60;
  for (int i = 0; i < kN; ++i) {
    ASSERT_TRUE(pc->Set(Key(i), Val(i))) << pc->last_error();
    RaiseTokens(*pc, *rc);
    EXPECT_EQ(rc->Get(Key(i)).value_or("<missing>"), Val(i)) << i;
  }

  // The tokens raised the released/parked counters, never the stale one.
  const std::string stats = rc->Stats().value_or("");
  EXPECT_EQ(SumStatsField(stats, "stale_reads="), 0u) << stats;

  // LASTSEQ on a log-less shard config and MINSEQ arg validation.
  RespReply r;
  const std::vector<std::vector<std::string>> bad = {
      {"MINSEQ"},           // missing args
      {"MINSEQ", "0"},      // missing seq
      {"MINSEQ", "9", "1"},  // shard out of range
      {"MINSEQ", "x", "1"},  // non-numeric shard
      {"MINSEQ", "0", "x"},  // non-numeric seq
      {"LASTSEQ"},          // missing shard
      {"LASTSEQ", "9"},     // shard out of range
  };
  for (const auto& args : bad) {
    ASSERT_TRUE(rc->Roundtrip(args, &r)) << args[0];
    EXPECT_EQ(r.type, RespReply::Type::kError) << args[0];
  }

  ASSERT_TRUE(rc->Shutdown());
  replica->Wait();
  ASSERT_TRUE(pc->Shutdown());
  primary->Wait();
}

TEST_F(SessionE2E, StalledReplicaAnswersStaleNeverOldValues) {
  std::string err;
  auto primary = Server::Start(Opts(), &err);
  ASSERT_NE(primary, nullptr) << err;
  ServerOptions ropts = FollowerOpts(primary->port());
  ropts.shard.read_stale_timeout_ms = 100;  // fast explicit failure
  auto replica = Server::Start(ropts, &err);
  ASSERT_NE(replica, nullptr) << err;
  auto pc = Client::Connect("127.0.0.1", primary->port(), &err);
  ASSERT_NE(pc, nullptr) << err;
  auto rc = Client::Connect("127.0.0.1", replica->port(), &err);
  ASSERT_NE(rc, nullptr) << err;
  ASSERT_TRUE(pc->Set(Key(0), Val(0)));

  // A token far past anything the stalled stream will deliver: the read
  // parks for read_stale_timeout_ms, then fails EXPLICITLY.
  const uint32_t s = ShardFor(Key(0), kShards);
  ASSERT_TRUE(rc->MinSeq(s, 1u << 30));
  const auto t0 = std::chrono::steady_clock::now();
  RespReply r;
  ASSERT_TRUE(rc->Roundtrip({"GET", Key(0)}, &r));
  const auto waited = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);
  ASSERT_EQ(r.type, RespReply::Type::kError) << r.str;
  EXPECT_EQ(r.str.rfind("STALE", 0), 0u) << r.str;
  EXPECT_GE(waited.count(), 90) << "answered before the park deadline";

  const std::string stats = rc->Stats().value_or("");
  EXPECT_GE(SumStatsField(stats, "stale_reads="), 1u) << stats;

  // The connection survives -STALE (tokens are monotone per connection, so
  // this one keeps its floor), and other sessions are unaffected: a fresh
  // connection with no token reads normally.
  EXPECT_TRUE(rc->Ping());
  auto rc2 = Client::Connect("127.0.0.1", replica->port(), &err);
  ASSERT_NE(rc2, nullptr) << err;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!rc2->Get(Key(0)).has_value()) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  ASSERT_TRUE(rc->Shutdown());
  replica->Wait();
  ASSERT_TRUE(pc->Shutdown());
  primary->Wait();
}

TEST_F(SessionE2E, ChainedTreeConvergesAndServesSessionReads) {
  // primary → r1 → r2: r1 serves REPLSYNC downstream from its own log
  // (byte-identical to the primary's sealed prefix), and session tokens
  // taken on the PRIMARY are valid on the leaf — seqs are global.
  std::string err;
  auto primary = Server::Start(Opts(), &err);
  ASSERT_NE(primary, nullptr) << err;
  auto r1 = Server::Start(FollowerOpts(primary->port()), &err);
  ASSERT_NE(r1, nullptr) << err;
  ServerOptions leaf_opts = FollowerOpts(r1->port());
  leaf_opts.shard.read_stale_timeout_ms = 10'000;  // two hops of lag to bridge
  auto r2 = Server::Start(leaf_opts, &err);
  ASSERT_NE(r2, nullptr) << err;

  auto pc = Client::Connect("127.0.0.1", primary->port(), &err);
  ASSERT_NE(pc, nullptr) << err;
  auto lc = Client::Connect("127.0.0.1", r2->port(), &err);
  ASSERT_NE(lc, nullptr) << err;

  const int kN = 100;
  for (int i = 0; i < kN; ++i) {
    ASSERT_TRUE(pc->Set(Key(i), Val(i))) << pc->last_error();
  }
  RaiseTokens(*pc, *lc);
  for (int i = 0; i < kN; ++i) {
    EXPECT_EQ(lc->Get(Key(i)).value_or("<missing>"), Val(i)) << i;
  }

  // The leaf never contacted the primary: its stream came through r1, whose
  // stats show downstream subscribers; no gap teardowns fired on the leaf.
  auto r1c = Client::Connect("127.0.0.1", r1->port(), &err);
  ASSERT_NE(r1c, nullptr) << err;
  const std::string mid_stats = r1c->Stats().value_or("");
  EXPECT_GE(SumStatsField(mid_stats, "subs="), 1u) << mid_stats;
  const std::string leaf_stats = lc->Stats().value_or("");
  EXPECT_EQ(SumStatsField(leaf_stats, "gap_resyncs="), 0u) << leaf_stats;
  EXPECT_EQ(SumStatsField(leaf_stats, "stale_reads="), 0u) << leaf_stats;

  ASSERT_TRUE(lc->Shutdown());
  r2->Wait();
  ASSERT_TRUE(r1c->Shutdown());
  r1->Wait();
  ASSERT_TRUE(pc->Shutdown());
  primary->Wait();
}

TEST_F(SessionE2E, MiddleDeathLeafResyncsFromPrimaryWithoutSnapshot) {
  const std::string base =
      (std::filesystem::temp_directory_path() /
       ("jnvm_session_mid_" + std::to_string(::getpid())))
          .string();
  std::string err;
  auto primary = Server::Start(Opts(), &err);
  ASSERT_NE(primary, nullptr) << err;
  auto pc = Client::Connect("127.0.0.1", primary->port(), &err);
  ASSERT_NE(pc, nullptr) << err;

  auto r1 = Server::Start(FollowerOpts(primary->port()), &err);
  ASSERT_NE(r1, nullptr) << err;

  const int kHalf = 50;
  ServerOptions leaf_opts = FollowerOpts(r1->port());
  leaf_opts.shard.image_base = base;
  {
    auto r2 = Server::Start(leaf_opts, &err);
    ASSERT_NE(r2, nullptr) << err;
    for (int i = 0; i < kHalf; ++i) {
      ASSERT_TRUE(pc->Set(Key(i), Val(i)));
    }
    auto lc = Client::Connect("127.0.0.1", r2->port(), &err);
    ASSERT_NE(lc, nullptr) << err;
    RaiseTokens(*pc, *lc);
    for (int i = 0; i < kHalf; ++i) {
      ASSERT_EQ(lc->Get(Key(i)).value_or("<missing>"), Val(i)) << i;
    }
    ASSERT_TRUE(lc->Shutdown());  // leaf leaves, saving follower images
    r2->Wait();
    ASSERT_TRUE(r2->shutdown_report().ok);
  }

  // The middle tier dies; more writes land at the primary meanwhile.
  r1->RequestShutdown();
  r1->Wait();
  r1.reset();
  for (int i = kHalf; i < 2 * kHalf; ++i) {
    ASSERT_TRUE(pc->Set(Key(i), Val(i)));
  }

  // The leaf re-homes onto the primary, recovering its images. Because a
  // follower's log is byte-identical to the upstream's sealed prefix —
  // primary seqs, primary bytes — the leaf's REPLSYNC from its own sealed
  // boundary lines up with the primary's log directly: catch-up must come
  // from the retained stream, not a snapshot.
  ServerOptions rehome = FollowerOpts(primary->port());
  rehome.shard.image_base = base;
  auto r2 = Server::Start(rehome, &err);
  ASSERT_NE(r2, nullptr) << err;
  EXPECT_TRUE(r2->AnyShardRecovered());
  auto lc = Client::Connect("127.0.0.1", r2->port(), &err);
  ASSERT_NE(lc, nullptr) << err;
  RaiseTokens(*pc, *lc);
  for (int i = 0; i < 2 * kHalf; ++i) {
    EXPECT_EQ(lc->Get(Key(i)).value_or("<missing>"), Val(i)) << i;
  }
  ASSERT_NE(r2->repl_client(), nullptr);
  EXPECT_EQ(r2->repl_client()->Stats().snapshots_installed, 0u);

  ASSERT_TRUE(lc->Shutdown());
  r2->Wait();
  ASSERT_TRUE(pc->Shutdown());
  primary->Wait();
  for (uint32_t i = 0; i < kShards; ++i) {
    std::filesystem::remove(base + ".shard" + std::to_string(i) + ".img");
  }
}

TEST_F(SessionE2E, MidTreePromoteKeepsAckedKeysReadable) {
  std::string err;
  auto primary = Server::Start(Opts(), &err);
  ASSERT_NE(primary, nullptr) << err;
  auto r1 = Server::Start(FollowerOpts(primary->port()), &err);
  ASSERT_NE(r1, nullptr) << err;
  auto r2 = Server::Start(FollowerOpts(r1->port()), &err);
  ASSERT_NE(r2, nullptr) << err;

  auto pc = Client::Connect("127.0.0.1", primary->port(), &err);
  ASSERT_NE(pc, nullptr) << err;
  auto mc = Client::Connect("127.0.0.1", r1->port(), &err);
  ASSERT_NE(mc, nullptr) << err;

  // Acked writes, then session-verify they reached the mid tier before the
  // primary dies (tokens make "reached" precise — no sleeps).
  const int kN = 80;
  for (int i = 0; i < kN; ++i) {
    ASSERT_TRUE(pc->Set(Key(i), Val(i)));
  }
  RaiseTokens(*pc, *mc);
  for (int i = 0; i < kN; ++i) {
    ASSERT_EQ(mc->Get(Key(i)).value_or("<missing>"), Val(i)) << i;
  }

  primary->RequestShutdown();
  primary->Wait();
  pc.reset();

  // Promote the mid tier: every session-verified key stays readable, the
  // ex-follower becomes writable, and the leaf keeps following it — the
  // subtree survives the root's death intact.
  RespReply r;
  ASSERT_TRUE(mc->Roundtrip({"PROMOTE"}, &r));
  ASSERT_EQ(r.type, RespReply::Type::kSimple) << r.str;
  for (int i = 0; i < kN; ++i) {
    EXPECT_EQ(mc->Get(Key(i)).value_or("<missing>"), Val(i)) << i;
  }
  ASSERT_TRUE(mc->Set("after-promote", "yes"));

  // The leaf picks the new write up through its unchanged upstream, and
  // session reads against the NEW primary's tokens keep working on it.
  auto lc = Client::Connect("127.0.0.1", r2->port(), &err);
  ASSERT_NE(lc, nullptr) << err;
  RaiseTokens(*mc, *lc);
  EXPECT_EQ(lc->Get("after-promote").value_or("<missing>"), "yes");
  for (int i = 0; i < kN; ++i) {
    EXPECT_EQ(lc->Get(Key(i)).value_or("<missing>"), Val(i)) << i;
  }

  ASSERT_TRUE(lc->Shutdown());
  r2->Wait();
  ASSERT_TRUE(mc->Shutdown());
  r1->Wait();
  EXPECT_TRUE(r1->shutdown_report().ok);
}

// A cross-shard MULTI/EXEC is atomic for session readers on a replica: the
// per-shard streams apply independently, but once the session tokens cover
// the primary's post-EXEC watermarks (the decision on the coordinator, the
// commit marker on the other participant), BOTH reads must return the txn's
// values — never one new and one old, and never a silent stale value.
TEST_F(SessionE2E, CrossShardTxnAtomicUnderSessionReads) {
  std::string err;
  auto primary = Server::Start(Opts(), &err);
  ASSERT_NE(primary, nullptr) << err;
  auto replica = Server::Start(FollowerOpts(primary->port()), &err);
  ASSERT_NE(replica, nullptr) << err;
  auto pc = Client::Connect("127.0.0.1", primary->port(), &err);
  ASSERT_NE(pc, nullptr) << err;
  auto rc = Client::Connect("127.0.0.1", replica->port(), &err);
  ASSERT_NE(rc, nullptr) << err;

  // One key pinned to each shard.
  const auto key_on = [](uint32_t shard) {
    for (int i = 0;; ++i) {
      std::string k = "txk:" + std::to_string(i);
      if (ShardFor(k, kShards) == shard) {
        return k;
      }
    }
  };
  const std::string k0 = key_on(0);
  const std::string k1 = key_on(1);

  // No polling loop: by EXEC-reply time the commit marker for the
  // non-coordinator shard is enqueued ahead of the LASTSEQ probes, so the
  // raised tokens cover the whole txn and the first read attempt must
  // already observe both writes.
  const int kRounds = 30;
  for (int round = 0; round < kRounds; ++round) {
    const std::string v = "round:" + std::to_string(round);
    ASSERT_TRUE(pc->Multi()) << pc->last_error();
    RespReply q;
    ASSERT_TRUE(pc->Roundtrip({"SET", k0, v}, &q));
    ASSERT_TRUE(pc->Roundtrip({"SET", k1, v}, &q));
    std::vector<RespReply> replies;
    ASSERT_TRUE(pc->Exec(&replies)) << pc->last_error();
    ASSERT_EQ(replies.size(), 2u);
    RaiseTokens(*pc, *rc);
    EXPECT_EQ(rc->Get(k0).value_or("<missing>"), v) << "round " << round;
    EXPECT_EQ(rc->Get(k1).value_or("<missing>"), v) << "round " << round;
  }
  const std::string stats = rc->Stats().value_or("");
  EXPECT_EQ(SumStatsField(stats, "stale_reads="), 0u) << stats;

  ASSERT_TRUE(rc->Shutdown());
  replica->Wait();
  ASSERT_TRUE(pc->Shutdown());
  primary->Wait();
}

TEST(ReplCommands, ArgumentValidation) {
  ServerOptions o;
  o.nshards = 2;
  o.shard = SmallShard();
  std::string err;
  auto server = Server::Start(o, &err);
  ASSERT_NE(server, nullptr) << err;
  auto c = Client::Connect("127.0.0.1", server->port(), &err);
  ASSERT_NE(c, nullptr) << err;

  const std::vector<std::vector<std::string>> bad = {
      {"REPLSYNC"},                 // missing args
      {"REPLSYNC", "0"},            // missing from-seq
      {"REPLSYNC", "9", "1"},       // shard out of range
      {"REPLSYNC", "x", "1"},       // non-numeric shard
      {"REPLSYNC", "0", "0"},       // from-seq must be ≥ 1
      {"REPLSYNC", "0", "abc"},     // non-numeric from-seq
      {"REPLSNAP"},                 // missing shard
      {"REPLSNAP", "2"},            // shard out of range
      {"REPLDIFF"},                 // missing args
      {"REPLDIFF", "0", "2"},       // missing digest frame
      {"REPLDIFF", "9", "2", ""},   // shard out of range
      {"REPLDIFF", "0", "0", ""},   // from-seq must be ≥ 1
      {"PROMOTE", "extra"},         // PROMOTE takes no args
      {"CKPT", "extra"},            // CKPT takes no args
  };
  for (const auto& args : bad) {
    RespReply r;
    ASSERT_TRUE(c->Roundtrip(args, &r)) << args[0];
    EXPECT_EQ(r.type, RespReply::Type::kError) << args[0];
  }

  // PROMOTE on a primary is a no-op audit: already writable.
  RespReply r;
  ASSERT_TRUE(c->Roundtrip({"PROMOTE"}, &r));
  EXPECT_EQ(r.type, RespReply::Type::kSimple) << r.str;

  // A valid REPLSNAP round-trips a decodable snapshot frame.
  ASSERT_TRUE(c->Set("snapkey", "snapval"));
  ASSERT_TRUE(c->Roundtrip({"REPLSNAP", "0"}, &r));
  ASSERT_EQ(r.type, RespReply::Type::kBulk) << r.str;
  uint64_t snap_seq = 0;
  std::vector<repl::SnapshotEntry> entries;
  EXPECT_TRUE(repl::DecodeSnapshot(r.str, &snap_seq, &entries));

  ASSERT_TRUE(c->Shutdown());
  server->Wait();
}

}  // namespace
}  // namespace jnvm::server
