// Tests for the shards' store (src/server/kv_map.h): one KvEntry per key,
// the device work each server path costs, recovery of the mirror, the
// refusal of the previous layout, and a census of real shard images taken
// with the built jnvm_inspect.

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <optional>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/core/integrity.h"
#include "src/pdt/register_all.h"
#include "src/server/client.h"
#include "src/server/kv_map.h"
#include "src/server/server.h"
#include "src/server/shard.h"
#include "src/store/jpdt_backend.h"

namespace jnvm::server {
namespace {

std::unique_ptr<nvm::PmemDevice> NewDevice(size_t mb = 16) {
  nvm::DeviceOptions o;
  o.size_bytes = mb << 20;
  return std::make_unique<nvm::PmemDevice>(o);
}

store::Record One(std::string v) {
  store::Record r;
  r.fields.push_back(std::move(v));
  return r;
}

std::string TempBase(const std::string& tag) {
  return (std::filesystem::temp_directory_path() /
          ("jnvm_kvmap_" + tag + "_" + std::to_string(::getpid())))
      .string();
}

// ---- The map on its own ---------------------------------------------------------

TEST(KvMap, PutGetReplaceRemoveRoundTrip) {
  auto dev = NewDevice();
  auto rt = core::JnvmRuntime::Format(dev.get());
  auto m = KvMap::OpenOrCreate(*rt, "kv", 4);

  EXPECT_TRUE(m->Put("a", One("alpha")));
  EXPECT_FALSE(m->Put("a", One(std::string(700, 'x'))));  // replace, 3 blocks
  store::Record two;
  two.fields = {"left-", "right"};
  EXPECT_TRUE(m->Put("b", two));

  std::string reply;
  ASSERT_TRUE(m->AppendBulkValue("a", &reply));
  EXPECT_EQ(reply, "$700\r\n" + std::string(700, 'x') + "\r\n");
  reply.clear();
  ASSERT_TRUE(m->AppendBulkValue("b", &reply));  // GET joins the fields
  EXPECT_EQ(reply, "$10\r\nleft-right\r\n");
  EXPECT_FALSE(m->AppendBulkValue("zz", &reply));

  store::Record got;
  ASSERT_TRUE(m->Read("b", &got));
  EXPECT_EQ(got, two);
  EXPECT_TRUE(m->Touch("b"));
  EXPECT_FALSE(m->Touch("zz"));

  EXPECT_TRUE(m->Remove("a"));
  EXPECT_FALSE(m->Remove("a"));
  EXPECT_FALSE(m->Contains("a"));
  EXPECT_EQ(m->Size(), 1u);

  const KvOpStats st = m->stats();
  EXPECT_EQ(st.puts, 3u);
  EXPECT_EQ(st.gets, 6u);  // 3 GETs, 1 Read, 2 TOUCHes
  EXPECT_EQ(st.get_misses, 2u);
  EXPECT_EQ(st.deletes, 1u);
  EXPECT_EQ(st.bytes_read, 700u + 10u + 10u);
}

TEST(KvMap, HsetInPlaceOrReplacedAndOutOfRangeField) {
  auto dev = NewDevice();
  auto rt = core::JnvmRuntime::Format(dev.get());
  auto m = KvMap::OpenOrCreate(*rt, "kv", 4);
  store::Record r;
  r.fields = {"0123456789", "abc"};  // capacity 10 per field
  ASSERT_TRUE(m->Put("k", r));

  const heap::HeapStats before = rt->heap().stats();
  EXPECT_TRUE(m->UpdateField("k", 1, "fits-in-10"));  // in place
  EXPECT_EQ(rt->heap().stats().objects_allocated, before.objects_allocated);
  EXPECT_TRUE(m->UpdateField("k", 0, std::string(300, 'o')));  // overflow
  EXPECT_EQ(rt->heap().stats().objects_allocated, before.objects_allocated + 1);
  EXPECT_EQ(rt->heap().stats().objects_freed, before.objects_freed + 1);
  EXPECT_FALSE(m->UpdateField("k", 2, "no such field"));
  EXPECT_FALSE(m->UpdateField("absent", 0, "v"));

  store::Record got;
  ASSERT_TRUE(m->Read("k", &got));
  ASSERT_EQ(got.fields.size(), 2u);
  EXPECT_EQ(got.fields[0], std::string(300, 'o'));
  EXPECT_EQ(got.fields[1], "fits-in-10");
  EXPECT_TRUE(core::VerifyHeapIntegrity(*rt).ok());
}

TEST(KvMap, GrowthAndRecoveryRebuildTheMirror) {
  auto dev = NewDevice();
  {
    auto rt = core::JnvmRuntime::Format(dev.get());
    auto m = KvMap::OpenOrCreate(*rt, "kv", 4);
    for (int i = 0; i < 100; ++i) {
      const std::string v = i % 7 == 0 ? std::string(600 + i, 'L') : "v" + std::to_string(i);
      m->Put("key-" + std::to_string(i), One(v));
    }
    for (int i = 0; i < 100; i += 3) {
      m->Remove("key-" + std::to_string(i));
    }
    EXPECT_EQ(m->CapacitySlots(), 128u);  // 4 → 8 → … → 128
    rt->Abandon();  // a crash after every op returned: the ops were durable
  }
  KvMap::Class();
  KvEntry::Class();
  auto rt = core::JnvmRuntime::Open(dev.get());
  // One object per key, plus the map, its slot array and the root map's.
  EXPECT_LE(rt->recovery_report().traversed_objects, 66u + 8u);
  auto m = KvMap::OpenOrCreate(*rt, "kv", 4);
  EXPECT_EQ(m->Size(), 66u);
  for (int i = 0; i < 100; ++i) {
    const std::string key = "key-" + std::to_string(i);
    store::Record got;
    if (i % 3 == 0) {
      EXPECT_FALSE(m->Read(key, &got)) << key;
      continue;
    }
    ASSERT_TRUE(m->Read(key, &got)) << key;
    EXPECT_EQ(got, One(i % 7 == 0 ? std::string(600 + i, 'L') : "v" + std::to_string(i)));
  }
  size_t cells = m->ForEachPersisted([](const std::string&, const store::Record&) {});
  EXPECT_EQ(cells, 66u);
  EXPECT_TRUE(m->Put("key-0", One("back")));  // a recovered free slot is reused
  EXPECT_TRUE(core::VerifyHeapIntegrity(*rt).ok());
}

// The replaced entry of a group-commit batch is freed by DrainGroupFrees,
// after the batch Psync — never while its unlink may still be volatile.
TEST(KvMap, ReplaceUnderGroupCommitFreesOnlyInDrainGroupFrees) {
  auto dev = NewDevice();
  auto rt = core::JnvmRuntime::Format(dev.get());
  auto m = KvMap::OpenOrCreate(*rt, "kv", 4);
  m->Put("k", One("old"));
  rt->Psync();

  const heap::HeapStats h0 = rt->heap().stats();
  const nvm::DeviceStats d0 = dev->stats();
  rt->heap().BeginGroupCommit();
  EXPECT_FALSE(m->Put("k", One("new")));
  rt->heap().EndGroupCommit();
  const heap::HeapStats h1 = rt->heap().stats();
  EXPECT_EQ(h1.objects_allocated, h0.objects_allocated + 1);  // the new entry only
  EXPECT_EQ(h1.objects_freed, h0.objects_freed);              // old still held
  EXPECT_EQ(dev->stats().pfences, d0.pfences + 1);  // the ordering fence
  EXPECT_EQ(rt->heap().elided_fences(), 1u);        // the durability fence

  rt->Psync();
  EXPECT_EQ(rt->heap().stats().objects_freed, h0.objects_freed);
  rt->DrainGroupFrees();
  EXPECT_EQ(rt->heap().stats().objects_freed, h0.objects_freed + 1);
  std::string reply;
  ASSERT_TRUE(m->AppendBulkValue("k", &reply));
  EXPECT_EQ(reply, "$3\r\nnew\r\n");
}

// ---- Device work on one in-process shard -------------------------------------

class CollectSink : public CompletionSink {
 public:
  void OnCompletion(Completion&& c) override {
    std::lock_guard<std::mutex> lk(mu_);
    got_.push_back(std::move(c));
  }
  size_t count() {
    std::lock_guard<std::mutex> lk(mu_);
    return got_.size();
  }
  std::string WaitFor(size_t n) {
    for (;;) {
      {
        std::lock_guard<std::mutex> lk(mu_);
        if (got_.size() >= n) {
          return got_[n - 1].reply;
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

 private:
  std::mutex mu_;
  std::vector<Completion> got_;
};

class ShardDeviceWork : public ::testing::Test {
 protected:
  void SetUp() override {
    ShardOptions o;
    o.device_bytes = 32ull << 20;
    o.map_capacity = 1 << 10;
    o.repl_log = false;  // only the store's own device work is counted
    shard_ = Shard::Open(o, 0, &sink_);
    ASSERT_NE(shard_, nullptr);
  }
  void TearDown() override { EXPECT_TRUE(shard_->Quiesce().integrity_ok); }

  std::string Run(Request::Op op, const std::string& key, std::string value = {},
                  std::string ask = {}) {
    Request r;
    r.op = op;
    r.key = key;
    r.value = std::move(value);
    r.ask_addr = std::move(ask);
    r.conn_id = 1;
    r.seq = ++sent_;
    EXPECT_TRUE(shard_->Submit(std::move(r)));
    return sink_.WaitFor(sent_);
  }

  CollectSink sink_;
  std::unique_ptr<Shard> shard_;
  uint64_t sent_ = 0;
};

TEST_F(ShardDeviceWork, GetReadsTheSlotCellAndEachBlockOnce) {
  const std::string small(100, 's');
  const std::string large(1024, 'L');
  ASSERT_EQ(Run(Request::Op::kSet, "k100", small), "+OK\r\n");
  ASSERT_EQ(Run(Request::Op::kSet, "k1k", large), "+OK\r\n");

  // 100 B: the slot cell, then one block (12 + 4 + 4 + 100 B of payload).
  uint64_t r0 = shard_->Stats().device.reads;
  EXPECT_EQ(Run(Request::Op::kGet, "k100"), "$100\r\n" + small + "\r\n");
  EXPECT_EQ(shard_->Stats().device.reads - r0, 2u);
  // 1 KiB: the slot cell, then five blocks of 248 payload bytes each.
  r0 = shard_->Stats().device.reads;
  EXPECT_EQ(Run(Request::Op::kGet, "k1k"), "$1024\r\n" + large + "\r\n");
  EXPECT_EQ(shard_->Stats().device.reads - r0, 6u);
  // A miss is answered from the mirror.
  r0 = shard_->Stats().device.reads;
  EXPECT_EQ(Run(Request::Op::kGet, "nope"), "$-1\r\n");
  EXPECT_EQ(shard_->Stats().device.reads - r0, 0u);
}

// A replacing SET reads the slot cell, the new entry's header when it sets
// the valid bit, and the old entry's chain and header when it frees it; the
// chain it just allocated is never read back.
TEST_F(ShardDeviceWork, ReplaceSetReadsNoChainItJustAllocated) {
  ASSERT_EQ(Run(Request::Op::kSet, "k100", std::string(100, 'a')), "+OK\r\n");
  ASSERT_EQ(Run(Request::Op::kSet, "k1k", std::string(1024, 'a')), "+OK\r\n");

  uint64_t r0 = shard_->Stats().device.reads;
  ASSERT_EQ(Run(Request::Op::kSet, "k100", std::string(100, 'b')), "+OK\r\n");
  EXPECT_EQ(shard_->Stats().device.reads - r0, 4u);
  r0 = shard_->Stats().device.reads;
  ASSERT_EQ(Run(Request::Op::kSet, "k1k", std::string(1024, 'b')), "+OK\r\n");
  EXPECT_EQ(shard_->Stats().device.reads - r0, 8u);
}

TEST_F(ShardDeviceWork, InsertAllocatesOneObjectAndReplaceFreesOne) {
  heap::HeapStats h0 = shard_->Stats().heap;
  ASSERT_EQ(Run(Request::Op::kSet, "k", std::string(100, 'a')), "+OK\r\n");
  heap::HeapStats h1 = shard_->Stats().heap;
  EXPECT_EQ(h1.objects_allocated - h0.objects_allocated, 1u);
  EXPECT_EQ(h1.blocks_allocated - h0.blocks_allocated, 1u);
  EXPECT_EQ(h1.objects_freed, h0.objects_freed);

  ASSERT_EQ(Run(Request::Op::kSet, "k", std::string(1024, 'b')), "+OK\r\n");
  const heap::HeapStats h2 = shard_->Stats().heap;
  EXPECT_EQ(h2.objects_allocated - h1.objects_allocated, 1u);
  EXPECT_EQ(h2.blocks_allocated - h1.blocks_allocated, 5u);
  EXPECT_EQ(h2.objects_freed - h1.objects_freed, 1u);  // drained after the Psync
  EXPECT_EQ(shard_->Stats().records, 1u);
}

TEST_F(ShardDeviceWork, TouchAndMigratingSetPresenceCheckReadNoNvmm) {
  ASSERT_EQ(Run(Request::Op::kSet, "here", "v"), "+OK\r\n");
  nvm::DeviceStats d0 = shard_->Stats().device;
  EXPECT_EQ(Run(Request::Op::kTouch, "here"), ":1\r\n");
  EXPECT_EQ(Run(Request::Op::kTouch, "gone"), ":0\r\n");
  // A SET for a key this node no longer holds, in a MIGRATING slot: the
  // presence check redirects without touching NVMM.
  EXPECT_EQ(Run(Request::Op::kSet, "gone", "v", "7 127.0.0.1:7001"),
            "-ASK 7 127.0.0.1:7001\r\n");
  nvm::DeviceStats d1 = shard_->Stats().device;
  EXPECT_EQ(d1.reads, d0.reads);
  EXPECT_EQ(d1.writes, d0.writes);
  EXPECT_EQ(shard_->Stats().ops.gets, 3u);  // TOUCH ×2 + the presence check
}

// Once the replication log's ring is full, each rollover recycles the
// evicted segment in place: a replacing 1 KiB SET allocates its new entry
// (one object, five blocks) and frees the old one, and the log allocates
// and frees nothing.
TEST(ShardLogWork, FullRingAllocatesNothingForTheLog) {
  ShardOptions o;
  o.map_capacity = 1 << 10;
  o.repl_segment_bytes = 16 << 10;  // two 7-SET records per segment
  o.repl_max_segments = 3;
  nvm::DeviceOptions dopts;
  dopts.size_bytes = 32ull << 20;
  nvm::PmemDevice dev(dopts);
  auto rt = core::JnvmRuntime::Format(&dev);
  CollectSink sink;
  auto shard = Shard::OpenOn(rt.get(), o, 0, &sink);
  ASSERT_NE(shard, nullptr);

  constexpr int kPerBatch = 7;
  uint64_t seq = 0;
  const auto batch = [&](char fill) {
    std::vector<Request> b;
    for (int i = 0; i < kPerBatch; ++i) {
      Request r;
      r.op = Request::Op::kSet;
      r.key = "key" + std::to_string(i);
      r.value = std::string(1024, fill);
      r.conn_id = 1;
      r.seq = ++seq;
      b.push_back(std::move(r));
    }
    shard->RunBatch(b);
  };
  // Fill the ring, then roll it over once more.
  for (int i = 0; i < 8; ++i) {
    batch(static_cast<char>('a' + i % 26));
  }
  ASSERT_EQ(shard->Stats().repl.log_segments, 3u);

  constexpr int kBatches = 30;  // 15 rollovers
  const uint64_t start0 = shard->Stats().repl.start_seq;
  const heap::HeapStats h0 = rt->heap().stats();
  for (int i = 0; i < kBatches; ++i) {
    batch(static_cast<char>('A' + i % 26));
  }
  const heap::HeapStats h1 = rt->heap().stats();
  const ShardStats s = shard->Stats();
  EXPECT_EQ(s.repl.log_segments, 3u);
  EXPECT_EQ(s.repl.start_seq, start0 + kBatches);  // 15 segments of 2 rolled off
  const uint64_t sets = kBatches * kPerBatch;
  EXPECT_EQ(h1.objects_allocated - h0.objects_allocated, sets);
  EXPECT_EQ(h1.blocks_allocated - h0.blocks_allocated, 5 * sets);
  EXPECT_EQ(h1.blocks_freed - h0.blocks_freed, 5 * sets);
  EXPECT_EQ(sink.count(), seq);
}

// ---- Layout guards --------------------------------------------------------------

// A heap written in the previous layout (PStringHashMap of PRefPair →
// PString + PRecord, bound as "server.store") is refused, not misread.
TEST(KvMapLayout, ShardRefusesThePreviousStoreLayout) {
  const std::string base = TempBase("legacy");
  const std::string image = base + ".shard0.img";
  {
    auto dev = NewDevice(32);
    auto rt = core::JnvmRuntime::Format(dev.get());
    store::JpdtBackend legacy(rt.get(), "server.store", 16);
    legacy.Put("k", One("v"));
    rt->Close();
    ASSERT_TRUE(dev->SaveTo(image));
  }
  CollectSink sink;
  ShardOptions o;
  o.device_bytes = 32ull << 20;
  o.image_base = base;
  std::string err;
  EXPECT_EQ(Shard::Open(o, 0, &sink, &err), nullptr);
  EXPECT_NE(err.find("previous store layout"), std::string::npos) << err;

  ServerOptions so;
  so.nshards = 1;
  so.shard = o;
  EXPECT_EQ(Server::Start(so, &err), nullptr);
  EXPECT_NE(err.find("server.store"), std::string::npos) << err;
  std::filesystem::remove(image);
}

size_t ThreadCount() {
  return static_cast<size_t>(std::distance(
      std::filesystem::directory_iterator("/proc/self/task"),
      std::filesystem::directory_iterator()));
}

// The shards open side by side. When shard 1 of three holds the previous
// layout, Start fails with shard 1's error, and the shards that opened
// beside it are closed with their worker threads joined. With shard 1's
// image gone, shards 0 and 2 come back with every key.
TEST(KvMapLayout, OneRefusedShardFailsTheStartAndLeavesNoThread) {
  const std::string base = TempBase("one_of_three");
  const auto image = [&base](uint32_t s) {
    return base + ".shard" + std::to_string(s) + ".img";
  };
  ServerOptions opts;
  opts.nshards = 3;
  opts.shard.device_bytes = 32ull << 20;
  opts.shard.map_capacity = 1 << 10;
  opts.shard.image_base = base;
  std::map<std::string, std::string> kv;
  for (int i = 0; i < 120; ++i) {
    kv["k" + std::to_string(i)] = std::string(64 + i, static_cast<char>('a' + i % 26));
  }
  std::string err;
  {
    auto server = Server::Start(opts, &err);
    ASSERT_NE(server, nullptr) << err;
    auto c = Client::Connect("127.0.0.1", server->port(), &err);
    ASSERT_NE(c, nullptr) << err;
    for (const auto& [k, v] : kv) {
      ASSERT_TRUE(c->Set(k, v)) << k;
    }
    ASSERT_TRUE(c->Shutdown());
    server->Wait();
    ASSERT_TRUE(server->shutdown_report().ok);
  }
  {
    auto dev = NewDevice(32);
    auto rt = core::JnvmRuntime::Format(dev.get());
    store::JpdtBackend legacy(rt.get(), "server.store", 16);
    legacy.Put("k", One("v"));
    rt->Close();
    ASSERT_TRUE(dev->SaveTo(image(1)));
  }

  const size_t threads_before = ThreadCount();
  EXPECT_EQ(Server::Start(opts, &err), nullptr);
  EXPECT_EQ(err.rfind("shard 1: the heap holds the previous store layout", 0), 0u)
      << err;
  EXPECT_EQ(ThreadCount(), threads_before);

  std::filesystem::remove(image(1));
  {
    auto server = Server::Start(opts, &err);
    ASSERT_NE(server, nullptr) << err;
    auto c = Client::Connect("127.0.0.1", server->port(), &err);
    ASSERT_NE(c, nullptr) << err;
    size_t kept = 0;
    for (const auto& [k, v] : kv) {
      const std::optional<std::string> got = c->Get(k);
      if (ShardFor(k, opts.nshards) == 1) {
        EXPECT_FALSE(got.has_value()) << k;  // shard 1 starts empty
        continue;
      }
      ASSERT_TRUE(got.has_value()) << k;
      EXPECT_EQ(*got, v) << k;
      ++kept;
    }
    EXPECT_GT(kept, 0u);
    ASSERT_TRUE(c->Shutdown());
    server->Wait();
  }
  for (uint32_t s = 0; s < opts.nshards; ++s) {
    std::filesystem::remove(image(s));
  }
}

// SET 100-B and 1 KiB values, SHUTDOWN, then the built jnvm_inspect on each
// shard image: one valid jnvm.server.KvEntry master per record, none of the
// previous layout's three classes, and no block beyond the entries, the
// slot array, the log ring and a handful of roots.
TEST(KvMapLayout, InspectCensusCountsOneEntryPerKey) {
  const std::string base = TempBase("census");
  ServerOptions opts;
  opts.nshards = 2;
  opts.shard.device_bytes = 64ull << 20;
  opts.shard.map_capacity = 1 << 10;
  opts.shard.image_base = base;
  std::map<std::string, std::string> kv;
  for (int i = 0; i < 150; ++i) {
    kv["s" + std::to_string(i)] = std::string(100, static_cast<char>('a' + i % 26));
    kv["l" + std::to_string(i)] = std::string(1024, static_cast<char>('A' + i % 26));
  }
  std::string err;
  {
    auto server = Server::Start(opts, &err);
    ASSERT_NE(server, nullptr) << err;
    auto c = Client::Connect("127.0.0.1", server->port(), &err);
    ASSERT_NE(c, nullptr) << err;
    for (const auto& [k, v] : kv) {
      ASSERT_TRUE(c->Set(k, v)) << k;
    }
    ASSERT_TRUE(c->Shutdown());
    server->Wait();
    ASSERT_TRUE(server->shutdown_report().ok);
  }

  const uint64_t ppb = 248;
  const auto blocks_for = [&](uint64_t payload) { return (payload + ppb - 1) / ppb; };
  const uint64_t array_blocks = blocks_for(8 + 8 * opts.shard.map_capacity);
  const uint64_t ring_blocks =
      opts.shard.repl_max_segments * blocks_for(16 + opts.shard.repl_segment_bytes);
  constexpr uint64_t kRootBlocks = 16;  // root map, its entries, KvMap, log root, ckpt meta
  const std::regex class_line(R"(^\s+\d+\s+(\S+)\s+(\d+)$)");
  const std::regex usage_line(R"(usage: (\d+)/\d+ blocks in use)");
  uint64_t total_entries = 0;
  for (uint32_t s = 0; s < opts.nshards; ++s) {
    const std::string image = base + ".shard" + std::to_string(s) + ".img";
    const std::string out_path = image + ".inspect";
    const std::string cmd =
        std::string(JNVM_INSPECT_BIN) + " " + image + " > " + out_path + " 2>&1";
    ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;
    std::ifstream in(out_path);
    std::map<std::string, uint64_t> masters;
    uint64_t in_use = 0;
    std::string line;
    std::smatch m;
    while (std::getline(in, line)) {
      if (std::regex_search(line, m, usage_line)) {
        in_use = std::stoull(m[1]);
      } else if (std::regex_match(line, m, class_line)) {
        masters[m[1]] = std::stoull(m[2]);
      }
    }
    uint64_t records = 0;
    uint64_t entry_blocks = 0;
    for (const auto& [k, v] : kv) {
      if (ShardFor(k, opts.nshards) == s) {
        ++records;
        entry_blocks += blocks_for(12 + k.size() + 4 + v.size());
      }
    }
    EXPECT_EQ(masters["jnvm.server.KvEntry"], records) << "shard " << s;
    EXPECT_EQ(masters.count("jnvm.PRefPair"), 0u);
    EXPECT_EQ(masters.count("jnvm.store.PRecord"), 0u);
    EXPECT_EQ(masters.count("jnvm.PString$small"), 0u);
    EXPECT_GT(in_use, entry_blocks);
    EXPECT_LE(in_use, entry_blocks + array_blocks + ring_blocks + kRootBlocks)
        << "shard " << s;
    total_entries += masters["jnvm.server.KvEntry"];
    std::filesystem::remove(image);
    std::filesystem::remove(out_path);
  }
  EXPECT_EQ(total_entries, kv.size());
}

}  // namespace
}  // namespace jnvm::server
