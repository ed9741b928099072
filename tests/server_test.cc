// Tests for the network service layer (src/server): RESP parser edge cases,
// shard routing determinism, group-commit shard semantics, and an
// end-to-end loopback test with a shutdown → restart → recovery cycle.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "src/common/clock.h"
#include "src/server/client.h"
#include "src/server/poller.h"
#include "src/server/server.h"
#include "src/server/shard.h"

namespace jnvm::server {
namespace {

// ---- I/O-plane parameterization ---------------------------------------------
// The e2e suites run on 1, 2 and 4 event loops: the single-loop shape that
// existed before the multi-core I/O plane, plus pools where connections
// land on different loops and completions cross threads. Every instance
// runs on epoll; `poller` stays in the param so the names keep their form.
//
// gtest prints a param that has no PrintTo as its raw bytes, and
// gtest_discover_tests copies that print into each CTest name. So IoParam
// holds no pointer and no padding (4 + 36 bytes, 4-aligned): a std::string
// member put a heap address, and the padding after `loops` leftover heap
// bytes, into the names, which then changed from build to build.

struct IoParam {
  uint32_t loops;
  char poller[36];  // NUL-terminated, zero-filled
};

std::vector<IoParam> IoParams() {
  std::vector<IoParam> out;
  for (uint32_t loops : {1u, 2u, 4u}) {
    out.push_back(IoParam{loops, "epoll"});  // zero-fills the rest
  }
  return out;
}

std::string IoParamName(const ::testing::TestParamInfo<IoParam>& info) {
  return "loops" + std::to_string(info.param.loops) + "_" + info.param.poller;
}

// One numeric `name=value` field of a STATS reply (0 when absent).
uint64_t StatsField(Client& c, const char* field) {
  const std::string stats = c.Stats().value_or("");
  const size_t pos = stats.find(field);
  if (pos == std::string::npos) {
    return 0;
  }
  return std::strtoull(stats.c_str() + pos + std::strlen(field), nullptr, 10);
}

// ---- RESP command parser ----------------------------------------------------

std::string Frame(const std::vector<std::string>& args) {
  std::string out = "*" + std::to_string(args.size()) + "\r\n";
  for (const auto& a : args) {
    out += "$" + std::to_string(a.size()) + "\r\n" + a + "\r\n";
  }
  return out;
}

TEST(RespParser, ParsesWholeCommand) {
  RespParser p;
  const std::string wire = Frame({"SET", "k", "v"});
  p.Feed(wire.data(), wire.size());
  std::vector<std::string> args;
  std::string err;
  ASSERT_EQ(p.Next(&args, &err), RespParser::Status::kCommand);
  EXPECT_EQ(args, (std::vector<std::string>{"SET", "k", "v"}));
  EXPECT_EQ(p.Next(&args, &err), RespParser::Status::kNeedMore);
  EXPECT_EQ(p.buffered_bytes(), 0u);
}

TEST(RespParser, SplitReadsByteByByte) {
  // A command split across N one-byte reads must parse identically and
  // never re-scan (state survives Feed boundaries).
  RespParser p;
  const std::string wire = Frame({"HSET", "key:1", "3", "value bytes"});
  std::vector<std::string> args;
  std::string err;
  for (size_t i = 0; i < wire.size(); ++i) {
    const RespParser::Status st = p.Next(&args, &err);
    ASSERT_EQ(st, RespParser::Status::kNeedMore) << "at byte " << i;
    p.Feed(&wire[i], 1);
  }
  ASSERT_EQ(p.Next(&args, &err), RespParser::Status::kCommand);
  EXPECT_EQ(args, (std::vector<std::string>{"HSET", "key:1", "3", "value bytes"}));
}

TEST(RespParser, PipelinedCommandsDrainInOrder) {
  RespParser p;
  std::string wire;
  for (int i = 0; i < 10; ++i) {
    wire += Frame({"GET", "key:" + std::to_string(i)});
  }
  // Feed in two arbitrary chunks.
  p.Feed(wire.data(), wire.size() / 3);
  std::vector<std::string> args;
  std::string err;
  int got = 0;
  while (p.Next(&args, &err) == RespParser::Status::kCommand) {
    EXPECT_EQ(args[1], "key:" + std::to_string(got));
    ++got;
  }
  p.Feed(wire.data() + wire.size() / 3, wire.size() - wire.size() / 3);
  while (p.Next(&args, &err) == RespParser::Status::kCommand) {
    EXPECT_EQ(args[1], "key:" + std::to_string(got));
    ++got;
  }
  EXPECT_EQ(got, 10);
}

TEST(RespParser, BinaryValuesSurvive) {
  RespParser p;
  std::string blob;
  for (int i = 0; i < 256; ++i) {
    blob.push_back(static_cast<char>(i));  // includes \r, \n, \0
  }
  const std::string wire = Frame({"SET", "bin", blob});
  p.Feed(wire.data(), wire.size());
  std::vector<std::string> args;
  std::string err;
  ASSERT_EQ(p.Next(&args, &err), RespParser::Status::kCommand);
  EXPECT_EQ(args[2], blob);
}

TEST(RespParser, MalformedFramesAreTerminalErrors) {
  const std::vector<std::string> bad = {
      "GET k\r\n",          // inline command, not RESP array
      "*0\r\n",             // empty array
      "*2\r\nGET\r\n",      // missing bulk header
      "*1\r\n$-1\r\n",      // negative bulk length in a request
      "*1\r\n$3\r\nabcd\r\n",  // body longer than declared
      "*1\r\n$04\r\nabc\r\n",  // leading zero length
  };
  for (const std::string& wire : bad) {
    RespParser p;
    p.Feed(wire.data(), wire.size());
    std::vector<std::string> args;
    std::string err;
    RespParser::Status st = p.Next(&args, &err);
    // Some inputs need more bytes before the violation is visible; push junk.
    if (st == RespParser::Status::kNeedMore) {
      const std::string junk(8, 'x');
      p.Feed(junk.data(), junk.size());
      st = p.Next(&args, &err);
    }
    ASSERT_EQ(st, RespParser::Status::kError) << wire;
    EXPECT_FALSE(err.empty());
    // Terminal: stays broken.
    EXPECT_EQ(p.Next(&args, &err), RespParser::Status::kError);
  }
}

TEST(RespParser, OversizedFrameRejected) {
  RespParser p;
  const std::string wire = "*1\r\n$999999999\r\n";  // > kMaxBulkBytes
  p.Feed(wire.data(), wire.size());
  std::vector<std::string> args;
  std::string err;
  EXPECT_EQ(p.Next(&args, &err), RespParser::Status::kError);

  RespParser p2;
  const std::string wide = "*99999\r\n";  // > kMaxArgs
  p2.Feed(wide.data(), wide.size());
  EXPECT_EQ(p2.Next(&args, &err), RespParser::Status::kError);
}

TEST(RespParser, EndlessHeaderLineIsProtocolError) {
  // A header that never reaches CRLF fails on the first Next once it is
  // longer than any legal header, instead of being rescanned on every read
  // until the input cap trips.
  RespParser p;
  const std::string wire = "*" + std::string(64 << 10, '7');
  p.Feed(wire.data(), wire.size());
  std::vector<std::string> args;
  std::string err;
  EXPECT_EQ(p.Next(&args, &err), RespParser::Status::kError);
  EXPECT_FALSE(p.overflowed());
  EXPECT_FALSE(err.empty());
}

TEST(RespParser, LongestLegalHeaderParsesByteByByte) {
  // Type byte + 19 digits + CRLF is exactly kMaxHeaderLine: fed one byte at
  // a time it waits for more until the LF, then its length is parsed (the
  // value is over kMaxArgs, so the array limit, not the line bound, fails).
  const std::string header = "*" + std::string(19, '9') + "\r\n";
  ASSERT_EQ(header.size(), kMaxHeaderLine);
  RespParser p;
  std::vector<std::string> args;
  std::string err;
  for (size_t i = 0; i + 1 < header.size(); ++i) {
    p.Feed(&header[i], 1);
    ASSERT_EQ(p.Next(&args, &err), RespParser::Status::kNeedMore) << i;
  }
  p.Feed(&header.back(), 1);
  EXPECT_EQ(p.Next(&args, &err), RespParser::Status::kError);
  EXPECT_EQ(err, "array exceeds argument limit");
}

TEST(RespReplyParser, AllReplyTypes) {
  RespReplyParser p;
  const std::string wire = "+OK\r\n-ERR boom\r\n:42\r\n$5\r\nhello\r\n$-1\r\n";
  p.Feed(wire.data(), wire.size());
  RespReply r;
  std::string err;
  ASSERT_EQ(p.Next(&r, &err), RespParser::Status::kCommand);
  EXPECT_EQ(r.type, RespReply::Type::kSimple);
  EXPECT_EQ(r.str, "OK");
  ASSERT_EQ(p.Next(&r, &err), RespParser::Status::kCommand);
  EXPECT_EQ(r.type, RespReply::Type::kError);
  ASSERT_EQ(p.Next(&r, &err), RespParser::Status::kCommand);
  EXPECT_EQ(r.integer, 42);
  ASSERT_EQ(p.Next(&r, &err), RespParser::Status::kCommand);
  EXPECT_EQ(r.str, "hello");
  ASSERT_EQ(p.Next(&r, &err), RespParser::Status::kCommand);
  EXPECT_EQ(r.type, RespReply::Type::kNil);
  EXPECT_EQ(p.Next(&r, &err), RespParser::Status::kNeedMore);
}

// ---- Shard routing ----------------------------------------------------------

TEST(ShardRouting, DeterministicAndInRange) {
  for (uint32_t nshards : {1u, 2u, 4u, 7u, 16u}) {
    for (int i = 0; i < 1000; ++i) {
      const std::string key = "key:" + std::to_string(i);
      const uint32_t a = ShardFor(key, nshards);
      EXPECT_LT(a, nshards);
      EXPECT_EQ(a, ShardFor(key, nshards));  // stable
    }
  }
}

TEST(ShardRouting, SpreadsKeys) {
  // FNV-1a over "key:N" must not collapse onto few shards.
  std::vector<int> counts(8, 0);
  for (int i = 0; i < 8000; ++i) {
    counts[ShardFor("key:" + std::to_string(i), 8)]++;
  }
  for (const int c : counts) {
    EXPECT_GT(c, 500);  // perfectly uniform would be 1000
  }
}

// ---- Shard group commit -----------------------------------------------------

class CollectSink : public CompletionSink {
 public:
  void OnCompletion(Completion&& c) override {
    std::lock_guard<std::mutex> lk(mu_);
    got_.push_back(std::move(c));
  }
  size_t count() const {
    std::lock_guard<std::mutex> lk(mu_);
    return got_.size();
  }
  std::vector<Completion> take() {
    std::lock_guard<std::mutex> lk(mu_);
    return std::move(got_);
  }

 private:
  mutable std::mutex mu_;
  std::vector<Completion> got_;
};

ShardOptions SmallShard(uint32_t batch) {
  ShardOptions o;
  o.device_bytes = 32ull << 20;
  o.map_capacity = 1 << 10;
  o.batch = batch;
  return o;
}

TEST(Shard, BatchedWritesElideFencesAndAudit) {
  CollectSink sink;
  auto shard = Shard::Open(SmallShard(/*batch=*/16), 0, &sink);
  for (int i = 0; i < 200; ++i) {
    Request r;
    r.op = Request::Op::kSet;
    r.key = "k" + std::to_string(i);
    r.value = "v" + std::to_string(i);
    r.conn_id = 1;  // conn_id 0 marks internal requests: no completion
    r.seq = static_cast<uint64_t>(i);
    ASSERT_TRUE(shard->Submit(std::move(r)));
  }
  const ShardReport rep = shard->Quiesce();
  EXPECT_TRUE(rep.integrity_ok) << rep.violations.size() << " violations";
  EXPECT_EQ(rep.records, 200u);
  // Group commit elided per-op durability fences (one per put).
  EXPECT_GT(rep.elided_fences, 0u);
  EXPECT_EQ(sink.count(), 200u);
}

TEST(Shard, TrySubmitManyLeavesExactlyTheUnacceptedSuffix) {
  // A WAIT-K shard with no subscriber and room for one parked batch: the
  // first write batch parks and the second blocks the worker in ParkBatch
  // until Quiesce, so the queue stays exactly as TrySubmitMany leaves it.
  CollectSink sink;
  ShardOptions o = SmallShard(/*batch=*/1);
  o.queue_capacity = 4;
  o.wait_acks = 1;
  o.wait_max_parked = 1;
  o.wait_timeout_ms = 60'000;
  auto shard = Shard::Open(o, 0, &sink);
  const auto set = [](int i) {
    Request r;
    r.op = Request::Op::kSet;
    r.key = "k" + std::to_string(i);
    r.value = "v";
    r.conn_id = 1;
    r.seq = static_cast<uint64_t>(i);
    return r;
  };
  ASSERT_EQ(shard->TrySubmit(set(0)), Shard::SubmitResult::kOk);
  while (shard->Stats().repl.parked_batches < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(shard->TrySubmit(set(1)), Shard::SubmitResult::kOk);
  while (shard->Stats().queue_depth > 0) {  // taken: the worker now blocks
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  std::vector<Request> run;
  for (int i = 2; i < 8; ++i) {
    run.push_back(set(i));
  }
  EXPECT_EQ(shard->TrySubmitMany(&run), Shard::SubmitResult::kFull);
  ASSERT_EQ(run.size(), 2u);  // k2..k5 filled the queue
  EXPECT_EQ(run[0].key, "k6");
  EXPECT_EQ(run[1].key, "k7");
  EXPECT_EQ(run[1].seq, 7u);
  EXPECT_EQ(shard->Stats().queue_depth, 4u);
  EXPECT_EQ(shard->TrySubmitMany(&run), Shard::SubmitResult::kFull);
  EXPECT_EQ(run.size(), 2u);  // still full: nothing taken

  const ShardReport rep = shard->Quiesce();
  EXPECT_TRUE(rep.integrity_ok);
  EXPECT_EQ(rep.records, 6u);  // k0..k5, never k6/k7
  EXPECT_EQ(shard->TrySubmitMany(&run), Shard::SubmitResult::kStopped);
  ASSERT_EQ(run.size(), 2u);  // kStopped takes nothing
  EXPECT_EQ(run[0].key, "k6");
  EXPECT_EQ(sink.count(), 6u);  // every taken request completed
}

TEST(Shard, Batch1KeepsWriteThroughSemantics) {
  CollectSink sink;
  auto shard = Shard::Open(SmallShard(/*batch=*/1), 0, &sink);
  for (int i = 0; i < 50; ++i) {
    Request r;
    r.op = Request::Op::kSet;
    r.key = "k" + std::to_string(i);
    r.value = "v";
    ASSERT_TRUE(shard->Submit(std::move(r)));
  }
  const ShardReport rep = shard->Quiesce();
  EXPECT_TRUE(rep.integrity_ok);
  EXPECT_EQ(rep.elided_fences, 0u);  // no group commit at batch=1
  EXPECT_FALSE(shard->Submit(Request{}));  // terminal after quiesce
}

// Twelve SETs; then GET, replace, DEL, HSET in place and overflowing, a
// miss and a DEL of an absent key; then a control op alone.
std::vector<std::vector<Request>> MixedBatches() {
  const auto req = [](Request::Op op, std::string key, std::string value,
                      uint64_t seq) {
    Request r;
    r.op = op;
    r.key = std::move(key);
    r.value = std::move(value);
    r.conn_id = 1;
    r.seq = seq;
    return r;
  };
  std::vector<std::vector<Request>> batches(3);
  uint64_t seq = 0;
  for (int i = 0; i < 12; ++i) {
    batches[0].push_back(req(Request::Op::kSet, "k" + std::to_string(i),
                             "v" + std::to_string(i), ++seq));
  }
  batches[1].push_back(req(Request::Op::kGet, "k0", "", ++seq));
  batches[1].push_back(req(Request::Op::kSet, "k1", std::string(700, 'r'), ++seq));
  batches[1].push_back(req(Request::Op::kDel, "k2", "", ++seq));
  batches[1].push_back(req(Request::Op::kHset, "k3", "h", ++seq));
  batches[1].push_back(req(Request::Op::kHset, "k4", std::string(300, 'o'), ++seq));
  batches[1].push_back(req(Request::Op::kGet, "nope", "", ++seq));
  batches[1].push_back(req(Request::Op::kDel, "nope", "", ++seq));
  batches[2].push_back(req(Request::Op::kLastSeq, "", "", ++seq));
  return batches;
}

TEST(Shard, RunBatchOnABorrowedRuntimeDoesTheWorkersWork) {
  const ShardOptions opts = SmallShard(/*batch=*/16);
  CollectSink threaded_sink;
  auto threaded = Shard::Open(opts, 0, &threaded_sink);
  nvm::DeviceOptions dopts;
  dopts.size_bytes = opts.device_bytes;
  nvm::PmemDevice dev(dopts);
  auto rt = core::JnvmRuntime::Format(&dev);
  CollectSink borrowed_sink;
  auto borrowed = Shard::OpenOn(rt.get(), opts, 0, &borrowed_sink);
  ASSERT_NE(borrowed, nullptr);

  const auto delta = [](const nvm::DeviceStats& a, const nvm::DeviceStats& b) {
    return std::vector<uint64_t>{b.writes - a.writes, b.pwbs - a.pwbs,
                                 b.pfences - a.pfences, b.psyncs - a.psyncs};
  };
  size_t replies = 0;
  uint64_t writes = 0;
  for (std::vector<Request>& batch : MixedBatches()) {
    std::vector<Request> copy = batch;
    replies += batch.size();
    // The worker takes a whole run pushed under one lock as one batch.
    const nvm::DeviceStats t0 = threaded->Stats().device;
    ASSERT_EQ(threaded->TrySubmitMany(&copy), Shard::SubmitResult::kOk);
    while (threaded_sink.count() < replies) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const nvm::DeviceStats t1 = threaded->Stats().device;
    const nvm::DeviceStats b0 = dev.stats();
    borrowed->RunBatch(batch);
    EXPECT_EQ(delta(t0, t1), delta(b0, dev.stats()))
        << "writes, pwbs, pfences, psyncs of a " << batch.size() << "-request batch";
    writes += t1.writes - t0.writes;
  }
  EXPECT_GT(writes, 0u);
  std::vector<Completion> want = threaded_sink.take();
  std::vector<Completion> got = borrowed_sink.take();
  ASSERT_EQ(want.size(), got.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].seq, got[i].seq);
    EXPECT_EQ(want[i].reply, got[i].reply) << "request " << want[i].seq;
  }
  EXPECT_EQ(threaded->Stats().batches, borrowed->Stats().batches);
  EXPECT_TRUE(threaded->Quiesce().integrity_ok);
}

TEST(Shard, BorrowedShardServesDeliveredKeysAfterACrash) {
  nvm::DeviceOptions dopts;
  dopts.size_bytes = 8 << 20;
  dopts.strict = true;
  core::RuntimeOptions ropts;
  ropts.heap.log_slot_count = 4;
  const auto sets = [](const std::string& prefix, uint64_t first_seq) {
    std::vector<Request> batch;
    for (int i = 0; i < 12; ++i) {
      Request r;
      r.op = Request::Op::kSet;
      r.key = prefix + std::to_string(i);
      r.value = "v" + r.key + std::string(i % 3 == 0 ? 300 : 0, 'x');
      r.conn_id = 1;
      r.seq = first_seq + static_cast<uint64_t>(i);
      batch.push_back(std::move(r));
    }
    return batch;
  };
  // Crash early, late and never in the second batch, under two evictions.
  int fired = 0;
  for (const uint64_t crash_after : {1, 9, 60, 400, 1 << 20}) {
    for (const uint64_t seed : {1, 7}) {
      nvm::PmemDevice dev(dopts);
      auto rt = core::JnvmRuntime::Format(&dev, ropts);
      CollectSink sink;
      auto crashed = Shard::OpenOn(rt.get(), SmallShard(/*batch=*/16), 0, &sink);
      rt->Psync();
      std::vector<Request> first = sets("a", 1);
      std::vector<Request> second = sets("b", 13);
      crashed->RunBatch(first);
      dev.ScheduleCrashAfter(crash_after);
      try {
        crashed->RunBatch(second);
        dev.CancelScheduledCrash();
      } catch (const nvm::SimulatedCrash&) {
        ++fired;
      }
      // The checker's order: the crashed runtime goes first, the shard that
      // borrowed it after; its teardown must touch neither.
      rt->Abandon();
      rt.reset();
      crashed.reset();
      dev.Crash(seed);
      auto recovered_rt = core::JnvmRuntime::Open(&dev, ropts);
      CollectSink after;
      auto shard = Shard::OpenOn(recovered_rt.get(), SmallShard(/*batch=*/16), 0,
                                 &after);
      ASSERT_NE(shard, nullptr);
      const std::vector<Completion> delivered = sink.take();
      EXPECT_GE(delivered.size(), first.size());
      for (const Completion& c : delivered) {
        const Request& w = c.seq <= first.size() ? first[c.seq - 1]
                                                 : second[c.seq - 1 - first.size()];
        std::vector<Request> get(1);
        get[0].op = Request::Op::kGet;
        get[0].key = w.key;
        get[0].conn_id = 1;
        shard->RunBatch(get);
        std::string want;
        AppendBulk(&want, w.value);
        const std::vector<Completion> r = after.take();
        ASSERT_EQ(r.size(), 1u);
        EXPECT_EQ(r[0].reply, want) << w.key << " crash_after=" << crash_after
                                    << " seed=" << seed;
      }
    }
  }
  EXPECT_GT(fired, 0);
}

// ---- Chunked output queue ---------------------------------------------------

TEST(ConnOutQueue, SmallAppendsCoalesceIntoTailChunk) {
  Conn c;
  c.AppendOut("+OK\r\n");
  c.AppendOut(":1\r\n");
  c.AppendOut("$3\r\nabc\r\n");
  EXPECT_EQ(c.outq.size(), 1u);  // one mutable tail, three replies
  EXPECT_EQ(c.pending_out_bytes(), 5u + 4u + 9u);
  EXPECT_EQ(std::string(c.outq.front().data(), c.outq.front().size()),
            "+OK\r\n:1\r\n$3\r\nabc\r\n");
}

TEST(ConnOutQueue, LargeAppendBecomesItsOwnChunkWithoutCopy) {
  Conn c;
  c.AppendOut("+OK\r\n");
  std::string big(Conn::kCoalesceMax + 1, 'x');
  const char* payload = big.data();
  c.AppendOut(std::move(big));
  ASSERT_EQ(c.outq.size(), 2u);  // coalesced tail + the big chunk
  EXPECT_EQ(c.outq[1].data(), payload);  // the buffer moved, not copied
  // The adopted chunk then becomes the tail: later small replies coalesce
  // into it (amortized growth) until it hits kTailChunkMax.
  c.AppendOut("+OK\r\n");
  EXPECT_EQ(c.outq.size(), 2u);
  EXPECT_EQ(c.outq[1].size(), Conn::kCoalesceMax + 1 + 5);
}

TEST(ConnOutQueue, SharedFrameChargesLogicalBytesWithoutCopy) {
  auto frame = std::make_shared<const std::string>(std::string(4096, 'f'));
  Conn a;
  Conn b;
  a.AppendFrame(frame);
  b.AppendFrame(frame);
  // Both connections point at the same bytes yet each is charged in full:
  // cap accounting sees the backlog a private copy would have produced.
  EXPECT_EQ(a.outq.front().data(), frame->data());
  EXPECT_EQ(b.outq.front().data(), frame->data());
  EXPECT_EQ(a.pending_out_bytes(), 4096u);
  EXPECT_EQ(b.pending_out_bytes(), 4096u);
  EXPECT_EQ(frame.use_count(), 3);  // local + two subscribers
  a.ConsumeOut(4096);
  EXPECT_EQ(frame.use_count(), 2);  // a's ref released on full consume
  EXPECT_EQ(b.pending_out_bytes(), 4096u);  // b unaffected
}

TEST(ConnOutQueue, ConsumeResumesMidChunkAcrossKinds) {
  // Mixed queue: coalesced tail, shared frame, another tail. Consume in
  // awkward increments and check the iovec view always resumes exactly
  // where the previous partial write stopped.
  Conn c;
  c.AppendOut("0123456789");
  c.AppendFrame(std::make_shared<const std::string>("ABCDEFGHIJ"));
  c.AppendOut("abcdefghij");
  const std::string want = "0123456789ABCDEFGHIJabcdefghij";
  std::string got;
  size_t step = 1;
  while (c.WantsWrite()) {
    struct iovec iov[4];
    const size_t n = c.BuildIovecs(iov, 4);
    ASSERT_GT(n, 0u);
    // Take `step` bytes from the scattered view, as a short writev would.
    size_t take = std::min(step, c.pending_out_bytes());
    size_t left = take;
    for (size_t i = 0; i < n && left > 0; ++i) {
      const size_t k = std::min(left, iov[i].iov_len);
      got.append(static_cast<const char*>(iov[i].iov_base), k);
      left -= k;
    }
    c.ConsumeOut(take);
    step = step * 2 + 1;  // 1, 3, 7, 15, ... crosses every chunk boundary
  }
  EXPECT_EQ(got, want);
  EXPECT_TRUE(c.outq.empty());
  EXPECT_EQ(c.out_off, 0u);
}

TEST(ConnOutQueue, TailChunkStopsGrowingAtCap) {
  Conn c;
  const std::string fill(Conn::kCoalesceMax, 'y');
  size_t appends = 0;
  while (c.outq.size() < 2) {
    std::string s = fill;
    c.AppendOut(std::move(s));
    ++appends;
  }
  EXPECT_GT(appends * Conn::kCoalesceMax, Conn::kTailChunkMax);
  EXPECT_LE(c.outq.front().size(),
            Conn::kTailChunkMax + Conn::kCoalesceMax);
}

TEST(ConnOutQueue, CompleteMovesStagedReplies) {
  // Out-of-order completions stage in the reorder buffer; once the gap
  // fills, the staged strings must MOVE into the queue (large replies keep
  // their buffer identity — the reply-staging copy was a real regression).
  Conn c;
  std::string big(Conn::kCoalesceMax + 100, 'r');
  const char* payload = big.data();
  EXPECT_FALSE(c.Complete(1, std::move(big)));  // gap: seq 0 missing
  EXPECT_EQ(c.pending_out_bytes(), 0u);
  EXPECT_TRUE(c.Complete(0, "+OK\r\n"));
  ASSERT_EQ(c.outq.size(), 2u);
  EXPECT_EQ(c.outq[1].data(), payload);  // staged reply moved, not copied
  EXPECT_EQ(c.next_to_send, 2u);
}

// ---- Event-loop readiness (src/server/poller.h) ----------------------------
// The epoll set every loop blocks in, driven directly on a socketpair.

class PollerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(ep_.ok());
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0, sv_), 0);
  }
  void TearDown() override {
    for (const int fd : sv_) {
      if (fd >= 0) {
        ::close(fd);
      }
    }
  }
  // What one Wait reports for `fd` (all flags false when it is not listed).
  Poller::Event WaitFor(int fd, int timeout_ms = 50) {
    std::vector<Poller::Event> evs;
    ep_.Wait(&evs, timeout_ms);
    for (const Poller::Event& e : evs) {
      if (e.fd == fd) {
        return e;
      }
    }
    return Poller::Event{};
  }

  Poller ep_;
  int sv_[2] = {-1, -1};
};

TEST_F(PollerTest, UnconsumedInputIsReportedAgain) {
  ep_.Watch(sv_[0], true, false);
  ASSERT_EQ(::write(sv_[1], "x", 1), 1);
  EXPECT_TRUE(WaitFor(sv_[0]).readable);
  EXPECT_TRUE(WaitFor(sv_[0]).readable);  // level-triggered: still unread
  char c;
  ASSERT_EQ(::read(sv_[0], &c, 1), 1);
  EXPECT_FALSE(WaitFor(sv_[0], 0).readable);
}

TEST_F(PollerTest, DroppingReadInterestPausesReadableReports) {
  // PauseReads watches (fd, false, wants_write): buffered input must go
  // quiet while pending output still reports writable.
  ep_.Watch(sv_[0], true, false);
  ASSERT_EQ(::write(sv_[1], "x", 1), 1);
  EXPECT_TRUE(WaitFor(sv_[0]).readable);
  ep_.Watch(sv_[0], false, false);
  EXPECT_FALSE(WaitFor(sv_[0]).readable);
  ep_.Watch(sv_[0], false, true);
  const Poller::Event e = WaitFor(sv_[0]);
  EXPECT_TRUE(e.writable);
  EXPECT_FALSE(e.readable);
  ep_.Watch(sv_[0], true, false);  // resume: the byte is still there
  EXPECT_TRUE(WaitFor(sv_[0]).readable);
}

TEST_F(PollerTest, ForgetThenCloseProducesNoEvent) {
  ep_.Watch(sv_[0], true, true);
  ASSERT_EQ(::write(sv_[1], "x", 1), 1);
  const int fd = sv_[0];
  ep_.Forget(fd);
  ::close(fd);
  sv_[0] = -1;
  std::vector<Poller::Event> evs;
  ep_.Wait(&evs, 50);
  EXPECT_TRUE(evs.empty());

  // The fd number is free for reuse, and a new socket under it is watched
  // afresh (Forget cleared the cached interest mask).
  int again[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0, again), 0);
  ep_.Watch(again[0], true, true);
  EXPECT_TRUE(WaitFor(again[0]).writable);
  ::close(again[0]);
  ::close(again[1]);
}

// ---- End-to-end loopback ----------------------------------------------------

class ServerE2E : public ::testing::TestWithParam<IoParam> {
 protected:
  ServerOptions Opts() {
    ServerOptions o;
    o.nshards = 4;
    o.shard = SmallShard(16);
    o.loops = GetParam().loops;
    return o;
  }
};

TEST_P(ServerE2E, CommandsRoundtrip) {
  std::string err;
  auto server = Server::Start(Opts(), &err);
  ASSERT_NE(server, nullptr) << err;
  auto c = Client::Connect("127.0.0.1", server->port(), &err);
  ASSERT_NE(c, nullptr) << err;

  EXPECT_TRUE(c->Ping());
  EXPECT_TRUE(c->Set("alpha", "1"));
  EXPECT_EQ(c->Get("alpha").value_or("?"), "1");
  EXPECT_FALSE(c->Get("missing").has_value());
  EXPECT_TRUE(c->Hset("alpha", 0, "2"));
  EXPECT_EQ(c->Get("alpha").value_or("?"), "2");
  EXPECT_FALSE(c->Hset("missing", 0, "x"));
  EXPECT_TRUE(c->Mset({{"m1", "a"}, {"m2", "b"}, {"m3", "c"}}));
  EXPECT_EQ(c->Get("m2").value_or("?"), "b");
  EXPECT_TRUE(c->Del("alpha"));
  EXPECT_FALSE(c->Del("alpha"));
  EXPECT_TRUE(c->Touch("m1"));

  const auto stats = c->Stats();
  ASSERT_TRUE(stats.has_value());
  EXPECT_NE(stats->find("shard0:"), std::string::npos);
  EXPECT_NE(stats->find("loops=" + std::to_string(GetParam().loops)),
            std::string::npos);

  EXPECT_TRUE(c->Shutdown());
  server->Wait();
  EXPECT_TRUE(server->shutdown_report().ok);
}

TEST_P(ServerE2E, PipelinedRepliesKeepCommandOrder) {
  std::string err;
  auto server = Server::Start(Opts(), &err);
  ASSERT_NE(server, nullptr) << err;
  auto c = Client::Connect("127.0.0.1", server->port(), &err);
  ASSERT_NE(c, nullptr) << err;

  // Interleave writes and reads across all shards in one pipeline; the
  // replies must come back in command order even though shard batches
  // complete independently.
  const int kN = 300;
  for (int i = 0; i < kN; ++i) {
    c->PipeSet("p" + std::to_string(i), std::to_string(i));
    c->PipeGet("p" + std::to_string(i));
  }
  std::vector<RespReply> replies;
  ASSERT_TRUE(c->Sync(&replies));
  ASSERT_EQ(replies.size(), 2u * kN);
  for (int i = 0; i < kN; ++i) {
    EXPECT_EQ(replies[2 * i].type, RespReply::Type::kSimple) << i;
    ASSERT_EQ(replies[2 * i + 1].type, RespReply::Type::kBulk) << i;
    EXPECT_EQ(replies[2 * i + 1].str, std::to_string(i)) << i;
  }
  EXPECT_TRUE(c->Shutdown());
  server->Wait();
}

TEST_P(ServerE2E, ProtocolErrorClosesOnlyOffendingConnection) {
  std::string err;
  auto server = Server::Start(Opts(), &err);
  ASSERT_NE(server, nullptr) << err;
  auto good = Client::Connect("127.0.0.1", server->port(), &err);
  ASSERT_NE(good, nullptr) << err;
  ASSERT_TRUE(good->Set("stable", "yes"));

  // Raw-socket misbehaver: an inline (non-RESP) command is a protocol
  // violation — the server must reply -ERR and close only this connection.
  {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server->port());
    ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    const char junk[] = "NOT RESP\r\n";
    ASSERT_EQ(::write(fd, junk, sizeof(junk) - 1),
              static_cast<ssize_t>(sizeof(junk) - 1));
    std::string got;
    char buf[512];
    for (;;) {
      const ssize_t n = ::read(fd, buf, sizeof(buf));
      if (n <= 0) {
        break;  // server closed the connection after the error reply
      }
      got.append(buf, static_cast<size_t>(n));
    }
    ::close(fd);
    EXPECT_EQ(got.rfind("-ERR", 0), 0u) << got;
  }

  // The well-behaved connection is unaffected.
  EXPECT_EQ(good->Get("stable").value_or("?"), "yes");
  EXPECT_TRUE(good->Shutdown());
  server->Wait();
}

TEST_P(ServerE2E, ConcurrentClientsThenRestartRecoversEverything) {
  // The ISSUE acceptance test: 4 client threads write disjoint key ranges,
  // SHUTDOWN, restart a fresh Server on the same device images, verify
  // every key and a clean integrity audit (I1–I7 ran inside Quiesce on both
  // shutdowns; recovery ran on restart).
  const std::string base =
      (std::filesystem::temp_directory_path() /
       ("jnvm_e2e_" + std::to_string(::getpid()) + "_" +
        std::to_string(GetParam().loops) + GetParam().poller))
          .string();
  ServerOptions opts = Opts();
  opts.shard.image_base = base;
  const int kThreads = 4, kPerThread = 250;

  std::string err;
  {
    auto server = Server::Start(opts, &err);
    ASSERT_NE(server, nullptr) << err;
    std::vector<std::thread> threads;
    std::atomic<int> failures{0};
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        std::string terr;
        auto c = Client::Connect("127.0.0.1", server->port(), &terr);
        if (c == nullptr) {
          ++failures;
          return;
        }
        for (int i = 0; i < kPerThread; ++i) {
          const std::string key = "t" + std::to_string(t) + ":" + std::to_string(i);
          if (!c->Set(key, "val:" + key)) {
            ++failures;
            return;
          }
        }
      });
    }
    for (auto& th : threads) {
      th.join();
    }
    ASSERT_EQ(failures.load(), 0);
    auto c = Client::Connect("127.0.0.1", server->port(), &err);
    ASSERT_NE(c, nullptr) << err;
    ASSERT_TRUE(c->Shutdown());  // quiesce + audit + save images
    server->Wait();
    ASSERT_TRUE(server->shutdown_report().ok);
  }

  {
    auto server = Server::Start(opts, &err);  // recovers from the images
    ASSERT_NE(server, nullptr) << err;
    EXPECT_TRUE(server->AnyShardRecovered());
    auto c = Client::Connect("127.0.0.1", server->port(), &err);
    ASSERT_NE(c, nullptr) << err;
    for (int t = 0; t < kThreads; ++t) {
      for (int i = 0; i < kPerThread; ++i) {
        const std::string key = "t" + std::to_string(t) + ":" + std::to_string(i);
        ASSERT_EQ(c->Get(key).value_or("<missing>"), "val:" + key) << key;
      }
    }
    ASSERT_TRUE(c->Shutdown());
    server->Wait();
    EXPECT_TRUE(server->shutdown_report().ok);  // audit clean after recovery
  }

  for (uint32_t i = 0; i < opts.nshards; ++i) {
    std::filesystem::remove(base + ".shard" + std::to_string(i) + ".img");
  }
}

// ---- Wire-level protocol robustness ----------------------------------------
// The parser unit tests above prove the state machine; these drive the same
// inputs through a real socket against both pollers: the server must reply
// -ERR, close only the offending connection, and stay healthy.

// Minimal raw TCP helper (the Client class refuses to send malformed bytes).
class RawConn {
 public:
  explicit RawConn(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~RawConn() {
    if (fd_ >= 0) {
      ::close(fd_);
    }
  }
  bool ok() const { return fd_ >= 0; }
  bool Send(const std::string& bytes) {
    return ::write(fd_, bytes.data(), bytes.size()) ==
           static_cast<ssize_t>(bytes.size());
  }
  // Drops the connection with an RST (SO_LINGER 0): the server sees a
  // reset peer, not an orderly close.
  void Reset() {
    const linger l{1, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_LINGER, &l, sizeof(l));
    ::close(fd_);
    fd_ = -1;
  }
  // Reads until the peer closes (or `stop_at` bytes arrived, if non-zero).
  std::string ReadUntilClose(size_t stop_at = 0) {
    std::string got;
    char buf[4096];
    for (;;) {
      const ssize_t n = ::read(fd_, buf, sizeof(buf));
      if (n <= 0) {
        break;
      }
      got.append(buf, static_cast<size_t>(n));
      if (stop_at != 0 && got.size() >= stop_at) {
        break;
      }
    }
    return got;
  }
  // Appends `n` parsed replies to *out; false when the peer closes, the
  // stream is malformed, or NowNs() passes `deadline_ns` first — a reply
  // that never comes fails the caller instead of hanging it.
  bool ReadReplies(size_t n, uint64_t deadline_ns, std::vector<RespReply>* out) {
    std::string err;
    RespReply r;
    char buf[4096];
    while (n > 0) {
      const RespParser::Status st = replies_.Next(&r, &err);
      if (st == RespParser::Status::kCommand) {
        out->push_back(std::move(r));
        --n;
        continue;
      }
      if (st == RespParser::Status::kError) {
        return false;
      }
      const uint64_t now = NowNs();
      if (now >= deadline_ns) {
        return false;
      }
      pollfd p{};
      p.fd = fd_;
      p.events = POLLIN;
      if (::poll(&p, 1, static_cast<int>((deadline_ns - now) / 1000000 + 1)) <= 0) {
        continue;  // timeout or EINTR: the deadline check decides
      }
      const ssize_t got = ::read(fd_, buf, sizeof(buf));
      if (got <= 0) {
        return false;
      }
      replies_.Feed(buf, static_cast<size_t>(got));
    }
    return true;
  }

 private:
  int fd_ = -1;
  RespReplyParser replies_;
};

TEST_P(ServerE2E, MalformedWireFramesGetErrorAndClose) {
  struct Case {
    const char* name;
    std::string wire;
  };
  const std::vector<Case> cases = {
      {"inline-command", "GET key\r\n"},
      {"empty-array", "*0\r\n"},
      {"negative-array", "*-1\r\n"},
      {"missing-bulk-header", "*2\r\nGET\r\n"},
      {"negative-bulk-len", "*1\r\n$-1\r\n"},
      {"leading-zero-len", "*1\r\n$04\r\nabcd\r\n"},
      {"body-overruns-len", "*1\r\n$3\r\nabcdef\r\n"},
      {"bad-bulk-terminator", "*1\r\n$3\r\nabcXY"},
      {"oversized-bulk", "*1\r\n$999999999\r\n"},
      {"oversized-arity", "*99999\r\n"},
      {"junk-after-arity", "*2x\r\n"},
  };
  std::string err;
  auto server = Server::Start(Opts(), &err);
  ASSERT_NE(server, nullptr) << err;

  for (const Case& c : cases) {
    RawConn raw(server->port());
    ASSERT_TRUE(raw.ok()) << c.name;
    ASSERT_TRUE(raw.Send(c.wire)) << c.name;
    const std::string got = raw.ReadUntilClose();
    EXPECT_EQ(got.rfind("-ERR", 0), 0u) << c.name << ": " << got;
  }

  auto good = Client::Connect("127.0.0.1", server->port(), &err);
  ASSERT_NE(good, nullptr) << err;
  // A header line that never ends is refused as soon as it outgrows the
  // longest legal header: a protocol error, far below the input cap.
  const uint64_t proto0 = StatsField(*good, "protocol_errors=");
  const uint64_t ovf0 = StatsField(*good, "in_overflows=");
  {
    RawConn raw(server->port());
    ASSERT_TRUE(raw.ok());
    ASSERT_TRUE(raw.Send("*" + std::string(4096, '1')));
    const std::string got = raw.ReadUntilClose();
    EXPECT_EQ(got.rfind("-ERR protocol error", 0), 0u) << got;
  }
  EXPECT_EQ(StatsField(*good, "protocol_errors="), proto0 + 1);
  EXPECT_EQ(StatsField(*good, "in_overflows="), ovf0);

  // After every abuse the server still serves well-formed traffic.
  ASSERT_TRUE(good->Set("still", "alive"));
  EXPECT_EQ(good->Get("still").value_or("?"), "alive");
  EXPECT_TRUE(good->Shutdown());
  server->Wait();
}

TEST_P(ServerE2E, TruncatedFrameThenDisconnectLeavesServerHealthy) {
  // A client that sends half a frame and vanishes must not wedge the loop
  // or leak the partial parse into another connection.
  const std::vector<std::string> partials = {
      "*2\r\n",                    // array header only
      "*2\r\n$3\r\nGET\r\n$10\r\n",  // waiting for bulk body
      "*2\r\n$3\r\nGE",            // mid-bulk-body
      "*",                         // single byte
  };
  std::string err;
  auto server = Server::Start(Opts(), &err);
  ASSERT_NE(server, nullptr) << err;
  for (const std::string& w : partials) {
    RawConn raw(server->port());
    ASSERT_TRUE(raw.ok());
    ASSERT_TRUE(raw.Send(w));
  }  // destructor closes mid-frame
  auto good = Client::Connect("127.0.0.1", server->port(), &err);
  ASSERT_NE(good, nullptr) << err;
  EXPECT_TRUE(good->Ping());
  EXPECT_TRUE(good->Shutdown());
  server->Wait();
}

TEST_P(ServerE2E, PipelinedCommandsSplitAcrossTinyWrites) {
  // A pipeline of SET/GET pairs dribbled onto the socket in 7-byte writes:
  // the parser state must survive arbitrary read boundaries end-to-end and
  // replies must come back complete and in order.
  std::string err;
  auto server = Server::Start(Opts(), &err);
  ASSERT_NE(server, nullptr) << err;
  RawConn raw(server->port());
  ASSERT_TRUE(raw.ok());

  const int kN = 20;
  std::string wire;
  std::string expect;
  for (int i = 0; i < kN; ++i) {
    const std::string v = "value-" + std::to_string(i);
    wire += Frame({"SET", "ck" + std::to_string(i), v});
    wire += Frame({"GET", "ck" + std::to_string(i)});
    expect += "+OK\r\n$" + std::to_string(v.size()) + "\r\n" + v + "\r\n";
  }
  for (size_t off = 0; off < wire.size(); off += 7) {
    ASSERT_TRUE(raw.Send(wire.substr(off, 7)));
  }
  EXPECT_EQ(raw.ReadUntilClose(expect.size()), expect);

  auto c = Client::Connect("127.0.0.1", server->port(), &err);
  ASSERT_NE(c, nullptr) << err;
  EXPECT_TRUE(c->Shutdown());
  server->Wait();
}

INSTANTIATE_TEST_SUITE_P(IoPlane, ServerE2E, ::testing::ValuesIn(IoParams()),
                         IoParamName);

// ---- Multi-loop-specific behavior -------------------------------------------
// These run once (not per-param): each pins the loops/poller shape it needs.

// With reuseport off the pool falls back to accept-and-hand-off: loop 0 owns
// the only listener and deals connections round-robin, so the Nth connect
// lands deterministically on loop N % loops. That determinism is what lets
// these tests place traffic on specific loops.
ServerOptions MultiLoopOpts(uint32_t loops) {
  ServerOptions o;
  o.nshards = 4;
  o.shard = SmallShard(16);
  o.loops = loops;
  o.reuseport = false;  // hand-off mode: deterministic conn → loop placement
  return o;
}

TEST(MultiLoop, CrossLoopSessionRead) {
  // The session-consistency contract must hold across loops: a SET on a
  // loop-0 connection, then a MINSEQ-gated GET on a loop-1 connection using
  // the writer's LASTSEQ token. The read either sees the write immediately
  // or parks on the shard until the write's sequence applies — its
  // completion must then find its way back to loop 1, not loop 0.
  std::string err;
  auto server = Server::Start(MultiLoopOpts(2), &err);
  ASSERT_NE(server, nullptr) << err;

  auto writer = Client::Connect("127.0.0.1", server->port(), &err);
  ASSERT_NE(writer, nullptr) << err;  // conn #1 → loop 0
  auto reader = Client::Connect("127.0.0.1", server->port(), &err);
  ASSERT_NE(reader, nullptr) << err;  // conn #2 → loop 1

  for (int i = 0; i < 50; ++i) {
    const std::string k = "xl:" + std::to_string(i);
    const uint32_t shard = ShardFor(k, 4);
    ASSERT_TRUE(writer->Set(k, "v" + std::to_string(i))) << i;
    const auto seq = writer->LastSeq(shard);
    ASSERT_TRUE(seq.has_value()) << i << ": " << writer->last_error();
    ASSERT_TRUE(reader->MinSeq(shard, *seq)) << i << ": "
                                             << reader->last_error();
    EXPECT_EQ(reader->Get(k).value_or("<missing>"), "v" + std::to_string(i))
        << i << ": " << reader->last_error();
  }

  EXPECT_TRUE(writer->Shutdown());
  server->Wait();
  EXPECT_TRUE(server->shutdown_report().ok);
}

TEST(MultiLoop, StatsAggregateAcrossLoops) {
  // Server counters are per-loop (no cross-loop cache-line contention); the
  // STATS reply must present the aggregate. Spread clients across all four
  // loops, issue a known command count, and check the totals add up.
  std::string err;
  auto server = Server::Start(MultiLoopOpts(4), &err);
  ASSERT_NE(server, nullptr) << err;

  const int kClients = 4, kOpsEach = 25;
  std::vector<std::unique_ptr<Client>> clients;
  for (int i = 0; i < kClients; ++i) {
    auto c = Client::Connect("127.0.0.1", server->port(), &err);
    ASSERT_NE(c, nullptr) << err;
    clients.push_back(std::move(c));
  }
  for (int i = 0; i < kClients; ++i) {
    for (int j = 0; j < kOpsEach; ++j) {
      const std::string k = "agg:" + std::to_string(i) + ":" + std::to_string(j);
      ASSERT_TRUE(clients[i]->Set(k, "v"));
    }
  }

  const std::string stats = clients[0]->Stats().value_or("");
  const auto field = [&stats](const char* name) -> uint64_t {
    const size_t pos = stats.find(name);
    if (pos == std::string::npos) {
      return 0;
    }
    return std::strtoull(stats.c_str() + pos + std::strlen(name), nullptr, 10);
  };
  // accepted counts every client; commands counts at least every SET plus
  // the STATS itself; conns sees all four live connections. All of these
  // accumulated on different loops and must aggregate in one reply.
  EXPECT_GE(field("accepted="), static_cast<uint64_t>(kClients)) << stats;
  EXPECT_GE(field("commands="),
            static_cast<uint64_t>(kClients * kOpsEach) + 1)
      << stats;
  EXPECT_EQ(field("conns="), static_cast<uint64_t>(kClients)) << stats;
  EXPECT_NE(stats.find("loops=4"), std::string::npos) << stats;

  EXPECT_TRUE(clients[0]->Shutdown());
  server->Wait();
  EXPECT_TRUE(server->shutdown_report().ok);
}

TEST(MultiLoop, ShutdownUnderCrossLoopLoad) {
  // Regression for the two-phase quiesce: SHUTDOWN arrives on one loop
  // while three other loops are mid-pipeline. Every loop must stop intake,
  // drain its in-flight completions, and the shards must pass the
  // integrity audit — no completion may arrive after its loop exited.
  std::string err;
  auto server = Server::Start(MultiLoopOpts(4), &err);
  ASSERT_NE(server, nullptr) << err;

  std::atomic<bool> stop{false};
  std::atomic<int> workers_up{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 3; ++t) {
    workers.emplace_back([&, t] {
      std::string werr;
      auto c = Client::Connect("127.0.0.1", server->port(), &werr);
      if (c == nullptr) {
        return;
      }
      ++workers_up;
      for (int i = 0; !stop.load(); ++i) {
        // Failures are expected once intake stops; just keep the pressure
        // on until then.
        if (!c->Set("load:" + std::to_string(t) + ":" + std::to_string(i),
                    "v")) {
          break;
        }
      }
    });
  }
  while (workers_up.load() < 3) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));  // loops busy

  auto killer = Client::Connect("127.0.0.1", server->port(), &err);
  ASSERT_NE(killer, nullptr) << err;
  EXPECT_TRUE(killer->Shutdown()) << killer->last_error();
  stop.store(true);
  for (auto& w : workers) {
    w.join();
  }
  server->Wait();
  EXPECT_TRUE(server->shutdown_report().ok)
      << server->shutdown_report().Summary();
}

TEST(MultiLoop, NoLostWakeupAcrossLoopsAndShards) {
  // Completions wake a loop only when its wake_pending flag flips, and the
  // 100 ms loop tick never drains completions: one lost wake strands a
  // reply for good. 4 shards post batches to 3 loops at once while 8
  // connections keep 64 commands each in flight; a fixed command count
  // must finish far inside the deadline.
  constexpr int kConns = 8, kDepth = 64, kRounds = 25;
  std::string err;
  auto server = Server::Start(MultiLoopOpts(3), &err);
  ASSERT_NE(server, nullptr) << err;

  const uint64_t t0 = NowNs();
  const uint64_t deadline = t0 + 20'000'000'000ull;
  std::atomic<int> failures{0};
  std::vector<std::thread> conns;
  for (int c = 0; c < kConns; ++c) {
    conns.emplace_back([&, c] {
      RawConn raw(server->port());
      std::vector<RespReply> replies;
      for (int round = 0; round < kRounds; ++round) {
        std::string wire;
        for (int i = 0; i < kDepth; ++i) {
          const std::string key =
              "wk:" + std::to_string(c) + ":" + std::to_string(i % 16);
          wire += i % 4 == 0 ? Frame({"SET", key, std::to_string(round)})
                             : Frame({"GET", key});
        }
        replies.clear();
        if (!raw.ok() || !raw.Send(wire) ||
            !raw.ReadReplies(kDepth, deadline, &replies)) {
          ++failures;  // this round's replies never all arrived
          return;
        }
        for (const RespReply& r : replies) {
          if (r.type == RespReply::Type::kError) {
            ++failures;
          }
        }
      }
    });
  }
  for (auto& t : conns) {
    t.join();
  }
  EXPECT_EQ(failures.load(), 0) << "a reply never arrived (lost wakeup?)";
  EXPECT_LT(NowNs(), deadline);

  auto c = Client::Connect("127.0.0.1", server->port(), &err);
  ASSERT_NE(c, nullptr) << err;
  EXPECT_TRUE(c->Shutdown());
  server->Wait();
  EXPECT_TRUE(server->shutdown_report().ok);
}

// ---- Backpressure and per-connection resource caps --------------------------

class HardeningE2E : public ::testing::TestWithParam<IoParam> {
 protected:
  void ApplyIo(ServerOptions* o) { o->loops = GetParam().loops; }
  static std::string ShardKey(uint32_t shard, uint32_t nshards, int salt = 0) {
    for (int i = salt;; ++i) {
      const std::string k = "bk:" + std::to_string(i);
      if (ShardFor(k, nshards) == shard) {
        return k;
      }
    }
  }
  // Pipelines 200 rounds of `SET k a<i>`, the commands write(b<i>) gives
  // (which set k to b<i>) and `GET k` in one burst on one connection,
  // against one shard whose 4-slot queue keeps most of the burst stalled.
  // Returns how many GETs did not read b<i>: one connection's requests to
  // one shard execute in command order, so every GET must.
  int StaleGets(std::vector<std::vector<std::string>> (*write)(
      const std::string& value)) {
    ServerOptions opts;
    opts.nshards = 1;
    opts.shard = SmallShard(/*batch=*/2);
    opts.shard.queue_capacity = 4;
    opts.shard.fence_ns = 50'000;  // slow group commits keep the queue full
    ApplyIo(&opts);
    std::string err;
    auto server = Server::Start(opts, &err);
    EXPECT_NE(server, nullptr) << err;
    if (server == nullptr) {
      return -1;
    }
    constexpr int kRounds = 200;
    std::string wire;
    size_t per_round = 0;
    for (int i = 0; i < kRounds; ++i) {
      const auto cmds = write("b" + std::to_string(i));
      per_round = cmds.size() + 2;
      wire += Frame({"SET", "k", "a" + std::to_string(i)});
      for (const auto& cmd : cmds) {
        wire += Frame(cmd);
      }
      wire += Frame({"GET", "k"});
    }
    RawConn conn(server->port());
    EXPECT_TRUE(conn.ok());
    EXPECT_TRUE(conn.Send(wire));  // the whole burst before any read
    std::vector<RespReply> replies;
    EXPECT_TRUE(conn.ReadReplies(per_round * kRounds,
                                 NowNs() + 30'000'000'000ull, &replies));
    int stale = 0;
    for (int i = 0; i < kRounds; ++i) {
      const size_t get = (i + 1) * per_round - 1;
      stale += get >= replies.size() ||
               replies[get].str != "b" + std::to_string(i);
    }
    server->RequestShutdown();
    server->Wait();
    EXPECT_TRUE(server->shutdown_report().ok);
    return stale;
  }
};

TEST_P(HardeningE2E, FloodedShardDoesNotBlockOtherShards) {
  // Regression for the event-loop stall: Shard::Submit blocked the loop
  // thread when one shard's queue filled, freezing every connection. With
  // TrySubmit + read-pause backpressure, a flood aimed at shard 0 must not
  // delay a GET on shard 1.
  ServerOptions opts;
  opts.nshards = 2;
  opts.shard = SmallShard(/*batch=*/1);
  opts.shard.queue_capacity = 4;
  opts.shard.fence_ns = 2'000'000;  // 2ms per fence: shard 0 drains slowly
  ApplyIo(&opts);
  std::string err;
  auto server = Server::Start(opts, &err);
  ASSERT_NE(server, nullptr) << err;

  auto flood = Client::Connect("127.0.0.1", server->port(), &err);
  ASSERT_NE(flood, nullptr) << err;
  auto other = Client::Connect("127.0.0.1", server->port(), &err);
  ASSERT_NE(other, nullptr) << err;
  const std::string hot = ShardKey(0, 2);
  const std::string cold = ShardKey(1, 2);
  ASSERT_TRUE(other->Set(cold, "cold-value"));

  // Fire-and-forget: several hundred SETs to shard 0 without reading
  // replies. The tiny queue fills immediately; the connection must be
  // read-paused, not the event loop.
  const int kFlood = 400;
  for (int i = 0; i < kFlood; ++i) {
    ASSERT_TRUE(flood->SendCommand({"SET", hot, "v" + std::to_string(i)}));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));  // queue full

  // Shard 1 is idle: this GET must complete long before the ~0.8s the
  // flood needs to drain (pre-fix it waited for the whole flood).
  const uint64_t t0 = NowNs();
  EXPECT_EQ(other->Get(cold).value_or("<missing>"), "cold-value");
  const double get_secs = static_cast<double>(NowNs() - t0) / 1e9;
  EXPECT_LT(get_secs, 0.5) << "other-shard GET stuck behind the flood";

  // No reply was lost to the backpressure: all flood SETs answer +OK.
  for (int i = 0; i < kFlood; ++i) {
    RespReply r;
    ASSERT_TRUE(flood->ReadOneReply(&r)) << i << ": " << flood->last_error();
    EXPECT_EQ(r.type, RespReply::Type::kSimple) << i << ": " << r.str;
  }

  EXPECT_TRUE(other->Shutdown());
  server->Wait();
}

TEST_P(HardeningE2E, RunsKeepPerConnectionShardOrderUnderBackpressure) {
  // Each connection's pipelined burst is one run per shard; with room for
  // 4 requests per queue most of every run stalls (kFull) and re-drives
  // from the stall queue. Per (connection, shard) the requests must still
  // execute in send order — every GET sees the SET just before it — and
  // the replies must come back in command order.
  ServerOptions opts;
  opts.nshards = 2;
  opts.shard = SmallShard(/*batch=*/2);
  opts.shard.queue_capacity = 4;
  opts.shard.fence_ns = 50'000;  // slow group commits keep the queues full
  ApplyIo(&opts);
  std::string err;
  auto server = Server::Start(opts, &err);
  ASSERT_NE(server, nullptr) << err;

  constexpr int kConns = 2, kPairs = 150;
  std::vector<std::unique_ptr<RawConn>> conns;
  std::vector<std::vector<std::string>> values(kConns);
  for (int c = 0; c < kConns; ++c) {
    // Two keys of this connection's own on each shard.
    std::vector<std::string> keys;
    for (uint32_t shard = 0; shard < 2; ++shard) {
      for (int i = 0, found = 0; found < 2; ++i) {
        const std::string k = "ord" + std::to_string(c) + ":" + std::to_string(i);
        if (ShardFor(k, 2) == shard) {
          keys.push_back(k);
          ++found;
        }
      }
    }
    std::string wire;
    for (int i = 0; i < kPairs; ++i) {
      const std::string& key = keys[(i * 3) % keys.size()];  // interleave shards
      values[c].push_back("c" + std::to_string(c) + "v" + std::to_string(i));
      wire += Frame({"SET", key, values[c].back()});
      wire += Frame({"GET", key});
    }
    conns.push_back(std::make_unique<RawConn>(server->port()));
    ASSERT_TRUE(conns.back()->ok());
    ASSERT_TRUE(conns.back()->Send(wire));  // whole burst before any read
  }
  const uint64_t deadline = NowNs() + 30'000'000'000ull;
  for (int c = 0; c < kConns; ++c) {
    std::vector<RespReply> replies;
    ASSERT_TRUE(conns[c]->ReadReplies(2 * kPairs, deadline, &replies)) << c;
    for (int i = 0; i < kPairs; ++i) {
      EXPECT_EQ(replies[2 * i].type, RespReply::Type::kSimple) << c << "/" << i;
      ASSERT_EQ(replies[2 * i + 1].type, RespReply::Type::kBulk) << c << "/" << i;
      EXPECT_EQ(replies[2 * i + 1].str, values[c][i]) << c << "/" << i;
    }
  }

  auto good = Client::Connect("127.0.0.1", server->port(), &err);
  ASSERT_NE(good, nullptr) << err;
  EXPECT_TRUE(good->Shutdown());
  server->Wait();
  EXPECT_TRUE(server->shutdown_report().ok);
}

TEST_P(HardeningE2E, ExecKeepsConnectionOrderUnderBackpressure) {
  // EXEC's phase-1 request waits in the connection's stall queue like any
  // other request, so it can neither overtake the SET stalled before it nor
  // be overtaken by the GET after it.
  EXPECT_EQ(StaleGets([](const std::string& v) {
              return std::vector<std::vector<std::string>>{
                  {"MULTI"}, {"SET", "k", v}, {"EXEC"}};
            }),
            0);
}

TEST_P(HardeningE2E, MsetKeepsConnectionOrderUnderBackpressure) {
  EXPECT_EQ(StaleGets([](const std::string& v) {
              return std::vector<std::vector<std::string>>{{"MSET", "k", v}};
            }),
            0);
}

TEST_P(HardeningE2E, ClosedConnStalledExecStillDecides) {
  // A client that resets its connection while an EXEC's phase-1 part waits
  // in the stall queue must not strand the txn: the part another shard
  // already prepared would stay staged, counted in flight, and would clamp
  // every CKPT below its prepare record. Each round puts an extra SET on
  // shard 1, so shard 1's 4-slot queue is the one that fills and a stall
  // often holds part 1 after part 0 went in; each trial resets mid-burst.
  ServerOptions opts;
  opts.nshards = 2;
  opts.shard = SmallShard(/*batch=*/2);
  opts.shard.queue_capacity = 4;
  opts.shard.fence_ns = 50'000;  // slow group commits keep the queues full
  ApplyIo(&opts);
  std::string err;
  auto server = Server::Start(opts, &err);
  ASSERT_NE(server, nullptr) << err;
  const auto key_on = [](uint32_t shard, const std::string& stem) {
    for (int j = 0;; ++j) {
      const std::string k = stem + ":" + std::to_string(j);
      if (ShardFor(k, 2) == shard) {
        return k;
      }
    }
  };
  constexpr int kTrials = 8, kRounds = 100, kRepliesPerRound = 5;
  std::vector<std::pair<std::string, std::string>> pairs;
  for (int trial = 0; trial < kTrials; ++trial) {
    std::string wire;
    for (int i = 0; i < kRounds; ++i) {
      const std::string tag = std::to_string(trial) + ":" + std::to_string(i);
      pairs.emplace_back(key_on(0, "ra:" + tag), key_on(1, "rb:" + tag));
      wire += Frame({"SET", key_on(1, "rc:" + tag), "x"});
      wire += Frame({"MULTI"});
      wire += Frame({"SET", pairs.back().first, "v"});
      wire += Frame({"SET", pairs.back().second, "v"});
      wire += Frame({"EXEC"});
    }
    RawConn conn(server->port());
    ASSERT_TRUE(conn.ok());
    ASSERT_TRUE(conn.Send(wire));
    // Ten rounds answered: the server is now working through the burst.
    std::vector<RespReply> replies;
    ASSERT_TRUE(conn.ReadReplies(10 * kRepliesPerRound,
                                 NowNs() + 30'000'000'000ull, &replies));
    conn.Reset();
  }

  auto good = Client::Connect("127.0.0.1", server->port(), &err);
  ASSERT_NE(good, nullptr) << err;
  // Every txn joins and decides, with or without its client.
  const uint64_t deadline = NowNs() + 10'000'000'000ull;
  uint64_t inflight = 0;
  while ((inflight = StatsField(*good, "inflight=")) != 0 &&
         NowNs() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(inflight, 0u) << good->Stats().value_or("");
  // All or nothing: each txn either never ran or set both of its keys.
  int mismatched = 0, committed = 0;
  for (const auto& [a, b] : pairs) {
    const std::optional<std::string> va = good->Get(a);
    mismatched += va != good->Get(b);
    committed += va.has_value();
  }
  EXPECT_EQ(mismatched, 0);
  EXPECT_GE(committed, kTrials * 10);  // the answered rounds at least
  // Nothing staged is left to clamp a checkpoint: each shard's CKPT bound
  // is its next log sequence number.
  std::vector<std::string> bounds;
  for (int i = 0; i < 2; ++i) {
    RespReply last;
    ASSERT_TRUE(good->Roundtrip({"LASTSEQ", std::to_string(i)}, &last));
    ASSERT_EQ(last.type, RespReply::Type::kInteger) << last.str;
    bounds.push_back("shard" + std::to_string(i) +
                     " begin=" + std::to_string(last.integer + 1) + " ");
  }
  RespReply ckpt;
  ASSERT_TRUE(good->Roundtrip({"CKPT"}, &ckpt));
  for (const std::string& bound : bounds) {
    EXPECT_NE(ckpt.str.find(bound), std::string::npos) << ckpt.str;
  }
  EXPECT_TRUE(good->Shutdown());
  server->Wait();
  EXPECT_TRUE(server->shutdown_report().ok);
}

TEST_P(HardeningE2E, ClosedConnStalledPromoteStillFlips) {
  // PROMOTE stops the replica's pull before its shards audit, so a PROMOTE
  // that never joins leaves a read-only node that follows no one. Its
  // client resets while the kPromote parts wait in the stall queue behind
  // a burst of GETs on 4-slot shard queues: every part must still count
  // the join down, and the join must flip every shard.
  ServerOptions popts;
  popts.nshards = 2;
  popts.shard = SmallShard(/*batch=*/2);
  ApplyIo(&popts);
  std::string err;
  auto primary = Server::Start(popts, &err);
  ASSERT_NE(primary, nullptr) << err;
  ServerOptions ropts = popts;
  ropts.shard.queue_capacity = 4;
  ropts.replica_of = "127.0.0.1:" + std::to_string(primary->port());
  auto replica = Server::Start(ropts, &err);
  ASSERT_NE(replica, nullptr) << err;

  // One write well under the loop's 64 KiB read: one parse pass dispatches
  // PROMOTE after the GET runs filled the queues and stalled.
  constexpr int kGets = 2000;
  std::string wire;
  for (int i = 0; i < kGets; ++i) {
    wire += Frame({"GET", "pk:" + std::to_string(i)});
  }
  wire += Frame({"PROMOTE"});
  ASSERT_LT(wire.size(), 65536u);
  RawConn conn(replica->port());
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE(conn.Send(wire));
  // Ten GETs answered: PROMOTE is dispatched, most of the burst stalled.
  std::vector<RespReply> replies;
  ASSERT_TRUE(
      conn.ReadReplies(10, NowNs() + 30'000'000'000ull, &replies));
  conn.Reset();

  auto good = Client::Connect("127.0.0.1", replica->port(), &err);
  ASSERT_NE(good, nullptr) << err;
  const auto primaries = [](const std::string& stats) {
    size_t n = 0;
    for (size_t at = stats.find("role=primary"); at != std::string::npos;
         at = stats.find("role=primary", at + 1)) {
      ++n;
    }
    return n;
  };
  const uint64_t deadline = NowNs() + 10'000'000'000ull;
  std::string stats;
  while (primaries(stats = good->Stats().value_or("")) < 2 &&
         NowNs() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(primaries(stats), 2u) << stats;
  EXPECT_TRUE(good->Set("pk:after", "v")) << good->last_error();

  EXPECT_TRUE(good->Shutdown());
  replica->Wait();
  auto pc = Client::Connect("127.0.0.1", primary->port(), &err);
  ASSERT_NE(pc, nullptr) << err;
  EXPECT_TRUE(pc->Shutdown());
  primary->Wait();
}

TEST_P(HardeningE2E, InputBufferCapDisconnectsAndCounts) {
  ServerOptions opts;
  opts.nshards = 2;
  opts.shard = SmallShard(/*batch=*/8);
  opts.max_conn_in_bytes = 4096;
  ApplyIo(&opts);
  std::string err;
  auto server = Server::Start(opts, &err);
  ASSERT_NE(server, nullptr) << err;

  // An incomplete 1MB bulk dribbles 8KB of body: the unparsed buffer blows
  // the 4KB cap long before the frame completes. The connection gets -ERR
  // and is dropped; the abuse is counted separately from protocol errors.
  RawConn raw(server->port());
  ASSERT_TRUE(raw.ok());
  ASSERT_TRUE(raw.Send("*1\r\n$1000000\r\n"));
  ASSERT_TRUE(raw.Send(std::string(8192, 'x')));
  const std::string got = raw.ReadUntilClose();
  EXPECT_EQ(got.rfind("-ERR", 0), 0u) << got;
  EXPECT_NE(got.find("cap"), std::string::npos) << got;

  auto good = Client::Connect("127.0.0.1", server->port(), &err);
  ASSERT_NE(good, nullptr) << err;
  EXPECT_EQ(StatsField(*good, "in_overflows="), 1u);
  EXPECT_TRUE(good->Ping());
  EXPECT_TRUE(good->Shutdown());
  server->Wait();
}

TEST_P(HardeningE2E, OutputCapEvictsSlowReplicationSubscriber) {
  // The classic slow-subscriber OOM: a REPLSYNC connection that never
  // reads. Once the kernel socket buffers fill, the server-side pending
  // output grows with every sealed record; past max_conn_out_bytes the
  // subscriber must be evicted instead of buffering without bound.
  ServerOptions opts;
  opts.nshards = 1;
  opts.shard = SmallShard(/*batch=*/8);
  opts.shard.device_bytes = 128ull << 20;
  opts.max_conn_out_bytes = 8192;
  ApplyIo(&opts);
  std::string err;
  auto server = Server::Start(opts, &err);
  ASSERT_NE(server, nullptr) << err;

  RawConn subscriber(server->port());
  ASSERT_TRUE(subscriber.ok());
  ASSERT_TRUE(subscriber.Send(Frame({"REPLSYNC", "0", "1"})));
  // Never read a byte from `subscriber` again.

  auto good = Client::Connect("127.0.0.1", server->port(), &err);
  ASSERT_NE(good, nullptr) << err;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  const std::string big(2048, 'z');
  uint64_t evictions = 0;
  for (int i = 0; evictions == 0; ++i) {
    ASSERT_TRUE(good->Set("ok:" + std::to_string(i), big))
        << good->last_error();
    if (i % 16 == 0 || i > 256) {
      evictions = StatsField(*good, "out_overflows=");
    }
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "slow subscriber was never evicted";
  }
  EXPECT_GE(evictions, 1u);
  EXPECT_EQ(StatsField(*good, "subs="), 0u);  // the subscription is gone

  // The server is healthy and normal clients are untouched.
  EXPECT_TRUE(good->Ping());
  EXPECT_TRUE(good->Shutdown());
  server->Wait();
}

TEST_P(HardeningE2E, OutputPathCountersVisibleInStats) {
  // The chunked flush path surfaces its own counters: writev syscalls,
  // bytes the kernel accepted, and — once a REPLSYNC subscriber is fed —
  // zero-copy frame refs. All of them must be live, not placeholders.
  ServerOptions opts;
  opts.nshards = 1;
  opts.shard = SmallShard(/*batch=*/8);
  opts.shard.device_bytes = 128ull << 20;
  ApplyIo(&opts);
  std::string err;
  auto server = Server::Start(opts, &err);
  ASSERT_NE(server, nullptr) << err;

  auto c = Client::Connect("127.0.0.1", server->port(), &err);
  ASSERT_NE(c, nullptr) << err;
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(c->Set("k" + std::to_string(i), "v" + std::to_string(i)));
  }
  EXPECT_GT(StatsField(*c, "flush_syscalls="), 0u);
  EXPECT_GT(StatsField(*c, "flushed_bytes="), 0u);
  EXPECT_EQ(StatsField(*c, "frame_refs="), 0u);  // no subscriber yet

  // A draining subscriber turns sealed batches into shared-frame refs.
  auto sub = Client::Connect("127.0.0.1", server->port(), &err);
  ASSERT_NE(sub, nullptr) << err;
  ASSERT_TRUE(sub->SendCommand({"REPLSYNC", "0", "1"}));
  RespReply r;
  ASSERT_TRUE(sub->ReadOneReply(&r));  // +SYNC handshake
  while (StatsField(*c, "subs=") < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(c->Set("s" + std::to_string(i), "v"));
  }
  // The subscriber's loop counts a frame ref when it drains its stream
  // completions, which may come after the STATS reply: poll for it.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (StatsField(*c, "frame_refs=") == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GT(StatsField(*c, "frame_refs="), 0u);
  EXPECT_GT(StatsField(*c, "stream_frames="), 0u);
  // chunks_per_flush renders as a decimal; just check the field exists.
  EXPECT_NE(c->Stats().value_or("").find("chunks_per_flush="),
            std::string::npos);

  sub->ShutdownSocket();
  EXPECT_TRUE(c->Shutdown());
  server->Wait();
}

TEST_P(HardeningE2E, PartialWritevResumesMidChunk) {
  // A reply far larger than the socket buffers forces the flush to stop
  // mid-chunk (EAGAIN) and resume across many poller wakeups; a reader
  // that drains slowly must still receive byte-exact data. This exercises
  // out_off resume + BuildIovecs offset math end to end.
  ServerOptions opts;
  opts.nshards = 1;
  opts.shard = SmallShard(/*batch=*/4);
  opts.shard.device_bytes = 128ull << 20;
  ApplyIo(&opts);
  std::string err;
  auto server = Server::Start(opts, &err);
  ASSERT_NE(server, nullptr) << err;

  std::string big(6 << 20, '\0');  // 6MB >> any default socket buffer
  for (size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<char>('a' + (i * 131) % 26);
  }
  auto w = Client::Connect("127.0.0.1", server->port(), &err);
  ASSERT_NE(w, nullptr) << err;
  ASSERT_TRUE(w->Set("big", big)) << w->last_error();

  // Interleave small replies so the queue holds multiple chunks when the
  // big GET lands: PING replies coalesce, the big value rides alone.
  RawConn raw(server->port());
  ASSERT_TRUE(raw.ok());
  std::string wire;
  wire += Frame({"PING"});
  wire += Frame({"GET", "big"});
  wire += Frame({"PING"});
  ASSERT_TRUE(raw.Send(wire));
  std::string want = "+PONG\r\n$" + std::to_string(big.size()) + "\r\n" +
                     big + "\r\n+PONG\r\n";
  std::string got = raw.ReadUntilClose(want.size());
  EXPECT_EQ(got.size(), want.size());
  EXPECT_EQ(got, want);

  EXPECT_TRUE(w->Shutdown());
  server->Wait();
}

INSTANTIATE_TEST_SUITE_P(IoPlane, HardeningE2E,
                         ::testing::ValuesIn(IoParams()), IoParamName);

// ---- Command table ----------------------------------------------------------

TEST(CommandTable, EveryRowIsAdmittedOverTheWire) {
  // Walks Server::Commands() against a plain and a cluster server. Names go
  // out in mixed case; each reply that names the command in upper case
  // shows the lookup found its row.
  using Command = Server::Command;
  const auto mixed = [](std::string_view name) {
    std::string out(name);
    for (size_t i = 0; i < out.size(); i += 2) {
      out[i] = static_cast<char>(std::tolower(out[i]));
    }
    return out;
  };
  const auto call = [](Client& c, const std::vector<std::string>& args) {
    RespReply r;
    EXPECT_TRUE(c.Roundtrip(args, &r)) << args[0] << ": " << c.last_error();
    return r;
  };
  ServerOptions opts;
  opts.nshards = 2;
  opts.shard = SmallShard(/*batch=*/4);
  std::string err;
  auto plain = Server::Start(opts, &err);
  ASSERT_NE(plain, nullptr) << err;
  opts.cluster = true;  // volatile slot table
  auto clustered = Server::Start(opts, &err);
  ASSERT_NE(clustered, nullptr) << err;
  auto c = Client::Connect("127.0.0.1", plain->port(), &err);
  ASSERT_NE(c, nullptr) << err;
  auto cc = Client::Connect("127.0.0.1", clustered->port(), &err);
  ASSERT_NE(cc, nullptr) << err;

  for (const Command& cmd : Server::Commands()) {
    const std::string name(cmd.name);
    if (cmd.flags & Command::kOneWay) {
      continue;  // no reply to check: see REPLACK below
    }
    // Argument counts the row refuses.
    std::vector<size_t> wrong;
    if (cmd.min_args > 1) {
      wrong.push_back(cmd.min_args - 1);
    }
    if (cmd.max_args != 0) {
      wrong.push_back(cmd.max_args + 1);
    }
    if (cmd.flags & Command::kPairs) {
      wrong.push_back(cmd.min_args + 1);
    }
    Client& target = (cmd.flags & Command::kClusterOnly) ? *cc : *c;
    for (const size_t argc : wrong) {
      std::vector<std::string> args(argc, "1");
      args[0] = mixed(name);
      const RespReply r = call(target, args);
      EXPECT_EQ(r.type, RespReply::Type::kError) << name << "/" << argc;
      EXPECT_EQ(r.str, "ERR wrong number of arguments for " + name)
          << name << "/" << argc;
    }
    std::vector<std::string> args(cmd.min_args, "1");
    args[0] = mixed(name);
    if (cmd.flags & Command::kClusterOnly) {
      const RespReply r = call(*c, args);
      EXPECT_EQ(r.str, "ERR cluster support is disabled") << name;
    }
    if (!(cmd.flags & (Command::kQueued | Command::kTxnControl))) {
      // Refused inside MULTI, and the refusal dirties the txn.
      ASSERT_TRUE(c->Multi()) << c->last_error();
      EXPECT_EQ(call(*c, args).str, "ERR command not allowed in MULTI: " + name);
      const RespReply r = call(*c, {"EXEC"});
      EXPECT_EQ(r.str.rfind("TXNABORT", 0), 0u) << name << ": " << r.str;
    }
  }

  // Mixed-case names run their handlers.
  EXPECT_EQ(call(*c, {"pInG"}).str, "PONG");
  EXPECT_EQ(call(*c, {"sEt", "k", "v"}).str, "OK");
  EXPECT_EQ(call(*c, {"GeT", "k"}).str, "v");
  EXPECT_EQ(call(*c, {"mUlTi"}).str, "OK");
  EXPECT_EQ(call(*c, {"Set", "k", "w"}).str, "QUEUED");
  const RespReply txn = call(*c, {"exec"});
  ASSERT_EQ(txn.type, RespReply::Type::kArray);
  EXPECT_EQ(call(*c, {"get", "k"}).str, "w");
  // Names and CLUSTER words compare over their full length: a bulk
  // argument may carry a NUL, and "MEET\0junk" is not MEET.
  const std::string ping_nul("PING\0x", 6);
  EXPECT_EQ(call(*c, {ping_nul}).str, "ERR unknown command '" + ping_nul + "'");
  EXPECT_EQ(call(*cc, {"cluster", "info"}).type, RespReply::Type::kBulk);
  const std::string meet_nul("MEET\0junk", 9);
  EXPECT_EQ(call(*cc, {"CLUSTER", meet_nul, "1", "127.0.0.1:1"}).str,
            "ERR unknown CLUSTER subcommand '" + meet_nul + "'");
  EXPECT_EQ(call(*cc, {"CLUSTER", "SETSLOT", std::string("ASSIGN\0x", 8), "0",
                       "0", "0"})
                .str,
            "ERR CLUSTER SETSLOT expects ASSIGN or MIGRATE");
  // An unknown command errors; inside MULTI it dirties the txn.
  EXPECT_EQ(call(*c, {"NoSuch", "x"}).str, "ERR unknown command 'NoSuch'");
  ASSERT_TRUE(c->Multi());
  EXPECT_EQ(call(*c, {"NOSUCH"}).type, RespReply::Type::kError);
  EXPECT_EQ(call(*c, {"EXEC"}).str.rfind("TXNABORT", 0), 0u);

  // A malformed REPLACK (arity or shard) closes its connection and counts
  // a protocol error; it gets no reply.
  for (const std::vector<std::string>& ack :
       {std::vector<std::string>{"replack", "0"},
        std::vector<std::string>{"REPLACK", "9", "1"}}) {
    const uint64_t before = StatsField(*c, "protocol_errors=");
    RawConn raw(plain->port());
    ASSERT_TRUE(raw.ok());
    ASSERT_TRUE(raw.Send(Frame(ack)));
    EXPECT_EQ(raw.ReadUntilClose(), "") << ack.size();
    EXPECT_EQ(StatsField(*c, "protocol_errors="), before + 1);
  }

  EXPECT_TRUE(cc->Shutdown());
  clustered->Wait();
  EXPECT_TRUE(c->Shutdown());
  plain->Wait();
  EXPECT_TRUE(plain->shutdown_report().ok);
}

// ---- Loadgen smoke ----------------------------------------------------------
// Shells out to the real jnvm_loadgen binary (path injected by CMake)
// against in-process servers: a bounded session-consistency run where the
// tool's own oracle is the assertion — --expect-hits makes any miss fatal,
// and -STALE replies are fatal by default. A primary + replica pair driven
// with --read-from=replica proves the whole client-side routing stack
// (LASTSEQ capture, per-endpoint MINSEQ bookkeeping, stale accounting).

#ifdef JNVM_LOADGEN_BIN
TEST(LoadgenSmoke, SessionReplicaReadsExpectHits) {
  ServerOptions popts;
  popts.nshards = 2;
  popts.shard.device_bytes = 64ull << 20;
  popts.shard.map_capacity = 1 << 12;
  std::string err;
  auto primary = Server::Start(popts, &err);
  ASSERT_NE(primary, nullptr) << err;
  ServerOptions ropts = popts;
  ropts.replica_of = "127.0.0.1:" + std::to_string(primary->port());
  auto replica = Server::Start(ropts, &err);
  ASSERT_NE(replica, nullptr) << err;

  const std::string cmd =
      std::string(JNVM_LOADGEN_BIN) +
      " --port=" + std::to_string(primary->port()) +
      " --read-from=replica --read-endpoints=127.0.0.1:" +
      std::to_string(replica->port()) +
      " --consistency=session --shards=2 --ycsb=b --expect-hits" +
      " --threads=2 --keys=300 --ops=800 --pipeline=8 --seconds=30" +
      " >/dev/null";
  EXPECT_EQ(std::system(cmd.c_str()), 0) << cmd;

  auto rc = Client::Connect("127.0.0.1", replica->port(), &err);
  ASSERT_NE(rc, nullptr) << err;
  ASSERT_TRUE(rc->Shutdown());
  replica->Wait();
  auto pc = Client::Connect("127.0.0.1", primary->port(), &err);
  ASSERT_NE(pc, nullptr) << err;
  ASSERT_TRUE(pc->Shutdown());
  primary->Wait();
}
// A YCSB-B run straight against a primary: reads may start only once every
// thread's preload is acked (the loadgen's preload barrier), or a thread
// reading another's slice could miss a key not yet written. Deep pipelines
// make an early reader likely; each round needs a fresh, empty server.
TEST(LoadgenSmoke, PrimaryYcsbBExpectHits) {
  ServerOptions opts;
  opts.nshards = 2;
  opts.shard.device_bytes = 64ull << 20;
  opts.shard.map_capacity = 1 << 13;
  for (int round = 0; round < 3; ++round) {
    std::string err;
    auto server = Server::Start(opts, &err);
    ASSERT_NE(server, nullptr) << err;
    const std::string cmd =
        std::string(JNVM_LOADGEN_BIN) +
        " --port=" + std::to_string(server->port()) +
        " --shards=2 --ycsb=b --expect-hits --threads=4 --keys=8000" +
        " --ops=2000 --pipeline=128 --seconds=30 >/dev/null";
    EXPECT_EQ(std::system(cmd.c_str()), 0) << cmd;
  }  // ~Server shuts the round's server down
}
// MULTI/EXEC load against a 4-shard primary: mixed single-shard (kTxnExec
// fast path) and cross-shard (2PC decision record) groups, then the built-in
// all-or-nothing sweep. The loadgen exits non-zero on any partial apply, any
// per-op error, or a group carrying a foreign value.
TEST(LoadgenSmoke, TxnModeCommitsAtomically) {
  ServerOptions opts;
  opts.nshards = 4;
  opts.shard.device_bytes = 64ull << 20;
  opts.shard.map_capacity = 1 << 12;
  std::string err;
  auto server = Server::Start(opts, &err);
  ASSERT_NE(server, nullptr) << err;

  const std::string cmd =
      std::string(JNVM_LOADGEN_BIN) +
      " --port=" + std::to_string(server->port()) +
      " --shards=4 --txn=4 --cross-shard-pct=50 --txn-verify" +
      " --threads=2 --keys=64 --ops=400 --seconds=30 >/dev/null";
  EXPECT_EQ(std::system(cmd.c_str()), 0) << cmd;

  // The run actually exercised both commit paths: decisions sealed (cross-
  // shard) and more prepares than decisions (single-shard fast path never
  // seals one).
  auto c = Client::Connect("127.0.0.1", server->port(), &err);
  ASSERT_NE(c, nullptr) << err;
  const std::string stats = c->Stats().value_or("");
  const auto field = [&stats](const char* name) -> uint64_t {
    const size_t pos = stats.find(name);
    if (pos == std::string::npos) {
      return 0;
    }
    return std::strtoull(stats.c_str() + pos + std::strlen(name), nullptr, 10);
  };
  EXPECT_GT(field("decision_records="), 0u) << stats;
  EXPECT_GT(field("committed="), field("decision_records=")) << stats;
  EXPECT_EQ(field("inflight="), 0u) << stats;
  ASSERT_TRUE(c->Shutdown());
  server->Wait();
}
#endif  // JNVM_LOADGEN_BIN

}  // namespace
}  // namespace jnvm::server
