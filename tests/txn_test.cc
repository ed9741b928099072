// Tests for the cross-shard transaction subsystem (src/txn + the server's
// MULTI/EXEC plane, DESIGN.md §9): wire semantics (queueing, read-your-
// writes, dirty-txn abort, DISCARD), the single-shard fast path (no decision
// record), cross-shard 2PC (decision record sealed on the coordinator),
// WAIT-K interaction with the decision seal, shard-level recovery of
// prepared-but-undecided txns (present decision → commit, absent → abort),
// and txn survival across a full server restart.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/repl/frame.h"
#include "src/server/client.h"
#include "src/server/server.h"
#include "src/server/shard.h"
#include "src/txn/txn.h"

namespace jnvm::server {
namespace {

ShardOptions SmallShard() {
  ShardOptions o;
  o.device_bytes = 32ull << 20;
  o.map_capacity = 1 << 10;
  o.batch = 8;
  return o;
}

// Smallest suffix whose FNV-1a hash routes to `shard` — lets tests pin keys
// to specific shards without hardcoding hash values.
std::string KeyOnShard(uint32_t shard, uint32_t nshards, int tag) {
  for (int i = 0;; ++i) {
    std::string k =
        "tk:" + std::to_string(tag) + ":" + std::to_string(i);
    if (ShardFor(k, nshards) == shard) {
      return k;
    }
  }
}

// Parses the `txn:` STATS line into k=v counters.
bool TxnStats(Client& c, std::map<std::string, uint64_t>* out) {
  const auto stats = c.Stats();
  if (!stats.has_value()) {
    return false;
  }
  std::istringstream in(*stats);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("txn: ", 0) != 0) {
      continue;
    }
    std::istringstream fields(line.substr(5));
    std::string kv;
    while (fields >> kv) {
      const size_t eq = kv.find('=');
      if (eq != std::string::npos) {
        (*out)[kv.substr(0, eq)] = std::strtoull(kv.c_str() + eq + 1, nullptr, 10);
      }
    }
    return true;
  }
  return false;
}

// Polls STATS until the inflight staged-txn count drains to zero — the
// cross-shard apply phase is fire-and-forget, so counters settle shortly
// after the EXEC reply.
bool WaitTxnSettled(Client& c, int timeout_ms = 5000) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    std::map<std::string, uint64_t> t;
    if (TxnStats(c, &t) && t["inflight"] == 0) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return false;
}

// ---- Wire-level E2E -----------------------------------------------------------

class TxnE2E : public ::testing::Test {
 protected:
  ServerOptions Opts(uint32_t nshards = 4) {
    ServerOptions o;
    o.nshards = nshards;
    o.shard = SmallShard();
    return o;
  }

  void Start(uint32_t nshards = 4) {
    std::string err;
    server_ = Server::Start(Opts(nshards), &err);
    ASSERT_NE(server_, nullptr) << err;
    client_ = Client::Connect("127.0.0.1", server_->port(), &err);
    ASSERT_NE(client_, nullptr) << err;
  }

  // Queues one MULTI op and asserts the +QUEUED reply.
  void Queue(const std::vector<std::string>& args) {
    RespReply r;
    ASSERT_TRUE(client_->Roundtrip(args, &r)) << client_->last_error();
    ASSERT_EQ(r.type, RespReply::Type::kSimple) << r.str;
    ASSERT_EQ(r.str, "QUEUED");
  }

  std::unique_ptr<Server> server_;
  std::unique_ptr<Client> client_;
};

TEST_F(TxnE2E, SingleShardExecAppliesAndSkipsDecisionRecord) {
  Start();
  const std::string a = KeyOnShard(0, 4, 1);
  const std::string b = KeyOnShard(0, 4, 2);

  ASSERT_TRUE(client_->Multi());
  Queue({"SET", a, "va"});
  Queue({"SET", b, "vb"});
  Queue({"GET", a});  // staged read-your-writes
  std::vector<RespReply> replies;
  ASSERT_TRUE(client_->Exec(&replies)) << client_->last_error();
  ASSERT_EQ(replies.size(), 3u);
  EXPECT_EQ(replies[0].type, RespReply::Type::kSimple);
  EXPECT_EQ(replies[1].type, RespReply::Type::kSimple);
  ASSERT_EQ(replies[2].type, RespReply::Type::kBulk);
  EXPECT_EQ(replies[2].str, "va");

  EXPECT_EQ(client_->Get(a).value_or(""), "va");
  EXPECT_EQ(client_->Get(b).value_or(""), "vb");

  // Single-shard fast path: one [prepare|marker] record, never a decision.
  ASSERT_TRUE(WaitTxnSettled(*client_));
  std::map<std::string, uint64_t> t;
  ASSERT_TRUE(TxnStats(*client_, &t));
  EXPECT_EQ(t["committed"], 1u);
  EXPECT_EQ(t["prepared"], 1u);
  EXPECT_EQ(t["aborted"], 0u);
  EXPECT_EQ(t["decision_records"], 0u);
}

TEST_F(TxnE2E, CrossShardExecAppliesAtomicallyWithOneDecision) {
  Start();
  const std::string k0 = KeyOnShard(0, 4, 3);
  const std::string k1 = KeyOnShard(1, 4, 4);
  const std::string k2 = KeyOnShard(2, 4, 5);

  ASSERT_TRUE(client_->Multi());
  Queue({"SET", k0, "v0"});
  Queue({"SET", k1, "v1"});
  Queue({"SET", k2, "v2"});
  std::vector<RespReply> replies;
  ASSERT_TRUE(client_->Exec(&replies)) << client_->last_error();
  ASSERT_EQ(replies.size(), 3u);

  EXPECT_EQ(client_->Get(k0).value_or(""), "v0");
  EXPECT_EQ(client_->Get(k1).value_or(""), "v1");
  EXPECT_EQ(client_->Get(k2).value_or(""), "v2");

  ASSERT_TRUE(WaitTxnSettled(*client_));
  std::map<std::string, uint64_t> t;
  ASSERT_TRUE(TxnStats(*client_, &t));
  // One decision on the coordinator; every write participant prepared and
  // (counters aggregate across shards) applied its slice.
  EXPECT_EQ(t["decision_records"], 1u);
  EXPECT_EQ(t["prepared"], 3u);
  EXPECT_EQ(t["committed"], 3u);
  EXPECT_EQ(t["aborted"], 0u);
}

TEST_F(TxnE2E, CrossShardReadsSeeStagedWritesAndPreTxnState) {
  Start();
  const std::string a = KeyOnShard(0, 4, 6);
  const std::string b = KeyOnShard(1, 4, 7);
  ASSERT_TRUE(client_->Set(b, "old"));

  ASSERT_TRUE(client_->Multi());
  Queue({"SET", a, "new"});
  Queue({"GET", b});   // pre-txn store state
  Queue({"DEL", b});
  Queue({"GET", b});   // staged delete → nil
  std::vector<RespReply> replies;
  ASSERT_TRUE(client_->Exec(&replies)) << client_->last_error();
  ASSERT_EQ(replies.size(), 4u);
  ASSERT_EQ(replies[1].type, RespReply::Type::kBulk);
  EXPECT_EQ(replies[1].str, "old");
  ASSERT_EQ(replies[2].type, RespReply::Type::kInteger);
  EXPECT_EQ(replies[2].integer, 1);
  EXPECT_EQ(replies[3].type, RespReply::Type::kNil);

  EXPECT_EQ(client_->Get(a).value_or(""), "new");
  EXPECT_FALSE(client_->Get(b).has_value());
}

TEST_F(TxnE2E, NestedMultiRejectedWithoutDirtyingTxn) {
  Start();
  ASSERT_TRUE(client_->Multi());
  RespReply r;
  ASSERT_TRUE(client_->Roundtrip({"MULTI"}, &r));
  ASSERT_EQ(r.type, RespReply::Type::kError);
  EXPECT_NE(r.str.find("nested"), std::string::npos) << r.str;

  // The nested-MULTI error does not poison the open txn (Redis semantics).
  const std::string k = KeyOnShard(0, 4, 8);
  Queue({"SET", k, "v"});
  std::vector<RespReply> replies;
  ASSERT_TRUE(client_->Exec(&replies)) << client_->last_error();
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(client_->Get(k).value_or(""), "v");
}

TEST_F(TxnE2E, ExecAndDiscardWithoutMultiRejected) {
  Start();
  RespReply r;
  ASSERT_TRUE(client_->Roundtrip({"EXEC"}, &r));
  ASSERT_EQ(r.type, RespReply::Type::kError);
  EXPECT_NE(r.str.find("EXEC without MULTI"), std::string::npos) << r.str;
  ASSERT_TRUE(client_->Roundtrip({"DISCARD"}, &r));
  ASSERT_EQ(r.type, RespReply::Type::kError);
  EXPECT_NE(r.str.find("DISCARD without MULTI"), std::string::npos) << r.str;
}

TEST_F(TxnE2E, DiscardDropsQueuedOps) {
  Start();
  const std::string k = KeyOnShard(0, 4, 9);
  ASSERT_TRUE(client_->Multi());
  Queue({"SET", k, "v"});
  ASSERT_TRUE(client_->Discard());
  EXPECT_FALSE(client_->Get(k).has_value());
  // The txn is closed: EXEC is an error again.
  RespReply r;
  ASSERT_TRUE(client_->Roundtrip({"EXEC"}, &r));
  EXPECT_EQ(r.type, RespReply::Type::kError);
}

TEST_F(TxnE2E, EmptyExecReturnsEmptyArray) {
  Start();
  ASSERT_TRUE(client_->Multi());
  std::vector<RespReply> replies;
  ASSERT_TRUE(client_->Exec(&replies)) << client_->last_error();
  EXPECT_TRUE(replies.empty());
  std::map<std::string, uint64_t> t;
  ASSERT_TRUE(TxnStats(*client_, &t));
  EXPECT_EQ(t["prepared"], 0u);
  EXPECT_EQ(t["committed"], 0u);
}

TEST_F(TxnE2E, InvalidQueuedCommandAbortsExecExplicitly) {
  Start();
  const std::string k0 = KeyOnShard(0, 4, 10);
  const std::string k1 = KeyOnShard(1, 4, 11);
  ASSERT_TRUE(client_->Multi());
  Queue({"SET", k0, "v0"});
  RespReply r;
  ASSERT_TRUE(client_->Roundtrip({"HSET", k1, "0", "x"}, &r));
  ASSERT_EQ(r.type, RespReply::Type::kError);  // dirties the txn
  Queue({"SET", k1, "v1"});

  std::vector<RespReply> replies;
  ASSERT_FALSE(client_->Exec(&replies));
  EXPECT_NE(client_->last_error().find("TXNABORT"), std::string::npos)
      << client_->last_error();
  EXPECT_TRUE(replies.empty());
  // All-or-nothing: the abort applied neither write.
  EXPECT_FALSE(client_->Get(k0).has_value());
  EXPECT_FALSE(client_->Get(k1).has_value());
  std::map<std::string, uint64_t> t;
  ASSERT_TRUE(TxnStats(*client_, &t));
  EXPECT_EQ(t["committed"], 0u);
  EXPECT_EQ(t["decision_records"], 0u);
}

TEST_F(TxnE2E, ReadOnlyCrossShardTxnSealsNoRecords) {
  Start();
  const std::string a = KeyOnShard(0, 4, 12);
  const std::string b = KeyOnShard(1, 4, 13);
  ASSERT_TRUE(client_->Set(a, "va"));
  ASSERT_TRUE(client_->Set(b, "vb"));

  ASSERT_TRUE(client_->Multi());
  Queue({"GET", a});
  Queue({"GET", b});
  std::vector<RespReply> replies;
  ASSERT_TRUE(client_->Exec(&replies)) << client_->last_error();
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_EQ(replies[0].str, "va");
  EXPECT_EQ(replies[1].str, "vb");

  std::map<std::string, uint64_t> t;
  ASSERT_TRUE(TxnStats(*client_, &t));
  EXPECT_EQ(t["prepared"], 0u);
  EXPECT_EQ(t["decision_records"], 0u);
}

TEST_F(TxnE2E, ServerRestartPreservesCommittedCrossShardTxn) {
  const std::string base =
      (std::filesystem::temp_directory_path() /
       ("jnvm_txn_restart_" + std::to_string(::getpid())))
          .string();
  ServerOptions opts = Opts(2);
  opts.shard.image_base = base;
  const std::string k0 = KeyOnShard(0, 2, 14);
  const std::string k1 = KeyOnShard(1, 2, 15);

  std::string err;
  {
    auto server = Server::Start(opts, &err);
    ASSERT_NE(server, nullptr) << err;
    auto c = Client::Connect("127.0.0.1", server->port(), &err);
    ASSERT_NE(c, nullptr) << err;
    ASSERT_TRUE(c->Multi());
    RespReply r;
    ASSERT_TRUE(c->Roundtrip({"SET", k0, "v0"}, &r));
    ASSERT_TRUE(c->Roundtrip({"SET", k1, "v1"}, &r));
    std::vector<RespReply> replies;
    ASSERT_TRUE(c->Exec(&replies)) << c->last_error();
    ASSERT_TRUE(c->Shutdown());
    server->Wait();
  }
  {
    auto server = Server::Start(opts, &err);
    ASSERT_NE(server, nullptr) << err;
    EXPECT_TRUE(server->AnyShardRecovered());
    auto c = Client::Connect("127.0.0.1", server->port(), &err);
    ASSERT_NE(c, nullptr) << err;
    EXPECT_EQ(c->Get(k0).value_or(""), "v0");
    EXPECT_EQ(c->Get(k1).value_or(""), "v1");
    // The recovered fleet accepts new txns.
    ASSERT_TRUE(c->Multi());
    RespReply r;
    ASSERT_TRUE(c->Roundtrip({"SET", k0, "v0b"}, &r));
    ASSERT_TRUE(c->Roundtrip({"SET", k1, "v1b"}, &r));
    std::vector<RespReply> replies;
    ASSERT_TRUE(c->Exec(&replies)) << c->last_error();
    EXPECT_EQ(c->Get(k1).value_or(""), "v1b");
    ASSERT_TRUE(c->Shutdown());
    server->Wait();
  }
  for (int i = 0; i < 2; ++i) {
    std::filesystem::remove(base + ".shard" + std::to_string(i) + ".img");
  }
}

// ---- WAIT-K on the decision record ------------------------------------------

TEST(TxnWaitK, CrossShardExecDegradesToWaitTimeoutWithoutReplicas) {
  ServerOptions opts;
  opts.nshards = 2;
  opts.shard = SmallShard();
  opts.shard.wait_acks = 1;
  opts.shard.wait_timeout_ms = 200;
  std::string err;
  auto server = Server::Start(opts, &err);
  ASSERT_NE(server, nullptr) << err;
  auto c = Client::Connect("127.0.0.1", server->port(), &err);
  ASSERT_NE(c, nullptr) << err;

  const std::string k0 = KeyOnShard(0, 2, 20);
  const std::string k1 = KeyOnShard(1, 2, 21);
  ASSERT_TRUE(c->Multi());
  RespReply r;
  ASSERT_TRUE(c->Roundtrip({"SET", k0, "v0"}, &r));
  ASSERT_TRUE(c->Roundtrip({"SET", k1, "v1"}, &r));
  std::vector<RespReply> replies;
  // No subscriber can ever ack: the EXEC reply degrades to -WAITTIMEOUT,
  // but the decision sealed locally — the txn IS committed.
  ASSERT_FALSE(c->Exec(&replies));
  EXPECT_NE(c->last_error().find("WAITTIMEOUT"), std::string::npos)
      << c->last_error();
  EXPECT_EQ(c->Get(k0).value_or(""), "v0");
  EXPECT_EQ(c->Get(k1).value_or(""), "v1");
}

TEST(TxnWaitK, CrossShardExecSucceedsWithAckingReplica) {
  ServerOptions popts;
  popts.nshards = 2;
  popts.shard = SmallShard();
  popts.shard.wait_acks = 1;
  popts.shard.wait_timeout_ms = 10000;
  std::string err;
  auto primary = Server::Start(popts, &err);
  ASSERT_NE(primary, nullptr) << err;
  ServerOptions ropts;
  ropts.nshards = 2;
  ropts.shard = SmallShard();
  ropts.replica_of = "127.0.0.1:" + std::to_string(primary->port());
  auto replica = Server::Start(ropts, &err);
  ASSERT_NE(replica, nullptr) << err;

  auto c = Client::Connect("127.0.0.1", primary->port(), &err);
  ASSERT_NE(c, nullptr) << err;
  const std::string k0 = KeyOnShard(0, 2, 22);
  const std::string k1 = KeyOnShard(1, 2, 23);
  ASSERT_TRUE(c->Multi());
  RespReply r;
  ASSERT_TRUE(c->Roundtrip({"SET", k0, "v0"}, &r));
  ASSERT_TRUE(c->Roundtrip({"SET", k1, "v1"}, &r));
  std::vector<RespReply> replies;
  ASSERT_TRUE(c->Exec(&replies)) << c->last_error();
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_EQ(c->Get(k0).value_or(""), "v0");
  EXPECT_EQ(c->Get(k1).value_or(""), "v1");
}

// ---- Shard-level 2PC recovery -----------------------------------------------
//
// These drive the txn plane against raw shards, mirroring what the server's
// coordinator hook and recovery do: a prepare without a sealed decision
// aborts on reopen; a prepare whose coordinator sealed the decision commits.

class TxnSink : public CompletionSink {
 public:
  void OnCompletion(Completion&& c) override {
    {
      std::lock_guard<std::mutex> lk(mu_);
      got_.push_back(std::move(c));
    }
    cv_.notify_all();
  }
  bool WaitFor(size_t n, int timeout_ms = 10000) {
    std::unique_lock<std::mutex> lk(mu_);
    return cv_.wait_for(lk, std::chrono::milliseconds(timeout_ms),
                        [&] { return got_.size() >= n; });
  }
  std::vector<Completion> take() {
    std::lock_guard<std::mutex> lk(mu_);
    return std::move(got_);
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Completion> got_;
};

// One-part txn state for driving kTxnPrepare/kTxnDecide by hand.
std::shared_ptr<txn::TxnState> MakeTxn(txn::TxnId id, uint32_t coordinator,
                                       uint32_t shard, const std::string& key,
                                       const std::string& value) {
  auto t = std::make_shared<txn::TxnState>();
  t->id = id;
  t->coordinator = coordinator;
  t->nops = 1;
  t->replies.resize(1);
  txn::TxnPart p;
  p.shard = shard;
  txn::TxnOp op;
  op.kind = txn::TxnOp::Kind::kSet;
  op.key = key;
  op.value = value;
  op.reply_index = 0;
  p.ops.push_back(std::move(op));
  t->parts.push_back(std::move(p));
  return t;
}

class TxnRecovery : public ::testing::Test {
 protected:
  std::string Base(const char* tag) {
    base_ = (std::filesystem::temp_directory_path() /
             (std::string("jnvm_txn_rec_") + tag + "_" +
              std::to_string(::getpid())))
                .string();
    return base_;
  }
  void TearDown() override {
    if (!base_.empty()) {
      for (int i = 0; i < 2; ++i) {
        std::filesystem::remove(base_ + ".shard" + std::to_string(i) + ".img");
      }
    }
  }
  // Reads `key` through the shard's request queue (ordered after everything
  // submitted before it) and returns the raw RESP reply. Drains completions
  // already in the sink first, so a prior phase-join can't satisfy the wait.
  std::string Get(Shard& shard, TxnSink& sink, const std::string& key) {
    sink.take();
    Request g;
    g.op = Request::Op::kGet;
    g.key = key;
    g.conn_id = 1;
    g.seq = 1;
    EXPECT_TRUE(shard.Submit(std::move(g)));
    EXPECT_TRUE(sink.WaitFor(1));
    auto got = sink.take();
    EXPECT_FALSE(got.empty());
    return got.empty() ? std::string() : got.back().reply;
  }

  std::string base_;
};

TEST_F(TxnRecovery, PrepareWithoutDecisionAbortsOnReopen) {
  ShardOptions o = SmallShard();
  o.image_base = Base("abort");
  const txn::TxnId id = 0x7001;
  const std::string key = "txnrec:abort:k";

  // Incarnation 1: the participant seals its prepare; the coordinator dies
  // (here: restarts) before sealing the decision.
  {
    TxnSink s0, s1;
    auto coord = Shard::Open(o, 0, &s0);
    auto part = Shard::Open(o, 1, &s1);
    auto t = MakeTxn(id, /*coordinator=*/0, /*shard=*/1, key, "v");
    Request r;
    r.op = Request::Op::kTxnPrepare;
    r.txn = t;
    r.txn_part = 0;
    ASSERT_TRUE(part->Submit(std::move(r)));
    ASSERT_TRUE(s1.WaitFor(1));  // phase join: the prepare record sealed
    EXPECT_EQ(part->Stats().txn.prepared, 1u);
    // Staged, not applied: the store has no trace of the write.
    EXPECT_EQ(Get(*part, s1, key), "$-1\r\n");
    EXPECT_TRUE(part->Quiesce().integrity_ok);
    EXPECT_TRUE(coord->Quiesce().integrity_ok);
  }

  // Incarnation 2: the log restages the txn; the coordinator's log holds no
  // decision → the resolution plan aborts it, explicitly.
  {
    TxnSink s0, s1;
    auto coord = Shard::Open(o, 0, &s0);
    auto part = Shard::Open(o, 1, &s1);
    const auto undecided = part->TxnView().undecided;
    ASSERT_EQ(undecided.size(), 1u);
    EXPECT_EQ(undecided[0].first, id);
    EXPECT_EQ(undecided[0].second, 0u);
    EXPECT_FALSE(coord->HasTxnDecision(id));

    const auto actions =
        txn::PlanResolution({coord->TxnView(), part->TxnView()});
    ASSERT_EQ(actions.size(), 1u);
    EXPECT_EQ(actions[0].shard, 1u);
    EXPECT_EQ(actions[0].id, id);
    EXPECT_FALSE(actions[0].commit);

    Request a;
    a.op = Request::Op::kTxnAbortMark;
    a.key = txn::TxnIdKey(id);
    ASSERT_TRUE(part->Submit(std::move(a)));
    EXPECT_EQ(Get(*part, s1, key), "$-1\r\n");  // nothing ever applied
    EXPECT_EQ(part->Stats().txn.aborted, 1u);
    EXPECT_EQ(part->Stats().txn.inflight, 0u);
    EXPECT_TRUE(part->Quiesce().integrity_ok);
    EXPECT_TRUE(coord->Quiesce().integrity_ok);
  }

  // Incarnation 3: the sealed abort marker resolved the txn for good.
  {
    TxnSink s1;
    auto part = Shard::Open(o, 1, &s1);
    EXPECT_TRUE(part->TxnView().undecided.empty());
    EXPECT_EQ(Get(*part, s1, key), "$-1\r\n");
    EXPECT_TRUE(part->Quiesce().integrity_ok);
  }
}

TEST_F(TxnRecovery, PrepareWithSealedDecisionCommitsOnReopen) {
  ShardOptions o = SmallShard();
  o.image_base = Base("commit");
  const txn::TxnId id = 0x7002;
  const std::string key = "txnrec:commit:k";

  // Incarnation 1: prepare on the participant, decision sealed on the
  // coordinator — then the fleet dies before the commit marker reaches the
  // participant (the kill-9-after-decision-seal case).
  {
    TxnSink s0, s1;
    auto coord = Shard::Open(o, 0, &s0);
    auto part = Shard::Open(o, 1, &s1);
    auto t = MakeTxn(id, /*coordinator=*/0, /*shard=*/1, key, "v");
    Request r;
    r.op = Request::Op::kTxnPrepare;
    r.txn = t;
    r.txn_part = 0;
    ASSERT_TRUE(part->Submit(std::move(r)));
    ASSERT_TRUE(s1.WaitFor(1));
    s1.take();

    // The worker filled the part's prepare seq and writes frame; the
    // decision carries them, exactly as the server's phase machine builds it.
    txn::Decision d = t->BuildDecision();
    ASSERT_EQ(d.parts.size(), 1u);
    EXPECT_EQ(d.parts[0].shard, 1u);
    std::string payload;
    txn::EncodeDecision(d, &payload);
    Request dec;
    dec.op = Request::Op::kTxnDecide;
    dec.txn = t;
    dec.value = std::move(payload);
    ASSERT_TRUE(coord->Submit(std::move(dec)));
    ASSERT_TRUE(s0.WaitFor(1));  // the decision record sealed
    EXPECT_EQ(coord->Stats().txn.decision_records, 1u);
    EXPECT_TRUE(part->Quiesce().integrity_ok);
    EXPECT_TRUE(coord->Quiesce().integrity_ok);
  }

  // Incarnation 2: the participant restages its prepare; the coordinator's
  // log holds the decision → the resolution plan commits.
  {
    TxnSink s0, s1;
    auto coord = Shard::Open(o, 0, &s0);
    auto part = Shard::Open(o, 1, &s1);
    EXPECT_TRUE(coord->HasTxnDecision(id));
    ASSERT_EQ(part->TxnView().undecided.size(), 1u);
    // Staged writes are still unapplied until the marker seals.
    EXPECT_EQ(Get(*part, s1, key), "$-1\r\n");

    const auto actions =
        txn::PlanResolution({coord->TxnView(), part->TxnView()});
    ASSERT_EQ(actions.size(), 1u);
    EXPECT_EQ(actions[0].shard, 1u);
    EXPECT_TRUE(actions[0].commit);
    EXPECT_FALSE(actions[0].repair);

    Request a;
    a.op = Request::Op::kTxnApply;
    a.key = txn::TxnIdKey(id);
    ASSERT_TRUE(part->Submit(std::move(a)));
    EXPECT_EQ(Get(*part, s1, key), "$1\r\nv\r\n");
    EXPECT_EQ(part->Stats().txn.committed, 1u);
    EXPECT_EQ(part->Stats().txn.inflight, 0u);
    EXPECT_TRUE(part->Quiesce().integrity_ok);
    EXPECT_TRUE(coord->Quiesce().integrity_ok);
  }

  // Incarnation 3: the commit marker resolved the txn; the write survives.
  {
    TxnSink s1;
    auto part = Shard::Open(o, 1, &s1);
    EXPECT_TRUE(part->TxnView().undecided.empty());
    EXPECT_EQ(Get(*part, s1, key), "$1\r\nv\r\n");
    EXPECT_TRUE(part->Quiesce().integrity_ok);
  }
}

}  // namespace
}  // namespace jnvm::server
