// jnvm_loadgen — closed-loop load generator for jnvm_server.
//
//   jnvm_loadgen --port=N [--host=A] [--threads=N] [--keys=N]
//                [--value-size=N] [--read-ratio=F] [--field-updates]
//                [--pipeline=N] [--ops=N] [--seconds=F] [--no-preload]
//                [--seed=N] [--readonly] [--expect-hits]
//                [--allow-waittimeout] [--stats] [--shutdown]
//                [--read-from=primary|replica] [--read-endpoints=H:P,...]
//                [--consistency=none|session] [--shards=N] [--allow-stale]
//                [--ycsb=b|c] [--txn=K] [--cross-shard-pct=P] [--txn-verify]
//                [--allow-disconnect] [--cluster[=H:P,...]]
//                [--cluster-nodes=H:P,...] [--cluster-verify]
//
// ---- Cluster mode (DESIGN.md §10) ------------------------------------------
// --cluster switches every thread to a redirect-following ClusterClient
// seeded from --host/--port (or the given seed list). Writes stay on a
// thread's own slice of the key space (key k belongs to thread k mod
// --threads, so each key has exactly one writer and its acked values are
// totally ordered); reads roam the whole space. -MOVED/-ASK/-TRYAGAIN
// replies are followed inside the client and counted in the summary — the
// loop itself never sees a redirect, which is how a run *sustains* writes
// across a live resharding.
//
// --cluster-verify sweeps every key after the loop: the routed GET must
// return the last value this run acked for the key (a deterministic
// "<k>:<version>:" stamp, so a separate --readonly --ops=0 verify run can
// still type-check values it did not write), and a direct probe of every
// node (--cluster-nodes, defaulting to the owners advertised by CLUSTER
// SLOTS) must find the key served by EXACTLY one node with every other
// node answering an explicit -MOVED/-ASK redirect. A value or a nil from a
// second node is the wrong-node silent success the routing layer forbids.
//
// ---- Transactions (DESIGN.md §9) ------------------------------------------
// --txn=K switches every thread to MULTI/EXEC batches of K SETs. The key
// space is carved into `--keys` disjoint *groups* of K keys each; a txn
// rewrites one whole group with one value, and a group's writers are
// serialized (each group belongs to one thread's slice), so at every moment
// a group's keys must either all be absent or all carry the same value —
// the all-or-nothing oracle. Group g targets a single shard when
// (g % 100) >= P and spans shards otherwise (--cross-shard-pct, default 50);
// key derivation is a pure function of (g, K, shards), so a later
// --txn-verify run (e.g. against a promoted replica after kill -9) can
// recompute every group and assert the oracle with no state handoff.
// -TXNABORT replies count as aborts (nothing applied), not errors.
// --txn-verify with --readonly only verifies; --allow-disconnect makes an
// I/O failure stop the thread quietly (the CI kill-the-primary scenario).
//
// Each thread drives its own connection: preloads its slice of the key
// space with pipelined SETs, then runs a closed loop of GET (read-ratio)
// and SET — or HSET with --field-updates — over uniformly random keys,
// recording per-operation latency into log-bucketed histograms
// (src/common/histogram). --seconds bounds wall-clock time (CI smoke);
// --ops bounds per-thread operation count; whichever trips first wins.
//
// --seed fixes the RNG base (thread t uses seed+t) so a run is
// reproducible; the effective seed is echoed in the summary line.
// --readonly drives replicas: no preload, pure GETs (a follower answers
// writes with -READONLY, which would count as an error). --expect-hits
// additionally fails the run when any GET misses — how the replication e2e
// asserts that every acknowledged key survived promotion.
//
// Against a --wait-acks primary a write may answer -WAITTIMEOUT (locally
// durable, replica quorum missed). Those replies are counted separately and
// reported in the summary; they are fatal unless --allow-waittimeout is
// given, so a synchronous-replication CI pass proves every write was acked.
//
// Exit status is non-zero on any error reply or I/O failure — the CI smoke
// test relies on this.
//
// ---- Replica read routing (DESIGN.md §8) ----------------------------------
// --read-from=replica splits the YCSB traffic: writes (and the preload)
// still go to the primary at --host/--port, reads round-robin across the
// --read-endpoints list (replica host:port pairs). --read-ratio=0.95 is the
// YCSB-B split, 1.0 is YCSB-C (--ycsb=b|c sets them). --shards must match
// the servers' shard count — the client routes keys with the same FNV-1a
// hash to track per-shard sequence numbers.
//
// --consistency=session turns on read-your-writes: after each acked write
// the worker captures the shard's sealed seq with a pipelined LASTSEQ, and
// before reading the key on a replica raises that connection's MINSEQ token
// (per-endpoint per-shard bookkeeping — tokens are connection state, so
// every endpoint tracks its own floor). A replica behind the token parks
// the read until its applied watermark catches up or answers -STALE; -STALE
// replies are counted and fatal unless --allow-stale. With --expect-hits
// the run proves session reads never miss keys written through the primary
// (threads barrier between the preload and the read phase so no thread
// reads a slice another thread has not preloaded yet).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/cluster/cluster_client.h"
#include "src/common/clock.h"
#include "src/common/histogram.h"
#include "src/common/rand.h"
#include "src/server/client.h"
#include "src/server/shard.h"

namespace {

struct Endpoint {
  std::string host;
  uint16_t port = 0;
};

struct Config {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  uint32_t threads = 4;
  uint64_t keys = 10'000;
  uint32_t value_size = 100;
  double read_ratio = 0.5;
  bool field_updates = false;  // writes become HSET key 0 <value>
  uint32_t pipeline = 1;
  uint64_t ops_per_thread = 20'000;
  double seconds = 0.0;  // 0 = unbounded (use --ops)
  bool preload = true;
  bool dump_stats = false;
  bool shutdown_after = false;
  uint64_t seed = 0x10ad;  // thread t seeds its RNG with seed + t
  bool readonly = false;   // pure GETs, no preload (replica driving)
  bool expect_hits = false;  // any GET miss fails the run
  bool allow_waittimeout = false;  // -WAITTIMEOUT replies are not fatal

  // Replica read routing + session consistency.
  bool read_from_replica = false;
  std::vector<Endpoint> read_endpoints;
  bool session = false;      // --consistency=session
  uint32_t shards = 4;       // must match the servers' --shards
  bool allow_stale = false;  // -STALE read replies are not fatal

  // Transactions (--txn mode; see header comment).
  uint32_t txn_ops = 0;          // K ops per MULTI/EXEC batch; 0 = off
  uint32_t cross_shard_pct = 50; // % of groups that span shards
  bool txn_verify = false;       // all-or-nothing sweep over every group
  bool allow_disconnect = false; // I/O failure = quiet stop, not an error

  // Cluster mode (--cluster; see header comment).
  bool cluster = false;
  std::vector<std::string> cluster_seeds;  // defaults to host:port
  std::vector<std::string> cluster_nodes;  // probe list for --cluster-verify
  bool cluster_verify = false;  // exactly-once sweep over every key
};

// Spin barrier between the preload and the traffic: no thread may read a
// slice another thread is still preloading (a miss would fail
// --expect-hits, and would skew any run's hit rate).
struct Barrier {
  std::atomic<uint32_t> arrived{0};
  uint32_t total = 0;
  // `abort` breaks the wait when another thread failed before arriving
  // (otherwise the survivors would spin forever).
  void Wait(const std::atomic<bool>& abort) {
    arrived.fetch_add(1, std::memory_order_acq_rel);
    while (arrived.load(std::memory_order_acquire) < total &&
           !abort.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
};

struct ThreadResult {
  jnvm::Histogram read_lat;
  jnvm::Histogram write_lat;
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t misses = 0;
  uint64_t errors = 0;
  uint64_t wait_timeouts = 0;  // -WAITTIMEOUT write replies
  uint64_t stale_reads = 0;    // -STALE session-read replies
  uint64_t txn_commits = 0;    // EXEC answered with its reply array
  uint64_t txn_aborts = 0;     // EXEC answered -TXNABORT (nothing applied)
  uint64_t txn_groups = 0;     // groups checked by --txn-verify
  uint64_t moved_redirects = 0;    // -MOVED replies followed (cluster mode)
  uint64_t ask_redirects = 0;      // -ASK replies followed
  uint64_t tryagain_retries = 0;   // -TRYAGAIN waits (frozen handoff)
  uint64_t slot_refreshes = 0;     // CLUSTER SLOTS table refreshes
  uint64_t cluster_keys = 0;       // keys passing the exactly-once sweep
  std::string error_msg;
};

bool IsWaitTimeout(const jnvm::server::RespReply& r) {
  return r.type == jnvm::server::RespReply::Type::kError &&
         r.str.rfind("WAITTIMEOUT", 0) == 0;
}

bool IsStale(const jnvm::server::RespReply& r) {
  return r.type == jnvm::server::RespReply::Type::kError &&
         r.str.rfind("STALE", 0) == 0;
}

std::string KeyName(uint64_t i) { return "key:" + std::to_string(i); }

std::string ValueFor(uint64_t key_index, uint64_t version, uint32_t size) {
  std::string v = std::to_string(key_index) + ":" + std::to_string(version) + ":";
  if (v.size() < size) {
    v.append(size - v.size(), 'v');
  } else {
    v.resize(size);
  }
  return v;
}

// The replica-routed YCSB round: writes (with session LASTSEQ piggybacks)
// on the primary connection, reads (with session MINSEQ preludes) on one of
// the replica connections — round-robin per round so every endpoint's
// per-shard token bookkeeping is exercised. Returns false on failure.
bool ReplicaRound(const Config& cfg, jnvm::Xorshift& rng, uint32_t n,
                  jnvm::server::Client* primary,
                  std::vector<std::unique_ptr<jnvm::server::Client>>& replicas,
                  uint32_t ep, std::vector<uint64_t>& last_seq,
                  std::vector<std::vector<uint64_t>>& sent_token,
                  uint64_t version, std::atomic<bool>* failed,
                  ThreadResult* res) {
  jnvm::server::Client* rd = replicas[ep].get();
  std::vector<jnvm::server::RespReply> replies;
  // Plan the round, then pipe writes and reads to their connections.
  uint32_t nw = 0;
  std::vector<uint64_t> write_shards;  // session: LASTSEQ piggyback order
  std::vector<uint8_t> read_kind;     // 0 = MINSEQ prelude, 1 = GET
  uint32_t nreads = 0;
  for (uint32_t i = 0; i < n; ++i) {
    const uint64_t k = rng.NextBelow(cfg.keys);
    const std::string key = KeyName(k);
    const bool read = cfg.readonly || rng.NextDouble() < cfg.read_ratio;
    const uint32_t s = jnvm::server::ShardFor(key, cfg.shards);
    if (read) {
      if (cfg.session && last_seq[s] > sent_token[ep][s]) {
        rd->PipeCommand({"MINSEQ", std::to_string(s),
                         std::to_string(last_seq[s])});
        sent_token[ep][s] = last_seq[s];
        read_kind.push_back(0);
      }
      rd->PipeGet(key);
      read_kind.push_back(1);
      ++nreads;
    } else {
      if (cfg.field_updates) {
        primary->PipeHset(key, 0, ValueFor(k, version, cfg.value_size));
      } else {
        primary->PipeSet(key, ValueFor(k, version, cfg.value_size));
      }
      if (cfg.session) {
        primary->PipeCommand({"LASTSEQ", std::to_string(s)});
        write_shards.push_back(s);
      }
      ++nw;
    }
  }
  // Writes first: the session tokens captured here order the reads after
  // this round's own writes (read-your-writes across connections).
  if (nw > 0) {
    const uint64_t t0 = jnvm::NowNs();
    if (!primary->Sync(&replies)) {
      res->error_msg = "write sync: " + primary->last_error();
      res->errors++;
      failed->store(true);
      return false;
    }
    const uint64_t per_op = (jnvm::NowNs() - t0) / nw;
    for (size_t i = 0; i < replies.size(); ++i) {
      const auto& r = replies[i];
      const bool is_lastseq = cfg.session && (i % 2) == 1;
      if (is_lastseq) {
        if (r.type != jnvm::server::RespReply::Type::kInteger) {
          res->error_msg = "LASTSEQ reply: " + r.str;
          res->errors++;
          failed->store(true);
          return false;
        }
        const uint32_t s = static_cast<uint32_t>(write_shards[i / 2]);
        const uint64_t seq = static_cast<uint64_t>(r.integer);
        if (seq > last_seq[s]) {
          last_seq[s] = seq;
        }
        continue;
      }
      if (IsWaitTimeout(r)) {
        res->wait_timeouts++;
        if (!cfg.allow_waittimeout) {
          res->error_msg = "reply: " + r.str;
          res->errors++;
          failed->store(true);
          return false;
        }
      } else if (r.type == jnvm::server::RespReply::Type::kError) {
        res->error_msg = "reply: " + r.str;
        res->errors++;
        failed->store(true);
        return false;
      }
      res->write_lat.Record(per_op);
      res->writes++;
    }
  }
  if (nreads > 0) {
    const uint64_t t0 = jnvm::NowNs();
    if (!rd->Sync(&replies)) {
      res->error_msg = "read sync: " + rd->last_error();
      res->errors++;
      failed->store(true);
      return false;
    }
    // Read latency includes any replica-side staleness wait (parked reads).
    const uint64_t per_op = (jnvm::NowNs() - t0) / nreads;
    for (size_t i = 0; i < replies.size(); ++i) {
      const auto& r = replies[i];
      if (i < read_kind.size() && read_kind[i] == 0) {
        if (r.type == jnvm::server::RespReply::Type::kError) {
          res->error_msg = "MINSEQ reply: " + r.str;
          res->errors++;
          failed->store(true);
          return false;
        }
        continue;
      }
      if (IsStale(r)) {
        res->stale_reads++;
        if (!cfg.allow_stale) {
          res->error_msg = "reply: " + r.str;
          res->errors++;
          failed->store(true);
          return false;
        }
        continue;
      }
      if (r.type == jnvm::server::RespReply::Type::kError) {
        res->error_msg = "reply: " + r.str;
        res->errors++;
        failed->store(true);
        return false;
      }
      res->read_lat.Record(per_op);
      res->reads++;
      if (r.type == jnvm::server::RespReply::Type::kNil) {
        res->misses++;
      }
    }
  }
  return true;
}

// ---- Transaction mode (--txn) ---------------------------------------------

std::string TxnKeyName(uint64_t g, uint32_t j) {
  return "txn:" + std::to_string(g) + ":" + std::to_string(j);
}

// Pure function of (g, K, shards): a verify run recomputes the exact keys a
// load run wrote without any state handoff.
std::vector<std::string> TxnGroupKeys(const Config& cfg, uint64_t g) {
  std::vector<std::string> keys;
  keys.reserve(cfg.txn_ops);
  if (g % 100 < cfg.cross_shard_pct) {
    // Cross-shard group: consecutive probe keys land on hash-random shards.
    for (uint32_t j = 0; j < cfg.txn_ops; ++j) {
      keys.push_back(TxnKeyName(g, j));
    }
    return keys;
  }
  // Single-shard group: probe until K keys hash to the group's home shard —
  // this txn exercises the one-record kTxnExec fast path.
  const uint32_t target = static_cast<uint32_t>(g % cfg.shards);
  for (uint32_t j = 0; keys.size() < cfg.txn_ops; ++j) {
    std::string key = TxnKeyName(g, j);
    if (jnvm::server::ShardFor(key, cfg.shards) == target) {
      keys.push_back(std::move(key));
    }
  }
  return keys;
}

void TxnWorker(const Config& cfg, uint32_t tid, uint64_t deadline_ns,
               std::atomic<bool>* failed, ThreadResult* res) {
  std::string err;
  auto client = jnvm::server::Client::Connect(cfg.host, cfg.port, &err);
  if (client == nullptr) {
    res->errors++;
    res->error_msg = "connect: " + err;
    failed->store(true);
    return;
  }
  auto io_fail = [&](const std::string& what) {
    if (cfg.allow_disconnect) {
      return;  // the CI kill scenario: the server died under us, by design
    }
    res->errors++;
    res->error_msg = what + ": " + client->last_error();
    failed->store(true);
  };
  const uint64_t ngroups = cfg.keys;
  jnvm::Xorshift rng(cfg.seed + tid);
  std::vector<jnvm::server::RespReply> replies;

  if (!cfg.readonly) {
    // Each thread owns the groups g ≡ tid (mod threads): one group has one
    // writer connection, so its committed values are totally ordered and
    // the group's keys must always agree.
    const uint64_t slice = (ngroups + cfg.threads - 1) / cfg.threads;
    for (uint64_t n = 0; n < cfg.ops_per_thread; ++n) {
      if (deadline_ns != 0 && jnvm::NowNs() >= deadline_ns) {
        break;
      }
      if (failed->load(std::memory_order_relaxed)) {
        return;
      }
      uint64_t g = tid + cfg.threads * rng.NextBelow(slice);
      if (g >= ngroups) {
        g = tid % ngroups;
      }
      const std::vector<std::string> keys = TxnGroupKeys(cfg, g);
      const std::string value = "g" + std::to_string(g) + ":v" +
                                std::to_string(n + 1) + ":t" +
                                std::to_string(tid);
      client->PipeCommand({"MULTI"});
      for (const std::string& k : keys) {
        client->PipeCommand({"SET", k, value});
      }
      client->PipeCommand({"EXEC"});
      const uint64_t t0 = jnvm::NowNs();
      if (!client->Sync(&replies)) {
        io_fail("txn sync");
        return;
      }
      res->write_lat.Record(jnvm::NowNs() - t0);
      const jnvm::server::RespReply& ex = replies.back();
      if (ex.type == jnvm::server::RespReply::Type::kArray) {
        res->txn_commits++;
        res->writes += keys.size();
        for (const auto& r : ex.elements) {
          if (r.type != jnvm::server::RespReply::Type::kSimple) {
            res->errors++;
            res->error_msg = "txn op reply: " + r.str;
            failed->store(true);
            return;
          }
        }
      } else if (ex.type == jnvm::server::RespReply::Type::kError &&
                 ex.str.rfind("TXNABORT", 0) == 0) {
        res->txn_aborts++;  // all-or-nothing refusal: nothing applied
      } else if (IsWaitTimeout(ex)) {
        res->wait_timeouts++;
        if (!cfg.allow_waittimeout) {
          res->errors++;
          res->error_msg = "reply: " + ex.str;
          failed->store(true);
          return;
        }
        res->txn_commits++;  // committed locally, quorum missed
        res->writes += keys.size();
      } else {
        res->errors++;
        res->error_msg = "EXEC reply: " + ex.str;
        failed->store(true);
        return;
      }
    }
  }

  if (!cfg.txn_verify) {
    return;
  }
  // All-or-nothing oracle: every group's K keys must agree — all absent or
  // all carrying one value stamped with this group's id. Any split is a
  // partial txn apply, the one outcome the protocol forbids.
  for (uint64_t g = tid; g < ngroups; g += cfg.threads) {
    const std::vector<std::string> keys = TxnGroupKeys(cfg, g);
    for (const std::string& k : keys) {
      client->PipeGet(k);
    }
    if (!client->Sync(&replies)) {
      io_fail("verify sync");
      return;
    }
    bool any_nil = false;
    bool any_val = false;
    std::string v0;
    for (const auto& r : replies) {
      if (r.type == jnvm::server::RespReply::Type::kNil) {
        any_nil = true;
      } else if (r.type == jnvm::server::RespReply::Type::kBulk) {
        if (any_val && r.str != v0) {
          res->errors++;
          res->error_msg = "ATOMICITY VIOLATION group " + std::to_string(g) +
                           ": '" + v0 + "' vs '" + r.str + "'";
          failed->store(true);
          return;
        }
        v0 = r.str;
        any_val = true;
      } else {
        res->errors++;
        res->error_msg = "verify reply: " + r.str;
        failed->store(true);
        return;
      }
    }
    if (any_nil && any_val) {
      res->errors++;
      res->error_msg = "ATOMICITY VIOLATION group " + std::to_string(g) +
                       ": some keys written, some absent";
      failed->store(true);
      return;
    }
    if (any_val &&
        v0.rfind("g" + std::to_string(g) + ":", 0) != 0) {
      res->errors++;
      res->error_msg = "verify: group " + std::to_string(g) +
                       " carries foreign value '" + v0 + "'";
      failed->store(true);
      return;
    }
    res->txn_groups++;
  }
}

// ---- Cluster mode (--cluster) ---------------------------------------------

// Folds the redirect counters into the thread result on every exit path —
// a failed run still reports how many hops it took to fail.
struct ClusterStatsGuard {
  jnvm::cluster::ClusterClient* cc;
  ThreadResult* res;
  ~ClusterStatsGuard() {
    if (cc == nullptr) {
      return;
    }
    const auto& s = cc->stats();
    res->moved_redirects += s.moved_redirects;
    res->ask_redirects += s.ask_redirects;
    res->tryagain_retries += s.tryagain_retries;
    res->slot_refreshes += s.slot_refreshes;
  }
};

// Direct single-node GET for the exactly-once sweep. Retries -TRYAGAIN (a
// frozen handoff that has not flipped yet) with a bounded wait; every other
// outcome is returned to the caller for judgement.
bool ProbeNode(std::map<std::string, std::unique_ptr<jnvm::server::Client>>&
                   direct,
               const std::string& addr, const std::string& key,
               jnvm::server::RespReply* reply, std::string* err) {
  auto it = direct.find(addr);
  if (it == direct.end()) {
    const size_t colon = addr.rfind(':');
    if (colon == std::string::npos) {
      *err = "bad node address: " + addr;
      return false;
    }
    std::string cerr;
    auto c = jnvm::server::Client::Connect(
        addr.substr(0, colon),
        static_cast<uint16_t>(std::atoi(addr.c_str() + colon + 1)), &cerr);
    if (c == nullptr) {
      *err = "connect " + addr + ": " + cerr;
      return false;
    }
    it = direct.emplace(addr, std::move(c)).first;
  }
  for (uint32_t attempt = 0; attempt < 500; ++attempt) {
    if (!it->second->Roundtrip({"GET", key}, reply)) {
      *err = "probe " + addr + ": " + it->second->last_error();
      direct.erase(it);
      return false;
    }
    if (reply->type == jnvm::server::RespReply::Type::kError &&
        reply->str.rfind("TRYAGAIN", 0) == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;
    }
    return true;
  }
  *err = "probe " + addr + ": slot frozen too long";
  return false;
}

void ClusterWorker(const Config& cfg, uint32_t tid, uint64_t deadline_ns,
                   std::atomic<bool>* failed, ThreadResult* res) {
  jnvm::cluster::ClusterClientOptions copts;
  copts.seeds = cfg.cluster_seeds;
  std::string err;
  auto cc = jnvm::cluster::ClusterClient::Connect(copts, &err);
  if (cc == nullptr) {
    res->errors++;
    res->error_msg = "cluster connect: " + err;
    failed->store(true);
    return;
  }
  ClusterStatsGuard guard{cc.get(), res};
  auto fail = [&](const std::string& what) {
    res->errors++;
    res->error_msg = what;
    failed->store(true);
  };
  // I/O failure mid-run (the CI kill scenario): stop quietly, skip verify —
  // the judgement run happens against the recovered fleet.
  auto op_fail = [&](const std::string& what) {
    if (!cfg.allow_disconnect) {
      fail(what + ": " + cc->last_error());
    }
  };

  // Last value each of this thread's keys was acked with: the loop's own
  // loss oracle for the verify sweep. Single writer per key (k ≡ tid mod
  // threads), so "last acked" is well defined.
  std::map<uint64_t, std::string> acked;
  const uint64_t slice = (cfg.keys + cfg.threads - 1) / cfg.threads;

  if (cfg.preload) {
    for (uint64_t k = tid; k < cfg.keys; k += cfg.threads) {
      const std::string v = ValueFor(k, 0, cfg.value_size);
      if (!cc->Set(KeyName(k), v)) {
        op_fail("preload " + KeyName(k));
        return;
      }
      acked[k] = v;
      res->writes++;
    }
  }

  jnvm::Xorshift rng(cfg.seed + tid);
  uint64_t version = 1;
  for (uint64_t done = 0; done < cfg.ops_per_thread; ++done) {
    if (deadline_ns != 0 && jnvm::NowNs() >= deadline_ns) {
      break;
    }
    if (failed->load(std::memory_order_relaxed)) {
      return;
    }
    const bool read = cfg.readonly || rng.NextDouble() < cfg.read_ratio;
    if (read) {
      const uint64_t k = rng.NextBelow(cfg.keys);
      const uint64_t t0 = jnvm::NowNs();
      const auto v = cc->Get(KeyName(k));
      res->read_lat.Record(jnvm::NowNs() - t0);
      res->reads++;
      if (!v.has_value()) {
        if (!cc->last_error().empty()) {
          op_fail("get " + KeyName(k));
          return;
        }
        res->misses++;
      } else if (v->rfind(std::to_string(k) + ":", 0) != 0) {
        // A value stamped for a different key: the routing layer handed the
        // read to a node that served someone else's slot.
        fail("ROUTING VIOLATION " + KeyName(k) + ": foreign value '" + *v +
             "'");
        return;
      }
    } else {
      uint64_t k = tid + cfg.threads * rng.NextBelow(slice);
      if (k >= cfg.keys) {
        k = tid % cfg.keys;
      }
      const std::string v = ValueFor(k, version++, cfg.value_size);
      const uint64_t t0 = jnvm::NowNs();
      if (!cc->Set(KeyName(k), v)) {
        op_fail("set " + KeyName(k));
        return;
      }
      res->write_lat.Record(jnvm::NowNs() - t0);
      res->writes++;
      acked[k] = v;
    }
  }

  if (!cfg.cluster_verify || failed->load(std::memory_order_relaxed)) {
    return;
  }
  // The exactly-once sweep. Refresh the table first — the whole point is to
  // judge the post-resharding state, not the table the run started with.
  cc->RefreshSlots();
  std::vector<std::string> nodes = cfg.cluster_nodes;
  if (nodes.empty()) {
    for (uint32_t s = 0; s < jnvm::cluster::kNumSlots; ++s) {
      const std::string owner = cc->CachedOwner(static_cast<uint16_t>(s));
      if (!owner.empty() &&
          std::find(nodes.begin(), nodes.end(), owner) == nodes.end()) {
        nodes.push_back(owner);
      }
    }
  }
  std::map<std::string, std::unique_ptr<jnvm::server::Client>> direct;
  for (uint64_t k = tid; k < cfg.keys; k += cfg.threads) {
    const std::string key = KeyName(k);
    const auto routed = cc->Get(key);
    if (!routed.has_value()) {
      fail("LOST KEY " + key + (cc->last_error().empty()
                                    ? " (nil through the router)"
                                    : ": " + cc->last_error()));
      return;
    }
    const auto it = acked.find(k);
    if (it != acked.end() && *routed != it->second) {
      fail("LOST WRITE " + key + ": acked '" + it->second + "' but read '" +
           *routed + "'");
      return;
    }
    if (routed->rfind(std::to_string(k) + ":", 0) != 0) {
      fail("VERIFY " + key + ": foreign value '" + *routed + "'");
      return;
    }
    uint32_t serving = 0;
    for (const std::string& addr : nodes) {
      jnvm::server::RespReply r;
      if (!ProbeNode(direct, addr, key, &r, &err)) {
        fail(err);
        return;
      }
      if (r.type == jnvm::server::RespReply::Type::kBulk) {
        ++serving;
        if (r.str != *routed) {
          fail("DIVERGED KEY " + key + " at " + addr + ": '" + r.str +
               "' vs routed '" + *routed + "'");
          return;
        }
      } else if (r.type == jnvm::server::RespReply::Type::kError &&
                 (r.str.rfind("MOVED ", 0) == 0 ||
                  r.str.rfind("ASK ", 0) == 0)) {
        // Explicit redirect: the one acceptable answer from a non-owner.
      } else if (r.type == jnvm::server::RespReply::Type::kNil) {
        // A nil means the node RAN the read without owning the slot (an
        // owner holding the key answers the value; a non-owner must
        // redirect): the wrong-node silent success the sweep exists for.
        fail("SILENT WRONG-NODE SERVE " + key + " at " + addr +
             ": nil instead of a redirect");
        return;
      } else {
        fail("probe " + key + " at " + addr + ": unexpected reply '" + r.str +
             "'");
        return;
      }
    }
    if (serving != 1) {
      fail("EXACTLY-ONCE VIOLATION " + key + ": served by " +
           std::to_string(serving) + " node(s)");
      return;
    }
    res->cluster_keys++;
  }
}

void Worker(const Config& cfg, uint32_t tid, uint64_t deadline_ns,
            Barrier* barrier, std::atomic<bool>* failed, ThreadResult* res) {
  std::string err;
  auto client = jnvm::server::Client::Connect(cfg.host, cfg.port, &err);
  if (client == nullptr) {
    res->errors++;
    res->error_msg = "connect: " + err;
    failed->store(true);
    return;
  }
  std::vector<std::unique_ptr<jnvm::server::Client>> replicas;
  for (const Endpoint& ep : cfg.read_endpoints) {
    auto rc = jnvm::server::Client::Connect(ep.host, ep.port, &err);
    if (rc == nullptr) {
      res->errors++;
      res->error_msg = "connect replica " + ep.host + ":" +
                       std::to_string(ep.port) + ": " + err;
      failed->store(true);
      return;
    }
    replicas.push_back(std::move(rc));
  }

  // Preload this thread's slice of the key space (pipelined).
  if (cfg.preload) {
    const uint64_t lo = cfg.keys * tid / cfg.threads;
    const uint64_t hi = cfg.keys * (tid + 1) / cfg.threads;
    std::vector<jnvm::server::RespReply> replies;
    for (uint64_t i = lo; i < hi;) {
      const uint64_t stop = std::min<uint64_t>(i + 256, hi);
      for (; i < stop; ++i) {
        client->PipeSet(KeyName(i), ValueFor(i, 0, cfg.value_size));
      }
      if (!client->Sync(&replies)) {
        res->errors++;
        res->error_msg = "preload: " + client->last_error();
        failed->store(true);
        return;
      }
      for (const auto& r : replies) {
        if (r.type == jnvm::server::RespReply::Type::kError) {
          res->errors++;
          res->error_msg = "preload reply: " + r.str;
          failed->store(true);
          return;
        }
      }
    }
  }

  // Every thread must see every preloaded key: hold all threads here until
  // the whole key space is on the primary. With session reads, then seed
  // the per-shard session tokens with the primary's current sealed
  // watermarks so replica reads cover the preload too (not just this
  // thread's own writes).
  std::vector<uint64_t> last_seq(cfg.shards, 0);
  std::vector<std::vector<uint64_t>> sent_token(
      cfg.read_endpoints.size(), std::vector<uint64_t>(cfg.shards, 0));
  if (barrier != nullptr) {
    barrier->Wait(*failed);
    if (failed->load(std::memory_order_acquire)) {
      return;
    }
  }
  if (cfg.read_from_replica && cfg.session) {
    for (uint32_t s = 0; s < cfg.shards; ++s) {
      const auto seq = client->LastSeq(s);
      if (!seq.has_value()) {
        res->errors++;
        res->error_msg = "LASTSEQ seed: " + client->last_error();
        failed->store(true);
        return;
      }
      last_seq[s] = *seq;
    }
  }

  jnvm::Xorshift rng(cfg.seed + tid);
  std::vector<jnvm::server::RespReply> replies;
  std::vector<bool> is_read;
  uint64_t version = 1;
  if (cfg.read_from_replica) {
    uint64_t round = 0;
    for (uint64_t done = 0; done < cfg.ops_per_thread;) {
      if (deadline_ns != 0 && jnvm::NowNs() >= deadline_ns) {
        break;
      }
      if (failed->load(std::memory_order_relaxed)) {
        return;
      }
      const uint32_t n = static_cast<uint32_t>(
          std::min<uint64_t>(cfg.pipeline, cfg.ops_per_thread - done));
      const uint32_t ep =
          static_cast<uint32_t>(round % cfg.read_endpoints.size());
      if (!ReplicaRound(cfg, rng, n, client.get(), replicas, ep, last_seq,
                        sent_token, version, failed, res)) {
        return;
      }
      ++version;
      ++round;
      done += n;
    }
    return;
  }
  for (uint64_t done = 0; done < cfg.ops_per_thread;) {
    if (deadline_ns != 0 && jnvm::NowNs() >= deadline_ns) {
      break;
    }
    if (failed->load(std::memory_order_relaxed)) {
      return;
    }
    // One pipelined round of `pipeline` operations.
    const uint32_t n = static_cast<uint32_t>(
        std::min<uint64_t>(cfg.pipeline, cfg.ops_per_thread - done));
    is_read.clear();
    for (uint32_t i = 0; i < n; ++i) {
      const uint64_t k = rng.NextBelow(cfg.keys);
      const bool read = cfg.readonly || rng.NextDouble() < cfg.read_ratio;
      is_read.push_back(read);
      if (read) {
        client->PipeGet(KeyName(k));
      } else if (cfg.field_updates) {
        client->PipeHset(KeyName(k), 0, ValueFor(k, version, cfg.value_size));
      } else {
        client->PipeSet(KeyName(k), ValueFor(k, version, cfg.value_size));
      }
    }
    ++version;
    const uint64_t t0 = jnvm::NowNs();
    if (!client->Sync(&replies)) {
      res->errors++;
      res->error_msg = "sync: " + client->last_error();
      failed->store(true);
      return;
    }
    const uint64_t per_op = (jnvm::NowNs() - t0) / n;
    for (uint32_t i = 0; i < replies.size(); ++i) {
      const auto& r = replies[i];
      if (IsWaitTimeout(r)) {
        res->wait_timeouts++;
        if (!cfg.allow_waittimeout) {
          res->errors++;
          res->error_msg = "reply: " + r.str;
          failed->store(true);
          return;
        }
        // Degraded but locally durable — record it as a completed write.
        res->write_lat.Record(per_op);
        res->writes++;
        continue;
      }
      if (r.type == jnvm::server::RespReply::Type::kError) {
        res->errors++;
        res->error_msg = "reply: " + r.str;
        failed->store(true);
        return;
      }
      if (is_read[i]) {
        res->read_lat.Record(per_op);
        res->reads++;
        if (r.type == jnvm::server::RespReply::Type::kNil) {
          res->misses++;
        }
      } else {
        res->write_lat.Record(per_op);
        res->writes++;
      }
    }
    done += n;
  }
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    auto val = [&](const char* name) -> const char* {
      const size_t n = std::strlen(name);
      if (std::strncmp(a, name, n) == 0 && a[n] == '=') {
        return a + n + 1;
      }
      return nullptr;
    };
    const char* v;
    if ((v = val("--host")) != nullptr) {
      cfg.host = v;
    } else if ((v = val("--port")) != nullptr) {
      cfg.port = static_cast<uint16_t>(std::atoi(v));
    } else if ((v = val("--threads")) != nullptr) {
      cfg.threads = static_cast<uint32_t>(std::atoi(v));
    } else if ((v = val("--keys")) != nullptr) {
      cfg.keys = static_cast<uint64_t>(std::atoll(v));
    } else if ((v = val("--value-size")) != nullptr) {
      cfg.value_size = static_cast<uint32_t>(std::atoi(v));
    } else if ((v = val("--read-ratio")) != nullptr) {
      cfg.read_ratio = std::atof(v);
    } else if ((v = val("--pipeline")) != nullptr) {
      cfg.pipeline = static_cast<uint32_t>(std::atoi(v));
    } else if ((v = val("--ops")) != nullptr) {
      cfg.ops_per_thread = static_cast<uint64_t>(std::atoll(v));
    } else if ((v = val("--seconds")) != nullptr) {
      cfg.seconds = std::atof(v);
    } else if ((v = val("--seed")) != nullptr) {
      cfg.seed = static_cast<uint64_t>(std::atoll(v));
    } else if ((v = val("--read-from")) != nullptr) {
      if (std::strcmp(v, "replica") == 0) {
        cfg.read_from_replica = true;
      } else if (std::strcmp(v, "primary") != 0) {
        std::fprintf(stderr, "--read-from must be primary|replica\n");
        return 2;
      }
    } else if ((v = val("--read-endpoints")) != nullptr) {
      for (const char* p = v; *p != '\0';) {
        const char* comma = std::strchr(p, ',');
        const std::string tok =
            comma != nullptr ? std::string(p, comma) : std::string(p);
        const size_t colon = tok.rfind(':');
        if (colon == std::string::npos || colon == 0) {
          std::fprintf(stderr, "--read-endpoints: bad host:port '%s'\n",
                       tok.c_str());
          return 2;
        }
        Endpoint ep;
        ep.host = tok.substr(0, colon);
        ep.port = static_cast<uint16_t>(std::atoi(tok.c_str() + colon + 1));
        if (ep.port == 0) {
          std::fprintf(stderr, "--read-endpoints: bad port in '%s'\n",
                       tok.c_str());
          return 2;
        }
        cfg.read_endpoints.push_back(std::move(ep));
        p = comma != nullptr ? comma + 1 : p + tok.size();
      }
    } else if ((v = val("--consistency")) != nullptr) {
      if (std::strcmp(v, "session") == 0) {
        cfg.session = true;
      } else if (std::strcmp(v, "none") != 0) {
        std::fprintf(stderr, "--consistency must be none|session\n");
        return 2;
      }
    } else if ((v = val("--shards")) != nullptr) {
      cfg.shards = static_cast<uint32_t>(std::atoi(v));
    } else if ((v = val("--txn")) != nullptr) {
      cfg.txn_ops = static_cast<uint32_t>(std::atoi(v));
    } else if ((v = val("--cluster")) != nullptr) {
      cfg.cluster = true;
      for (const char* p = v; *p != '\0';) {
        const char* comma = std::strchr(p, ',');
        const std::string tok =
            comma != nullptr ? std::string(p, comma) : std::string(p);
        if (!tok.empty()) {
          cfg.cluster_seeds.push_back(tok);
        }
        p = comma != nullptr ? comma + 1 : p + tok.size();
      }
    } else if ((v = val("--cluster-nodes")) != nullptr) {
      for (const char* p = v; *p != '\0';) {
        const char* comma = std::strchr(p, ',');
        const std::string tok =
            comma != nullptr ? std::string(p, comma) : std::string(p);
        if (!tok.empty()) {
          cfg.cluster_nodes.push_back(tok);
        }
        p = comma != nullptr ? comma + 1 : p + tok.size();
      }
    } else if ((v = val("--cross-shard-pct")) != nullptr) {
      cfg.cross_shard_pct = static_cast<uint32_t>(std::atoi(v));
    } else if ((v = val("--ycsb")) != nullptr) {
      if (std::strcmp(v, "b") == 0) {
        cfg.read_ratio = 0.95;  // YCSB-B
      } else if (std::strcmp(v, "c") == 0) {
        cfg.read_ratio = 1.0;  // YCSB-C (still preloads; reads always hit)
      } else {
        std::fprintf(stderr, "--ycsb must be b|c\n");
        return 2;
      }
    } else if (std::strcmp(a, "--allow-stale") == 0) {
      cfg.allow_stale = true;
    } else if (std::strcmp(a, "--txn-verify") == 0) {
      cfg.txn_verify = true;
    } else if (std::strcmp(a, "--cluster") == 0) {
      cfg.cluster = true;
    } else if (std::strcmp(a, "--cluster-verify") == 0) {
      cfg.cluster_verify = true;
    } else if (std::strcmp(a, "--allow-disconnect") == 0) {
      cfg.allow_disconnect = true;
    } else if (std::strcmp(a, "--readonly") == 0) {
      cfg.readonly = true;
      cfg.preload = false;
    } else if (std::strcmp(a, "--expect-hits") == 0) {
      cfg.expect_hits = true;
    } else if (std::strcmp(a, "--allow-waittimeout") == 0) {
      cfg.allow_waittimeout = true;
    } else if (std::strcmp(a, "--field-updates") == 0) {
      cfg.field_updates = true;
    } else if (std::strcmp(a, "--no-preload") == 0) {
      cfg.preload = false;
    } else if (std::strcmp(a, "--stats") == 0) {
      cfg.dump_stats = true;
    } else if (std::strcmp(a, "--shutdown") == 0) {
      cfg.shutdown_after = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", a);
      return 2;
    }
  }
  // --cluster=H:P,... names its own endpoints; --port is only required when
  // the seed list would otherwise default to host:port.
  const bool needs_port = !cfg.cluster || cfg.cluster_seeds.empty();
  if ((cfg.port == 0 && needs_port) || cfg.threads == 0 || cfg.pipeline == 0 ||
      cfg.keys == 0) {
    std::fprintf(stderr,
                 "usage: jnvm_loadgen --port=N [--threads=N] [--keys=N] "
                 "[--value-size=N] [--read-ratio=F] [--field-updates] "
                 "[--pipeline=N] [--ops=N] [--seconds=F] [--stats] "
                 "[--shutdown] [--read-from=replica --read-endpoints=H:P,...] "
                 "[--consistency=session] [--shards=N] [--allow-stale]\n");
    return 2;
  }
  if (cfg.read_from_replica && cfg.read_endpoints.empty()) {
    std::fprintf(stderr,
                 "jnvm_loadgen: --read-from=replica needs --read-endpoints\n");
    return 2;
  }
  if (cfg.session && !cfg.read_from_replica) {
    std::fprintf(stderr,
                 "jnvm_loadgen: --consistency=session needs "
                 "--read-from=replica (primary reads are trivially fresh)\n");
    return 2;
  }
  if (cfg.shards == 0) {
    std::fprintf(stderr, "jnvm_loadgen: --shards must be > 0\n");
    return 2;
  }
  if (cfg.cross_shard_pct > 100) {
    std::fprintf(stderr, "jnvm_loadgen: --cross-shard-pct must be 0..100\n");
    return 2;
  }
  if (cfg.txn_verify && cfg.txn_ops == 0) {
    std::fprintf(stderr, "jnvm_loadgen: --txn-verify needs --txn=K\n");
    return 2;
  }
  if (cfg.txn_ops > 0 && cfg.read_from_replica) {
    std::fprintf(stderr, "jnvm_loadgen: --txn targets the primary endpoint\n");
    return 2;
  }
  if (cfg.cluster_verify && !cfg.cluster) {
    std::fprintf(stderr, "jnvm_loadgen: --cluster-verify needs --cluster\n");
    return 2;
  }
  if (cfg.cluster &&
      (cfg.read_from_replica || cfg.txn_ops > 0 || cfg.field_updates)) {
    std::fprintf(stderr,
                 "jnvm_loadgen: --cluster is plain SET/GET only (no "
                 "--read-from=replica, --txn or --field-updates)\n");
    return 2;
  }
  if (cfg.cluster && cfg.cluster_seeds.empty()) {
    cfg.cluster_seeds.push_back(cfg.host + ":" + std::to_string(cfg.port));
  }

  const uint64_t deadline_ns =
      cfg.seconds > 0 ? jnvm::NowNs() + static_cast<uint64_t>(cfg.seconds * 1e9)
                      : 0;
  std::vector<ThreadResult> results(cfg.threads);
  std::atomic<bool> failed{false};
  Barrier barrier;
  barrier.total = cfg.threads;
  // Every preloading run fences the preload from the traffic: a thread may
  // read any key, so it must not start before every slice is written.
  Barrier* barrier_ptr = cfg.preload ? &barrier : nullptr;
  const uint64_t t0 = jnvm::NowNs();
  {
    std::vector<std::thread> threads;
    for (uint32_t t = 0; t < cfg.threads; ++t) {
      if (cfg.cluster) {
        threads.emplace_back(ClusterWorker, std::cref(cfg), t, deadline_ns,
                             &failed, &results[t]);
      } else if (cfg.txn_ops > 0) {
        threads.emplace_back(TxnWorker, std::cref(cfg), t, deadline_ns,
                             &failed, &results[t]);
      } else {
        threads.emplace_back(Worker, std::cref(cfg), t, deadline_ns,
                             barrier_ptr, &failed, &results[t]);
      }
    }
    for (auto& th : threads) {
      th.join();
    }
  }
  const double elapsed = static_cast<double>(jnvm::NowNs() - t0) / 1e9;

  jnvm::Histogram reads, writes;
  uint64_t nreads = 0, nwrites = 0, misses = 0, errors = 0, waittimeouts = 0;
  uint64_t stales = 0, txn_commits = 0, txn_aborts = 0, txn_groups = 0;
  uint64_t moved = 0, asks = 0, tryagains = 0, refreshes = 0, cl_keys = 0;
  for (const ThreadResult& r : results) {
    reads.Merge(r.read_lat);
    writes.Merge(r.write_lat);
    nreads += r.reads;
    nwrites += r.writes;
    misses += r.misses;
    errors += r.errors;
    waittimeouts += r.wait_timeouts;
    stales += r.stale_reads;
    txn_commits += r.txn_commits;
    txn_aborts += r.txn_aborts;
    txn_groups += r.txn_groups;
    moved += r.moved_redirects;
    asks += r.ask_redirects;
    tryagains += r.tryagain_retries;
    refreshes += r.slot_refreshes;
    cl_keys += r.cluster_keys;
    if (!r.error_msg.empty()) {
      std::fprintf(stderr, "jnvm_loadgen: %s\n", r.error_msg.c_str());
    }
  }
  const uint64_t total = nreads + nwrites;
  std::printf("jnvm_loadgen: %llu ops in %.2fs = %.0f ops/s "
              "(threads=%u pipeline=%u read_ratio=%.2f value=%uB %s "
              "seed=%llu)\n",
              static_cast<unsigned long long>(total), elapsed,
              elapsed > 0 ? static_cast<double>(total) / elapsed : 0.0,
              cfg.threads, cfg.pipeline, cfg.readonly ? 1.0 : cfg.read_ratio,
              cfg.value_size,
              cfg.readonly        ? "readonly"
              : cfg.field_updates ? "hset"
                                  : "set",
              static_cast<unsigned long long>(cfg.seed));
  std::printf("  reads : %llu (misses=%llu%s) %s\n",
              static_cast<unsigned long long>(nreads),
              static_cast<unsigned long long>(misses),
              cfg.read_from_replica
                  ? (" stale=" + std::to_string(stales) +
                     " endpoints=" + std::to_string(cfg.read_endpoints.size()) +
                     (cfg.session ? " session" : ""))
                        .c_str()
                  : "",
              reads.Summary().c_str());
  std::printf("  writes: %llu (waittimeouts=%llu) %s\n",
              static_cast<unsigned long long>(nwrites),
              static_cast<unsigned long long>(waittimeouts),
              writes.Summary().c_str());
  if (cfg.cluster) {
    std::printf("  cluster: moved=%llu ask=%llu tryagain=%llu refreshes=%llu%s\n",
                static_cast<unsigned long long>(moved),
                static_cast<unsigned long long>(asks),
                static_cast<unsigned long long>(tryagains),
                static_cast<unsigned long long>(refreshes),
                cfg.cluster_verify
                    ? (" verified_keys=" + std::to_string(cl_keys) +
                       (errors == 0 ? " exactly_once=ok" : " EXACTLY-ONCE-FAILED"))
                          .c_str()
                    : "");
  }
  if (cfg.txn_ops > 0) {
    std::printf("  txns  : committed=%llu aborted=%llu ops_per_txn=%u "
                "cross_shard_pct=%u%s\n",
                static_cast<unsigned long long>(txn_commits),
                static_cast<unsigned long long>(txn_aborts), cfg.txn_ops,
                cfg.cross_shard_pct,
                cfg.txn_verify
                    ? (" verified_groups=" + std::to_string(txn_groups) +
                       (errors == 0 ? " atomicity=ok" : " ATOMICITY-FAILED"))
                          .c_str()
                    : "");
  }

  int rc = (failed.load() || errors != 0) ? 1 : 0;
  if (cfg.expect_hits && misses != 0) {
    std::fprintf(stderr,
                 "jnvm_loadgen: %llu miss(es) with --expect-hits\n",
                 static_cast<unsigned long long>(misses));
    rc = 1;
  }
  std::string err;
  auto ctl = jnvm::server::Client::Connect(cfg.host, cfg.port, &err);
  if (ctl != nullptr) {
    if (cfg.dump_stats) {
      if (const auto stats = ctl->Stats()) {
        std::printf("---- server stats ----\n%s", stats->c_str());
      }
    }
    if (cfg.shutdown_after && !ctl->Shutdown()) {
      std::fprintf(stderr, "jnvm_loadgen: shutdown: %s\n",
                   ctl->last_error().c_str());
      rc = 1;
    }
  } else if (cfg.dump_stats || cfg.shutdown_after) {
    std::fprintf(stderr, "jnvm_loadgen: control connection: %s\n", err.c_str());
    rc = 1;
  }
  return rc;
}
