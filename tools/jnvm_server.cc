// jnvm_server — the standalone J-NVM network server (DESIGN.md §7).
//
//   jnvm_server [--port=N] [--host=A] [--shards=N] [--batch=N]
//               [--device-mb=N] [--image-base=PATH]
//               [--queue=N] [--loops=N] [--no-reuseport] [--optane]
//               [--fence-ns=N]
//               [--replica-of=HOST:PORT] [--no-repl-log]
//               [--repl-segment=BYTES] [--repl-retention=SEGS]
//               [--wait-acks=K] [--wait-timeout-ms=N] [--apply-batch=N]
//               [--read-stale-timeout-ms=N] [--read-park-max=N]
//               [--ckpt-interval=MS]
//               [--cluster] [--cluster-self=N] [--cluster-announce=H:P]
//               [--cluster-dax=PATH | --cluster-image=PATH] [--dax-base=PATH]
//
// Each shard keeps its keys in a KvMap on its own simulated NVMM device:
// one persistent object per key, holding the key and the record's fields in
// one block chain (DESIGN.md §7). A shard heap written by an older server
// (the three-objects-per-key layout bound as "server.store") is refused at
// start-up, not read.
// --loops=N runs N epoll event-loop threads, each with its own SO_REUSEPORT
// listener; connections pin to their accepting loop. --no-reuseport instead
// has loop 0 accept every connection and hand the fds off round-robin.
// With --image-base, shard images are saved on SHUTDOWN and recovered on
// the next start — kill the server with SHUTDOWN (or SIGINT/SIGTERM),
// restart it with the same --image-base, and the data is back.
// With --replica-of the server runs every shard as a read-only follower
// pulling the primary's replication stream (DESIGN.md §8); PROMOTE flips
// it into a primary. --shards must match the primary's.
// With --wait-acks=K each write batch's replies are withheld until K
// replication subscribers have acknowledged the sealed log sequence; after
// --wait-timeout-ms the write replies degrade to -WAITTIMEOUT (the data is
// still locally durable). K=0 (the default) is asynchronous replication.
// --apply-batch decouples a replica's apply-side group-commit size from the
// primary's sealed batch size: up to N shipped records (each one sealed
// primary batch) share one local durability point. 0 follows --batch.
// Replicas serve reads under the session contract (MINSEQ/LASTSEQ): a read
// whose session token is ahead of the shard's applied watermark parks for
// up to --read-stale-timeout-ms before failing -STALE; --read-park-max
// bounds the parked set. A replica also serves REPLSYNC/REPLSNAP from its
// own (byte-identical) log, so further replicas can chain off it
// (--replica-of pointing at a replica builds a tree).
// --ckpt-interval=MS runs a fuzzy checkpoint pass (DESIGN.md §11) every MS
// milliseconds: walk + finalize on every shard, then the replication log
// reclaims sealed segments below the durable [ckpt_begin_seq]. 0 (default)
// = checkpoints run only when the CKPT admin verb asks for one.
// With --cluster the node joins the hash-slot plane (DESIGN.md §10):
// single-key commands route through the persisted 16384-slot table
// (-MOVED / -ASK / -TRYAGAIN / -CLUSTERDOWN for slots not plainly owned),
// and the CLUSTER / ASKING / MIG* command families appear. --cluster-self
// is this node's index in the node table; --cluster-announce overrides the
// client-visible host:port (defaults to the bound address). The slot table
// persists in --cluster-dax (mmap'd file, survives kill -9) or
// --cluster-image (saved on clean shutdown); neither = volatile (tests).
// --dax-base does the same for the shard heaps themselves: each shard maps
// "<base>.shard<i>.pmem" MAP_SHARED, so a kill -9'd node recovers its data
// *and* its slot table on restart — the cluster CI scenario.
// Exit status is 0 only when every shard quiesced with a clean integrity
// audit (I1–I7).

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "src/server/server.h"

namespace {

jnvm::server::Server* g_server = nullptr;

void OnSignal(int) {
  if (g_server != nullptr) {
    g_server->RequestShutdown();
  }
}

bool FlagValue(const char* arg, const char* name, const char** out) {
  const size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) == 0 && arg[n] == '=') {
    *out = arg + n + 1;
    return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  jnvm::server::ServerOptions opts;
  for (int i = 1; i < argc; ++i) {
    const char* v = nullptr;
    if (FlagValue(argv[i], "--port", &v)) {
      opts.port = static_cast<uint16_t>(std::atoi(v));
    } else if (FlagValue(argv[i], "--host", &v)) {
      opts.host = v;
    } else if (FlagValue(argv[i], "--shards", &v)) {
      opts.nshards = static_cast<uint32_t>(std::atoi(v));
    } else if (FlagValue(argv[i], "--batch", &v)) {
      opts.shard.batch = static_cast<uint32_t>(std::atoi(v));
    } else if (FlagValue(argv[i], "--device-mb", &v)) {
      opts.shard.device_bytes = static_cast<uint64_t>(std::atoll(v)) << 20;
    } else if (FlagValue(argv[i], "--image-base", &v)) {
      opts.shard.image_base = v;
    } else if (FlagValue(argv[i], "--queue", &v)) {
      opts.shard.queue_capacity = static_cast<uint32_t>(std::atoi(v));
    } else if (FlagValue(argv[i], "--replica-of", &v)) {
      opts.replica_of = v;
    } else if (std::strcmp(argv[i], "--no-repl-log") == 0) {
      opts.shard.repl_log = false;
    } else if (FlagValue(argv[i], "--repl-segment", &v)) {
      opts.shard.repl_segment_bytes = static_cast<uint32_t>(std::atoi(v));
    } else if (FlagValue(argv[i], "--repl-retention", &v)) {
      opts.shard.repl_max_segments = static_cast<uint32_t>(std::atoi(v));
    } else if (FlagValue(argv[i], "--wait-acks", &v)) {
      opts.shard.wait_acks = static_cast<uint32_t>(std::atoi(v));
    } else if (FlagValue(argv[i], "--wait-timeout-ms", &v)) {
      opts.shard.wait_timeout_ms = static_cast<uint32_t>(std::atoi(v));
    } else if (FlagValue(argv[i], "--apply-batch", &v)) {
      opts.shard.apply_batch = static_cast<uint32_t>(std::atoi(v));
    } else if (FlagValue(argv[i], "--read-stale-timeout-ms", &v)) {
      opts.shard.read_stale_timeout_ms = static_cast<uint32_t>(std::atoi(v));
    } else if (FlagValue(argv[i], "--read-park-max", &v)) {
      opts.shard.read_park_max = static_cast<uint32_t>(std::atoi(v));
    } else if (FlagValue(argv[i], "--ckpt-interval", &v)) {
      opts.ckpt_interval_ms = static_cast<uint32_t>(std::atoi(v));
    } else if (std::strcmp(argv[i], "--cluster") == 0) {
      opts.cluster = true;
    } else if (FlagValue(argv[i], "--cluster-self", &v)) {
      opts.cluster_meta.self = static_cast<uint32_t>(std::atoi(v));
    } else if (FlagValue(argv[i], "--cluster-announce", &v)) {
      opts.cluster_meta.announce = v;
    } else if (FlagValue(argv[i], "--cluster-dax", &v)) {
      opts.cluster_meta.dax_path = v;
    } else if (FlagValue(argv[i], "--cluster-image", &v)) {
      opts.cluster_meta.image_path = v;
    } else if (FlagValue(argv[i], "--dax-base", &v)) {
      opts.shard.dax_base = v;
    } else if (FlagValue(argv[i], "--loops", &v)) {
      opts.loops = static_cast<uint32_t>(std::atoi(v));
    } else if (std::strcmp(argv[i], "--no-reuseport") == 0) {
      opts.reuseport = false;
    } else if (std::strcmp(argv[i], "--optane") == 0) {
      opts.shard.optane_latency = true;
    } else if (FlagValue(argv[i], "--fence-ns", &v)) {
      opts.shard.fence_ns = static_cast<uint32_t>(std::atoi(v));
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 2;
    }
  }

  std::string error;
  auto server = jnvm::server::Server::Start(opts, &error);
  if (server == nullptr) {
    std::fprintf(stderr, "jnvm_server: %s\n", error.c_str());
    return 1;
  }
  g_server = server.get();
  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);

  std::printf("jnvm_server: listening on %s:%u (%u shard(s), "
              "batch=%u, loops=%u%s%s)%s\n",
              opts.host.c_str(), server->port(), opts.nshards, opts.shard.batch,
              opts.loops == 0 ? 1 : opts.loops,
              opts.replica_of.empty() ? "" : ", replica of ",
              opts.replica_of.c_str(),
              server->AnyShardRecovered() ? " [recovered]" : "");
  if (opts.cluster) {
    std::printf("jnvm_server: cluster node %u, epoch %llu, %llu slot(s) "
                "owned\n",
                server->cluster_state()->self(),
                static_cast<unsigned long long>(
                    server->cluster_state()->epoch()),
                static_cast<unsigned long long>(
                    server->cluster_state()->slots_owned()));
  }
  std::fflush(stdout);

  server->Wait();
  g_server = nullptr;

  const auto& report = server->shutdown_report();
  std::printf("jnvm_server: shutdown %s\n%s", report.ok ? "clean" : "UNCLEAN",
              report.Summary().c_str());
  return report.ok ? 0 : 1;
}
