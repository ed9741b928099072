// Ablation — multi-core I/O plane (DESIGN.md §7).
//
// One server, a grid of {conns × loops × shards}: every client thread owns
// one connection and drives a pipelined 50/50 SET/GET mix, so the
// bottleneck under test is the event-loop plane itself (epoll readiness,
// parse, submit, completion routing, writev flush) rather than the shards.
// With --loops=N connections spread across N event-loop threads via
// SO_REUSEPORT.
//
// NOTE: loop scaling needs hardware parallelism. On a single-core host all
// loops time-share one CPU and the loops column flattens toward 1x — the
// table is still useful there as a regression check that the multi-loop
// plane costs nothing when cores are absent.
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/bench_env.h"
#include "src/common/clock.h"
#include "src/common/rand.h"
#include "src/server/client.h"
#include "src/server/server.h"
#include "src/server/shard.h"

using namespace jnvm;
using namespace jnvm::server;

namespace {

constexpr uint32_t kPipeline = 32;

ServerOptions BaseOpts(uint32_t shards, uint32_t loops) {
  ServerOptions o;
  o.nshards = shards;
  o.shard.device_bytes = 128ull << 20;
  o.shard.map_capacity = 1 << 14;
  o.shard.batch = 16;
  o.loops = loops;
  return o;
}

// One client thread: `rounds` pipelines of kPipeline mixed SET/GET ops.
void Worker(uint16_t port, uint64_t keys, uint64_t rounds, uint64_t seed,
            uint64_t* ops_out) {
  std::string err;
  auto c = Client::Connect("127.0.0.1", port, &err);
  if (c == nullptr) {
    std::fprintf(stderr, "worker connect: %s\n", err.c_str());
    std::exit(1);
  }
  Xorshift rng(seed);
  std::vector<RespReply> replies;
  uint64_t ops = 0;
  for (uint64_t r = 0; r < rounds; ++r) {
    for (uint32_t i = 0; i < kPipeline; ++i) {
      const std::string k = "k:" + std::to_string(rng.NextBelow(keys));
      if (rng.NextBelow(2) == 0) {
        c->PipeSet(k, "v:" + std::to_string(r));
      } else {
        c->PipeGet(k);
      }
    }
    replies.clear();
    if (!c->Sync(&replies)) {
      std::fprintf(stderr, "worker sync: %s\n", c->last_error().c_str());
      std::exit(1);
    }
    for (const RespReply& rep : replies) {
      if (rep.type == RespReply::Type::kError) {
        std::fprintf(stderr, "worker reply: %s\n", rep.str.c_str());
        std::exit(1);
      }
    }
    ops += kPipeline;
  }
  *ops_out = ops;
}

// Aggregate ops/s of one grid cell.
double RunOnce(uint32_t conns, uint32_t loops, uint32_t shards, uint64_t keys,
               uint64_t rounds) {
  std::string err;
  auto server = Server::Start(BaseOpts(shards, loops), &err);
  if (server == nullptr) {
    std::fprintf(stderr, "server: %s\n", err.c_str());
    std::exit(1);
  }

  std::vector<uint64_t> ops(conns, 0);
  Stopwatch sw;
  {
    std::vector<std::thread> workers;
    for (uint32_t t = 0; t < conns; ++t) {
      workers.emplace_back(Worker, server->port(), keys, rounds,
                           0xab1e + t, &ops[t]);
    }
    for (auto& th : workers) {
      th.join();
    }
  }
  const double secs = sw.ElapsedSec();

  uint64_t total = 0;
  for (uint64_t o : ops) {
    total += o;
  }

  auto c = Client::Connect("127.0.0.1", server->port(), &err);
  if (c != nullptr) {
    c->Shutdown();
  }
  server->Wait();
  return secs > 0 ? static_cast<double>(total) / secs : 0;
}

}  // namespace

int main() {
  std::printf("==============================================================\n");
  std::printf("Ablation — multi-core I/O plane: conns x loops x shards "
              "(§7)\n");
  std::printf("pipeline %u, 50/50 SET/GET; ops/s aggregated over conns\n",
              kPipeline);
  std::printf("JNVM_BENCH_SCALE=%g  hw_threads=%u\n", BenchScale(),
              std::thread::hardware_concurrency());
  std::printf("==============================================================\n");

  const uint64_t keys = Scaled(4'000);
  const uint64_t rounds = Scaled(200);

  double base = 0;  // first row: conns=2 loops=1 shards=1
  std::printf("\n%6s %6s %7s %12s %8s\n", "conns", "loops", "shards",
              "ops/s", "scale");
  for (uint32_t shards : {1u, 4u}) {
    for (uint32_t loops : {1u, 2u, 4u}) {
      for (uint32_t conns : {2u, 8u}) {
        const double ops_per_sec = RunOnce(conns, loops, shards, keys, rounds);
        if (base == 0) {
          base = ops_per_sec;
        }
        std::printf("%6u %6u %7u %11.1fK %7.2fx\n", conns, loops, shards,
                    ops_per_sec / 1e3, base > 0 ? ops_per_sec / base : 0.0);
      }
    }
  }
  std::printf(
      "\n(scale is relative to the first row. The loops dimension should\n"
      "climb with available cores.)\n");
  return 0;
}
