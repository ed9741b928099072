// Peel replays (traced runs only): the workload's own op stream fed straight
// into one layer's entry point, in-process, so a layer's cost can be read
// without the layers above it.
//
//   perfbench_drv peel --workload=W --seed=S --seconds=T --warmup=T --shards=N
//                      --device-mb=M --dax-base=B --scratch-base=B2
//   perfbench_drv open --workload=W --shards=N --device-mb=M --dax-base=B
//
// `peel` opens N shards on B.shard<i>.pmem (the server's dax layout and
// flags), preloads the workload's keys, and replays the op stream through
// Shard::TrySubmit with a collecting CompletionSink, keeping as many
// requests in flight as the server workload's pipeline does. It then replays
// the stream again on shards without the replication log, replays reads and
// writes straight into the shard's KvStore, and drives one kCkpt walk.
// Finally it exits without quiescing, so B holds what a kill -9 leaves.
// `open` then times Shard::Open on those files, reads each shard's recovery
// report and quiesces them (the I1-I7 audit).
#include <unistd.h>

#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>

#include "perfbench/common.h"
#include "src/ckpt/ckpt_runner.h"
#include "src/server/shard.h"

namespace perfbench {

namespace {

using namespace jnvm;
using server::Request;
using server::Shard;

class Collector final : public server::CompletionSink {
 public:
  void OnCompletion(server::Completion&& c) override {
    const uint64_t now = NowNs();
    {
      std::lock_guard<std::mutex> lk(mu_);
      done_.push_back(Done{c.seq, now, std::move(c.reply)});
    }
    cv_.notify_one();
  }

  struct Done {
    uint64_t seq;
    uint64_t t_ns;
    std::string reply;
  };
  // Blocks for at least one completion; appends every ready one to *out.
  void Take(std::vector<Done>* out) {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [&] { return !done_.empty(); });
    for (auto& d : done_) {
      out->push_back(std::move(d));
    }
    done_.clear();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Done> done_;
};

// The server's shard flags: --optane, --batch=16, the replication log.
server::ShardOptions OptionsFor(uint64_t device_mb, const std::string& dax_base, bool repl) {
  server::ShardOptions o;
  o.device_bytes = device_mb << 20;
  o.optane_latency = true;
  o.batch = 16;
  o.repl_log = repl;
  o.dax_base = dax_base;
  return o;
}

struct Fleet {
  Collector sink;
  std::vector<std::unique_ptr<Shard>> shards;

  Fleet(uint64_t device_mb, const std::string& dax_base, bool repl, uint32_t n) {
    for (uint32_t i = 0; i < n; ++i) {
      shards.push_back(Shard::Open(OptionsFor(device_mb, dax_base, repl), i, &sink));
      if (shards.back() == nullptr) {
        Die("peel: Shard::Open failed");
      }
    }
  }
  Shard& For(const std::string& key) {
    return *shards[server::ShardFor(key, static_cast<uint32_t>(shards.size()))];
  }
  nvm::DeviceStats Device() const {
    nvm::DeviceStats t;
    for (const auto& sh : shards) {
      const nvm::DeviceStats d = sh->Stats().device;
      t.reads += d.reads;
      t.bytes_read += d.bytes_read;
      t.bytes_written += d.bytes_written;
    }
    return t;
  }
};

struct Replay {
  std::vector<uint32_t> read_ns;
  std::vector<uint32_t> write_ns;
  uint64_t failed = 0;
};

// Client-side request kinds per workload: the server's GET/SET, or the
// embedded store's proxy touch and one-field update.
Request MakeRequest(const Shape& s, uint64_t seed, bool read, uint64_t g, uint32_t field,
                    uint64_t version) {
  Request r;
  r.key = KeyName(seed, g);
  if (s.server) {
    r.op = read ? Request::Op::kGet : Request::Op::kSet;
    if (!read) {
      r.value = StampedValue(r.key, version, s.value_bytes);
    }
  } else {
    r.op = read ? Request::Op::kTouch : Request::Op::kHset;
    r.field = field;
    if (!read) {
      r.value = StampedValue(r.key + "." + std::to_string(field), version, s.value_bytes);
    }
  }
  r.conn_id = 1;
  return r;
}

bool ReplyOk(const Shape& s, bool read, const std::string& reply) {
  if (s.server) {
    return read ? reply.rfind("$", 0) == 0 && reply.rfind("$-1", 0) != 0 : reply == "+OK\r\n";
  }
  return reply == ":1\r\n";
}

// Feeds the op stream drawn from `stream_seed` over the keys of `seed` for
// `seconds` or `max_ops`, keeping the workload's pipeline depth in flight;
// per-request submit-to-completion latency.
enum class Ops { kAll, kReadsOnly };
Replay Run(Fleet& fl, const Shape& s, uint64_t seed, uint64_t stream_seed, double seconds,
           uint64_t max_ops, Ops ops) {
  Replay out;
  std::vector<OpStream> streams;
  for (uint32_t c = 0; c < s.conns; ++c) {
    streams.emplace_back(s, stream_seed, c);
  }
  const uint32_t window = s.conns * s.depth;
  struct Pending {
    uint64_t t_send = 0;
    bool read = false;
  };
  std::vector<Pending> pending;
  std::vector<Collector::Done> done;
  uint64_t seq = 0;
  uint64_t inflight = 0;
  uint32_t next_conn = 0;
  const uint64_t deadline = NowNs() + static_cast<uint64_t>(seconds * 1e9);
  for (;;) {
    while (inflight < window && NowNs() < deadline && seq < max_ops) {
      OpStream& st = streams[next_conn];
      next_conn = (next_conn + 1) % s.conns;
      const bool read = st.NextIsRead();
      const uint64_t g = st.NextKey();
      const uint32_t field = s.server ? 0 : st.NextField(s.fields);
      if (ops == Ops::kReadsOnly && !read) {
        continue;
      }
      // Versions above the preload's 1; replies are checked, values are not.
      Request r = MakeRequest(s, seed, read, g, field, seq + 2);
      r.seq = seq++;
      pending.push_back(Pending{NowNs(), read});
      if (fl.For(r.key).TrySubmit(std::move(r)) != Shard::SubmitResult::kOk) {
        Die("peel: shard refused a request");
      }
      ++inflight;
    }
    if (inflight == 0) {
      break;
    }
    done.clear();
    fl.sink.Take(&done);
    for (const auto& d : done) {
      --inflight;
      const Pending& p = pending[d.seq];
      (p.read ? out.read_ns : out.write_ns).push_back(static_cast<uint32_t>(d.t_ns - p.t_send));
      if (!ReplyOk(s, p.read, d.reply)) {
        ++out.failed;
      }
    }
  }
  return out;
}

void Preload(Fleet& fl, const Shape& s, uint64_t seed) {
  if (!s.server) {
    // Embedded records have every field; shards only SET one-field values,
    // so they are inserted straight into each shard's store before any
    // request flows.
    for (uint64_t g = 0; g < s.keys; ++g) {
      const std::string key = KeyName(seed, g);
      store::Record r;
      for (uint32_t f = 0; f < s.fields; ++f) {
        r.fields.push_back(StampedValue(key + "." + std::to_string(f), 0, s.value_bytes));
      }
      fl.For(key).kv().Insert(key, r);
    }
    return;
  }
  std::vector<Collector::Done> done;
  uint64_t inflight = 0;
  for (uint64_t g = 0; g < s.keys || inflight > 0;) {
    while (g < s.keys && inflight < 64) {
      Request r = MakeRequest(s, seed, false, g, 0, 1);
      r.seq = g++;
      if (fl.For(r.key).TrySubmit(std::move(r)) != Shard::SubmitResult::kOk) {
        Die("peel: shard refused a preload request");
      }
      ++inflight;
    }
    done.clear();
    fl.sink.Take(&done);
    inflight -= done.size();
  }
}

double MedianUs(std::vector<uint32_t>* v) { return QuantileUs(v, 0.5); }

}  // namespace

int RunPeel(const Flags& f) {
  Shape s;
  if (!ShapeFor(f.Get("workload"), &s)) {
    Die("peel: unknown workload '" + f.Get("workload") + "'");
  }
  const uint64_t seed = f.U64("seed", 1);
  const double seconds = std::strtod(f.Get("seconds", "5").c_str(), nullptr);
  // Each replay runs the stream unmeasured first: right after a preload the
  // first seconds are much slower, as on the server.
  const double warmup_s = std::strtod(f.Get("warmup", "0").c_str(), nullptr);
  const uint32_t nshards = static_cast<uint32_t>(f.U64("shards", 2));
  const std::string base = f.Get("dax-base");
  const std::string scratch = f.Get("scratch-base");
  const uint64_t device_mb = f.U64("device-mb", 0);
  if (base.empty() || scratch.empty() || device_mb == 0) {
    Die("peel: --dax-base, --scratch-base and --device-mb are required");
  }
  JsonLine out;
  uint64_t failed = 0;

  // Replication log off: the same stream on shards without ReplLog appends.
  double write_off_us = 0.0;
  {
    Fleet off(device_mb, scratch, /*repl=*/false, nshards);
    Preload(off, s, seed);
    failed += Run(off, s, seed, seed, warmup_s, UINT64_MAX, Ops::kAll).failed;
    Replay r = Run(off, s, seed, seed, seconds, UINT64_MAX, Ops::kAll);
    write_off_us = MedianUs(&r.write_ns);
    failed += r.failed;
  }
  for (uint32_t i = 0; i < nshards; ++i) {
    unlink((scratch + ".shard" + std::to_string(i) + ".pmem").c_str());
  }

  // The server's configuration, on the dax files `open` will recover.
  auto fl = std::make_unique<Fleet>(device_mb, base, /*repl=*/true, nshards);
  Preload(*fl, s, seed);
  failed += Run(*fl, s, seed, seed, warmup_s, UINT64_MAX, Ops::kAll).failed;
  const nvm::DeviceStats d0 = fl->Device();
  Replay mixed = Run(*fl, s, seed, seed, seconds, UINT64_MAX, Ops::kAll);
  const nvm::DeviceStats d1 = fl->Device();
  failed += mixed.failed;
  const double wdiv = std::max<double>(1.0, static_cast<double>(mixed.write_ns.size()));
  const double write_us = MedianUs(&mixed.write_ns);
  out.Num("shard.direct_read_us", MedianUs(&mixed.read_ns));
  out.Num("shard.direct_write_us", write_us);
  out.Num("repl.append_us_per_write", write_us - write_off_us);
  out.Num("nvm.bytes_written_per_user_byte",
          static_cast<double>(d1.bytes_written - d0.bytes_written) / (wdiv * s.value_bytes));

  // Device reads per read, from the stream's reads alone.
  const nvm::DeviceStats r0 = fl->Device();
  Replay reads = Run(*fl, s, seed, seed + 1, seconds, 20'000, Ops::kReadsOnly);
  const nvm::DeviceStats r1 = fl->Device();
  failed += reads.failed;
  out.Num("nvm.reads_per_read", static_cast<double>(r1.reads - r0.reads) /
                                    std::max<double>(1.0, static_cast<double>(reads.read_ns.size())));

  // Store layer: the stream's keys straight into shard 0's KvStore while its
  // worker is idle — GET's materialising Read and SET's whole-record Put.
  {
    Shard& sh = *fl->shards[0];
    OpStream st(s, seed + 2, 0);
    std::vector<uint32_t> rd;
    std::vector<uint32_t> wr;
    uint64_t version = 1u << 30;
    while (rd.size() + wr.size() < 20'000) {
      const bool read = st.NextIsRead();
      const std::string key = KeyName(seed, st.NextKey());
      if (server::ShardFor(key, nshards) != 0) {
        continue;
      }
      store::Record rec;
      const uint64_t t0 = NowNs();
      if (read) {
        if (!sh.kv().Read(key, &rec)) {
          ++failed;
        }
        rd.push_back(static_cast<uint32_t>(NowNs() - t0));
      } else {
        rec.fields.push_back(StampedValue(key, ++version, s.value_bytes));
        const uint64_t t1 = NowNs();
        sh.kv().Put(key, rec);
        wr.push_back(static_cast<uint32_t>(NowNs() - t1));
      }
    }
    out.Num("store.read_us", MedianUs(&rd));
    out.Num("store.update_us", MedianUs(&wr));
  }

  // One checkpoint walk + finalize over the loaded heap.
  {
    uint64_t keys0 = 0;
    for (auto& sh : fl->shards) {
      keys0 += sh->Stats().ckpt.walked_keys;
    }
    const nvm::DeviceStats c0 = fl->Device();
    std::vector<Shard*> raw;
    for (auto& sh : fl->shards) {
      raw.push_back(sh.get());
    }
    ckpt::CheckpointRunner runner(raw, &fl->sink);
    if (!runner.Trigger(0, 0)) {
      Die("peel: checkpoint refused");
    }
    runner.Join();
    const nvm::DeviceStats c1 = fl->Device();
    uint64_t walked = 0;
    for (auto& sh : fl->shards) {
      walked += sh->Stats().ckpt.walked_keys;
    }
    const double live = static_cast<double>(s.keys) *
                        static_cast<double>(KeyName(seed, 0).size() + s.value_bytes * s.fields);
    out.Num("ckpt.bytes_read_per_live_byte", static_cast<double>(c1.bytes_read - c0.bytes_read) / live);
    out.Int("ckpt.walked_keys", walked - keys0);
  }
  out.Int("failed", failed);
  std::printf("%s\n", out.str().c_str());
  std::fflush(stdout);
  // No Quiesce: the dax files keep what a killed server leaves.
  _exit(0);
}

int RunOpen(const Flags& f) {
  Shape s;
  if (!ShapeFor(f.Get("workload"), &s)) {
    Die("open: unknown workload '" + f.Get("workload") + "'");
  }
  const uint32_t nshards = static_cast<uint32_t>(f.U64("shards", 2));
  const std::string base = f.Get("dax-base");
  const uint64_t device_mb = f.U64("device-mb", 0);
  Collector sink;
  std::vector<std::unique_ptr<Shard>> shards;
  double open_s = 0.0;
  double recovery_s = 0.0;
  uint64_t traversed = 0;
  for (uint32_t i = 0; i < nshards; ++i) {
    const uint64_t t0 = NowNs();
    shards.push_back(Shard::Open(OptionsFor(device_mb, base, true), i, &sink));
    open_s += static_cast<double>(NowNs() - t0) / 1e9;
    if (shards.back() == nullptr || !shards.back()->recovered()) {
      Die("open: shard " + std::to_string(i) + " did not recover");
    }
    recovery_s += shards.back()->recovery_report().seconds;
    traversed += shards.back()->recovery_report().traversed_objects;
  }
  uint64_t failed = 0;
  for (auto& sh : shards) {
    if (!sh->Quiesce().integrity_ok) {
      ++failed;
    }
  }
  JsonLine out;
  out.Num("shard.open_s", open_s);
  out.Num("core.recovery_s", recovery_s);
  out.Num("core.traversed_objects_per_key", static_cast<double>(traversed) / static_cast<double>(s.keys));
  out.Int("failed", failed);
  std::printf("%s\n", out.str().c_str());
  return 0;
}

}  // namespace perfbench
