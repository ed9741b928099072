// The embedded workload: the paper's Figure 7 YCSB-A driven in-process over
// store::KvStore on the J-PDT backend, on an Optane-like PmemDevice mapped
// from a file (so heap pages are file-backed, as on the server).
//
//   perfbench_drv embedded --seed=S --seconds=T --dax=FILE --device-mb=M [--warmup=T]
//                          [--restarts=R] [--trace=1] [--setup-only]
//                          [--stale-oracle] [--spans-out=F]
//
// One thread, 50 % ReadTouch / 50 % one-field Update, scrambled Zipfian over
// 100 k records of 10 x 100 B. Every field value carries the
// `<key>.<field>:<version>` stamp. After the window the process drops the
// runtime without a clean close (the state a kill -9 leaves in the mapped
// file) and times the reopen with recovery, R times (default 3). Then it
// reads every record back against the oracle and runs the I1-I7 integrity
// audit. With --setup-only the R timed restarts follow the set-up directly,
// and a ReadTouch of every key checks the last one.
//
// ycsb::RunPhase runs the same mix, but it discards every operation's
// result and records into bucketed histograms for a fixed op count; this
// loop is time-bounded, checks each result and keeps raw samples.
#include <time.h>
#include <unistd.h>

#include <fstream>
#include <memory>

#include "perfbench/common.h"
#include "src/core/integrity.h"
#include "src/core/runtime.h"
#include "src/nvm/pmem_device.h"
#include "src/pdt/register_all.h"
#include "src/store/jpdt_backend.h"
#include "src/store/kvstore.h"

namespace perfbench {

namespace {

using namespace jnvm;

nvm::DeviceOptions OptaneLike(uint64_t bytes) {
  // The same asymmetry as the server's --optane and bench/bench_util.h.
  nvm::DeviceOptions o;
  o.size_bytes = bytes;
  o.read_delay_ns = 80;
  o.write_delay_ns = 60;
  o.pwb_delay_ns = 10;
  o.fence_delay_ns = 150;
  return o;
}

struct Store {
  std::unique_ptr<nvm::PmemDevice> dev;
  std::unique_ptr<core::JnvmRuntime> rt;
  std::unique_ptr<store::JpdtBackend> backend;
  std::unique_ptr<store::KvStore> kv;

  // Maps the file; formats it when `fresh`, else opens it with recovery.
  void Open(const std::string& path, uint64_t device_bytes, uint64_t records, bool fresh) {
    bool existed = false;
    std::string err;
    dev = nvm::PmemDevice::MapFile(path, OptaneLike(device_bytes), &existed, &err);
    if (dev == nullptr) {
      Die("map " + path + ": " + err);
    }
    rt = fresh ? core::JnvmRuntime::Format(dev.get()) : core::JnvmRuntime::Open(dev.get());
    backend = std::make_unique<store::JpdtBackend>(rt.get(), "store", 2 * records);
    store::StoreOptions so;
    so.cache_ratio = 0.0;  // J-NVM backends run uncached (§5.3.1)
    kv = std::make_unique<store::KvStore>(backend.get(), nullptr, so);
  }

  // Drops everything without the clean-shutdown close: the mapped file keeps
  // exactly what a killed process would leave behind.
  void Crash() {
    kv.reset();
    backend.reset();
    rt->Abandon();
    rt.reset();
    dev.reset();
  }
};

std::string FieldKey(const std::string& key, uint32_t f) { return key + "." + std::to_string(f); }

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

// `count` cycles of a dropped runtime and a timed reopen with recovery; the
// seconds each reopen took.
std::vector<double> TimedRestarts(Store* st, const std::string& path, uint64_t device_bytes,
                                  uint64_t records, uint64_t count) {
  std::vector<double> took;
  for (uint64_t i = 0; i < count; ++i) {
    st->Crash();
    const uint64_t r0 = NowNs();
    st->Open(path, device_bytes, records, /*fresh=*/false);
    took.push_back(static_cast<double>(NowNs() - r0) / 1e9);
  }
  return took;
}

}  // namespace

int RunEmbedded(const Flags& f) {
  Shape shape;
  ShapeFor("embedded-ycsb-a", &shape);
  const uint64_t seed = f.U64("seed", 1);
  const double seconds = std::strtod(f.Get("seconds", "10").c_str(), nullptr);
  const bool trace = f.U64("trace", 0) != 0;
  const bool stale = f.Has("stale-oracle");
  const std::string path = f.Get("dax");
  const uint64_t device_bytes = f.U64("device-mb", 0) << 20;
  if (path.empty() || device_bytes == 0) {
    Die("embedded: --dax=FILE and --device-mb=M are required");
  }
  pdt::RegisterStandardClasses();
  store::PRecord::Class();

  // The oracle and the sample buffers are allocated and touched before the
  // RssAnon baseline, so volatile_mb counts only what the store holds.
  const uint64_t n = shape.keys;
  std::vector<std::string> keys;
  keys.reserve(n);
  for (uint64_t g = 0; g < n; ++g) {
    keys.push_back(KeyName(seed, g));
  }
  std::vector<uint32_t> version(n * shape.fields, 0);
  Slices reads;
  Slices writes;
  reads.Reserve(12, 512 << 10);
  writes.Reserve(12, 512 << 10);
  const uint64_t rss0 = RssAnonKb(getpid());

  // Set-up: format the device and load every record at version 0.
  unlink(path.c_str());
  const uint64_t s0 = NowNs();
  Store st;
  st.Open(path, device_bytes, n, /*fresh=*/true);
  uint64_t live_bytes = 0;
  for (uint64_t g = 0; g < n; ++g) {
    store::Record r;
    for (uint32_t fi = 0; fi < shape.fields; ++fi) {
      r.fields.push_back(StampedValue(FieldKey(keys[g], fi), 0, shape.value_bytes));
    }
    live_bytes += keys[g].size() + r.TotalBytes();
    st.kv->Insert(keys[g], r);
  }
  const double setup_s = static_cast<double>(NowNs() - s0) / 1e9;
  JsonLine out;
  out.Num("setup_s", setup_s);
  const uint64_t restarts = f.U64("restarts", 3);
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string first_failure;
  const auto fail = [&](const std::string& why) {
    ++failed;
    if (first_failure.empty()) {
      first_failure = why;
    }
  };
  if (f.Has("setup-only")) {
    out.Nums("restart_samples", TimedRestarts(&st, path, device_bytes, n, restarts));
    for (uint64_t g = 0; g < n; ++g) {
      ++attempted;
      if (!st.kv->ReadTouch(keys[g])) {
        fail("lost " + keys[g] + " across the restart");
      }
    }
    st.Crash();
    unlink(path.c_str());
    out.Int("attempted", attempted);
    out.Int("failed", failed);
    out.Str("first_failure", first_failure);
    std::printf("%s\n", out.str().c_str());
    return 0;
  }

  // The window.
  OpStream stream(shape, seed, 0);
  // Per-layer counters, traced run only: device work inside the store calls.
  uint64_t dev_reads_in_reads = 0;
  uint64_t dev_writes_bytes = 0;
  uint64_t dev_fences = 0;
  uint64_t store_read_ns = 0;
  uint64_t store_update_ns = 0;
  struct Span {
    uint64_t start_ns, call_ns, end_ns;
    bool read;
  };
  std::vector<Span> spans;
  // Process CPU seconds at the start of the window and at each one-second
  // slice boundary after it.
  std::vector<double> cpu_marks;
  // One window of `secs`. A traced window also snapshots the device counters
  // around every store call and keeps spans. Returns its length in seconds.
  const auto window = [&](double secs, bool traced) {
    reads.Clear();
    writes.Clear();
    cpu_marks.assign(1, ProcessCpuSeconds());
    const uint64_t w0 = NowNs();
    const uint64_t deadline = w0 + static_cast<uint64_t>(secs * 1e9);
    uint64_t next_mark = w0 + 1'000'000'000ull;
    uint64_t now = w0;
    while (now < deadline) {
      if (now >= next_mark) {
        cpu_marks.push_back(ProcessCpuSeconds());
        next_mark += 1'000'000'000ull;
      }
      const uint64_t op_start = now;
      const bool read = stream.NextIsRead();
      const uint64_t g = stream.NextKey();
      ++attempted;
      if (read) {
        nvm::DeviceStats d0;
        if (traced) {
          d0 = st.dev->stats();
        }
        const uint64_t t0 = NowNs();
        const bool ok = st.kv->ReadTouch(keys[g]);
        now = NowNs();
        reads.Add(now - w0, static_cast<uint32_t>(now - t0));
        if (traced) {
          dev_reads_in_reads += st.dev->stats().reads - d0.reads;
          store_read_ns += now - t0;
          if (spans.size() < 100'000) {
            spans.push_back(Span{op_start, t0, now, true});
          }
        }
        if (!ok) {
          fail("ReadTouch " + keys[g] + ": missing");
        }
      } else {
        const uint32_t field = stream.NextField(shape.fields);
        uint32_t& ver = version[g * shape.fields + field];
        const uint32_t v = ver + 1;
        const std::string value = StampedValue(FieldKey(keys[g], field), v, shape.value_bytes);
        nvm::DeviceStats d0;
        if (traced) {
          d0 = st.dev->stats();
        }
        const uint64_t t0 = NowNs();
        const bool ok = st.kv->Update(keys[g], field, value);
        now = NowNs();
        writes.Add(now - w0, static_cast<uint32_t>(now - t0));
        if (traced) {
          const nvm::DeviceStats d1 = st.dev->stats();
          dev_writes_bytes += d1.bytes_written - d0.bytes_written;
          dev_fences += (d1.pfences + d1.psyncs) - (d0.pfences + d0.psyncs);
          store_update_ns += now - t0;
          if (spans.size() < 100'000) {
            spans.push_back(Span{op_start, t0, now, false});
          }
        }
        if (!ok) {
          fail("Update " + keys[g] + ": missing");
        } else if (!stale) {
          ver = v;  // a stale oracle (the self-test) forgets its updates
        }
      }
    }
    if (now >= next_mark) {
      cpu_marks.push_back(ProcessCpuSeconds());
    }
    return static_cast<double>(NowNs() - w0) / 1e9;
  };

  // Warm-up: the same stream, checked but not timed, while the proxy cache
  // fills.
  window(std::strtod(f.Get("warmup", "0").c_str(), nullptr), false);
  double measured_s = seconds;
  if (trace) {
    // The traced run splits its time: an untraced half for the overhead
    // baseline, then the traced half.
    measured_s = seconds / 2;
    const double s = window(measured_s, false);
    out.Num("untraced_ops_per_s", SliceRate(reads, writes, s));
  }
  const heap::HeapStats h0 = st.rt->heap().stats();
  const double window_s = window(measured_s, trace);
  const uint64_t rss1 = RssAnonKb(getpid());
  const heap::HeapStats h1 = st.rt->heap().stats();
  const heap::Heap::Usage usage = st.rt->heap().GetUsage();
  const uint32_t block = st.rt->heap().block_size();

  const uint64_t ops = reads.Count() + writes.Count();
  out.Num("window_s", window_s);
  out.Int("ops", ops);
  out.Int("reads", reads.Count());
  out.Int("writes", writes.Count());
  const double rdiv = std::max<double>(1.0, static_cast<double>(reads.Count()));
  const double wdiv = std::max<double>(1.0, static_cast<double>(writes.Count()));
  if (trace) {
    out.Num("store.read_us", static_cast<double>(store_read_ns) / 1e3 / rdiv);
    out.Num("store.update_us", static_cast<double>(store_update_ns) / 1e3 / wdiv);
    out.Num("nvm.reads_per_read", static_cast<double>(dev_reads_in_reads) / rdiv);
    out.Num("nvm.fences_per_write", static_cast<double>(dev_fences) / wdiv);
    out.Num("nvm.bytes_written_per_user_byte",
            static_cast<double>(dev_writes_bytes) / (wdiv * shape.value_bytes));
    out.Num("heap.blocks_per_write",
            static_cast<double>(h1.blocks_allocated - h0.blocks_allocated) / wdiv);
  }
  ReportWindow(&reads, &writes, window_s, &out);
  // CPU per op, like the other window figures, is the median over the
  // window's whole slices (the plain ratio when it has none).
  std::vector<double> cpu_per_op;
  for (size_t s = 0; s + 1 < cpu_marks.size(); ++s) {
    const uint64_t in_slice = reads.CountIn(s) + writes.CountIn(s);
    if (in_slice != 0) {
      cpu_per_op.push_back((cpu_marks[s + 1] - cpu_marks[s]) * 1e6 /
                           static_cast<double>(in_slice));
    }
  }
  if (cpu_per_op.empty()) {
    cpu_per_op.push_back((ProcessCpuSeconds() - cpu_marks[0]) * 1e6 /
                         std::max<double>(1.0, static_cast<double>(ops)));
  }
  out.Num("cpu_us_per_op", Median(cpu_per_op));
  out.Num("volatile_mb", static_cast<double>(rss1 > rss0 ? rss1 - rss0 : 0) / 1024.0);
  out.Num("space_amp", static_cast<double>(usage.in_use_blocks) * block /
                           static_cast<double>(live_bytes));

  // Kill, then timed restarts: map the file again and recover.
  out.Nums("restart_samples", TimedRestarts(&st, path, device_bytes, n, restarts));
  const core::RecoveryReport& rep = st.rt->recovery_report();
  out.Num("core.recovery_s", rep.seconds);
  out.Num("core.traversed_objects_per_key",
          static_cast<double>(rep.traversed_objects) / static_cast<double>(n));

  // Every record, every field, at its last acknowledged version.
  for (uint64_t g = 0; g < n; ++g) {
    ++attempted;
    store::Record r;
    if (!st.kv->Read(keys[g], &r) || r.fields.size() != shape.fields) {
      fail("lost " + keys[g] + " across the restart");
      continue;
    }
    for (uint32_t fi = 0; fi < shape.fields; ++fi) {
      uint64_t v = 0;
      if (!CheckStamp(FieldKey(keys[g], fi), r.fields[fi], shape.value_bytes, &v) ||
          v != version[g * shape.fields + fi]) {
        fail(keys[g] + " field " + std::to_string(fi) + " not at its last acked version");
        break;
      }
    }
  }
  ++attempted;
  const auto audit =
      core::VerifyHeapIntegrity(*st.rt, core::IntegrityOptions{.audit_fa_logs = true});
  if (!audit.ok()) {
    fail("integrity audit: " + audit.Summary());
  }
  st.kv.reset();
  st.backend.reset();
  st.rt.reset();  // clean close
  st.dev.reset();
  unlink(path.c_str());

  if (trace && f.Has("spans-out")) {
    // One op span per request with the store call as its child span.
    std::ofstream s(f.Get("spans-out"));
    uint64_t id = 0;
    for (const Span& sp : spans) {
      const uint64_t op_id = ++id;
      const char* name = sp.read ? "ReadTouch" : "Update";
      s << "{\"id\": " << op_id << ", \"parent\": 0, \"name\": \"op." << name
        << "\", \"start_ns\": " << sp.start_ns << ", \"end_ns\": " << sp.end_ns << "}\n";
      s << "{\"id\": " << ++id << ", \"parent\": " << op_id << ", \"name\": \"store." << name
        << "\", \"start_ns\": " << sp.call_ns << ", \"end_ns\": " << sp.end_ns << "}\n";
    }
  }
  out.Int("attempted", attempted);
  out.Int("failed", failed);
  out.Str("first_failure", first_failure);
  std::printf("%s\n", out.str().c_str());
  return 0;
}

}  // namespace perfbench
