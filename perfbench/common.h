// Shared pieces of the benchmark driver: the workload shapes, the
// `<key>:<version>` value stamp the oracle checks, exact percentiles over raw
// samples, /proc readers and a flat JSON line writer.
#ifndef JNVM_PERFBENCH_COMMON_H_
#define JNVM_PERFBENCH_COMMON_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/rand.h"

namespace perfbench {

// ---- Workloads ---------------------------------------------------------------

// Zipfian(0.99) ranks over the n keys, YCSB's scrambled Zipfian (ranks over
// 10^10 items hashed into n, as ycsb::RunPhase draws them) or uniform.
enum class Dist { kZipfian, kScrambledZipfian, kUniform };

struct Shape {
  std::string name;
  bool server = true;      // false: in-process KvStore, no server
  double read_frac = 0.0;  // GET (server) or ReadTouch (embedded) share
  Dist dist = Dist::kZipfian;
  uint64_t keys = 0;
  uint32_t value_bytes = 0;  // server: SET payload; embedded: one field
  uint32_t fields = 1;       // embedded records have 10 fields
  uint32_t conns = 2;        // server connections (one writer per key)
  uint32_t depth = 16;       // pipeline depth per connection
};

// Returns false for an unknown workload name.
bool ShapeFor(const std::string& name, Shape* out);

// Key g of the workload. Fixed width and unique per g (Mix64 is a bijection);
// the seed moves every key, so each seed writes a different key set.
std::string KeyName(uint64_t seed, uint64_t g);

// The value stamp: "<key>:<version>|" then filler up to `bytes`. The filler
// depends on (key, version) too, so a torn or misplaced payload fails the
// full-value comparison, not only the prefix parse.
std::string StampedValue(const std::string& key, uint64_t version, uint32_t bytes);

// Parses a value written by StampedValue for `key`; false when the key part
// does not match or the value is not exactly what the parsed version's stamp
// would produce.
bool CheckStamp(const std::string& key, std::string_view value, uint32_t bytes,
                uint64_t* version);

// Draws a key index in [0, n) for one connection/thread.
class KeyChooser {
 public:
  KeyChooser(Dist dist, uint64_t n, uint64_t seed)
      : dist_(dist),
        n_(n),
        zipf_(dist == Dist::kScrambledZipfian ? 10'000'000'000ull : n, 0.99, seed),
        rng_(seed ^ 0x5bd1e995) {}
  uint64_t Next() {
    switch (dist_) {
      case Dist::kZipfian:
        return zipf_.Next();
      case Dist::kScrambledZipfian:
        return jnvm::Mix64(zipf_.Next()) % n_;
      case Dist::kUniform:
        break;
    }
    return rng_.NextBelow(n_);
  }

 private:
  Dist dist_;
  uint64_t n_;
  jnvm::ZipfianGenerator zipf_;
  jnvm::Xorshift rng_;
};

// The op stream of one connection (server) or thread (embedded): a seeded
// read/write coin and a key drawn from the connection's own keys (global
// index g with g % conns == conn), so every key has exactly one writer. The
// peel replays regenerate the same stream from the same seed.
class OpStream {
 public:
  OpStream(const Shape& s, uint64_t seed, uint32_t conn)
      : read_frac_(s.read_frac),
        conns_(s.conns),
        conn_(conn),
        rng_(jnvm::Mix64(seed * 7919 + conn)),
        keys_(s.dist, s.keys / s.conns, jnvm::Mix64(seed) + conn) {}
  bool NextIsRead() { return rng_.NextDouble() < read_frac_; }
  uint64_t NextKey() { return keys_.Next() * conns_ + conn_; }
  // Embedded updates pick one of the record's fields.
  uint32_t NextField(uint32_t fields) { return static_cast<uint32_t>(rng_.NextBelow(fields)); }

 private:
  double read_frac_;
  uint32_t conns_;
  uint32_t conn_;
  jnvm::Xorshift rng_;
  KeyChooser keys_;
};

// ---- Measurement helpers --------------------------------------------------------

// q-quantile of raw nanosecond samples (nearest rank), in microseconds.
// Reorders `v`. 0 when empty.
double QuantileUs(std::vector<uint32_t>* v, double q);

// Raw latency samples of one op kind, kept per 1-second slice of the window
// in which they completed. The reported figures are medians over the
// window's whole slices, so one slow second (another tenant of the host, a
// writeback burst) moves a run's result by one slice in ten, not by its
// whole tail.
class Slices {
 public:
  void Add(uint64_t since_window_start_ns, uint32_t ns) {
    const size_t s = since_window_start_ns / 1'000'000'000ull;
    if (s >= by_slice_.size()) {
      by_slice_.resize(s + 1);
    }
    by_slice_[s].push_back(ns);
  }
  void Merge(const Slices& o);
  // Empties every slice; allocated (and touched) capacity is kept.
  void Clear() {
    for (auto& v : by_slice_) {
      v.clear();
    }
  }
  // Allocates and touches room for `per_slice` samples in each of `slices`.
  void Reserve(size_t slices, size_t per_slice) {
    by_slice_.resize(std::max(by_slice_.size(), slices));
    for (auto& v : by_slice_) {
      v.assign(per_slice, 1);
      v.clear();
    }
  }
  uint64_t Count() const;
  // Samples that completed in slice s.
  uint64_t CountIn(size_t s) const { return s < by_slice_.size() ? by_slice_[s].size() : 0; }
  // Median over slices [0, full) of each slice's q-quantile, in µs.
  double MedianQuantileUs(double q, size_t full);

 private:
  std::vector<std::vector<uint32_t>> by_slice_;
};

// Median of `v` (0 when empty).
double Median(std::vector<double> v);

class JsonLine;

// Operations per second over a window of `window_s`: the median of the
// per-slice counts when the window has whole slices, else the plain rate.
double SliceRate(const Slices& reads, const Slices& writes, double window_s);

// ops_per_s and the read/write p50/p99 of a window (slice medians, µs).
void ReportWindow(Slices* reads, Slices* writes, double window_s, JsonLine* out);

// Nanoseconds since an arbitrary epoch (steady clock).
uint64_t NowNs();

// /proc readers. Each returns 0 / empty on failure.
uint64_t RssAnonKb(int pid);                // "RssAnon:" of /proc/<pid>/status
uint64_t ProcCpuTicks(int pid);             // utime+stime of /proc/<pid>/stat
struct ThreadCpu {
  int tid = 0;
  std::string comm;
  uint64_t ticks = 0;  // utime+stime
};
std::vector<ThreadCpu> ThreadCpus(int pid);
double TickSeconds();

// One flat JSON object: {"name": value, ...}. Values are numbers, arrays of
// numbers or strings.
class JsonLine {
 public:
  void Num(const std::string& k, double v);
  void Nums(const std::string& k, const std::vector<double>& v);
  void Int(const std::string& k, uint64_t v);
  void Str(const std::string& k, const std::string& v);
  std::string str() const;

 private:
  std::vector<std::pair<std::string, std::string>> kv_;
};

// "--name=value" flags; any other argument is rejected.
class Flags {
 public:
  Flags(int argc, char** argv);
  std::string Get(const std::string& name, const std::string& def = "") const;
  uint64_t U64(const std::string& name, uint64_t def) const;
  bool Has(const std::string& name) const { return m_.count(name) != 0; }

 private:
  std::map<std::string, std::string> m_;
};

[[noreturn]] void Die(const std::string& msg);

}  // namespace perfbench

#endif  // JNVM_PERFBENCH_COMMON_H_
