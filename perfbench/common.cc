#include "perfbench/common.h"

#include <dirent.h>
#include <unistd.h>

#include <chrono>
#include <fstream>
#include <sstream>

namespace perfbench {

bool ShapeFor(const std::string& name, Shape* out) {
  Shape s;
  s.name = name;
  if (name == "read-mostly") {
    s.read_frac = 0.95;
    s.dist = Dist::kZipfian;
    s.keys = 100'000;
    s.value_bytes = 100;
  } else if (name == "write-heavy") {
    s.read_frac = 0.10;
    s.dist = Dist::kUniform;
    s.keys = 300'000;
    s.value_bytes = 1024;
  } else if (name == "embedded-ycsb-a") {
    s.server = false;
    s.read_frac = 0.50;
    s.dist = Dist::kScrambledZipfian;
    s.keys = 100'000;
    s.value_bytes = 100;
    s.fields = 10;
    s.conns = 1;
    s.depth = 1;
  } else {
    return false;
  }
  *out = s;
  return true;
}

std::string KeyName(uint64_t seed, uint64_t g) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "k%016llx",
                static_cast<unsigned long long>(jnvm::Mix64(g ^ (seed << 40))));
  return buf;
}

std::string StampedValue(const std::string& key, uint64_t version, uint32_t bytes) {
  std::string v = key + ":" + std::to_string(version) + "|";
  const char fill = static_cast<char>('a' + (jnvm::Mix64(version) ^ key.back()) % 26);
  if (v.size() < bytes) {
    v.append(bytes - v.size(), fill);
  }
  v.resize(bytes);
  return v;
}

bool CheckStamp(const std::string& key, std::string_view value, uint32_t bytes,
                uint64_t* version) {
  if (value.size() != bytes || value.size() <= key.size() + 1 ||
      value.compare(0, key.size(), key) != 0 || value[key.size()] != ':') {
    return false;
  }
  uint64_t v = 0;
  size_t i = key.size() + 1;
  for (; i < value.size() && value[i] >= '0' && value[i] <= '9'; ++i) {
    v = v * 10 + static_cast<uint64_t>(value[i] - '0');
  }
  if (i == key.size() + 1 || i >= value.size() || value[i] != '|') {
    return false;
  }
  if (value != StampedValue(key, v, bytes)) {
    return false;
  }
  *version = v;
  return true;
}

double QuantileUs(std::vector<uint32_t>* v, double q) {
  if (v->empty()) {
    return 0.0;
  }
  size_t k = static_cast<size_t>(q * static_cast<double>(v->size()));
  k = std::min(k, v->size() - 1);
  std::nth_element(v->begin(), v->begin() + static_cast<std::ptrdiff_t>(k), v->end());
  return static_cast<double>((*v)[k]) / 1000.0;
}

void Slices::Merge(const Slices& o) {
  if (o.by_slice_.size() > by_slice_.size()) {
    by_slice_.resize(o.by_slice_.size());
  }
  for (size_t s = 0; s < o.by_slice_.size(); ++s) {
    by_slice_[s].insert(by_slice_[s].end(), o.by_slice_[s].begin(), o.by_slice_[s].end());
  }
}

uint64_t Slices::Count() const {
  uint64_t n = 0;
  for (const auto& v : by_slice_) {
    n += v.size();
  }
  return n;
}

double Slices::MedianQuantileUs(double q, size_t full) {
  std::vector<double> per;
  for (size_t s = 0; s < full && s < by_slice_.size(); ++s) {
    if (!by_slice_[s].empty()) {
      per.push_back(QuantileUs(&by_slice_[s], q));
    }
  }
  return Median(per);
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

namespace {

size_t WholeSlices(double window_s) { return static_cast<size_t>(window_s); }

}  // namespace

double SliceRate(const Slices& reads, const Slices& writes, double window_s) {
  const size_t full = WholeSlices(window_s);
  if (full == 0) {
    return static_cast<double>(reads.Count() + writes.Count()) / window_s;
  }
  std::vector<double> per;
  for (size_t s = 0; s < full; ++s) {
    per.push_back(static_cast<double>(reads.CountIn(s) + writes.CountIn(s)));
  }
  return Median(per);
}

void ReportWindow(Slices* reads, Slices* writes, double window_s, JsonLine* out) {
  const size_t full = std::max<size_t>(1, WholeSlices(window_s));
  out->Num("ops_per_s", SliceRate(*reads, *writes, window_s));
  out->Num("read_p50_us", reads->MedianQuantileUs(0.50, full));
  out->Num("read_p99_us", reads->MedianQuantileUs(0.99, full));
  out->Num("write_p50_us", writes->MedianQuantileUs(0.50, full));
  out->Num("write_p99_us", writes->MedianQuantileUs(0.99, full));
}

uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

uint64_t RssAnonKb(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("RssAnon:", 0) == 0) {
      return std::strtoull(line.c_str() + 8, nullptr, 10);
    }
  }
  return 0;
}

namespace {

// utime+stime and comm from a /proc stat line ("pid (comm) S ... utime stime").
bool ParseStat(const std::string& path, std::string* comm, uint64_t* ticks) {
  std::ifstream in(path);
  std::string s;
  std::getline(in, s);
  const size_t open = s.find('(');
  const size_t close = s.rfind(')');
  if (open == std::string::npos || close == std::string::npos) {
    return false;
  }
  *comm = s.substr(open + 1, close - open - 1);
  std::istringstream rest(s.substr(close + 2));
  std::string field;
  uint64_t utime = 0;
  uint64_t stime = 0;
  // Fields after comm start at 3 (state); utime is 14, stime 15.
  for (int idx = 3; idx <= 15 && rest >> field; ++idx) {
    if (idx == 14) {
      utime = std::strtoull(field.c_str(), nullptr, 10);
    } else if (idx == 15) {
      stime = std::strtoull(field.c_str(), nullptr, 10);
    }
  }
  *ticks = utime + stime;
  return true;
}

}  // namespace

uint64_t ProcCpuTicks(int pid) {
  std::string comm;
  uint64_t ticks = 0;
  ParseStat("/proc/" + std::to_string(pid) + "/stat", &comm, &ticks);
  return ticks;
}

std::vector<ThreadCpu> ThreadCpus(int pid) {
  std::vector<ThreadCpu> out;
  const std::string dir = "/proc/" + std::to_string(pid) + "/task";
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) {
    return out;
  }
  while (dirent* e = readdir(d)) {
    if (e->d_name[0] < '0' || e->d_name[0] > '9') {
      continue;
    }
    ThreadCpu t;
    t.tid = std::atoi(e->d_name);
    if (ParseStat(dir + "/" + e->d_name + "/stat", &t.comm, &t.ticks)) {
      out.push_back(t);
    }
  }
  closedir(d);
  return out;
}

double TickSeconds() { return 1.0 / static_cast<double>(sysconf(_SC_CLK_TCK)); }

void JsonLine::Num(const std::string& k, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  kv_.emplace_back(k, buf);
}

void JsonLine::Nums(const std::string& k, const std::vector<double>& v) {
  std::string s = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s%.9g", i == 0 ? "" : ", ", v[i]);
    s += buf;
  }
  kv_.emplace_back(k, s + "]");
}

void JsonLine::Int(const std::string& k, uint64_t v) { kv_.emplace_back(k, std::to_string(v)); }

void JsonLine::Str(const std::string& k, const std::string& v) {
  std::string q = "\"";
  for (const char c : v) {
    if (c == '"' || c == '\\') {
      q += '\\';
    }
    q += (c == '\n' ? ' ' : c);
  }
  q += '"';
  kv_.emplace_back(k, q);
}

std::string JsonLine::str() const {
  std::string s = "{";
  for (size_t i = 0; i < kv_.size(); ++i) {
    s += (i == 0 ? "\"" : ", \"") + kv_[i].first + "\": " + kv_[i].second;
  }
  return s + "}";
}

Flags::Flags(int argc, char** argv) {
  for (int i = 0; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--", 0) != 0) {
      Die("unexpected argument: " + a);
    }
    const size_t eq = a.find('=');
    if (eq == std::string::npos) {
      m_[a.substr(2)] = "1";
    } else {
      m_[a.substr(2, eq - 2)] = a.substr(eq + 1);
    }
  }
}

std::string Flags::Get(const std::string& name, const std::string& def) const {
  const auto it = m_.find(name);
  return it == m_.end() ? def : it->second;
}

uint64_t Flags::U64(const std::string& name, uint64_t def) const {
  const auto it = m_.find(name);
  return it == m_.end() ? def : std::strtoull(it->second.c_str(), nullptr, 10);
}

void Die(const std::string& msg) {
  std::fprintf(stderr, "perfbench_drv: %s\n", msg.c_str());
  std::exit(2);
}

}  // namespace perfbench
