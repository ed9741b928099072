// Tests for the crash-consistency model checker (src/crashcheck): bounded
// sweeps over every workload kind, determinism of the crash images, repro
// fidelity of reported violations, and the planted-bug meta-check.
#include <gtest/gtest.h>

#include <cstring>

#include "src/crashcheck/checker.h"

namespace jnvm {
namespace {

constexpr uint64_t kScriptSeed = 42;
constexpr size_t kOps = 40;

crashcheck::CheckerOptions BoundedOptions() {
  crashcheck::CheckerOptions o;
  o.max_points = 80;  // bounded for CI; the jnvm_crashmc tool sweeps stride 1
  o.eviction_seeds = {1, 7, 1337};
  return o;
}

// ---- Bounded sweep per workload kind ----------------------------------------

class SweepTest : public ::testing::TestWithParam<std::string> {};

TEST_P(SweepTest, BoundedSweepFindsNoViolations) {
  crashcheck::CrashChecker checker(
      crashcheck::MakeWorkload(GetParam(), kScriptSeed, kOps), BoundedOptions());
  const auto res = checker.Sweep();
  EXPECT_TRUE(res.ok()) << res.Summary();
  EXPECT_GE(res.points_explored, 60u);
  EXPECT_EQ(res.runs, res.points_explored * 3);
  EXPECT_GT(res.setup_events, 0u);
  EXPECT_GT(res.total_events, res.setup_events);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, SweepTest,
                         ::testing::ValuesIn(crashcheck::WorkloadKinds()),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (char& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

// ---- Recording determinism ---------------------------------------------------

TEST(CrashCheckDeterminism, RecordingsAreReproducible) {
  crashcheck::CrashChecker a(
      crashcheck::MakeWorkload("map-hash", kScriptSeed, kOps), BoundedOptions());
  crashcheck::CrashChecker b(
      crashcheck::MakeWorkload("map-hash", kScriptSeed, kOps), BoundedOptions());
  const auto& ra = a.recording();
  const auto& rb = b.recording();
  EXPECT_EQ(ra.setup_events, rb.setup_events);
  EXPECT_EQ(ra.op_end, rb.op_end);
  EXPECT_EQ(ra.trace_hash, rb.trace_hash);
}

// The workloads that drive the shipped server::Shard: two checkers record
// the same persistence-event trace, byte for byte.
TEST(CrashCheckDeterminism, ShippedShardRecordingsAreReproducible) {
  for (const char* kind :
       {"server", "repl", "ckpt", "repl-apply", "wait", "read-your-writes"}) {
    crashcheck::CrashChecker a(crashcheck::MakeWorkload(kind, kScriptSeed, kOps),
                               BoundedOptions());
    crashcheck::CrashChecker b(crashcheck::MakeWorkload(kind, kScriptSeed, kOps),
                               BoundedOptions());
    EXPECT_EQ(a.recording().op_end, b.recording().op_end) << kind;
    EXPECT_EQ(a.recording().trace_hash, b.recording().trace_hash) << kind;
  }
}

// Runs the workload on a fresh strict device, crashes at `crash_event`,
// applies Crash(eviction_seed), and returns the post-crash device.
std::unique_ptr<nvm::PmemDevice> ReplayAndCrash(const std::string& kind,
                                                uint64_t crash_event,
                                                uint64_t setup_events,
                                                uint64_t eviction_seed) {
  auto w = crashcheck::MakeWorkload(kind, kScriptSeed, kOps);
  nvm::DeviceOptions o;
  o.size_bytes = 8 << 20;
  o.strict = true;
  auto dev = std::make_unique<nvm::PmemDevice>(o);
  core::RuntimeOptions ro;
  ro.heap.log_slot_count = 4;
  auto rt = core::JnvmRuntime::Format(dev.get(), ro);
  w->Setup(*rt);
  EXPECT_EQ(dev->PersistenceEventCount(), setup_events);
  dev->ScheduleCrashAfter(crash_event - setup_events - 1);
  bool crashed = false;
  try {
    for (size_t i = 0; i < w->op_count(); ++i) {
      w->RunOp(*rt, i);
    }
  } catch (const nvm::SimulatedCrash&) {
    crashed = true;
  }
  EXPECT_TRUE(crashed);
  rt->Abandon();
  dev->Crash(eviction_seed);
  return dev;
}

TEST(CrashCheckDeterminism, SameSeedYieldsByteIdenticalImages) {
  crashcheck::CrashChecker checker(
      crashcheck::MakeWorkload("map-hash", kScriptSeed, kOps), BoundedOptions());
  const auto& rec = checker.recording();
  // A crash point in the middle of the op range, mid-operation.
  const uint64_t e = (rec.setup_events + rec.op_end.back()) / 2;
  auto d1 = ReplayAndCrash("map-hash", e, rec.setup_events, 7);
  auto d2 = ReplayAndCrash("map-hash", e, rec.setup_events, 7);
  ASSERT_EQ(d1->size(), d2->size());
  EXPECT_EQ(d1->TraceHash(), d2->TraceHash());
  EXPECT_EQ(std::memcmp(d1->raw(), d2->raw(), d1->size()), 0);
}

TEST(CrashCheckDeterminism, DifferentSeedsExploreDifferentImages) {
  crashcheck::CrashChecker checker(
      crashcheck::MakeWorkload("map-hash", kScriptSeed, kOps), BoundedOptions());
  const auto& rec = checker.recording();
  // Scan a few crash points; with different eviction seeds at least one must
  // resolve some dirty line differently (identical replays, so any image
  // difference comes from the seed alone).
  bool found_difference = false;
  for (int k = 1; k <= 8 && !found_difference; ++k) {
    const uint64_t e =
        rec.setup_events + k * (rec.op_end.back() - rec.setup_events) / 9;
    auto d1 = ReplayAndCrash("map-hash", e, rec.setup_events, 1);
    auto d2 = ReplayAndCrash("map-hash", e, rec.setup_events, 2);
    EXPECT_EQ(d1->TraceHash(), d2->TraceHash());  // identical traces...
    found_difference =                            // ...different failures
        std::memcmp(d1->raw(), d2->raw(), d1->size()) != 0;
  }
  EXPECT_TRUE(found_difference);
}

// ---- Repro fidelity ----------------------------------------------------------

TEST(CrashCheckRepro, CheckPointReproducesSweepViolations) {
  crashcheck::CheckerOptions opts = BoundedOptions();
  opts.max_points = 40;
  crashcheck::CrashChecker sweeper(
      crashcheck::MakeFaultyWorkload(kScriptSeed, 12), opts);
  const auto res = sweeper.Sweep();
  ASSERT_FALSE(res.ok());
  ASSERT_FALSE(res.violations.empty());
  const auto& v = res.violations.front();
  // A fresh checker instance must reproduce the same violation from the
  // (crash_event, eviction_seed) pair alone — twice.
  crashcheck::CrashChecker repro(
      crashcheck::MakeFaultyWorkload(kScriptSeed, 12), opts);
  const auto first = repro.CheckPoint(v.crash_event, v.eviction_seed);
  const auto second = repro.CheckPoint(v.crash_event, v.eviction_seed);
  ASSERT_FALSE(first.empty());
  ASSERT_EQ(first.size(), second.size());
  bool matched = false;
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].invariant, second[i].invariant);
    matched = matched || first[i].invariant == v.invariant;
  }
  EXPECT_TRUE(matched) << "sweep violation not reproduced: " << v.invariant;
}

// ---- Planted-bug meta-check --------------------------------------------------

TEST(CrashCheckMeta, FaultyWorkloadIsDetected) {
  crashcheck::CheckerOptions opts = BoundedOptions();
  opts.max_points = 40;
  crashcheck::CrashChecker checker(
      crashcheck::MakeFaultyWorkload(kScriptSeed, 12), opts);
  const auto res = checker.Sweep();
  EXPECT_GT(res.violation_count, 0u)
      << "the unfenced-publication bug went undetected — the oracle is blind";
  // Reports carry everything needed to reproduce.
  for (const auto& v : res.violations) {
    EXPECT_EQ(v.workload, "faulty-string");
    EXPECT_GT(v.crash_event, res.setup_events);
    EXPECT_FALSE(v.invariant.empty());
    EXPECT_NE(crashcheck::FormatViolation(v).find("repro:"), std::string::npos);
  }
}

// A sanity check on the violation formatter.
TEST(CrashCheckMeta, FormatViolationNamesEverything) {
  crashcheck::Violation v{"map-hash", 812, 7, "committed key k3 lost"};
  const std::string s = crashcheck::FormatViolation(v);
  EXPECT_NE(s.find("workload=map-hash"), std::string::npos);
  EXPECT_NE(s.find("crash_event=812"), std::string::npos);
  EXPECT_NE(s.find("eviction_seed=7"), std::string::npos);
  EXPECT_NE(s.find("committed key k3 lost"), std::string::npos);
  EXPECT_NE(s.find("--repro=812:7"), std::string::npos);
}

}  // namespace
}  // namespace jnvm
