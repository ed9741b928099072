// Edge cases and failure injection at the runtime level: heap exhaustion,
// log overflow, class-table limits, and heap relocation (§4.4).
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <thread>

#include "src/core/integrity.h"
#include "src/pdt/pmap.h"
#include "src/pdt/pstring.h"
#include "src/pfa/fa_log.h"

namespace jnvm::core {
namespace {

class Node final : public PObject {
 public:
  static const ClassInfo* Class() {
    static const ClassInfo* info =
        RegisterClass(MakeClassInfo<Node>("edge.Node", &Node::Trace));
    return info;
  }
  explicit Node(Resurrect) {}
  Node(JnvmRuntime& rt, int64_t v) {
    AllocatePersistent(rt, Class(), kL.bytes);
    WriteField<int64_t>(kL.off[1], v);
  }
  int64_t Value() const { return ReadField<int64_t>(kL.off[1]); }
  Handle<Node> Next() const { return ReadPObjectAs<Node>(kL.off[0]); }
  void UpdateNext(Node* n) { UpdateRef(kL.off[0], n); }
  static void Trace(ObjectView& v, RefVisitor& r) { r.VisitRef(v, kL.off[0]); }

 private:
  static constexpr auto kL = PackFields<2>({kRefField, 8});
};

// ---- Heap relocation (§4.4) ----------------------------------------------------
// "J-NVM ensures that the persistent heap is relocatable... it stores only
// offsets relative to the beginning of the heap." A byte-for-byte copy of
// the device must open as an identical, fully functional heap.

TEST(RelocationTest, ByteCopyOfDeviceOpensIdentically) {
  nvm::DeviceOptions o;
  o.size_bytes = 16 << 20;
  auto dev1 = std::make_unique<nvm::PmemDevice>(o);
  {
    auto rt = JnvmRuntime::Format(dev1.get());
    pdt::PStringHashMap m(*rt, 8);
    for (int i = 0; i < 50; ++i) {
      pdt::PString v(*rt, "payload" + std::to_string(i));
      m.Put("key" + std::to_string(i), &v);
    }
    m.Pwb();
    m.Validate();
    rt->root().Put("m", &m);
  }  // clean shutdown

  // Relocate: copy the raw bytes to a different device (different base
  // address in DRAM — as if the DAX file were mapped elsewhere).
  auto dev2 = std::make_unique<nvm::PmemDevice>(o);
  std::memcpy(dev2->raw(), dev1->raw(), o.size_bytes);

  auto rt = JnvmRuntime::Open(dev2.get());
  EXPECT_TRUE(VerifyHeapIntegrity(*rt).ok());
  const auto m = rt->root().GetAs<pdt::PStringHashMap>("m");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->Size(), 50u);
  EXPECT_EQ(m->GetAs<pdt::PString>("key17")->Str(), "payload17");
  // And the relocated heap is fully writable.
  pdt::PString fresh(*rt, "after-move");
  m->Put("new", &fresh);
  EXPECT_EQ(m->GetAs<pdt::PString>("new")->Str(), "after-move");
}

TEST(RelocationTest, RelocatedCopyDivergesIndependently) {
  nvm::DeviceOptions o;
  o.size_bytes = 8 << 20;
  auto dev1 = std::make_unique<nvm::PmemDevice>(o);
  {
    auto rt = JnvmRuntime::Format(dev1.get());
    Node n(*rt, 1);
    rt->root().Put("n", &n);
  }
  auto dev2 = std::make_unique<nvm::PmemDevice>(o);
  std::memcpy(dev2->raw(), dev1->raw(), o.size_bytes);

  auto rt1 = JnvmRuntime::Open(dev1.get());
  auto rt2 = JnvmRuntime::Open(dev2.get());
  auto n2 = rt2->root().GetAs<Node>("n");
  {
    FaBlock fa(*rt2);
    Node child(*rt2, 99);
    n2->UpdateNext(&child);
  }
  // The original heap is untouched by mutations of the copy.
  EXPECT_EQ(rt1->root().GetAs<Node>("n")->Next(), nullptr);
  EXPECT_EQ(rt2->root().GetAs<Node>("n")->Next()->Value(), 99);
}

// ---- Exhaustion -----------------------------------------------------------------

TEST(ExhaustionDeathTest, HeapFullAborts) {
  nvm::DeviceOptions o;
  o.size_bytes = 2 << 20;
  auto dev = std::make_unique<nvm::PmemDevice>(o);
  auto rt = JnvmRuntime::Format(dev.get());
  EXPECT_DEATH(
      {
        for (int i = 0; i < 100'000; ++i) {
          Node n(*rt, i);
          rt->root().Put("k" + std::to_string(i), &n);
        }
      },
      "full");
}

TEST(ExhaustionDeathTest, RedoLogOverflowAborts) {
  nvm::DeviceOptions o;
  o.size_bytes = 64 << 20;
  auto dev = std::make_unique<nvm::PmemDevice>(o);
  RuntimeOptions ropts;
  ropts.heap.log_slot_bytes = 4096;  // tiny log: ~170 entries
  auto rt = JnvmRuntime::Format(dev.get(), ropts);
  EXPECT_DEATH(
      {
        rt->FaStart();
        for (int i = 0; i < 10'000; ++i) {
          Node n(*rt, i);  // one log entry per allocation
        }
        rt->FaEnd();
      },
      "redo-log capacity");
}

// ---- Class table ------------------------------------------------------------------

TEST(ClassTableTest, ManyClassesAcrossRestart) {
  nvm::DeviceOptions o;
  o.size_bytes = 8 << 20;
  auto dev = std::make_unique<nvm::PmemDevice>(o);
  std::vector<uint16_t> ids;
  {
    auto rt = JnvmRuntime::Format(dev.get());
    for (int i = 0; i < 100; ++i) {
      ids.push_back(rt->heap().InternClassId("edge.Class" + std::to_string(i)));
    }
  }
  auto rt = JnvmRuntime::Open(dev.get());
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rt->heap().InternClassId("edge.Class" + std::to_string(i)), ids[i]);
  }
}

// ---- Threads that run failure-atomic blocks ---------------------------------------
// A server shard recovers on an opener thread that exits before the shard
// serves. The opener's root-map Put takes a log slot, and the threads that
// run blocks after it take their own.

TEST(FaThreadsTest, OpenerThreadExitLeavesNoLogBehind) {
  nvm::DeviceOptions o;
  o.size_bytes = 16 << 20;
  auto dev = std::make_unique<nvm::PmemDevice>(o);
  {
    auto rt = JnvmRuntime::Format(dev.get());
    const auto put = [&rt](const std::string& name, int64_t v) {
      Node n(*rt, v);
      rt->root().Put(name, &n);  // one failure-atomic block
    };
    std::thread opener([&] { put("opener", 1); });
    opener.join();
    std::thread worker([&] {
      for (int i = 0; i < 20; ++i) {
        put("worker" + std::to_string(i), 100 + i);
      }
    });
    for (int i = 0; i < 20; ++i) {
      put("main" + std::to_string(i), 200 + i);
    }
    worker.join();
    const pfa::LogAudit audit = pfa::AuditLogs(&rt->heap());
    EXPECT_EQ(audit.active_slots, 0u);
    EXPECT_EQ(audit.committed_slots, 0u);
    rt->Abandon();  // reopen as after a kill -9
  }
  auto rt = JnvmRuntime::Open(dev.get());
  EXPECT_EQ(rt->recovery_report().replay.replayed_logs, 0u);
  EXPECT_EQ(rt->recovery_report().replay.aborted_logs, 0u);
  EXPECT_EQ(rt->root().Size(), 41u);
  EXPECT_EQ(rt->root().GetAs<Node>("opener")->Value(), 1);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(rt->root().GetAs<Node>("worker" + std::to_string(i))->Value(), 100 + i);
    EXPECT_EQ(rt->root().GetAs<Node>("main" + std::to_string(i))->Value(), 200 + i);
  }
  EXPECT_TRUE(VerifyHeapIntegrity(*rt).ok());
}

// ---- Deep structures ----------------------------------------------------------------

TEST(DeepGraphTest, LongChainRecoversWithoutStackOverflow) {
  nvm::DeviceOptions o;
  o.size_bytes = 64 << 20;
  auto dev = std::make_unique<nvm::PmemDevice>(o);
  constexpr int kDepth = 50'000;
  {
    auto rt = JnvmRuntime::Format(dev.get());
    // Build a 50k-deep linked list with the atomic update protocol.
    Node head(*rt, 0);
    head.Pwb();
    head.Validate();
    rt->root().Put("head", &head);
    auto cur = rt->root().GetAs<Node>("head");
    for (int i = 1; i < kDepth; ++i) {
      Node next(*rt, i);
      cur->UpdateNext(&next);  // validates + fences internally
      cur = cur->Next();
    }
  }
  // Graph recovery must traverse the whole chain iteratively.
  auto rt = JnvmRuntime::Open(dev.get());
  EXPECT_GE(rt->recovery_report().traversed_objects,
            static_cast<uint64_t>(kDepth));
  // Spot-check depth and contents.
  auto cur = rt->root().GetAs<Node>("head");
  for (int i = 0; i < 100; ++i) {
    ASSERT_NE(cur, nullptr);
    EXPECT_EQ(cur->Value(), i);
    cur = cur->Next();
  }
  EXPECT_TRUE(VerifyHeapIntegrity(*rt).ok());
}

TEST(DeepGraphTest, WideFanoutRecovers) {
  nvm::DeviceOptions o;
  o.size_bytes = 64 << 20;
  auto dev = std::make_unique<nvm::PmemDevice>(o);
  constexpr int kWidth = 20'000;
  {
    auto rt = JnvmRuntime::Format(dev.get());
    pdt::PStringHashMap m(*rt, 2 * kWidth);
    m.Pwb();
    m.Validate();
    rt->root().Put("m", &m);
    for (int i = 0; i < kWidth; ++i) {
      pdt::PString v(*rt, "v" + std::to_string(i));
      m.Put("k" + std::to_string(i), &v);
    }
  }
  auto rt = JnvmRuntime::Open(dev.get());
  const auto m = rt->root().GetAs<pdt::PStringHashMap>("m");
  EXPECT_EQ(m->Size(), static_cast<size_t>(kWidth));
  EXPECT_TRUE(VerifyHeapIntegrity(*rt).ok());
}

}  // namespace
}  // namespace jnvm::core
