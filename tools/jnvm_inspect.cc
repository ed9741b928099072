// jnvm_inspect — offline heap-image inspector.
//
// Opens a saved device image (PmemDevice::SaveTo) read-only-ish and prints:
// the superblock, the class table, a block-occupancy census (Table 2
// states), per-class object counts and footprints, and an integrity audit
// of the reachable graph. The ops companion to the library — what you point
// at a region file when something looks wrong.
//
// Usage: jnvm_inspect [--summary] <image-file>
//
// --summary prints a compact one-screen digest (occupancy, root bindings,
// FA-log slot states, audit verdict) instead of the full census — the mode
// for scripting and for a quick glance at a fleet of shard images.
//
// Exit status: 0 clean, 1 usage/load error, 2 when the I1–I7 integrity
// audit fails — CI gates on this. The image is offline (the heap is
// quiescent by construction), so the audit always includes I7 (FA logs).
//
// Built-in classes (J-PDT, store, server, bank) are pre-registered; images holding
// application-defined classes need those classes linked into the inspector
// (the classpath requirement of §3.1 resurrection).
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <map>
#include <vector>

#include "src/ckpt/ckpt_meta.h"
#include "src/cluster/meta.h"
#include "src/core/integrity.h"
#include "src/pdt/register_all.h"
#include "src/pfa/fa_log.h"
#include "src/repl/repl_log.h"
#include "src/server/kv_map.h"
#include "src/store/jpfa_map.h"
#include "src/store/precord.h"
#include "src/tpcb/bank.h"

using namespace jnvm;

namespace {

void PrintCensus(heap::Heap& h) {
  uint64_t valid_masters = 0;
  uint64_t invalid_masters = 0;
  uint64_t slave_or_free = 0;
  std::map<uint16_t, uint64_t> per_class;
  const nvm::Offset end = h.bump();
  for (nvm::Offset b = h.first_block(); b < end; b += h.block_size()) {
    const heap::BlockHeader hdr = h.ReadHeader(b);
    if (hdr.IsMaster()) {
      (hdr.valid ? valid_masters : invalid_masters) += 1;
      if (hdr.valid) {
        per_class[hdr.id] += 1;
      }
    } else {
      slave_or_free += 1;
    }
  }
  std::printf("block census (Table 2 states), %" PRIu64 " allocated blocks:\n",
              h.NumAllocatedBlocks());
  std::printf("  valid masters   : %" PRIu64 "\n", valid_masters);
  std::printf("  invalid masters : %" PRIu64 "  (reclaimable)\n", invalid_masters);
  std::printf("  slave or free   : %" PRIu64 "\n", slave_or_free);
  std::printf("\nvalid masters per class:\n");
  for (const auto& [id, count] : per_class) {
    const std::string name = h.ClassName(id);
    std::printf("  %5u  %-28s %10" PRIu64 "\n", id,
                name.empty() ? "<unknown>" : name.c_str(), count);
  }
}

// When the image holds a cluster meta root (a cluster node's slot table),
// print the persisted ownership runs, epoch and migration record — the
// ground truth a restarted node will route by (DESIGN.md §10).
void PrintClusterMeta(core::JnvmRuntime& rt, bool summary) {
  if (!rt.root().Exists(cluster::ClusterState::RootName())) {
    return;
  }
  auto meta = rt.root().GetAs<cluster::ClusterMetaRoot>(
      cluster::ClusterState::RootName());
  if (meta == nullptr) {
    std::printf("  cluster   : root binding present but unresolvable\n");
    return;
  }
  const char* pad = summary ? "  " : "";
  std::printf("%scluster   : epoch=%" PRIu64 " self=%u nodes=%u\n", pad,
              meta->Epoch(), meta->Self(), meta->NodeCount());
  for (uint32_t i = 0; i < meta->NodeCount(); ++i) {
    const std::string addr = meta->NodeAddr(i);
    std::printf("%s    node%u : %s\n", pad, i,
                addr.empty() ? "?" : addr.c_str());
  }
  // Slot table as contiguous runs (16384 individual lines help nobody).
  std::vector<uint16_t> owners(cluster::kNumSlots);
  meta->ReadOwners(owners.data());
  uint16_t run_owner = owners[0];
  uint32_t run_lo = 0;
  const auto flush = [&](uint32_t end_exclusive) {
    if (run_owner == cluster::kNoOwner) {
      std::printf("%s    slots %5u-%-5u unassigned\n", pad, run_lo,
                  end_exclusive - 1);
    } else {
      std::printf("%s    slots %5u-%-5u -> node %u\n", pad, run_lo,
                  end_exclusive - 1, run_owner);
    }
  };
  for (uint32_t s = 1; s < cluster::kNumSlots; ++s) {
    if (owners[s] != run_owner) {
      flush(s);
      run_owner = owners[s];
      run_lo = s;
    }
  }
  flush(cluster::kNumSlots);
  static const char* kStates[] = {"none", "migrating", "importing", "handoff"};
  const uint32_t st = meta->MigState();
  if (st != 0 && st < 4) {
    std::printf("%s    migration: %s lo=%u hi=%u peer=%u\n", pad, kStates[st],
                meta->MigLo(), meta->MigHi(), meta->MigPeer());
  }
}

// The shard's key/value store (DESIGN.md §7): records and slot capacity,
// from the mirror recovery rebuilt. Printed only when the image holds the
// shard's store binding.
void PrintServerStore(core::JnvmRuntime& rt) {
  if (rt.root().Exists("server.kv")) {
    auto kv = server::KvMap::OpenOrCreate(rt, "server.kv", 0);  // binds
    std::printf("  kv store  : %zu record(s) in %" PRIu64 " slot(s)\n", kv->Size(),
                kv->CapacitySlots());
  }
}

// Replication-log occupancy + checkpoint watermark (DESIGN.md §11): how
// many sealed segments the shard retains, the byte footprint, and the
// truncation watermark (start_seq — everything below was reclaimed by a
// checkpoint or ring-full eviction). Printed only when the image holds the
// shard's log root binding.
void PrintReplLog(core::JnvmRuntime& rt) {
  if (rt.root().Exists("server.repl")) {
    // Binding exists → OpenOrCreate binds (never creates). The recovery
    // reconcile it runs is what the server itself would do; the inspection
    // device is never written back (rt.Abandon()).
    auto log = repl::ReplLog::OpenOrCreate(&rt, "server.repl",
                                           repl::ReplLogOptions{});
    std::printf("  repl log  : %u sealed segment(s), %" PRIu64
                " bytes, seqs [%" PRIu64 ", %" PRIu64
                "), truncated below %" PRIu64 "%s\n",
                log->segments(), log->bytes(), log->start_seq(),
                log->next_seq(), log->start_seq(),
                log->needs_snapshot() ? " [needs_snapshot]" : "");
  }
  if (rt.root().Exists("server.ckpt")) {
    auto meta = rt.root().GetAs<ckpt::CkptMeta>("server.ckpt");
    if (meta != nullptr) {
      std::printf("  checkpoint: count=%" PRIu64 " begin=%" PRIu64
                  " end=%" PRIu64 " walked_keys=%" PRIu64
                  " walked_bytes=%" PRIu64 "\n",
                  meta->Count(), meta->BeginSeq(), meta->EndSeq(),
                  meta->WalkedKeys(), meta->WalkedBytes());
    }
  }
}

// One image, one paragraph: enough to see at a glance whether a shard image
// is healthy, how full it is, and whether any FA log was left mid-flight.
int PrintSummary(const char* path, nvm::PmemDevice* dev,
                 core::JnvmRuntime* rt) {
  heap::Heap& h = rt->heap();
  const auto usage = h.GetUsage();
  const pfa::LogAudit logs = pfa::AuditLogs(&h);
  const auto report =
      core::VerifyHeapIntegrity(*rt, core::IntegrityOptions{.audit_fa_logs = true});
  const auto& rep = rt->recovery_report();

  std::printf("%s: %zu bytes, clean_shutdown=%s\n", path, dev->size(),
              h.was_clean_shutdown() ? "yes" : "no");
  std::printf("  occupancy : %" PRIu64 "/%" PRIu64 " blocks (%.1f%%), %" PRIu64
              " in free queue\n",
              usage.in_use_blocks, usage.capacity_blocks,
              usage.utilization * 100, usage.free_queue_blocks);
  std::printf("  root map  : %zu binding(s)", rt->root().Size());
  for (const std::string& key : rt->root().Keys()) {
    std::printf(" %s", key.c_str());
  }
  std::printf("\n");
  std::printf("  fa logs   : %u active slot(s), %u committed, %" PRIu64
              " pending entrie(s)\n",
              logs.active_slots, logs.committed_slots, logs.pending_entries);
  std::printf("  recovery  : %u log(s) replayed, %u aborted, %" PRIu64
              " block(s) swept, %" PRIu64 " device reads\n",
              rep.replay.replayed_logs, rep.replay.aborted_logs,
              rep.sweep.freed_blocks, rep.device_reads);
  PrintServerStore(*rt);
  PrintReplLog(*rt);
  PrintClusterMeta(*rt, /*summary=*/true);
  std::printf("  integrity : %s\n", report.Summary().c_str());
  rt->Abandon();
  return report.ok() ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  bool summary = false;
  const char* path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--summary") == 0) {
      summary = true;
    } else if (path == nullptr) {
      path = argv[i];
    } else {
      path = nullptr;
      break;
    }
  }
  if (path == nullptr) {
    std::fprintf(stderr, "usage: jnvm_inspect [--summary] <image-file>\n");
    return 1;
  }
  // Register every built-in persistent class before recovery resurrects
  // anything (the classpath requirement of §3.1).
  pdt::RegisterStandardClasses();
  store::PRecord::Class();
  store::JpfaEntry::Class();
  store::JpfaHashMap::Class();
  tpcb::PAccount::Class();
  server::KvMap::Class();
  server::KvEntry::Class();
  repl::ReplLogRoot::Class();
  repl::ReplLogSegment::Class();
  ckpt::CkptMeta::Class();
  cluster::ClusterMetaRoot::Class();

  auto dev = nvm::PmemDevice::LoadFrom(path);
  if (dev == nullptr) {
    // Not a SaveTo image — try a raw dax region (cluster fleet mode maps
    // files headerless). The bytes are copied into a volatile device so the
    // inspection, including its recovery pass, never touches the file.
    std::FILE* f = std::fopen(path, "rb");
    if (f != nullptr) {
      std::fseek(f, 0, SEEK_END);
      const long sz = std::ftell(f);
      std::fseek(f, 0, SEEK_SET);
      if (sz > 0) {
        nvm::DeviceOptions dopts;
        dopts.size_bytes = static_cast<size_t>(sz);
        auto raw = std::make_unique<nvm::PmemDevice>(dopts);
        if (std::fread(raw->raw(), 1, dopts.size_bytes, f) == dopts.size_bytes) {
          dev = std::move(raw);
        }
      }
      std::fclose(f);
    }
  }
  if (dev == nullptr) {
    std::fprintf(stderr, "jnvm_inspect: %s is not a device image\n", path);
    return 1;
  }

  // Open with recovery (an image may have been saved mid-flight); the
  // runtime prints nothing on success.
  auto rt = core::JnvmRuntime::Open(dev.get());
  if (summary) {
    return PrintSummary(path, dev.get(), rt.get());
  }
  std::printf("image: %s (%zu bytes)\n\n", path, dev->size());
  heap::Heap& h = rt->heap();

  std::printf("superblock:\n");
  std::printf("  block size    : %u B (payload %u B)\n", h.block_size(),
              h.payload_per_block());
  std::printf("  first block   : 0x%" PRIx64 "\n", h.first_block());
  std::printf("  bump pointer  : 0x%" PRIx64 "\n", h.bump());
  std::printf("  root master   : 0x%" PRIx64 "\n", h.root_master());
  std::printf("  clean shutdown: %s\n\n", h.was_clean_shutdown() ? "yes" : "NO");

  const auto usage = h.GetUsage();
  std::printf("usage: %" PRIu64 "/%" PRIu64 " blocks in use (%.1f%%), %" PRIu64
              " recycled in the free queue\n\n",
              usage.in_use_blocks, usage.capacity_blocks, usage.utilization * 100,
              usage.free_queue_blocks);

  PrintCensus(h);

  std::printf("\nrecovery report (from opening this image):\n");
  const auto& rep = rt->recovery_report();
  std::printf("  redo logs: %u replayed, %u aborted; %" PRIu64
              " objects traversed, %" PRIu64 " refs nullified, %" PRIu64
              " blocks freed, %" PRIu64 " device reads\n",
              rep.replay.replayed_logs, rep.replay.aborted_logs,
              rep.traversed_objects, rep.nullified_refs, rep.sweep.freed_blocks,
              rep.device_reads);

  std::printf("\nintegrity audit: ");
  const auto report =
      core::VerifyHeapIntegrity(*rt, core::IntegrityOptions{.audit_fa_logs = true});
  std::printf("%s\n", report.Summary().c_str());
  std::printf("\nroot map bindings (%zu):\n", rt->root().Size());
  for (const std::string& key : rt->root().Keys()) {
    std::printf("  %s\n", key.c_str());
  }
  std::printf("\n");
  PrintServerStore(*rt);
  PrintReplLog(*rt);
  PrintClusterMeta(*rt, /*summary=*/false);
  rt->Abandon();  // inspection must not alter the on-disk image
  return report.ok() ? 0 : 2;
}
