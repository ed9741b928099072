// perfbench_drv — the native half of the benchmark; perfbench/run.py drives
// it. One subcommand per job:
//
//   load      closed-loop RESP load + oracle against a running jnvm_server
//   sweep     post-restart GET of every key against the last acked versions
//   embedded  in-process YCSB-A over KvStore (set-up, window, restart, sweep)
//   peel      in-process shard replays of a workload's op stream (traced runs)
//   open      timed Shard::Open on the files `peel` left behind
//
// Every subcommand prints one JSON object on stdout.
#include <cstring>

#include "perfbench/common.h"

namespace perfbench {
int RunLoad(const Flags& f);
int RunSweep(const Flags& f);
int RunEmbedded(const Flags& f);
int RunPeel(const Flags& f);
int RunOpen(const Flags& f);
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) {
    Die("usage: perfbench_drv load|sweep|embedded|peel|open --flag=value...");
  }
  const Flags flags(argc - 2, argv + 2);
  const std::string cmd = argv[1];
  if (cmd == "load") {
    return RunLoad(flags);
  }
  if (cmd == "sweep") {
    return RunSweep(flags);
  }
  if (cmd == "embedded") {
    return RunEmbedded(flags);
  }
  if (cmd == "peel") {
    return RunPeel(flags);
  }
  if (cmd == "open") {
    return RunOpen(flags);
  }
  Die("unknown subcommand '" + cmd + "'");
}
