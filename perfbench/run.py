#!/usr/bin/env python3
"""The repository's canonical benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds T --trace 0|1
    python3 perfbench/run.py --workload W --seed N --seconds T --selftest

Workloads (perfbench/README.md says why each exists):
  read-mostly      jnvm_server, 2 conns x 16 deep, 95 % GET, Zipfian, 100 k x 100 B
  write-heavy      jnvm_server, 2 conns x 16 deep, 90 % SET, uniform, 300 k x 1 KiB
  embedded-ycsb-a  in-process KvStore/J-PDT, 1 thread, YCSB-A, 100 k x 10 x 100 B

Run from the root of a checkout. The first run builds the repository's
server, inspector and micro-benchmarks plus perfbench_drv into .bench_build/.
The server is pinned to every CPU but the last and the load generator to the
last one. Every reply is checked against the `<key>:<version>` oracle; a
wrong answer makes the result `correct: false`.

The human-readable report goes to stdout; its last line is one JSON object
with `correct`, `attempted`, `failed` and `metrics` (the end-to-end metrics,
or with --trace 1 the per-layer ones). --selftest runs the oracle against a
deliberately stale expectation and exits 0 only if it reports failures.
"""

import argparse
import json
import os
import re
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN = os.path.join(ROOT, ".bench_build", "run")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "trace")

DRV = os.path.join(BUILD, "perfbench_drv")
SERVER = os.path.join(BUILD, "jnvm", "tools", "jnvm_server")
INSPECT = os.path.join(BUILD, "jnvm", "tools", "jnvm_inspect")
MICRO = os.path.join(BUILD, "jnvm", "bench", "micro_ops")

# Kill/restart cycles after the window; restart_s is the median of these and
# of the set-up restarts below.
RESTARTS = 3
# Seconds of the same op stream, checked but not timed, before the window:
# the first seconds after a preload run far slower than the rest.
WARMUP_S = 3
BLOCK_RE = re.compile(r"block size\s*:\s*(\d+) B")
USAGE_RE = re.compile(r"usage: (\d+)/(\d+) blocks in use")

# setups: set-ups per run; setup_s is their median. The extra ones run
# before the measured one and are thrown away.
# setup_restarts: timed kill/restart cycles after each thrown-away set-up, so
# that restart_s samples the whole run, like the window's slices, and not one
# burst at its end. write-heavy has none: its restarts follow a CKPT, which
# leaves a different log than a preload does.
WORKLOADS = {
    "read-mostly": dict(server=True, keys=100_000, device_mb=192, setups=5, setup_restarts=1),
    "write-heavy": dict(server=True, keys=300_000, device_mb=768, setups=3, setup_restarts=0),
    "embedded-ycsb-a": dict(server=False, keys=100_000, device_mb=1024, setups=5,
                            setup_restarts=2),
}
SHARDS = 2

END_TO_END = [
    ("ops_per_s", "1/s"), ("read_p50_us", "us"), ("read_p99_us", "us"),
    ("write_p50_us", "us"), ("write_p99_us", "us"), ("cpu_us_per_op", "us"),
    ("volatile_mb", "MiB"), ("space_amp", "ratio"), ("restart_s", "s"),
    ("setup_s", "s"),
]
# Reported on every workload's traced run (the BENCHMARK.json per_layer set).
PER_LAYER = [
    ("shard.direct_read_us", "us"), ("shard.direct_write_us", "us"),
    ("repl.append_us_per_write", "us"), ("shard.open_s", "s"),
    ("core.recovery_s", "s"), ("core.traversed_objects_per_key", "count"),
    ("store.read_us", "us"), ("store.update_us", "us"),
    ("nvm.fences_per_write", "count"), ("nvm.bytes_written_per_user_byte", "ratio"),
    ("nvm.reads_per_read", "count"), ("ckpt.bytes_read_per_live_byte", "ratio"),
    ("pdt.map_get_ns", "ns"),
    ("pdt.map_put_replace_ns", "ns"), ("core.proxy_field_read_ns", "ns"),
    ("core.resurrect_ns", "ns"), ("nvm.read64_ns", "ns"), ("nvm.pfence_ns", "ns"),
    ("trace.overhead_frac", "ratio"),
]
# Traced-run metrics that exist on only some workloads: printed, not in JSON.
EXTRA_LAYER = [
    ("server.loop_cpu_us_per_op", "us"), ("server.flush_syscalls_per_op", "count"),
    ("server.net_us_per_read", "us"), ("shard.worker_cpu_us_per_op", "us"),
    ("shard.ops_per_batch", "count"), ("heap.elided_fences_per_write", "count"),
    ("heap.blocks_per_write", "count"), ("ckpt.walked_keys", "count"),
]
MICRO_MAP = {
    "BM_MapGet": "pdt.map_get_ns", "BM_MapPutReplace": "pdt.map_put_replace_ns",
    "BM_ProxyFieldRead": "core.proxy_field_read_ns", "BM_Resurrection": "core.resurrect_ns",
    "BM_DeviceRead64": "nvm.read64_ns", "BM_Pfence": "nvm.pfence_ns",
}


class BenchError(Exception):
    pass


# Every wait after the build shares one budget, so a run ends within 180 s
# of its start (builds aside) even when a child hangs.
RUN_BUDGET_S = 170
_deadline = None


def left():
    if _deadline is None:
        return RUN_BUDGET_S
    if now() >= _deadline:
        raise BenchError("run exceeded its %d s budget" % RUN_BUDGET_S)
    return _deadline - now()


def log(msg):
    print(msg, flush=True)


def now():
    return time.monotonic()


# ---- Build --------------------------------------------------------------------------

def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        raise BenchError("no repository sources next to perfbench/ (run from a checkout)")
    os.makedirs(BUILD, exist_ok=True)
    logf = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j4", "--target", "perfbench_drv",
                  "jnvm_server", "jnvm_inspect", "micro_ops"])
    with open(logf, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT, timeout=850).returncode:
                with open(logf) as f:
                    sys.stderr.write(f.read()[-4000:])
                raise BenchError("build failed: " + " ".join(cmd))


# ---- Host and pinning ----------------------------------------------------------------

def cpu_list(cpus):
    return ",".join(str(c) for c in sorted(cpus))


def host_record():
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) >= 2:
        server, client = cpus[:-1], cpus[-1:]
    else:
        server, client = cpus, cpus
    l3 = "unknown"
    try:
        with open("/sys/devices/system/cpu/cpu0/cache/index3/size") as f:
            l3 = f.read().strip()
    except OSError:
        pass
    log("host: nproc=%d cpus=%s server_cpus=%s client_cpus=%s l3=%s clk_tck=%d" % (
        os.cpu_count(), cpu_list(cpus), cpu_list(server), cpu_list(client), l3,
        os.sysconf("SC_CLK_TCK")))
    return server, client


# ---- Children -------------------------------------------------------------------------

class Children:
    """Every process the benchmark starts; all are killed and reaped on exit."""

    def __init__(self):
        self.procs = []

    def spawn(self, cmd, cpus, **kw):
        p = subprocess.Popen(cmd, preexec_fn=lambda: os.sched_setaffinity(0, cpus), **kw)
        self.procs.append(p)
        return p

    def reap(self):
        for p in self.procs:
            if p.poll() is None:
                p.kill()
            try:
                p.wait(timeout=30)
            except subprocess.TimeoutExpired:
                pass
        self.procs = []


def drv(kids, cpus, args):
    p = kids.spawn([DRV] + args, cpus, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = p.communicate(timeout=left())
    except subprocess.TimeoutExpired:
        p.kill()
        p.wait()
        raise BenchError("perfbench_drv %s timed out" % args[0])
    if p.returncode != 0:
        raise BenchError("perfbench_drv %s failed (%d): %s" % (args[0], p.returncode, err.strip()))
    return json.loads(out.strip().splitlines()[-1])


def resp(port, *args):
    """One RESP command over a fresh connection; returns the reply line."""
    wire = "*%d\r\n" % len(args) + "".join("$%d\r\n%s\r\n" % (len(a), a) for a in args)
    with socket.create_connection(("127.0.0.1", port), timeout=left()) as s:
        s.sendall(wire.encode())
        buf = b""
        while b"\r\n" not in buf:
            chunk = s.recv(4096)
            if not chunk:
                raise BenchError("server closed the connection on %s" % args[0])
            buf += chunk
    return buf.split(b"\r\n", 1)[0].decode()


class Server:
    """A pinned jnvm_server child on dax-backed shard files."""

    def __init__(self, kids, cpus, base, device_mb, tag):
        self.kids, self.cpus, self.base, self.device_mb, self.tag = kids, cpus, base, device_mb, tag
        self.proc = None
        self.port = 0
        self.stderr = None

    def start(self):
        """Starts the server and waits for its first PONG; returns the seconds taken."""
        t0 = now()
        self.stderr = open(self.base + "." + self.tag + ".stderr", "a")
        self.proc = self.kids.spawn(
            [SERVER, "--port=0", "--shards=%d" % SHARDS, "--loops=1", "--batch=16", "--optane",
             "--device-mb=%d" % self.device_mb, "--dax-base=" + self.base],
            self.cpus, stdout=subprocess.PIPE, stderr=self.stderr, text=True)
        line = self.proc.stdout.readline()
        m = re.search(r"listening on [^:]+:(\d+)", line)
        if not m:
            raise BenchError("jnvm_server did not start: %r" % line)
        self.port = int(m.group(1))
        while resp(self.port, "PING") != "+PONG":
            if now() - t0 > min(60, left()):
                raise BenchError("jnvm_server never answered PING")
        took = now() - t0
        self.pin_threads()
        return took

    def pin_threads(self):
        """Gives each event loop and shard worker a CPU of its own (round robin).

        Threads are told apart by what they block in while idle: event loops
        in epoll_wait/epoll_pwait/poll/ppoll/io_uring_enter, shard workers in
        futex. The main thread keeps the whole server set.
        """
        loops, workers = [], []
        task = "/proc/%d/task" % self.proc.pid
        for tid in sorted(int(t) for t in os.listdir(task)):
            if tid == self.proc.pid:
                continue
            with open("%s/%d/syscall" % (task, tid)) as f:
                nr = f.read().split()[0]
            if nr in ("7", "232", "271", "281", "426"):
                loops.append(tid)
            elif nr == "202":
                workers.append(tid)
        for i, tid in enumerate(loops + workers):
            os.sched_setaffinity(tid, {self.cpus[i % len(self.cpus)]})

    def kill9(self):
        self.proc.send_signal(signal.SIGKILL)
        self.proc.wait(timeout=30)
        self.stderr.close()

    def shutdown(self):
        """SHUTDOWN; True when the reply is +OK and the audit exit code is 0."""
        reply = resp(self.port, "SHUTDOWN")
        out, _ = self.proc.communicate(timeout=left())
        self.stderr.close()
        return reply == "+OK" and self.proc.returncode == 0 and "shutdown clean" in out

    def files(self):
        return [self.base + ".shard%d.pmem" % i for i in range(SHARDS)]


def clean_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)


# ---- Workloads --------------------------------------------------------------------------

def micro_ops(kids, cpus):
    p = kids.spawn([MICRO, "--benchmark_filter=^(%s)$" % "|".join(MICRO_MAP),
                    "--benchmark_format=json", "--benchmark_min_time=0.2"],
                   cpus, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    out, _ = p.communicate(timeout=left())
    if p.returncode != 0:
        raise BenchError("micro_ops failed")
    scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}
    got = {}
    for b in json.loads(out)["benchmarks"]:
        if b["name"] in MICRO_MAP:
            got[MICRO_MAP[b["name"]]] = b["real_time"] * scale[b["time_unit"]]
    return got


class Outcome:
    """Operations attempted and failed, with the first reason per step."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def add(self, res, what):
        self.attempted += res["attempted"]
        self.failed += res["failed"]
        if res["failed"]:
            self.reasons.append("%s: %s" % (what, res.get("first_failure", "")))

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.reasons.append(what)


def copy_window(res, m, samples, keys):
    for k in keys:
        m[k] = res[k]
    samples.update(ops_per_s=res["ops"], read_p50_us=res["reads"], read_p99_us=res["reads"],
                   write_p50_us=res["writes"], write_p99_us=res["writes"], cpu_us_per_op=res["ops"])


def peel(kids, cpus, wl, spec, seed, seconds, shards, run_dir, out):
    """The in-process layer replays and the timed Shard::Open on what they leave."""
    args = ["--workload=" + wl, "--shards=%d" % shards, "--device-mb=%d" % spec["device_mb"],
            "--dax-base=" + os.path.join(run_dir, "peel")]
    res = drv(kids, cpus, ["peel", "--seed=%d" % seed, "--seconds=%g" % max(1.0, seconds / 2),
                           "--warmup=%g" % WARMUP_S,
                           "--scratch-base=" + os.path.join(run_dir, "peeloff")] + args)
    opened = drv(kids, cpus, ["open"] + args)
    out.check(res["failed"] == 0, "peel replay: %d bad replies" % res["failed"])
    out.check(opened["failed"] == 0, "peel open: unclean integrity audit")
    return res, opened


def run_server(args, spec, server_cpus, client_cpus, kids, m, samples, out):
    wl = args.workload
    run_dir = os.path.join(RUN, wl)
    clean_dir(run_dir)
    base = os.path.join(run_dir, "srv")
    common = ["--workload=" + wl, "--seed=%d" % args.seed]
    setups, restarts = [], []

    for i in range(spec["setups"] - 1):
        srv = Server(kids, server_cpus, base, spec["device_mb"], "setup%d" % i)
        start_s = srv.start()
        res = drv(kids, client_cpus, ["load", "--port=%d" % srv.port, "--preload-only"] + common)
        setups.append(start_s + res["preload_s"])
        out.add(res, "preload")
        srv.kill9()
        for j in range(spec["setup_restarts"]):
            srv = Server(kids, server_cpus, base, spec["device_mb"], "setup%d-restart%d" % (i, j))
            restarts.append(srv.start())
            srv.kill9()
        for f in srv.files():
            os.unlink(f)

    srv = Server(kids, server_cpus, base, spec["device_mb"], "run")
    start_s = srv.start()
    expect = os.path.join(run_dir, "expect.bin")
    load_args = ["load", "--port=%d" % srv.port, "--server-pid=%d" % srv.proc.pid,
                 "--seconds=%g" % args.seconds, "--warmup=%g" % WARMUP_S,
                 "--expect-out=" + expect] + common
    if args.selftest:
        load_args.append("--stale-oracle")
    if args.trace:
        os.makedirs(TRACE_DIR, exist_ok=True)
        load_args += ["--trace=1", "--spans-out=" + os.path.join(TRACE_DIR, wl + ".spans.jsonl")]
    res = drv(kids, client_cpus, load_args)
    setups.append(start_s + res["preload_s"])
    live_bytes = res["live_bytes"]
    out.add(res, "window")
    copy_window(res, m, samples, ("ops_per_s", "read_p50_us", "read_p99_us", "write_p50_us",
                                  "write_p99_us", "cpu_us_per_op", "volatile_mb"))
    if args.trace:
        m["trace.overhead_frac"] = 1.0 - res["ops_per_s"] / res["untraced_ops_per_s"]
        for k in [k for k, _ in EXTRA_LAYER] + ["nvm.fences_per_write"]:
            if k in res:
                m[k] = res[k]

    if wl == "write-heavy":
        t0 = now()
        reply = resp(srv.port, "CKPT")
        m["ckpt_s"] = now() - t0
        out.check(reply.startswith("+"), "CKPT: " + reply)

    # kill -9, then a timed restart on the same files; a few cycles, then a
    # sweep of every key.
    for i in range(RESTARTS):
        srv.kill9()
        srv = Server(kids, server_cpus, base, spec["device_mb"], "restart%d" % i)
        restarts.append(srv.start())
    m["restart_s"] = statistics.median(restarts)
    samples["restart_s"] = len(restarts)
    out.add(drv(kids, client_cpus, ["sweep", "--port=%d" % srv.port, "--expect=" + expect] + common),
            "sweep")
    out.check(srv.shutdown(), "SHUTDOWN: unclean integrity audit")

    used = 0
    block = 0
    for f in srv.files():
        p = subprocess.run([INSPECT, f], stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True, timeout=left())
        u, b = USAGE_RE.search(p.stdout), BLOCK_RE.search(p.stdout)
        out.check(p.returncode == 0 and u and b,
                  "jnvm_inspect %s: exit %d" % (os.path.basename(f), p.returncode))
        if u and b:
            used += int(u.group(1))
            block = int(b.group(1))
    m["space_amp"] = used * block / live_bytes

    if args.trace:
        res, opened = peel(kids, server_cpus, wl, spec, args.seed, args.seconds, SHARDS, run_dir,
                           out)
        for k in ("shard.direct_read_us", "shard.direct_write_us", "repl.append_us_per_write",
                  "store.read_us", "store.update_us", "nvm.bytes_written_per_user_byte",
                  "nvm.reads_per_read", "ckpt.bytes_read_per_live_byte", "ckpt.walked_keys"):
            m[k] = res[k]
        for k in ("shard.open_s", "core.recovery_s", "core.traversed_objects_per_key"):
            m[k] = opened[k]
        m["server.net_us_per_read"] = m["read_p50_us"] - res["shard.direct_read_us"]
        out.check(m["ckpt.walked_keys"] == spec["keys"],
                  "ckpt walked %d keys, %d live" % (m["ckpt.walked_keys"], spec["keys"]))
    m["setup_s"] = statistics.median(setups)
    samples["setup_s"] = len(setups)
    clean_dir(run_dir)


def run_embedded(args, spec, server_cpus, client_cpus, kids, m, samples, out):
    run_dir = os.path.join(RUN, args.workload)
    clean_dir(run_dir)
    dax = os.path.join(run_dir, "embedded.pmem")
    common = ["--seed=%d" % args.seed, "--dax=" + dax, "--device-mb=%d" % spec["device_mb"]]
    setups, restarts = [], []
    for _ in range(spec["setups"] - 1):
        res = drv(kids, client_cpus, ["embedded", "--setup-only",
                                      "--restarts=%d" % spec["setup_restarts"]] + common)
        setups.append(res["setup_s"])
        restarts += res["restart_samples"]
        out.add(res, "set-up restarts")
    emb_args = ["embedded", "--seconds=%g" % args.seconds, "--warmup=%g" % WARMUP_S,
                "--restarts=%d" % RESTARTS] + common
    if args.selftest:
        emb_args.append("--stale-oracle")
    if args.trace:
        os.makedirs(TRACE_DIR, exist_ok=True)
        emb_args += ["--trace=1",
                     "--spans-out=" + os.path.join(TRACE_DIR, args.workload + ".spans.jsonl")]
    res = drv(kids, client_cpus, emb_args)
    setups.append(res["setup_s"])
    restarts += res["restart_samples"]
    out.add(res, "embedded")
    copy_window(res, m, samples, ("ops_per_s", "read_p50_us", "read_p99_us", "write_p50_us",
                                  "write_p99_us", "cpu_us_per_op", "volatile_mb", "space_amp"))
    m["restart_s"] = statistics.median(restarts)
    samples["restart_s"] = len(restarts)
    if args.trace:
        m["trace.overhead_frac"] = 1.0 - res["ops_per_s"] / res["untraced_ops_per_s"]
        for k in ("store.read_us", "store.update_us", "nvm.reads_per_read", "nvm.fences_per_write",
                  "nvm.bytes_written_per_user_byte", "heap.blocks_per_write", "core.recovery_s",
                  "core.traversed_objects_per_key"):
            m[k] = res[k]
        # The shard, repl and ckpt layers are not on this workload's path; the
        # peel replays show what they would add to its op stream (one shard).
        res, opened = peel(kids, server_cpus, args.workload, spec, args.seed, args.seconds, 1,
                           run_dir, out)
        for k in ("shard.direct_read_us", "shard.direct_write_us", "repl.append_us_per_write",
                  "ckpt.bytes_read_per_live_byte", "ckpt.walked_keys"):
            m[k] = res[k]
        m["shard.open_s"] = opened["shard.open_s"]
    m["setup_s"] = statistics.median(setups)
    samples["setup_s"] = len(setups)
    clean_dir(run_dir)


# ---- Main ---------------------------------------------------------------------------------

def report(m, samples, names):
    for name, unit in names:
        if name in m:
            n = samples.get(name, 1)
            log("  %-34s %14.6g %-6s (n=%d)" % (name, m[name], unit, n))


def main():
    ap = argparse.ArgumentParser(description="J-NVM canonical benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="stale oracle: the run must report failures")
    args = ap.parse_args()

    kids = Children()
    m, samples, out = {}, {}, Outcome()
    # Compilers and children keep their temporary files inside the checkout.
    os.environ["TMPDIR"] = os.path.join(ROOT, ".bench_build", "tmp")
    try:
        os.makedirs(os.environ["TMPDIR"], exist_ok=True)
        build()
        global _deadline
        _deadline = now() + RUN_BUDGET_S
        server_cpus, client_cpus = host_record()
        # This process, and every child started without an explicit CPU set,
        # shares the load generator's CPUs.
        os.sched_setaffinity(0, client_cpus)
        log("workload=%s seed=%d seconds=%g trace=%d%s" % (
            args.workload, args.seed, args.seconds, args.trace,
            " selftest" if args.selftest else ""))
        spec = WORKLOADS[args.workload]
        if args.trace:
            m.update(micro_ops(kids, server_cpus))
        runner = run_server if spec["server"] else run_embedded
        runner(args, spec, server_cpus, client_cpus, kids, m, samples, out)
    except (BenchError, subprocess.TimeoutExpired, OSError, KeyError, ValueError) as e:
        sys.stderr.write("perfbench: %s\n" % e)
        return 1
    finally:
        kids.reap()

    m["failed_frac"] = out.failed / out.attempted
    samples["failed_frac"] = out.attempted
    log("end-to-end:")
    report(m, samples, END_TO_END + [("ckpt_s", "s"), ("failed_frac", "ratio")])
    if args.trace:
        log("per-layer (traced run):")
        report(m, samples, PER_LAYER + EXTRA_LAYER)
    for r in out.reasons:
        log("FAILED " + r)

    names = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({"correct": out.failed == 0, "attempted": out.attempted,
                      "failed": out.failed,
                      "metrics": {n: {"value": m[n], "unit": u} for n, u in names}}), flush=True)
    if args.selftest:
        caught = out.failed > 0
        log("selftest: the stale oracle %s (failed_frac=%.4g)" % (
            "was caught" if caught else "was NOT caught", m["failed_frac"]))
        return 0 if caught else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
