#!/usr/bin/env python3
"""The repository benchmark: GANC serving and offline re-ranking.

    python3 perfbench/run.py --workload serve_live --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke

Run from the repository root. The first run builds the library, the two
servers (ganc_serve, ganc_cli) and the perfbench measuring tool from
source into $CARGO_TARGET_DIR (default .bench_build). Every input is
generated from --seed: the power-law corpus (`ganc_cli synth`), the
artifacts trained on its 80% split, and the request stream. Servers get
only deployment flags (artifact paths, --port, --daemon, --shards,
--multiprocess), so every tuning default is measured as shipped.

The report lines come first; the last line of stdout is one JSON object
with `correct`, `attempted`, `failed` and `metrics` (the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1). The exit
code is non-zero when any served list differs from the library
reference, any operation failed, or the traced run's closure check
fails. See perfbench/README.md for the workloads and metric definitions.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# The gated metrics, as listed in BENCHMARK.json, printed on the last line.
END_TO_END = {
    "setup_s": "s",
    "qps_at_slo": "1/s",
    "p50_ms": "ms",
    "publish_s": "s",
    "users_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "novelty_bits": "bits",
}
# Reported by name but not gated (see README: too noisy on a shared host,
# zero, or seed-dominated).
REPORTED = {"p99_ms": "ms", "error_frac": "fraction", "tail_coverage": "fraction",
            "f_at_n": "fraction"}

TIMED_LAYERS = {
    "serve.protocol.parse_ns": "ns",
    "serve.protocol.format_ns": "ns",
    "serve.router.route_ns": "ns",
    "serve.cache.probe_ns": "ns",
    "serve.store.probe_ns": "ns",
    "recommender.kernel.block_us": "us",
    "core.ganc.select_us": "us",
    "serve.service.topn_us": "us",
    "serve.session.consume_us": "us",
}
PER_LAYER = {}
for _name, _unit in TIMED_LAYERS.items():
    PER_LAYER[_name + ".p50"] = _unit
    PER_LAYER[_name + ".p99"] = _unit
    PER_LAYER[_name + ".count"] = "count"
PER_LAYER.update({
    "tools.serve.outside_us.p50": "us",
    "tools.serve.outside_us.p99": "us",
    "serve.cache.hit_ratio": "ratio",
    "serve.store.hit_ratio": "ratio",
    "serve.live_ratio": "ratio",
    "serve.batcher.fill": "requests",
    "serve.batcher.wait_us": "us",
    "serve.batcher.waited_flush_ratio": "ratio",
    "recommender.kernel.bytes_per_block": "bytes",
    "serve.swap.load_ms": "ms",
    "data.load_split_s": "s",
    "recommender.train.fit_s": "s",
    "core.preference.theta_s": "s",
    "util.kde.sample_s": "s",
    "util.kde.share": "ratio",
    "core.ganc.greedy_s": "s",
    "core.ganc.cpu_util": "ratio",
    "recommender.kernel.users_scored": "count",
    "trace.closure_error": "ratio",
    "trace.overhead_us": "us",
})

# Stated bound of the traced run's closure check: the p50s of the
# measured stages on the blocking path must sum to the traced end-to-end
# p50 within this share of it.
CLOSURE_BOUND = 0.10

FULL = {
    "serve_live": dict(kind="serve", users=100000, items=20000, shards=1,
                       multiprocess=False, head=0, ref_rate=500, slo_ms=5.0,
                       quality_ops=9000),
    "serve_hot_mixed": dict(kind="serve", users=100000, items=20000, shards=3,
                            multiprocess=True, head=5000, ref_rate=1000,
                            slo_ms=10.0, quality_ops=12000),
    "offline_rerank": dict(kind="offline", users=30000, items=20000,
                           smoke_users=2000, slo_ms=5.0),
}
SMOKE = {
    "serve_live": dict(FULL["serve_live"], users=3000, items=2000,
                       quality_ops=1000, ref_rate=1000),
    "serve_hot_mixed": dict(FULL["serve_hot_mixed"], users=3000, items=2000,
                            head=300, quality_ops=1000, ref_rate=1000),
    "offline_rerank": dict(FULL["offline_rerank"], users=2000, items=2000,
                           smoke_users=500),
}
KAPPA = "0.8"        # train share of the per-user split
SAMPLE_SIZE = 500    # OSLG sequential sample S
SETUP_REPEATS = 3    # setup_s is the median of this many set-ups


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run(cmd, **kw):
    log("+ " + " ".join(cmd))
    return subprocess.run(cmd, check=True, **kw)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")


def spans_path(name, seed):
    """Where a traced serving run leaves its spans (one JSON object a line)."""
    os.makedirs(os.path.join(build_dir(), "spans"), exist_ok=True)
    return os.path.join(build_dir(), "spans", f"{name}-{seed}.jsonl")


def build():
    """Configures and builds the tools; returns the build directory."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log("perfbench: the repository sources are not here; nothing to build")
        sys.exit(2)
    out = build_dir()
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        run(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"] + gen,
            stdout=sys.stderr)
    run(["cmake", "--build", out, "-j", str(os.cpu_count() or 4), "--target",
         "perfbench", "ganc_serve", "ganc_cli"], stdout=sys.stderr)
    return out


class Tools:
    def __init__(self, out):
        self.cli = os.path.join(out, "ganc", "ganc_cli")
        self.serve = os.path.join(out, "ganc", "ganc_serve")
        self.perfbench = os.path.join(out, "perfbench")


def source_digest():
    """sha256 over the sources the benchmark builds (checkouts carry no .git)."""
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", "perfbench"):
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else sorted(
            os.path.join(d, f) for d, _, files in os.walk(base) for f in files
            if "__pycache__" not in d)
        for path in paths:
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def host_record(tools, out):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    compiler, build_type = "unknown", "unknown"
    try:
        with open(os.path.join(out, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_CXX_COMPILER:"):
                    path = line.split("=", 1)[1].strip()
                    ver = subprocess.run([path, "--version"], capture_output=True, text=True)
                    compiler = ver.stdout.splitlines()[0] if ver.stdout else path
                elif line.startswith("CMAKE_BUILD_TYPE:"):
                    build_type = line.split("=", 1)[1].strip()
    except OSError:
        pass
    kernels = subprocess.run([tools.cli, "kernels"], capture_output=True, text=True)
    active = [l.strip() for l in (kernels.stdout + kernels.stderr).splitlines()
              if l.strip().startswith("active:")]
    sha = "none (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True).stdout.strip() or sha
    return {"nproc": os.cpu_count(), "cpu": cpu, "compiler": compiler,
            "build_type": build_type, "git_sha": sha, "source_sha256": source_digest(),
            "kernel": active[0] if active else "unknown",
            "python": platform.python_version()}


# ---------------------------------------------------------------------------
# Servers

def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def shard_for_user(user, shards):
    """ganc::ShardForUser: the persisted splitmix64 user -> shard hash."""
    m = (1 << 64) - 1
    x = (user & 0xFFFFFFFF) + 0x9E3779B97F4A7C15 & m
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & m
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & m
    x ^= x >> 31
    return x % shards


def descendants(pid):
    children = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        children.setdefault(ppid, []).append(int(entry))
    out, todo = [], [pid]
    while todo:
        p = todo.pop()
        out.append(p)
        todo.extend(children.get(p, []))
    return out


def vm_hwm_mb(pid):
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


class Server:
    """One ganc_serve process tree on an ephemeral localhost port."""

    def __init__(self, tools, work, cfg, seed, log_path):
        self.port = free_port()
        args = [tools.serve, f"--dataset-cache={work}/corpus.gdc", f"--kappa={KAPPA}",
                f"--seed={seed}", f"--pipeline={work}/pipeline.gap",
                f"--port={self.port}", "--daemon"]
        if cfg["head"]:
            args.append(f"--store={work}/head.gts")
        if cfg["shards"] > 1:
            args.append(f"--shards={cfg['shards']}")
        if cfg["multiprocess"]:
            args.append("--multiprocess")
        self.shards = cfg["shards"]
        self.users = [next(u for u in range(cfg["users"]) if shard_for_user(u, self.shards) == s)
                      for s in range(self.shards)]
        self.log = open(log_path, "ab")
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(args, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                                     stderr=self.log, start_new_session=True)

    def wait_ready(self, timeout=60):
        """Seconds from spawn to LISTENING plus a first OK from every shard."""
        deadline = time.monotonic() + timeout
        line = b""
        while b"LISTENING" not in line:
            line = self.proc.stdout.readline()
            if not line or time.monotonic() > deadline:
                raise RuntimeError("ganc_serve did not start")
        with socket.create_connection(("127.0.0.1", self.port), timeout=timeout) as s:
            f = s.makefile("rwb")
            for u in self.users:
                f.write(f"TOPN user={u} n=10\n".encode())
                f.flush()
                resp = f.readline()
                if not resp.startswith(b"OK"):
                    raise RuntimeError(f"first request failed: {resp!r}")
        return time.perf_counter() - self.t0

    def peak_rss_mb(self):
        return sum(vm_hwm_mb(p) for p in descendants(self.proc.pid))

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                os.killpg(self.proc.pid, signal.SIGKILL)
                self.proc.wait()
        try:  # a shard child that outlived its router
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.stdout.close()
        self.log.close()


# ---------------------------------------------------------------------------
# Workloads

def synth(tools, path, users, items, seed):
    run([tools.cli, "synth", f"--out={path}", f"--users={users}", f"--items={items}",
         f"--seed={seed}", "--threads=4"], stdout=sys.stderr)


def run_serve(tools, work, name, cfg, args):
    seed = args.seed
    synth(tools, f"{work}/corpus.gdc", cfg["users"], cfg["items"], seed)
    run([tools.cli, "train", f"--dataset-cache={work}/corpus.gdc", f"--kappa={KAPPA}",
         f"--seed={seed}", "--arec=psvd10", "--theta=g", "--crec=dyn", "--top-n=10",
         f"--sample-size={SAMPLE_SIZE}", "--threads=4", f"--save-pipeline={work}/pipeline.gap"],
        stdout=sys.stderr)
    shutil.copyfile(f"{work}/pipeline.gap", f"{work}/publish.gap")
    store = []
    if cfg["head"]:
        run([tools.cli, "precompute-topn", f"--dataset-cache={work}/corpus.gdc",
             f"--kappa={KAPPA}", f"--seed={seed}", f"--load-pipeline={work}/pipeline.gap",
             "--top-n=10", f"--head-users={cfg['head']}", f"--out={work}/head.gts"],
            stdout=sys.stderr)
        store = [f"--store={work}/head.gts"]

    setups = []
    for _ in range(SETUP_REPEATS):
        server = Server(tools, work, cfg, seed, f"{work}/server.log")
        try:
            setups.append(server.wait_ready())
        finally:
            server.stop()

    server = Server(tools, work, cfg, seed, f"{work}/server.log")
    try:
        server.wait_ready()
        cmd = [tools.perfbench, "serve", f"--workload={name}", f"--port={server.port}",
               f"--seed={seed}", f"--kappa={KAPPA}", f"--seconds={args.seconds}",
               f"--trace={args.trace}", f"--shards={cfg['shards']}",
               f"--ref-rate={cfg['ref_rate']}", f"--slo-ms={cfg['slo_ms']}",
               f"--quality-ops={cfg['quality_ops']}", f"--pipeline={work}/pipeline.gap",
               f"--publish={work}/publish.gap", f"--dataset-cache={work}/corpus.gdc",
               f"--spans={spans_path(name, seed)}"] + store
        log("+ " + " ".join(cmd))
        res = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
        sys.stderr.write(res.stderr)
        if res.returncode != 0:
            raise RuntimeError(f"perfbench serve exited {res.returncode}")
        result = json.loads(res.stdout.strip().splitlines()[-1])
        result["metrics"]["peak_rss_mb"] = server.peak_rss_mb()
    finally:
        server.stop()
    result["metrics"]["setup_s"] = statistics.median(setups)
    return result


def run_offline(tools, work, name, cfg, args):
    synth(tools, f"{work}/corpus.gdc", cfg["users"], cfg["items"], args.seed)
    synth(tools, f"{work}/smoke.gdc", cfg["smoke_users"], 2000, args.seed)
    cmd = [tools.perfbench, "offline", f"--dataset-cache={work}/corpus.gdc",
           f"--smoke-cache={work}/smoke.gdc", f"--work={work}", f"--seed={args.seed}",
           f"--kappa={KAPPA}", f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--sample-size={SAMPLE_SIZE}", f"--setup-repeats={SETUP_REPEATS}",
           f"--slo-ms={cfg['slo_ms']}"]
    log("+ " + " ".join(cmd))
    res = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    sys.stderr.write(res.stderr)
    if res.returncode != 0:
        raise RuntimeError(f"perfbench offline exited {res.returncode}")
    return json.loads(res.stdout.strip().splitlines()[-1])


def cpu_times():
    """(steal, total) jiffies of the whole host from /proc/stat."""
    try:
        with open("/proc/stat") as f:
            fields = [int(v) for v in f.readline().split()[1:]]
        return fields[7] if len(fields) > 7 else 0, sum(fields)
    except (OSError, ValueError):
        return 0, 0


def measure(tools, name, cfg, args):
    work = os.path.join(build_dir(), "work", f"{name}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    steal0, total0 = cpu_times()
    try:
        runner = run_serve if cfg["kind"] == "serve" else run_offline
        result = runner(tools, work, name, cfg, args)
        steal1, total1 = cpu_times()
        result["steal_share"] = (steal1 - steal0) / max(1, total1 - total0)
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


# ---------------------------------------------------------------------------
# Report

def fmt(v):
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def report(name, args, host, result):
    """Human-readable report; returns (correct, attempted, failed, layers)."""
    m, layers = result["metrics"], result.get("layers", {})
    attempted, failed = int(result["attempted"]), int(result["failed"])
    m["error_frac"] = failed / attempted
    closure_ok = True
    if args.trace and "trace.closure_error" in layers:
        closure_ok = layers["trace.closure_error"] <= CLOSURE_BOUND
    print(json.dumps({"host": host, "run": {
        "workload": name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "cpu_steal_share": round(result.get("steal_share", 0.0), 5)}}))
    for phase, p in result.get("phases", {}).items():
        print(f"phase {phase}: " + " ".join(f"{k}={fmt(v)}" for k, v in p.items()))
    for k, unit in list(END_TO_END.items()) + list(REPORTED.items()):
        print(f"{name} {k} = {fmt(m.get(k, 0.0))} {unit}")
    if "latency_samples" in m:
        print(f"{name} latency samples at the reference rate = {int(m['latency_samples'])}")
    if args.trace:
        for k, unit in PER_LAYER.items():
            print(f"{name} layer {k} = {fmt(layers.get(k, 0.0))} {unit}")
        for k in sorted(set(layers) - set(PER_LAYER)):
            print(f"{name} layer {k} = {fmt(layers[k])}")
        if "trace.closure_error" in layers:
            verdict = "ok" if closure_ok else "FAILED"
            print(f"{name} closure {verdict}: stage p50s vs traced end-to-end p50 differ by "
                  f"{layers['trace.closure_error']:.1%} (bound {CLOSURE_BOUND:.0%})")
    missing = [k for k in END_TO_END if not m.get(k)]
    if missing:
        print(f"{name}: end-to-end metrics missing or zero: {missing}")
    correct = failed == 0 and closure_ok and not missing
    return correct, attempted, failed, layers


def one(args, tools, host):
    table = SMOKE if args.smoke else FULL
    cfg = table[args.workload]
    result = measure(tools, args.workload, cfg, args)
    correct, attempted, failed, layers = report(args.workload, args, host, result)
    if args.trace:
        metrics = {k: {"value": float(layers.get(k, 0.0)), "unit": u}
                   for k, u in PER_LAYER.items()}
    else:
        metrics = {k: {"value": float(result["metrics"][k]), "unit": u}
                   for k, u in END_TO_END.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)
    return 0 if correct else 1


def smoke(args, tools, host):
    """Every workload on a tiny corpus, traced; checks every metric name."""
    import contextlib
    import io
    ok = True
    for name in FULL:
        sub = argparse.Namespace(**vars(args))
        sub.workload, sub.trace, sub.seconds, sub.smoke = name, 1, 2, True
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = one(sub, tools, host)
        text = buf.getvalue()
        sys.stdout.write(text)
        names = list(END_TO_END) + list(REPORTED) + [f"layer {k}" for k in PER_LAYER]
        absent = [k for k in names if f"{name} {k} = " not in text]
        if rc != 0 or absent:
            ok = False
            print(f"smoke {name}: FAILED rc={rc} missing={absent}")
        else:
            print(f"smoke {name}: ok")
    return 0 if ok else 1


def stop_on_signal(signum, _frame):
    # SystemExit unwinds through the `finally` blocks that stop servers.
    sys.exit(128 + signum)


def main():
    signal.signal(signal.SIGTERM, stop_on_signal)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(FULL))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="all workloads on tiny corpora; check every metric is printed")
    args = ap.parse_args()
    if not args.smoke and not args.workload:
        ap.error("--workload is required (or --smoke)")
    os.chdir(ROOT)
    # Compiler and tool temporaries stay inside the checkout too.
    os.environ["TMPDIR"] = os.path.join(build_dir(), "tmp")
    os.makedirs(os.environ["TMPDIR"], exist_ok=True)
    tools = Tools(build())
    host = host_record(tools, build_dir())
    return smoke(args, tools, host) if args.smoke else one(args, tools, host)


if __name__ == "__main__":
    sys.exit(main())
