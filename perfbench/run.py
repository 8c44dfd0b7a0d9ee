#!/usr/bin/env python3
"""Benchmark of the embeval command line on seeded synthetic inputs.

    python3 perfbench/run.py --workload coverage-fuzzy --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all              # every workload, one summary
    python3 perfbench/run.py --workload roadmap-baseline # layer timings at the ROADMAP shapes

With ``--trace 0`` every command is a fresh ``python -m embeval.cli``
process, timed from spawn to exit, and the run prints the end-to-end
metrics.  With ``--trace 1`` the commands run in this process through
``embeval.cli.main(argv)``, alternating untraced and traced, and the run
prints the per-layer metrics.  Either way the last line of standard output
is one JSON object: correct, attempted, failed and metrics.

Inputs, outputs and caches live in ``.perfbench/`` at the repository root;
the working files are deleted when the run ends, the results file and the
spans are kept in ``.perfbench/results/``.
"""

import argparse
import contextlib
import ctypes
import gzip
import hashlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

from gen import VecSize, gen_vectors, mutate, vocabulary  # noqa: E402
from spans import PER_LAYER, Tracer, command_totals, layer_metrics  # noqa: E402
from workloads import WORKLOADS, argv, check_tables, table_digest, write_inputs  # noqa: E402

DEFAULT_SEED = 1
SETUPS = 3             # set-up commands per run; setup_s is their median
MIN_SAMPLES = 3        # timed commands per run, even when --seconds runs out first
COMMAND_TIMEOUT_S = 120
END_TO_END = [("cmd_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]


def log(msg: str = "") -> None:
    print(msg, flush=True)


def tail_percentile(n: int) -> str:
    """Highest of p50..p99.9 with at least ten samples above it, or 'none'."""
    best = "none"
    for p in (50, 75, 90, 95, 99, 99.9):
        if n * (1 - p / 100) >= 10:
            best = f"p{p:g}"
    return best


def percentile(values: list[float], p: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(round(p / 100 * (len(ordered) - 1))))]


# --------------------------------------------------------------------------- provenance

def _blas_threads() -> int | None:
    """Thread count reported by the loaded OpenBLAS, read and not changed."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line and ".so" in line})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            if target.exists():
                return target.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def provenance(seed: int) -> dict:
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "git_revision": _git_revision(),
        "src_sha256": src.hexdigest(),
        "seed": seed,
        "page_cache": "inputs are written just before the run and read from the warm OS page "
                      "cache; the cache is never dropped",
    }


# --------------------------------------------------------------------------- one run

def _env() -> dict:
    """The environment of every command: embeval from this checkout, no cache directory."""
    env = {k: v for k, v in os.environ.items() if k != "EMBEVAL_CACHE_DIR"}
    env["PYTHONPATH"] = str(SRC)
    return env


class Spawner:
    """Client of spawn.py, which runs and measures the commands (see there why)."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "spawn.py")], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def run(self, args: list[str], cwd: Path, stderr: Path) -> dict:
        req = {"argv": [sys.executable, "-m", "embeval.cli", *args], "cwd": str(cwd), "env": _env(),
               "stderr": str(stderr), "timeout": COMMAND_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("spawn.py ended unexpectedly")
        return json.loads(reply)

    def close(self, abort: bool = False) -> None:
        """Stop spawn.py; ``abort`` also kills a command it may still be running."""
        if abort:
            self.proc.terminate()
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=COMMAND_TIMEOUT_S + 10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Run:
    """The commands of one workload run: their timings, outputs and failures."""

    def __init__(self, workload, seed: int, work: Path, spawner: Spawner):
        self.w = workload
        self.seed = seed
        self.work = work
        self.spawner = spawner
        self.inputs_dir = work / "inputs"
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digests: list[str] = []
        expected = json.loads((HERE / "expected_digests.json").read_text())
        self.reference = expected["tables"].get(workload.name) if seed == expected["seed"] else None
        self._n = 0

    def fresh(self, kind: str) -> Path:
        self._n += 1
        return self.work / f"{kind}{self._n}"

    def inputs(self) -> dict:
        return write_inputs(self.w, self.seed, self.inputs_dir)

    def verify(self, rc: int, out: Path, label: str) -> None:
        """Count one command, failing it on a non-zero exit or any failed table check."""
        self.attempted += 1
        try:
            errors = [f"exit code {rc}"] if rc != 0 else check_tables(self.w, self.seed, out)
        except (OSError, ValueError, KeyError) as exc:
            errors = [f"unreadable tables: {exc!r}"]
        if rc == 0:
            digest = table_digest(out)
            self.digests.append(digest)
            if self.reference is None:
                self.reference = digest
            if digest != self.reference:
                errors.append(f"tables {digest[:12]} differ from the reference {self.reference[:12]}")
        if errors:
            self.failed += 1
            self.errors.extend(f"{label}: {e}" for e in errors)

    def spawn(self, args: list[str], out: Path, label: str, check=True) -> dict:
        """One ``python -m embeval.cli`` process, timed from spawn to exit."""
        stderr = self.work / "stderr.txt"
        rec = self.spawner.run(args, self.work, stderr)
        if check:
            self.verify(rec["exit"], out, label)
        if rec["exit"] != 0:
            self.errors.append(f"{label}: {stderr.read_text(errors='replace')[-500:]}")
        return {"wall_s": rec["wall_s"], "peak_rss_mb": rec["maxrss_kb"] / 1024, "exit": rec["exit"]}

    def command(self, cache: Path, label: str, spawn=True, runner=None) -> dict:
        out = self.fresh("out")
        args = argv(self.w, self.inputs_dir, out, cache)
        if spawn:
            rec = self.spawn(args, out, label)
        else:
            rec = runner(args)
            self.verify(rec["exit"], out, label)
        shutil.rmtree(out, ignore_errors=True)
        return rec

    def check_idempotent(self) -> None:
        """clean on its own output must reproduce it byte for byte (outside timing)."""
        out1, out2 = self.fresh("out"), self.fresh("out")
        again = self.inputs_dir / "again"
        rec = self.spawn(argv(self.w, self.inputs_dir, out1, out1), out1, "clean")
        if rec["exit"] != 0:
            return
        again.mkdir()
        for lang in ("de", "en"):
            shutil.copy(out1 / f"corpus.{lang}.txt", again / f"again_{lang}.txt")
        args = argv(self.w, self.inputs_dir, out2, out2)
        args[args.index("--input") + 1] = str(again)
        self.attempted += 1
        rc = self.spawn(args, out2, "clean of its own output", check=False)["exit"]
        same = rc == 0 and all(
            (out1 / f"corpus.{lang}.txt").read_bytes() == (out2 / f"corpus.{lang}.txt").read_bytes()
            for lang in ("de", "en"))
        if not same:
            self.failed += 1
            self.errors.append(f"clean of its own output is not byte-identical (exit {rc})")


def run_end_to_end(w, seed: int, seconds: float, run: Run) -> tuple[dict, dict]:
    setups = []
    for i in range(SETUPS):
        cache = run.fresh("cache")
        setups.append(run.command(cache, f"setup {i}"))
    samples = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(samples) < MIN_SAMPLES:
        cmd_cache = cache if w.warm else run.fresh("cache")
        samples.append(run.command(cmd_cache, f"command {len(samples)}"))
        if not w.warm:
            shutil.rmtree(cmd_cache, ignore_errors=True)
    if w.command == "clean":
        run.check_idempotent()
    walls = [s["wall_s"] for s in samples]
    metrics = {
        "cmd_s": statistics.median(walls),
        "setup_s": statistics.median(s["wall_s"] for s in setups),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
    }
    tail = tail_percentile(len(walls))
    detail = {
        "samples": len(walls),
        "setups": len(setups),
        "cmd_s_tail": tail,
        "cmd_s_tail_value": percentile(walls, float(tail[1:])) if tail != "none" else None,
        "cmd_s_quartiles": statistics.quantiles(walls, n=4) if len(walls) > 1 else walls,
        "fail_ratio": run.failed / run.attempted,
        "setup_runs": setups,
        "timed_runs": samples,
    }
    return metrics, detail


def _gemm_gflops(n: int, dim: int, queries: int) -> float:
    """GFLOP/s of this machine's numpy GEMM at the search shape (computed count 2*n*dim*queries)."""
    import numpy as np

    rng = np.random.default_rng(0)
    unit = rng.standard_normal((n, dim))
    q = rng.standard_normal((dim, min(queries, 256)))
    reps = max(1, queries // q.shape[1])
    times = []
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(reps):
            unit @ q
        times.append(time.perf_counter() - start)
    return 2.0 * n * dim * q.shape[1] * reps / statistics.median(times) / 1e9


def run_traced(w, seed: int, seconds: float, run: Run, spans_path: Path) -> tuple[dict, dict]:
    sys.path.insert(0, str(SRC))
    os.environ.pop("EMBEVAL_CACHE_DIR", None)
    import embeval.cli

    def in_process(args):
        err = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = embeval.cli.main(args)
        wall = time.perf_counter() - start
        if rc != 0:
            run.errors.append(err.getvalue()[-500:])
        return {"wall_s": wall, "exit": rc}

    cache = run.fresh("cache")
    run.command(cache, "setup")                      # fills the cache of diversity-warm
    # one untimed in-process command first, so one-time costs of this process
    # (first BLAS call, lazily built tables) land in neither series
    run.command(cache if w.warm else run.fresh("cache"), "warm-up", spawn=False, runner=in_process)
    tracer = Tracer()
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(traced) < 2:
        cmd_cache = cache if w.warm else run.fresh("cache")
        untraced.append(run.command(cmd_cache, "untraced", spawn=False, runner=in_process)["wall_s"])
        cmd_cache = cache if w.warm else run.fresh("cache")
        tracer.install()
        try:
            rec = run.command(cmd_cache, "traced", spawn=False,
                              runner=lambda a: tracer.run_command(lambda: in_process(a)))
        finally:
            tracer.close()
        traced.append(rec["wall_s"])
    if w.command == "clean":
        run.check_idempotent()

    per_command = command_totals(tracer.spans, tracer.command + 1)
    layer = [layer_metrics(t) for t in per_command]
    metrics = {name: statistics.median(m[name] for m in layer) for name in layer[0]}
    # search probes end in (vocabulary size, dim): the shape the GEMM reproduces
    shape = next((p[1:] for name in ("neighbors.top_k_batch", "neighbors.top_k")
                  for _, p in per_command[0].get(name, {}).get("probes", [])), None)
    queries = layer[0]["neighbors.top_k_batch.queries"] + layer[0]["neighbors.top_k.calls"]
    metrics["machine.gemm_gflops"] = _gemm_gflops(*shape, queries) if shape else 0.0
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
    metrics["trace.missing_targets"] = len(tracer.missing)

    # the traced command with the median wall time gives the layer-share table
    mid = sorted(range(len(traced)), key=traced.__getitem__)[len(traced) // 2]
    totals = per_command[mid]
    root = totals["cli"]["s"]
    shares = {name: {"calls": t["calls"], "s": t["s"], "self_s": t["self_s"], "self_share": t["self_s"] / root}
              for name, t in sorted(totals.items(), key=lambda kv: -kv[1]["self_s"])}
    with gzip.open(spans_path, "wt", encoding="utf-8") as fh:
        for span in tracer.spans:
            name, start, end, parent, cid, _ = span
            fh.write(json.dumps([name, start, end, parent, cid]) + "\n")
    detail = {
        "traced_commands": len(traced),
        "untraced_commands": len(untraced),
        "traced_s": traced,
        "untraced_s": untraced,
        "fail_ratio": run.failed / run.attempted,
        "missing_targets": tracer.missing,
        "self_time_sum_over_command": sum(t["self_s"] for t in totals.values()) / root,
        "layer_shares": shares,
        "spans_file": str(spans_path),
    }
    return metrics, detail


def run_workload(name: str, seed: int, seconds: float, trace: bool, spawner: Spawner) -> dict:
    w = WORKLOADS[name]
    work = STATE / f"work-{os.getpid()}-{name}"
    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run = Run(w, seed, work, spawner)
        inputs = run.inputs()
        if trace:
            metrics, detail = run_traced(w, seed, seconds, run, results / f"{name}-seed{seed}.spans.jsonl.gz")
        else:
            metrics, detail = run_end_to_end(w, seed, seconds, run)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record = {
        "workload": name, "why": w.why, "trace": trace, "seconds": seconds,
        "provenance": provenance(seed),
        "inputs": {k: {"bytes": v["bytes"], "sha256": v["sha256"]} for k, v in inputs.items()},
        "table_digests": sorted(set(run.digests)),
        "correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
        "errors": run.errors[:20], "metrics": metrics, "detail": detail,
    }
    path = results / f"{name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    report(record, path)
    return record


def report(rec: dict, path: Path) -> None:
    d = rec["detail"]
    log(f"== {rec['workload']} (seed {rec['provenance']['seed']}, trace {int(rec['trace'])}): {rec['why']}")
    total = sum(v["bytes"] for v in rec["inputs"].values())
    log(f"   inputs: {len(rec['inputs'])} files, {total / 1e6:.1f} MB, read from the warm page cache")
    if not rec["trace"]:
        m = rec["metrics"]
        tail = d["cmd_s_tail"] if d["cmd_s_tail_value"] is None else f"{d['cmd_s_tail']} {d['cmd_s_tail_value']:.4f} s"
        log(f"   cmd_s       {m['cmd_s']:.4f} s   median of {d['samples']} commands, "
            f"quartiles {', '.join(f'{q:.4f}' for q in d['cmd_s_quartiles'])}, tail {tail}")
        log(f"   setup_s     {m['setup_s']:.4f} s   median of {d['setups']} fresh-state commands")
        log(f"   peak_rss_mb {m['peak_rss_mb']:.1f} MB  median over the timed commands")
    else:
        log(f"   {d['traced_commands']} traced and {d['untraced_commands']} untraced in-process commands; "
            f"self times sum to {d['self_time_sum_over_command']:.4f} of the traced command")
        log(f"   {'span':34} {'calls':>7} {'total s':>9} {'self s':>9} {'self share':>10}")
        for name, s in d["layer_shares"].items():
            log(f"   {name:34} {s['calls']:7d} {s['s']:9.4f} {s['self_s']:9.4f} {s['self_share']:10.1%}")
        if d["missing_targets"]:
            log(f"   missing trace targets: {', '.join(d['missing_targets'])}")
        for name, unit, _ in PER_LAYER:
            log(f"   {name:44} {rec['metrics'][name]:.6g} {unit}")
    log(f"   fail_ratio  {d['fail_ratio']:.4f} ratio ({rec['failed']} of {rec['attempted']} commands failed)")
    for e in rec["errors"]:
        log(f"   error: {e}")
    log(f"   results: {path}")


# --------------------------------------------------------------------------- ROADMAP cross-check

# ROADMAP baseline values (50k x 100 float64 model, 46 MB; random 3-13 letter words)
ROADMAP_BASELINE = {
    "vectors.load_vec.s": (2.9, "s", "load_vec on the 46 MB file"),
    "neighbors.top_k_batch.ms_per_query": (3.5, "ms", "top_k_batch, k=200"),
    "stringsim.best_match.ms_per_call.s090": (70.0, "ms", "best_match per keyword, s=0.9 (21 s / 300)"),
    "stringsim.best_match.ms_per_call.s095": (28.0, "ms", "best_match per keyword, s=0.95 (8.4 s / 300)"),
}


def roadmap_baseline(seed: int) -> dict:
    """Trace the baseline layers directly at the ROADMAP shapes and print them beside its table."""
    sys.path.insert(0, str(SRC))
    from embeval import neighbors, stringsim, vectors

    work = STATE / f"work-{os.getpid()}-baseline"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = Tracer()
    try:
        path = work / "m.vec"
        path.write_bytes(gen_vectors(seed, VecSize(50_000, 100))[0])
        vocab = vocabulary(seed, 50_000)
        import numpy as np
        rng = np.random.default_rng([seed, 9])
        misses = [mutate(rng, vocab[int(i)], set(vocab), int(i) % 3) for i in rng.integers(0, len(vocab), 30)]
        tracer.install()

        def body():
            model = vectors.load_vec(str(path), "m")
            neighbors.top_k_batch(model, vocab[:200], 200)
            index = stringsim.VocabIndex(model.vocab)
            for s in (0.9, 0.95):
                for token in misses:
                    stringsim.best_match(token, index, s)
            return 0
        tracer.run_command(body)
    finally:
        tracer.close()
        shutil.rmtree(work, ignore_errors=True)
    m = layer_metrics(command_totals(tracer.spans, 1)[0])
    log("== roadmap-baseline: layers at the ROADMAP baseline shapes (50k x 100, 46 MB; 30 one-edit misses)")
    log(f"   {'layer':44} {'ROADMAP':>9} {'measured':>9} ratio")
    out = {}
    for name, (base, unit, what) in ROADMAP_BASELINE.items():
        out[name] = m[name]
        log(f"   {what:44} {base:7.2f}{unit:>2} {m[name]:7.2f}{unit:>2} {m[name] / base:5.2f}x")
    return out


# --------------------------------------------------------------------------- main

def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help=f"one of {', '.join(WORKLOADS)}, 'all' or 'roadmap-baseline'")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0, help="time spent on timed commands per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "embeval" / "cli.py").is_file():
        print(f"error: no embeval sources at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "roadmap-baseline":
        metrics = roadmap_baseline(args.seed)
        log(json.dumps({"correct": True, "attempted": 1, "failed": 0,
                        "metrics": {k: {"value": v, "unit": ROADMAP_BASELINE[k][1]} for k, v in metrics.items()}}))
        return 0
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    units = {n: u for n, u in END_TO_END} if not args.trace else {n: u for n, u, _ in PER_LAYER}
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    spawner = Spawner()
    try:
        records = [run_workload(n, args.seed, args.seconds, bool(args.trace), spawner) for n in names]
    except BaseException:
        spawner.close(abort=True)
        raise
    spawner.close()
    if len(records) > 1:
        log("== summary")
        for r in records:
            m = r["metrics"]
            if not args.trace:
                log(f"   {r['workload']:15} cmd_s {m['cmd_s']:.4f} s (n={r['detail']['samples']})  "
                    f"setup_s {m['setup_s']:.4f} s (n={r['detail']['setups']})  "
                    f"peak_rss_mb {m['peak_rss_mb']:.1f} MB  fail_ratio {r['detail']['fail_ratio']:.4f}")
    prefix = (lambda r, k: f"{r['workload']}.{k}") if len(records) > 1 else (lambda r, k: k)
    result = {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {prefix(r, k): {"value": r["metrics"][k], "unit": units[k]} for r in records for k in units},
    }
    log(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
