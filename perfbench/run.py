"""hullforge benchmark driver.

Single process, single thread, closed loop: each op starts only after the
previous one returned.  One run sets up, runs one untimed warm-up op, then
repeats the workload's whole op list until the timed op time reaches
``--seconds``, checking every op's output outside its timed span.  The last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the op
list once with span tracing and once without, and reports the per-layer
metrics instead.  See README.md in this directory.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 10 --trace 0
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PINNED = HERE / "pinned.json"
DEFAULT_SEED = 0
SETUP_SAMPLES = 7
# Coarse steps keep the chosen percentile fixed while a speed phase of the
# machine moves the number of rounds a run completes.
TAIL_LADDER = (50, 75, 95)
TAIL_MIN_BEYOND = 10

sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from oracles import CheckError  # noqa: E402
from workloads import SWEEP_OPS, WORKLOADS, Context, build_ops, digest_lines, sweep_shape  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "lanes_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

_SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import hullforge
from hullforge import corpus
corpus.load_corpus(validate=True)
corpus.load_tables()
corpus.load_comparison()
print(repr(time.perf_counter() - t0))
"""


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for layer in tracing.LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.busy_s"] = "s"
        units[f"{layer}.self_s"] = "s"
    self_named = [
        "gf2.rank", "gf2.rref", "gf2.gram", "gf2.nullspace_basis", "gf2.row_space_intersection",
        "code.hull", "code.dual", "code.canonical_gen", "code.min_distance",
        "code.covering_radius", "code.coset_min_weight", "eaqecc.derive",
        "buildup.construct", "buildup.classify_extension", "search.sweep_extensions",
        "search.exhaustive_codes", "search.hull_census",
    ]
    for name in self_named:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for name in ("search.sweep_children", "corpus.load_corpus", "cli.main"):
        units[f"{name}.calls"] = "count"
        units[f"{name}.busy_s"] = "s"
    units["search.sweep.constructs_per_record"] = "ratio"
    units["search.rank3_table.hit_ratio"] = "ratio"
    units["search.sym_rank_lut.hit_ratio"] = "ratio"
    units["trace.overhead_ratio"] = "ratio"
    return units


# ------------------------------------------------------------------ setup


def import_hullforge() -> dict:
    if not (SRC / "hullforge" / "__init__.py").is_file():
        raise FileNotFoundError(f"hullforge sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import hullforge  # noqa: F401
    from hullforge import buildup, cli, code, corpus, eaqecc, gf2, search

    return {"gf2": gf2, "code": code, "buildup": buildup, "search": search,
            "eaqecc": eaqecc, "corpus": corpus, "cli": cli}


def load_context(modules: dict) -> Context:
    corpus = modules["corpus"]
    entries = corpus.load_corpus(validate=True)
    cells = corpus.load_tables()
    corpus.load_comparison()  # part of a user's set-up; no op reads it
    return Context(modules, entries, cells)


def setup_samples(count: int) -> list[float]:
    """Set-up time of fresh interpreters: import plus the three data loads."""
    out = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_PROBE, str(SRC)],
            capture_output=True, text=True, timeout=120, cwd=str(ROOT), check=True,
        )
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def load_pinned() -> dict:
    if PINNED.is_file():
        return json.loads(PINNED.read_text())
    return {"default_seed": DEFAULT_SEED, "digests": {}, "sweep_shapes": {}}


# ------------------------------------------------------------- op running


class Runner:
    """Runs ops, times them, checks them outside the timed span."""

    def __init__(self, ops, pinned_digests: dict | None, corrupt=None, tracer=None):
        self.ops = ops
        self.pinned = pinned_digests
        self.corrupt = corrupt
        self.tracer = tracer
        self.times: list[float] = []
        self.op_times: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.traced_records = 0
        # op key -> digest of an output that passed its oracle in this run;
        # a byte-identical output of the same op needs no second oracle pass
        self.verified: dict[str, str] = {}

    def run_op(self, op, traced: bool = False, timed: bool = True) -> str | None:
        """Run one op; returns its output digest, or None if it failed."""
        try:
            if traced:
                self.tracer.active = True
            t0 = perf_counter()
            try:
                out = op.run()
            finally:
                dt = perf_counter() - t0
                if traced:
                    self.tracer.active = False
            if self.corrupt is not None:
                out = self.corrupt(out)
            if traced and op.records is not None:
                self.traced_records += op.records(out)
            digest = hashlib.sha256(op.render(out)).hexdigest()
            want = None if self.pinned is None else self.pinned.get(op.key)
            if self.pinned is not None and want is None:
                raise CheckError(f"{op.key}: no pinned digest")
            if want is not None:
                if digest != want:
                    raise CheckError(f"{op.key}: output digest differs from the pinned digest")
            elif self.verified.get(op.key) != digest:
                op.oracle(out)
                self.verified[op.key] = digest
        except Exception as exc:  # an op that raises or fails its check counts as failed
            if timed:
                self.attempted += 1
                self.failed += 1
            self.errors.append(f"{op.key}: {type(exc).__name__}: {exc}")
            return None
        if timed:
            self.attempted += 1
            self.times.append(dt)
            self.op_times.setdefault(op.key, []).append(dt)
        return digest

    def run_round(self, traced: bool = False) -> list[str | None]:
        return [self.run_op(op, traced=traced) for op in self.ops]


def percentile(sorted_vals: list[float], p: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    n = len(sorted_vals)
    rank = max(1, math.ceil(p / 100 * n))
    return sorted_vals[rank - 1], n - rank


def tail(sorted_vals: list[float]) -> tuple[float, float, int]:
    """Highest ladder percentile with at least ten samples beyond it.

    With fewer than twenty samples no percentile qualifies and the
    maximum is reported as percentile 100 with nothing beyond it.
    """
    for p in reversed(TAIL_LADDER):
        value, beyond = percentile(sorted_vals, p)
        if beyond >= TAIL_MIN_BEYOND:
            return p, value, beyond
    return 100.0, sorted_vals[-1], 0


def lanes_per_s(runner: Runner) -> float:
    """Lanes of one round over the sum of each op's median time.

    The per-op median across rounds keeps a burst of contention on a
    shared machine from moving the figure.
    """
    lanes = sum(op.lanes for op in runner.ops if op.key in runner.op_times)
    total = sum(statistics.median(t) for t in runner.op_times.values())
    return lanes / total if total else 0.0


def environment(seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "seed": seed,
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            path = ROOT / ".git" / ref[5:]
            if path.is_file():
                return path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown"


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# ------------------------------------------------------------------ runs


def run(workload: str, seed: int, seconds: float, trace: bool, scale: str = "full",
        corrupt=None, setup_count: int = SETUP_SAMPLES) -> dict:
    """One benchmark run; returns the result object plus a ``detail`` entry."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    modules = import_hullforge()
    tracer = tracing.Tracer() if trace else None
    if tracer is not None:
        tracer.install()
        tracer.active = True
    try:
        ctx = load_context(modules)
    finally:
        if tracer is not None:
            tracer.active = False
    pinned_all = load_pinned()
    pinned = None
    if seed == pinned_all["default_seed"]:
        pinned = pinned_all["digests"].get(scale, {}).get(workload, {})
    ops = build_ops(ctx, workload, seed, scale, pinned_all)
    runner = Runner(ops, pinned, corrupt=corrupt, tracer=tracer)
    runner.run_op(ops[0], timed=False)  # warm-up: lazy tables fill here
    try:
        if trace:
            result, detail = _traced(runner, modules["search"], tracer)
        else:
            result, detail = _untraced(runner, seconds, setup_count)
    finally:
        if tracer is not None:
            tracer.uninstall()
    detail.update({
        "workload": workload, "scale": scale, "seconds": seconds, "trace": int(trace),
        "ops_per_round": len(ops), "fail_ratio": runner.failed / max(1, runner.attempted),
        "errors": runner.errors[:5], "environment": environment(seed),
    })
    result["detail"] = detail
    return result


def _round_digest(digests) -> str:
    return hashlib.sha256("\n".join(d or "-" for d in digests).encode()).hexdigest()


def _untraced(runner: Runner, seconds: float, setup_count: int):
    rounds = 0
    first = None
    while True:
        digests = runner.run_round()
        first = first or digests
        rounds += 1
        if sum(runner.times) >= seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup = setup_samples(setup_count)
    times = sorted(runner.times) or [0.0]
    p50, _ = percentile(times, 50)
    tail_p, tail_v, beyond = tail(times)
    metrics = {
        "setup_s": _metric(statistics.median(setup), "s"),
        "lanes_per_s": _metric(lanes_per_s(runner), "1/s"),
        "op_p50_ms": _metric(p50 * 1e3, "ms"),
        "op_tail_ms": _metric(tail_v * 1e3, "ms"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
    }
    detail = {
        "rounds": rounds, "ops_timed": len(runner.times), "timed_s": sum(runner.times),
        "tail_percentile": tail_p, "tail_samples_beyond": beyond,
        "setup_samples_s": setup, "round_digest": _round_digest(first),
        "slowest_ops_median_ms": dict(sorted(
            ((key, statistics.median(t) * 1e3) for key, t in runner.op_times.items()),
            key=lambda kv: -kv[1])[:10]),
    }
    return _result(runner, metrics), detail


def _cache_info(search, name: str):
    fn = getattr(search, name, None)
    return fn.cache_info() if hasattr(fn, "cache_info") else None


def _traced(runner: Runner, search, tracer: tracing.Tracer):
    caches = {"rank3_table": "_rank3_table", "sym_rank_lut": "_sym_rank_lut"}
    before = {k: _cache_info(search, v) for k, v in caches.items()}
    t0 = len(runner.times)
    traced = runner.run_round(traced=True)
    traced_s = sum(runner.times[t0:])
    after = {k: _cache_info(search, v) for k, v in caches.items()}
    t1 = len(runner.times)
    plain = runner.run_round(traced=False)
    plain_s = sum(runner.times[t1:])
    for op, a, b in zip(runner.ops, traced, plain):
        if a is not None and b is not None and a != b:
            runner.attempted += 1
            runner.failed += 1
            runner.errors.append(f"{op.key}: traced output differs from untraced output")

    s = tracer.summary()
    names, layers = s["names"], s["layers"]
    metrics = {}
    for unit_name, unit in per_layer_units().items():
        head, _, field = unit_name.rpartition(".")
        if head in layers:
            value = layers[head][field]
        elif head in names:
            value = names[head][field]
        elif field in ("calls", "self_s", "busy_s"):
            value = 0
        else:
            continue
        metrics[unit_name] = _metric(value, unit)
    records = runner.traced_records
    constructs = tracer.count_children("buildup.construct", "search.sweep_extensions")
    metrics["search.sweep.constructs_per_record"] = _metric(constructs / records if records else 0.0, "ratio")
    for key in caches:
        if before[key] is None:
            del metrics[f"search.{key}.hit_ratio"]
            continue
        hits = after[key].hits - before[key].hits
        misses = after[key].misses - before[key].misses
        metrics[f"search.{key}.hit_ratio"] = _metric(hits / (hits + misses) if hits + misses else 0.0, "ratio")
    # untraced lanes_per_s over traced lanes_per_s for the same round
    metrics["trace.overhead_ratio"] = _metric(traced_s / plain_s, "ratio")
    total_self = sum(v["self_s"] for v in layers.values()) or 1.0
    detail = {
        "spans": s["spans"], "traced_s": traced_s, "untraced_s": plain_s,
        "self_share": {k: v["self_s"] / total_self for k, v in layers.items()},
        "round_digest": _round_digest(plain), "traced_round_digest": _round_digest(traced),
        "sweep_records": records,
    }
    return _result(runner, metrics), detail


def _result(runner: Runner, metrics: dict) -> dict:
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }


# ------------------------------------------------------------------ pins


def pin(scales=("full", "tiny")) -> dict:
    """Recompute the default seed's digests, oracle-checking every op first."""
    modules = import_hullforge()
    ctx = load_context(modules)
    pinned = {"default_seed": DEFAULT_SEED, "digests": {}, "sweep_shapes": {}}

    for scale in scales:
        for label, th, md in SWEEP_OPS[scale]:
            entry = ctx.by_label[label]
            recs = modules["search"].sweep_extensions(entry.code(), th, md, seed_id=label)
            lines = [modules["search"].format_sweep_record(r) for r in recs]
            pinned["sweep_shapes"][f"{label}/h{th}/d{md}"] = digest_lines(map(" ".join, sweep_shape(lines)))
    for scale in scales:
        pinned["digests"][scale] = {}
        for workload in WORKLOADS:
            ops = build_ops(ctx, workload, DEFAULT_SEED, scale, pinned)
            runner = Runner(ops, None)
            digests = runner.run_round()
            if runner.failed:
                raise CheckError(f"{scale}/{workload}: oracle failures: {runner.errors[:3]}")
            pinned["digests"][scale][workload] = {op.key: d for op, d in zip(ops, digests)}
            print(f"pinned {scale}/{workload}: {len(ops)} ops", file=sys.stderr)
    return pinned


# ------------------------------------------------------------------- main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="hullforge benchmark")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--pin", action="store_true",
                        help="rewrite pinned.json from the current code (default seed)")
    args = parser.parse_args(argv)
    try:
        if args.pin:
            PINNED.write_text(json.dumps(pin(), indent=1, sort_keys=True) + "\n")
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    except (FileNotFoundError, ImportError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    detail = result.pop("detail")
    for err in detail["errors"]:
        print(f"check failed: {err}", file=sys.stderr)
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
