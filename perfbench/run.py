"""Benchmark for wallsunsun: three `search` workloads and one `check` workload.

Run from the repository root:

    python3 perfbench/run.py --workload search-all --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py    # all four workloads, end-to-end then traced

The library is imported from ./src of the checkout; nothing is installed.
Each run prints its metrics one per line, then, as the last line, one JSON
object with the keys correct, attempted, failed and metrics. With --trace 0
the metrics are the end-to-end ones, measured with tracing off; with
--trace 1 a separate single-process traced pass gives the per-layer ones;
without --trace the run does both.
See perfbench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import inputs
from spans import MODULES, TRACED_NAMES, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

SEARCH_JOBS = 2  # equals nproc on the reference machine, the CLI default there
SETUP_PER_PASS = 1  # fresh-interpreter set-ups timed before the first pass and after each


def load_package():
    """Import wallsunsun from ./src of this checkout, or exit without a result."""
    if not (SRC / "wallsunsun" / "__init__.py").is_file():
        sys.exit(f"perfbench: no library source at {SRC / 'wallsunsun'}")
    sys.path.insert(0, str(SRC))
    import wallsunsun
    import wallsunsun.cli

    if Path(wallsunsun.__file__).resolve().parent != SRC / "wallsunsun":
        sys.exit(f"perfbench: imported wallsunsun from {wallsunsun.__file__}, not {SRC}")
    return wallsunsun


# --------------------------------------------------------------------------
# workloads; perfbench/README.md says why each exists

SEARCH_WORKLOADS = {  # name: (criterion, p_max)
    "search-all": ("all", 1500),
    "search-period": ("period", 3000),
    "search-alpha": ("alpha", 20000),
}
CHECK_WORKLOAD = "check-large-k"
WORKLOADS = [*SEARCH_WORKLOADS, CHECK_WORKLOAD]


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0

    def record(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok


@dataclass
class Pass:
    """One closed-loop pass over a workload's inputs."""

    seconds: float
    latencies_ms: list[float]


class SearchRunner:
    """Drives wallsunsun.wss.search over one seeded 20-k window."""

    def __init__(self, pkg, criterion: str, p_max: int, seed: int):
        self.pkg = pkg
        self.criterion = criterion
        self.p_max = p_max
        wss = pkg.wss
        self.k_min, self.k_max = inputs.search_window(seed, wss.validate_k)
        self.valid_k = {
            k for k in range(self.k_min, self.k_max + 1) if wss.validate_k(k).satisfied
        }
        # the output check: the hits of the entry criterion, an independent detector
        reference = wss.search(self.k_min, self.k_max, p_max, "entry", jobs=1)
        self.expected_hits = {(h.k, h.p) for h in reference.hits if h.k in self.valid_k}
        self.expected_skipped = (
            set(range(self.k_min, self.k_max + 1)) - self.valid_k
            if criterion != "period"
            else set()
        )
        self.n_primes = len(inputs.primes_upto(p_max))
        self.cells = (self.k_count - len(self.expected_skipped)) * self.n_primes

    def describe(self) -> str:
        return (
            f"search(k {self.k_min}..{self.k_max}, p_max={self.p_max}, "
            f"{self.criterion!r}): {len(self.valid_k)} k pass validate_k, "
            f"{self.n_primes} primes"
        )

    @property
    def k_count(self) -> int:
        return self.k_max - self.k_min + 1

    def warmup(self) -> None:
        self.pkg.wss.search(self.k_min, self.k_min, 5, self.criterion, jobs=1)

    def setup_code(self) -> str:
        return f"from wallsunsun.wss import search\nsearch(1, 1, 5, {self.criterion!r}, jobs=1)\n"

    def run_pass(self, tally: Tally, jobs: int) -> Pass:
        search = self.pkg.wss.search
        t0 = time.perf_counter()
        try:
            res = search(self.k_min, self.k_max, self.p_max, self.criterion, jobs=jobs)
        except Exception as exc:  # a raising operation is a failed one
            dt = time.perf_counter() - t0
            print(f"search failed: {exc!r}", file=sys.stderr)
            tally.record(False)
            return Pass(dt, [dt * 1000])
        dt = time.perf_counter() - t0
        hits = {(h.k, h.p) for h in res.hits if h.k in self.valid_k}
        ok = hits == self.expected_hits and set(res.skipped_k) == self.expected_skipped
        if not ok:
            print(f"search output mismatch for {self.describe()}", file=sys.stderr)
        tally.record(ok)
        return Pass(dt, [dt * 1000])


class CheckRunner:
    """Drives wallsunsun.cli.main(["check", ...]) over seeded (k, p) pairs."""

    def __init__(self, pkg, seed: int):
        self.pkg = pkg
        self.cases = inputs.check_cases(seed, pkg.wss.validate_k)
        self.cells = len(self.cases)

    def describe(self) -> str:
        lo, hi = inputs.CHECK_K_RANGE
        return f"{len(self.cases)} check calls, k in [{lo}, {hi}), prime p <= {inputs.CHECK_P_MAX}"

    @property
    def k_count(self) -> int:
        return len({k for k, _ in self.cases})

    def _call(self, k: int, p: int) -> tuple[float, bool]:
        main = self.pkg.cli.main
        out, err = io.StringIO(), io.StringIO()
        argv = ["check", "--k", str(k), "--p", str(p), "--format", "json"]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                rc = main(argv)
            except Exception as exc:  # a raising operation is a failed one
                rc = exc
            dt = time.perf_counter() - t0
        ok = rc == 0 and self._output_ok(out.getvalue(), k, p)
        if not ok:
            print(f"check k={k} p={p} failed: rc={rc!r} {err.getvalue().strip()}", file=sys.stderr)
        return dt, ok

    @staticmethod
    def _output_ok(text: str, k: int, p: int) -> bool:
        try:
            record = json.loads(text)
        except ValueError:
            return False
        return (
            record.get("schema_version") == "1"
            and record.get("command") == "check"
            and record.get("inputs") == {"k": k, "p": p}
            and record.get("result", {}).get("consistent") is True
        )

    def warmup(self) -> None:
        self._call(*self.cases[0])

    def setup_code(self) -> str:
        return (
            "import contextlib, io\n"
            "from wallsunsun.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    rc = main(['check', '--k', '1', '--p', '5', '--format', 'json'])\n"
            "raise SystemExit(rc)\n"
        )

    def run_pass(self, tally: Tally, jobs: int) -> Pass:
        lat = []
        for k, p in self.cases:
            dt, ok = self._call(k, p)
            tally.record(ok)
            lat.append(dt * 1000)
        return Pass(sum(lat) / 1000, lat)


def make_runner(pkg, name: str, seed: int):
    if name == CHECK_WORKLOAD:
        return CheckRunner(pkg, seed)
    return SearchRunner(pkg, *SEARCH_WORKLOADS[name], seed)


# --------------------------------------------------------------------------
# measurement


def time_setups(runner, repeats: int) -> list[float]:
    """Wall times of fresh interpreters that import the package and run one untimed cell."""
    # The child bounds its own life with an alarm: a timeout on the parent's
    # wait would poll, and the polling interval would show in the time.
    code = (
        "import signal, sys\n"
        "signal.alarm(120)\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "import wallsunsun, wallsunsun.cli\n" + runner.setup_code()
    )
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-I", "-c", code], check=True)
        times.append(time.perf_counter() - t0)
    return times


def p90(samples: list[float]) -> float:
    """90th percentile, interpolated between order statistics.

    Interpolation keeps the estimate smooth when the number of calls that
    fit in a run changes. A search run makes only a few calls, so fewer than
    10 lie beyond it there; the run prints how many do.
    """
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=10, method="inclusive")[-1]


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


def run_end_to_end(pkg, name: str, seed: int, seconds: float, report) -> tuple[Tally, dict]:
    runner = make_runner(pkg, name, seed)
    report(f"inputs: {runner.describe()}")
    runner.warmup()
    # Set-ups are timed between passes, so that slow phases of a shared host
    # fall on both alike; only the passes count towards the measured seconds.
    setups = time_setups(runner, SETUP_PER_PASS)
    tally = Tally()
    passes: list[Pass] = []
    busy = 0.0
    while not passes or busy < seconds:
        passes.append(runner.run_pass(tally, SEARCH_JOBS))
        busy += passes[-1].seconds
        setups += time_setups(runner, SETUP_PER_PASS)
    latencies = [x for p in passes for x in p.latencies_ms]
    tail = p90(latencies)
    report(
        f"passes: {len(passes)}, latency samples: {len(latencies)} "
        f"({sum(x > tail for x in latencies)} beyond p90), set-ups: {len(setups)}"
    )
    report(f"error_rate: {tally.failed}/{tally.attempted} = {tally.failed / tally.attempted:g}")
    metrics = {
        "cells_per_s": (statistics.median(runner.cells / p.seconds for p in passes), "cells/s"),
        "latency_p50_ms": (statistics.median(latencies), "ms"),
        "latency_p90_ms": (tail, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return tally, metrics


# Per-layer metrics of the traced pass: span name and the fields reported for
# it. perfbench/README.md lists the end-to-end metric each should move.
LAYER_METRICS = (
    *((f"trinomial.index_check_prime.case{c}", ("calls", "self_s")) for c in range(1, 6)),
    ("trinomial.fp_discriminant", ("self_s",)),
    ("trinomial.is_monogenic_fp", ("self_s",)),
    ("lucas.pisano_period", ("calls", "self_s", "calls_per_cell")),
    ("lucas.period_p_squared", ("self_s",)),
    ("lucas.lucas_u", ("self_s",)),
    ("quadring.eval_fp_alpha", ("calls", "self_s")),
    ("intmath.is_prime", ("calls", "self_s", "calls_per_cell")),
    ("intmath.factorize", ("calls", "self_s", "calls_per_k")),
    ("wss.search", ("self_s",)),
    ("wss.validate_k", ("calls", "self_s")),
    ("wss.classify", ("self_s",)),
    ("cli.main", ("self_s",)),
)
LAYER_UNITS = {"calls": "count", "self_s": "s", "calls_per_cell": "calls/cell", "calls_per_k": "calls/k"}


def run_traced(pkg, name: str, seed: int, report) -> tuple[Tally, dict]:
    runner = make_runner(pkg, name, seed)
    report(f"inputs: {runner.describe()}")
    runner.warmup()
    tally = Tally()
    single = runner.run_pass(tally, 1)
    tracer = Tracer(pkg)
    with tracer:
        traced = runner.run_pass(tally, 1)
    if isinstance(runner, SearchRunner):
        pooled = runner.run_pass(tally, SEARCH_JOBS).seconds
    else:
        pooled = single.seconds  # check calls run in-process, there is no pool
    path = OUT / f"spans-{name}-seed{seed}.json"
    tracer.dump(path)
    report(f"spans: {len(tracer.start)} written to {path.relative_to(ROOT)}")
    report(f"error_rate: {tally.failed}/{tally.attempted} = {tally.failed / tally.attempted:g}")

    summary = tracer.summary()
    cells, k_count = runner.cells, runner.k_count

    metrics = {"cells": (cells, "count"), "k_count": (k_count, "count")}
    bases = {"calls_per_cell": cells, "calls_per_k": k_count}
    for key, fields in LAYER_METRICS:
        row = summary.get(key, {})
        for field in fields:
            value = row.get("calls", 0) / bases[field] if field in bases else row.get(field, 0)
            metrics[f"{key}.{field}"] = (value, LAYER_UNITS[field])

    root_s = tracer.root_seconds()
    for module in MODULES:
        own = sum(v["self_s"] for k, v in summary.items() if k.split(".")[0] == module)
        metrics[f"{module}.self_pct"] = (100 * own / root_s if root_s else 0, "%")

    metrics["spans"] = (len(tracer.start), "count")
    metrics["traced_jobs1_s"] = (traced.seconds, "s")
    metrics["untraced_jobs1_s"] = (single.seconds, "s")
    metrics["trace_overhead_pct"] = (100 * (traced.seconds / single.seconds - 1), "%")
    metrics["jobs1_cells_per_s"] = (cells / single.seconds, "cells/s")
    metrics["jobs2_speedup"] = (single.seconds / pooled, "x")
    for key in TRACED_NAMES:
        metrics[f"{key}.errors"] = (summary.get(key, {}).get("errors", 0), "count")
    return tally, metrics


# --------------------------------------------------------------------------
# entry point


def machine() -> str:
    return (
        f"nproc={os.cpu_count()} arch={platform.machine()} "
        f"python={platform.python_implementation()} {platform.python_version()}"
    )


def run_workload(pkg, name: str, seed: int, seconds: float, trace: bool) -> tuple[Tally, dict]:
    def report(line: str) -> None:
        print(f"[{name}] {line}", flush=True)

    if trace:
        tally, metrics = run_traced(pkg, name, seed, report)
    else:
        tally, metrics = run_end_to_end(pkg, name, seed, seconds, report)
    for key, (value, unit) in metrics.items():
        report(f"{key} = {value:.6g} {unit}")
    return tally, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument(
        "--trace",
        type=int,
        choices=(0, 1),
        help="0: end-to-end metrics only, 1: traced per-layer metrics only (default: both)",
    )
    args = parser.parse_args(argv)

    pkg = load_package()
    print(f"machine: {machine()}", flush=True)
    names = WORKLOADS if args.workload == "all" else [args.workload]
    total = Tally()
    metrics = {}
    modes = (False, True) if args.trace is None else (bool(args.trace),)
    for name in names:
        for traced in modes:
            tally, found = run_workload(pkg, name, args.seed, args.seconds, traced)
            total.attempted += tally.attempted
            total.failed += tally.failed
            prefix = f"{name}." if len(names) > 1 else ""
            for key, (value, unit) in found.items():
                metrics[prefix + key] = {"value": value, "unit": unit}
    result = {
        "correct": total.failed == 0,
        "attempted": total.attempted,
        "failed": total.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
