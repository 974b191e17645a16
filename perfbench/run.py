#!/usr/bin/env python3
"""formlab benchmark: time to a verified report, end to end and per layer.

    python3 perfbench/run.py --workload spectra-cold --seed 7 --seconds 50 --trace 0

Without ``--workload`` it runs every workload in turn, ``identities``
included, which BENCHMARK.json leaves out (see README.md).

Every measured run is a fresh ``python -m formlab.cli`` process on the
sources in ``src/`` of the checkout this file sits in; one client runs
one process at a time (closed loop).  Each report is checked (exit 0,
the expected number of checks, every check passed) and hashed without
its ``timing`` section; every report of one invocation must have the
same digest.

``--trace 0`` prints the end-to-end metrics (means over the timed
runs for the times, see ``end_to_end``).  ``--trace 1`` runs the workload once untraced and twice under
the wrappers of ``tracer.py`` and prints the per-layer metrics.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md
in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEADLINE_S = 170.0        # one invocation must end within 180 s
SETUP_REPEATS = 5


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple[str, ...]
    checks: int               # checks in every report of this config
    jobs: int = 1
    cache: str | None = None  # None, "cold" (fresh empty dir per run) or
                              # "warm" (filled at set-up)
    setup_repeats: int = SETUP_REPEATS


# Each config takes a few seconds, so that one run holds a dozen or more
# timed processes and their average is not at the mercy of one of them.
WORKLOADS = {w.name: w for w in (
    # bottom layers only: polynomials, Fraction, quadrature, polyform;
    # left out of BENCHMARK.json so that the two workloads there get
    # longer runs in the same time (README.md)
    Workload("identities", ("verify", "--dim", "2,3,4", "--radius", "1/2",
                            "--degree", "1"), 36),
    # basis builds, cache writes and extend(): the cache write side
    Workload("spectra-cold", ("spectrum", "--dim", "4", "--lmax", "1"), 9,
             cache="cold"),
    # every suite on 2 workers, every basis read from disk; one set-up
    # includes a full run of the program that fills the cache
    Workload("mixed-warm", ("all", "--dim", "3", "--lmax", "2"), 36,
             jobs=2, cache="warm", setup_repeats=3),
)}

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
                    "check_pass_ratio": "ratio", "setup_s": "s"}

SUITES = ("identities", "spectra", "bounds", "curvature")

# per-layer metric -> (trace group, field); see tracer.Tracer.summary
LAYER_FIELDS = {
    "polynomials.mul.calls": ("polynomials.mul", "calls"),
    "polynomials.mul.term_pairs": ("polynomials.mul", "work"),
    "polynomials.mul.self_s": ("polynomials.mul", "self_s"),
    "polynomials.add.calls": ("polynomials.add", "calls"),
    "polynomials.add.self_s": ("polynomials.add", "self_s"),
    "quadrature.integrate.calls": ("quadrature.integrate", "calls"),
    "quadrature.integrate.self_s": ("quadrature.integrate", "self_s"),
    "quadrature.density.calls": ("quadrature.density", "calls"),
    "quadrature.density.self_s": ("quadrature.density", "self_s"),
    "polyform.calls": ("polyform", "calls"),
    "polyform.self_s": ("polyform", "self_s"),
    "ball.jstar_inner.calls": ("ball.jstar_inner", "calls"),
    "identities.verify.calls": ("identities.verify", "calls"),
    "harmonic.get.calls": ("harmonic.get", "calls"),
    "harmonic.get.computes": ("harmonic.build", "outer"),
    "harmonic.get.self_s": ("harmonic.get", "self_s"),
    "harmonic.build_s": ("harmonic.build", "incl_s"),
    "linalg.rref.calls": ("linalg.rref", "calls"),
    "linalg.rref.cells": ("linalg.rref", "work"),
    "linalg.rref.self_s": ("linalg.rref", "self_s"),
    "spectral.assemble.calls": ("spectral.assemble", "calls"),
    "spectral.assemble.self_s": ("spectral.assemble", "self_s"),
    "spectral.extend.calls": ("spectral.extend", "calls"),
    "spectral.extend.s": ("spectral.extend", "incl_s"),
    "spectral.eigh.s": ("spectral.eigh", "incl_s"),
    "spectral.certify.calls": ("spectral.certify", "calls"),
    "spectral.certify.s": ("spectral.certify", "incl_s"),
    "curvature.s": ("curvature", "incl_s"),
}
# per-layer metric -> trace groups whose self time it sums
LAYER_SELF_SUMS = {
    "ball.self_s": ("ball", "ball.jstar_inner"),
    "identities.self_s": ("identities", "identities.verify"),
}
COUNT_METRIC_SUFFIXES = (".calls", ".term_pairs", ".cells", ".computes")


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in [*LAYER_FIELDS, *LAYER_SELF_SUMS]:
        units[name] = "count" if name.endswith(COUNT_METRIC_SUFFIXES) else "s"
    units["harmonic.get.disk_loads"] = "count"
    for suite in SUITES:
        units[f"cli.suite.{suite}_s"] = "s"
    units["cli.worker_utilisation"] = "ratio"
    units["trace.overhead_s"] = "s"
    return units


def layer_metrics(summary: dict) -> dict[str, float]:
    """Per-layer values from one trace summary (tracer.Tracer.summary)."""
    groups = summary["groups"]

    def field(group, key):
        return groups.get(group, {}).get(key, 0)

    out = {name: field(g, k) for name, (g, k) in LAYER_FIELDS.items()}
    for name, parts in LAYER_SELF_SUMS.items():
        out[name] = sum(field(g, "self_s") for g in parts)
    out["harmonic.get.disk_loads"] = summary["counts"].get("harmonic.disk_load", 0)
    return out


def report_digest(report: dict) -> str:
    """sha256 of the report without its non-deterministic timing section."""
    body = {k: v for k, v in report.items() if k != "timing"}
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


@dataclass
class RunResult:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    report: dict | None
    error: str | None


class Bench:
    """One benchmark invocation: its working directory, the runs made in
    it and the tallies the result line reports."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.started = time.perf_counter()
        base = os.path.join(ROOT, ".perfbench-work")
        os.makedirs(base, exist_ok=True)
        self.work = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=base)
        self.env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        self.runs = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.notes: list[str] = []     # human lines printed before the metrics
        self.digests: dict[str, str] = {}

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.work))
        except OSError:   # another invocation is still using it
            pass

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.started)

    def _path(self, name: str) -> str:
        return os.path.join(self.work, name)

    def spawn(self, argv: list[str], log: str) -> tuple[float, float, float, int]:
        """Run one child to completion; (wall s, cpu s, peak RSS MB, exit
        code).  The child is killed when the invocation's deadline passes."""
        t0 = time.perf_counter()
        with open(self._path(log), "w") as out:
            proc = subprocess.Popen(argv, cwd=self.work, env=self.env,
                                    stdout=out, stderr=subprocess.STDOUT)
        timer = threading.Timer(max(self.remaining(), 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:   # interrupted: stop the child before leaving
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, code

    def cli_args(self, jobs: int, out: str, cache: str | None) -> list[str]:
        args = [*self.workload.args, "--jobs", str(jobs), "--seed", str(self.seed),
                "--out", out]
        return args + (["--cache", cache] if cache else [])

    def run_cli(self, label: str, jobs: int, cache: str | None,
                trace_out: str | None = None) -> RunResult:
        """One formlab CLI process (traced when ``trace_out`` is given),
        with its report checked and hashed."""
        self.runs += 1
        out = self._path(f"out-{self.runs}")
        args = self.cli_args(jobs, out, cache)
        if trace_out:
            argv = [sys.executable, os.path.join(HERE, "tracer.py"), trace_out, *args]
        else:
            argv = [sys.executable, "-m", "formlab.cli", *args]
        log = f"log-{self.runs}.txt"
        wall, cpu, rss, code = self.spawn(argv, log)
        try:
            report = self._read_report(out)
            error = self.check_report(report, code)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            report, error = None, f"no readable report: {exc!r}"
        # a crash, a nonzero exit or a failed output check fails every check
        self.attempted += self.workload.checks
        if error is None:
            self.digests[label] = report_digest(report)
        else:
            self.failed += self.workload.checks
            self.errors.append(f"{label}: {error} (log {log}):\n" + self._tail(log))
        return RunResult(wall, cpu, rss, report, error)

    def _read_report(self, out: str) -> dict:
        (run_dir,) = os.listdir(out)
        with open(os.path.join(out, run_dir, "report.json")) as fh:
            return json.load(fh)

    def check_report(self, report: dict, code: int) -> str | None:
        summary = report["summary"]
        checks = [rec for suite in report["suites"].values() for rec in suite["checks"]]
        if summary["total"] != self.workload.checks or len(checks) != summary["total"]:
            return f"expected {self.workload.checks} checks, report has {summary['total']}"
        failing = [rec["id"] for rec in checks if rec.get("pass") is not True]
        if failing or summary["failed"]:
            return f"{len(failing)} checks failed: {failing[:5]}"
        if code != 0:
            return f"exit code {code}"
        return None

    def _tail(self, log: str, lines: int = 15) -> str:
        try:
            with open(self._path(log)) as fh:
                return "".join(fh.readlines()[-lines:])
        except OSError:
            return ""

    # -- workload steps ----------------------------------------------------

    def setup(self, repeats: int) -> tuple[float, str | None]:
        """Set up ``repeats`` times; returns the median set-up seconds and
        the cache directory the timed runs use.

        One set-up is a fresh interpreter importing ``formlab.cli`` (the
        program's load cost, which also byte-compiles the sources on the
        first run) and, for a warm-cache workload, a ``--jobs 1`` run that
        fills a fresh cache directory."""
        times = []
        cache = None
        for i in range(repeats):
            t0 = time.perf_counter()
            _, _, _, code = self.spawn([sys.executable, "-c", "import formlab.cli"],
                                       f"setup-import-{i}.txt")
            if code != 0:
                raise SystemExit(f"formlab does not import:\n{self._tail(f'setup-import-{i}.txt')}")
            if self.workload.cache == "warm":
                cache = self._path(f"cache-{i}")
                self.run_cli("setup --jobs 1", 1, cache)
            times.append(time.perf_counter() - t0)
        return statistics.median(times), cache

    def fresh_cache(self) -> str | None:
        """The cache directory for one timed run."""
        if self.workload.cache != "cold":
            return None
        path = self._path(f"cold-{self.runs + 1}")
        os.makedirs(path)
        if os.listdir(path):
            raise RuntimeError(f"cold cache directory {path} is not empty")
        return path

    def timed_runs(self, seconds: float, warm_cache: str | None) -> list[RunResult]:
        """Closed loop: run processes one after another while the last one's
        duration still fits in ``seconds`` (at least one)."""
        results: list[RunResult] = []
        t0 = time.perf_counter()
        while True:
            cache = self.fresh_cache() or warm_cache
            res = self.run_cli(f"timed run {len(results) + 1}", self.workload.jobs, cache)
            results.append(res)
            elapsed = time.perf_counter() - t0
            if res.error or elapsed + res.wall_s > seconds \
                    or 1.5 * res.wall_s > self.remaining():
                return results

    def digest_errors(self) -> list[str]:
        distinct = set(self.digests.values())
        if len(distinct) <= 1:
            return []
        return ["report digests differ: " + ", ".join(
            f"{label}={d[:12]}" for label, d in self.digests.items())]


def end_to_end(bench: Bench, seconds: float) -> dict[str, float]:
    """End-to-end metrics of one invocation.

    Times are means over the timed processes.  On a shared host a process
    runs at one of two speeds, about 1.5x apart, for stretches of 10 to
    20 s.  The mean moves in proportion to the share of slow time in the
    run; the median of such a two-state mixture jumps from one state to
    the other when that share is near one half."""
    setup_s, cache = bench.setup(bench.workload.setup_repeats)
    runs = bench.timed_runs(seconds, cache)
    ok = [r for r in runs if r.error is None] or runs
    for name in ("wall_s", "cpu_s"):
        samples = " ".join(f"{getattr(r, name):.3f}" for r in ok)
        bench.notes.append(f"{name} of the {len(ok)} timed processes: {samples}")
    return {
        "wall_s": statistics.fmean(r.wall_s for r in ok),
        "cpu_s": statistics.fmean(r.cpu_s for r in ok),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in ok),
        "check_pass_ratio": (bench.attempted - bench.failed) / bench.attempted,
        "setup_s": setup_s,
    }


def per_layer(bench: Bench) -> dict[str, float]:
    w = bench.workload
    _, cache = bench.setup(1)
    base = bench.run_cli("untraced run", w.jobs, bench.fresh_cache() or cache)
    traced, summaries = [], []
    for i in (1, 2):
        path = bench._path(f"trace-{i}.json")
        traced.append(bench.run_cli(f"traced run {i}", w.jobs,
                                    bench.fresh_cache() or cache, trace_out=path))
        try:
            with open(path) as fh:
                summaries.append(json.load(fh))
        except (OSError, ValueError) as exc:
            bench.errors.append(f"traced run {i}: no trace written: {exc}")
            return {}
    first, second = (layer_metrics(s) for s in summaries)
    for name, value in first.items():
        if name.endswith(COUNT_METRIC_SUFFIXES) and value != second[name]:
            bench.errors.append(f"count {name} differs between traced runs: "
                                f"{value} != {second[name]}")
    if w.cache == "warm":
        for i, m in enumerate((first, second), 1):
            if m["harmonic.get.computes"] != 0 or m["harmonic.get.disk_loads"] <= 0:
                bench.errors.append(
                    f"traced run {i}: warm cache was not used (computes "
                    f"{m['harmonic.get.computes']}, disk loads {m['harmonic.get.disk_loads']})")
    timing = (base.report or {}).get("timing", {})
    for suite in SUITES:
        first[f"cli.suite.{suite}_s"] = float(timing.get(suite, 0.0))
    first["cli.worker_utilisation"] = base.cpu_s / (base.wall_s * w.jobs)
    first["trace.overhead_s"] = statistics.median(r.wall_s for r in traced) - base.wall_s
    return first


def run(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Run one benchmark invocation and return its result object."""
    bench = Bench(workload, seed)
    try:
        try:
            values = per_layer(bench) if trace else end_to_end(bench, seconds)
        except RuntimeError as exc:   # a workload guard
            bench.errors.append(str(exc))
            values = {}
        bench.errors += bench.digest_errors()
        units = per_layer_units() if trace else END_TO_END_UNITS
        missing = [name for name in units if name not in values]
        if missing and not bench.errors:
            bench.errors.append(f"metrics not measured: {missing}")
        return {
            "correct": not bench.errors and bench.failed == 0,
            "attempted": bench.attempted or 1,
            "failed": bench.failed if bench.attempted else 1,
            "metrics": {name: {"value": values.get(name, 0.0), "unit": unit}
                        for name, unit in units.items()},
            "digest": next(iter(bench.digests.values()), None),
            "errors": bench.errors,
            "notes": bench.notes,
        }
    finally:
        bench.close()


def format_result(result: dict) -> str:
    """Human lines, one per metric with its unit, then the JSON line."""
    lines = [f"digest {result['digest']}"]
    lines += result["notes"]
    lines += [f"error: {e}" for e in result["errors"]]
    lines += [f"{name:30s} {m['value']!r} {m['unit']}"
              for name, m in result["metrics"].items()]
    lines.append(f"checks attempted {result['attempted']} failed {result['failed']}")
    line = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    lines.append(json.dumps(line))
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*sorted(WORKLOADS), "all"],
                        help="one workload, or all of them in turn (default)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # terminate through the cleanup path, which stops the running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not os.path.isfile(os.path.join(ROOT, "src", "formlab", "cli.py")):
        print(f"no formlab sources under {ROOT}/src: run from a formlab checkout",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    correct = True
    for name in names:
        result = run(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        if len(names) > 1:
            print(f"== {name}")
        print(format_result(result), flush=True)
        correct = correct and result["correct"]
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
