"""Tests of the benchmark itself: metric output, self-time arithmetic and
wrapper removal.  Run with ``PYTHONPATH=src python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run as bench  # noqa: E402
import tracer  # noqa: E402


class FakeClock:
    def __init__(self, times):
        self.times = list(times)

    def __call__(self):
        return self.times.pop(0)


def test_self_time_on_synthetic_span_tree():
    # a(0..10) -> b(1..4) -> c(2..3); a -> b(5..9) -> b(6..8)
    clock = FakeClock([0, 0, 1, 2, 3, 4, 5, 6, 8, 9, 10])
    t = tracer.Tracer(clock=clock)
    a = t.enter("a", span=True)
    b1 = t.enter("b", span=True)
    c = t.enter("c", work=7, span=True)
    t.exit(c)
    t.exit(b1)
    b2 = t.enter("b", span=True)
    b3 = t.enter("b", span=True)
    t.exit(b3)
    t.exit(b2)
    t.exit(a)
    s = t.summary()
    g = s["groups"]
    assert g["a"] == {"calls": 1, "outer": 1, "self_s": 3, "incl_s": 10, "work": 0}
    # b: 3-1 + 4-2 + 2 self; inclusive counts only the outermost b calls
    assert g["b"] == {"calls": 3, "outer": 2, "self_s": 6, "incl_s": 7, "work": 0}
    assert g["c"] == {"calls": 1, "outer": 1, "self_s": 1, "incl_s": 1, "work": 7}
    assert sum(v["self_s"] for v in g.values()) == 10
    (thread,) = s["threads"]
    assert thread["spans"] == [["a", 0, 10, -1], ["b", 1, 4, 0], ["c", 2, 3, 1],
                               ["b", 5, 9, 0], ["b", 6, 8, 3]]


def _formlab_bindings():
    """Every attribute of every formlab module and class, by identity."""
    import scipy.linalg

    out = {("scipy.linalg", "eigh"): scipy.linalg.eigh}
    for name, mod in list(sys.modules.items()):
        if not (name == "formlab" or name.startswith("formlab.")):
            continue
        for attr, value in vars(mod).items():
            out[(name, attr)] = value
            if isinstance(value, type) and value.__module__ == name:
                for cattr, raw in vars(value).items():
                    out[(name, attr, cattr)] = raw
    return out


def test_wrappers_installed_then_removed():
    import formlab  # noqa: F401
    from formlab import cli, polynomials, spectral

    before = _formlab_bindings()
    mul = polynomials.Polynomial.__mul__
    assemble = spectral.assemble_operator
    t = tracer.Tracer()
    patches = tracer.install(t)
    try:
        assert polynomials.Polynomial.__mul__ is not mul
        # a from-import in another module is patched too
        assert cli.assemble_operator is not assemble
        assert cli.assemble_operator is spectral.assemble_operator
        x = polynomials.Polynomial.variable(2, 1)
        x * x + x
    finally:
        tracer.uninstall(patches)
    groups = t.summary()["groups"]
    assert groups["polynomials.mul"]["calls"] == 1
    assert groups["polynomials.mul"]["work"] == 1
    assert groups["polynomials.add"]["calls"] == 1
    after = _formlab_bindings()
    assert before.keys() == after.keys()
    changed = [k for k in before if before[k] is not after[k]]
    assert changed == []
    assert polynomials.Polynomial.__mul__ is mul


def _declared(kind):
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def test_tiny_config_prints_every_metric_with_unit():
    tiny = bench.Workload("tiny", ("verify", "--dim", "2"), checks=15, setup_repeats=1)
    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        result = bench.run(tiny, seed=7, seconds=0.1, trace=trace)
        assert result["correct"], result["errors"]
        text = bench.format_result(result)
        lines = text.splitlines()
        declared = _declared(kind)
        assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
        for name, unit in declared.items():
            assert any(line.split()[:1] == [name] and line.endswith(" " + unit)
                       for line in lines), name
        last = json.loads(lines[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["failed"] == 0 and last["attempted"] >= 15
    assert result["metrics"]["polynomials.mul.calls"]["value"] > 0
    assert result["metrics"]["spectral.extend.calls"]["value"] == 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(bench.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "identities"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_report_digest_ignores_timing():
    a = {"summary": {"total": 1}, "timing": {"identities": 1.0}}
    b = {"summary": {"total": 1}, "timing": {"identities": 2.0}}
    assert bench.report_digest(a) == bench.report_digest(b)
    assert bench.report_digest(a) != bench.report_digest({"summary": {"total": 2}})
