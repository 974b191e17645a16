"""Per-layer tracing of formlab from outside the program.

The wrappers are installed over formlab's public functions and methods
(module attributes are replaced in every ``formlab`` module that holds
them, so calls made inside formlab pass through the wrappers too) and
removed again when the traced run ends.

Each wrapped call pushes a frame on its thread's own stack.  On exit the
call's duration minus the time covered by its child frames is its self
time.  Calls are aggregated by group name (calls, outermost calls, self
seconds, inclusive seconds of outermost calls, work units); groups above
the hot bottom layers also keep one span per call (name, start, end,
parent span), written out when the run ends.

Run as a script, it executes one formlab CLI invocation under the
wrappers and writes the aggregates and spans as JSON::

    PYTHONPATH=src python3 perfbench/tracer.py OUT.json verify --dim 2
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
import types

# Groups called 10^5..10^6 times per run: aggregated only, no spans.
HOT_GROUPS = frozenset({"polynomials.mul", "polynomials.add",
                        "quadrature.integrate", "quadrature.density",
                        "polyform", "ball", "ball.jstar_inner"})

# Operator methods traced alongside the public (non-underscore) ones.
OPERATOR_METHODS = frozenset({"__add__", "__radd__", "__sub__", "__rsub__",
                              "__neg__", "__mul__", "__rmul__", "__pow__"})


class _ThreadState:
    __slots__ = ("index", "stack", "depth", "agg", "counts", "spans", "open_span")

    def __init__(self, index: int):
        self.index = index
        self.stack: list[list] = []        # [group, start, child_s, span, depth, work]
        self.depth: dict[str, int] = {}    # open frames per group
        self.agg: dict[str, list] = {}     # group -> [calls, outer, self_s, incl_s, work]
        self.counts: dict[str, int] = {}
        self.spans: list[list] = []        # [name, start, end, parent]
        self.open_span = -1


class Tracer:
    """Frame stacks, aggregates and spans, one state per thread.

    ``clock`` is injectable so the self-time arithmetic can be checked
    against a synthetic call tree.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.t0 = clock()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadState] = []

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            with self._lock:
                state = _ThreadState(len(self._threads))
                self._threads.append(state)
            self._local.state = state
            return state

    def enter(self, group: str, work: int = 0, span: bool = False) -> list:
        st = self._state()
        now = self.clock()
        depth = st.depth.get(group, 0)
        st.depth[group] = depth + 1
        span_index = None
        if span:
            span_index = len(st.spans)
            st.spans.append([group, now - self.t0, None, st.open_span])
            st.open_span = span_index
        frame = [group, now, 0.0, span_index, depth, work]
        st.stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        st = self._local.state
        end = self.clock()
        group, start, child, span_index, depth, work = frame
        dur = end - start
        st.stack.pop()
        st.depth[group] = depth
        agg = st.agg.get(group)
        if agg is None:
            agg = st.agg[group] = [0, 0, 0.0, 0.0, 0]
        agg[0] += 1
        agg[2] += dur - child
        agg[4] += work
        if depth == 0:
            agg[1] += 1
            agg[3] += dur
        if st.stack:
            st.stack[-1][2] += dur
        if span_index is not None:
            rec = st.spans[span_index]
            rec[2] = end - self.t0
            st.open_span = rec[3]

    def count(self, name: str) -> None:
        st = self._state()
        st.counts[name] = st.counts.get(name, 0) + 1

    def wrap(self, fn, group: str, work=None):
        """A wrapper that times ``fn`` under ``group``; ``work(*args)``
        gives the call's work units."""
        span = group not in HOT_GROUPS
        enter, exit_ = self.enter, self.exit

        def traced(*args, **kwargs):
            frame = enter(group, work(*args) if work else 0, span)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(frame)

        return functools.wraps(fn)(traced)

    def counter(self, fn, name: str):
        """A wrapper that only counts calls, leaving time to the caller."""
        count = self.count

        def counted(*args, **kwargs):
            count(name)
            return fn(*args, **kwargs)

        return functools.wraps(fn)(counted)

    def summary(self) -> dict:
        """Aggregates merged over threads, plus every span."""
        groups: dict[str, dict] = {}
        counts: dict[str, int] = {}
        threads = []
        for st in self._threads:
            for group, (calls, outer, self_s, incl_s, work) in st.agg.items():
                g = groups.setdefault(group, {"calls": 0, "outer": 0, "self_s": 0.0,
                                              "incl_s": 0.0, "work": 0})
                g["calls"] += calls
                g["outer"] += outer
                g["self_s"] += self_s
                g["incl_s"] += incl_s
                g["work"] += work
            for name, n in st.counts.items():
                counts[name] = counts.get(name, 0) + n
            threads.append({"thread": st.index, "spans": st.spans})
        return {"groups": groups, "counts": counts, "threads": threads}


# ---------------------------------------------------------------------------
# What is traced.
# ---------------------------------------------------------------------------

def _term_pairs(a, b=None, *rest):
    terms = getattr(b, "terms", None)
    return len(a.terms) * (len(terms) if terms is not None else 1)


def _cells(rows, *rest):
    return len(rows) * (len(rows[0]) if rows else 0)


def _public_callables(module):
    """(owner, attribute, raw value) for public functions defined in the
    module and public or operator methods of its public classes."""
    out = []
    for name, value in vars(module).items():
        if name.startswith("_"):
            continue
        if isinstance(value, types.FunctionType) and value.__module__ == module.__name__:
            out.append((module, name, value))
        elif isinstance(value, type) and value.__module__ == module.__name__:
            for attr, raw in vars(value).items():
                if attr.startswith("_") and attr not in OPERATOR_METHODS:
                    continue
                if isinstance(raw, (types.FunctionType, classmethod, staticmethod)):
                    out.append((value, attr, raw))
    return out


def _identities_group(attr: str) -> str:
    if attr.startswith("verify_") or attr.endswith("_residual") \
            or attr == "replay_proof_chain":
        return "identities.verify"
    return "identities"


def targets():
    """(owner, attribute, group, work, count_only) for every traced
    callable.  Groups name the per-layer metrics they feed."""
    import scipy.linalg

    from formlab import (ball, curvature, harmonic, identities, linalg,
                         polyform, polynomials, quadrature, spectral)

    P = polynomials.Polynomial
    out = [
        (P, "__mul__", "polynomials.mul", _term_pairs, False),
        (P, "__rmul__", "polynomials.mul", _term_pairs, False),
        (P, "__add__", "polynomials.add", None, False),
        (P, "__radd__", "polynomials.add", None, False),
        (quadrature, "integrate_sphere", "quadrature.integrate", None, False),
        (quadrature, "integrate_ball", "quadrature.integrate", None, False),
        (quadrature.RadialDensity, "__init__", "quadrature.density", None, False),
        (linalg, "rref", "linalg.rref", _cells, False),
        (scipy.linalg, "eigh", "spectral.eigh", None, False),
        # the disk-read step of BasisCache.get; counted, its time stays in get
        (harmonic, "_decode_basis", "harmonic.disk_load", None, True),
    ]
    special = {
        "jstar_inner": "ball.jstar_inner",
        "monomial_form_basis": "harmonic.build",
        "harmonic_field_basis": "harmonic.build",
        "split_closed_normal_null": "harmonic.build",
        "get": "harmonic.get",
        "assemble_operator": "spectral.assemble",
        "extend": "spectral.extend",
        "certify_eigenvalue": "spectral.certify",
    }
    layers = {polyform: "polyform", ball: "ball", identities: "identities",
              harmonic: "harmonic", spectral: "spectral", curvature: "curvature"}
    for module, layer in layers.items():
        for owner, attr, _ in _public_callables(module):
            if module is identities:
                group = _identities_group(attr)
            else:
                group = special.get(attr, layer)
            out.append((owner, attr, group, None, False))
    return out


def _wrap_raw(tracer: Tracer, raw, group, work, count_only):
    if isinstance(raw, (classmethod, staticmethod)):
        return type(raw)(_wrap_raw(tracer, raw.__func__, group, work, count_only))
    if count_only:
        return tracer.counter(raw, group)
    return tracer.wrap(raw, group, work)


def install(tracer: Tracer) -> list:
    """Install wrappers; returns the patch list that ``uninstall`` takes.

    A module-level function is replaced under every name that refers to
    it in the owning module and in every loaded formlab module, so
    ``from .x import f`` call sites are traced as well.
    """
    formlab_modules = [mod for name, mod in list(sys.modules.items())
                       if mod is not None
                       and (name == "formlab" or name.startswith("formlab."))]
    patches = []
    try:
        for owner, attr, group, work, count_only in targets():
            raw = vars(owner)[attr]
            wrapped = _wrap_raw(tracer, raw, group, work, count_only)
            sites = [(owner, attr)]
            if isinstance(owner, types.ModuleType):
                sites += [(mod, name) for mod in formlab_modules
                          for name, value in list(vars(mod).items())
                          if value is raw and (mod, name) != (owner, attr)]
            for holder, name in sites:
                patches.append((holder, name, raw))
                setattr(holder, name, wrapped)
    except Exception:
        uninstall(patches)
        raise
    return patches


def uninstall(patches: list) -> None:
    for holder, name, raw in reversed(patches):
        setattr(holder, name, raw)


def traced_main(out_path: str, argv: list[str]) -> int:
    """Run ``formlab.cli.main(argv)`` under the wrappers and write the
    trace summary to ``out_path``."""
    from formlab import cli

    tracer = Tracer()
    patches = install(tracer)
    try:
        frame = tracer.enter("cli.main", span=True)
        try:
            code = cli.main(argv)
        finally:
            tracer.exit(frame)
    finally:
        uninstall(patches)
    with open(out_path, "w") as fh:
        json.dump(tracer.summary(), fh)
    return code


if __name__ == "__main__":
    if len(sys.argv) < 3:
        print("usage: tracer.py OUT.json CLI-ARGS...", file=sys.stderr)
        sys.exit(2)
    sys.exit(traced_main(sys.argv[1], sys.argv[2:]))
