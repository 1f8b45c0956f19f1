"""Layer spans for the traced benchmark run, recorded from outside jetsym.

``Tracer.install`` replaces the public function at each layer boundary
with a wrapper that records a span: name, start, end, parent span.  Spans
live in flat arrays while the pass runs and are written out by ``write``.
Self time is a span's duration minus the durations of its direct children.

A name can be bound in several places: ``from .varcalc import
integrate_dx`` makes a second binding in ``operators`` and one in
``analysis``, and ``__rmul__`` is an alias of ``__mul__``.  Every binding
that holds the original object is replaced, or calls through it would
escape the trace.

Counts that are not span counts (shares, shapes, term pairs) are read off
the wrapped arguments and return values, never from inside the package.
An observer runs after its span has closed, so its cost lands in the
parent's self time; ``trace.overhead_ratio`` reports the total cost.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from pathlib import Path

from jetsym import analysis, coeffield, hierarchy, varcalc
from jetsym.coeffield import AlphaPoly, RationalFunction
from jetsym.jetalgebra import DiffPoly
from jetsym.operators import OperatorMatrix
from jetsym.varcalc import DxChain

import workloads


def _observe_gcd(counts, args, result):
    if result.degree > 0:
        counts["gcd.nontrivial"] += 1


def _observe_rf_mul(counts, args, result):
    a, b = args
    if isinstance(b, RationalFunction) and not a.is_zero and not b.is_zero:
        if len(a.den.coeffs) > 1 or len(b.den.coeffs) > 1:
            counts["rf_mul.general"] += 1
        elif len(a.num.coeffs) > 1 or len(b.num.coeffs) > 1:
            counts["rf_mul.poly"] += 1


def _observe_rref(counts, args, result):
    rows, ncols = args
    counts["rref.rows"] += len(rows)
    counts["rref.cols"] += ncols
    counts["rref.nnz"] += sum(len(r) for r in rows)
    counts["rref.rank"] += len(result[1])


def _observe_dp_mul(counts, args, result):
    a, b = args
    if isinstance(b, DiffPoly):
        counts["dp_mul.term_pairs"] += len(a.terms) * len(b.terms)


def _observe_integrate(counts, args, result):
    if result.is_exact:
        counts["integrate_dx.exact"] += 1


def _observe_dump(counts, args, result):
    counts["json_bytes"] += len(result.encode("utf-8"))


#: (owner, attribute, span name, observer).  Functions are looked up in
#: their defining module; every other binding of the same object in
#: jetsym (and in the workloads module) is replaced with it.
LAYER_BOUNDARIES = (
    (AlphaPoly, "gcd", "coeffield.gcd", _observe_gcd),
    (RationalFunction, "__mul__", "coeffield.rf_mul", _observe_rf_mul),
    (RationalFunction, "__add__", "coeffield.rf_add", None),
    (coeffield, "sparse_rref", "coeffield.sparse_rref", _observe_rref),
    (DiffPoly, "__mul__", "jetalgebra.dp_mul", _observe_dp_mul),
    (DiffPoly, "__add__", "jetalgebra.dp_add", None),
    (DiffPoly, "dx", "jetalgebra.dx", None),
    (DiffPoly, "partial", "jetalgebra.partial", None),
    (varcalc, "frechet", "varcalc.frechet", None),
    (DxChain, "get", "varcalc.dxchain", None),
    (varcalc, "euler_operator", "varcalc.euler_operator", None),
    (varcalc, "dt_along", "varcalc.dt_along", None),
    (varcalc, "integrate_dx", "varcalc.integrate_dx", _observe_integrate),
    (varcalc, "commutator", "varcalc.commutator", None),
    (OperatorMatrix, "apply_detailed", "operators.apply_detailed", None),
    (hierarchy, "fs_step", "hierarchy.step", None),
    (hierarchy, "scaling_symmetry", "hierarchy.scaling_symmetry", None),
    (hierarchy, "structural_check", "analysis.structural_check", None),
    (analysis, "is_symmetry", "analysis.is_symmetry", None),
    (analysis, "commutativity_table", "analysis.commutativity_table", None),
    (analysis, "density_decompose", "analysis.density_decompose", None),
    (analysis, "density_search", "analysis.density_search", None),
    (workloads, "dump_hierarchy", "cli.to_json", _observe_dump),
    (workloads, "load_hierarchy", "cli.from_json", None),
)

#: the span that wraps one whole pass
PASS_SPAN = "pass"

#: counters the observers add to
COUNTERS = ("gcd.nontrivial", "rf_mul.general", "rf_mul.poly", "rref.rows", "rref.cols",
            "rref.nnz", "rref.rank", "dp_mul.term_pairs", "integrate_dx.exact",
            "json_bytes")


def _namespaces():
    mods = [m for n, m in sys.modules.items() if n == "jetsym" or n.startswith("jetsym.")]
    return mods + [workloads]


class Tracer:
    """Span recorder for one process; ``install`` before, ``uninstall`` after."""

    def __init__(self):
        self.names: list = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.pass_first: list = []  # (pass id, index of its first span)
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._stack = [-1]
        self._patched: list = []  # (owner, attribute, original value)

    # -- recording ----------------------------------------------------------
    def wrap(self, fn, span: str, observe=None):
        """Return fn wrapped so that each call records one span."""
        if span not in self.names:
            self.names.append(span)
        k = self.names.index(span)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack, counts, clock = self._stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(start)
            name_id.append(k)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if observe is not None:
                observe(counts, args, result)
            return result

        return traced

    def begin_pass(self, pass_id: int):
        self.pass_first.append((pass_id, len(self.start)))

    # -- installation -------------------------------------------------------
    def install(self):
        for owner, attr, span, observe in LAYER_BOUNDARIES:
            if isinstance(owner, type):
                fn = owner.__dict__[attr]
                wrapped = self.wrap(fn, span, observe)
                # aliases such as __rmul__ = __mul__ share the object
                for key, value in list(owner.__dict__.items()):
                    if value is fn:
                        self._patch(owner, key, wrapped)
            else:
                fn = getattr(owner, attr)
                wrapped = self.wrap(fn, span, observe)
                for ns in _namespaces():
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            self._patch(ns, key, wrapped)

    def _patch(self, owner, key, value):
        self._patched.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, value)

    def uninstall(self):
        while self._patched:
            owner, key, value = self._patched.pop()
            setattr(owner, key, value)

    # -- results ------------------------------------------------------------
    def layers(self) -> dict:
        """Per span name: calls, inclusive seconds ``s`` and ``self_s``."""
        start, end, parent, name_id = self.start, self.end, self.parent, self.name_id
        child = array("d", bytes(8 * len(start)))
        for i, p in enumerate(parent):
            if p >= 0:
                child[p] += end[i] - start[i]
        calls = [0] * len(self.names)
        total = [0.0] * len(self.names)
        own = [0.0] * len(self.names)
        for i, k in enumerate(name_id):
            d = end[i] - start[i]
            calls[k] += 1
            total[k] += d
            own[k] += d - child[i]
        return {name: {"calls": calls[k], "s": total[k], "self_s": own[k]}
                for k, name in enumerate(self.names)}

    def durations(self, span: str) -> list:
        """Durations of the spans named ``span``, in the order they began."""
        if span not in self.names:
            return []
        k = self.names.index(span)
        return [self.end[i] - self.start[i]
                for i, nk in enumerate(self.name_id) if nk == k]

    def parents_of(self, span: str, child_span: str) -> int:
        """How many ``span`` spans have at least one direct ``child_span`` child."""
        if span not in self.names or child_span not in self.names:
            return 0
        k, ck = self.names.index(span), self.names.index(child_span)
        name_id = self.name_id
        return len({p for i, p in enumerate(self.parent)
                    if name_id[i] == ck and p >= 0 and name_id[p] == k})

    def write(self, path: Path):
        """One JSON header line, then the name, parent, start and end arrays."""
        header = {"names": self.names, "spans": len(self.start),
                  "passes": self.pass_first,
                  "arrays": ["name_id:i", "parent:i", "start:d", "end:d"]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode("utf-8") + b"\n")
            for arr in (self.name_id, self.parent, self.start, self.end):
                arr.tofile(fh)


def read_spans(path: Path):
    """Inverse of ``Tracer.write``: (header, name_id, parent, start, end)."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        arrays = []
        for spec in header["arrays"]:
            arr = array(spec.split(":")[1])
            arr.fromfile(fh, header["spans"])
            arrays.append(arr)
    return (header, *arrays)


#: recursion steps of gen-symbolic; K_1 and K_2 are seeds
STEPS = range(3, workloads.GEN_N + 1)


def hierarchy_steps(h) -> dict:
    """Size observables of each recursion step, read off the returned hierarchy."""
    out = {}
    for cert in h.certificates:
        member = h.member(cert.n)
        coeffs = [c for comp in member for c in comp.terms.values()]
        rationals = [q for c in coeffs for q in c.num.coeffs + c.den.coeffs]
        out[cert.n] = {
            "terms": sum(len(comp.terms) for comp in member),
            "alpha_degree": max(max(c.num.degree, c.den.degree) for c in coeffs),
            "coeff_bits": max(max(q.numerator.bit_length(), q.denominator.bit_length())
                              for q in rationals),
            "antiderivative_terms": len(cert.prev.antiderivative.terms)
            + len(cert.prevprev.antiderivative.terms),
        }
    return out


def layer_metrics(tracer: Tracer, steps: dict, overhead_ratio: float) -> dict:
    """Every per-layer metric of the benchmark, from one traced pass.

    ``steps`` is ``hierarchy_steps`` of the pass's hierarchy, or empty when
    the pass generates none.  A layer the pass never calls reads 0, and so
    does a ratio whose base is 0.
    """
    layers = tracer.layers()
    counts = tracer.counts
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    def get(span, key):
        return layers.get(span, {}).get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    for span in ("coeffield.gcd", "coeffield.rf_mul", "coeffield.rf_add",
                 "jetalgebra.dp_mul", "jetalgebra.dx", "jetalgebra.partial",
                 "varcalc.frechet", "varcalc.euler_operator", "varcalc.integrate_dx",
                 "operators.apply_detailed"):
        put(f"{span}.calls", get(span, "calls"), "count")
        put(f"{span}.self_s", get(span, "self_s"), "s")
    for span in ("coeffield.sparse_rref", "jetalgebra.dp_add", "varcalc.dt_along",
                 "analysis.density_search"):
        put(f"{span}.self_s", get(span, "self_s"), "s")

    gcd_calls = get("coeffield.gcd", "calls")
    mul_calls = get("coeffield.rf_mul", "calls")
    put("coeffield.gcd.nontrivial_ratio", ratio(counts["gcd.nontrivial"], gcd_calls), "ratio")
    put("coeffield.rf_mul.general_share", ratio(counts["rf_mul.general"], mul_calls), "ratio")
    put("coeffield.rf_mul.poly_share", ratio(counts["rf_mul.poly"], mul_calls), "ratio")
    for key in ("rows", "cols", "nnz", "rank"):
        put(f"coeffield.sparse_rref.{key}", counts[f"rref.{key}"], "count")
    put("jetalgebra.dp_mul.term_pairs", counts["dp_mul.term_pairs"], "count")
    lookups = get("varcalc.dxchain", "calls")
    extended = tracer.parents_of("varcalc.dxchain", "jetalgebra.dx")
    put("varcalc.dxchain.reuse_ratio", ratio(lookups - extended, lookups), "ratio")
    put("varcalc.integrate_dx.exact_ratio",
        ratio(counts["integrate_dx.exact"], get("varcalc.integrate_dx", "calls")), "ratio")

    step_s = tracer.durations("hierarchy.step")
    for i, n in enumerate(STEPS):
        obs = steps.get(n, {})
        put(f"hierarchy.step.n{n:02d}.s", step_s[i] if i < len(step_s) else 0.0, "s")
        put(f"hierarchy.step.n{n:02d}.terms", obs.get("terms", 0), "count")
        put(f"hierarchy.step.n{n:02d}.alpha_degree", obs.get("alpha_degree", 0), "degree")
        put(f"hierarchy.step.n{n:02d}.coeff_bits", obs.get("coeff_bits", 0), "bits")
        put(f"hierarchy.step.n{n:02d}.antiderivative_terms",
            obs.get("antiderivative_terms", 0), "count")

    for span in ("analysis.is_symmetry", "analysis.commutativity_table",
                 "analysis.structural_check", "analysis.density_decompose"):
        put(f"{span}.s", get(span, "s"), "s")
    # in verify_hierarchy only the scaling check builds S and calls commutator
    put("analysis.scaling_check.s",
        get("hierarchy.scaling_symmetry", "s") + get("varcalc.commutator", "s"), "s")
    put("cli.to_json.s", get("cli.to_json", "s"), "s")
    put("cli.json_bytes", counts["json_bytes"], "bytes")
    put("cli.from_json.s", get("cli.from_json", "s"), "s")
    put("trace.overhead_ratio", overhead_ratio, "ratio")
    return metrics
