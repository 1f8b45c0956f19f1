"""Tests of the benchmark itself.  Run with ``python3 -m pytest perfbench``."""

import json
import shutil
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import pytest  # noqa: E402

from jetsym import analysis, coeffield, operators, varcalc  # noqa: E402
from jetsym.analysis import verify_hierarchy  # noqa: E402
from jetsym.coeffield import RationalFunction  # noqa: E402
from jetsym.hierarchy import fs_hierarchy  # noqa: E402
from jetsym.jetalgebra import DiffPoly  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

COUNT_UNITS = {"count", "bytes", "bits", "degree"}


def _bench_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def test_workload_names_agree():
    names = [w["name"] for w in _bench_json()["workloads"]]
    assert list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS) == names


def test_alpha0_is_seeded_and_never_a_bad_point(tmp_path):
    spec = workloads.WORKLOADS["verify-specialized"]
    seen = set()
    for seed in range(40):
        alpha0 = Fraction(spec.prepare(seed, tmp_path)["alpha0"])
        assert alpha0 > 0 and alpha0 not in (Fraction(1, 2), Fraction(-1))
        assert spec.prepare(seed, tmp_path)["alpha0"] == str(alpha0)
        seen.add(alpha0)
    assert len(seen) == len(workloads.ALPHA0_CHOICES)
    for name in ("gen-symbolic", "verify-symbolic", "densities-symbolic"):
        params = workloads.WORKLOADS[name].prepare(7, tmp_path)
        assert params["alpha0"] is None and params["seed_independent"]


def test_gates_reject_wrong_outputs():
    gen = workloads.WORKLOADS["gen-symbolic"]
    assert not gen.check((None, "{}"))
    verify = workloads.WORKLOADS["verify-symbolic"]
    assert not verify.check(SimpleNamespace(ok=True, checks=(None,) * 30))
    assert not verify.check(SimpleNamespace(ok=False, checks=(None,) * 31))
    assert verify.check(SimpleNamespace(ok=True, checks=(None,) * 31))
    dens = workloads.WORKLOADS["densities-symbolic"]
    report = SimpleNamespace(unknowns=924, solution_dimension=211, nontrivial_dimension=1)
    assert not dens.check((report, None))
    assert not dens.check((report, coeffield.RF_ZERO))
    assert dens.check((report, coeffield.RF_ONE))


def test_host_speed_samples_cover_the_pass():
    with worker.HostSpeed() as speed:
        end = time.perf_counter() + 0.5
        while time.perf_counter() < end:
            worker.reference_work()
    assert 5 <= len(speed.samples) <= 11
    assert 0 < speed.normalise(0.5) < 0.5 * worker.REF_NOMINAL_S / min(speed.samples)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_every_binding_is_wrapped_and_restored():
    originals = {id(RationalFunction.__dict__["__mul__"]), id(DiffPoly.__dict__["__mul__"]),
                 id(varcalc.integrate_dx), id(varcalc.frechet), id(varcalc.commutator),
                 id(coeffield.sparse_rref), id(workloads.dump_hierarchy)}
    before = dict(vars(analysis))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for ns in tracing._namespaces() + [RationalFunction, DiffPoly]:
            for key, value in vars(ns).items():
                assert id(value) not in originals, f"{ns.__name__}.{key} escapes the trace"
        assert RationalFunction.__rmul__ is RationalFunction.__mul__
        assert operators.integrate_dx is analysis.integrate_dx is varcalc.integrate_dx
    finally:
        tracer.uninstall()
    assert dict(vars(analysis)) == before
    assert id(RationalFunction.__dict__["__rmul__"]) in originals


def test_spans_nest_and_round_trip(tmp_path):
    h = fs_hierarchy(4)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.begin_pass(1)
        report = verify_hierarchy(h)
    finally:
        tracer.uninstall()
    assert report.ok
    layers = tracer.layers()
    assert layers["coeffield.rf_mul"]["calls"] > 0
    for rec in layers.values():
        assert 0 <= rec["self_s"] <= rec["s"] + 1e-9
    assert all(p < i for i, p in enumerate(tracer.parent))
    path = tmp_path / "spans.bin"
    tracer.write(path)
    header, name_id, parent, start, end = tracing.read_spans(path)
    assert header["names"] == tracer.names and header["passes"] == [[1, 0]]
    assert (name_id, parent, start, end) == (tracer.name_id, tracer.parent,
                                             tracer.start, tracer.end)


def test_hierarchy_steps_read_off_the_hierarchy():
    steps = tracing.hierarchy_steps(fs_hierarchy(5))
    assert sorted(steps) == [3, 4, 5]
    assert steps[3]["alpha_degree"] >= 1 and steps[3]["terms"] > 0
    assert steps[5]["terms"] > steps[3]["terms"]


@pytest.mark.parametrize("name", ["verify-symbolic", "gen-symbolic"])
def test_traced_counts_repeat_exactly(name):
    per_layer = {m["name"]: m["unit"] for m in _bench_json()["per_layer"]}
    counts = []
    for seed in (1, 2):
        proc = _run("--workload", name, "--seed", str(seed), "--seconds", "1", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        metrics = result["metrics"]
        assert {k: v["unit"] for k, v in metrics.items()} == per_layer
        counts.append({k: v["value"] for k, v in metrics.items()
                       if v["unit"] in COUNT_UNITS
                       or (v["unit"] == "ratio" and k != "trace.overhead_ratio")})
    assert counts[0] == counts[1]
    assert any(counts[0].values())


def test_without_sources_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "gen-symbolic",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
