"""One benchmark process for one workload; started by run.py, never two at once.

    worker.py measure WORKLOAD SEED SECONDS   untraced passes for the end-to-end metrics
    worker.py trace WORKLOAD SEED             one untraced and one traced pass
    worker.py setup WORKLOAD PARAMS_JSON      import jetsym and load the input

Each mode prints one JSON object on its last line of standard output.
jetsym is imported from ``src/`` of the checkout this file sits in, and
nowhere else.
"""

from __future__ import annotations

import contextlib
import gc
import json
import resource
import signal
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench"
MIN_PASSES = 2
#: wall-clock period of the host-speed samples taken while a pass runs
SAMPLE_PERIOD_S = 0.05
#: nominal duration of one reference sample.  It only sets the scale of the
#: normalised times: a sample taken during a pass lasts about this long on
#: an idle 2-core x86-64 VM, so there they read about as wall seconds.
REF_NOMINAL_S = 0.0006

sys.path[:0] = [str(SRC), str(Path(__file__).resolve().parent)]


def _import_jetsym():
    import jetsym
    if Path(jetsym.__file__).resolve().parent != SRC / "jetsym":
        raise ImportError(f"jetsym was imported from {jetsym.__file__}, not {SRC}")


def reference_work():
    """Fixed pure-Python work in the engine's style: Fraction products and
    sums stored in a dict.  How long it takes tracks the speed the host
    gives this process at that moment."""
    table = {}
    for i in range(1, 120):
        table[i % 15] = Fraction(i, 7) * Fraction(3, i + 2) + Fraction(1, i)


def _time_reference():
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


class HostSpeed:
    """Times ``reference_work`` every SAMPLE_PERIOD_S of wall time while the
    block runs, from a SIGALRM handler, so that the samples cover the same
    stretch of time as the pass.

    On a shared host the speed this process gets swings by about 1.5x over
    seconds to minutes, and CPU time swings with it.  Scaling a pass's time
    by the reference samples taken during it removes most of that swing;
    a change in jetsym does not touch the reference work.
    """

    def __init__(self):
        self.samples: list = []

    def _sample(self, signum, frame):
        self.samples.append(_time_reference())

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.samples:
            self.samples.append(_time_reference())

    def normalise(self, seconds: float) -> float:
        """``seconds`` less the samples' own time, at the nominal host speed."""
        own = seconds - sum(self.samples)
        return own * REF_NOMINAL_S / statistics.mean(self.samples)


def _timed_pass(run, check, params, speed=None):
    """(ok, wall seconds, cpu seconds, output) of one pass and its gate.

    ``speed``, a HostSpeed, samples the host while the pass runs.  An
    exception from the pass counts as a failed pass, not a crash.
    """
    gc.collect()
    output, raised = None, False
    with speed if speed is not None else contextlib.nullcontext():
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            output = run(params)
        except Exception:
            traceback.print_exc()
            raised = True
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    return not raised and check(output), wall, cpu, output


def measure(name: str, seed: int, seconds: float) -> dict:
    _import_jetsym()
    from workloads import WORKLOADS
    workload = WORKLOADS[name]
    params = workload.prepare(seed, WORKDIR)
    walls, cpus, norms, refs, failed = [], [], [], [], 0
    begin = time.perf_counter()
    while True:
        speed = HostSpeed()
        ok, wall, cpu, _ = _timed_pass(workload.run, workload.check, params, speed)
        failed += not ok
        walls.append(wall)
        cpus.append(cpu)
        norms.append(speed.normalise(wall))
        refs.append(statistics.mean(speed.samples))
        elapsed = time.perf_counter() - begin
        if len(walls) >= MIN_PASSES and elapsed + statistics.median(walls) > seconds:
            break
    return {"params": params, "attempted": len(walls), "failed": failed,
            "walls": walls, "cpus": cpus, "norms": norms, "refs": refs,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def trace(name: str, seed: int) -> dict:
    _import_jetsym()
    from workloads import WORKLOADS
    from tracing import PASS_SPAN, Tracer, hierarchy_steps, layer_metrics
    workload = WORKLOADS[name]
    params = workload.prepare(seed, WORKDIR)
    ok_plain, wall_plain, _, _ = _timed_pass(workload.run, workload.check, params)
    tracer = Tracer()
    traced_run = tracer.wrap(workload.run, PASS_SPAN)
    tracer.install()
    try:
        tracer.begin_pass(1)
        ok_traced, wall_traced, _, output = _timed_pass(traced_run, workload.check, params)
    finally:
        tracer.uninstall()
    # only gen-symbolic runs the recursion; its output is (hierarchy, json)
    steps = hierarchy_steps(output[0]) if name == "gen-symbolic" and ok_traced else {}
    metrics = layer_metrics(tracer, steps, wall_traced / wall_plain - 1)
    tracer.write(WORKDIR / f"spans-{name}.bin")
    return {"params": params, "attempted": 2, "failed": (not ok_plain) + (not ok_traced),
            "metrics": metrics}


def setup(name: str, params: dict) -> dict:
    """Set-up time, raw and at the nominal host speed.  Set-up is too short
    for the sampling timer, so the host is sampled just before and after."""
    refs = [_time_reference() for _ in range(5)]
    begin = time.perf_counter()
    _import_jetsym()
    from workloads import WORKLOADS
    WORKLOADS[name].load(params)
    raw = time.perf_counter() - begin
    refs += [_time_reference() for _ in range(5)]
    return {"setup_raw_s": raw, "setup_s": raw * REF_NOMINAL_S / statistics.mean(refs)}


def main(argv):
    mode, name = argv[0], argv[1]
    WORKDIR.mkdir(exist_ok=True)
    if mode == "measure":
        out = measure(name, int(argv[2]), float(argv[3]))
    elif mode == "trace":
        out = trace(name, int(argv[2]))
    elif mode == "setup":
        out = setup(name, json.loads(argv[2]))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
