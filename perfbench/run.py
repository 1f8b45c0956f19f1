"""jetsym benchmark: time to a correct verdict, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; jetsym is imported from its ``src/``.
The workloads are defined in ``workloads.py``.  The passes of a run share
one fresh worker process (``worker.py``); processes run one at a time,
never two at once, and every pass is checked for correctness.

With ``--trace 0`` the worker repeats untraced passes for about S seconds
(at least two) and reports:

- ``wall_norm_s``: the median wall time of a pass, rescaled to a nominal
  host speed.  The host's speed is sampled every 50 ms during the pass by
  timing a fixed piece of reference work (``worker.HostSpeed``).  On a
  shared host the raw wall time of the same pass swings by about 1.5x over
  seconds to minutes, and CPU time with it; the rescaled time swings far
  less.
- ``setup_s``: the median, over several fresh interpreters, of the time to
  import jetsym and load the workload's input, rescaled by the same
  reference work timed just before and after.
  One interpreter runs first, untimed, to warm the bytecode cache.
- ``peak_rss_mb``: peak resident memory of the worker.

The raw wall, CPU and set-up times are kept in the record line.  With
``--trace 1`` the worker runs one untraced and one traced pass and reports
the per-layer metrics of the traced one (see ``tracing.py``); the spans
are written to ``.perfbench/spans-NAME.bin``.

Standard output ends with a provenance record line and then one JSON
result line.  Without a usable ``src/jetsym`` the benchmark prints no
result and exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOAD_NAMES = ("gen-symbolic", "verify-specialized", "verify-symbolic",
                  "densities-symbolic")
SETUP_PROBES = 15
#: every run must end well inside 180 s
DEADLINE_S = 170


class BenchError(Exception):
    pass


def _worker(args, deadline):
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # the bytecode cache must warm
    env.pop("JETSYM_MAX_UNKNOWNS", None)  # the density search runs at its default cap
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *args], cwd=ROOT, env=env,
                              capture_output=True, text=True,
                              timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args[:2]} ran past the deadline") from None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {args[:2]} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _git_sha():
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _record(args):
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "git_sha": _git_sha(),
            "loadavg_start": os.getloadavg()}


def run(args):
    deadline = time.monotonic() + DEADLINE_S
    record = _record(args)
    if args.trace:
        out = _worker(["trace", args.workload, str(args.seed)], deadline)
        metrics = out["metrics"]
    else:
        out = _worker(["measure", args.workload, str(args.seed), str(args.seconds)],
                      deadline)
        params = json.dumps(out["params"])
        _worker(["setup", args.workload, params], deadline)  # warms the bytecode cache
        setups = [_worker(["setup", args.workload, params], deadline)
                  for _ in range(SETUP_PROBES)]
        metrics = {
            "wall_norm_s": {"value": statistics.median(out["norms"]), "unit": "s"},
            "setup_s": {"value": statistics.median(p["setup_s"] for p in setups),
                        "unit": "s"},
            "peak_rss_mb": {"value": out["peak_rss_mb"], "unit": "MB"},
        }
        record.update(wall_s=statistics.median(out["walls"]),
                      cpu_s=statistics.median(out["cpus"]),
                      setup_raw_s=statistics.median(p["setup_raw_s"] for p in setups),
                      walls=out["walls"], cpus=out["cpus"], norms=out["norms"],
                      refs=out["refs"])
    record.update(params=out["params"], attempted=out["attempted"], failed=out["failed"],
                  failed_ratio=out["failed"] / out["attempted"],
                  loadavg_end=os.getloadavg())
    print("record " + json.dumps(record))
    return {"correct": out["failed"] == 0, "attempted": out["attempted"],
            "failed": out["failed"], "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "jetsym" / "__init__.py").is_file():
        print(f"perfbench: no jetsym sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
