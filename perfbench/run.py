"""Benchmark entry point: run one workload and print its metrics as JSON.

Usage, from the root of a twinspace checkout:

    python3 perfbench/run.py --workload sweep|certify|large-d \\
        --seed N --seconds S --trace 0|1

The workload runs in a child process (``worker.py``) with one BLAS thread
and ``src`` on ``PYTHONPATH``.  Set-up is measured from outside: the time
from starting a child until it reports that its imports, seeded inputs and
warm-up are done.  Untraced runs start ``SETUP_PROBES`` extra children that
only set up, and report the median of all set-up times.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a copy goes to
``.perfbench_out/``.  Untraced runs report the end-to-end metrics, traced
runs the per-layer metrics (see README.md).  The exit code is 0 only when
the run completed and every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracing import per_layer_metrics  # noqa: E402

WORKLOADS = ("sweep", "certify", "large-d")
END_TO_END = ("setup_s", "peak_rss_mb", "cli_s", "round_s")
SETUP_PROBES = 2
OUTDIR = ".perfbench_out"
BLAS_THREADS = "1"
# Time a run may take beyond --seconds: set-up probes, the round under way
# when the time is up, the once-per-run checks and the trace dump.
MARGIN_S = 140


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def start_worker(args, deadline: float, setup_only: bool):
    """Start a worker; return (seconds until READY, process)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(),
                            text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    if line.strip() != "READY":
        finish(proc, deadline)
        raise RuntimeError(f"worker set-up failed (exit {proc.returncode})")
    return ready, proc


def finish(proc, deadline: float) -> str:
    """Wait for the worker and return the rest of its output."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker did not finish in time") from None
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "twinspace", "__init__.py")):
        print("run from the root of a twinspace checkout (src/twinspace "
              "not found)", file=sys.stderr)
        return 2
    os.makedirs(OUTDIR, exist_ok=True)
    deadline = time.perf_counter() + args.seconds + MARGIN_S

    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                ready, proc = start_worker(args, deadline, setup_only=True)
                finish(proc, deadline)
                if proc.returncode != 0:
                    raise RuntimeError(f"set-up probe exit {proc.returncode}")
                setups.append(ready)
        ready, proc = start_worker(args, deadline, setup_only=False)
        setups.append(ready)
        lines = finish(proc, deadline).strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"worker exit {proc.returncode}")
        res = json.loads(lines[-1])
    except RuntimeError as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1

    if args.trace:
        metrics = {name: {"value": res["per_layer"][name], "unit": unit}
                   for name, unit in per_layer_metrics()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
            "cli_s": {"value": statistics.median(res["cli_s"]), "unit": "s"},
            "round_s": {"value": statistics.median(res["round_s"]), "unit": "s"},
        }
    result = {"correct": res["correct"], "attempted": res["attempted"],
              "failed": res["failed"], "metrics": metrics}
    line = json.dumps(result)
    name = f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUTDIR, name), "w", encoding="utf-8") as fh:
        fh.write(line + "\n")
    print(f"{args.workload}: {res['rounds']} rounds, library seconds "
          f"{[round(x, 4) for x in res['round_s']]}", file=sys.stderr)
    print(line)
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
