"""Compare the benchmark of this checkout against a base revision.

Usage, from the root of a twinspace checkout:

    python3 tools/compare.py BASE_REV --out BENCH_x.json [--seeds 0 7]

The base revision is unpacked with ``git archive`` under ``.perfbench_out/``
and removed again at the end; the other side is this checkout's working
tree.  For each workload of BENCHMARK.json and each seed
the script runs PAIRS interleaved pairs of untraced ``perfbench/run.py``
runs of the benchmark's ``run_seconds``, one per side, alternating which
side goes first, and writes one JSON file: per workload, seed and metric of
BENCHMARK.json, each side's runs, median and quartiles, and how many pairs
this checkout won (strictly better in the metric's direction); per run, the
failed and attempted operation counts.
Each row of the CLI byte contract, ``tests/cli_stdout.tsv`` of this
checkout, runs as ``python -m twinspace.cli <argv>`` on each side's source,
in the caller's environment; the file records the row's pinned exit code
and stdout SHA-256, each side's, and whether the two sides match.
It also records the Python and numpy versions, the core count, the BLAS
thread count the benchmark sets, and both revisions.

The exit code is 0 only when every run finished and passed its checks.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys

OUTDIR = ".perfbench_out"
PAIRS = 10
CLI_TABLE = os.path.join("tests", "cli_stdout.tsv")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def bench(root: str, workload: str, seed: int, seconds: int) -> dict:
    """One untraced perfbench run in ``root``: its last stdout line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} in {root}: exit {proc.returncode}: "
                           f"{proc.stderr.strip()}")
    return json.loads(lines[-1])


def cli_rows() -> list:
    """Each row of CLI_TABLE: its argv and its pinned exit code and SHA-256."""
    rows = []
    with open(CLI_TABLE, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#") or not line.strip():
                continue
            code, sha, args = line.rstrip("\n").split("\t")[:3]
            rows.append({"args": args,
                         "pinned": {"exit": int(code), "sha256": sha}})
    return rows


def cli_run(root: str, args: str) -> dict:
    """Exit code and stdout SHA-256 of the CLI on the source in ``root``."""
    proc = subprocess.run(
        [sys.executable, "-m", "twinspace.cli", *args.split(" ")], cwd=root,
        env=dict(os.environ, PYTHONPATH=os.path.join(root, "src")),
        capture_output=True)
    return {"exit": proc.returncode,
            "sha256": hashlib.sha256(proc.stdout).hexdigest()}


def summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"runs": values, "median": median, "q1": q1, "q3": q3}


def compare(spec: dict, runs: dict) -> dict:
    """Per metric of BENCHMARK.json: each side's summary and head's wins."""
    out = {}
    for metric in spec["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        side = {s: [r["metrics"][name]["value"] for r in runs[s]]
                for s in ("base", "head")}
        wins = sum((h < b) if lower else (h > b)
                   for b, h in zip(side["base"], side["head"]))
        out[name] = {"unit": metric["unit"], "better": metric["better"],
                     "base": summary(side["base"]),
                     "head": summary(side["head"]), "head_wins": wins}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("base", help="git revision to compare against")
    p.add_argument("--out", required=True, help="JSON file to write")
    p.add_argument("--seeds", type=int, nargs="+", default=[0, 7])
    args = p.parse_args(argv)

    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    sys.path.insert(0, "perfbench")
    from run import BLAS_THREADS  # the BLAS thread count each run sets

    base_rev = git("rev-parse", args.base)
    base_dir = os.path.abspath(os.path.join(OUTDIR, f"base-{base_rev[:12]}"))
    os.makedirs(base_dir)
    archive = subprocess.run(["git", "archive", base_rev], check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", base_dir], input=archive, check=True)
    result = {
        "base": base_rev, "head": git("rev-parse", "HEAD"),
        "head_dirty": bool(git("status", "--porcelain")),
        "python": platform.python_version(),
        "numpy": subprocess.run(
            [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
            check=True, capture_output=True, text=True).stdout.strip(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": int(BLAS_THREADS),
        "pairs": PAIRS, "seconds": seconds, "results": [],
        "cli_rows": cli_rows(),
    }
    try:
        for row in result["cli_rows"]:
            for side, root in (("base", base_dir), ("head", os.getcwd())):
                row[side] = cli_run(root, row["args"])
            row["match"] = row["base"] == row["head"]
        for workload in (w["name"] for w in spec["workloads"]):
            for seed in args.seeds:
                runs = {"base": [], "head": []}
                for i in range(PAIRS):
                    order = (("base", "head") if i % 2 == 0
                             else ("head", "base"))
                    for side in order:
                        root = base_dir if side == "base" else os.getcwd()
                        runs[side].append(
                            bench(root, workload, seed, seconds))
                    print(f"{workload} seed {seed} pair {i + 1}/{PAIRS}"
                          " done", file=sys.stderr)
                result["results"].append({
                    "workload": workload, "seed": seed,
                    "metrics": compare(spec, runs),
                    "operations": {s: [(r["failed"], r["attempted"])
                                       for r in runs[s]] for s in runs},
                })
    except RuntimeError as err:
        print(f"compare failed: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(base_dir)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
