"""Self-test of the benchmark: tiny runs pass, perturbed outputs are caught.

Run from the root of a twinspace checkout:

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 perfbench/selftest.py

For each workload it runs two rounds at a tiny size and requires every
check to pass (with the two known failing operations of ``sweep`` counted
as failed).  Then, for each kind of program output, it replaces that output
by a perturbed copy and requires the run to stop with ``CheckFailed``; every
kind a workload passes through ``Workload.out`` needs a perturbation.  It
also requires ``BENCHMARK.json`` to name exactly the metrics ``run.py``
prints.  Exit code 0 when everything holds.
"""

from __future__ import annotations

import json
import os
import sys
import time
from types import SimpleNamespace

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from run import END_TO_END  # noqa: E402
from tracing import Tracer, per_layer_metrics  # noqa: E402
from workloads import WORKLOADS, CheckFailed, Recorder  # noqa: E402

SCALE = 0.02


def later(fn):
    """Apply ``fn`` from the second round on, so outputs stop repeating."""
    return lambda v, r: fn(v) if r >= 1 else v


def shift(p):
    q = np.array(p, dtype=float)
    q[0] += 1e-6
    q[-1] -= 1e-6
    return q


def rows_with(field, change):
    def perturb(rows, r):
        first = vars(rows[0]) | {field: change(getattr(rows[0], field))}
        return (SimpleNamespace(**first),) + tuple(rows[1:])
    return perturb


def bump_counts(counts, r):
    out = np.array(counts)
    out[0] += max(50, int(20 * np.sqrt(out[0] + 1)))
    return out


def off_null_basis(basis, r):
    """An orthonormal set that leaves the null space: b_0 is replaced by the
    part of the identity orthogonal to the other basis vectors."""
    d = basis[0].matrix.shape[0]
    w = np.eye(d, dtype=complex)
    for b in basis[1:]:
        w = w - np.vdot(b.matrix, w) * b.matrix
    w /= np.linalg.norm(w)
    return (SimpleNamespace(matrix=w),) + tuple(basis[1:])


def with_key(key, change):
    """Perturb one entry of a parsed CLI output."""
    return lambda out, r: out | {key: change(out[key])}


def certificate_amplitude(out, r):
    cert = out["certificate"]
    return out | {"certificate": cert | {
        "amplitude_magnitude": cert["amplitude_magnitude"] * (1 + 1e-6)}}


COMMON = [
    ("cli_exit", lambda code, r: 1),
    ("cli_json", later(lambda text: text + " ")),
]

PERTURBATIONS = {
    "sweep": COMMON + [
        ("measurement", lambda k, r: k + 1),
        ("forms_story", lambda v, r: not v),
        ("abl", lambda p, r: shift(p)),
        ("certificate", lambda a, r: a * (1 + 1e-6)),
        ("certificate", lambda a, r: 0.0),
        ("certificate_case", lambda v, r: "NONE"),
        ("time_reversal", lambda v, r: False),
        ("mixture_statistics", lambda p, r: shift(p)),
        ("search", lambda v, r: SimpleNamespace(gap=1.0)),
        ("replicates", lambda v, r: False),
        ("simulate", bump_counts),
        ("simulate", later(lambda c: np.array(c) + np.eye(len(c), dtype=int)[0])),
        ("simulate_mixture", bump_counts),
        ("simulate_mixture",
         later(lambda c: np.array(c) + np.eye(len(c), dtype=int)[0])),
        ("validation", rows_with("predicted", lambda p: p + 1e-6)),
        ("validation", rows_with("empirical", lambda p: min(1.0, p + 0.05))),
        ("validation_passed", lambda v, r: False),
        ("mixture_rule", rows_with("empirical", lambda p: 0.5)),
        ("cli:abl", with_key("probabilities", shift)),
        ("cli:story", with_key("forms_story", lambda v: False)),
        ("cli:find-story", certificate_amplitude),
        ("cli:distinguish", with_key("found", lambda v: True)),
        ("cli:reproduce", with_key("pass", lambda v: False)),
    ],
    "certify": COMMON + [
        ("verdict_full", lambda v, r: "INCONCLUSIVE"),
        ("system", lambda v, r: (v[0][:-1], v[1])),
        ("system", lambda v, r: (v[0], (v[1][0], v[1][1] + 1))),
        ("residual", lambda v, r: v * (1 + 1e-5)),
        ("witness", lambda v, r: SimpleNamespace(matrix=v.matrix + 1e-3)),
        ("witness", lambda v, r: SimpleNamespace(matrix=v.matrix * 1e-3)),
        ("scan", lambda v, r: v + 1.0),
        ("verdict_sub", lambda v, r: "STRICTLY_NONSEPARABLE_EVIDENCE"),
        ("reduction", lambda v, r: False),
        ("cli:feasibility", with_key("verdict", lambda v: "INCONCLUSIVE")),
        ("cli:reproduce", with_key("pass", lambda v: False)),
    ],
    "large-d": COMMON + [
        ("random_measurement",
         lambda ps, r: (SimpleNamespace(matrix=ps[0].matrix * 1.001),) + ps[1:]),
        ("random_measurement", lambda ps, r: ps[:-1]),
        ("random_measurement", lambda ps, r: (ps[0], ps[0]) + tuple(ps[2:])),
        ("null_basis", lambda b, r: b[:-1]),
        ("null_basis", lambda b, r: (SimpleNamespace(matrix=b[0].matrix * 1.01),)
         + tuple(b[1:])),
        ("null_basis", off_null_basis),
        ("membership", lambda v, r: (True, True)),
        ("forms_story", lambda v, r: False),
        ("abl", lambda p, r: shift(p)),
        ("certificate", lambda a, r: a * (1 + 1e-6)),
        ("certificate_case", lambda v, r: "NONE"),
        ("cli:nullspace", with_key("null_dimension", lambda n: n + 1)),
        ("cli:validate", with_key("ok", lambda v: False)),
        ("cli:validate", with_key("entries", lambda e: e[:-1])),
    ],
}


def run_tiny(name: str, perturb=None, tracer=None):
    """Two rounds and the final checks of one workload at a tiny size."""
    workload = WORKLOADS[name](7, scale=SCALE)
    workload.perturb = perturb
    try:
        workload.warm_up()
        for r in range(2):
            if tracer and r == 1:
                tracer.install()
            try:
                workload.run_round(r, Recorder())
            finally:
                if tracer and r == 1:
                    tracer.uninstall()
        workload.finish()
    finally:
        workload.cleanup()
    return workload


def check_manifest() -> list[str]:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    if [m["name"] for m in spec["end_to_end"]] != list(END_TO_END):
        problems.append("end_to_end names differ from run.py")
    if [(m["name"], m["unit"]) for m in spec["per_layer"]] != per_layer_metrics():
        problems.append("per_layer names or units differ from tracing.py")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        problems.append("workload names differ from workloads.py")
    return problems


def main() -> int:
    problems = check_manifest()
    for name, cases in PERTURBATIONS.items():
        start = time.perf_counter()
        tracer = Tracer()
        try:
            w = run_tiny(name, tracer=tracer)
            expected = 4 if name == "sweep" else 0
            if w.failed != expected:
                problems.append(f"{name}: {w.failed} failed operations, "
                                f"expected {expected}")
            missing = w.kinds - {kind for kind, _ in cases}
            if missing:
                problems.append(f"{name}: no perturbation of {sorted(missing)}")
            layers = tracer.aggregate()["layers"]
            if sum(calls for _, calls in layers.values()) == 0:
                problems.append(f"{name}: the traced round recorded no spans")
        except CheckFailed as err:
            problems.append(f"{name}: unperturbed run fails: {err}")
        for kind, fn in cases:
            try:
                run_tiny(name, perturb=(kind, fn))
                problems.append(f"{name}: perturbed {kind} went unnoticed")
            except CheckFailed:
                pass
        print(f"{name}: {len(cases)} perturbations "
              f"({time.perf_counter() - start:.1f} s)")
    for p in problems:
        print(f"FAIL {p}")
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
