"""Command line front door.

Commands: abl, story, find-story, nullspace, distinguish, feasibility,
reproduce, montecarlo, validate.  Objects are resolved by name from a
workspace JSON file (``--workspace``), defaulting to the bundled demo
inventory, which reproduce always uses.

Output contract: a handler computes and returns its ``Report``, (exit
code, JSON payload, text lines), and never prints; ``main`` is the one
writer of stdout.  It prints the text lines joined by newlines or, with
``--json``, the payload under the parser's ``"command"`` name as canonical
JSON: the bytes of ``json.dumps(..., indent=2, sort_keys=True)``, written by
the one canonical writer ``core._canonical_json``, byte-identical across
repeated runs with the same inputs.  Errors go to stderr as one line, with
no report.

Exit codes: 0 success/PASS, 1 input or resolution error, 2 no story,
3 check failure.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .core import DEFAULT_TOL, _canonical_json, schmidt
from .distinguish import (
    CertificationVerdict,
    FeasibilityVerdict,
    Mixture,
    certify_strict_nonseparability,
    reduce_qutrit_family,
    search_distinguishing_measurement,
    separable_feasibility,
    trial_gaps,
    zero_constraints,
)
from .errors import (
    NoStoryInMixtureError,
    NoSuccessesError,
    NotAStoryError,
    TwinspaceError,
)
from .measurement import abl_probabilities, forms_story
from .montecarlo import PrePostExperiment, validate_abl
from .structure import NullSubspace, find_story_measurement
from .workspace import (
    QUTRIT_FAMILY,
    Workspace,
    _report,
    builtin_workspace,
    validate_workspace_file,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NO_STORY = 2
EXIT_CHECK = 3

#: What a handler returns: (exit code, JSON payload, text lines).
Report = tuple[int, dict, list[str]]


def _load_workspace(args) -> Workspace:
    if args.workspace is None:
        return builtin_workspace()
    return Workspace.load(args.workspace)


def _labels(measurement) -> list[str]:
    if measurement.labels is not None:
        return list(measurement.labels)
    return [str(i) for i in range(measurement.num_outcomes)]


def cmd_abl(args) -> Report:
    ws = _load_workspace(args)
    m = ws.measurement(args.measurement)
    dist = abl_probabilities(ws.vector(args.vector), m)
    return EXIT_OK, {"vector": args.vector, "measurement": args.measurement,
                     "labels": _labels(m), "probabilities": dist.to_json()}, [
        f"{'outcome':<10}{'probability':>16}",
        *(f"{name:<10}{p:>16.12f}" for name, p in zip(_labels(m), dist))]


def cmd_story(args) -> Report:
    ws = _load_workspace(args)
    verdict = forms_story(ws.vector(args.vector),
                          ws.measurement(args.measurement))
    return EXIT_OK, {"vector": args.vector, "measurement": args.measurement,
                     "forms_story": verdict}, [
        f"forms story: {'true' if verdict else 'false'}"]


def cmd_find_story(args) -> Report:
    ws = _load_workspace(args)
    cert = find_story_measurement(ws.vector(args.vector))
    return EXIT_OK, {"vector": args.vector, "certificate": cert.to_json()}, [
        f"case: {cert.case.value}",
        f"amplitude magnitude: {cert.amplitude_magnitude:.12g}",
        *(f"witness[{i}] = {z.real:+.12f}{z.imag:+.12f}j"
          for i, z in enumerate(cert.witness.amplitudes))]


def cmd_nullspace(args) -> Report:
    ws = _load_workspace(args)
    m = ws.measurement(args.measurement)
    ns = NullSubspace(m)
    payload = {"measurement": args.measurement, "dim": m.dim,
               "num_outcomes": m.num_outcomes, "null_dimension": ns.dim}
    if args.json:  # the basis, d^2 - k matrices, is built only for --json
        payload["basis"] = [b.to_json() for b in ns.basis]
    return EXIT_OK, payload, [
        f"dim^2 - outcomes = {m.dim ** 2} - {m.num_outcomes} = {ns.dim}",
        f"basis: {ns.dim} orthonormal two-state vectors "
        "(use --json for entries)"]


def cmd_distinguish(args) -> Report:
    ws = _load_workspace(args)
    result = search_distinguishing_measurement(
        ws.mixture_or_point(args.mixture_a),
        ws.mixture_or_point(args.mixture_b),
        args.trials, args.outcomes, args.seed,
    )
    payload = {"mixture_a": args.mixture_a, "mixture_b": args.mixture_b,
               "trials": args.trials, "seed": args.seed}
    if result is None:
        return EXIT_OK, {**payload, "found": False}, [
            f"indistinguishable after {args.trials} trials "
            f"(every gap <= {DEFAULT_TOL:g})"]
    return EXIT_OK, {**payload, **result.to_json()}, [
        f"distinguishing measurement found at trial "
        f"{result.trial_index} (gap {result.gap:.6g})"]


def cmd_feasibility(args) -> Report:
    ws = _load_workspace(args)
    report = certify_strict_nonseparability(
        ws.vector(args.vector),
        [ws.measurement(name) for name in args.measurements],
        args.starts, args.seed,
    )
    return EXIT_OK, {"vector": args.vector,
                     "measurements": list(args.measurements),
                     **report.to_json()}, [
        f"zero constraints: {len(report.system.zero_outcomes)} "
        f"(anchor: measurement {report.system.anchor[0]}, "
        f"outcome {report.system.anchor[1]})",
        f"verdict: {report.verdict.value}",
        f"best residual: {report.feasibility.best_residual:.6g} "
        f"over {report.feasibility.starts} starts",
        report.message]


def cmd_montecarlo(args) -> Report:
    ws = _load_workspace(args)
    exp = PrePostExperiment(
        ws.state(args.pre), ws.state(args.post),
        ws.measurement(args.measurement), args.trials, args.seed,
    )
    report = validate_abl(exp, args.sigma_bound)
    return EXIT_OK if report.passed else EXIT_CHECK, {
        "pre": args.pre, "post": args.post, "measurement": args.measurement,
        **report.to_json()}, [report.format_table()]


def cmd_validate(args) -> Report:
    rows = (_report(builtin_workspace().to_json_dict())
            if args.workspace is None
            else validate_workspace_file(args.workspace))
    ok = all(r[2] for r in rows)
    return EXIT_OK if ok else EXIT_INPUT, {
        "entries": [{"section": s, "name": n, "ok": good, "message": msg}
                    for s, n, good, msg in rows],
        "ok": ok}, [
        *(f"{section}/{name}: {'ok' if good else f'FAIL: {msg}'}"
          for section, name, good, msg in rows),
        "workspace valid" if ok else "workspace INVALID"]


# ---------------------------------------------------------------------------
# reproduce: the three bundled demonstrations
# ---------------------------------------------------------------------------

def _reproduce_1(seed: int) -> list[tuple[str, bool, str]]:
    ws = builtin_workspace()
    target = ws.vector("ket0_bra1")
    mix = ws.mixture("classical_qubit")
    checks = []

    dist = abl_probabilities(target, ws.measurement("diagonal"))
    err = max(abs(dist[0] - 0.5), abs(dist[1] - 0.5))
    checks.append(("abl on |+>/|-> equals (1/2, 1/2)", err <= 1e-12,
                   f"max deviation {err:.3e}"))

    gaps, dt, _ = trial_gaps(Mixture.point(target), mix, 2, seed,
                             [(1, t) for t in range(300)])
    worst = float(max(np.abs(dt - 0.5).max(), gaps.max()))
    checks.append(("target and classical mixture give (1/2, 1/2) on 300 "
                   "random two-outcome measurements", worst <= DEFAULT_TOL,
                   f"worst deviation {worst:.3e}"))

    found = search_distinguishing_measurement(
        Mixture.point(target), mix, 300, 2, seed
    )
    checks.append(("no distinguishing measurement in 300 trials",
                   found is None,
                   "none found" if found is None
                   else f"found at trial {found.trial_index}"))
    return checks


def _reproduce_2(seed: int) -> list[tuple[str, bool, str]]:
    ws = builtin_workspace()
    target = ws.vector("qubit_identity")
    mix = ws.mixture("classical_qubit")
    checks = []

    rank = schmidt(target).rank()
    checks.append(("target is non-separable (Schmidt rank 2)",
                   rank == 2, f"rank {rank}"))

    all_ok = all(np.all(trial_gaps(
        Mixture.point(target), mix, k, seed,
        [(2, t) for t in range(k - 1, 300, 2)])[0] <= DEFAULT_TOL)
        for k in (1, 2))
    checks.append(("classical mixture replicates the target on 300 random "
                   "one- and two-outcome measurements", all_ok,
                   "all replicated" if all_ok else "gap found"))

    family = [ws.measurement(n)
              for n in ("computational", "diagonal", "circular")]
    cert = certify_strict_nonseparability(target, family, 24, seed)
    checks.append(("certification over the qubit family is NOT_CERTIFIED "
                   "(a separable witness exists)",
                   cert.verdict is CertificationVerdict.NOT_CERTIFIED,
                   f"verdict {cert.verdict.value}, best residual "
                   f"{cert.feasibility.best_residual:.3e}"))
    return checks


def _reproduce_3(seed: int) -> list[tuple[str, bool, str]]:
    ws = builtin_workspace()
    target = ws.vector("qutrit_signed")
    family = [ws.measurement(n) for n in QUTRIT_FAMILY]
    checks = []

    rank = schmidt(target).rank()
    checks.append(("target is non-separable (Schmidt rank 3)",
                   rank == 3, f"rank {rank}"))

    system = zero_constraints(target, family)
    shape_ok = (
        len(system.zero_outcomes) == 4
        and [mi for mi, _ in system.zero_outcomes] == [0, 1, 2, 3]
        and system.anchor == (0, 0)
    )
    checks.append(("one zero outcome per family measurement, anchored on "
                   "the first", shape_ok,
                   f"zeros {list(system.zero_outcomes)}"))

    reduction = reduce_qutrit_family(system)
    checks.append(("exact reduction derives the contradiction",
                   reduction.contradiction, "contradiction reached"))

    feas = separable_feasibility(system, 24, seed)
    checks.append(("multi-start feasibility search finds no separable "
                   "witness (INFEASIBLE_EVIDENCE)",
                   feas.verdict is FeasibilityVerdict.INFEASIBLE_EVIDENCE,
                   f"best residual {feas.best_residual:.3e} over "
                   f"{feas.starts} starts"))
    return checks


def cmd_reproduce(args) -> Report:
    pipelines = {1: _reproduce_1, 2: _reproduce_2, 3: _reproduce_3}
    checks = pipelines[args.example](args.seed)
    passed = all(ok for _, ok, _ in checks)
    return EXIT_OK if passed else EXIT_CHECK, {
        "example": args.example,
        "checks": [{"name": n, "ok": ok, "detail": d}
                   for n, ok, d in checks],
        "pass": passed,
    }, [f"[{'ok' if ok else 'FAIL'}] {name} ({detail})"
        for name, ok, detail in checks] + ["PASS" if passed else "FAIL"]


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twinspace",
        description="Two-state vectors, stories, and the ABL rule.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    seed = ("--seed", {"type": int, "default": 0,
                       "help": "base seed for all randomized steps"})

    def add_command(name: str, help_text: str, handler, *flags,
                    workspace=True):
        sp = sub.add_parser(name, help=help_text)
        if workspace:
            sp.add_argument("--workspace", metavar="PATH", default=None,
                            help="workspace JSON file (default: bundled demo)")
        for flag, spec in flags:
            sp.add_argument(flag, **spec)
        sp.add_argument("--json", action="store_true",
                        help="emit a canonical JSON report")
        sp.set_defaults(handler=handler)
        return sp

    sp = add_command("abl", "conditional outcome probabilities of a story",
                     cmd_abl)
    sp.add_argument("vector")
    sp.add_argument("measurement")

    sp = add_command("story", "does the pair form a story?", cmd_story)
    sp.add_argument("vector")
    sp.add_argument("measurement")

    sp = add_command("find-story", "construct a story measurement",
                     cmd_find_story)
    sp.add_argument("vector")

    sp = add_command("nullspace", "story-less subspace of a measurement",
                     cmd_nullspace)
    sp.add_argument("measurement")

    sp = add_command("distinguish",
                     "search for a measurement separating two mixtures",
                     cmd_distinguish, seed)
    sp.add_argument("mixture_a", help="mixture or vector name")
    sp.add_argument("mixture_b", help="mixture or vector name")
    sp.add_argument("--trials", type=int, default=1000)
    sp.add_argument("--outcomes", type=int, default=2,
                    help="outcomes per sampled measurement")

    sp = add_command("feasibility",
                     "certify strict non-separability over a family",
                     cmd_feasibility, seed)
    sp.add_argument("vector")
    sp.add_argument("measurements", nargs="+",
                    help="measurement names forming the family")
    sp.add_argument("--starts", type=int, default=64)

    sp = add_command("reproduce", "run one bundled demonstration",
                     cmd_reproduce, seed, workspace=False)
    sp.add_argument("example", type=int, choices=(1, 2, 3))

    sp = add_command("montecarlo",
                     "simulate an experiment and validate the ABL rule",
                     cmd_montecarlo, seed)
    sp.add_argument("pre", help="state name")
    sp.add_argument("post", help="state name")
    sp.add_argument("measurement")
    sp.add_argument("--trials", type=int, default=100000)
    sp.add_argument("--sigma-bound", type=float, default=4.0)

    add_command("validate", "validate a workspace file", cmd_validate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code, payload, text = args.handler(args)
    except (NotAStoryError, NoStoryInMixtureError) as err:
        print(f"no story: {err}", file=sys.stderr)
        return EXIT_NO_STORY
    except NoSuccessesError as err:
        print(f"check failed: {err}", file=sys.stderr)
        return EXIT_CHECK
    except TwinspaceError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    if args.json:
        print(_canonical_json({"command": args.command, **payload}))
    else:
        print("\n".join(text))
    return code


if __name__ == "__main__":
    sys.exit(main())
