"""Command line front door.

Commands: abl, story, find-story, nullspace, distinguish, feasibility,
reproduce, montecarlo, validate.  Objects are resolved by name from a
workspace JSON file (``--workspace``), defaulting to the bundled demo
inventory, which reproduce always uses.  Human-readable tables go to
stdout; ``--json`` switches to a canonical JSON report (sorted keys),
byte-identical across repeated runs with the same inputs.

Exit codes: 0 success/PASS, 1 input or resolution error, 2 no story,
3 check failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from .core import DEFAULT_TOL, is_separable, schmidt
from .distinguish import (
    CertificationVerdict,
    FeasibilityVerdict,
    Mixture,
    certify_strict_nonseparability,
    distribution_gap,
    mixture_statistics,
    reduce_qutrit_family,
    search_distinguishing_measurement,
    separable_feasibility,
    zero_constraints,
)
from .errors import (
    NoStoryInMixtureError,
    NoSuccessesError,
    NotAStoryError,
    TwinspaceError,
)
from .measurement import abl_probabilities, forms_story, random_measurement
from .montecarlo import PrePostExperiment, validate_abl
from .structure import find_story_measurement, null_subspace
from .workspace import (
    QUTRIT_FAMILY,
    Workspace,
    builtin_workspace,
    validate_workspace_file,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NO_STORY = 2
EXIT_CHECK = 3


def _load_workspace(args) -> Workspace:
    if args.workspace is None:
        return builtin_workspace()
    return Workspace.load(args.workspace)


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _labels(measurement) -> list[str]:
    if measurement.labels is not None:
        return list(measurement.labels)
    return [str(i) for i in range(measurement.num_outcomes)]


def cmd_abl(args) -> int:
    ws = _load_workspace(args)
    v = ws.vector(args.vector)
    m = ws.measurement(args.measurement)
    dist = abl_probabilities(v, m)
    if args.json:
        _emit_json({
            "command": "abl",
            "vector": args.vector,
            "measurement": args.measurement,
            "labels": _labels(m),
            "probabilities": dist.to_json(),
        })
    else:
        print(f"{'outcome':<10}{'probability':>16}")
        for name, p in zip(_labels(m), dist):
            print(f"{name:<10}{p:>16.12f}")
    return EXIT_OK


def cmd_story(args) -> int:
    ws = _load_workspace(args)
    verdict = forms_story(ws.vector(args.vector),
                          ws.measurement(args.measurement))
    if args.json:
        _emit_json({
            "command": "story",
            "vector": args.vector,
            "measurement": args.measurement,
            "forms_story": verdict,
        })
    else:
        print(f"forms story: {'true' if verdict else 'false'}")
    return EXIT_OK


def cmd_find_story(args) -> int:
    ws = _load_workspace(args)
    cert = find_story_measurement(ws.vector(args.vector))
    if args.json:
        _emit_json({"command": "find-story", "vector": args.vector,
                    "certificate": cert.to_json()})
    else:
        print(f"case: {cert.case.value}")
        print(f"amplitude magnitude: {cert.amplitude_magnitude:.12g}")
        for i, z in enumerate(cert.witness.amplitudes):
            print(f"witness[{i}] = {z.real:+.12f}{z.imag:+.12f}j")
    return EXIT_OK


def cmd_nullspace(args) -> int:
    ws = _load_workspace(args)
    m = ws.measurement(args.measurement)
    ns = null_subspace(m)
    if args.json:
        _emit_json({
            "command": "nullspace",
            "measurement": args.measurement,
            "dim": m.dim,
            "num_outcomes": m.num_outcomes,
            "null_dimension": ns.dim,
            "basis": [b.to_json() for b in ns.basis],
        })
    else:
        print(f"dim^2 - outcomes = {m.dim ** 2} - {m.num_outcomes} = {ns.dim}")
        print(f"basis: {ns.dim} orthonormal two-state vectors "
              "(use --json for entries)")
    return EXIT_OK


def cmd_distinguish(args) -> int:
    ws = _load_workspace(args)
    a = ws.mixture_or_point(args.mixture_a)
    b = ws.mixture_or_point(args.mixture_b)
    result = search_distinguishing_measurement(
        a, b, args.trials, args.outcomes, args.seed
    )
    if args.json:
        payload = {"command": "distinguish", "mixture_a": args.mixture_a,
                   "mixture_b": args.mixture_b, "trials": args.trials,
                   "seed": args.seed}
        payload.update(result.to_json() if result is not None
                       else {"found": False})
        _emit_json(payload)
    elif result is None:
        print(f"indistinguishable after {args.trials} trials "
              f"(every gap <= {DEFAULT_TOL:g})")
    else:
        print(f"distinguishing measurement found at trial "
              f"{result.trial_index} (gap {result.gap:.6g})")
    return EXIT_OK


def cmd_feasibility(args) -> int:
    ws = _load_workspace(args)
    target = ws.vector(args.vector)
    measurements = [ws.measurement(name) for name in args.measurements]
    report = certify_strict_nonseparability(
        target, measurements, args.starts, args.seed
    )
    if args.json:
        _emit_json({"command": "feasibility", "vector": args.vector,
                    "measurements": list(args.measurements),
                    **report.to_json()})
    else:
        print(f"zero constraints: {len(report.system.zero_outcomes)} "
              f"(anchor: measurement {report.system.anchor[0]}, "
              f"outcome {report.system.anchor[1]})")
        print(f"verdict: {report.verdict.value}")
        print(f"best residual: {report.feasibility.best_residual:.6g} "
              f"over {report.feasibility.starts} starts")
        print(report.message)
    return EXIT_OK


def cmd_montecarlo(args) -> int:
    ws = _load_workspace(args)
    exp = PrePostExperiment(
        ws.state(args.pre), ws.state(args.post),
        ws.measurement(args.measurement), args.trials, args.seed,
    )
    report = validate_abl(exp, args.sigma_bound)
    if args.json:
        _emit_json({"command": "montecarlo", "pre": args.pre,
                    "post": args.post, "measurement": args.measurement,
                    **report.to_json()})
    else:
        print(report.format_table())
    return EXIT_OK if report.passed else EXIT_CHECK


def cmd_validate(args) -> int:
    if args.workspace is None:
        # The bundled workspace is constructed validated; report its names.
        rows = [(section, name, True, "ok") for section, table
                in builtin_workspace().to_json_dict().items()
                for name in sorted(table)]
    else:
        rows = validate_workspace_file(args.workspace)
    ok = all(r[2] for r in rows)
    if args.json:
        _emit_json({
            "command": "validate",
            "entries": [{"section": s, "name": n, "ok": good, "message": msg}
                        for s, n, good, msg in rows],
            "ok": ok,
        })
    else:
        for section, name, good, msg in rows:
            status = "ok" if good else f"FAIL: {msg}"
            print(f"{section}/{name}: {status}")
        print("workspace valid" if ok else "workspace INVALID")
    return EXIT_OK if ok else EXIT_INPUT


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

    worst = 0.0
    for t in range(300):
        m = random_measurement(2, 2, [seed, 1, t])
        dt = abl_probabilities(target, m)
        worst = max(worst, abs(dt[0] - 0.5), abs(dt[1] - 0.5),
                    distribution_gap(dt, mixture_statistics(mix, m)))
    checks.append(("target and classical mixture give (1/2, 1/2) on 300 "
                   "random two-outcome measurements", worst <= 1e-10,
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
                   not is_separable(target) and rank == 2, f"rank {rank}"))

    from .distinguish import replicates_on
    all_ok = True
    for t in range(300):
        m = random_measurement(2, 1 + t % 2, [seed, 2, t])
        all_ok = all_ok and replicates_on(Mixture.point(target), mix, m)
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
                   not is_separable(target) and rank == 3, f"rank {rank}"))

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


def cmd_reproduce(args) -> int:
    pipelines = {1: _reproduce_1, 2: _reproduce_2, 3: _reproduce_3}
    checks = pipelines[args.example](args.seed)
    passed = all(ok for _, ok, _ in checks)
    if args.json:
        _emit_json({
            "command": "reproduce",
            "example": args.example,
            "checks": [{"name": n, "ok": ok, "detail": d}
                       for n, ok, d in checks],
            "pass": passed,
        })
    else:
        for name, ok, detail in checks:
            print(f"[{'ok' if ok else 'FAIL'}] {name} ({detail})")
        print("PASS" if passed else "FAIL")
    return EXIT_OK if passed else EXIT_CHECK


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
        return args.handler(args)
    except (NotAStoryError, NoStoryInMixtureError) as err:
        print(f"no story: {err}", file=sys.stderr)
        return EXIT_NO_STORY
    except NoSuccessesError as err:
        print(f"check failed: {err}", file=sys.stderr)
        return EXIT_CHECK
    except (TwinspaceError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
