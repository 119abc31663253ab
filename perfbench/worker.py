"""One workload in one process: set up, signal readiness, run timed rounds.

Started by ``run.py`` with the BLAS thread count fixed in its environment
and ``src`` on ``PYTHONPATH``.  It prints ``READY`` once set-up is done
(imports, seeded inputs, warm-up of lazy costs); with ``--setup-only`` it
exits there.  Otherwise it runs whole rounds until ``--seconds`` have
passed (at least two, so outputs that must repeat are compared), makes the
once-per-run checks and prints one JSON line with its measurements.

In traced mode rounds alternate untraced and traced on the same inputs;
the traced rounds give the per-layer figures, the difference between the
two kinds gives the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

from run import OUTDIR
from tracing import FUNCTION_METRICS, LAYERS, UNIT_SCALE, Tracer

MIN_ROUNDS = 2


def parse(argv):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse(argv)
    import twinspace

    source = os.path.realpath(os.path.join("src", "twinspace"))
    if os.path.dirname(os.path.realpath(twinspace.__file__)) != source:
        print(f"twinspace imported from {twinspace.__file__}, not {source}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS, CheckFailed, Recorder

    workload = WORKLOADS[args.workload](args.seed)
    try:
        workload.warm_up()
        print("READY", flush=True)
        if args.setup_only:
            return 0

        tracer = Tracer() if args.trace else None
        rounds, error = [], None
        deadline = time.perf_counter() + args.seconds
        r = 0
        try:
            while r < MIN_ROUNDS or time.perf_counter() < deadline:
                traced = bool(tracer) and r % 2 == 1
                if traced:
                    tracer.install()
                rec = Recorder()
                try:
                    workload.run_round(r // 2 if tracer else r, rec)
                finally:
                    if traced:
                        tracer.uninstall()
                rounds.append({"lib_s": rec.lib_s, "cli_s": rec.cli_s,
                               "traced": traced})
                r += 1
            workload.finish()
        except CheckFailed as err:
            error = str(err)
            print(f"check failed: {error}", file=sys.stderr)
    finally:
        workload.cleanup()

    result = {
        "correct": error is None,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "rounds": len(rounds),
        "round_s": [x["lib_s"] for x in rounds if not x["traced"]],
        "cli_s": [x["cli_s"] for x in rounds if not x["traced"]],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        agg = tracer.aggregate()
        result["per_layer"] = per_layer(rounds, agg)
        write_trace(tracer, agg, args, result["per_layer"])
    print(json.dumps(result), flush=True)
    return 0


def per_layer(rounds, agg) -> dict:
    """Per-function time per call (or per unit of work), and per traced
    round: calls, per-layer self time and calls, and the overhead."""
    traced = [x for x in rounds if x["traced"]]
    n = len(traced)
    out = {}
    for stem, suffix, span, unit, per_work in FUNCTION_METRICS:
        secs, calls, work, _ = agg["functions"].get(span, (0.0, 0, 0, 0.0))
        per = work if per_work else calls
        out[stem + suffix] = secs * UNIT_SCALE[unit] / per if per else 0.0
        out[stem + "_calls"] = calls / n
    for layer in LAYERS:
        own, calls = agg["layers"][layer]
        out[f"{layer}.self_ms"] = 1e3 * own / n
        out[f"{layer}.calls"] = calls / n

    def busy(x):
        return x["lib_s"] + x["cli_s"]

    out["trace.overhead_ms"] = 1e3 * (
        statistics.median(busy(x) for x in traced)
        - statistics.median(busy(x) for x in rounds if not x["traced"]))
    return out


def write_trace(tracer, agg, args, per_layer_values) -> None:
    """Write every recorded span, with names interned, a per-function table
    over all traced rounds and the per-layer metrics."""
    names: dict[str, int] = {}
    spans = [[names.setdefault(name, len(names)), start, end, parent, work]
             for name, start, end, parent, work in tracer.spans]
    functions = {
        name: {"seconds": secs, "calls": calls, "work": work, "self_seconds": own}
        for name, (secs, calls, work, own)
        in sorted(agg["functions"].items())
    }
    path = os.path.join(OUTDIR, f"trace-{args.workload}-{args.seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "names": list(names), "span_fields":
                   ["name", "start", "end", "parent", "work"],
                   "spans": spans, "functions": functions,
                   "per_layer": per_layer_values}, fh)


if __name__ == "__main__":
    sys.exit(main())
