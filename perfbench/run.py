"""deviq benchmark.  Run from the root of a deviq checkout:

    python3 perfbench/run.py --workload fpu-chain --seed 1 --seconds 15 --trace 0

Workloads (BENCHMARK.json says why each was chosen):

    cli-corpus      a cold `python -m deviq` process per subcommand and model
    fpu-chain       derive, deviate, check, compile on FPU chains, N = 2..16
    pendulum-chain  the same four stages on coupled pendula
    jacobi-long     Jacobi fields on long windows, with deviq's numeric oracles

Each is a closed loop with one client: an operation starts when the
previous one has returned.  A run makes round(seconds / PASS_S) passes
over the workload's inputs, PASS_S being one pass on the reference
machine, and at least one.

`--trace 0` measures the end-to-end metrics untraced and checks every
output with oracles that share no code with deviq (sympy, scipy).  Times
are in reference-machine seconds (see `common.Clock` and
`common.ProcClock`), because the shared machines this runs on change
speed from minute to minute.  `--trace 1` rebinds deviq's public
functions to record spans and reports the per-layer metrics; span times
are raw wall seconds.

Every metric is printed with its unit, then one JSON line with the
verdicts and all metrics.  The run record (samples, per-operation times,
workload-specific figures, sha256 of every output, failures, known
defects, stage breakdowns, spans) goes to .perfbench-out/.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

WORKLOADS = ("cli-corpus", "fpu-chain", "pendulum-chain", "jacobi-long")
#: a stage's self times plus `other` must add up to its traced time
STAGE_SUM_TOL_S = 1e-6


def untraced(workload: str, seed: int, seconds: float):
    if workload == "cli-corpus":
        import cli_corpus
        return cli_corpus.measure(seed, seconds)
    if workload == "jacobi-long":
        import jacobi
        return jacobi.measure(seed, seconds)
    import chain_stages as chain
    return chain.measure(workload.split("-")[0], seed, seconds)


def traced(workload: str, seed: int):
    """Per-layer metrics from one traced pass, with its spans.  Untraced
    passes run before and after it; the faster one is the base of
    `trace.overhead_frac`."""
    from tracer import Tracer

    clock = common.Clock()
    if workload == "cli-corpus":
        import cli_corpus
        one_pass = cli_corpus.make_pass(seed)
    elif workload == "jacobi-long":
        import jacobi
        one_pass = jacobi.make_pass(seed, clock)
    else:
        import chain_stages
        one_pass = chain_stages.make_pass(workload.split("-")[0], seed, clock)

    def timed(span=None):
        return clock.time(lambda: one_pass(span))

    before_s, _ = timed()
    counters = common.LayerCounters()
    tracer = Tracer(hooks=counters.hooks(), before=counters.before())
    tracer.install()
    try:
        traced_s, problems = timed(tracer.span)
    finally:
        tracer.uninstall()
    untraced_s = min(before_s, timed()[0])

    metrics = common.cold_start_metrics(clock)
    metrics.update(common.layer_metrics(tracer, counters, problems, clock, random.Random(seed)))
    metrics["trace.overhead_frac"] = traced_s / untraced_s
    ledger = common.Ledger()
    stages = tracer.stages()
    for st in stages:
        ledger.verdict(f"trace:{st['stage']}", "" if abs(st["residual_s"]) <= STAGE_SUM_TOL_S
                       else f"self times miss the stage time by {st['residual_s']:.3g}s")
    ledger.verdict("trace:spans", "" if len(tracer.spans) > len(stages) else "no deviq call was traced")
    by_stage = {}
    for st in stages:
        row = by_stage.setdefault(st["stage"], {"traced_s": 0.0, "self_s": {}})
        row["traced_s"] += st["traced_s"]
        for name, v in st["self_s"].items():
            row["self_s"][name] = row["self_s"].get(name, 0.0) + v
    detail = {"untraced_s": untraced_s, "traced_s": traced_s, "stages": by_stage,
              "spans": len(tracer.spans)}
    return metrics, ledger, detail, tracer.spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    reason = common.checkout_ok()
    if reason:
        sys.stderr.write(f"perfbench: {reason}\n")
        return 2
    sys.path.insert(1, str(common.SRC))
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    spans = None
    if args.trace:
        metrics, ledger, detail, spans = traced(args.workload, args.seed)
    else:
        metrics, ledger, detail = untraced(args.workload, args.seed, args.seconds)

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        sys.stderr.write(f"perfbench: metrics not measured: {', '.join(missing)}\n")
        return 2
    for m in wanted:
        print(f"{m['name']:<48} {metrics[m['name']]:>16.6g} {m['unit']}")
    for op, why in ledger.failures:
        sys.stderr.write(f"perfbench: FAILED {op}: {why}\n")
    for defect in ledger.known_defects:
        sys.stderr.write(f"perfbench: known defect {defect['op']}: {defect['reason']}\n")

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    common.OUT.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "attempted": ledger.attempted, "failed": ledger.failed,
        "failures": [{"op": op, "reason": why} for op, why in ledger.failures],
        "known_defects": ledger.known_defects,
        "metrics": metrics, "detail": detail, "digests": ledger.digests,
    }
    (common.OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str))
    if spans is not None:
        with open(common.OUT / f"{stem}-spans.jsonl", "w") as fh:
            fh.write('["id", "parent", "stage", "name", "t0_s", "t1_s", "self_s"]\n')
            for sid, parent, stage, name, t0, t1, self_s, _ in spans:
                fh.write(json.dumps([sid, parent, stage, name, round(t0, 7), round(t1, 7), round(self_s, 7)]) + "\n")

    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
