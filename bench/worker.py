"""One workload in its own process: set up, run flows until time is up.

Started by ``run.py``; not meant to be run by hand.  The process limits its
own address space before importing anything heavy, gives every operation a
wall-clock budget, and writes one JSON document with the raw step timings
(and, when traced, the per-layer metrics) to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import sys
import tempfile
import time
import traceback

class OpBudgetExceeded(Exception):
    pass


def _alarm(signum, frame):
    raise OpBudgetExceeded()


def run_step(step, budget: float, sampler, inside: bool = True) -> dict:
    """Time one operation under its wall-clock budget.

    A step with ``repeat`` > 1 is called that many times back to back and
    timed as the median call.  The reference kernel is sampled before and
    after the step and, if ``inside``, during it; the time of the samples
    inside is taken off.
    """
    def net(t0, spent0):
        return time.perf_counter() - t0 - (sampler.spent - spent0)

    signal.setitimer(signal.ITIMER_REAL, budget)
    sampler.arm(inside)
    times, value = [], None
    try:
        for _ in range(step.repeat):
            t0, spent0 = time.perf_counter(), sampler.spent
            value = step.run()
            times.append(net(t0, spent0))
        status = "ok"
    except OpBudgetExceeded:
        status = "timeout"
    except MemoryError:
        status = "oom-guarded"
    except Exception as exc:                      # recorded, the run goes on
        status = f"error: {type(exc).__name__}: {exc}"
        trace = traceback.format_exc(limit=-4)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    if status != "ok":
        times.append(net(t0, spent0))
    rec = {"step": step.name, "kind": step.kind, "s": statistics.median(times),
           "total_s": sum(times), "ref_s": sampler.disarm(),
           "status": status, "work": 0, "value": value}
    if status.startswith("error"):
        rec["traceback"] = trace
    return rec


def check_step(step, rec: dict) -> None:
    if rec["status"] != "ok":
        return
    try:
        rec["work"], reason = step.check(rec["value"])
    except Exception as exc:                      # a check that raises fails
        rec["work"], reason = 0, f"check raised {type(exc).__name__}: {exc}"
    if reason is not None:
        rec["status"] = f"failed: {reason}"


def run_flow(wl, index: int, seed: int, tracer, budget: float,
             sampler) -> dict:
    steps = wl.flow(index, seed)
    if tracer is not None:
        tracer.flow = index
    # a traced flow samples the reference kernel only between steps, so that
    # no span holds kernel time; the kernel's time is never the flow's
    inside = tracer is None
    t0, spent0 = time.perf_counter(), sampler.spent
    records = [run_step(st, budget, sampler, inside) for st in steps]
    wall = time.perf_counter() - t0 - (sampler.spent - spent0)
    ref_steps = wl.reference_steps(traced=tracer is not None)
    records += [run_step(st, budget, sampler, inside) for st in ref_steps]
    if tracer is not None:
        tracer.flow = None
    # reference results first: the checks of the timed steps compare to them
    for st, rec in zip(ref_steps + steps, records[len(steps):] + records[:len(steps)]):
        check_step(st, rec)
        del rec["value"]
    return {"index": index, "seed": seed, "traced": tracer is not None,
            "wall_s": wall, "steps": records}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--mem-limit", type=int, required=True)
    ap.add_argument("--op-budget", type=float, required=True)
    ap.add_argument("--run-budget", type=float, required=True)
    ap.add_argument("--spans")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    resource.setrlimit(resource.RLIMIT_AS, (args.mem_limit, args.mem_limit))
    signal.signal(signal.SIGALRM, _alarm)

    import numpy as np
    import atlascover
    import workloads
    from tracing import LAYER_METRICS, Tracer

    tmpdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.tmp)
    wl = workloads.make(args.workload, tmpdir, args.seed)
    seeds = workloads.flow_seeds(args.seed)
    setup_s = time.monotonic() - args.spawned_at
    import reference
    result = {"setup_s": setup_s, "setup_ref_s": reference.sample(5)}
    if args.setup_only:
        with open(args.out, "w") as fh:
            json.dump(result, fh)
        return 0

    sampler = reference.Sampler()
    wl.warm_up()
    result["oracle"] = wl.oracle(args.seed)
    tracer = Tracer() if args.trace else None
    flows = []
    start = time.perf_counter()
    while len(flows) < workloads.MAX_FLOWS:
        index = len(flows)
        # a traced run alternates untraced and traced flows, so that the
        # difference of their medians is the tracing overhead
        traced = tracer is not None and index % 2 == 1
        if traced:
            tracer.install()
        try:
            flows.append(run_flow(wl, index, seeds[index],
                                  tracer if traced else None, args.op_budget,
                                  sampler))
        finally:
            if traced:
                tracer.uninstall()
        # start another flow only if it can end in time; at least two flows
        # give every median two samples
        elapsed = time.perf_counter() - start
        longest = max(f["wall_s"] for f in flows)
        if elapsed + longest > args.run_budget:
            break
        if len(flows) >= 2 and elapsed + longest > args.seconds:
            break

    result.update({
        "flows": flows,
        "measure_s": time.perf_counter() - start,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "kappas": wl.kappas,
        "params": wl.params,
        "hashes": wl.hashes,
        "env": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "atlascover": atlascover.__version__,
            "atlascover_path": os.path.dirname(atlascover.__file__),
            "threads": {k: v for k, v in os.environ.items()
                        if k.endswith("_THREADS")},
            "mem_limit_bytes": args.mem_limit,
            "op_budget_s": args.op_budget,
        },
    })
    if tracer is not None:
        traced = [f for f in flows if f["traced"]]
        untraced = [f for f in flows if not f["traced"]]
        ops = sum(len(f["steps"]) for f in traced)
        result["layers"] = tracer.layer_metrics(
            [f["index"] for f in traced], [f["wall_s"] for f in traced],
            [f["wall_s"] for f in untraced], ops)
        result["layers"]["tags"] = {
            name: {"unit": unit, "better": better, "moves": moves, "note": note}
            for name, (unit, better, moves, note) in LAYER_METRICS.items()}
        tracer.write_spans(args.spans)
        result["n_spans"] = len(tracer.spans)
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
