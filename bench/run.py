#!/usr/bin/env python3
"""atlascover benchmark: one workload, one seed, end-to-end or traced.

    python3 bench/run.py --workload lazy-large --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Each run spawns the workload in child processes: a few that only
set up (imports, inputs, temporary directory) to measure ``setup_s``, then
one that sets up, runs the oracle and runs flows in a closed loop with one
client for ``--seconds`` seconds.  The child limits its own address space
and gives every operation a wall-clock budget.  Every time is reported
divided by the host factor that a reference kernel measured while it ran
(see reference.py); the measured values are printed and recorded as well.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: with ``--trace 0``
the end-to-end metrics of BENCHMARK.json, with ``--trace 1`` its per-layer
metrics.  The lines before it print every metric by name, unit and sample
count.  A full record of the run goes to ``.bench_out/BENCH_*.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import reference

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".bench_out"

SETUP_PROBES = 4             # setup-only children; the worker adds one more
SETUP_REF_CALLS = 5          # reference kernel calls before each set-up
MEM_LIMIT = 2 << 30          # address-space limit of every child, bytes
OP_BUDGET = 45.0             # wall-clock budget of one operation, seconds
RUN_LIMIT = 170.0            # the whole run, seconds
PROBE_LIMIT = 20.0           # one set-up child, seconds

PIN_ENV = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                            "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                            "VECLIB_MAXIMUM_THREADS")}

# every end-to-end metric with its unit; bench/README.md defines them
E2E = {"setup_s": "s", "flow_s": "s", "cover_s": "s",
       "locate_pts_per_s": "points/s", "certify_charts_per_s": "charts/s",
       "chain_s": "s", "peak_rss_mb": "MB", "fail_frac": "ratio"}


class WorkerFailed(Exception):
    pass


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "ATLAS_TOL"}
    env.update(PIN_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args, tmp: Path, tag: str, budget: float, setup_only: bool,
          spans: Path | None = None) -> dict:
    """Run one worker child to completion or kill it at ``budget`` seconds."""
    out = tmp / f"{tag}.json"
    log_path = tmp / f"{tag}.log"
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(out), "--tmp", str(tmp),
           "--mem-limit", str(MEM_LIMIT), "--op-budget", str(OP_BUDGET),
           "--run-budget", str(max(budget - 30.0, 1.0))]
    if setup_only:
        cmd.append("--setup-only")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    with open(log_path, "w") as log:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd + ["--spawned-at", repr(t0)], env=child_env(),
                                cwd=ROOT, stdout=log, stderr=subprocess.STDOUT)
        try:
            rc = proc.wait(timeout=budget)
        except subprocess.TimeoutExpired:
            raise WorkerFailed(f"{tag}: killed after {budget:.0f} s") from None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if rc != 0 or not out.is_file():
        tail = log_path.read_text()[-2000:]
        raise WorkerFailed(f"{tag}: exit {rc}\n{tail}")
    return json.loads(out.read_text())


def source_identity() -> dict:
    """git commit when available, and a digest of the package sources."""
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=30,
                                 check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = None
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0")
        h.update(path.read_bytes())
    return {"git_sha": sha, "src_sha256": h.hexdigest()}


def tail_percentile(values: list):
    """Highest whole percentile with at least ten samples beyond it, if any."""
    n = len(values)
    if n < 20:
        return None
    p = math.floor(100.0 * (1.0 - 10.0 / n))
    return p, statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def flow_factor(flow: dict) -> float:
    """Host factor of a flow: its steps' factors weighted by their times."""
    steps = [s for s in flow["steps"] if s["kind"] != "reference"]
    total = sum(s["total_s"] for s in steps)
    scaled = sum(s["total_s"] / reference.host_factor(s["ref_s"]) for s in steps)
    return total / scaled if scaled > 0 else 1.0


def end_to_end(res: dict, setups: list, scaled: bool = True) -> dict:
    """name -> {value, unit, samples[, tail]}; metrics with no step are absent.

    With ``scaled`` every time is divided by the host factor of the step,
    flow or set-up child it was measured in (see reference.py); without,
    the times are as measured.
    """
    def factor(samples):
        return reference.host_factor(samples) if scaled else 1.0

    flows = []
    for f in res["flows"]:
        if f["traced"]:
            continue
        steps = [{**s, "s": s["s"] / factor(s["ref_s"])} for s in f["steps"]]
        k = flow_factor(f) if scaled else 1.0
        flows.append({"wall_s": f["wall_s"] / k, "steps": steps})
    setups = [s / factor(ref) for s, ref in setups]
    steps = [s for f in flows for s in f["steps"] if s["status"] == "ok"]
    out = {}

    def put(name, value, samples, series=None):
        rec = {"value": value, "unit": E2E[name], "samples": samples}
        if series is not None and tail_percentile(series) is not None:
            p, v = tail_percentile(series)
            rec["tail"] = {"percentile": p, "value": v}
        out[name] = rec

    def median_of(name, series):
        if series:
            put(name, statistics.median(series), len(series), series)

    def rate_of(name, kind):
        sel = [s for s in steps if s["kind"] == kind]
        busy = sum(s["s"] for s in sel)
        if sel and busy > 0:
            put(name, sum(s["work"] for s in sel) / busy, len(sel))

    def step_mean_of(name, kind):
        # the mean step time of each flow, then the median over flows: a plain
        # median over unlike steps would ignore the slowest of them
        per_flow = []
        for f in flows:
            times = [s["s"] for s in f["steps"] if s["kind"] == kind]
            if times and all(s["status"] == "ok" for s in f["steps"]
                             if s["kind"] == kind):
                per_flow.append(statistics.fmean(times))
        median_of(name, per_flow)

    median_of("setup_s", setups)
    median_of("flow_s", [f["wall_s"] for f in flows])
    step_mean_of("cover_s", "cover")
    rate_of("locate_pts_per_s", "locate")
    rate_of("certify_charts_per_s", "certify")
    step_mean_of("chain_s", "chain")
    put("peak_rss_mb", res["peak_rss_mb"], 1)
    attempted, failed = op_counts(res)
    put("fail_frac", failed / attempted if attempted else 0.0, attempted)
    return out


def op_counts(res: dict) -> tuple:
    records = [s for f in res["flows"] for s in f["steps"]]
    return len(records), sum(1 for s in records if s["status"] != "ok")


def print_report(args, ident, e2e, measured, res, layers, spec) -> None:
    print(f"atlascover benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} "
          f"flows={len(res['flows'])} git={ident['git_sha'] or 'unknown'}")
    factors = [flow_factor(f) for f in res["flows"]]
    print(f"host factor {statistics.median(factors):.3f} (median over flows, "
          f"{min(factors):.3f}..{max(factors):.3f}); value = measured / factor")
    print(f"{'metric':<24} {'value':>16} {'measured':>16} {'unit':<10} samples")
    for name, unit in E2E.items():
        rec = e2e.get(name)
        if rec is None:
            print(f"{name:<24} {'absent':>16} {'absent':>16} {unit:<10} 0  "
                  "(no such step)")
            continue
        line = (f"{name:<24} {rec['value']:>16.6g} "
                f"{measured[name]['value']:>16.6g} {unit:<10} {rec['samples']}")
        if "tail" in rec:
            line += f"  p{rec['tail']['percentile']}={rec['tail']['value']:.6g}"
        print(line)
    oracle = res.get("oracle")
    if oracle is not None:
        print(f"oracle: {oracle['mismatches']} mismatches on {oracle['points']} "
              f"points ({oracle['inside']} inside the union)")
    for f in res["flows"]:
        for s in f["steps"]:
            if s["status"] != "ok":
                print(f"FAILED flow {f['index']} {s['step']}: {s['status']}")
    if layers is not None:
        print(f"{'per-layer metric':<48} {'value':>14} {'unit':<9} should move")
        for item in spec["per_layer"]:
            name = item["name"]
            moves = ", ".join(f"{m} on {w}" for m, w in layers["tags"][name]["moves"])
            ran = "" if layers["exercised"].get(name, True) else "  [not exercised]"
            print(f"{name:<48} {layers['values'][name]:>14.6g} {item['unit']:<9} "
                  f"{moves or '-'}{ran}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # a terminated run still kills and waits for its worker (see spawn)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "atlascover" / "__init__.py").is_file():
        print(f"error: no atlascover sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    started = time.monotonic()
    ident = source_identity()
    OUT_DIR.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
    stem = (f"BENCH_{stamp}_{(ident['git_sha'] or 'nogit')[:12]}_"
            f"{args.workload}_seed{args.seed}_trace{args.trace}")
    spans = OUT_DIR / f"{stem}_spans.jsonl" if args.trace else None
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_DIR))
    try:
        setups = []
        # a set-up child's host factor: kernel calls here right before it
        # starts and in the child right after its set-up
        for i in range(SETUP_PROBES):
            before = reference.sample(SETUP_REF_CALLS)
            probe = spawn(args, tmp, f"setup{i}", PROBE_LIMIT, setup_only=True)
            setups.append((probe["setup_s"], before + probe["setup_ref_s"]))
        before = reference.sample(SETUP_REF_CALLS)
        budget = RUN_LIMIT - (time.monotonic() - started)
        res = spawn(args, tmp, "worker", budget, setup_only=False, spans=spans)
    except WorkerFailed as exc:
        print(f"error: worker failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    setups.append((res["setup_s"], before + res["setup_ref_s"]))

    e2e = end_to_end(res, setups)
    measured = end_to_end(res, setups, scaled=False)
    attempted, failed = op_counts(res)
    oracle = res.get("oracle")
    layers = res.get("layers")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = layers["values"] if args.trace else {k: v["value"] for k, v in e2e.items()}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in values}
    correct = (failed == 0 and len(metrics) == len(wanted)
               and (oracle is None or oracle["mismatches"] == 0))

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": correct, "attempted": attempted,
        "failed": failed, **ident,
        "nproc": os.cpu_count(), "cpu_affinity": len(os.sched_getaffinity(0)),
        "env": res["env"], "params": res["params"], "kappas": res["kappas"],
        "file_hashes": res["hashes"], "oracle": oracle,
        "end_to_end": e2e, "end_to_end_measured": measured,
        "host_factor": {
            "flows": [flow_factor(f) for f in res["flows"]],
            "setups": [reference.host_factor(ref) for _, ref in setups],
        },
        "setups": setups, "per_layer": layers,
        "spans_file": spans.name if spans else None,
        "flows": res["flows"], "measure_s": res["measure_s"],
        "run_s": time.monotonic() - started,
    }
    result_path = OUT_DIR / f"{stem}.json"
    result_path.write_text(json.dumps(record, indent=1) + "\n")

    print_report(args, ident, e2e, measured, res, layers, spec)
    print(f"record: {result_path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
