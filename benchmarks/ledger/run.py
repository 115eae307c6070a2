"""The perf ledger: one command for every end-to-end and per-layer metric.

    python3 benchmarks/ledger/run.py                     # the whole ledger
    python3 benchmarks/ledger/run.py --runs 5 --out ledger.json
    python3 benchmarks/ledger/run.py --workload vdm_analytics --seed 7
    python3 benchmarks/ledger/run.py --workload adhoc_cold_plan --trace 1

With ``--workload`` the run happens in this process and the last line of
standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}`` holding every end-to-end metric of ``BENCHMARK.json``
(``--trace 0``, tracing off) or every per-layer metric (``--trace 1``).
Without it every workload gets ``--runs`` untraced runs and one traced
run, each in a fresh subprocess so memory peaks do not leak from one into
the next; all metrics are printed by name with their units, and ``--out``
writes the runs, their medians and quartiles, and the per-layer table.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import statistics
import subprocess
import sys

from harness import REFERENCE_PROBE_MS, emit, load_manifest


#: Workload name -> (module, class).  Imported on demand: importing the
#: engine is part of what a run costs, and a directory without src/ must
#: fail there, not print a result.
WORKLOADS = {
    "vdm_analytics": ("wl_vdm_analytics", "VdmAnalytics"),
    "point_lookup_hot": ("wl_point_lookup_hot", "PointLookupHot"),
    "adhoc_cold_plan": ("wl_adhoc_cold_plan", "AdhocColdPlan"),
    "htap_gateway_mixed": ("wl_htap_gateway_mixed", "HtapGatewayMixed"),
}


def load_workload(name: str):
    module, cls = WORKLOADS[name]
    return getattr(importlib.import_module(module), cls)()


def run_one(manifest: dict, name: str, seed: int, seconds: float, trace: bool,
            scale: str) -> dict:
    """Run one workload in this process; returns the result object plus a
    ``detail`` block (counts, sizes) the ledger keeps beside the metrics."""
    # One CPU for the whole process.  The in-process workloads are one
    # thread anyway; the gateway's threads share one GIL, and spread over
    # two CPUs each of its ten thousand GIL hand-overs a second is a
    # cross-CPU wake-up whose latency belongs to the host, not the engine
    # (measured: 120 vs 190 requests/s, spread between runs 15% vs 5%).
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workload = load_workload(name)
    if name == "htap_gateway_mixed":
        outcome = workload.run(seed, seconds, scale, trace)
    else:
        import inprocess

        run = inprocess.run_traced if trace else inprocess.run_end_to_end
        outcome = run(workload, seed, seconds, scale)
    values, detail = outcome["values"], outcome["detail"]
    if not trace:
        detail.update(raw=values, probe_ms=outcome["probe_ms"])
        values = at_reference_speed(values, outcome["probe_ms"])
    result = emit(manifest, trace, values, attempted=outcome["attempted"],
                  failed=outcome["failed"], problems=outcome["problems"])
    for problem in outcome["problems"]:
        print(f"PRECONDITION FAILED [{name}]: {problem}", file=sys.stderr)
    return {**result, "detail": detail}


def at_reference_speed(values: dict, probe_ms: dict) -> dict:
    """The end-to-end times as they would read on a box where the probe
    takes ``REFERENCE_PROBE_MS`` (see ``harness.HostSpeed``); the times as
    measured stay in the run's detail.  Memory is not a time."""
    setup = REFERENCE_PROBE_MS / probe_ms["setup"]
    run = REFERENCE_PROBE_MS / probe_ms["run"]
    return {
        **values,
        "setup_s": values["setup_s"] * setup,
        "throughput_ops_s": values["throughput_ops_s"] / run,
        "latency_p50_ms": values["latency_p50_ms"] * run,
        "latency_p95_ms": values["latency_p95_ms"] * run,
    }


def print_table(name: str, trace: bool, result: dict) -> None:
    mode = "per-layer (traced)" if trace else "end-to-end (tracing off)"
    print(f"\n== {name}: {mode}  correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']}")
    for metric, entry in result["metrics"].items():
        print(f"  {metric:<40} {entry['value']:>14.4f} {entry['unit']}")


def main(argv: list[str] | None = None) -> int:
    manifest = load_manifest()
    names = [w["name"] for w in manifest["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=manifest["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--runs", type=int, default=1,
                        help="untraced runs per workload (all-workload mode)")
    parser.add_argument("--out", help="also write the results to this JSON file")
    args = parser.parse_args(argv)
    trace = bool(args.trace)

    if args.workload:
        result = run_one(manifest, args.workload, args.seed, args.seconds,
                         trace, args.scale)
        detail = result.pop("detail")
        print_table(args.workload, trace, result)
        if args.out:
            with open(args.out, "w") as handle:
                json.dump({**result, "detail": detail, "workload": args.workload,
                           "seed": args.seed, "trace": trace}, handle, indent=1)
        # Counts and data sizes, for the ledger; the contract's result
        # object is the last line and carries `correct` itself.
        print(json.dumps({"detail": detail}))
        print(json.dumps(result))
        return 0

    # The whole ledger: per workload `--runs` untraced runs on successive
    # seeds, then one traced run; every run in a fresh process.
    def child(name: str, seed: int, traced: bool) -> dict:
        command = [sys.executable, __file__, "--workload", name,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(int(traced)), "--scale", args.scale]
        done = subprocess.run(command, capture_output=True, text=True)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if len(lines) < 2 or not lines[-1].startswith("{"):
            raise SystemExit(f"{name}: no result (exit {done.returncode})")
        return {**json.loads(lines[-1]), **json.loads(lines[-2])}

    ledger = {"meta": machine_facts(args), "runs": {}, "summary": {},
              "per_layer": {}}
    for name in names:
        runs = [child(name, args.seed + i, False) for i in range(args.runs)]
        traced = child(name, args.seed, True)
        ledger["runs"][name] = runs
        ledger["summary"][name] = summarize(runs)
        ledger["per_layer"][name] = traced
        print_table(name, False, {**runs[0], "metrics": {
            metric: {"value": entry["median"], "unit": entry["unit"]}
            for metric, entry in ledger["summary"][name].items()}})
        print_table(name, True, traced)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(ledger, handle, indent=1)
    everything = [r for runs in ledger["runs"].values() for r in runs]
    everything += list(ledger["per_layer"].values())
    return 0 if all(r["correct"] for r in everything) else 1


def summarize(runs: list[dict]) -> dict:
    """Median and quartiles of each end-to-end metric over the runs."""
    summary = {}
    for metric, first in runs[0]["metrics"].items():
        values = [run["metrics"][metric]["value"] for run in runs]
        quartiles = (statistics.quantiles(values, n=4) if len(values) > 1
                     else [values[0]] * 3)
        summary[metric] = {
            "median": statistics.median(values), "q1": quartiles[0],
            "q3": quartiles[2], "n": len(values), "unit": first["unit"],
        }
    return summary


def machine_facts(args) -> dict:
    return {
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "platform": platform.platform(), "run_seconds": args.seconds,
        "scale": args.scale, "first_seed": args.seed, "runs": args.runs,
    }


if __name__ == "__main__":
    sys.exit(main())
