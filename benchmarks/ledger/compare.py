"""Compare two sets of ledger runs: better / same / worse / unresolved.

    python3 benchmarks/ledger/compare.py A.json B.json

``A`` is the baseline (the parent commit), ``B`` the candidate.  Each file
is what ``run.py --runs 5 --out FILE`` writes: for every workload, the
end-to-end results of several runs.  For every (workload, metric) the
medians are compared with the metric's direction and bound from
``BENCHMARK.json``:

- ``unresolved`` — the run-to-run spread of either side (distance between
  the first and third quartile, as a share of the median) exceeds the
  bound, so a difference of the size of the bound cannot be told from noise;
- ``worse`` / ``better`` — B's median differs from A's by more than the
  bound, in that direction;
- ``same`` — anything else.

A workload with more failed operations in B than in A is ``worse`` whatever
its timings say.  Exit status is 1 when any row is ``worse``, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys

from harness import load_manifest


def spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def verdict(metric: dict, a: list[float], b: list[float]) -> str:
    bound = metric["bound"]
    if max(spread(a), spread(b)) > bound:
        return "unresolved"
    median_a, median_b = statistics.median(a), statistics.median(b)
    change = (median_b - median_a) / median_a
    if metric["better"] == "higher":
        change = -change
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "same"


def metric_values(runs: list[dict], name: str) -> list[float]:
    return [run["metrics"][name]["value"] for run in runs]


def compare(manifest: dict, a: dict, b: dict) -> list[tuple]:
    rows = []
    for workload in (w["name"] for w in manifest["workloads"]):
        runs_a, runs_b = a["runs"][workload], b["runs"][workload]
        failed_a = sum(run["failed"] for run in runs_a) / len(runs_a)
        failed_b = sum(run["failed"] for run in runs_b) / len(runs_b)
        rows.append((workload, "failed", failed_a, failed_b, 0.0,
                     "worse" if failed_b > failed_a else "same"))
        for metric in manifest["end_to_end"]:
            values_a = metric_values(runs_a, metric["name"])
            values_b = metric_values(runs_b, metric["name"])
            rows.append((
                workload, metric["name"], statistics.median(values_a),
                statistics.median(values_b),
                max(spread(values_a), spread(values_b)),
                verdict(metric, values_a, values_b),
            ))
    return rows


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    with open(argv[0]) as handle_a, open(argv[1]) as handle_b:
        rows = compare(load_manifest(), json.load(handle_a), json.load(handle_b))
    print(f"{'workload':<20} {'metric':<18} {'A median':>12} {'B median':>12} "
          f"{'spread':>7}  verdict")
    for workload, metric, median_a, median_b, noise, outcome in rows:
        print(f"{workload:<20} {metric:<18} {median_a:>12.4f} {median_b:>12.4f} "
              f"{noise * 100:>6.2f}%  {outcome}")
    return 1 if any(row[-1] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
