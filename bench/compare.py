#!/usr/bin/env python3
"""Compare two ``result.json`` files of ``bench/run.py``.

    python3 bench/compare.py A.json B.json

One row per (workload, end-to-end metric): both medians, the ratio
B/A with its base, and a verdict from the bounds in BENCHMARK.json:

``improved``    B is better than A by more than A's own quartile spread
``unchanged``   B is no worse than A by more than the bound
``regressed``   B is worse than A by more than the bound
``unresolved``  the run-to-run spread of either side is wider than the
                bound, so the medians cannot separate -- unless every
                run of B reads better than every run of A

plus one failure-share row per workload.  Exits 1 on any regression or
on a failure share that grew.  Quick-mode files are refused.
"""

from __future__ import annotations

import json
import os
import sys
from typing import List

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import stats  # noqa: E402

SPEC_PATH = os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")


def verdict(a: dict, b: dict, better: str, bound: float) -> str:
    worse = stats.worse_by(a["median"], b["median"], better)
    a_values, b_values = a.get("values", []), b.get("values", [])
    if better == "lower":
        all_better = bool(a_values) and bool(b_values) and max(b_values) < min(a_values)
    else:
        all_better = bool(a_values) and bool(b_values) and min(b_values) > max(a_values)
    if max(a["spread"], b["spread"]) > bound and not all_better:
        return "unresolved"
    if worse > bound:
        return "regressed"
    if -worse > max(a["spread"], 1e-12) and a["n"] > 1:
        return "improved"
    return "unchanged"


def compare(a: dict, b: dict, spec: dict) -> List[dict]:
    rows = []
    for workload in spec["workloads"]:
        name = workload["name"]
        if name not in a["workloads"] or name not in b["workloads"]:
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        for metric in spec["end_to_end"]:
            key = metric["name"]
            ma, mb = wa["end_to_end"][key], wb["end_to_end"][key]
            rows.append({
                "workload": name, "metric": key, "unit": metric["unit"],
                "a": ma["median"], "b": mb["median"],
                "ratio": mb["median"] / ma["median"] if ma["median"] else float("inf"),
                "verdict": verdict(ma, mb, metric["better"], metric["bound"]),
            })
        share_a = wa["failed"] / wa["attempted"]
        share_b = wb["failed"] / wb["attempted"]
        rows.append({
            "workload": name, "metric": "failure_share", "unit": "ratio",
            "a": share_a, "b": share_b,
            "ratio": share_b / share_a if share_a else (1.0 if share_b == 0 else float("inf")),
            "verdict": "regressed" if share_b > share_a else "unchanged",
        })
    return rows


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    documents = []
    for path in argv:
        with open(path, encoding="utf-8") as handle:
            documents.append(json.load(handle))
        if documents[-1].get("quick"):
            sys.stderr.write(f"compare: {path} is a --quick result; quick runs are not comparable\n")
            return 2
    with open(SPEC_PATH, encoding="utf-8") as handle:
        spec = json.load(handle)
    a, b = documents
    for label, doc in (("A", a), ("B", b)):
        m = doc["machine"]
        print(f"{label}: {m['cores']} cores, python {m['python']}, numpy {m['numpy']}, {m['platform']}")
    rows = compare(a, b, spec)
    print(f"{'workload':<17} {'metric':<20} {'A median':>14} {'B median':>14} {'B/A':>8}  verdict")
    for row in rows:
        print(f"{row['workload']:<17} {row['metric']:<20} {row['a']:>14.4f} {row['b']:>14.4f} "
              f"{row['ratio']:>8.4f}  {row['verdict']}  ({row['unit']}, base A)")
    regressed = [row for row in rows if row["verdict"] == "regressed"]
    print(f"\n{len(regressed)} regressed, "
          f"{sum(r['verdict'] == 'unresolved' for r in rows)} unresolved, "
          f"{sum(r['verdict'] == 'improved' for r in rows)} improved of {len(rows)} rows")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
