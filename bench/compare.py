"""Compare two sets of benchmark results, workload by workload.

    python bench/compare.py BASE.jsonl NEW.jsonl

Each file holds result records as ``bench/run.py`` appends them to
``bench/out/results.jsonl`` (move that file aside between the two sets).
Only untraced records count.  For every workload and end-to-end metric
of ``BENCHMARK.json`` it prints both medians and spreads (the distance
between the first and third quartile, as a share of the median) and one
verdict:

- ``worse``: NEW's median is worse than BASE's by more than the bound;
- ``unresolved``: either side's spread is wider than the bound, so the
  runs cannot tell -- unless every NEW run reads better than every BASE
  run, which is ``ok``;
- ``ok``: otherwise.

It also compares each workload's share of failed operations; any rise
is ``worse``.  Exits 1 when anything is worse, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent


def load(path: str) -> Dict[str, List[dict]]:
    """Untraced records of a results file, grouped by workload."""
    groups: Dict[str, List[dict]] = defaultdict(list)
    with open(path) as handle:
        for line in handle:
            if line.strip():
                record = json.loads(line)
                if not record.get("trace"):
                    groups[record["workload"]].append(record)
    return groups


def spread(values: Sequence[float]) -> Optional[float]:
    """Interquartile range over the median; ``None`` below two values."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else None


def verdict(base: Sequence[float], new: Sequence[float], bound: float,
            better: str) -> str:
    """``ok``, ``worse`` or ``unresolved`` for one workload and metric."""
    sign = 1.0 if better == "lower" else -1.0
    spreads = (spread(base), spread(new))
    if any(s is None or s > bound for s in spreads):
        if max(sign * v for v in new) < min(sign * v for v in base):
            return "ok"  # every new run is better than every base run
        return "unresolved"
    base_median = statistics.median(base)
    worsening = sign * (statistics.median(new) - base_median) / base_median
    return "worse" if worsening > bound else "ok"


def failed_share(records: Sequence[dict]) -> float:
    attempted = sum(r["attempted"] for r in records)
    return sum(r["failed"] for r in records) / attempted if attempted else 0.0


def compare(base: Dict[str, List[dict]], new: Dict[str, List[dict]],
            metrics: Sequence[dict]) -> List[dict]:
    """One row per workload and metric present on both sides."""
    rows = []
    for workload in sorted(set(base) & set(new)):
        for metric in metrics:
            name = metric["name"]
            b = [r["metrics"][name]["value"] for r in base[workload]]
            n = [r["metrics"][name]["value"] for r in new[workload]]
            rows.append({
                "workload": workload,
                "metric": name,
                "base_median": statistics.median(b),
                "base_spread": spread(b),
                "new_median": statistics.median(n),
                "new_spread": spread(n),
                "verdict": verdict(b, n, metric["bound"], metric["better"]),
            })
        b_share, n_share = failed_share(base[workload]), failed_share(new[workload])
        rows.append({
            "workload": workload,
            "metric": "failed_share",
            "base_median": b_share,
            "base_spread": None,
            "new_median": n_share,
            "new_spread": None,
            "verdict": "worse" if n_share > b_share else "ok",
        })
    return rows


def _pct(value: Optional[float]) -> str:
    return "-" if value is None else f"{value:.1%}"


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, new = load(argv[0]), load(argv[1])
    rows = compare(base, new, spec["end_to_end"])
    print(f"{'workload':16s} {'metric':14s} {'base':>12s} {'spread':>7s} "
          f"{'new':>12s} {'spread':>7s}  verdict")
    for row in rows:
        print(f"{row['workload']:16s} {row['metric']:14s} "
              f"{row['base_median']:12.5g} {_pct(row['base_spread']):>7s} "
              f"{row['new_median']:12.5g} {_pct(row['new_spread']):>7s}  "
              f"{row['verdict']}")
    for workload in sorted(set(base) ^ set(new)):
        print(f"{workload}: only in {'BASE' if workload in base else 'NEW'}")
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
