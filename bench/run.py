"""Run the benchmark: every workload in a fresh interpreter, checked.

    python bench/run.py [--workload NAME ...] [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in its own subprocess with ``PYTHONHASHSEED=0`` (the
translator's state order depends on string hashing) and ``src`` on the
path.  The run prints every metric by name with its unit, appends a
record stamped with provenance to ``bench/out/results.jsonl`` and ends,
per workload, with one JSON line::

    {"correct": true, "attempted": 21, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``,
``--trace 1`` its per-layer metrics.  Exits non-zero, without a result
line, when the program's source is missing or a workload crashes.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List

from speed import NOMINAL_S

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SRC = ROOT / "src"

#: A workload subprocess is killed after this long (the run's limit is 180 s).
WORKER_TIMEOUT_S = 170


def _env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(BENCH)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["TMPDIR"] = str(OUT)
    return env


def _run_child(argv: List[str], env: Dict[str, str]) -> subprocess.CompletedProcess:
    """Run ``argv`` in its own session; on timeout, kill the whole group."""
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return subprocess.CompletedProcess(argv, proc.returncode, stdout)


#: Measures, inside a fresh interpreter, the imports a workload run makes.
_IMPORT_PROBE = (
    "import importlib, speed; "
    "print(speed.measure(lambda: importlib.import_module('workloads'))[2])"
)


def _import_cost(env: Dict[str, str]) -> float:
    """Cost, in probe units, of a fresh interpreter importing the
    workloads' code.

    Measured by the child itself: ``subprocess.run`` with a timeout polls
    for the child's exit in steps of up to 50 ms, too coarse to time it.
    """
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], cwd=ROOT,
                          env=env, check=True, timeout=60,
                          stdout=subprocess.PIPE, text=True)
    return float(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: int,
            spec: Dict[str, Any]) -> Dict[str, Any]:
    """Run one workload; return its record without provenance."""
    env = _env()
    argv = [sys.executable, str(BENCH / "workloads.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = _run_child(argv, env)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"workload {workload} exited {proc.returncode}")
    raw = json.loads(lines[-1])

    if trace:
        values = {m["name"]: raw["layers"][m["name"]] for m in spec["per_layer"]}
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        # Times are costs in seconds at the probe's nominal speed, so that
        # how busy the host's other tenants are does not move them.
        # Set-up: a fresh interpreter's imports plus the workload's own
        # set-up, paired in order; the median of the sums.
        imports = [_import_cost(env) for _ in raw["setup_costs"]]
        values = {
            "setup_s": NOMINAL_S * statistics.median(
                a + b for a, b in zip(imports, raw["setup_costs"])
            ),
            # Each step's median; their sum is one pass (edit-loop: a
            # round of its five stacks).
            "wall_s": NOMINAL_S * sum(
                statistics.median(costs) for costs in raw["step_costs"].values()
            ),
            "peak_rss_mb": raw["peak_rss_mb"],
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "pythonhashseed": raw["pythonhashseed"],
        "jobs": raw["jobs"],
        "passes": raw["passes"],
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "failures": raw["failures"],
        "steps_s": raw["steps_s"],
        "metrics": {
            name: {"value": values[name], "unit": units[name]} for name in units
        },
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for the pipeline's vector generator")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="how long each workload measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"program source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from repro.obs.bench import provenance_sha

    # Keep git's repository search inside the checkout.
    os.environ["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    provenance = {
        "git_sha": provenance_sha(str(ROOT)),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
    }
    OUT.mkdir(exist_ok=True)

    for workload in args.workload or names:
        try:
            record = measure(workload, args.seed, args.seconds, args.trace, spec)
        except (RuntimeError, subprocess.SubprocessError, ValueError, KeyError) as exc:
            print(f"benchmark failed: {exc!r}", file=sys.stderr)
            return 1
        record.update(provenance)
        record["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
        with open(OUT / "results.jsonl", "a") as handle:
            handle.write(json.dumps(record) + "\n")
        print(f"{workload}  seed={record['seed']}  sha={record['git_sha']}  "
              f"cpus={record['cpus']}  passes={record['passes']}  "
              f"ops={record['attempted']}  failed={record['failed']}")
        for failure in record["failures"]:
            print(f"  FAILED {failure}")
        for name, cell in record["metrics"].items():
            print(f"  {name:34s} {cell['value']:>16.6g} {cell['unit']}")
        print(json.dumps({key: record[key]
                          for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
