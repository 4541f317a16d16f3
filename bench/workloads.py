"""The benchmark's four workloads, one per fresh interpreter.

Run through ``bench/run.py``, which pins ``PYTHONHASHSEED=0`` and puts
``src`` on the path; directly::

    PYTHONHASHSEED=0 PYTHONPATH=src:bench python bench/workloads.py \\
        --workload cold-verdict --seed 0 --seconds 20 --trace 0

A run sets the workload up several times (each timed), then repeats its
*pass* -- the fixed unit of work -- for ``--seconds``, checking every
pass's outputs outside the timed region.  A pass times each of its steps
(a build, one verdict, one enumeration) and, outside traced passes, the
host's speed while each runs (``speed.py``).  The run prints one JSON
line of raw measurements; ``run.py`` turns them into metrics.

With ``--trace 1`` every second pass runs under
:class:`trace.LayerTracer` with a :class:`repro.obs.Observer` attached;
the others run plain, so the run measures its own tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.bugs import BUGS
from repro.core import ValidationPipeline
from repro.enumeration import enumerate_states
from repro.incremental.edits import resolve_edits
from repro.obs import Observer
from repro.pp.fsm_model import PPModelConfig, build_pp_control_model
from repro.pp.rtl.core import CoreConfig
from repro.pp.verilog_src import pp_control_choices, pp_control_verilog
from repro.resilience import Budget
from repro.translate import translate_verilog
from repro.vectors import VectorGenerator

from speed import measure
from trace import LayerTracer, layer_metrics

BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"

#: Counters the program keeps in its observer, read in traced passes.
OBSERVER_COUNTERS = (
    "enum.kernel.expansions",
    "enum.kernel.memo_hits",
    "cache.phase_hits",
    "cache.phase_misses",
    "incremental.region_states",
    "incremental.spliced_tours",
    "incremental.fallbacks",
)


def _timed(fn: Callable[[], Any]) -> Tuple[Any, float]:
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


class Clock:
    """Times the steps of one pass.

    With ``normalize`` each step also gets its cost in probe units from
    :func:`speed.measure` (``costs``).  Traced passes run without it, so
    that every moment of them is inside a traced layer.
    """

    def __init__(self, normalize: bool):
        self.normalize = normalize
        self.steps: Dict[str, float] = {}
        self.costs: Dict[str, float] = {}

    def step(self, name: str, fn: Callable[[], Any]) -> Any:
        if self.normalize:
            result, self.steps[name], self.costs[name] = measure(fn)
        else:
            result, self.steps[name] = _timed(fn)
        return result


# -- artifact digests ------------------------------------------------------

def graph_sha256(graph) -> str:
    """SHA-256 of ``graph.to_json()``, hashed in chunks.

    Feeds the hash the exact text ``to_json`` would return without
    building it, so checking a large graph does not raise the peak
    memory the benchmark reports.
    """
    digest = hashlib.sha256()
    digest.update(
        (
            '{"choice_names": ' + json.dumps(list(graph.choice_names))
            + ', "state_keys": '
            + json.dumps([graph.state_key(i) for i in range(graph.num_states)])
            + ', "edges": ['
        ).encode()
    )
    edges = graph.edges()
    for start in range(0, len(edges), 4096):
        chunk = json.dumps(
            [[e.src, e.dst, list(e.condition)] for e in edges[start:start + 4096]]
        )[1:-1]
        digest.update((", " + chunk if start else chunk).encode())
    digest.update(b"]}")
    return digest.hexdigest()


def tours_sha256(tours) -> str:
    """SHA-256 of the tours as JSON ``[[edge indices, instructions], ...]``."""
    payload = [[list(t.edge_indices), t.instructions] for t in tours]
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


def traces_sha256(traces) -> str:
    return hashlib.sha256(traces.to_json().encode()).hexdigest()


def artifact_digests(artifacts) -> Dict[str, Any]:
    """Counts and digests of a pipeline build (graph, tours, traces)."""
    return {
        "states": artifacts.graph.num_states,
        "edges": artifacts.graph.num_edges,
        "graph_sha256": graph_sha256(artifacts.graph),
        "tours_sha256": tours_sha256(artifacts.tours),
        "traces_sha256": traces_sha256(artifacts.traces),
    }


def graph_digests(graph) -> Dict[str, Any]:
    return {"states": graph.num_states, "edges": graph.num_edges,
            "graph_sha256": graph_sha256(graph)}


def mismatches(expected: Dict[str, Any], actual: Dict[str, Any], what: str) -> List[str]:
    """One message per key of ``expected`` that ``actual`` disagrees with."""
    return [
        f"{what}: {key} is {actual.get(key)!r}, expected {value!r}"
        for key, value in expected.items()
        if actual.get(key) != value
    ]


# -- workloads -------------------------------------------------------------

class Workload:
    """One workload: a set-up, a pass (the timed unit of work), checks.

    ``run_pass`` times its steps on the :class:`Clock` it is given and
    returns a dict with ``key`` (which variant of the pass ran),
    ``counters`` (program counters a traced pass adds to the per-layer
    metrics) and whatever ``check`` needs.  ``check`` and ``finish``
    return one message per failed operation.
    """

    name = ""
    #: Checked operations in one pass.
    ops_per_pass = 1
    #: Times the set-up runs; ``setup_s`` is the median.
    setup_repeats = 5
    #: Passes a run makes even when ``--seconds`` runs out first.
    min_passes = 3
    #: Worker processes the program uses.
    jobs = 1

    def __init__(self, golden: Dict[str, Any]):
        self.golden = golden[self.name]

    def setup(self, seed: int, scratch: Path) -> None:
        self.seed = seed

    def before_pass(self) -> None:
        """Untimed preparation of the next pass."""

    def run_pass(self, obs: Optional[Observer], clock: Clock) -> Dict[str, Any]:
        raise NotImplementedError

    def check(self, out: Dict[str, Any]) -> List[str]:
        raise NotImplementedError

    def finish(self) -> List[str]:
        """Checks that need the whole run."""
        return []


class ColdVerdict(Workload):
    """A cold build, then a verdict on the clean design and each bug."""

    name = "cold-verdict"
    config = PPModelConfig(fill_words=2)
    designs = [None] + sorted(BUGS)
    ops_per_pass = len(designs)

    def setup(self, seed, scratch):
        super().setup(seed, scratch)
        # Other seeds have no golden traces; every pass must then agree.
        self.traces_sha256 = self.golden["traces_sha256_seed0"] if seed == 0 else None

    def run_pass(self, obs, clock):
        pipeline = ValidationPipeline(self.config, seed=self.seed, jobs=1, observer=obs)
        artifacts = clock.step("build", pipeline.build)
        verdicts = []
        for bug in self.designs:
            config = CoreConfig(mem_latency=0)
            if bug is not None:
                config = config.with_bugs(bug)
            report = clock.step(f"verdict-{bug or 'clean'}",
                                lambda: pipeline.validate(config=config))
            verdicts.append(report.clean)
        return {"key": self.name, "counters": {},
                "artifacts": artifacts, "verdicts": verdicts}

    def check(self, out):
        digests = artifact_digests(out["artifacts"])
        self.traces_sha256 = self.traces_sha256 or digests["traces_sha256"]
        expected = {key: self.golden[key]
                    for key in ("states", "edges", "graph_sha256", "tours_sha256")}
        expected["traces_sha256"] = self.traces_sha256
        problems = mismatches(expected, digests, self.name)
        if problems:  # every verdict of the pass ran on wrong artifacts
            return problems[:1] * self.ops_per_pass
        return [
            f"{self.name}: bug {bug} not detected" if bug
            else f"{self.name}: clean design diverged"
            for bug, clean in zip(self.designs, out["verdicts"])
            if clean != (bug is None)
        ]


class Enumeration(Workload):
    """Model build plus enumeration, in process: no back half.

    The program's worker pool stays out: with two workers and the
    coordinator busy at once on a 2-CPU host, the pass time measured the
    scheduler (see bench/README.md).
    """

    name = "enumerate"
    config = PPModelConfig(fill_words=3, extra_pipe_stages=1)

    def run_pass(self, obs, clock):
        graph, _ = clock.step("enumerate", lambda: enumerate_states(
            build_pp_control_model(self.config), obs=obs))
        return {"key": self.name, "counters": {}, "graph": graph}

    def check(self, out):
        return mismatches(self.golden, graph_digests(out["graph"]), self.name)[:1]


class VerilogTranslation(Workload):
    """Translate the annotated PP control Verilog, then enumerate it.

    The enumeration stops at the first BFS wave boundary past
    ``max_states``: the translated model's next-state function is an AST
    interpreter, and the full 2,135-state graph takes 12 s or more, too
    long to repeat within one run.
    """

    name = "verilog-fw2"
    fill_words = 2

    def setup(self, seed, scratch):
        super().setup(seed, scratch)
        self.budget = Budget(max_states=self.golden["max_states"])

    def run_pass(self, obs, clock):
        def translate_and_enumerate():
            model, _ = translate_verilog(
                pp_control_verilog(self.fill_words), "pp_control",
                choices_override=pp_control_choices(), obs=obs,
            )
            return enumerate_states(model, budget=self.budget, obs=obs)

        graph, _ = clock.step("translate-enumerate", translate_and_enumerate)
        return {"key": self.name, "counters": {}, "graph": graph}

    def check(self, out):
        expected = {key: self.golden[key] for key in ("states", "edges", "graph_sha256")}
        return mismatches(expected, graph_digests(out["graph"]), self.name)[:1]

    def finish(self):
        # Translation fidelity: the hand-built model, enumerated under the
        # same budget, must reach exactly the same counts.
        hand, _ = enumerate_states(
            build_pp_control_model(PPModelConfig(fill_words=self.fill_words)),
            budget=self.budget,
        )
        expected = {key: self.golden[key] for key in ("states", "edges")}
        return mismatches(expected, graph_digests(hand), f"{self.name} hand model")[:1]


class EditLoop(Workload):
    """Re-verdicts after model edits, served by the incremental engine.

    Set-up makes a cold base build in a cache directory.  Each pass is
    one re-verdict (``build()`` then ``validate()``) of the next edit
    stack; every round of the five stacks starts from a fresh copy of
    the base cache.
    """

    name = "edit-loop"
    config = PPModelConfig(fill_words=2)
    stacks = [
        ("inbox-flip-fill-tail",),
        ("send-clears-stpend",),
        ("inbox-flip-refill",),
        ("noop-touch",),
        ("inbox-flip-fill-tail", "send-clears-stpend"),
    ]
    setup_repeats = 3
    min_passes = 2 * len(stacks)

    def setup(self, seed, scratch):
        super().setup(seed, scratch)
        self.root = scratch / self.name
        shutil.rmtree(self.root, ignore_errors=True)
        self.base = self.root / "base"
        ValidationPipeline(self.config, seed=seed, jobs=1, cache_dir=str(self.base)).build()
        self.position = 0
        self.work: Optional[Path] = None
        self.reference_traces: Dict[str, str] = {}

    def before_pass(self):
        if self.position % len(self.stacks) == 0:
            if self.work is not None:
                shutil.rmtree(self.work)
            self.work = self.root / f"round{self.position // len(self.stacks)}"
            shutil.copytree(self.base, self.work)

    def run_pass(self, obs, clock):
        stack = self.stacks[self.position % len(self.stacks)]
        self.position += 1
        key = "+".join(stack)
        pipeline = ValidationPipeline(
            self.config, seed=self.seed, jobs=1, cache_dir=str(self.work),
            edits=resolve_edits(stack), observer=obs,
        )
        artifacts = clock.step(f"{key}:build", pipeline.build)
        report = clock.step(f"{key}:validate", pipeline.validate)
        return {
            "key": key,
            "counters": {
                "incremental.regenerated_traces":
                    pipeline.incremental_report.regenerated_traces,
            },
            "control": pipeline.control,
            "artifacts": artifacts,
            "clean": report.clean,
            "classification": pipeline.incremental_report.classification,
        }

    def check(self, out):
        key = out["key"]
        golden = self.golden["stacks"][key]
        artifacts = out["artifacts"]
        if key not in self.reference_traces:
            # A cold build of this stack makes its traces from the same
            # graph and tours (checked against golden below) with a fresh
            # vector generator; seed 0 has them in golden.
            self.reference_traces[key] = (
                golden["traces_sha256_seed0"] if self.seed == 0
                else traces_sha256(
                    VectorGenerator(out["control"], artifacts.graph, seed=self.seed)
                    .generate(list(artifacts.tours))
                )
            )
        expected = {
            "graph_sha256": golden["graph_sha256"],
            "tours_sha256": golden["tours_sha256"],
            "traces_sha256": self.reference_traces[key],
            "clean": golden["clean"],
            "classification": "localized",
        }
        actual = {**artifact_digests(artifacts), "clean": out["clean"],
                  "classification": out["classification"]}
        return mismatches(expected, actual, f"{self.name} {key}")[:1]


WORKLOADS = {cls.name: cls for cls in (ColdVerdict, Enumeration, VerilogTranslation, EditLoop)}


# -- the measurement loop --------------------------------------------------

def _overhead(walls: Dict[str, Dict[bool, List[float]]]) -> Optional[float]:
    """Fastest traced over fastest plain pass (the sum of its steps),
    minus one, as the median over the pass variants that ran both ways
    (``None`` before any has)."""
    ratios = [
        min(by_mode[True]) / min(by_mode[False])
        for by_mode in walls.values()
        if by_mode[True] and by_mode[False]
    ]
    return statistics.median(ratios) - 1.0 if ratios else None


def run(name: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    golden = json.loads((BENCH / "golden.json").read_text())
    workload = WORKLOADS[name](golden)
    scratch = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    tracer = LayerTracer() if trace else None
    walls: Dict[str, Dict[bool, List[float]]] = defaultdict(lambda: {True: [], False: []})
    steps: Dict[str, List[float]] = defaultdict(list)
    costs: Dict[str, List[float]] = defaultdict(list)
    program: Dict[str, float] = defaultdict(float)
    failures: List[str] = []
    attempted = passes = traced_passes = 0
    try:
        setup_s: List[float] = []
        setup_costs: List[float] = []
        for _ in range(workload.setup_repeats):
            clock = Clock(normalize=True)
            clock.step("setup", lambda: workload.setup(seed, scratch))
            setup_s.append(clock.steps["setup"])
            setup_costs.append(clock.costs["setup"])
        started = time.perf_counter()
        while (passes < workload.min_passes or time.perf_counter() - started < seconds
               or (trace and _overhead(walls) is None)):
            workload.before_pass()
            traced = trace and passes % 2 == 1
            clock = Clock(normalize=not traced)
            if traced:
                obs = Observer()
                tracer.install()
                try:
                    out = tracer.span("pass", lambda: workload.run_pass(obs, clock))
                finally:
                    tracer.uninstall()
                traced_passes += 1
                for counter in OBSERVER_COUNTERS:
                    program[counter] += obs.metrics.total(counter)
                for counter, value in out["counters"].items():
                    program[counter] += value
            else:
                out = workload.run_pass(None, clock)
                for step, step_s in clock.steps.items():
                    steps[step].append(step_s)
                    costs[step].append(clock.costs[step])
            walls[out["key"]][traced].append(sum(clock.steps.values()))
            failures += workload.check(out)
            attempted += workload.ops_per_pass
            passes += 1
            del out
        # Peak memory of the measured passes, before any closing check.
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        failures += workload.finish()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    result: Dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "jobs": workload.jobs,
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "setup_s": setup_s,
        "setup_costs": setup_costs,
        "steps_s": steps,
        "step_costs": costs,
        "passes": passes,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "peak_rss_mb": (own + children) / 1024.0,
    }
    if trace:
        layers = layer_metrics(tracer, traced_passes, program)
        layers["trace.overhead"] = _overhead(walls)
        result["layers"] = layers
        tracer.write_chrome(str(OUT / f"{name}.trace.json"))
        (OUT / f"{name}.layers.json").write_text(json.dumps({
            "workload": name,
            "seed": seed,
            "traced_passes": traced_passes,
            "metrics": layers,
            "layers": tracer.layer_table(traced_passes),
        }, indent=2))
    return result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    # Budget truncation is expected in verilog-fw2; keep stderr quiet.
    logging.getLogger("repro").setLevel(logging.ERROR)
    OUT.mkdir(exist_ok=True)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
