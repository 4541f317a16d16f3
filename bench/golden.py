"""Regenerate ``bench/golden.json`` from cold sequential reference builds.

    PYTHONHASHSEED=0 PYTHONPATH=src python bench/golden.py

Every value comes from the slow, obviously correct path: ``jobs=1``, no
cache, no incremental reuse.  Run it only when a change to the program
is meant to change its outputs, and say so in that change.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

from repro.core import ValidationPipeline
from repro.enumeration import enumerate_states
from repro.incremental.edits import resolve_edits
from repro.pp.fsm_model import build_pp_control_model
from repro.pp.verilog_src import pp_control_choices, pp_control_verilog
from repro.resilience import Budget
from repro.translate import translate_verilog

from workloads import (
    BENCH,
    ColdVerdict,
    EditLoop,
    Enumeration,
    VerilogTranslation,
    artifact_digests,
    graph_digests,
)

#: The budgeted Verilog enumeration stops at the wave boundary past this.
VERILOG_MAX_STATES = 200


def graph_entry(graph) -> dict:
    entry = graph_digests(graph)
    if entry["graph_sha256"] != hashlib.sha256(graph.to_json().encode()).hexdigest():
        raise AssertionError("chunked digest differs from the digest of to_json()")
    return entry


def build_digests(config, edits=()) -> tuple:
    pipeline = ValidationPipeline(
        config, seed=0, jobs=1, edits=resolve_edits(edits), incremental=False
    )
    digests = artifact_digests(pipeline.build())
    return digests, pipeline.validate().clean


def main() -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        print("run with PYTHONHASHSEED=0: the translated model's state "
              "order depends on string hashing", file=sys.stderr)
        return 2
    golden = {}

    digests, _ = build_digests(ColdVerdict.config)
    golden[ColdVerdict.name] = {
        "states": digests["states"],
        "edges": digests["edges"],
        "graph_sha256": digests["graph_sha256"],
        "tours_sha256": digests["tours_sha256"],
        "traces_sha256_seed0": digests["traces_sha256"],
    }

    graph, _ = enumerate_states(build_pp_control_model(Enumeration.config))
    golden[Enumeration.name] = graph_entry(graph)

    budget = Budget(max_states=VERILOG_MAX_STATES)
    model, _ = translate_verilog(
        pp_control_verilog(VerilogTranslation.fill_words), "pp_control",
        choices_override=pp_control_choices(),
    )
    graph, _ = enumerate_states(model, budget=budget)
    golden[VerilogTranslation.name] = {
        "max_states": VERILOG_MAX_STATES, **graph_entry(graph)
    }

    stacks = {}
    for stack in EditLoop.stacks:
        digests, clean = build_digests(EditLoop.config, stack)
        stacks["+".join(stack)] = {
            "graph_sha256": digests["graph_sha256"],
            "tours_sha256": digests["tours_sha256"],
            "traces_sha256_seed0": digests["traces_sha256"],
            "clean": clean,
        }
    golden[EditLoop.name] = {"stacks": stacks}

    path = BENCH / "golden.json"
    path.write_text(json.dumps(golden, indent=2) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
