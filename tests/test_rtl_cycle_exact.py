"""Cycle-exact golden for the RTL comparison simulator.

Every trace of the seed-0 pipeline trace set (``fill_words=1``) runs on
:class:`PPCore` under the clean comparison config and under each of the six
bug configs.  Every trace runs -- there is no stop at the first divergence
-- so the rare paths (Bug #1's corrupted I-line being fetched and decoded,
Bug #5's garbage write, Bug #6's stale load) are all reached.  Each run is
hashed by its cycle count, retired count, stall counters, register write
log, ``trace=True`` event stream and final architectural state; the digest
of all runs is pinned.  Any change to the simulator's timing, its stall
accounting or its event text moves the digest.
"""

import hashlib

import pytest

from repro.bugs import BUGS
from repro.core.pipeline import ValidationPipeline
from repro.harness.compare import DEFAULT_INBOX
from repro.pp.fsm_model import PPModelConfig
from repro.pp.rtl import CoreConfig, PPCore

#: SHA-256 over every run of the trace set under the 7 configs.
GOLDEN_SHA256 = "97760423d67024be4c034871b440107e2a4b00b52044768d4fd17fe10969f44e"
GOLDEN_RUNS = 7 * 35


def _configs():
    clean = CoreConfig(mem_latency=0)
    return [clean] + [clean.with_bugs(bug) for bug in sorted(BUGS)]


def _run(trace, config, traced):
    core = PPCore(
        trace.program, config, trace.stimulus(),
        inbox_tasks=list(DEFAULT_INBOX), trace=traced,
    )
    try:
        core.run(max_cycles=500_000)
        error = None
    except RuntimeError as exc:
        error = f"{type(exc).__name__}: {exc}"
    return core, error


def _observables(core):
    state = core.architectural_state()
    return (
        core.cycle, core.retired, sorted(core.stall_cycles.items()),
        list(core.regfile.write_log), state.regs, sorted(state.memory.items()),
        state.outbox, state.pc, state.instructions_retired,
    )


@pytest.fixture(scope="module")
def traces():
    pipeline = ValidationPipeline(PPModelConfig(fill_words=1), seed=0, jobs=1)
    return list(pipeline.build().traces)


def test_rtl_runs_match_golden_digest_and_tracing_is_silent(traces):
    digest = hashlib.sha256()
    runs = 0
    bug1_corruptions = 0
    for config in _configs():
        for trace in traces:
            traced, traced_error = _run(trace, config, traced=True)
            events = [(e.cycle, e.name, e.detail) for e in traced.events]
            observed = _observables(traced)
            digest.update(repr((traced_error, observed, events)).encode())
            runs += 1
            bug1_corruptions += sum(name == "bug1_corrupt_iline" for _, name, _ in events)

            quiet, quiet_error = _run(trace, config, traced=False)
            assert quiet.events == []
            assert (quiet_error, _observables(quiet)) == (traced_error, observed)
    assert runs == GOLDEN_RUNS
    assert bug1_corruptions > 0
    assert digest.hexdigest() == GOLDEN_SHA256
