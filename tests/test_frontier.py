"""Property and chaos tests for the shared-memory frontier codec.

The packed-frontier dispatch path is only sound if pack -> shared
memory -> unpack is byte-identical to the list-of-ints path at *any*
declared state width -- including widths past 64 bits, where one key
spans several little-endian words.  Hypothesis drives random layouts
through the round-trip; the chaos half proves a worker killed mid-wave
can never leak a shared-memory segment.
"""

import glob
import os
import signal
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.enumeration import enumerate_states, enumerate_states_parallel
from repro.enumeration.frontier import FrontierCodec, SharedFrontier
from repro.pp.fsm_model import PPModelConfig, build_pp_control_model
from repro.resilience import FaultPlan, RetryPolicy

FAST_RETRY = RetryPolicy(max_retries=2, backoff_seconds=0.01,
                         shard_timeout=30.0)


def keys_for(total_bits: int):
    return st.lists(
        st.integers(min_value=0, max_value=(1 << total_bits) - 1),
        min_size=0, max_size=200,
    )


# ---------------------------------------------------------------------------
# FrontierCodec: pure packing arithmetic
# ---------------------------------------------------------------------------


class TestFrontierCodec:
    def test_rejects_zero_width(self):
        with pytest.raises(ValueError):
            FrontierCodec(0)

    @pytest.mark.parametrize("bits,wps", [
        (1, 1), (23, 1), (64, 1), (65, 2), (128, 2), (129, 3), (300, 5),
    ])
    def test_words_per_state(self, bits, wps):
        assert FrontierCodec(bits).words_per_state == wps

    @given(data=st.data(), total_bits=st.integers(min_value=1, max_value=300))
    @settings(max_examples=60, deadline=None)
    def test_pack_unpack_roundtrip(self, data, total_bits):
        keys = data.draw(keys_for(total_bits))
        codec = FrontierCodec(total_bits)
        packed = codec.pack_keys(keys)
        assert len(packed) == len(keys) * codec.words_per_state
        assert codec.unpack_keys(packed) == keys

    @given(data=st.data(), total_bits=st.integers(min_value=1, max_value=300))
    @settings(max_examples=40, deadline=None)
    def test_span_decode_matches_slice(self, data, total_bits):
        keys = data.draw(keys_for(total_bits))
        codec = FrontierCodec(total_bits)
        packed = codec.pack_keys(keys)
        start = data.draw(st.integers(min_value=0, max_value=len(keys)))
        stop = data.draw(st.integers(min_value=start, max_value=len(keys)))
        assert codec.unpack_keys(packed, start, stop - start) == \
            keys[start:stop]

    @given(data=st.data(), total_bits=st.integers(min_value=1, max_value=300))
    @settings(max_examples=40, deadline=None)
    def test_append_key_equals_pack(self, data, total_bits):
        keys = data.draw(keys_for(total_bits))
        codec = FrontierCodec(total_bits)
        buf = codec.pack_keys([])
        for key in keys:
            codec.append_key(buf, key)
        assert buf == codec.pack_keys(keys)


# ---------------------------------------------------------------------------
# SharedFrontier: the shared-memory round-trip
# ---------------------------------------------------------------------------


class TestSharedFrontier:
    @given(data=st.data(), total_bits=st.integers(min_value=1, max_value=300))
    @settings(max_examples=25, deadline=None)
    def test_shm_roundtrip_byte_identical(self, data, total_bits):
        keys = data.draw(keys_for(total_bits))
        codec = FrontierCodec(total_bits)
        frontier = SharedFrontier.create(keys, codec)
        try:
            attached = SharedFrontier.attach(
                frontier.name, codec, frontier.count
            )
            try:
                assert attached.keys() == keys
            finally:
                attached.close()
            assert frontier.keys() == keys
        finally:
            frontier.unlink()

    def test_span_reads(self):
        keys = list(range(100, 180))
        codec = FrontierCodec(70)  # 2 words per state
        frontier = SharedFrontier.create(keys, codec)
        try:
            assert frontier.keys(10, 5) == keys[10:15]
            assert frontier.keys(79) == keys[79:]
            assert frontier.nbytes == len(keys) * 2 * 8
        finally:
            frontier.unlink()

    def test_empty_frontier(self):
        codec = FrontierCodec(23)
        frontier = SharedFrontier.create([], codec)
        try:
            assert frontier.keys() == []
            assert frontier.nbytes == 0
        finally:
            frontier.unlink()

    def test_unlink_is_idempotent_and_owner_only(self):
        codec = FrontierCodec(23)
        frontier = SharedFrontier.create([1, 2, 3], codec)
        name = frontier.name
        attached = SharedFrontier.attach(name, codec, 3)
        attached.unlink()  # non-owner: must not destroy the segment
        assert frontier.keys() == [1, 2, 3]
        attached.close()
        frontier.unlink()
        frontier.unlink()  # idempotent
        with pytest.raises(FileNotFoundError):
            SharedFrontier.attach(name, codec, 3)


# ---------------------------------------------------------------------------
# Chaos: killed workers must not leak segments
# ---------------------------------------------------------------------------


def _shm_segments():
    """Names of live POSIX shared-memory segments for this user."""
    return {
        os.path.basename(p)
        for p in glob.glob("/dev/shm/psm_*")
    }


def _assert_no_leak(before, deadline=3.0):
    """Assert no segment created since ``before`` is still alive.

    A segment leaked by *this* run stays forever; a segment belonging to
    an unrelated concurrent repro process drains at its wave boundary.
    Polling until the diff empties keeps the assertion sharp without
    flaking when another enumeration happens to be running on the host.
    """
    end = time.monotonic() + deadline
    while True:
        leaked = _shm_segments() - before
        if not leaked:
            return
        if time.monotonic() >= end:
            raise AssertionError(f"leaked segments: {leaked}")
        time.sleep(0.1)


#: Original packed-span task, saved so the killer wrapper can delegate.
_ORIG_SPAN_TASK = None


def _killing_span_task(payload, attempt):
    """First-attempt packed-span tasks SIGKILL their worker mid-read.

    The worker attaches the wave's segment and dies without detaching --
    the worst-case mid-wave crash.  Retried attempts run normally, so
    the wave completes after recovery.
    """
    from repro.enumeration import pool as pool_mod

    if attempt == 0 and pool_mod.in_worker():
        os.kill(os.getpid(), signal.SIGKILL)
    return _ORIG_SPAN_TASK(payload, attempt)


@pytest.mark.skipif(not os.path.isdir("/dev/shm"),
                    reason="needs a POSIX /dev/shm to observe segments")
class TestSegmentLifetime:
    def test_clean_run_leaks_nothing(self):
        """fill_words=2 waves cross the packed-dispatch threshold, so
        this run creates (and must destroy) one segment per wave."""
        before = _shm_segments()
        golden, _ = enumerate_states(
            build_pp_control_model(PPModelConfig(fill_words=2))
        )
        model = build_pp_control_model(PPModelConfig(fill_words=2))
        graph, _ = enumerate_states_parallel(model, jobs=2, retry=FAST_RETRY)
        assert graph.to_json() == golden.to_json()
        _assert_no_leak(before)

    def test_killed_worker_mid_wave_leaks_nothing(self, monkeypatch):
        """A worker SIGKILLed during a packed dispatch must not strand
        the wave's segment.

        Every packed span's first attempt kills its worker while the
        segment is attached; ``BrokenProcessPool`` recovery retires the
        generation, re-forks, and re-runs the spans.  The coordinator
        owns the segment and unlinks it at the wave boundary even on
        failure paths, so no segment may outlive the run -- and the
        graph must still be bit-identical to the undisturbed one.
        """
        from repro.enumeration import frontier as frontier_mod

        global _ORIG_SPAN_TASK
        _ORIG_SPAN_TASK = frontier_mod._expand_span_packed
        monkeypatch.setattr(
            frontier_mod, "_expand_span_packed", _killing_span_task
        )
        before = _shm_segments()
        golden, _ = enumerate_states(
            build_pp_control_model(PPModelConfig(fill_words=2))
        )
        model = build_pp_control_model(PPModelConfig(fill_words=2))
        graph, stats = enumerate_states_parallel(
            model, jobs=2, retry=FAST_RETRY
        )
        assert stats.shards_retried >= 1, "the killer never fired"
        assert not stats.degraded
        assert graph.to_json() == golden.to_json()
        _assert_no_leak(before)

    def test_legacy_fault_path_leaks_nothing(self):
        """A fault plan's scripted kill lands on a packed span (wave 4 of
        the fill_words=2 model has 298 states, past the dispatch
        threshold); the killed worker must not strand the segment."""
        before = _shm_segments()
        model = build_pp_control_model(PPModelConfig(fill_words=2))
        graph, stats = enumerate_states_parallel(
            model, jobs=2, retry=FAST_RETRY,
            faults=FaultPlan(kill_shard=(4, 1), kill_attempts=1),
        )
        assert stats.shards_retried >= 1
        _assert_no_leak(before)

    def test_coordinator_owned_segment_killed_worker_attached(self):
        """Even a worker killed *while attached* cannot leak the segment:
        only the coordinator owns (and unlinks) it."""
        before = _shm_segments()
        codec = FrontierCodec(23)
        frontier = SharedFrontier.create(list(range(64)), codec)
        name = frontier.name

        pid = os.fork()
        if pid == 0:  # child: attach, then die without detaching
            SharedFrontier.attach(name, codec, 64)
            os.kill(os.getpid(), signal.SIGKILL)
        os.waitpid(pid, 0)
        time.sleep(0.05)
        assert frontier.keys() == list(range(64))
        frontier.unlink()
        _assert_no_leak(before)
