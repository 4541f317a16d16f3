"""Unit tests for the RTL building blocks: memory, memctrl, caches, units."""

import pytest

from repro.pp.rtl import (
    DCache,
    DRefillState,
    ICache,
    Inbox,
    IRefillState,
    LINE_WORDS,
    MainMemory,
    MemoryController,
    MemRequest,
    Outbox,
    RegisterFile,
    Requester,
    SpillState,
    line_base,
)


class TestMainMemory:
    def test_default_zero(self):
        assert MainMemory().read_word(0x1234) == 0

    def test_word_roundtrip(self):
        mem = MainMemory()
        mem.write_word(0x40, 0xDEADBEEF)
        assert mem.read_word(0x40) == 0xDEADBEEF

    def test_alignment(self):
        mem = MainMemory()
        mem.write_word(0x43, 7)
        assert mem.read_word(0x40) == 7

    def test_line_roundtrip(self):
        mem = MainMemory()
        mem.write_line(0x20, [1, 2, 3, 4])
        assert mem.read_line(0x20) == [1, 2, 3, 4]

    def test_critical_first_order(self):
        mem = MainMemory()
        mem.write_line(0x00, [10, 11, 12, 13])
        assert mem.read_line_critical_first(0x08) == [12, 13, 10, 11]

    def test_line_base(self):
        assert line_base(0x37) == 0x30
        assert line_base(0x40) == 0x40

    def test_bad_line_length_rejected(self):
        with pytest.raises(ValueError):
            MainMemory().write_line(0, [1, 2])


def collect(ctrl, cycles):
    """Clock the controller; the words it delivered, in order."""
    deliveries = []
    for _ in range(cycles):
        delivery = ctrl.tick()
        if delivery is not None:
            deliveries.append(delivery)
    return deliveries


class TestMemoryController:
    def make(self, latency=0):
        mem = MainMemory()
        mem.write_line(0x00, [100, 101, 102, 103])
        return mem, MemoryController(mem, latency=latency)

    def test_read_delivers_line_in_order(self):
        _, ctrl = self.make()
        ctrl.request(MemRequest(Requester.ICACHE, 0x00))
        deliveries = collect(ctrl, 10)
        assert [d.value for d in deliveries] == [100, 101, 102, 103]
        assert deliveries[-1].is_last
        assert ctrl.transactions_completed == 1

    def test_critical_word_first(self):
        _, ctrl = self.make()
        ctrl.request(MemRequest(Requester.DCACHE, 0x08, critical_first=True))
        deliveries = collect(ctrl, 10)
        assert [d.value for d in deliveries] == [102, 103, 100, 101]
        assert deliveries[0].word_offset == 2

    def test_latency_delays_first_word(self):
        _, ctrl = self.make(latency=3)
        ctrl.request(MemRequest(Requester.ICACHE, 0x00))
        empties = 0
        while True:
            if ctrl.tick() is not None:
                break
            empties += 1
        assert empties == 4  # grant cycle + 3 latency cycles

    def test_write_transaction(self):
        mem, ctrl = self.make()
        ctrl.request(MemRequest(Requester.SPILL_WB, 0x40, write_words=[7, 8, 9, 10]))
        for _ in range(5):
            ctrl.tick()
        assert mem.read_line(0x40) == [7, 8, 9, 10]

    def test_dcache_priority(self):
        _, ctrl = self.make()
        ctrl.request(MemRequest(Requester.ICACHE, 0x00))
        ctrl.request(MemRequest(Requester.DCACHE, 0x00, critical_first=True))
        # Nothing granted yet: the D request must jump the queue.
        ctrl.tick()  # grant cycle
        assert ctrl.owner is Requester.DCACHE

    def test_no_preemption_of_granted(self):
        _, ctrl = self.make()
        ctrl.request(MemRequest(Requester.ICACHE, 0x00))
        ctrl.tick()  # grant to I
        ctrl.request(MemRequest(Requester.DCACHE, 0x00))
        assert ctrl.owner is Requester.ICACHE

    def test_pace_override_holds_delivery(self):
        _, ctrl = self.make()
        ctrl.request(MemRequest(Requester.ICACHE, 0x00))
        ctrl.tick()  # grant
        ctrl.pace_override = False
        assert ctrl.tick() is None
        ctrl.pace_override = None
        assert ctrl.tick().value == 100

    def test_busy_tracks_queue_and_transaction(self):
        _, ctrl = self.make()
        assert not ctrl.busy
        ctrl.request(MemRequest(Requester.ICACHE, 0x00))
        ctrl.request(MemRequest(Requester.ICACHE, 0x10))
        assert ctrl.busy
        assert len(collect(ctrl, 5)) == 4  # grant + 4 words: first line done
        assert ctrl.busy  # the second request is still queued
        assert len(collect(ctrl, 5)) == 4
        assert not ctrl.busy
        assert ctrl.tick() is None


class TestRegisterFile:
    def test_r0_reads_zero(self):
        rf = RegisterFile()
        rf.write(0, 99)
        assert rf.read(0) == 0
        assert rf.write_log == []

    def test_write_read(self):
        rf = RegisterFile()
        rf.write(5, 0x123)
        assert rf.read(5) == 0x123
        assert rf.write_log == [(5, 0x123)]

    def test_snapshot(self):
        rf = RegisterFile()
        rf.write(1, 7)
        snap = rf.snapshot()
        rf.write(1, 8)
        assert snap[1] == 7


class TestInboxOutbox:
    def test_inbox_always_naturally_ready(self):
        inbox = Inbox([])
        assert inbox.ready()

    def test_inbox_override(self):
        inbox = Inbox([1])
        inbox.ready_override = False
        assert not inbox.ready()
        inbox.ready_override = None
        assert inbox.ready()

    def test_inbox_task_order_then_idle(self):
        inbox = Inbox([5, 6])
        assert [inbox.take_task() for _ in range(3)] == [5, 6, 0]
        assert inbox.tasks_taken == 2

    def test_outbox_capacity(self):
        outbox = Outbox(capacity=1)
        assert outbox.ready()
        outbox.accept(1)
        assert not outbox.ready()

    def test_outbox_override(self):
        outbox = Outbox()
        outbox.ready_override = False
        assert not outbox.ready()


def make_icache():
    mem = MainMemory()
    ctrl = MemoryController(mem, latency=0)
    return mem, ctrl, ICache(mem, ctrl, num_sets=4)


class TestICache:
    def test_miss_then_refill_then_hit(self):
        mem, ctrl, cache = make_icache()
        mem.write_line(0x100, [11, 12, 13, 14])
        assert cache.lookup(0x104) is None  # cold miss (natural)
        cache.begin_refill(0x104)
        assert cache.stalling
        for _ in range(10):
            cache.tick()
            delivery = ctrl.tick()
            if delivery is not None:
                cache.accept(delivery)
        assert cache.state is IRefillState.FIXUP
        cache.finish_fixup()
        assert cache.lookup(0x104) == 12

    def test_forced_hit_reads_backing_memory(self):
        mem, _, cache = make_icache()
        mem.write_word(0x200, 77)
        assert cache.lookup(0x200, force_hit=True) == 77

    def test_forced_miss_invalidates_resident(self):
        mem, ctrl, cache = make_icache()
        mem.write_line(0x0, [1, 2, 3, 4])
        cache.begin_refill(0x0)
        for _ in range(10):
            cache.tick()
            delivery = ctrl.tick()
            if delivery is not None:
                cache.accept(delivery)
        cache.finish_fixup()
        assert cache.lookup(0x0) == 1
        assert cache.lookup(0x0, force_hit=False) is None
        assert cache.lookup(0x0) is None  # genuinely gone now

    def test_double_refill_rejected(self):
        _, _, cache = make_icache()
        cache.begin_refill(0x0)
        with pytest.raises(RuntimeError):
            cache.begin_refill(0x10)


def make_dcache(num_sets=4):
    mem = MainMemory()
    ctrl = MemoryController(mem, latency=0)
    return mem, ctrl, DCache(mem, ctrl, num_sets=num_sets)


def pump(cache, ctrl, cycles=20):
    """Clock the refill machinery until quiescent."""
    critical = None
    for _ in range(cycles):
        cache.tick()
        delivery = ctrl.tick()
        if delivery is not None:
            value = cache.accept(delivery)
            if value is not None:
                critical = value
    return critical


class TestDCache:
    def test_refill_returns_critical_word_first(self):
        mem, ctrl, cache = make_dcache()
        mem.write_line(0x40, [40, 41, 42, 43])
        assert not cache.probe(0x48)
        cache.start_refill(0x48, for_store=False)
        critical = pump(cache, ctrl)
        assert critical == 42
        assert cache.refill_state is DRefillState.IDLE
        assert cache.read_hit(0x48) == 42

    def test_split_store_posts_then_drains(self):
        mem, ctrl, cache = make_dcache()
        cache.start_refill(0x0, for_store=True)
        pump(cache, ctrl)
        cache.post_store(0x4, 99)
        assert cache.pending_store == (0x4, 99)
        assert cache.conflicts_with_pending(0x8)      # same line
        assert not cache.conflicts_with_pending(0x40)  # different line
        cache.drain_pending_store()
        assert cache.pending_store is None
        assert cache.read_hit(0x4) == 99

    def test_dirty_victim_spills_and_writes_back(self):
        mem, ctrl, cache = make_dcache(num_sets=1)
        # Fill both ways of the single set, dirty one of them.
        cache.start_refill(0x00, for_store=False)
        pump(cache, ctrl)
        cache.start_refill(0x10, for_store=False)
        pump(cache, ctrl)
        cache.write_hit(0x00, 1234)  # dirty way holding line 0x00
        # Third line forces an eviction of the LRU way.
        cache.start_refill(0x20, for_store=False, force_dirty_victim=None)
        assert cache.spills >= 0
        pump(cache, ctrl, cycles=30)
        assert cache.spill_state is SpillState.EMPTY
        # Whichever line was evicted, its data must survive somewhere.
        cache.flush_all()
        assert mem.read_word(0x00) == 1234

    def test_forced_clean_eviction_preserves_dirty_data(self):
        mem, ctrl, cache = make_dcache(num_sets=1)
        cache.start_refill(0x00, for_store=False)
        pump(cache, ctrl)
        cache.start_refill(0x10, for_store=False)
        pump(cache, ctrl)
        cache.write_hit(0x00, 555)
        cache.start_refill(0x20, for_store=False, force_dirty_victim=False)
        pump(cache, ctrl, cycles=30)
        cache.flush_all()
        assert mem.read_word(0x00) == 555

    def test_forced_miss_flushes_dirty_line(self):
        mem, ctrl, cache = make_dcache()
        cache.start_refill(0x0, for_store=False)
        pump(cache, ctrl)
        cache.write_hit(0x0, 42)
        assert cache.probe(0x0, force_hit=False) is False
        assert mem.read_word(0x0) == 42  # flushed on the forced miss

    def test_forced_hit_nonresident_write_through(self):
        mem, _, cache = make_dcache()
        assert cache.probe(0x80, force_hit=True)
        cache.write_hit(0x80, 7)
        assert mem.read_word(0x80) == 7
        assert cache.read_hit(0x80) == 7

    def test_busy_blocks_second_refill(self):
        _, _, cache = make_dcache()
        cache.start_refill(0x0, for_store=False)
        assert cache.busy
        with pytest.raises(RuntimeError):
            cache.start_refill(0x40, for_store=False)

    def test_spill_buffer_never_clobbered(self):
        # Regression for the spill race: a second dirty-victim refill right
        # after a fill completes must not lose the parked victim.
        mem, ctrl, cache = make_dcache(num_sets=1)
        cache.start_refill(0x00, for_store=False)
        pump(cache, ctrl)
        cache.start_refill(0x10, for_store=False)
        pump(cache, ctrl)
        cache.write_hit(0x00, 111)
        cache.write_hit(0x10, 222)
        cache.start_refill(0x20, for_store=False)  # evicts a dirty victim
        pump(cache, ctrl, cycles=40)
        cache.start_refill(0x30, for_store=False)  # evicts the other
        pump(cache, ctrl, cycles=40)
        cache.flush_all()
        assert mem.read_word(0x00) == 111
        assert mem.read_word(0x10) == 222

    def test_flush_all_covers_pending_and_spill(self):
        mem, ctrl, cache = make_dcache()
        cache.start_refill(0x0, for_store=True)
        pump(cache, ctrl)
        cache.post_store(0x0, 31)
        cache.flush_all()
        assert mem.read_word(0x0) == 31
