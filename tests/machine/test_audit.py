"""Tests for the integrity auditor, divergence localization, and the
flight recorder (docs/FAULT_MODEL.md §5).

The auditor's contract: writes the runtime vouches for (``note_write``)
are never divergences; any other byte change -- a scribble, a stray
host-side poke, an un-noted reallocation -- is localized to
``(rank, arena, chunk, slots)``.
"""

import json
import os
import zlib

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from repro.distribution.align import Alignment
from repro.distribution.array import AxisMap, DistributedArray
from repro.distribution.dist import CyclicK, ProcessorGrid
from repro.machine.audit import (
    WHOLE_ARENA,
    Divergence,
    IntegrityAuditor,
    localize_divergence,
)
from repro.machine.faults import FaultPlan
from repro.machine.trace import FlightRecorder
from repro.machine.vm import VirtualMachine

SEEDS = [int(s) for s in os.environ.get("FAULT_SEEDS", "0").split(",")]


def make_vm(p=2, n=16):
    vm = VirtualMachine(p)

    def alloc(ctx):
        mem = ctx.allocate("x", n)
        mem[:] = np.arange(n, dtype=float) + 100.0 * ctx.rank

    vm.run(alloc)
    return vm


def noop(ctx):
    pass


class TestLedger:
    def test_clean_machine_audits_clean(self):
        vm = make_vm()
        auditor = IntegrityAuditor(chunk_size=4)
        auditor.attach(vm)
        vm.run(noop)
        assert auditor.audit(vm) == []
        assert auditor.stats.audits == 1
        assert auditor.stats.chunks_checked > 0
        auditor.detach(vm)
        assert auditor.commit not in vm.barrier_hooks

    def test_unnoted_write_is_localized_divergence(self):
        vm = make_vm(p=2, n=16)
        auditor = IntegrityAuditor(chunk_size=4)
        auditor.attach(vm)
        vm.processors[1].memory("x")[9] = -1.0  # un-vouched byte change
        divs = auditor.audit(vm)
        assert len(divs) == 1
        div = divs[0]
        assert (div.rank, div.arena) == (1, "x")
        assert div.chunk == 9 // 4 and div.slots == (9,)
        assert div.localized
        lo, hi = auditor.chunk_range(1, "x", div.chunk)
        assert lo <= 9 < hi

    def test_noted_write_commits_at_barrier(self):
        vm = make_vm()
        auditor = IntegrityAuditor(chunk_size=4)
        auditor.attach(vm)

        def write(ctx):
            ctx.memory("x")[3] = -7.0
            auditor.note_write(ctx.rank, "x", [3])

        vm.run(write)  # commit hook folds the note at the barrier
        assert auditor.audit(vm) == []
        assert auditor.stats.slots_refreshed == 2  # one slot per rank

    def test_note_without_commit_is_still_divergence(self):
        # A write noted but not yet folded (no barrier crossed) diverges:
        # the ledger only trusts what survived a commit.
        vm = make_vm()
        auditor = IntegrityAuditor(chunk_size=4)
        auditor.attach(vm)
        vm.processors[0].memory("x")[5] = -3.0
        auditor.note_write(0, "x", [5])
        assert len(auditor.audit(vm)) == 1

    def test_expected_values_restore_cleanliness(self):
        vm = make_vm()
        auditor = IntegrityAuditor(chunk_size=8)
        auditor.attach(vm)
        arena = vm.processors[0].memory("x")
        arena[[2, 3, 11]] = -9.0
        divs = auditor.audit(vm)
        slots = sorted(s for d in divs for s in d.slots)
        assert slots == [2, 3, 11]
        for div in divs:
            arena[list(div.slots)] = auditor.expected_values(
                0, "x", list(div.slots)
            )
        assert auditor.audit(vm) == []

    def test_unnoted_reallocation_is_whole_arena(self):
        vm = make_vm(n=16)
        auditor = IntegrityAuditor(chunk_size=4)
        auditor.attach(vm)
        vm.processors[0].allocate("x", 8)  # layout changed, never noted
        divs = auditor.audit(vm)
        assert any(
            d.rank == 0 and d.chunk == WHOLE_ARENA and not d.localized
            for d in divs
        )

    def test_scribble_detected_and_repairable(self):
        plan = FaultPlan(seed=6, forced_scribbles=frozenset({(1, 0, "x")}))
        vm = VirtualMachine(2, fault_plan=plan)

        def alloc(ctx):
            ctx.allocate("x", 32)[:] = 1.5

        vm.run(alloc)  # superstep 0: allocate (no scribble yet)
        auditor = IntegrityAuditor(chunk_size=8)
        auditor.attach(vm)
        vm.run(noop)  # superstep 1: the forced scribble fires post-commit
        divs = auditor.audit(vm)
        assert len(divs) == 1 and divs[0].rank == 0 and divs[0].slots
        arena = vm.processors[0].memory("x")
        arena[list(divs[0].slots)] = auditor.expected_values(
            0, "x", list(divs[0].slots)
        )
        assert auditor.audit(vm) == []
        assert np.array_equal(arena, np.full(32, 1.5))

    def test_capture_rank_resets_truth(self):
        vm = make_vm()
        auditor = IntegrityAuditor(chunk_size=4)
        auditor.attach(vm)
        vm.processors[0].memory("x")[0] = -1.0
        assert auditor.audit(vm)
        auditor.capture_rank(vm.processors[0])  # adopt current bytes
        assert auditor.audit(vm) == []

    def test_attach_elsewhere_raises(self):
        vm_a, vm_b = make_vm(), make_vm()
        auditor = IntegrityAuditor()
        auditor.attach(vm_a)
        with pytest.raises(ValueError, match="another machine"):
            auditor.attach(vm_b)

    def test_chunk_size_validation(self):
        with pytest.raises(ValueError, match="chunk_size"):
            IntegrityAuditor(chunk_size=0)


class CrcLedger:
    """Scalar oracle: the per-chunk CRC-32 ledger the shadow comparison
    replaced.  A CRC table over the trusted chunks, re-CRC'd per touched
    chunk on refresh and scanned chunk by chunk on audit; a chunk whose
    CRC mismatches reports its differing bytes' slots."""

    def __init__(self, arena, chunk_size):
        self.shadow = arena.copy()
        self.chunk_size = chunk_size
        self.chunk_bytes = chunk_size * arena.dtype.itemsize
        raw = self.shadow.view(np.uint8)
        self.crcs = [
            zlib.crc32(raw[off : off + self.chunk_bytes].tobytes())
            for off in range(0, raw.size, self.chunk_bytes)
        ] or [zlib.crc32(b"")]

    def refresh(self, slots, arena):
        self.shadow[slots] = arena[slots]
        raw = self.shadow.view(np.uint8)
        for c in np.unique(slots // self.chunk_size):
            off = int(c) * self.chunk_bytes
            self.crcs[int(c)] = zlib.crc32(raw[off : off + self.chunk_bytes].tobytes())

    def audit(self, arena):
        live, shadow = arena.view(np.uint8), self.shadow.view(np.uint8)
        itemsize = self.shadow.dtype.itemsize
        out = []
        for c, crc in enumerate(self.crcs):
            off = c * self.chunk_bytes
            window = live[off : off + self.chunk_bytes]
            if zlib.crc32(window.tobytes()) == crc:
                continue
            diff = np.nonzero(window != shadow[off : off + self.chunk_bytes])[0]
            out.append((c, tuple(sorted({(off + int(b)) // itemsize for b in diff}))))
        return out


SPECIAL = [0.0, -0.0, 1.5, -2.25, np.inf, np.nan]


@st.composite
def audit_cases(draw):
    """Per-rank arenas (lengths 0, below ``chunk_size``, partial last
    chunks), a chunk size, and rounds of noted writes followed by
    un-noted byte changes: bit flips, signed-zero flips, NaN payloads."""
    chunk_size = draw(st.integers(1, 9))
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    arenas = []
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(0, 3 * chunk_size + 2))
        arenas.append(np.array(
            draw(st.lists(st.sampled_from(SPECIAL), min_size=n, max_size=n)),
            dtype=dtype,
        ))
    rounds = []
    for _ in range(draw(st.integers(1, 3))):
        noted, unnoted = [], []
        for rank, arena in enumerate(arenas):
            if arena.size == 0:
                continue
            slot = st.integers(0, arena.size - 1)
            for s in draw(st.lists(slot, max_size=4)):
                noted.append((rank, s, draw(st.sampled_from(SPECIAL))))
            ops = st.one_of(
                st.tuples(st.just("flip"), st.integers(0, arena.nbytes - 1),
                          st.integers(0, 7)),
                st.tuples(st.just("signed_zero"), slot, st.just(0)),
                st.tuples(st.just("nan_payload"), slot, st.integers(1, 255)),
            )
            for op in draw(st.lists(ops, max_size=4)):
                unnoted.append((rank, *op))
        rounds.append((noted, unnoted))
    return chunk_size, arenas, rounds


def apply_unnoted(arena, op, where, arg):
    """Change arena bytes outside any noted write: flip bit ``arg`` of
    byte ``where``, or change slot ``where``'s zero sign or NaN payload
    (``arg``) so that float ``==`` cannot tell."""
    if op == "flip":
        arena.view(np.uint8)[where] ^= np.uint8(1 << arg)
    elif op == "signed_zero" and arena[where] == 0:
        arena[where] = -arena[where]
    elif op == "nan_payload" and np.isnan(arena[where]):
        bits = arena.view(np.uint32 if arena.itemsize == 4 else np.uint64)
        quiet = np.array(np.nan, dtype=arena.dtype).view(bits.dtype)
        bits[where] = quiet | bits.dtype.type(arg)


@settings(max_examples=150, deadline=None)
@given(case=audit_cases())
@example(  # float == cannot see either change; the audit must
    case=(2, [np.array([0.0, np.nan, 1.0, 2.0])],
          [([], [(0, "signed_zero", 0, 0), (0, "nan_payload", 1, 0x2A)])])
)
def check_audit_against_crc_oracle(case):
    chunk_size, initial, rounds = case
    vm = VirtualMachine(len(initial))

    def alloc(ctx):
        src = initial[ctx.rank]
        ctx.allocate("x", src.size, dtype=src.dtype)[:] = src

    vm.run(alloc)
    auditor = IntegrityAuditor(chunk_size=chunk_size)
    auditor.attach(vm)
    arenas = [proc.memory("x") for proc in vm.processors]
    oracles = [CrcLedger(a, chunk_size) for a in arenas]
    for noted, unnoted in rounds:

        def write(ctx):
            for rank, slot, value in noted:
                if rank == ctx.rank:
                    ctx.memory("x")[slot] = value
                    auditor.note_write(rank, "x", [slot])

        vm.run(write)  # the barrier commits every note
        for rank, oracle in enumerate(oracles):
            slots = np.unique([s for r, s, _ in noted if r == rank]).astype(np.int64)
            if slots.size:
                oracle.refresh(slots, arenas[rank])
        for rank, op, where, arg in unnoted:
            apply_unnoted(arenas[rank], op, where, arg)
        checked = auditor.stats.chunks_checked
        got = [(d.rank, d.chunk, d.slots) for d in auditor.audit(vm)]
        want = [
            (rank, chunk, slots)
            for rank, oracle in enumerate(oracles)
            for chunk, slots in oracle.audit(arenas[rank])
        ]
        assert got == want
        assert auditor.stats.chunks_checked - checked == sum(
            len(o.crcs) for o in oracles
        )


class TestAgainstCrcOracle:
    """The shadow comparison gives the per-chunk CRC scan's verdicts
    (bar CRC-32 collisions, which the scan missed)."""

    @pytest.mark.parametrize("sweep_seed", SEEDS)
    def test_audit_matches_crc_oracle(self, sweep_seed):
        seed(sweep_seed)(check_audit_against_crc_oracle)()


class TestLocalizeDivergence:
    def make_1d(self, name, n, p, k):
        grid = ProcessorGrid("P", (p,))
        return DistributedArray(
            name, (n,), grid,
            (AxisMap(CyclicK(k), Alignment(1, 0), grid_axis=0),),
        )

    def test_slots_map_to_owned_global_indices(self):
        n, p, k = 48, 3, 4
        array = self.make_1d("A", n, p, k)
        for rank in range(p):
            slots = tuple(range(array.local_size(rank)))
            div = Divergence(0, rank, "A", 0, slots)
            mapping = localize_divergence(div, array)
            assert mapping  # every rank owns something at this size
            for slot, index in mapping.items():
                assert array.is_local(index, rank)
                assert array.local_address(index, rank) == slot

    def test_unowned_slots_omitted(self):
        array = self.make_1d("A", 24, 2, 4)
        huge = array.local_size(0) + 100
        div = Divergence(0, 0, "A", 99, (huge,))
        assert localize_divergence(div, array) == {}

    def test_empty_slots_empty_mapping(self):
        array = self.make_1d("A", 24, 2, 4)
        assert localize_divergence(Divergence(0, 0, "A", 0, ()), array) == {}


class TestFlightRecorder:
    def traffic(self, ctx):
        ctx.send((ctx.rank + 1) % ctx.p, "t", float(ctx.rank))

    def test_sends_and_deliveries_land_in_the_right_rings(self):
        vm = VirtualMachine(2)
        rec = FlightRecorder()
        rec.attach(vm)
        vm.run(self.traffic)
        vm.run(lambda ctx: list(ctx.drain("t")))
        snap = rec.snapshot()
        kinds0 = [r["kind"] for r in snap["ranks"]["0"]]
        assert "send" in kinds0 and "deliver" in kinds0
        rec.detach()
        # Detaching restores the event log's previous (disabled) state.
        assert not vm.obs.events.enabled

    def test_capacity_bound_and_eviction_count(self):
        vm = VirtualMachine(2)
        rec = FlightRecorder(capacity=4)
        rec.attach(vm)
        for _ in range(8):
            vm.run(self.traffic)
        snap = rec.snapshot()
        assert all(len(ring) <= 4 for ring in snap["ranks"].values())
        assert snap["dropped_records"] > 0

    def test_fault_events_folded_into_victim_ring(self):
        vm = VirtualMachine(2, fault_plan=FaultPlan(drop=1.0))
        rec = FlightRecorder()
        rec.attach(vm)
        vm.run(self.traffic)
        vm.run(noop)
        snap = rec.snapshot()
        assert any(
            r["kind"] == "drop"
            for ring in snap["ranks"].values()
            for r in ring
        )

    def test_dump_writes_json(self, tmp_path):
        vm = VirtualMachine(2)
        rec = FlightRecorder()
        rec.attach(vm)
        vm.run(self.traffic)
        rec.record(0, vm.superstep, "audit", "synthetic entry")
        path = rec.dump(tmp_path, label="unit")
        assert path.exists() and path.name.startswith("flight-unit-")
        data = json.loads(path.read_text())
        assert data["capacity"] == rec.capacity
        assert "0" in data["ranks"]
        assert any(r["kind"] == "audit" for r in data["ranks"]["0"])

    def test_capacity_validation(self):
        with pytest.raises(ValueError, match="capacity"):
            FlightRecorder(capacity=0)
