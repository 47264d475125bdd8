"""Tests for the invocation trace representation and builder."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TraceError
from repro.units import LINE_SIZE
from repro.workloads.trace import (
    BRANCH,
    IFETCH,
    LOAD,
    LOOP,
    STORE,
    InvocationTrace,
    LoopSpec,
    TraceBuilder,
)

CODE = 0x5555_0000_0000


class TestLoopSpec:
    def test_totals(self):
        spec = LoopSpec(blocks=(CODE,), iterations=10, insts_per_iteration=7)
        assert spec.total_insts == 70
        assert spec.body_bytes == LINE_SIZE

    def test_rejects_zero_iterations(self):
        with pytest.raises(TraceError):
            LoopSpec(blocks=(CODE,), iterations=0, insts_per_iteration=1)

    def test_rejects_empty_body(self):
        with pytest.raises(TraceError):
            LoopSpec(blocks=(), iterations=1, insts_per_iteration=1)

    def test_rejects_zero_insts(self):
        with pytest.raises(TraceError):
            LoopSpec(blocks=(CODE,), iterations=1, insts_per_iteration=0)


class TestTraceBuilder:
    def test_fetch_aligns_addresses(self):
        b = TraceBuilder()
        b.fetch(CODE + 13, insts=4)
        trace = b.build()
        assert trace.addrs[0] == CODE

    def test_rejects_zero_insts(self):
        with pytest.raises(TraceError):
            TraceBuilder().fetch(CODE, insts=0)

    def test_rejects_bad_branch_prob(self):
        with pytest.raises(TraceError):
            TraceBuilder().branch_site(CODE, 10, 1.5)

    def test_rejects_zero_count_data(self):
        with pytest.raises(TraceError):
            TraceBuilder().load(CODE, count=0)

    def test_built_trace_is_read_only(self):
        """Sweeps share traces across cells, so writes must raise."""
        b = TraceBuilder()
        b.fetch(CODE, insts=4)
        b.load(CODE + 0x10000, count=2)
        trace = b.build()
        for column in (trace.kinds, trace.addrs, trace.args, trace.args2):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 1
        assert trace.addrs[0] == CODE

    def test_extend_walk(self):
        b = TraceBuilder()
        blocks = [CODE + i * LINE_SIZE for i in range(5)]
        b.extend_walk(blocks, insts_per_block=10)
        trace = b.build()
        assert len(trace) == 5
        assert trace.total_instructions == 50

    def test_event_kinds_roundtrip(self):
        b = TraceBuilder()
        b.fetch(CODE, 4, 1)
        b.load(CODE + 4096, 2)
        b.store(CODE + 8192, 1)
        b.branch_site(CODE + 64, 10, 0.5)
        b.loop(LoopSpec(blocks=(CODE,), iterations=2, insts_per_iteration=4))
        trace = b.build()
        kinds = [kind for kind, *_ in trace.events()]
        assert kinds == [IFETCH, LOAD, STORE, BRANCH, LOOP]

    def test_len_tracks_builder(self):
        b = TraceBuilder()
        assert len(b) == 0
        b.fetch(CODE, 1)
        assert len(b) == 1


class TestInvocationTrace:
    def test_rejects_mismatched_arrays(self):
        with pytest.raises(TraceError):
            InvocationTrace(
                kinds=np.zeros(2, dtype=np.uint8),
                addrs=np.zeros(3, dtype=np.int64),
                args=np.zeros(2, dtype=np.int64),
                args2=np.zeros(2, dtype=np.int64),
            )

    def test_total_instructions_includes_loops(self):
        b = TraceBuilder()
        b.fetch(CODE, 10)
        b.loop(LoopSpec(blocks=(CODE + 4096,), iterations=5,
                        insts_per_iteration=8))
        trace = b.build()
        assert trace.total_instructions == 10 + 40

    def test_instruction_blocks_include_loop_bodies(self):
        b = TraceBuilder()
        b.fetch(CODE, 1)
        b.loop(LoopSpec(blocks=(CODE + 4096, CODE + 4096 + LINE_SIZE),
                        iterations=2, insts_per_iteration=4))
        blocks = b.build().instruction_blocks()
        assert CODE in blocks
        assert CODE + 4096 in blocks
        assert len(blocks) == 3

    def test_footprint_bytes(self):
        b = TraceBuilder()
        b.fetch(CODE, 1)
        b.fetch(CODE, 1)          # duplicate: one block
        b.fetch(CODE + LINE_SIZE, 1)
        assert b.build().instruction_footprint_bytes() == 2 * LINE_SIZE

    def test_data_blocks(self):
        b = TraceBuilder()
        b.load(CODE, 1)
        b.store(CODE + LINE_SIZE, 1)
        b.fetch(CODE + 4096, 1)
        assert len(b.build().data_blocks()) == 2

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 1000), st.integers(1, 30)),
                    min_size=1, max_size=60))
    def test_total_instructions_matches_sum(self, fetches):
        b = TraceBuilder()
        total = 0
        for block_idx, insts in fetches:
            b.fetch(CODE + block_idx * LINE_SIZE, insts)
            total += insts
        assert b.build().total_instructions == total
