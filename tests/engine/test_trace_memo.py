"""Scope of the sweep-scoped trace memo (``repro.workloads.memo``).

The memo shares traces between the cells of one sweep batch.  These tests
pin down its lifetime: absent outside a sweep, never holding more than
one trace key, empty once a sweep ends however it ends, and never
carrying traces from one sweep into the next.
"""

from __future__ import annotations

import pytest

import tests.engine.fake_provider  # noqa: F401  (registers trace_memo_probe)
from repro.engine import FailurePolicy, configure, sweep, sweep_outcomes
from repro.engine.job import Job
from repro.experiments.common import RunConfig, make_traces, run_config
from repro.workloads.function import FunctionModel
from repro.workloads.memo import TraceMemo, active_trace_memo, trace_memo_scope
from repro.workloads.suite import suite_subset

PROVIDER = "tests.engine.fake_provider"
CFG = RunConfig(invocations=2, warmup=1, seed=5, instruction_scale=0.05)


def probe(profile, cfg=CFG, **opts):
    return Job.make(profile, None, cfg, "trace_memo_probe",
                    provider=PROVIDER, **opts)


@pytest.fixture
def profiles():
    return suite_subset(["Auth-G", "ProdL-G"])


@pytest.fixture
def memos(monkeypatch):
    """Every TraceMemo that served traces, plus its key count after each
    call."""
    seen = []
    sizes = []
    original = TraceMemo.traces

    def spy(self, *args, **kwargs):
        traces = original(self, *args, **kwargs)
        if self not in seen:
            seen.append(self)
        sizes.append(len(self))
        return traces

    monkeypatch.setattr(TraceMemo, "traces", spy)
    return seen, sizes


@pytest.fixture
def built(monkeypatch):
    """Counts traces actually generated by FunctionModel."""
    count = [0]
    original = FunctionModel.invocation_trace

    def counting(self, index):
        count[0] += 1
        return original(self, index)

    monkeypatch.setattr(FunctionModel, "invocation_trace", counting)
    return count


def test_no_memo_outside_a_sweep(profiles):
    assert active_trace_memo() is None
    cell = run_config(profiles[0], None, CFG, "trace_memo_probe")
    assert cell["memo_keys"] is None
    with configure():
        assert active_trace_memo() is None
        sweep([probe(profiles[0])])
        assert active_trace_memo() is None
    assert active_trace_memo() is None


def test_cells_of_a_sweep_share_one_recording(profiles, built):
    jobs = [probe(profiles[0]) for _ in range(3)]
    with configure():
        cells = sweep(jobs)
    assert all(cell["memo_keys"] == 1 for cell in cells)
    assert built[0] == CFG.invocations
    unmemoized = make_traces(profiles[0], CFG)
    assert cells[0]["events"] == sum(len(t) for t in unmemoized)


def test_memo_never_holds_more_than_one_key(profiles, memos, built):
    seen, sizes = memos
    # Profile-major, then interleaved: a key change always evicts.
    a, b = profiles
    jobs = [probe(a), probe(a), probe(b), probe(b), probe(a),
            probe(a, cfg=CFG.replace(seed=6))]
    with configure():
        cells = sweep(jobs)
    assert [cell["memo_keys"] for cell in cells] == [1] * len(jobs)
    assert len(seen) == 1 and max(sizes) == 1
    # a, b, a again, a under another seed: four recordings.
    assert built[0] == 4 * CFG.invocations


def test_memo_is_empty_after_a_sweep_returns(profiles, memos):
    seen, _ = memos
    with configure():
        sweep([probe(p) for p in profiles])
    assert len(seen) == 1 and len(seen[0]) == 0
    assert active_trace_memo() is None


def test_memo_is_empty_after_a_keep_going_sweep_with_failures(profiles,
                                                              memos):
    seen, _ = memos
    a, b = profiles
    # Cell 1 raises after its traces are memoized; cell 2 is failed by an
    # injected fault before it runs.
    jobs = [probe(a), probe(a, fail=True), probe(b)]
    with configure(faults="fail:#2:always",
                   policy=FailurePolicy.keep_going()):
        outcomes = sweep_outcomes(jobs)
    assert [o.ok for o in outcomes] == [True, False, False]
    assert len(seen) == 1 and len(seen[0]) == 0
    assert active_trace_memo() is None


def test_memo_is_empty_after_a_sweep_raises(profiles, memos):
    seen, _ = memos
    with configure():
        with pytest.raises(RuntimeError, match="requested failure"):
            sweep([probe(profiles[0]), probe(profiles[0], fail=True)])
    assert len(seen) == 1 and len(seen[0]) == 0
    assert active_trace_memo() is None


def test_scope_empties_the_memo_when_its_block_raises(profiles):
    """An interrupt propagating out of the executor batch still clears."""
    with pytest.raises(KeyboardInterrupt):
        with trace_memo_scope() as memo:
            make_traces(profiles[0], CFG)
            assert len(memo) == 1
            raise KeyboardInterrupt
    assert len(memo) == 0
    assert active_trace_memo() is None


def test_back_to_back_sweeps_build_the_same_traces(profiles, built):
    jobs = [probe(p) for p in profiles for _ in range(2)]
    with configure():
        first = sweep(jobs)
        first_built = built[0]
        second = sweep(jobs)
    assert first == second
    assert first_built == len(profiles) * CFG.invocations
    assert built[0] == 2 * first_built

