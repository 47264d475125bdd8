"""Differential equivalence: every execution mode yields identical bytes.

One grid of deterministic cells is swept serially, through a two-worker
process pool, against a warm cache, and through a retry-after-injected-
fault schedule.  The grid mixes ``diff_numeric`` cells from the fake
provider with real trace-consuming cells (reference, baseline, jukebox,
perfect and pif on Auth-G, plus a cold Jukebox ``spectrum_point``), so
the sweep-scoped trace memo -- which shares one recording across the
cells of a batch -- is exercised by every mode.  All must produce
*byte-identical* canonical JSON, equal to the same cells computed one at
a time through ``run_config`` outside any sweep (where no memo is
active) -- the engine's core promise that how a sweep executes can never
change what it computes.
"""

from __future__ import annotations

import json

import pytest

import repro.experiments.ext_spectrum  # noqa: F401  (registers spectrum_point)
import tests.engine.fake_provider  # noqa: F401  (registers diff_numeric)
from repro.engine import FailurePolicy, configure, sweep
from repro.engine.job import Job, canonicalize
from repro.experiments.common import RunConfig, run_config
from repro.sim.params import skylake
from repro.workloads.memo import active_trace_memo
from repro.workloads.suite import suite_subset

PROVIDER = "tests.engine.fake_provider"
CFG = RunConfig(invocations=2, warmup=1, seed=11)
SCALES = (0.5, 1.0, 2.0)
#: Tiny-scale cells that build, simulate and (for jukebox/pif) record
#: real traces; all six share one (profile, seed, scale) trace key.
TRACE_CFG = CFG.replace(instruction_scale=0.05)
TRACE_CONFIGS = ("reference", "baseline", "jukebox", "perfect", "pif")
COLD_IAT_MS = 900_000.0  # past the spectrum's default keep-alive TTL


def grid_jobs():
    """The shared grid: 2 functions x 3 scales of ``diff_numeric``, then
    the trace-consuming cells on Auth-G."""
    profiles = suite_subset(["Auth-G", "ProdL-G"])
    numeric = [Job.make(p, None, CFG, "diff_numeric", provider=PROVIDER,
                        scale=s)
               for p in profiles for s in SCALES]
    auth_g, machine = profiles[0], skylake()
    traced = [Job.make(auth_g, machine, TRACE_CFG, c)
              for c in TRACE_CONFIGS]
    traced.append(Job.make(auth_g, machine, TRACE_CFG, "spectrum_point",
                           provider="repro.experiments.ext_spectrum",
                           iat_ms=COLD_IAT_MS, jukebox=True))
    return numeric + traced


def canonical(results) -> str:
    return json.dumps([canonicalize(r) for r in results], sort_keys=True,
                      separators=(",", ":"))


@pytest.fixture(scope="module")
def direct_bytes() -> str:
    """The oracle: each cell computed alone, outside any sweep."""
    assert active_trace_memo() is None
    return canonical([run_config(j.profile, j.machine, j.cfg, j.config,
                                 **j.opts_dict())
                      for j in grid_jobs()])


@pytest.fixture(scope="module")
def serial_bytes() -> str:
    """The serial-run oracle every other mode must match byte-for-byte."""
    with configure():
        return canonical(sweep(grid_jobs()))


def test_serial_matches_one_cell_at_a_time(serial_bytes, direct_bytes):
    assert serial_bytes == direct_bytes


def test_pool_matches_serial(serial_bytes):
    with configure(jobs=2):
        pooled = canonical(sweep(grid_jobs()))
    assert pooled == serial_bytes


def test_warm_cache_matches_serial(serial_bytes, tmp_path):
    with configure(cache_dir=tmp_path / "cache") as ctx:
        cold = canonical(sweep(grid_jobs()))
        warm = canonical(sweep(grid_jobs()))
        assert ctx.stats.hits == len(grid_jobs())
    assert cold == serial_bytes
    assert warm == serial_bytes


def test_retry_after_injected_fault_matches_serial(serial_bytes):
    # The fault lands on a trace-consuming cell, in the middle of the run
    # of cells sharing one memoized trace key.
    with configure(faults="fail:config=jukebox",
                   policy=FailurePolicy.retrying(retries=1)) as ctx:
        retried = canonical(sweep(grid_jobs()))
        assert ctx.stats.retries == 1
    assert retried == serial_bytes


def test_pool_after_fault_with_cache_matches_serial(serial_bytes, tmp_path):
    """The modes compose: pooled + cached + fault-retried is still exact."""
    with configure(jobs=2, cache_dir=tmp_path / "cache", faults="fail:#1",
                   policy=FailurePolicy.retrying(retries=1)):
        combined = canonical(sweep(grid_jobs()))
    assert combined == serial_bytes


def test_backends_never_share_cache_entries(tmp_path):
    """A columnar-keyed sweep must not warm the cache for a scalar-keyed
    one (the stale-cache regression for the backend field) -- while both
    still produce byte-identical payloads."""
    profile = suite_subset(["Auth-G"])[0]
    machine_cfg = RunConfig(invocations=2, warmup=1, seed=3,
                            instruction_scale=0.05)

    def jobs(backend):
        return [Job.make(profile, skylake(),
                         machine_cfg.replace(backend=backend), "baseline")]

    def run(backend):
        return canonical(sweep(jobs(backend)))

    with configure(cache_dir=tmp_path / "cache") as ctx:
        columnar = run("columnar")
        assert ctx.stats.hits == 0
        scalar = run("scalar")
        assert ctx.stats.hits == 0  # scalar key missed the columnar entry
        again = run("scalar")
        assert ctx.stats.hits == 1  # same-backend re-run does hit
    assert columnar == scalar == again
