"""The benchmark's own tests, at tiny scale.

    python3 -m pytest -q e2ebench/tests

Each test drives ``e2ebench/run.py`` as the benchmark command does, in a
subprocess, and reads the JSON result from its last line.
"""

from __future__ import annotations

import json
import math
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from e2ebench.pace import REFERENCE_S, PacedClock, paced  # noqa: E402
from e2ebench.spans import SELF_TIME_METRIC  # noqa: E402
from e2ebench.workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in BENCHMARK["workloads"]]

#: Counts that must repeat exactly from run to run.
DETERMINISTIC = ("workloads.traces_built", "workloads.trace_events",
                 "sim.runs", "engine.cache_puts", "server.invocations",
                 "workloads.trace_unique_ratio")


def bench(workload: str, trace: int, root: Path = ROOT, seed: int = 1,
          check: bool = True) -> subprocess.CompletedProcess:
    out = subprocess.run(
        [sys.executable, str(root / "e2ebench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "1", "--trace",
         str(trace), "--tiny"],
        cwd=root, capture_output=True, text=True, timeout=300)
    if check:
        assert out.returncode == 0, out.stderr
    return out


def result(out: subprocess.CompletedProcess) -> dict:
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced():
    """Two traced tiny runs of every workload."""
    return {name: [result(bench(name, 1)) for _ in range(2)]
            for name in NAMES}


def declared(section: str) -> dict:
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def test_benchmark_json_names_every_workload():
    assert sorted(NAMES) == sorted(WORKLOADS)
    assert "setup_s" in declared("end_to_end")


def test_paced_time_scales_wall_time_by_the_reference_speed():
    # Twice the reference time at both ends: the host ran at half speed.
    assert math.isclose(paced(3.0, 2 * REFERENCE_S, 2 * REFERENCE_S), 1.5)
    assert math.isclose(paced(3.0, REFERENCE_S, 3 * REFERENCE_S), 1.5)


def test_paced_clock_cuts_the_phase_and_leaves_its_readings_out():
    with PacedClock(0.01) as clock:
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            pass
    assert clock.cuts >= 3
    # The readings ran inside the 0.2 s but are not part of the wall time.
    assert 0 < clock.wall < 0.2
    assert clock.paced > 0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL


@pytest.mark.parametrize("name", NAMES)
def test_untraced_smoke_run_prints_the_end_to_end_metrics(name):
    res = result(bench(name, 0))
    assert res["correct"] is True
    assert res["failed"] == 0 and res["attempted"] >= 1
    printed = {k: v["unit"] for k, v in res["metrics"].items()}
    assert printed == declared("end_to_end")
    assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_prints_the_per_layer_metrics(traced, name):
    for res in traced[name]:
        assert res["correct"] is True and res["failed"] == 0
        printed = {k: v["unit"] for k, v in res["metrics"].items()}
        assert printed == declared("per_layer")


@pytest.mark.parametrize("name", NAMES)
def test_deterministic_counts_repeat_exactly(traced, name):
    first, second = ({k: res["metrics"][k]["value"] for k in DETERMINISTIC}
                     for res in traced[name])
    assert first == second


def test_fig10_builds_every_trace_three_times(traced):
    metrics = traced["fig10-lukewarm"][0]["metrics"]
    assert metrics["workloads.trace_unique_ratio"]["value"] == 1 / 3
    assert metrics["workloads.traces_built"]["value"] > 0


@pytest.mark.parametrize("name", NAMES)
def test_layer_self_times_add_up_to_the_traced_run(traced, name):
    metrics = {k: v["value"] for k, v in traced[name][0]["metrics"].items()}
    layers = sum(metrics[m] for m in SELF_TIME_METRIC.values())
    assert math.isclose(layers + metrics["unattributed_s"],
                        metrics["traced_run_s"], rel_tol=1e-9)
    assert 0 <= metrics["unattributed_s"] < 0.05 * metrics["traced_run_s"]


@pytest.mark.parametrize("name", NAMES)
def test_bypassed_layers_read_exactly_zero(traced, name):
    metrics = traced[name][0]["metrics"]
    bypassed = {k: v["value"] for k, v in metrics.items()
                if k.startswith(WORKLOADS[name].bypassed)}
    assert bypassed and set(bypassed.values()) == {0}
    reached = [k for k in SELF_TIME_METRIC.values()
               if not k.startswith(WORKLOADS[name].bypassed)]
    assert any(metrics[k]["value"] > 0 for k in reached)


def test_fleet_region_runs_no_trace_ir_or_sim_code(traced):
    metrics = traced["fleet-region"][0]["metrics"]
    for key in ("workloads.tracegen_s", "ir.compile_s", "sim.simulate_s",
                "sim.runs", "workloads.traces_built"):
        assert metrics[key]["value"] == 0
    assert metrics["server.invocations"]["value"] > 0


def _copy_benchmark(dest: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(ROOT / "e2ebench", dest / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__"))


def test_exits_nonzero_without_the_program(tmp_path):
    _copy_benchmark(tmp_path)
    out = bench("fleet-region", 0, root=tmp_path, check=False)
    assert out.returncode != 0
    assert out.stdout.strip() == ""


def _corrupt_tiny_digest(tmp_path: Path) -> None:
    """A copy of the benchmark whose first pinned tiny fleet-region digest
    for seed 1 is wrong."""
    _copy_benchmark(tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src")
    path = tmp_path / "e2ebench" / "digests.json"
    digests = json.loads(path.read_text())
    cells = digests["fleet-region"]["tiny"]["1"]
    cells[sorted(cells)[0]] = "0" * 64
    path.write_text(json.dumps(digests))


def test_a_changed_cell_digest_fails_that_cell_in_every_pass(tmp_path):
    _corrupt_tiny_digest(tmp_path)
    res = result(bench("fleet-region", 0, root=tmp_path))
    assert res["correct"] is False
    # The witness pass and each timed pass run all 12 cells; one fails in each.
    assert res["attempted"] >= 4 * 12 and res["attempted"] % 12 == 0
    assert res["failed"] == res["attempted"] // 12


def test_an_unpinned_seed_is_still_checked_on_the_pinned_witness(tmp_path):
    _corrupt_tiny_digest(tmp_path)
    res = result(bench("fleet-region", 0, root=tmp_path, seed=5))
    assert res["correct"] is False
    assert res["failed"] == 1
