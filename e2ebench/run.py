"""Run one workload of the end-to-end benchmark and print its metrics.

Usage, from the root of a repository checkout::

    python3 e2ebench/run.py --workload fig10-lukewarm --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics: ``setup_s`` is the median
of several fresh-interpreter set-ups, and the workload is run as many
whole passes as fit in ``--seconds`` (at least three), each through the
serial engine with a fresh, empty on-disk result cache; ``run_s`` is the
median pass.  Both are paced: wall time rescaled to a fixed host speed by
reference readings taken throughout (``e2ebench/pace.py``).  ``--trace 1`` runs one untraced pass and then one pass with
every layer boundary wrapped in spans (``e2ebench/spans.py``) and prints
the per-layer metrics.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  See
``e2ebench/README.md`` for what every metric means.

Every cell's result is checked: a cell fails when it raises, or when its
canonical digest differs from the one pinned in ``digests.json`` for
this workload, scale and seed.  Every run also checks one untimed
tiny-scale pass of :data:`WITNESS_SEED` against its pinned digests, so
the output is checked whatever seed is measured.  ``--write-digests``
re-pins them.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DIGESTS = Path(__file__).resolve().parent / "digests.json"
#: Scratch space for the per-pass result caches, removed on exit.
WORK_DIR = ROOT / ".e2ebench_work"
#: Fresh interpreters whose set-up time gives the median ``setup_s``.
SETUP_PROBES = 15
#: Wall seconds between two reference readings in a paced pass.
PACE_INTERVAL_S = 0.25
#: ... and in a set-up probe, which is much shorter.
SETUP_PACE_INTERVAL_S = 0.05
#: Fewest timed passes behind the median ``run_s``, whatever ``--seconds``.
MIN_PASSES = 3
#: Seed whose pinned tiny-scale digests every run checks.
WITNESS_SEED = 1

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}


#: Per-layer metrics (``--trace 1``): name -> unit.
PER_LAYER = {
    "workloads.tracegen_s": "s",
    "workloads.model_build_s": "s",
    "workloads.traces_built": "count",
    "workloads.trace_events": "count",
    "workloads.tracegen_us_per_event": "us/event",
    "workloads.trace_unique_ratio": "ratio",
    "ir.compile_s": "s",
    "ir.compiles": "count",
    "ir.us_per_event": "us/event",
    "sim.simulate_s": "s",
    "sim.runs": "count",
    "sim.ns_per_event": "ns/event",
    "sim.flush_s": "s",
    "core.jukebox_replay_s": "s",
    "core.jukebox_record_s": "s",
    "core.jukebox_calls": "count",
    "core.snapshot_s": "s",
    "coldstart.charges": "count",
    "coldstart.charge_s": "s",
    "engine.key_s": "s",
    "engine.cache_get_s": "s",
    "engine.cache_put_s": "s",
    "engine.cache_puts": "count",
    "engine.cache_put_bytes": "bytes",
    "engine.cache_hit_ratio": "ratio",
    "engine.overhead_s": "s",
    "fleet.plan_s": "s",
    "fleet.node_build_s": "s",
    "server.run_s": "s",
    "server.invocations": "count",
    "server.us_per_invocation": "us/inv",
    "fleet.aggregate_s": "s",
    "experiments.aggregate_s": "s",
    "experiments.cell_s": "s",
    "unattributed_s": "s",
    "traced_run_s": "s",
    "trace_overhead_frac": "ratio",
    "sim_minst_per_s": "Minst/s",
    "fleet_kinv_per_s": "kinv/s",
    "cells_failed_frac": "ratio",
}


@dataclass
class Pass:
    """One timed run of a workload's experiment."""

    seconds: float
    #: ``seconds`` rescaled to the reference host speed (see ``pace.py``);
    #: equal to ``seconds`` in an unpaced pass.
    paced_seconds: float
    result: Any
    error: Optional[BaseException]
    #: (label, value, error) per executed cell, in execution order.
    cells: List[tuple] = field(default_factory=list)


def _cell_label(job: Any) -> str:
    opts = ",".join(f"{k}={v}" for k, v in job.opts)
    return f"{job.describe()}[{opts}]" if opts else job.describe()


@contextmanager
def recording_cells(cells: List[tuple]) -> Iterator[None]:
    """Capture every cell's result (or exception) at ``execute_job``."""
    from e2ebench.spans import Patches

    def wrap(execute_job):
        def recording(job):
            try:
                value = execute_job(job)
            except Exception as exc:
                cells.append((_cell_label(job), None, repr(exc)))
                raise
            cells.append((_cell_label(job), value, None))
            return value
        return recording

    patches = Patches()
    try:
        patches.wrap_function("repro.engine.executors", "execute_job", wrap)
        yield
    finally:
        patches.undo()


def run_pass(run, recorder=None, paced=False) -> Pass:
    """Run the experiment once through a serial engine and a fresh cache,
    inside spans when a ``recorder`` is given, and under a
    :class:`~e2ebench.pace.PacedClock` when ``paced``."""
    from repro import engine
    from repro.engine.job import invalidate_fingerprint_caches

    from e2ebench import spans
    from e2ebench.pace import PacedClock

    timed = run if recorder is None else partial(recorder.call, spans.ROOT_SPAN,
                                                 run)
    invalidate_fingerprint_caches()  # every pass digests sources, like a new process
    gc.collect()
    WORK_DIR.mkdir(exist_ok=True)
    cache_dir = tempfile.mkdtemp(prefix="cache-", dir=WORK_DIR)
    cells: List[tuple] = []
    result, error = None, None
    clock = PacedClock(PACE_INTERVAL_S) if paced else None
    try:
        with engine.configure(jobs=1, cache_dir=cache_dir), \
                recording_cells(cells), \
                (nullcontext() if recorder is None else spans.traced(recorder)):
            start = time.perf_counter()
            try:
                with clock or nullcontext():
                    result = timed()
            except Exception as exc:
                error = exc
            seconds = time.perf_counter() - start
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    if clock is None:
        return Pass(seconds, seconds, result, error, cells)
    return Pass(clock.wall, clock.paced, result, error, cells)


def cell_digests(p: Pass) -> Dict[str, str]:
    from repro.engine.job import fingerprint

    return {label: fingerprint(value) for label, value, err in p.cells
            if err is None}


def check_pass(workload, p: Pass, expected: int,
               pinned: Optional[Dict[str, str]],
               reference: Optional[Dict[str, str]]) -> tuple:
    """(failed cells, problems) of one pass.

    ``pinned`` are the committed digests for this seed (None when the seed
    is not pinned); ``reference`` are the digests of an earlier pass in
    the same process, which every later pass must reproduce.
    """
    problems: List[str] = []
    digests = cell_digests(p)
    bad = set()
    for label, _, err in p.cells:
        if err is not None:
            bad.add(label)
            problems.append(f"cell {label} raised {err}")
    for want in (pinned, reference):
        if want is None:
            continue
        for label, digest in digests.items():
            if want.get(label) != digest:
                bad.add(label)
                problems.append(f"cell {label}: digest {digest[:12]} != "
                                f"{str(want.get(label))[:12]}")
    if p.error is not None:
        problems.append(f"experiment raised {p.error!r}")
    else:
        problems.extend(workload.check(p.result))
    ok = len(digests) - len(bad & set(digests))
    if pinned is not None and set(digests) != set(pinned):
        problems.append(f"cells {sorted(set(pinned) ^ set(digests))} do not "
                        f"match the pinned cell set")
    return max(0, expected - ok), problems


def setup_probe(workload: str, seed: int, tiny: bool) -> float:
    """Paced set-up time of one fresh interpreter, measured inside it."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-probe"] + (["--tiny"] if tiny else []),
        capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    from e2ebench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measurement budget; whole passes only")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test scale (the benchmark's own tests)")
    parser.add_argument("--write-digests", action="store_true",
                        help="run one pass and pin its cell digests")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"e2ebench: no repro package under {SRC}; run from the root of "
              f"a repository checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    args = parse_args(argv)
    from e2ebench import spans
    from e2ebench.workloads import OUTPUT_LABEL, WORKLOADS

    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        from e2ebench.pace import PacedClock

        with PacedClock(SETUP_PACE_INTERVAL_S) as clock:
            workload.setup(args.seed, args.tiny)
        print(clock.paced)
        return 0

    scale = "tiny" if args.tiny else "full"
    prepared = workload.setup(args.seed, args.tiny)
    digests = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    if args.write_digests:
        p = run_pass(prepared.run)
        failed, problems = check_pass(workload, p, prepared.cells, None, None)
        if failed or problems:
            print("\n".join(problems), file=sys.stderr)
            return 1
        digests.setdefault(workload.name, {}).setdefault(scale, {})[
            str(args.seed)] = dict(sorted(cell_digests(p).items()))
        DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
        print(f"pinned {len(p.cells)} cell digests for {workload.name} "
              f"{scale} seed {args.seed}")
        return 0
    pinned = digests.get(workload.name, {}).get(scale, {}).get(str(args.seed))
    witness_pinned = digests[workload.name]["tiny"][str(WITNESS_SEED)]

    passes: List[Pass] = []
    recorder = None
    try:
        witness = workload.setup(WITNESS_SEED, tiny=True)
        attempted = witness.cells
        failed, problems = check_pass(workload, run_pass(witness.run),
                                      witness.cells, witness_pinned, None)
        if args.trace:
            passes.append(run_pass(prepared.run))
            recorder = spans.SpanRecorder()
            passes.append(run_pass(prepared.run, recorder))
        else:
            setup_s = statistics.median(
                setup_probe(workload.name, args.seed, args.tiny)
                for _ in range(SETUP_PROBES))
            budget_start = time.perf_counter()
            passes.append(run_pass(prepared.run, paced=True))
            # A user's process runs the experiment once, so its peak memory
            # is the peak through the first pass; later passes, whose count
            # depends on the machine's speed, must not move it.
            peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
            # Whole passes only: stop when another one, as long as the
            # average so far (reference readings included), would overrun.
            while True:
                elapsed = time.perf_counter() - budget_start
                if (len(passes) >= MIN_PASSES and elapsed
                        + elapsed / len(passes) > args.seconds):
                    break
                passes.append(run_pass(prepared.run, paced=True))
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)

    reference = None
    for p in passes:
        f, probs = check_pass(workload, p, prepared.cells, pinned, reference)
        attempted += prepared.cells
        failed += f
        problems.extend(probs)
        reference = reference or cell_digests(p)

    first = passes[0]
    if first.error is None:
        outputs = workload.outputs(first.result)
        print(f"simulated outputs ({OUTPUT_LABEL}): "
              + ", ".join(f"{k}={v:.4g}" for k, v in outputs.items()))
    print(f"passes: {', '.join(f'{p.seconds:.3f}s' for p in passes)} wall, "
          f"{', '.join(f'{p.paced_seconds:.3f}s' for p in passes)} paced; "
          f"output checked against the digests pinned for "
          + (f"seed {args.seed} and " if pinned else "")
          + f"tiny seed {WITNESS_SEED}")

    if args.trace:
        traced = passes[1]
        metrics = spans.layer_metrics(recorder.spans, traced.seconds)
        instructions, invocations = workload.work(
            [v for _, v, e in first.cells if e is None])
        metrics.update({
            "sim_minst_per_s": instructions / first.seconds / 1e6,
            "fleet_kinv_per_s": invocations / first.seconds / 1e3,
            "cells_failed_frac": failed / attempted,
            "trace_overhead_frac": traced.seconds / first.seconds - 1.0,
        })
        for name, value in metrics.items():
            if value < 0 and name != "trace_overhead_frac":
                problems.append(f"per-layer {name} is negative ({value})")
            if value and name.startswith(workload.bypassed):
                problems.append(f"{workload.name} bypasses {name} but it "
                                f"reads {value}")
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": setup_s,
            "run_s": statistics.median(p.paced_seconds for p in passes),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END

    if set(metrics) != set(units):
        raise AssertionError(f"computed metrics differ from the declared ones: "
                             f"{sorted(set(metrics) ^ set(units))}")
    for problem in problems:
        print(f"e2ebench: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
