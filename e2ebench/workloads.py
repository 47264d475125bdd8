"""The benchmark's workloads: what each one runs, counts and checks.

Each workload is one whole experiment run closed-loop from one process
through the serial engine.  :meth:`Workload.setup` does what a user's
process does before the first cell -- imports, profile, machine and
config construction -- and returns the timed phase as a zero-argument
callable, with the number of engine cells it computes.  ``repro`` is
imported inside ``setup`` on purpose: the benchmark times those imports
as part of ``setup_s``.

``tiny`` shrinks every workload to a smoke-test size for the
benchmark's own tests; the measured sizes are the defaults.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, NamedTuple, Sequence, Tuple

#: How the simulated outputs printed beside the metrics must be read.
OUTPUT_LABEL = "fast-scale subset, not comparable to paper bands (ROADMAP item 3)"


def _all_finite(values: Sequence[float]) -> bool:
    return all(math.isfinite(v) for v in values)


class Prepared(NamedTuple):
    """A set-up workload: its timed phase and the engine cells it computes."""

    run: Callable[[], Any]
    cells: int


class Workload:
    name = ""
    #: Per-layer metric-name prefixes this workload never reaches; a
    #: traced pass must read exactly zero on every one of them.
    bypassed: Tuple[str, ...] = ()

    def setup(self, seed: int, tiny: bool = False) -> Prepared:
        raise NotImplementedError

    def work(self, values: Sequence[Any]) -> Tuple[int, int]:
        """(simulated instructions, fleet invocations) in cell results."""
        raise NotImplementedError

    def check(self, result: Any) -> List[str]:
        """Seed-independent properties of the experiment's result."""
        raise NotImplementedError

    def outputs(self, result: Any) -> Dict[str, float]:
        """The simulated headline numbers printed beside the metrics."""
        raise NotImplementedError


class Fig10Lukewarm(Workload):
    name = "fig10-lukewarm"
    #: The same function on an interpreted and a compiled runtime.
    functions = ("Auth-P", "Auth-G")
    bypassed = ("coldstart.", "core.snapshot_s", "fleet.", "server.")

    def setup(self, seed, tiny=False):
        from repro.experiments import fig10_speedup
        from repro.experiments.common import RunConfig
        from repro.sim.params import skylake
        from repro.workloads.suite import suite_subset

        # One warm-up invocation that Jukebox records, one measured replay.
        cfg = RunConfig.fast().replace(seed=seed, invocations=2)
        functions = list(self.functions)
        if tiny:
            cfg = cfg.replace(instruction_scale=0.05)
            functions = functions[1:]
        suite_subset(functions)
        machine = skylake()
        return Prepared(lambda: fig10_speedup.run(cfg, machine, functions),
                        cells=len(functions) * len(fig10_speedup.SWEEP_CONFIGS))

    def work(self, values):
        return sum(v.instructions for v in values), 0

    def check(self, result):
        problems = []
        for e in result.entries:
            numbers = (e.baseline_cpi, e.jukebox_speedup, e.perfect_speedup)
            if not _all_finite(numbers) or e.baseline_cpi <= 0:
                problems.append(f"{e.abbrev}: non-finite or zero result "
                                f"{numbers}")
            elif e.perfect_speedup <= 0:
                problems.append(f"{e.abbrev}: perfect I$ not faster than "
                                f"the baseline ({e.perfect_speedup:+.3f})")
        return problems

    def outputs(self, result):
        return {"jukebox_geomean": result.jukebox_geomean,
                "perfect_icache_geomean": result.perfect_geomean}


class SpectrumColdWarm(Workload):
    name = "spectrum-coldwarm"
    function = "ProdL-G"
    iats_ms = (0.0, 30_000.0, 900_000.0)
    #: ``page_replay`` and ``init_trim`` alone differ from ``baseline``
    #: only in the cold-start charge, which ``all`` exercises too.
    variants = ("baseline", "jukebox", "all")
    bypassed = ("fleet.", "server.")

    def setup(self, seed, tiny=False):
        from repro.experiments import ext_spectrum
        from repro.experiments.common import RunConfig
        from repro.sim.params import skylake
        from repro.workloads.suite import get_profile

        cfg = RunConfig.fast().replace(seed=seed, invocations=2)
        if tiny:
            cfg = cfg.replace(instruction_scale=0.05)
        get_profile(self.function)
        machine = skylake()
        return Prepared(
            lambda: ext_spectrum.run(cfg, machine, functions=(self.function,),
                                     iats_ms=self.iats_ms,
                                     variants=self.variants),
            cells=len(self.variants) * len(self.iats_ms))

    def work(self, values):
        return sum(v["instructions"] for v in values), 0

    def check(self, result):
        problems = []
        points = result.points[self.function]
        for variant, series in points.items():
            warm, lukewarm, cold = (p["latency_ms"] for p in series)
            if not (0 < warm <= lukewarm < cold):
                problems.append(f"{variant}: latency not ordered warm <= "
                                f"lukewarm < cold ({warm}, {lukewarm}, {cold})")
        if not points["all"][-1]["latency_ms"] < points["baseline"][-1]["latency_ms"]:
            problems.append("all optimizations together do not cut the "
                            "cold latency")
        return problems

    def outputs(self, result):
        base = result.points[self.function]["baseline"]
        best = result.points[self.function]["all"]
        return {"warm_latency_ms": base[0]["latency_ms"],
                "lukewarm_latency_ms": base[1]["latency_ms"],
                "cold_latency_ms": base[2]["latency_ms"],
                "cold_latency_all_opts_ms": best[2]["latency_ms"]}


class FleetRegion(Workload):
    name = "fleet-region"
    shards = 2
    bypassed = ("workloads.", "ir.", "sim.", "core.")

    def setup(self, seed, tiny=False):
        from repro.experiments import ext_fleet
        from repro.fleet.config import FleetConfig

        fleet = FleetConfig(nodes=16, instances=1_200, functions=40,
                            duration_ms=45_000.0, mean_iat_ms=1_000.0,
                            coldstart="spectrum", seed=seed)
        if tiny:
            fleet = fleet.replace(nodes=2, instances=40, functions=10,
                                  duration_ms=5_000.0)
        return Prepared(
            lambda: ext_fleet.run(fleet=fleet, shards=self.shards),
            cells=2 * len(ext_fleet.ARRIVAL_MIXES) * self.shards)

    def work(self, values):
        return 0, sum(node["invocations"] for v in values for node in v)

    def check(self, result):
        problems = []
        for e in result.entries:
            for side, region in (("baseline", e.baseline),
                                 ("jukebox", e.jukebox)):
                served = region["invocations"] + region["dropped"]
                if served != region["arrivals"]:
                    problems.append(f"{e.arrival}/{side}: {served} served "
                                    f"or dropped != {region['arrivals']} "
                                    f"arrivals")
                if not region["p99_latency_ms"] > 0:
                    problems.append(f"{e.arrival}/{side}: p99 is zero")
            if e.capacity_uplift < 0:
                problems.append(f"{e.arrival}: Jukebox lowers capacity "
                                f"({e.capacity_uplift:+.4f})")
        return problems

    def outputs(self, result):
        out: Dict[str, float] = {}
        for e in result.entries:
            out[f"{e.arrival}.p99_base_ms"] = e.p99_baseline_ms
            out[f"{e.arrival}.p99_jukebox_ms"] = e.p99_jukebox_ms
            out[f"{e.arrival}.capacity_uplift"] = e.capacity_uplift
        out["geomean_capacity_uplift"] = result.geomean_uplift
        return out


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (Fig10Lukewarm(), SpectrumColdWarm(), FleetRegion())}
