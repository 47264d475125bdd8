"""A millisecond-cheap config provider for engine resilience tests.

Resilience tests need many sweep cells (20-cell batches, kill/retry
schedules, serial-vs-pool oracles) and none of them care about simulator
output -- only about which cells ran, failed, or were retried.  This
module registers ``resilience_echo``: a builder that just echoes its
inputs as a deterministic dict.  Jobs reference it via
``provider="tests.engine.fake_provider"`` so pool workers import it on
their own (the tests package is importable from the repo root, which is
pytest's rootdir).
"""

from __future__ import annotations

from typing import Any, Dict

from repro.experiments.common import register_config


@register_config("resilience_echo")
def build_resilience_echo(profile: Any, machine: Any, cfg: Any,
                          **opts: Any) -> Dict[str, Any]:
    return {
        "profile": profile,
        "machine": machine,
        "cfg": cfg,
        "opts": dict(sorted(opts.items())),
    }


@register_config("diff_numeric")
def build_diff_numeric(profile: Any, machine: Any, cfg: Any,
                       scale: float = 1.0, **opts: Any) -> Dict[str, Any]:
    """A JSON-only deterministic cell for differential equivalence tests.

    Returns pure scalars derived from a seeded RNG over the cell's
    identity, so serial, pooled, cached, and fault-retried sweeps over the
    same grid must serialize to byte-identical canonical JSON.
    """
    import random

    rng = random.Random(f"{profile.abbrev}:{cfg.seed}:{scale}")
    return {
        "abbrev": profile.abbrev,
        "seed": cfg.seed,
        "scale": scale,
        "value": round(rng.random(), 12),
        "draws": [round(rng.random(), 12) for _ in range(4)],
        "opts": dict(sorted(opts.items())),
    }


@register_config("trace_memo_probe")
def build_trace_memo_probe(profile: Any, machine: Any, cfg: Any,
                           fail: bool = False, **opts: Any) -> Dict[str, Any]:
    """Build a cell's traces, then report the sweep's trace memo as seen
    from inside the cell (``memo_keys`` is ``None`` outside a sweep);
    ``fail=True`` raises after the traces are memoized."""
    from repro.experiments.common import make_traces
    from repro.workloads.memo import active_trace_memo

    traces = make_traces(profile, cfg)
    if fail:
        raise RuntimeError("trace_memo_probe: requested failure")
    memo = active_trace_memo()
    return {
        "abbrev": profile.abbrev,
        "events": sum(len(t) for t in traces),
        "memo_keys": None if memo is None else len(memo),
    }
