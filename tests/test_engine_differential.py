"""Property-based differential: the batched kernel against the scalar
reference on random machines under random fault mixes.

Each example draws a mesh (2x2 to 4x4), a camp count, a bypass
probability, a machine seed, a design and a ``make_random_schedule``
mix (optionally plus degraded links, whose equal-latency detours give
direction-dependent hop counts).  Both engines must serialize the same
canonical RunResult JSON.  The search is derandomized and bounded so
the suite stays deterministic and quick.
"""

from __future__ import annotations

import dataclasses
import json

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import repro
from repro.arch.topology import Topology
from repro.bench import engine_config
from repro.config import experiment_config
from repro.faults import FaultEvent, FaultKind, FaultSchedule
from repro.faults import make_random_schedule
from repro.sweep.serialize import result_to_dict

#: one small dataset shared by every example (a few phases of PageRank:
#: enough for faults at timestamps 1-3 to fire and recover).
_WORKLOAD = repro.make_workload("pr", num_vertices=256, iterations=3)


def _machine(rows: int, cols: int, camps: int, bypass: float, seed: int):
    base = experiment_config().scaled(rows, cols)
    return dataclasses.replace(
        base,
        seed=seed,
        cache=dataclasses.replace(
            base.cache, num_camps=camps, bypass_probability=bypass
        ),
    )


def _schedule(config, mix, degraded):
    topo = Topology(config.topology, num_groups=config.cache.num_groups())
    links = topo.mesh_links()
    schedule = make_random_schedule(
        topo.num_units, links, seed=config.seed,
        unit_fails=mix[0], link_fails=mix[1], vault_slowdowns=mix[2],
        duration_phases=mix[3],
    )
    extra = tuple(
        FaultEvent(FaultKind.LINK_DEGRADE, link=links[i % len(links)],
                   at_timestamp=1, factor=factor)
        for i, factor in degraded
    )
    return FaultSchedule(events=schedule.events + extra)


def _assert_engines_agree(design, config, schedule):
    payloads = {}
    for engine in ("scalar", "batched"):
        result = repro.simulate(
            design, _WORKLOAD, config=engine_config(engine, config),
            fault_schedule=schedule,
        )
        payloads[engine] = json.dumps(result_to_dict(result), sort_keys=True)
    assert payloads["scalar"] == payloads["batched"]


def test_asymmetric_reroute_regression():
    """A failed link plus a 3x-degraded one on a 3x3 mesh: the detour
    around the slow link ties it in latency but not in hops, so the hop
    counts differ by direction.  Responses must use the hops *towards*
    the requester, as the scalar path's record_transfer does."""
    config = _machine(3, 3, camps=3, bypass=0.4, seed=2023)
    schedule = FaultSchedule(events=(
        FaultEvent(FaultKind.LINK_FAIL, link=(0, 3), at_timestamp=1),
        FaultEvent(FaultKind.LINK_DEGRADE, link=(4, 7), at_timestamp=1,
                   factor=3.0),
    ))
    for design in ("B", "O"):
        _assert_engines_agree(design, config, schedule)


@settings(max_examples=12, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    rows=st.integers(2, 4),
    cols=st.integers(2, 4),
    camps=st.sampled_from([1, 3, 7]),
    bypass=st.sampled_from([0.0, 0.4, 1.0]),
    seed=st.integers(0, 2**16),
    design=st.sampled_from(repro.ALL_DESIGNS),
    mix=st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2),
                  st.sampled_from([None, 1])),
    degraded=st.lists(
        st.tuples(st.integers(0, 63), st.sampled_from([2.0, 3.0])),
        max_size=2,
    ),
)
@example(rows=2, cols=2, camps=3, bypass=0.4, seed=2023, design="O",
         mix=(1, 2, 2, None), degraded=[])
def test_batched_matches_scalar_under_random_faults(
        rows, cols, camps, bypass, seed, design, mix, degraded):
    config = _machine(rows, cols, camps, bypass, seed)
    _assert_engines_agree(design, config, _schedule(config, mix, degraded))
