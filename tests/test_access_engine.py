"""Cross-engine parity: batched and scalar access engines must agree.

The batched engine reorganizes the hot path (fused kernels, memoized
camp tables, bulk counter flushes) but every stateful step — cache
probes and installs with their RNG draws, DRAM service clocks, float
accumulations — runs in the exact per-line order of the scalar
reference path.  These tests pin that contract: for the same seed the
two engines must produce **bit-identical** RunResult JSON (makespans,
latencies, hop counts, hit rates, energy) on every design, on multiple
workloads, and under an injected fault schedule — where the kernel
handles the fault state itself (see also test_engine_differential.py).
"""

from __future__ import annotations

import dataclasses
import json

import pytest

import repro
from repro.arch.topology import Topology
from repro.bench import engine_config
from repro.config import CacheStyle, experiment_config
from repro.faults import FaultEvent, FaultKind, FaultSchedule
from repro.sweep.serialize import result_to_dict
from repro.telemetry import Telemetry

ENGINES = ("scalar", "batched")


def _canonical(result) -> str:
    return json.dumps(result_to_dict(result), sort_keys=True)


@pytest.fixture(scope="module")
def base_config():
    """A 2x2-stack machine: small enough to run every design under
    both engines, big enough to exercise camps, stealing, and the
    hybrid scheduler's exchange machinery."""
    return experiment_config().scaled(2, 2)


@pytest.fixture(scope="module")
def workloads():
    """Two access patterns: an iterative graph kernel (power-law reuse,
    persistent per-vertex hints) and a pointwise query workload."""
    return {
        "pr": repro.make_workload("pr", num_vertices=1024, iterations=2),
        "knn": repro.make_workload("knn", num_points=1024),
    }


@pytest.mark.parametrize("design", repro.ALL_DESIGNS)
@pytest.mark.parametrize("workload_name", ["pr", "knn"])
def test_engines_bit_identical(design, workload_name, base_config,
                               workloads):
    payloads = {
        engine: _canonical(repro.simulate(
            design, workloads[workload_name],
            config=engine_config(engine, base_config),
        ))
        for engine in ENGINES
    }
    assert payloads["scalar"] == payloads["batched"], (
        f"engines disagree on {design}/{workload_name}"
    )


def _fault_schedule(config):
    """Every fault kind the kernel models: unit 1 dies (its vault is
    the home of a share of the lines, which become unreachable), one
    link fails and another degrades (so reroutes run), and a vault
    slows.  Timestamp 1 is mid-run for the two-iteration PageRank."""
    topo = Topology(config.topology, num_groups=config.cache.num_groups())
    links = topo.mesh_links()
    return FaultSchedule(events=(
        FaultEvent(FaultKind.UNIT_FAIL, unit=1, at_timestamp=1),
        FaultEvent(FaultKind.LINK_FAIL, link=links[0], at_timestamp=1),
        FaultEvent(FaultKind.LINK_DEGRADE, link=links[-1],
                   at_timestamp=1, factor=2.0),
        FaultEvent(FaultKind.VAULT_SLOW, unit=5, at_timestamp=1,
                   factor=3.0),
    ))


def test_engines_bit_identical_under_faults(base_config, workloads):
    """The batched kernel must also match when a fault schedule is
    active: it models dead and unreachable homes, camp detours cut by
    link faults, rerouted latencies and vault slowdowns itself, and
    recovery (cache invalidation, re-execution, remaps) must not depend
    on the engine.  All six designs, plus the DRAM-tag cache style
    (Figure 13), which no design selects on its own."""
    schedule = _fault_schedule(base_config)
    dram_tag = dataclasses.replace(
        base_config,
        cache=dataclasses.replace(base_config.cache,
                                  style=CacheStyle.DRAM_TAG),
    )
    configs = [(d, base_config) for d in repro.ALL_DESIGNS]
    for design, config in configs + [("O", dram_tag)]:
        payloads = {}
        for engine in ENGINES:
            result = repro.simulate(
                design, workloads["pr"],
                config=engine_config(engine, config),
                fault_schedule=schedule,
            )
            assert result.resilience is not None
            assert result.resilience.unreachable_accesses > 0
            payloads[engine] = _canonical(result)
        assert payloads["scalar"] == payloads["batched"], (
            f"engines disagree on {design}/{config.cache.style.value}"
        )


def test_link_meter_identical_under_faults(workloads):
    """With telemetry on, the kernel feeds the per-link meter in the
    scalar path's message order: the unit-pair matrices and the
    directed-link flit dict (insertion order included) match, and so
    does the whole telemetry summary (the camp-memo gauge counts only
    lines whose camps the scalar flow resolves).  A 3x3 mesh, so the
    detour around the slow link makes hop counts direction-dependent."""
    config = experiment_config().scaled(3, 3)
    schedule = FaultSchedule(events=(
        FaultEvent(FaultKind.UNIT_FAIL, unit=1, at_timestamp=1),
        FaultEvent(FaultKind.LINK_FAIL, link=(0, 3), at_timestamp=1),
        FaultEvent(FaultKind.LINK_DEGRADE, link=(4, 7), at_timestamp=1,
                   factor=3.0),
        FaultEvent(FaultKind.VAULT_SLOW, unit=5, at_timestamp=1,
                   factor=3.0),
    ))
    for design in ("B", "O"):
        seen = {}
        for engine in ENGINES:
            tel = Telemetry()
            result = repro.simulate(
                design, workloads["pr"],
                config=engine_config(engine, config),
                fault_schedule=schedule, telemetry=tel,
            )
            meter = tel.link_meter
            seen[engine] = (
                _canonical(result),
                json.dumps(result.telemetry.to_dict(), sort_keys=True),
                meter.unit_matrix.tolist(),
                meter.unit_bits.tolist(),
                list(meter.link_flits.items()),
            )
        assert seen["scalar"] == seen["batched"], design


def test_faulted_batched_run_never_calls_scalar_access(
        monkeypatch, base_config, workloads):
    """Guard: under faults and telemetry the batched engine resolves
    every read in the fused kernel, never in the per-line path."""
    from repro.core.memory_system import MemorySystem

    calls = []
    real_access = MemorySystem.access

    def counting_access(self, *args, **kwargs):
        calls.append(args)
        return real_access(self, *args, **kwargs)

    monkeypatch.setattr(MemorySystem, "access", counting_access)
    result = repro.simulate(
        "O", workloads["pr"],
        config=engine_config("batched", base_config),
        fault_schedule=_fault_schedule(base_config), telemetry=Telemetry(),
    )
    assert result.resilience.unreachable_accesses > 0
    assert calls == []


def _kernel_snapshot(engine, design, style):
    """Drive one memory system directly through a healthy phase, then
    under hand-set fault state: unit 3 dead (alive mask only, so stale
    camp tables may still name it), stack 0 cut off by two failed
    links (stale nearest camps elsewhere cut the detour; homes outside
    stack 0 are unreachable), two slowed vaults, a link meter.  Returns
    every observable the access flow touches."""
    from types import SimpleNamespace

    import numpy as np

    from repro.core.system import build_system

    base = experiment_config().scaled(2, 2)
    # One camp: two groups of two stacks, so a line's nearest location
    # can sit in another stack (with C=3 every stack is a group and
    # the nearest is always in the requester's own stack).
    config = engine_config(engine, dataclasses.replace(
        base, cache=dataclasses.replace(base.cache, style=style,
                                        num_camps=1)))
    system = build_system(design, config)
    ms = system.memory_system
    noc = system.interconnect
    meter = noc.enable_link_metering()
    unit_bytes = system.memory_map.unit_capacity
    lines = [system.memory_map.line_of(u * unit_bytes + i * 64)
             for i in range(3) for u in range(config.num_units)]
    latencies = [ms.access_many(r, lines, 0.0) for r in (0, 9)]
    ms.end_timestamp()

    stats = SimpleNamespace(unreachable_accesses=0)
    alive = np.ones(config.num_units, dtype=bool)
    alive[3] = False
    noc.set_link_faults([(0, 1), (0, 2)])
    scale = np.ones(config.num_units)
    scale[[2, 12]] = (4.0, 1.5)
    system.dram.set_unit_latency_scale(scale)
    ms.set_fault_state(alive, stats)
    for r in (0, 9, 20):
        latencies.append(ms.access_many(r, lines + lines[::7], 50.0,
                                        2.0, 40.0))
        for ln in lines[::5]:
            ms.write(r, ln, 50.0)
    units = system.units
    return {
        "latencies": latencies,
        "unreachable": stats.unreachable_accesses,
        "traffic": dataclasses.asdict(ms.traffic),
        "dram": dataclasses.asdict(ms.dram_stats),
        "sram": dataclasses.asdict(ms.sram_stats),
        "caches": dataclasses.asdict(ms.cache_stats()),
        "l1": [dataclasses.asdict(u.l1.stats) for u in units],
        "prefetch": [dataclasses.asdict(u.prefetch.stats) for u in units],
        "clocks": list(ms._dram_free_ns),
        "queue": ms.total_queue_delay_ns,
        "meter": (meter.unit_matrix.tolist(), meter.unit_bits.tolist(),
                  list(meter.link_flits.items())),
    }


@pytest.mark.parametrize("design,style", [
    ("B", CacheStyle.TRAVELLER),
    ("O", CacheStyle.TRAVELLER),
    ("O", CacheStyle.SRAM),
    ("O", CacheStyle.DRAM_TAG),
])
def test_kernel_matches_scalar_on_fault_state(design, style):
    """Kernel-level differential under fault state set by hand, where
    the end-to-end runs cannot reach: camp detours cut by link faults
    (the controller re-elects camps on every fault) and per-unit
    prefetch/L1 counters, which no RunResult field carries."""
    scalar = _kernel_snapshot("scalar", design, style)
    batched = _kernel_snapshot("batched", design, style)
    assert scalar["unreachable"] > 0
    if design == "O":
        assert scalar["caches"]["home_direct"] > 0
    assert batched == scalar


def test_cache_keys_and_cached_json_engine_invariant(
        tmp_path, monkeypatch, base_config, workloads):
    """Sweep-cache hygiene: ``access_engine`` is a non-semantic config
    field, so both engines must address the **same** cache entry and
    serialize the **same** bytes into it — a cache populated under the
    scalar engine replays verbatim under the batched default.  (The
    comparison covers the serialized result; the entry's ``meta`` side
    carries a wall-clock creation stamp by design.)"""
    from repro.sweep.cache import ResultCache
    from repro.sweep.keys import run_key

    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    workload = workloads["pr"]
    keys = {}
    blobs = {}
    for engine in ENGINES:
        cfg = engine_config(engine, base_config)
        keys[engine] = run_key("O", workload, cfg)
        cache = ResultCache(root=tmp_path / engine)
        result = repro.simulate("O", workload, config=cfg)
        cache.store(keys[engine], result)
        stored = json.loads(cache.path_for(keys[engine]).read_text())
        blobs[engine] = json.dumps(
            stored["result"], sort_keys=True
        ).encode()
    assert keys["scalar"] == keys["batched"]
    assert blobs["scalar"] == blobs["batched"]


def test_version_salt_not_bumped_by_engine_work():
    """The batched engine changed no simulation outcome (see the
    parity tests above), so the global cache-invalidation salt must
    stay put: every scalar-era cached result remains valid.  Bump the
    salt — and this pin — only together with a change that alters
    RunResults."""
    from repro.sweep.keys import SIMULATOR_VERSION

    assert SIMULATOR_VERSION == "abndp-sim-1"


def test_scalar_engine_selectable():
    """The reference path stays selectable via MemoryConfig."""
    cfg = engine_config("scalar", experiment_config().scaled(2, 2))
    assert cfg.memory.access_engine == "scalar"
    with pytest.raises(ValueError):
        engine_config("vectorised")
