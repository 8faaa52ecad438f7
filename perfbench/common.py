"""Shared pieces of the benchmark: seeds, isolation, timing records,
correctness digests and the statistics every workload reports."""

from __future__ import annotations

import contextlib
import gc
import hashlib
import inspect
import json
import math
import os
import resource
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
DIGESTS_PATH = BENCH_DIR / "digests.json"
ACCURACY_PATH = BENCH_DIR / "accuracy.json"

#: ``--seed 0`` reproduces today's defaults: ``SystemConfig.seed`` and
#: every dataset seed are shifted by the benchmark seed.
DEFAULT_SEED = 0

#: the paper's O-over-B geomean speedup (Figure 6).
PAPER_O_OVER_B = 1.68


def system_seed(seed: int) -> int:
    from repro.config import SystemConfig

    return SystemConfig().seed + seed


def dataset_kwargs(workload: str, seed: int) -> Dict[str, int]:
    """Factory kwargs giving ``workload`` the dataset of ``seed``."""
    if seed == DEFAULT_SEED:
        return {}
    from repro.workloads.base import WORKLOAD_FACTORIES

    default = inspect.signature(WORKLOAD_FACTORIES[workload]) \
        .parameters["seed"].default
    return {"seed": default + seed}


def result_digest(result) -> str:
    """sha256 of the exact-tier result as the sweep cache serializes
    it (the telemetry field is never part of that JSON)."""
    from repro.sweep.serialize import result_to_dict

    blob = json.dumps(result_to_dict(result), sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def load_digests() -> Dict[str, Dict[str, str]]:
    if DIGESTS_PATH.exists():
        return json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))
    return {}


def check_digests(workload: str, observed: Dict[str, str],
                  rec: "Record") -> None:
    """Fail every exact-tier output that differs from the digest
    committed for it at the default seed."""
    expected = load_digests().get(workload, {})
    for key, digest in sorted(observed.items()):
        if expected.get(key) != digest:
            rec.fail(f"{key}: exact-tier digest differs from the "
                     f"committed one")


def check_accuracy(workload: str, seed: int, figures: Dict[str, float],
                   rec: "Record") -> None:
    """Fail every accuracy figure that is worse than the one committed
    for it in ``accuracy.json``.  The figures are deterministic at a
    given seed, and references are committed for the default seed
    only; lower is better for all of them."""
    if seed != DEFAULT_SEED:
        return
    reference = json.loads(ACCURACY_PATH.read_text(encoding="utf-8"))
    for name, limit in sorted(reference.get(workload, {}).items()):
        value = figures.get(name)
        if value is None or value > limit + 1e-9:
            rec.fail(f"{name} = {value} is worse than the committed "
                     f"{limit}")


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolation percentile, ``q`` in [0, 100]."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def peak_rss_mb() -> float:
    """Peak resident set of this process or any waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


# ----------------------------------------------------------------------
def _probe_work() -> int:
    """A fixed piece of work, pure Python and NumPy like the simulator,
    that no change to the program can make faster or slower."""
    table: Dict[int, int] = {}
    total = 0
    for i in range(100_000):
        key = i % 1021
        table[key] = table.get(key, 0) + i
        total += len(table) & 7
    values = np.arange(16_384, dtype=np.float64)
    for _ in range(40):
        values = np.sort(values[::-1] * 1.0001)
    return total


class HostProbe:
    """The host's speed during each cycle of a pass.

    On a shared host the speed of a CPU drifts by tens of percent within
    minutes, and every op of a run drifts with it.  The probe times
    :func:`_probe_work` between ops, at the start of every cycle and then
    at most every ``EVERY_S`` seconds; its geometric mean time in a cycle
    over ``REFERENCE_S`` is the host's slowdown in that cycle.  Garbage
    collection is off while it runs, so the program's heap cannot slow
    it."""

    #: the probe's time when it ran alone on the reference host of
    #: README.md (median 22.8 ms), rounded; it only sets the scale
    REFERENCE_S = 0.025
    EVERY_S = 0.5

    def __init__(self) -> None:
        self.samples: Dict[int, List[float]] = {}
        self._last = -math.inf

    def run(self, cycle: int) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            _probe_work()
            self._last = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.samples.setdefault(cycle, []).append(self._last - start)

    def after_op(self, cycle: int) -> None:
        if time.perf_counter() - self._last >= self.EVERY_S:
            self.run(cycle)

    def slowdown(self, cycle: Optional[int] = None) -> float:
        samples = self.samples[cycle] if cycle is not None else \
            [t for ts in self.samples.values() for t in ts]
        return statistics.geometric_mean(samples) / self.REFERENCE_S


@dataclass
class Op:
    """One operation a user waits for (a point, a run, a call)."""

    kind: str
    label: str
    seconds: float
    instructions: float = 0.0
    cycle: int = 0


#: the end-to-end slots: every workload names three op kinds, and each
#: slot reports the host time of one op of its kind.
KIND_SLOTS = ("kind_a_ms", "kind_b_ms", "kind_c_ms")


@dataclass
class Record:
    """Everything one pass over a workload produced."""

    ops: List[Op] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    attempted: int = 0
    #: the cycle ops are added to, set by :func:`drive`
    cycle: int = 0
    #: times the host between ops (the untraced pass only)
    probe: Optional[HostProbe] = None

    def add(self, op: Op) -> Op:
        op.cycle = self.cycle
        self.ops.append(op)
        self.attempted += 1
        if self.probe is not None:
            self.probe.after_op(self.cycle)
        return op

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def of(self, *kinds: str) -> List[Op]:
        return [op for op in self.ops if op.kind in kinds]

    def minstr_per_s(self, *kinds: str) -> float:
        ops = [op for op in self.of(*kinds) if op.instructions]
        seconds = sum(op.seconds for op in ops)
        return sum(op.instructions for op in ops) / seconds / 1e6 \
            if seconds else 0.0

    def latencies_ms(self, *kinds: str) -> List[float]:
        return [op.seconds * 1e3 for op in self.of(*kinds)]

    def kind_metrics(self, kinds: Tuple[str, str, str]) -> Dict[str, float]:
        """The host time of one op of each kind, by slot, at the speed
        of the reference host: the geometric mean over the kind's ops of
        each op's time over the host's slowdown in its cycle.

        One slot covers one kind of op, so a regression of one path is
        not diluted by the others.  The geometric mean weighs every op
        and scales with a uniform change, while a few ops slowed by a
        stall of the host move it less than the mean (the ops of a kind
        differ in size, so their median would jump between them)."""
        return {slot: 1e3 * statistics.geometric_mean(
                    op.seconds / self.probe.slowdown(op.cycle)
                    for op in self.of(kind))
                for slot, kind in zip(KIND_SLOTS, kinds)}


def drive(workload, rec: Record, seconds: float, cycles=None,
          tracer=None) -> int:
    """Run whole cycles of the workload and return how many.

    Unless ``cycles`` is given, the count is ``seconds`` over the
    workload's nominal cycle time (at least one): the same work at
    every run, so a run never ends with a different mix of operations,
    and a faster program does the same work in less time."""
    if cycles is None:
        cycles = max(1, round(seconds / workload.cycle_s))
    for cycle in range(cycles):
        rec.cycle = cycle
        if rec.probe is not None:
            rec.probe.run(cycle)
        workload.run_cycle(rec, tracer)
    return cycles


# ----------------------------------------------------------------------
class VerifyClock:
    """Runs every simulation with ``verify=True`` and keeps the time the
    answer checks take, so it can be taken out of the timed figures."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self._undo: List[Any] = []

    def install(self) -> None:
        from repro.core.system import NdpSystem
        from repro.workloads.base import WORKLOAD_FACTORIES

        run = NdpSystem.run

        def run_verified(system, workload, max_timestamps=None,
                         verify=False):
            return run(system, workload, max_timestamps, verify=True)

        NdpSystem.run = run_verified
        self._undo.append((NdpSystem, "run", run))
        for cls in set(WORKLOAD_FACTORIES.values()):
            if "verify" in cls.__dict__:
                self._wrap(cls)

    def _wrap(self, cls: type) -> None:
        verify = cls.__dict__["verify"]
        clock = self

        def timed_verify(workload, state):
            start = time.perf_counter()
            try:
                return verify(workload, state)
            finally:
                clock.seconds += time.perf_counter() - start

        cls.verify = timed_verify
        self._undo.append((cls, "verify", verify))

    def remove(self) -> None:
        for owner, attr, func in reversed(self._undo):
            setattr(owner, attr, func)
        self._undo.clear()

    @contextlib.contextmanager
    def excluded(self) -> Iterator[List[float]]:
        """Yields a one-item list that receives the wall seconds of the
        block minus the answer checks made inside it."""
        out = [0.0]
        before = self.seconds
        start = time.perf_counter()
        try:
            yield out
        finally:
            out[0] = (time.perf_counter() - start) - (self.seconds - before)


# ----------------------------------------------------------------------
@contextlib.contextmanager
def isolated_run_dir() -> Iterator[Path]:
    """A private cache root and history ledger under the checkout.

    The checkout's own ``.repro_cache/`` is never read or written, so a
    warm cache cannot turn a timed simulation into a disk read."""
    parent = ROOT / ".bench_tmp"
    parent.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=parent))
    saved = {k: os.environ.get(k)
             for k in ("REPRO_CACHE_DIR", "REPRO_HISTORY_PATH",
                       "REPRO_NO_CACHE")}
    os.environ["REPRO_CACHE_DIR"] = str(tmp / "cache")
    os.environ["REPRO_HISTORY_PATH"] = str(tmp / "history.jsonl")
    os.environ.pop("REPRO_NO_CACHE", None)
    try:
        yield tmp
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            parent.rmdir()


def leaked_segments(pids: List[int]) -> List[str]:
    """Shared-memory workload segments still held by ``pids``."""
    from repro.sweep.runtime import SHM_PREFIX

    shm = Path("/dev/shm")
    if not shm.is_dir():
        return []
    owners = {f"{SHM_PREFIX}{pid:x}_" for pid in pids}
    return sorted(name for name in os.listdir(shm)
                  if any(name.startswith(o) for o in owners))
