"""The package surface loads lazily: what a cached ``repro run`` imports,
and that the public names are the same objects an eager import gave."""

import contextlib
import importlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)

#: modules a cache hit must not load: the simulator, the workloads,
#: the sweep runtime and everything above the result cache.
FORBIDDEN_ON_HIT = (
    "repro.core.system",
    "repro.core.scheduler",
    "repro.runtime",
    "repro.workloads",
    "repro.sweep.runtime",
    "repro.faults",
    "repro.telemetry.core",
    "repro.service",
    "repro.insight",
    "repro.analysis.plotting",
    "multiprocessing",
)

#: where each public name of ``repro`` lived when ``repro/__init__``
#: imported everything eagerly.
EAGER_HOMES = {
    **{name: "repro.config" for name in (
        "SystemConfig", "TopologyConfig", "CoreConfig", "MemoryConfig",
        "NocConfig", "SramConfig", "CacheConfig", "SchedulerConfig",
        "CacheStyle", "CampMapping", "ReplacementPolicy",
        "SchedulingPolicy", "default_config", "describe_config",
        "experiment_config")},
    **{name: "repro.core.system" for name in (
        "NdpSystem", "DesignPoint", "DESIGN_POINTS", "build_system")},
    "HostModel": "repro.core.host",
    **{name: "repro.simulate" for name in (
        "simulate", "compare_designs", "ALL_DESIGNS", "ALL_WORKLOADS",
        "DETAIL_WORKLOADS")},
    **{name: "repro.sweep" for name in (
        "cached_simulate", "run_point", "run_matrix", "SweepRunner",
        "ResultCache")},
    **{name: "repro.workloads.base" for name in (
        "Workload", "make_workload", "WORKLOAD_FACTORIES")},
    **{name: "repro.faults" for name in (
        "FaultEvent", "FaultKind", "FaultSchedule", "ResilienceStats",
        "make_random_schedule", "run_fault_campaign")},
    "RunResult": "repro.analysis.metrics",
}

LAZY_PACKAGES = ("repro", "repro.sweep", "repro.analysis", "repro.arch",
                 "repro.core", "repro.core.cache", "repro.observatory")


def _python(code: str, env=None) -> subprocess.CompletedProcess:
    env = dict(env if env is not None else os.environ)
    env["PYTHONPATH"] = SRC
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)


# ----------------------------------------------------------------------
# the cache-hit import budget
# ----------------------------------------------------------------------
def test_cached_run_imports_no_simulator(tmp_path, monkeypatch):
    """A cached ``repro run`` reads a JSON entry, appends one ledger
    line and prints one line; it loads none of the simulator."""
    history = tmp_path / "history.jsonl"
    for var in ("REPRO_NO_CACHE", "REPRO_NO_HISTORY"):
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setenv("REPRO_HISTORY_PATH", str(history))
    argv = ["run", "-d", "B", "-w", "kmeans", "--mesh", "2x2"]

    import repro.cli

    simulated = io.StringIO()
    with contextlib.redirect_stdout(simulated):
        assert repro.cli.main(argv) == 0
    first = [json.loads(line) for line in history.read_text().splitlines()]
    assert [r["source"] for r in first] == ["simulate"]

    proc = _python(
        "import json, sys\n"
        "import repro.cli\n"
        f"code = repro.cli.main({argv!r})\n"
        "sys.stdout.flush()\n"
        "print(json.dumps([code, sorted(sys.modules)]), file=sys.stderr)\n")
    assert proc.returncode == 0, proc.stderr
    code, modules = json.loads(proc.stderr.strip().splitlines()[-1])
    assert code == 0
    loaded = [m for m in modules
              if any(m == f or m.startswith(f + ".")
                     for f in FORBIDDEN_ON_HIT)]
    assert loaded == []
    assert proc.stdout == simulated.getvalue()

    records = [json.loads(line) for line in history.read_text().splitlines()]
    assert len(records) == 2
    assert records[1]["source"] == "cache"
    assert records[1]["key"] == records[0]["key"]


# ----------------------------------------------------------------------
# public-API parity
# ----------------------------------------------------------------------
def test_every_public_name_is_its_eager_object():
    assert set(repro.__all__) == set(EAGER_HOMES) | {"sweep",
                                                     "__version__"}
    for name, home in EAGER_HOMES.items():
        assert getattr(repro, name) is getattr(
            importlib.import_module(home), name), name
    assert repro.sweep is importlib.import_module("repro.sweep")
    assert set(repro.__all__) <= set(dir(repro))


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_lazy_package_lists_and_resolves_its_names(package):
    pkg = importlib.import_module(package)
    assert set(pkg.__all__) <= set(dir(pkg))
    for name in pkg.__all__:
        assert getattr(pkg, name) is not None
    with pytest.raises(AttributeError):
        getattr(pkg, "no_such_name")


@pytest.mark.parametrize("first", [
    "import repro.simulate",
    "import repro.sweep.runner",
    "from repro.workloads.base import WORKLOAD_FACTORIES",
    "import repro.cli",
])
def test_simulate_stays_the_function(first):
    """``repro.simulate`` names both a submodule and the public
    function; whichever is imported first, the package attribute is
    the function."""
    proc = _python(
        f"{first}\n"
        "import repro\n"
        "assert callable(repro.simulate), repro.simulate\n"
        "from repro import simulate\n"
        "assert simulate is repro.simulate\n")
    assert proc.returncode == 0, proc.stderr


def test_workload_package_registers_every_factory():
    """Importing the registry imports every workload module, so
    ``WORKLOAD_FACTORIES`` is complete however it is reached."""
    proc = _python(
        "import repro\n"
        "from repro.workloads.base import WORKLOAD_FACTORIES\n"
        "print(','.join(sorted(WORKLOAD_FACTORIES)))\n")
    assert proc.returncode == 0, proc.stderr
    from repro.workloads.base import WORKLOAD_FACTORIES

    assert proc.stdout.strip() == ",".join(sorted(WORKLOAD_FACTORIES))


def test_parser_workload_choices_are_the_registry():
    import argparse

    from repro.cli import build_parser
    from repro.workloads.base import WORKLOAD_FACTORIES

    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    seen = 0
    for parser in sub.choices.values():
        for action in parser._actions:
            if action.dest == "workload" and action.choices is not None:
                assert list(action.choices) == sorted(WORKLOAD_FACTORIES)
                seen += 1
    assert seen >= 3  # at least run, trace and faults
