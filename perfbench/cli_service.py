"""``cli_service``: the answers a caller waits for at the command line
and from the experiment server.

One client in a closed loop (each call waits for the previous answer)
makes three kinds of call: ``python -m repro run`` on points already in
a private result cache, ``python -m repro run -d O -w pr --no-cache``
(a cold single point), and submit + ``result_bytes`` round-trips to a
``python -m repro serve --workers 1`` subprocess for the cached points.
Import, cache I/O, run-key hashing, the history ledger and the service
dominate here; the simulator core is nearly absent.  Filling the cache
and starting the server are set-up.  The three kinds of call are the
workload's three op kinds.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from common import (BENCH_DIR, ROOT, Op, Record, check_digests,
                    percentile)

#: the cached points: cheap to fill, and the same at every seed so the
#: set-up cost and memory do not depend on the seed.
CACHED = (("B", "kmeans"), ("O", "spmv"))
CACHED_MESH = "2x2"
#: cached CLI answers and server round-trips per cold point: each kind
#: of call takes about the same host time per cycle, at the medians of
#: the reference host of README.md (cold point 2.05 s, cached answer
#: 0.47 s, round-trip 2.9 ms): round(2.05 / 0.47) = 4 and
#: round(2.05 / 0.0029, -2) = 700.  Each kind has an end-to-end slot of
#: its own, so the mix sets how many samples of each a run takes, not
#: what a metric measures.
CLI_CALLS = 4
SERVE_CALLS = 700
COLD_ARGS = ["run", "-d", "O", "-w", "pr", "--no-cache"]
SERVER_START_TIMEOUT_S = 60.0


def _env() -> Dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class CliService:
    #: host seconds of one cycle (705 calls) on the reference host of
    #: README.md; ``--seconds`` over this sets the number of cycles.
    cycle_s = 6.0
    name = "cli_service"
    kinds = ("cli_cached", "serve_cached", "cli_cold")

    def __init__(self, seed: int, clock) -> None:
        self.seed = seed
        self.clock = clock
        self.server: Optional[subprocess.Popen] = None
        self.started_pids: List[int] = []
        self.cold_outputs: List[str] = []

    def _cli(self, args: List[str], tracer=None):
        """One ``python -m repro`` call; traced, it runs under
        ``traced_cli.py`` and its layers fold into ``tracer``."""
        if tracer is None:
            return subprocess.run(
                [sys.executable, "-m", "repro", *args], cwd=ROOT,
                env=_env(), capture_output=True, text=True, timeout=120)
        dump = Path(os.environ["REPRO_CACHE_DIR"]).parent / "child.json"
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "traced_cli.py"), str(dump),
             *args], cwd=ROOT, env=_env(), capture_output=True, text=True,
            timeout=120)
        tracer.merge(json.loads(dump.read_text(encoding="utf-8")))
        return proc

    def setup(self) -> None:
        import repro.cli
        from repro.service.client import ServiceClient
        from repro.service.spec import ExperimentSpec
        from repro.sweep.cache import default_cache

        # the CLI takes no seed: the seed orders the cached calls
        self.rng = random.Random(self.seed)
        cache = default_cache()
        cache.clear()
        self.expected: Dict[str, str] = {}
        self.specs: List[Dict[str, str]] = []
        self.on_disk: Dict[str, bytes] = {}
        for design, workload in CACHED:
            args = ["run", "-d", design, "-w", workload,
                    "--mesh", CACHED_MESH]
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                repro.cli.main(args)
            self.expected[" ".join(args)] = out.getvalue()
            spec = {"design": design, "workload": workload,
                    "mesh": CACHED_MESH}
            key = ExperimentSpec.from_dict(spec).run_key()
            self.specs.append(dict(spec, key=key))
            self.on_disk[key] = cache.path_for(key).read_bytes()
        self.server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--workers", "1",
             "--port", "0", "--cache-dir", str(cache.root)],
            cwd=ROOT, env=_env(), stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True)
        self.started_pids.append(self.server.pid)
        ready, _, _ = select.select([self.server.stdout], [], [],
                                    SERVER_START_TIMEOUT_S)
        line = self.server.stdout.readline() if ready else ""
        if "http://" not in line:
            raise RuntimeError(f"server did not start: {line!r}")
        url = line.split("http://", 1)[1].split()[0]
        self.client = ServiceClient("http://" + url, timeout=60.0)

    def run_cycle(self, rec: Record, tracer=None) -> None:
        for i in range(CLI_CALLS):
            design, workload = self.rng.choice(CACHED)
            self._cached_cli(["run", "-d", design, "-w", workload,
                              "--mesh", CACHED_MESH], rec, tracer)
            for _ in range(SERVE_CALLS // CLI_CALLS):
                self._serve(self.rng.choice(self.specs), rec, tracer)
            if i == 0:
                self._cold(rec, tracer)

    def _span(self, tracer, name: str):
        return tracer.span(name, "bench") if tracer \
            else contextlib.nullcontext()

    def _cached_cli(self, args: List[str], rec: Record, tracer) -> None:
        with self._span(tracer, "cli cached"):
            start = time.perf_counter()
            proc = self._cli(args, tracer)
            seconds = time.perf_counter() - start
        rec.add(Op("cli_cached", " ".join(args), seconds))
        if proc.returncode != 0:
            rec.fail(f"cli {' '.join(args)}: exit {proc.returncode}")
        elif proc.stdout != self.expected[" ".join(args)]:
            rec.fail(f"cli {' '.join(args)}: answer differs from the "
                     f"cached run")

    def _cold(self, rec: Record, tracer) -> None:
        out = Path(os.environ["REPRO_CACHE_DIR"]).parent / "cold.json"
        with self._span(tracer, "cli cold"):
            start = time.perf_counter()
            proc = self._cli(COLD_ARGS + ["--json", str(out)], tracer)
            seconds = time.perf_counter() - start
        instructions = 0.0
        if proc.returncode != 0:
            rec.fail(f"cli {' '.join(COLD_ARGS)}: exit {proc.returncode}")
        else:
            exported = json.loads(out.read_text(encoding="utf-8"))
            instructions = float(exported[0]["instructions"])
            self.cold_outputs.append(proc.stdout.splitlines()[0])
        rec.add(Op("cli_cold", " ".join(COLD_ARGS), seconds, instructions))

    def _serve(self, spec: Dict[str, str], rec: Record, tracer) -> None:
        from repro.service.client import ServiceError

        body = {k: v for k, v in spec.items() if k != "key"}
        with self._span(tracer, "serve round-trip"):
            start = time.perf_counter()
            try:
                answer = self.client.submit(body, wait=True)
                data = self.client.result_bytes(answer.get("key", ""))
            except ServiceError as exc:
                answer, data = {"status": str(exc)}, b""
            seconds = time.perf_counter() - start
        rec.add(Op("serve_cached", spec["key"][:12], seconds))
        if answer.get("status") != "cached":
            rec.fail(f"serve {body}: status {answer.get('status')!r}")
        elif data != self.on_disk[spec["key"]]:
            rec.fail(f"serve {body}: bytes differ from the cache entry")

    def server_seconds(self) -> float:
        """``repro_server_request_seconds_total`` summed over routes."""
        _, text = self.client.metrics()
        return sum(float(line.rsplit(" ", 1)[1])
                   for line in text.splitlines()
                   if line.startswith("repro_server_request_seconds_total"))

    # ------------------------------------------------------------------
    def check(self, rec: Record) -> Dict[str, float]:
        # the CLI has no seed flag: the cold point is the same input at
        # every benchmark seed, so its answer is checked at every seed
        for line in set(self.cold_outputs):
            check_digests(self.name, {"cold O/pr": _sha(line)}, rec)
        out: Dict[str, float] = {}
        for kind in ("cli_cached", "serve_cached"):
            lat = rec.latencies_ms(kind)
            out[f"{kind}_p50_ms"] = statistics.median(lat)
            out[f"{kind}_p90_ms"] = percentile(lat, 90)
        cold = rec.latencies_ms("cli_cold")
        out["cli_cold_p50_s"] = statistics.median(cold) / 1e3
        out["samples.cli_cached"] = float(len(rec.of("cli_cached")))
        out["samples.cli_cold"] = float(len(cold))
        out["samples.serve_cached"] = float(len(rec.of("serve_cached")))
        return out

    def exact_results(self) -> List[object]:
        return []

    def pids(self) -> List[int]:
        return list(self.started_pids)

    def close(self) -> None:
        if self.server is None:
            return
        with contextlib.suppress(Exception):
            self.client.shutdown()
        try:
            self.server.wait(timeout=15)
        except subprocess.TimeoutExpired:
            self.server.kill()
            self.server.wait()
        self.server.stdout.close()
        self.server = None
