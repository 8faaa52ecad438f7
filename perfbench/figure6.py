"""``figure6``: the Figure 6 grid on the exact and the vector tier.

The points are the B and O columns of ``campaigns/full_matrix.json``
(all eight workloads, default sizes, 4x4 mesh), run through the sweep
engine with the result cache off and ``jobs=1`` — the in-process warm
:class:`~repro.sweep.runtime.WorkerRuntime` path.  Each unit runs one
point on the exact ``batched`` tier and then on the ``vector`` tier, so
an optimisation of either tier has a bypass inside this workload, and
the exact results are the reference the vector tier is scored against.

Its three op kinds are an exact-tier point (dominated by
``MemorySystem.access_many`` under both designs), a vector-tier B point
(static placement: ``resolve_phase``) and a vector-tier O point (hybrid
placement and stealing: ``choose_units_batch``,
``rebalance_by_stealing``).
"""

from __future__ import annotations

import contextlib
import math
from typing import Dict, List, Tuple

from common import (DEFAULT_SEED, PAPER_O_OVER_B, ROOT, Op, Record,
                    check_accuracy, check_digests, dataset_kwargs,
                    result_digest, system_seed)

DESIGNS = ("B", "O")
TIERS = ("batched", "vector")


class Figure6:
    #: host seconds of one cycle (32 points) on the reference host of
    #: README.md; ``--seconds`` over this sets the number of cycles.
    cycle_s = 27.0
    name = "figure6"
    kinds = ("exact", "vector B", "vector O")

    def __init__(self, seed: int, clock) -> None:
        self.seed = seed
        self.clock = clock
        self.runtime = None
        #: first result of every (tier, label), the accuracy reference
        self.results: Dict[Tuple[str, str], object] = {}
        #: per tier: traced (calls, total, self) of each function and
        #: its module during O/pr
        self.o_pr: Dict[str, Dict[str, Tuple[List[float], str]]] = {}

    # ------------------------------------------------------------------
    def setup(self) -> None:
        from repro.campaign.spec import load_campaign
        from repro.sweep.runner import SweepPoint, SweepRunner
        from repro.sweep.runtime import WorkerRuntime, process_memos

        campaign = load_campaign(ROOT / "campaigns" / "full_matrix.json")
        sets = {"seed": system_seed(self.seed)}
        points = {
            tier: [p for p in campaign.expand(
                sets=dict(sets, engine=tier)).points
                if p.spec.design in DESIGNS]
            for tier in TIERS
        }
        self.pairs: List[Tuple] = []
        for exact, vector in zip(points["batched"], points["vector"]):
            self.pairs.append(tuple(
                SweepPoint(design=p.spec.design,
                           workload=p.spec.workload,
                           config=p.spec.resolved_config(),
                           workload_kwargs=dataset_kwargs(
                               p.spec.workload, self.seed),
                           label=p.label)
                for p in (exact, vector)))
        # Datasets are built once per process, as a real campaign's
        # warm memo does; building them is set-up, not measured work.
        self.runtime = WorkerRuntime(jobs=1)
        memos = process_memos()
        memos.workloads.clear()
        with self.runtime.activate():
            for point, _ in self.pairs:
                memos.workload_from_factory(point.workload,
                                            point.workload_kwargs)
        self.runner = SweepRunner(cache=False, jobs=1,
                                  runtime=self.runtime)

    def run_cycle(self, rec: Record, tracer=None) -> None:
        for pair in self.pairs:
            self._run_pair(pair, rec, tracer)

    def _run_pair(self, pair, rec: Record, tracer) -> None:
        for tier, point in zip(TIERS, pair):
            span = tracer.span(f"{tier} {point.label}", "bench") \
                if tracer else contextlib.nullcontext()
            capture = tracer is not None and point.label == "O/pr"
            before = tracer.snapshot() if capture else None
            with span, self.clock.excluded() as seconds:
                outcome = self.runner.run([point]).outcomes[0]
            if capture:
                self.o_pr[tier] = {
                    name: (rec_, tracer.module_of[name])
                    for name, rec_ in tracer.since(before).items()}
            result = outcome.result if outcome.source == "run" else None
            kind = "exact" if tier == "batched" \
                else f"vector {point.design}"
            rec.add(Op(kind, point.label, seconds[0],
                       result.instructions if result else 0.0))
            if result is None:
                error = (outcome.error or "no result").strip()
                rec.fail(f"{tier} {point.label}: "
                         f"{error.splitlines()[-1]}")
                continue
            self.results.setdefault((tier, point.label), result)

    # ------------------------------------------------------------------
    def check(self, rec: Record) -> Dict[str, float]:
        """Digest checks and the accuracy figures of the first cycle."""
        if self.seed == DEFAULT_SEED:
            check_digests(self.name, self.observed_digests(), rec)
        from repro.core.vector_engine import MAKESPAN_BAND

        out_of_band = sum(
            abs(result.makespan_cycles
                / self.results[("batched", label)].makespan_cycles - 1.0)
            > MAKESPAN_BAND
            for (tier, label), result in self.results.items()
            if tier == "vector" and ("batched", label) in self.results)
        errors, mismatches, logs = [], 0, []
        for workload in sorted({point.workload for point, _ in self.pairs}):
            span = {}
            for tier in TIERS:
                base = self.results.get((tier, f"B/{workload}"))
                full = self.results.get((tier, f"O/{workload}"))
                if base is None or full is None:
                    break
                span[tier] = (base.makespan_cycles, full.makespan_cycles)
            else:
                exact = span["batched"][0] / span["batched"][1]
                vector = span["vector"][0] / span["vector"][1]
                errors.append(abs(vector / exact - 1.0) * 100.0)
                winner = [min(zip(span[t], DESIGNS))[1] for t in TIERS]
                mismatches += winner[0] != winner[1]
                logs.append(math.log(exact))
        if not logs:
            return {}
        geomean = math.exp(sum(logs) / len(logs))
        figures = {
            "exact_sim_minstr_per_s": rec.minstr_per_s("exact"),
            "vector_sim_minstr_per_s": rec.minstr_per_s("vector B",
                                                        "vector O"),
            "vector_speedup_err_pct": max(errors),
            "vector_winner_mismatches": float(mismatches),
            "vector_points_out_of_band": float(out_of_band),
            "exact_o_over_b_geomean": geomean,
            "paper_gap_pct": (geomean / PAPER_O_OVER_B - 1.0) * 100.0,
        }
        check_accuracy(self.name, self.seed, figures, rec)
        return figures

    def split_report(self, roadmap: Dict[Tuple[str, str], float]) -> None:
        """O/pr's traced split beside the ROADMAP's cProfile split."""
        print("\nO/pr split, traced here vs the ROADMAP's cProfile run "
              "(the ROADMAP's shares are of a whole `repro run`, dataset "
              "build included; these are of the point, dataset prebuilt):")
        for tier, funcs in sorted(self.o_pr.items()):
            # the point's host time, without the answer check
            point = funcs["SweepRunner.run"][0][1] - sum(
                rec[1] for name, (rec, _) in funcs.items()
                if name.endswith(".verify"))
            shares = {
                "MemorySystem.access_many":
                    funcs["MemorySystem.access_many"][0][2],
                "core.scheduler (placement)": sum(
                    rec[2] for name, (rec, module) in funcs.items()
                    if module == "core.scheduler"
                    and name != "rebalance_by_stealing"),
                "rebalance_by_stealing":
                    funcs["rebalance_by_stealing"][0][2],
            }
            for name, seconds in shares.items():
                ref = roadmap.get((tier, name))
                ref_text = f"{ref:5.1f}%" if ref is not None else "    -"
                share = 100.0 * seconds / point
                gap = f"{share - ref:+6.1f} pts" if ref is not None else ""
                print(f"  {tier:8} {name:28} traced {share:5.1f}%  "
                      f"ROADMAP {ref_text} {gap}")

    def observed_digests(self) -> Dict[str, str]:
        return {label: result_digest(result)
                for (tier, label), result in self.results.items()
                if tier == "batched"}

    def exact_results(self) -> List[object]:
        return [r for (tier, _), r in self.results.items()
                if tier == "batched"]

    def pids(self) -> List[int]:
        return []

    def close(self) -> None:
        if self.runtime is not None:
            self.runtime.close()
            self.runtime = None
