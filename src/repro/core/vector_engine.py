"""Whole-phase vectorized access resolution (``access_engine="vector"``).

The bulk-synchronous execution model fixes a phase's task set at the
barrier and bulk-invalidates every cache (L1s, prefetch buffers, camps)
when the phase ends, which makes the phase the natural vectorization
boundary: every access of a phase is known up front and no cache state
survives into the next one.  :class:`VectorPhaseEngine` exploits that —
the executor hands it the whole phase's hint accesses as columnar
arrays (requester unit, cacheline, owning task) and receives per-task
stall latencies back, with every counter the analytic models consume
(NoC traffic, DRAM/SRAM events, camp hit/miss statistics) flushed in
bulk through the same ``add_bulk`` interfaces the batched engine uses.

Statistical tier
----------------
Unlike the batched engine, which replays the scalar reference's
per-line order exactly and is bit-identical to it, the vector kernel
replaces two inherently sequential mechanisms with closed-form
equivalents.  The tier is therefore gated by *statistical* equivalence
bands (see ``docs/engines.md`` and ``tests/test_vector_engine.py``)
rather than bit-identity:

* **L1/prefetch front end** — the per-line LRU/FIFO walk becomes a
  reuse-window test: an access hits iff the same unit touched the same
  line within the last ``W`` accesses of its phase stream, where ``W``
  is the L1's capacity in lines (a stack-distance approximation of
  set-associative LRU; prefetch-buffer hits fold into the L1 count).
* **Camp probe/install** — per (line, camp) group the install point is
  drawn directly from the geometric distribution the scalar engine's
  per-miss bypass draws induce: with install probability
  ``p = 1 - bypass_probability`` the k-th miss installs with
  probability ``p * (1 - p)**(k - 1)``, and every later access of the
  group hits.  The RNG stream and draw order differ from scalar —
  exactly what the statistical tier permits.
* **Camp evictions** use a set-overflow survival model: installs are
  counted per (camp, set) — units allocate at set-span strides, so the
  same vertex index aliases into the same set from every unit — and
  when a set receives ``EI`` more installs than it has ways, each
  would-be hit in that set survives random replacement with probability
  ``(1 - 1/assoc) ** (EI / 2)`` (on average an install sees half the
  phase's overflow).  Non-survivors are charged the full camp-miss
  path and the overflow is booked into the eviction counter.
* **DRAM service queueing** (``MemoryConfig.service_ns > 0``) uses a
  per-channel ramp: the phase's events at one channel are served
  back-to-back from the channel's free time, instead of interleaving
  with per-access arrival offsets.  The experiment configuration runs
  with ``service_ns = 0`` where both models are exactly zero.

The engine never mutates the real cache structures — the barrier's
``bulk_invalidate`` on the empty containers only bumps the round
counters, same as under the batched engine.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from repro.config import CacheStyle
from repro.core.cache.policies import RandomReplacement

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.memory_system import MemorySystem

#: control-message payload (an address + command), in bits.  Mirrors
#: ``memory_system._REQUEST_BITS`` (imported there; duplicated here to
#: keep the import graph acyclic).
_REQUEST_BITS = 128

#: Statistical-equivalence bands of the vector tier, as fractional
#: deviation from the batched engine on the same seeded point (the
#: contract documented in docs/engines.md and enforced by
#: tests/test_vector_engine.py and the CI bench smoke):
#: per-point makespan within +/-12 %, the geomean across the six
#: designs within +/-5 %, and energy within +/-3 % per point.
MAKESPAN_BAND = 0.12
MAKESPAN_GEOMEAN_BAND = 0.05
ENERGY_BAND = 0.03

#: chunk width for the unique-line camp tables: bounds the (N, B, G)
#: cost tensor built per chunk to a few MB even on large meshes.
_TABLE_CHUNK = 2048


class _TrafficAcc:
    """Batch accumulator mirroring ``Interconnect.record_transfer``.

    One :meth:`book` call accounts a homogeneous batch of transfers
    (same payload size) given their class row (0 = local, 1 =
    intra-stack, 2 = inter-stack) and effective hop counts, with the
    exact per-transfer increments of the scalar path.
    """

    __slots__ = ("messages", "local", "intra", "intra_bits",
                 "inter_hops", "inter_bits")

    def __init__(self) -> None:
        self.messages = 0
        self.local = 0
        self.intra = 0
        self.intra_bits = 0
        self.inter_hops = 0
        self.inter_bits = 0

    def book(self, classes: np.ndarray, hops: np.ndarray,
             bits: int) -> None:
        n = int(classes.size)
        if n == 0:
            return
        m2 = classes == 2
        n2 = int(np.count_nonzero(m2))
        n1 = int(np.count_nonzero(classes == 1))
        hsum = int(hops[m2].sum()) if n2 else 0
        self.messages += n
        self.local += n - n2 - n1
        # inter-stack: 2 intra legs of `bits` each + `hops` mesh links;
        # intra-stack: 1 leg of `bits`.
        self.intra += 2 * n2 + n1
        self.intra_bits += bits * (2 * n2 + n1)
        self.inter_hops += hsum
        self.inter_bits += bits * hsum

    def flush(self, meter) -> None:
        if self.messages == 0:
            return
        meter.add_bulk(
            messages=self.messages,
            local_accesses=self.local,
            intra_transfers=self.intra,
            intra_bits=self.intra_bits,
            inter_hops=self.inter_hops,
            inter_bits=self.inter_bits,
        )


def _segment_ranks(sorted_keys: np.ndarray) -> Tuple[np.ndarray,
                                                     np.ndarray,
                                                     np.ndarray]:
    """Per-element rank within its run of equal (sorted) keys.

    Returns ``(ranks, starts, sizes)`` where ``starts``/``sizes``
    describe each run.
    """
    n = sorted_keys.size
    new = np.empty(n, dtype=bool)
    new[0] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=new[1:])
    starts = np.nonzero(new)[0]
    sizes = np.diff(np.append(starts, n))
    ranks = np.arange(n, dtype=np.int64) - np.repeat(starts, sizes)
    return ranks, starts, sizes


class VectorPhaseEngine:
    """Resolves one phase's accesses with array operations."""

    def __init__(self, memsys: "MemorySystem"):
        self.ms = memsys
        cfg = memsys.config
        self.num_units = cfg.num_units
        unit = memsys.units[0]
        _sets, l1_nsets, l1_assoc, _stats = unit.l1.batch_state()
        #: reuse window of the L1 front-end model, in lines.
        self.window = l1_nsets * l1_assoc
        _fifo, pf_cap, _pstats = unit.prefetch.batch_state()
        self.pf_cap = pf_cap
        self.traveller = memsys.style is CacheStyle.TRAVELLER
        self.line_bits = cfg.memory.line_bits
        # unique-line table memo (pr-style workloads reuse the same
        # line set every phase): valid for one (camp epoch, link-fault
        # epoch) pair and one unique-line array.
        self._tbl_key: Optional[tuple] = None
        self._tbl_lines: Optional[np.ndarray] = None
        self._tbl: Optional[tuple] = None

    # ------------------------------------------------------------------
    # gating
    # ------------------------------------------------------------------
    @staticmethod
    def supported(memsys: "MemorySystem") -> bool:
        """Construction-time check: can this machine use the engine?

        Covers the cacheless and Traveller styles (every Table 2
        design); the Figure 13 SRAM/DRAM-tag cache styles and non-random
        replacement keep the batched kernel.
        """
        if memsys.style is CacheStyle.NONE:
            return True
        if memsys.style is not CacheStyle.TRAVELLER:
            return False
        cache = memsys.caches[0]
        return (not cache._dense
                and isinstance(cache._victims, RandomReplacement))

    def available(self) -> bool:
        """Per-phase check: no fault or instrumentation state attached
        that the columnar kernel does not model.  Other phases run per
        task through ``access_many``'s fused kernel, which does."""
        ms = self.ms
        noc = ms.interconnect
        return (
            ms._resilience is None
            and noc.link_meter is None
            and not noc.has_link_faults
            and ms.dram._latency_scale is None
            and (ms.camp_mapper is None or ms.camp_mapper._alive is None)
        )

    # ------------------------------------------------------------------
    # unique-line tables
    # ------------------------------------------------------------------
    def _tables(self, ulines: np.ndarray):
        """Per-unique-line columns: home unit, and for Traveller the
        (num_units, L) nearest-camp and is-home tables.

        The camp hashing replicates ``CampMapper.prime_lines`` (same
        multiplicative hashes, same first-minimum argmin tie-break) but
        keeps dense matrices instead of per-line dict entries.
        """
        ms = self.ms
        cm = ms.camp_mapper
        key = (
            cm.token if cm is not None else -1,
            cm.epoch if cm is not None else -1,
            ms.interconnect.fault_epoch,
        )
        if (
            self._tbl is not None
            and self._tbl_key == key
            and self._tbl_lines.size == ulines.size
            and np.array_equal(self._tbl_lines, ulines)
        ):
            return self._tbl
        # Cross-run warm store (docs/architecture.md §15): inside a
        # warm scope, healthy-epoch Traveller tables are shared across
        # runs keyed by (machine sections, unique-lines digest) — the
        # tables are pure functions of both, so a hit is bit-identical
        # to recomputing.  Fault-touched epochs never consult/donate.
        memos = wkey = None
        if (self.traveller and cm.epoch == 0
                and ms.interconnect.fault_epoch == 0):
            from repro.core.system import _sweep_memos

            memos = _sweep_memos()
            if memos is not None:
                import hashlib

                digest = hashlib.blake2b(
                    np.ascontiguousarray(ulines).tobytes(),
                    digest_size=16,
                ).hexdigest()
                wkey = (memos.machine_key(ms.config), digest)
                warm = memos.vector_tables_get(wkey)
                if warm is not None:
                    self._tbl_key = key
                    self._tbl_lines = ulines.copy()
                    self._tbl = warm
                    return warm
        homes = ms.memory_map.homes_of_lines(ulines)
        if not self.traveller:
            tbl = (homes, None, None)
        else:
            n_units = self.num_units
            n_lines = ulines.size
            cost = ms.interconnect.cost_matrix
            group_of = cm.topology.group_of_unit
            upg = np.uint64(cm.units_per_group)
            groups = cm.num_groups
            mults = [np.uint64(m) for m in cm._multipliers]
            nearest = np.empty((n_units, n_lines), dtype=np.int64)
            for s in range(0, n_lines, _TABLE_CHUNK):
                chunk = ulines[s:s + _TABLE_CHUNK]
                b = chunk.size
                u64 = chunk.astype(np.uint64)
                locs = np.empty((b, groups), dtype=np.int64)
                for g in range(groups):
                    h = (u64 * mults[g]) >> np.uint64(48)
                    locs[:, g] = (
                        g * int(upg) + (h % upg).astype(np.int64)
                    )
                rows = np.arange(b)
                chunk_homes = homes[s:s + b]
                locs[rows, group_of[chunk_homes]] = chunk_homes
                costs = cost[:, locs]                  # (N, b, G)
                idx = np.argmin(costs, axis=2)         # (N, b)
                nearest[:, s:s + b] = locs[rows[None, :], idx]
            tbl = (homes, nearest, nearest == homes[None, :])
        self._tbl_key = key
        self._tbl_lines = ulines.copy()
        self._tbl = tbl
        if memos is not None and wkey is not None:
            memos.vector_tables_put(wkey, tbl)
        return tbl

    # ------------------------------------------------------------------
    # phase resolution
    # ------------------------------------------------------------------
    def resolve_phase(
        self,
        requesters: np.ndarray,
        lines: np.ndarray,
        task_ids: np.ndarray,
        num_tasks: int,
        now_ns: float,
    ) -> np.ndarray:
        """Resolve one phase's hint reads; return per-task stall ns.

        The inputs are parallel columns, one row per access, in the
        phase's canonical issue order (units interleaved round-robin,
        each task's lines consecutive).  All traffic/DRAM/SRAM/cache
        counters for the phase's reads are booked before returning.
        """
        ms = self.ms
        n_acc = lines.size
        if n_acc == 0:
            return np.zeros(num_tasks, dtype=np.float64)
        hit_ns = ms.sram.l1_hit_ns
        lat = np.full(n_acc, hit_ns, dtype=np.float64)

        # ---- L1 reuse-window front end -------------------------------
        # Per-unit stream position of every access (original order is
        # time order, so a stable sort by unit keeps each unit's stream
        # in issue order).
        order_u = np.argsort(requesters, kind="stable")
        _ranks, _starts, _sizes = _segment_ranks(requesters[order_u])
        punit = np.empty(n_acc, dtype=np.int64)
        punit[order_u] = _ranks
        # Group equal (unit, line) pairs, ordered by stream position:
        # an access hits iff its predecessor in the group is within the
        # reuse window.
        order = np.lexsort((punit, lines, requesters))
        r_s = requesters[order]
        l_s = lines[order]
        p_s = punit[order]
        hit_sorted = np.zeros(n_acc, dtype=bool)
        if n_acc > 1:
            hit_sorted[1:] = (
                (r_s[1:] == r_s[:-1])
                & (l_s[1:] == l_s[:-1])
                & (p_s[1:] - p_s[:-1] <= self.window)
            )
        l1_hit = np.empty(n_acc, dtype=bool)
        l1_hit[order] = hit_sorted

        n_units = self.num_units
        acc_u = np.bincount(requesters, minlength=n_units)
        hits_u = np.bincount(requesters[l1_hit], minlength=n_units)
        miss_u = acc_u - hits_u
        pf_cap = self.pf_cap
        for u, unit in enumerate(ms.units):
            nh = int(hits_u[u])
            nm = int(miss_u[u])
            if nh:
                unit.l1.stats.hits += nh
            if nm:
                unit.l1.stats.misses += nm
                pstats = unit.prefetch.stats
                pstats.issued += nm
                if nm > pf_cap:
                    pstats.evictions += nm - pf_cap

        miss_idx = np.nonzero(~l1_hit)[0]
        n_miss = miss_idx.size
        if n_miss == 0:
            ms.sram_stats.add_bulk(l1_accesses=int(n_acc))
            return np.bincount(task_ids, weights=lat,
                               minlength=num_tasks)

        # ---- camp / home resolution of the miss set ------------------
        req_m = requesters[miss_idx]
        lines_m = lines[miss_idx]
        ulines, inv = np.unique(lines_m, return_inverse=True)
        homes_tbl, nearest_tbl, ishome_tbl = self._tables(ulines)
        homes_m = homes_tbl[inv]
        if self.traveller:
            near_m = nearest_tbl[req_m, inv]
            ishome_m = ishome_tbl[req_m, inv]
        else:
            near_m = homes_m
            ishome_m = np.ones(n_miss, dtype=bool)

        ow, cls, hops = ms.interconnect.fast_arrays()
        access_lat = ms.dram.access_latency_ns
        tag_ns = ms.sram.tag_lookup_ns
        line_bits = self.line_bits
        traffic = _TrafficAcc()
        lat_m = np.empty(n_miss, dtype=np.float64)

        # Home-direct subset: the nearest allowed location is the home
        # itself (always, for the cacheless style) — one round trip and
        # one DRAM read, no probe.
        hd_idx = np.nonzero(ishome_m)[0]
        req_h = req_m[hd_idx]
        home_h = homes_m[hd_idx]
        lat_m[hd_idx] = 2.0 * ow[req_h, home_h] + access_lat
        c_h = cls[req_h, home_h]
        h_h = hops[req_h, home_h]
        traffic.book(c_h, h_h, _REQUEST_BITS)   # request leg
        traffic.book(c_h, h_h, line_bits)       # response leg
        reads = int(hd_idx.size)
        tag_accesses = 0
        fills = 0
        cache_reads = 0
        serve_units = [home_h]
        serve_pos = [hd_idx]

        if self.traveller:
            hd_per_camp = np.bincount(near_m[hd_idx], minlength=n_units)

            # Camp subset: probe the nearest camp, geometric install.
            cp_idx = np.nonzero(~ishome_m)[0]
            n_camp = cp_idx.size
            if n_camp:
                req_c = req_m[cp_idx]
                near_c = near_m[cp_idx]
                home_c = homes_m[cp_idx]
                tag_accesses = n_camp
                gid = inv[cp_idx] * np.int64(n_units) + near_c
                gorder = np.argsort(gid, kind="stable")
                g_s = gid[gorder]
                ranks_s, gstarts, gsizes = _segment_ranks(g_s)
                n_groups = gstarts.size
                cache0 = ms.caches[0]
                bp = cache0._insertion.bypass_probability
                if bp <= 0.0:
                    draws = np.ones(n_groups, dtype=np.int64)
                elif bp >= 1.0:
                    draws = np.full(n_groups, np.iinfo(np.int64).max,
                                    dtype=np.int64)
                else:
                    draws = cache0._rng.geometric(
                        1.0 - bp, size=n_groups
                    ).astype(np.int64)
                draws_s = np.repeat(draws, gsizes)
                miss_sorted = ranks_s < draws_s
                inst_sorted = ranks_s == draws_s - 1

                # Set-overflow eviction correction: installs per
                # (camp, set) key; overflowing sets convert a share of
                # later hits back into misses (see module docstring).
                camps_g = g_s[gstarts] % np.int64(n_units)
                installed_g = (draws <= gsizes).astype(np.int64)
                num_sets = cache0.num_sets
                assoc = cache0.associativity
                g_lines = ulines[g_s[gstarts] // np.int64(n_units)]
                key_g = camps_g * np.int64(num_sets) + g_lines % num_sets
                ukeys, key_inv = np.unique(key_g, return_inverse=True)
                installs_k = np.bincount(
                    key_inv, weights=installed_g, minlength=ukeys.size
                ).astype(np.int64)
                ei_k = np.maximum(0, installs_k - assoc)
                evic_cu = np.bincount(
                    ukeys // np.int64(num_sets), weights=ei_k,
                    minlength=n_units,
                )
                ei_acc = np.repeat(ei_k[key_inv], gsizes)
                risky = np.nonzero(~miss_sorted & (ei_acc > 0))[0]
                if risky.size:
                    survive = (1.0 - 1.0 / assoc) ** (
                        0.5 * ei_acc[risky]
                    )
                    evicted = cache0._rng.random(risky.size) >= survive
                    miss_sorted[risky[evicted]] = True

                camp_miss = np.empty(n_camp, dtype=bool)
                camp_miss[gorder] = miss_sorted
                inst_mask = np.empty(n_camp, dtype=bool)
                inst_mask[gorder] = inst_sorted

                # Per-camp statistics (hits/misses/insertions/bypasses).
                misses_g = np.add.reduceat(
                    miss_sorted.astype(np.int64), gstarts
                )
                hits_g = gsizes - misses_g
                bypass_g = np.where(installed_g == 1, draws - 1, gsizes)
                hits_cu = np.bincount(camps_g, weights=hits_g,
                                      minlength=n_units)
                miss_cu = np.bincount(camps_g, weights=misses_g,
                                      minlength=n_units)
                inst_cu = np.bincount(camps_g, weights=installed_g,
                                      minlength=n_units)
                byp_cu = np.bincount(camps_g, weights=bypass_g,
                                     minlength=n_units)
                for u, cache in enumerate(ms.caches):
                    cstats = cache.stats
                    cstats.hits += int(hits_cu[u])
                    cstats.misses += int(miss_cu[u])
                    cstats.insertions += int(inst_cu[u])
                    cstats.bypasses += int(byp_cu[u])
                    cstats.evictions += int(evic_cu[u])
                    cstats.home_direct += int(hd_per_camp[u])

                # Latency + traffic per camp access.
                ow_rn = ow[req_c, near_c]
                lat_hit = 2.0 * ow_rn + tag_ns + access_lat
                lat_miss = (
                    ow_rn + tag_ns + ow[near_c, home_c]
                    + access_lat + ow[req_c, home_c]
                )
                lat_m[cp_idx] = np.where(camp_miss, lat_miss, lat_hit)
                c_rn = cls[req_c, near_c]
                h_rn = hops[req_c, near_c]
                traffic.book(c_rn, h_rn, _REQUEST_BITS)  # probe request
                hit_c = ~camp_miss
                traffic.book(c_rn[hit_c], h_rn[hit_c],
                             line_bits)                  # camp response
                c_nh = cls[near_c, home_c]
                h_nh = hops[near_c, home_c]
                traffic.book(c_nh[camp_miss], h_nh[camp_miss],
                             _REQUEST_BITS)              # camp -> home
                traffic.book(cls[req_c, home_c][camp_miss],
                             hops[req_c, home_c][camp_miss],
                             line_bits)                  # home -> req
                traffic.book(c_nh[inst_mask], h_nh[inst_mask],
                             line_bits)                  # fill write
                reads += int(np.count_nonzero(camp_miss))
                cache_reads = int(np.count_nonzero(hit_c))
                fills = int(np.count_nonzero(inst_mask))
                serve_units.append(home_c[camp_miss])
                serve_pos.append(cp_idx[camp_miss])
                serve_units.append(near_c[hit_c])
                serve_pos.append(cp_idx[hit_c])
            else:
                for u, cache in enumerate(ms.caches):
                    cache.stats.home_direct += int(hd_per_camp[u])

        # ---- DRAM service queueing (non-default service_ns > 0) ------
        service = ms._service_ns
        if service > 0.0:
            ev_units = np.concatenate(serve_units)
            ev_pos = np.concatenate(serve_pos)
            if ev_units.size:
                so = np.argsort(ev_units, kind="stable")
                su = ev_units[so]
                ranks, starts, sizes = _segment_ranks(su)
                free = ms._dram_free_ns
                chans = su[starts]
                base_per_chan = np.fromiter(
                    (max(0.0, free[int(u)] - now_ns) for u in chans),
                    dtype=np.float64, count=chans.size,
                )
                delays = (
                    np.repeat(base_per_chan, sizes) + ranks * service
                )
                np.add.at(lat_m, ev_pos[so], delays)
                ms.total_queue_delay_ns += float(delays.sum())
                for u, n_ev in zip(chans, sizes):
                    u = int(u)
                    free[u] = max(free[u], now_ns) + float(n_ev) * service

        ms.sram_stats.add_bulk(
            l1_accesses=int(n_acc),
            prefetch_accesses=int(n_miss),
            tag_accesses=int(tag_accesses),
        )
        ms.dram_stats.add_bulk(
            reads=reads, cache_fills=fills, cache_reads=cache_reads,
        )
        traffic.flush(ms.traffic)

        lat[miss_idx] = lat_m
        return np.bincount(task_ids, weights=lat, minlength=num_tasks)

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------
    def book_writes(self, requesters: np.ndarray,
                    lines: np.ndarray) -> None:
        """Book the phase's buffered output writes (one line per task).

        Writes bypass the caches and retire through the write buffer
        into idle channel slots — zero stall, but their traffic and
        DRAM energy are charged, matching ``MemorySystem.write``.
        """
        if requesters.size == 0:
            return
        ms = self.ms
        homes = ms.memory_map.homes_of_lines(lines)
        _ow, cls, hops = ms.interconnect.fast_arrays()
        traffic = _TrafficAcc()
        traffic.book(cls[requesters, homes], hops[requesters, homes],
                     self.line_bits)
        traffic.flush(ms.traffic)
        ms.dram_stats.add_bulk(writes=int(requesters.size))
