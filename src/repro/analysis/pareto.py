"""Pareto-front extraction over DSE design points, and the shard merger.

The paper's Table VI shows the latency/throughput/power tension across
design points; a deployer usually wants the non-dominated set rather
than a single winner.  A point dominates another when it is no worse in
every objective (lower latency, higher throughput, lower power) and
strictly better in at least one.

:func:`merge_shards` folds the per-shard ledgers of a sharded sweep
(:mod:`repro.dse.sharded`) into one global frontier.  Its contract:

* **idempotent and order-independent** — any shard file ordering, any
  number of repeat merges, same result (units are restored into the
  space's canonical enumeration order before the frontier is taken,
  which is what makes the merged frontier *byte-identical* to a serial
  :meth:`~repro.dse.space.DesignSpace.explore_serial` sweep);
* **duplicate-safe** — a unit evaluated by two shards (work stealing
  races are legal) must agree byte-for-byte at the encoded-entry
  level; a divergence is a real determinism bug and fails the merge;
* **damage-tolerant** — a missing or quarantined shard is reported in
  the provenance, never a hard failure; ``recover=True`` re-evaluates
  whatever is missing inline.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.core.dse import DesignPoint
from repro.errors import DesignSpaceError
from repro.obs import metrics as _metrics
from repro.obs import tracer as _tracer


def _dominates(a: DesignPoint, b: DesignPoint) -> bool:
    """True when ``a`` Pareto-dominates ``b``."""
    no_worse = (
        a.latency <= b.latency
        and a.throughput >= b.throughput
        and a.power.total <= b.power.total
    )
    strictly_better = (
        a.latency < b.latency
        or a.throughput > b.throughput
        or a.power.total < b.power.total
    )
    return no_worse and strictly_better


def pareto_front(points: Sequence[DesignPoint]) -> List[DesignPoint]:
    """Non-dominated design points, sorted by ascending latency.

    Raises:
        DesignSpaceError: for an empty candidate set.
    """
    if not points:
        raise DesignSpaceError("no design points to filter")
    front = [
        candidate
        for candidate in points
        if not any(
            _dominates(other, candidate)
            for other in points
            if other is not candidate
        )
    ]
    front.sort(key=lambda p: p.latency)
    return front


@dataclass
class ShardProvenance:
    """What one shard contributed to a merge.

    Attributes:
        shard: Shard id, or ``"recovered"`` for the coordinator's
            inline-recovery ledger.
        path: Ledger file location.
        present: Whether the ledger file existed at merge time.
        entries: Evaluations read from it.
        quarantined: Quarantine destinations created while opening it
            (a torn/corrupt ledger was moved aside).
        steal_count: The shard lease's generation — how many times its
            work changed hands.
        lease_done: The lease's completion flag (None: no lease file).
        owner: Last lease owner token (None: no lease file).
    """

    shard: Union[int, str]
    path: str
    present: bool
    entries: int = 0
    quarantined: List[str] = field(default_factory=list)
    steal_count: int = 0
    lease_done: Optional[bool] = None
    owner: Optional[str] = None


@dataclass
class ShardMerge:
    """The result of folding shard ledgers into one global frontier.

    Attributes:
        points: Every merged design point, in the space's canonical
            unit order, power cap applied.
        frontier: The global Pareto frontier over ``points``.
        total_units: Units the plan's space enumerates.
        merged_units: Units found in at least one ledger.
        missing_units: Units found in none (0 for a complete merge).
        duplicates: Units found in more than one ledger (idempotent
            steals); every duplicate was verified byte-identical.
        recovered: Units re-evaluated inline by this merge.
        shards: Per-shard provenance, shard id order.
    """

    points: List[DesignPoint]
    frontier: List[DesignPoint]
    total_units: int
    merged_units: int
    missing_units: int
    duplicates: int
    recovered: int
    shards: List[ShardProvenance]

    @property
    def complete(self) -> bool:
        """Whether every unit of the space was merged."""
        return self.missing_units == 0

    def describe(self) -> str:
        """One-line summary for CLI confirmations."""
        quarantined = sum(len(s.quarantined) for s in self.shards)
        steals = sum(
            s.steal_count for s in self.shards if isinstance(s.shard, int)
        )
        return (
            f"{self.merged_units}/{self.total_units} units from "
            f"{sum(1 for s in self.shards if s.present)} ledgers "
            f"({self.duplicates} duplicates, {steals} steals, "
            f"{quarantined} quarantined, {self.missing_units} missing, "
            f"{self.recovered} recovered); frontier size "
            f"{len(self.frontier)}"
        )


def merge_shards(
    workdir: Union[str, Path],
    recover: bool = False,
) -> ShardMerge:
    """Fold a sharded sweep's ledgers into one global Pareto frontier.

    Args:
        workdir: The sweep directory (``plan.json`` + shard ledgers).
        recover: Evaluate any missing unit inline (persisted to the
            ``recovered.json`` ledger) instead of reporting it missing.

    Raises:
        DesignSpaceError: when two ledgers disagree about one unit
            (a determinism bug, not bit rot — never swallowed), or
            when nothing at all could be merged.
        ConfigurationError: for a missing/malformed plan file.
    """
    from repro.dse.sharded import (
        RECOVERED_FILENAME,
        ShardPlan,
        open_shard_ledger,
        recover_missing_units,
        shard_ledger_path,
        shard_lease_path,
    )
    from repro.io import decode_value
    from repro.resilience.lease import read_lease

    workdir = Path(workdir)
    plan = ShardPlan.load(workdir)
    space = plan.space
    keys = space.unit_keys()
    with _tracer.span("dse.merge_shards", category="dse",
                      shards=plan.shards, units=len(keys)):
        recovered = 0
        if recover:
            recovered = recover_missing_units(workdir, plan)
            if recovered:
                _metrics.counter("dse.units_recovered_at_merge").inc(recovered)

        sources: List[ShardProvenance] = []
        for shard in range(plan.shards):
            lease = read_lease(shard_lease_path(workdir, shard))
            sources.append(ShardProvenance(
                shard=shard,
                path=str(shard_ledger_path(workdir, shard)),
                present=False,
                steal_count=lease.generation if lease else 0,
                lease_done=lease.done if lease else None,
                owner=lease.owner if lease else None,
            ))
        sources.append(ShardProvenance(
            shard="recovered",
            path=str(workdir / RECOVERED_FILENAME),
            present=False,
        ))

        chosen: Dict[str, Dict] = {}
        chosen_canon: Dict[str, str] = {}
        origin: Dict[str, Union[int, str]] = {}
        duplicates = 0
        for prov in sources:
            path = Path(prov.path)
            # Quarantine artifacts stay on disk no matter which
            # participant (worker resume, stealer, recovery pass) did
            # the rename — glob them so provenance never misses one.
            prov.quarantined = sorted(
                str(p) for p in path.parent.glob(f"{path.name}.corrupt-*")
            )
            if not path.exists():
                continue
            ledger = open_shard_ledger(path)
            prov.quarantined = sorted(
                set(prov.quarantined) | set(ledger.quarantined)
            )
            if not path.exists():
                # The file we just opened was itself corrupt and has
                # been moved aside; nothing to read.
                continue
            prov.present = True
            prov.entries = len(ledger)
            for key in keys:
                raw = ledger.raw_entry(key)
                if raw is None:
                    continue
                canon = json.dumps(raw, sort_keys=True)
                if key in chosen:
                    duplicates += 1
                    _metrics.counter("dse.merge_duplicates").inc()
                    if canon != chosen_canon[key]:
                        _metrics.counter("dse.merge_divergences").inc()
                        raise DesignSpaceError(
                            f"shards {origin[key]!r} and {prov.shard!r} "
                            f"disagree about unit {key[:16]}…: duplicate "
                            f"evaluations must be byte-identical "
                            f"(deterministic model) — this is a "
                            f"determinism bug, not bit rot"
                        )
                    continue
                chosen[key] = raw
                chosen_canon[key] = canon
                origin[key] = prov.shard

        missing = [key for key in keys if key not in chosen]
        if missing:
            _metrics.counter("dse.merge_missing_units").inc(len(missing))
        if not chosen:
            raise DesignSpaceError(
                f"nothing to merge in {workdir}: no shard ledger holds "
                f"any of the plan's {len(keys)} units"
            )

        # Canonical order restoration is the parity pin: the points
        # enter pareto_front in exactly the serial explore_serial
        # order, so stable-sort tie-breaking matches byte for byte.
        points = [decode_value(chosen[key]) for key in keys if key in chosen]
        kept = space.apply_power_cap(points)
        frontier = pareto_front(kept) if kept else []
        return ShardMerge(
            points=kept,
            frontier=frontier,
            total_units=len(keys),
            merged_units=len(chosen),
            missing_units=len(missing),
            duplicates=duplicates,
            recovered=recovered,
            shards=sources,
        )
