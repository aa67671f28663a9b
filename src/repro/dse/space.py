"""The widened DSE space: classic parallelism axes × new design axes.

The paper's two-stage DSE (Section IV-C) sweeps ``(P_eng, P_task)``
with a fitted achievable frequency.  This module widens that space with
two further first-class axes, in the spirit of WideSA's mapping-scheme
exploration and EA4RCA's communication-avoiding design points:

* **ring ordering** — ``codesign`` (the paper's shifting-ring ordering
  with relocated dataflow, :func:`~repro.core.ordering_codesign.codesign_dma_transfers`
  = ``2(k-1)`` DMA transfers per round) versus ``traditional``
  (``2k(k-1)``): a pure dataflow choice that changes the performance
  model but not placement or resource feasibility;
* **frequency derate** — a multiplicative factor on the fitted
  achievable PL clock, modelling conservative timing closure margins
  (1.0 = the fitted clock; 0.9 = a 10 % guard band).

Crossing the paper's 286 feasible pairs with two orderings and a few
derates multiplies the space ~4–8x; the sharded sweep in
:mod:`repro.dse.sharded` exists so that growth stays tractable and
kill-and-resume safe.

Everything here is deterministic: :meth:`DesignSpace.units` has one
canonical enumeration order, every unit has one content key
(:func:`evaluation_key`, shared by the cache and every checkpoint
ledger), and :meth:`DesignSpace.explore_serial` evaluates units in
canonical order — which is the order the shard merger restores, making
the merged Pareto frontier byte-identical to the serial one.

:func:`sweep` is the one loop that scores design points, for
``DesignSpaceExplorer.explore`` and every shard worker alike; only
:meth:`DesignSpace.explore_serial`, the parity reference, bypasses it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.config import HeteroSVDConfig
from repro.core.dse import (
    VALID_OBJECTIVES,
    DesignPoint,
    DesignSpaceExplorer,
)
from repro.core.power import PowerModel
from repro.errors import ConfigurationError, DesignSpaceError
from repro.exec.cache import key_for_config
from repro.exec.parallel import CHUNKS_PER_WORKER, ParallelRunner
from repro.obs import metrics as _metrics
from repro.obs import tracer as _tracer
from repro.resilience.checkpoint import DEFAULT_FLUSH_INTERVAL
from repro.resilience.retry import call_with_retry

#: Valid ring-ordering axis values.
ORDERINGS = ("codesign", "traditional")

#: Default frequency derates swept (1.0 = fitted achievable clock).
DEFAULT_DERATES = (1.0, 0.9)

#: Space descriptions bump this when their layout changes.
SPACE_FORMAT = 1

#: Coefficients of the default (Table VI) power model.
_DEFAULT_POWER = vars(PowerModel())


def evaluation_key(
    explorer: DesignSpaceExplorer, config: HeteroSVDConfig, batch: int
) -> str:
    """Content key of one evaluation, shared by the cache and ledgers.

    The power coefficients join the key only when they differ from the
    default model's, so default-model keys stay byte-identical to those
    existing caches and ledgers were written with.
    """
    params: Dict = {"batch": batch}
    power = vars(explorer.power_model)
    if power != _DEFAULT_POWER:
        params["power"] = power
    return key_for_config("dse-evaluate", config, **params)


def sweep(
    explorer: DesignSpaceExplorer,
    configs: Sequence[HeteroSVDConfig],
    keys: Optional[Sequence[str]] = None,
    batch: int = 1,
    runner: Optional[ParallelRunner] = None,
    cache=None,
    ledger=None,
    retry=None,
    deadline=None,
    on_chunk: Optional[Callable[[], None]] = None,
) -> List[DesignPoint]:
    """Score ``configs`` chunk by chunk: the one DSE evaluation loop.

    Each chunk of ``max(jobs * CHUNKS_PER_WORKER, flush interval)``
    configurations (all of them in one chunk when there is no ledger,
    retry or deadline) runs, in order: ``on_chunk`` (the shard worker's
    fault sites and heartbeats); the deadline check, flushing the
    ledger before it raises; cache hits, then ledger hits; one
    ``runner.map`` over the misses under ``retry``; recording the new
    points in the cache and the ledger, then a ledger flush.  A killed
    or expired sweep therefore loses at most the chunk in flight.

    ``keys`` (aligned with ``configs``) default to
    :func:`evaluation_key`.  ``runner`` None evaluates inline, outside
    the pool's ``exec.*`` fault sites: a shard worker has no pool, and
    its faults are the ``dse.shard_*`` sites its hook fires.  Returns
    the points aligned with ``configs``.
    """
    if runner is None:
        jobs, fan_out = 1, lambda fn, items: list(map(fn, items))
    else:
        jobs, fan_out = runner.jobs, runner.map
    if keys is None and (cache is not None or ledger is not None):
        keys = [evaluation_key(explorer, c, batch) for c in configs]
    flush_every = (
        ledger.flush_interval if ledger is not None else DEFAULT_FLUSH_INTERVAL
    )
    step = max(jobs * CHUNKS_PER_WORKER, flush_every)
    if ledger is None and retry is None and deadline is None:
        # Chunks exist for the ledger, retry and deadline; without them
        # one map over every miss keeps the pool from idling at chunk
        # boundaries.
        step = max(len(configs), 1)
    evaluate = functools.partial(explorer.evaluate_config, batch=batch)
    points: List[Optional[DesignPoint]] = [None] * len(configs)
    for start in range(0, len(configs), step):
        if on_chunk is not None:
            on_chunk()
        if deadline is not None and deadline.expired():
            if ledger is not None:
                ledger.flush()
            deadline.check(
                kind="dse-sweep", completed=start, total=len(configs),
                checkpointed=ledger is not None,
            )
        misses = []
        for index in range(start, min(start + step, len(configs))):
            point = None
            if cache is not None:
                point = cache.get(keys[index])
            if point is None and ledger is not None:
                point = ledger.get(keys[index])
            if point is None:
                misses.append(index)
            points[index] = point
        if not misses:
            continue
        fresh = call_with_retry(
            retry, fan_out, evaluate, [configs[i] for i in misses]
        )
        for index, point in zip(misses, fresh):
            points[index] = point
            if cache is not None:
                cache.put(keys[index], point)
            if ledger is not None:
                ledger.record(keys[index], point)
        if ledger is not None:
            ledger.flush()
        _metrics.counter("dse.evaluations").inc(len(misses))
    return points


@dataclass(frozen=True)
class SpaceUnit:
    """One point of the widened space — the sweep's unit of work.

    Attributes:
        p_eng: Engine parallelism (classic axis).
        p_task: Task parallelism (classic axis).
        ordering: Ring ordering, one of :data:`ORDERINGS`.
        freq_derate: Multiplier on the fitted achievable PL clock.
    """

    p_eng: int
    p_task: int
    ordering: str
    freq_derate: float

    def __post_init__(self):
        if self.ordering not in ORDERINGS:
            raise ConfigurationError(
                f"unknown ordering {self.ordering!r}; expected one of "
                f"{ORDERINGS}"
            )
        if not 0.0 < self.freq_derate <= 1.0:
            raise ConfigurationError(
                f"freq_derate must be in (0, 1], got {self.freq_derate}"
            )

    def build_config(self, explorer: DesignSpaceExplorer) -> HeteroSVDConfig:
        """The full configuration this unit denotes.

        The classic axes go through ``make_config`` (padding, fitted
        frequency); the new axes are applied on top — the derate scales
        the fitted clock, the ordering flips ``use_codesign``.
        """
        base = explorer.make_config(self.p_eng, self.p_task)
        return replace(
            base,
            pl_frequency_hz=base.pl_frequency_hz * self.freq_derate,
            use_codesign=(self.ordering == "codesign"),
        )

    def to_dict(self) -> Dict:
        return {
            "p_eng": self.p_eng,
            "p_task": self.p_task,
            "ordering": self.ordering,
            "freq_derate": self.freq_derate,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "SpaceUnit":
        return cls(
            p_eng=int(data["p_eng"]),
            p_task=int(data["p_task"]),
            ordering=str(data["ordering"]),
            freq_derate=float(data["freq_derate"]),
        )


class DesignSpace:
    """The widened candidate space of one problem size.

    Args:
        m / n: Matrix dimensions of the target workload.
        precision: Convergence threshold for converged-mode runs.
        fixed_iterations: Fix the sweep count (benchmark mode).
        batch: Batch size for the throughput figures.
        orderings: Ring orderings swept (default: both).
        freq_derates: Frequency derates swept.
        power_cap_w: Drop points above this power at ranking/frontier
            time (evaluations are still recorded — the cap is a view,
            not a feasibility constraint).
    """

    def __init__(
        self,
        m: int,
        n: int,
        precision: float = 1e-6,
        fixed_iterations: Optional[int] = None,
        batch: int = 1,
        orderings: Tuple[str, ...] = ORDERINGS,
        freq_derates: Tuple[float, ...] = DEFAULT_DERATES,
        power_cap_w: Optional[float] = None,
    ):
        if batch < 1:
            raise ConfigurationError(f"batch must be >= 1, got {batch}")
        if not orderings:
            raise ConfigurationError("need at least one ordering")
        if not freq_derates:
            raise ConfigurationError("need at least one freq derate")
        self.m = m
        self.n = n
        self.precision = precision
        self.fixed_iterations = fixed_iterations
        self.batch = batch
        self.orderings = tuple(orderings)
        self.freq_derates = tuple(float(d) for d in freq_derates)
        self.power_cap_w = power_cap_w
        # Validate the axis values eagerly (SpaceUnit re-checks too).
        for ordering in self.orderings:
            if ordering not in ORDERINGS:
                raise ConfigurationError(
                    f"unknown ordering {ordering!r}; expected one of "
                    f"{ORDERINGS}"
                )
        self._explorer: Optional[DesignSpaceExplorer] = None
        self._units: Optional[List[SpaceUnit]] = None
        self._configs: Optional[List[HeteroSVDConfig]] = None
        self._keys: Optional[List[str]] = None

    # -- structure ------------------------------------------------------------
    def explorer(self) -> DesignSpaceExplorer:
        """The underlying two-stage explorer (cached)."""
        if self._explorer is None:
            self._explorer = DesignSpaceExplorer(
                self.m,
                self.n,
                precision=self.precision,
                fixed_iterations=self.fixed_iterations,
            )
        return self._explorer

    def units(self) -> List[SpaceUnit]:
        """Every unit of the widened space, in canonical order.

        Canonical order is the classic ``candidates()`` enumeration
        (itself the serial ``explore`` order) crossed with the new axes
        innermost: for each ``(P_eng, P_task)``, each ordering, each
        derate.  Everything downstream — serial evaluation, shard
        partitioning, the merger — speaks this order.
        """
        if self._units is None:
            self._units = [
                SpaceUnit(p_eng, p_task, ordering, derate)
                for p_eng, p_task in self.explorer().candidates()
                for ordering in self.orderings
                for derate in self.freq_derates
            ]
        return list(self._units)

    def unit_configs(self) -> List[HeteroSVDConfig]:
        """Full configuration of every unit, aligned with :meth:`units`."""
        if self._configs is None:
            explorer = self.explorer()
            self._configs = [
                unit.build_config(explorer) for unit in self.units()
            ]
        return list(self._configs)

    def unit_keys(self) -> List[str]:
        """Content key of every unit, aligned with :meth:`units`.

        The key is derived from the unit's *full configuration* (which
        encodes ordering and derated frequency) plus the batch size —
        the identical key the classic checkpointed sweep derives for
        the same configuration, so ledgers stay interoperable.
        """
        if self._keys is None:
            explorer = self.explorer()
            self._keys = [
                evaluation_key(explorer, config, self.batch)
                for config in self.unit_configs()
            ]
        return list(self._keys)

    # -- evaluation -----------------------------------------------------------
    def explore_serial(self) -> List[DesignPoint]:
        """Evaluate the whole widened space serially, canonical order.

        This is the parity reference the sharded path is pinned
        against: the merger restores exactly this point order before
        taking the Pareto frontier.  The power cap (when set) filters
        the returned list, mirroring classic ``explore``.

        Raises:
            DesignSpaceError: when nothing is feasible (or survives
                the power cap).
        """
        units, explorer = self.units(), self.explorer()
        with _tracer.span("dse.space_serial", category="dse",
                          m=self.m, n=self.n, units=len(units)):
            _metrics.counter("dse.units").inc(len(units))
            points = [
                explorer.evaluate_config(unit.build_config(explorer),
                                         self.batch)
                for unit in units
            ]
        kept = self.apply_power_cap(points)
        if not kept:
            raise DesignSpaceError(
                f"no feasible design point for {self.m}x{self.n}"
                + (f" under {self.power_cap_w} W" if self.power_cap_w else "")
            )
        return kept

    def apply_power_cap(self, points: List[DesignPoint]) -> List[DesignPoint]:
        """The points surviving the cap, input order preserved."""
        if self.power_cap_w is None:
            return list(points)
        return [p for p in points if p.power.total <= self.power_cap_w]

    def ranked(
        self, points: List[DesignPoint], objective: str = "latency"
    ) -> List[DesignPoint]:
        """Objective-ranked view (best first; stable on ties)."""
        if objective not in VALID_OBJECTIVES:
            raise ConfigurationError(
                f"unknown objective {objective!r}; expected one of "
                f"{VALID_OBJECTIVES}"
            )
        return sorted(
            points, key=lambda p: p.objective_value(objective), reverse=True
        )

    # -- serialization --------------------------------------------------------
    def to_dict(self) -> Dict:
        """JSON description embedded in a shard plan file."""
        return {
            "format": SPACE_FORMAT,
            "m": self.m,
            "n": self.n,
            "precision": self.precision,
            "fixed_iterations": self.fixed_iterations,
            "batch": self.batch,
            "orderings": list(self.orderings),
            "freq_derates": list(self.freq_derates),
            "power_cap_w": self.power_cap_w,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "DesignSpace":
        if not isinstance(data, dict):
            raise ConfigurationError(
                f"design space description must be an object, got "
                f"{type(data).__name__}"
            )
        if data.get("format") != SPACE_FORMAT:
            raise ConfigurationError(
                f"unsupported design space format {data.get('format')!r} "
                f"(expected {SPACE_FORMAT})"
            )
        try:
            return cls(
                m=int(data["m"]),
                n=int(data["n"]),
                precision=float(data["precision"]),
                fixed_iterations=(
                    int(data["fixed_iterations"])
                    if data.get("fixed_iterations") is not None else None
                ),
                batch=int(data["batch"]),
                orderings=tuple(data["orderings"]),
                freq_derates=tuple(data["freq_derates"]),
                power_cap_w=(
                    float(data["power_cap_w"])
                    if data.get("power_cap_w") is not None else None
                ),
            )
        except KeyError as exc:
            raise ConfigurationError(
                f"design space description missing field {exc}"
            ) from exc

    def describe(self) -> str:
        """One-line summary for CLI confirmations."""
        return (
            f"{self.m}x{self.n} widened space: "
            f"{len(self.units())} units "
            f"({len(self.orderings)} orderings x "
            f"{len(self.freq_derates)} derates)"
        )
