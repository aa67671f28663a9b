"""Design-space sweeps: the one sweep loop, the widened space, shards.

* :mod:`repro.dse.space` — :func:`~repro.dse.space.sweep`, the single
  chunked loop that scores design points for
  ``DesignSpaceExplorer.explore`` and every shard worker, its content
  key :func:`~repro.dse.space.evaluation_key`, and
  :class:`DesignSpace` / :class:`SpaceUnit`: the classic feasible
  ``(P_eng, P_task)`` enumeration crossed with ring ordering and
  frequency derating, in one canonical unit order;
* :mod:`repro.dse.sharded` — :class:`ShardPlan` partitioning, the
  shard worker (own :class:`~repro.resilience.SweepCheckpoint` ledger
  + heartbeat lease, driven from the loop's per-chunk hook), lease-based
  work stealing, and the multi-process coordinator :func:`run_sharded`.

The merged global Pareto frontier lives in
:func:`repro.analysis.pareto.merge_shards`; it is pinned byte-identical
to a serial sweep of the same space (see ``tests/analysis``).
"""

from repro.dse.space import DesignSpace, SpaceUnit
from repro.dse.sharded import ShardPlan, run_shard, run_sharded

__all__ = [
    "DesignSpace",
    "ShardPlan",
    "SpaceUnit",
    "run_shard",
    "run_sharded",
]
