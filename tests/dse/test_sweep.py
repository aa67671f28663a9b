"""Tests for the one DSE sweep loop behind ``explore`` and the shards."""

import pytest

from repro import obs
from repro.analysis.pareto import merge_shards, pareto_front
from repro.core.dse import DesignSpaceExplorer
from repro.core.power import PowerModel
from repro.dse import DesignSpace, ShardPlan, run_shard
from repro.dse.sharded import recover_missing_units
from repro.dse.space import evaluation_key
from repro.exec.cache import EvalCache, key_for_config
from repro.resilience import FaultPlan, FaultSpec, SweepCheckpoint


@pytest.fixture(scope="module", params=[64, 256])
def classic(request):
    """(size, the classic space's serial reference points)."""
    size = request.param
    space = DesignSpace(size, size, orderings=("codesign",),
                        freq_derates=(1.0,))
    return size, space, space.explore_serial()


class TestExploreParity:
    """``explore`` through the sweep loop equals the independent serial
    reference for every job count and store combination."""

    @pytest.mark.parametrize("objective", ["latency", "throughput"])
    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("stores", ["none", "cache", "checkpoint",
                                        "cache+checkpoint"])
    def test_matches_explore_serial(self, classic, objective, jobs, stores,
                                    tmp_path):
        size, space, reference = classic
        cache = EvalCache() if "cache" in stores else None
        checkpoint = (
            SweepCheckpoint(tmp_path / "dse.json", kind="dse-sweep")
            if "checkpoint" in stores else None
        )
        points = DesignSpaceExplorer(size, size).explore(
            objective, jobs=jobs, cache=cache, checkpoint=checkpoint,
        )
        assert points == space.ranked(reference, objective)


class TestEvaluationKey:
    def test_default_model_key_is_the_classic_key(self):
        explorer = DesignSpaceExplorer(64, 64, power_model=PowerModel())
        config = explorer.make_config(4, 1)
        assert evaluation_key(explorer, config, 1) == key_for_config(
            "dse-evaluate", config, batch=1
        )

    def test_power_model_changes_the_key(self):
        config = DesignSpaceExplorer(64, 64).make_config(4, 1)
        default = evaluation_key(DesignSpaceExplorer(64, 64), config, 1)
        custom = evaluation_key(
            DesignSpaceExplorer(64, 64, power_model=PowerModel(static_w=100)),
            config, 1,
        )
        assert custom != default


class TestShardWorkerLoop:
    """Shard workers sweep inline: the pool's ``exec.*`` fault sites
    never fire there (their faults are the ``dse.shard_*`` sites), and
    a resumed shard reads its recorded units back through the ledger."""

    @pytest.fixture(scope="class")
    def space(self):
        return DesignSpace(32, 32, orderings=("codesign",),
                           freq_derates=(1.0,))

    def test_exec_sites_never_fire_in_a_shard(self, space, tmp_path):
        plan = FaultPlan(faults=[
            FaultSpec(site="exec.worker_crash", at=(0,)),
            FaultSpec(site="exec.worker_stall", at=(0,), param=0.01),
        ])
        with plan.activate():
            run_shard(tmp_path, 0, space=space, shards=2, lease_ttl=0.5,
                      steal=True)
            ShardPlan.partition(space, 3).save(tmp_path / "recover")
            recover_missing_units(tmp_path / "recover")
        assert plan.injected == 0
        for workdir in (tmp_path, tmp_path / "recover"):
            merge = merge_shards(workdir)
            assert merge.complete
            assert merge.frontier == pareto_front(space.explore_serial())

    def test_resumed_shard_counts_its_recorded_units(self, space, tmp_path):
        run_shard(tmp_path, 0, space=space, shards=1)
        obs.enable()
        obs.reset()
        try:
            stats = run_shard(tmp_path, 0)
        finally:
            obs.disable()
        counters = obs.get_metrics().snapshot()["counters"]
        assert stats["evaluated"] == 0
        assert counters["checkpoint.resumed"] == stats["skipped"] \
            == len(space.units())
