"""The scheduler registry: round-trip, collisions, cross-layer reach."""

from __future__ import annotations

import pytest

from repro.sched import registry as reg_mod
from repro.sched.base import Scheduler
from repro.sched.registry import (
    SchedulerInfo,
    all_schedulers,
    alias_map,
    create,
    register_scheduler,
    resolve,
    scheduler_names,
)

EXPECTED_NAMES = ["reg", "elsc", "heap", "mq", "o1", "cfs"]


@pytest.fixture
def scratch_registry(monkeypatch):
    """Give the test copies of the registry tables, so that whatever it
    registers is gone at teardown."""
    reg_mod._ensure_loaded()
    monkeypatch.setattr(reg_mod, "_REGISTRY", dict(reg_mod._REGISTRY))
    monkeypatch.setattr(reg_mod, "_ALIASES", dict(reg_mod._ALIASES))


class TestRoundTrip:
    def test_presentation_order_is_pinned(self):
        assert scheduler_names() == EXPECTED_NAMES

    def test_every_name_resolves_to_itself(self):
        for name in scheduler_names():
            assert resolve(name) == name

    def test_every_alias_resolves_to_its_canonical_name(self):
        for alias, canonical in alias_map().items():
            assert resolve(alias) == canonical
            assert canonical in scheduler_names()

    def test_create_builds_the_policy_it_names(self):
        for name in scheduler_names():
            sched = create(name)
            assert isinstance(sched, Scheduler)
            assert sched.name == name

    def test_create_accepts_aliases(self):
        assert create("vanilla").name == "reg"
        assert create("multiqueue").name == "mq"

    def test_unknown_name_lists_the_vocabulary(self):
        with pytest.raises(KeyError, match="elsc"):
            resolve("bfs")

    def test_info_is_frozen(self):
        info = all_schedulers()["reg"]
        assert isinstance(info, SchedulerInfo)
        with pytest.raises(AttributeError):
            info.name = "other"


@pytest.mark.usefixtures("scratch_registry")
class TestCollisions:
    def test_duplicate_name_is_rejected(self):
        with pytest.raises(ValueError, match="reg"):
            @register_scheduler("reg")
            class Dup(Scheduler):  # pragma: no cover - never registered
                def schedule(self, prev, cpu):
                    raise NotImplementedError

    def test_alias_colliding_with_name_is_rejected(self):
        with pytest.raises(ValueError, match="elsc"):
            @register_scheduler("fresh-name", aliases=("elsc",))
            class Dup(Scheduler):  # pragma: no cover - never registered
                def schedule(self, prev, cpu):
                    raise NotImplementedError

    def test_alias_colliding_with_alias_is_rejected(self):
        with pytest.raises(ValueError, match="vanilla"):
            @register_scheduler("fresh-name", aliases=("vanilla",))
            class Dup(Scheduler):  # pragma: no cover - never registered
                def schedule(self, prev, cpu):
                    raise NotImplementedError

    def test_rejected_registration_leaves_no_residue(self):
        before = (dict(reg_mod._REGISTRY), dict(reg_mod._ALIASES))
        with pytest.raises(ValueError, match="vanilla"):
            @register_scheduler("fresh-name", aliases=("fresh", "vanilla"))
            class Dup(Scheduler):  # pragma: no cover - never registered
                def schedule(self, prev, cpu):
                    raise NotImplementedError

        assert (reg_mod._REGISTRY, reg_mod._ALIASES) == before
        assert "fresh-name" not in scheduler_names()

    def test_successful_registration_and_teardown(self):
        @register_scheduler("zz-test", aliases=("zz",), summary="throwaway")
        class Throwaway(Scheduler):
            name = "zz-test"

            def schedule(self, prev, cpu):  # pragma: no cover - unused
                raise NotImplementedError

        assert resolve("zz") == "zz-test"
        assert "zz-test" in scheduler_names()
        assert all_schedulers()["zz-test"].summary == "throwaway"


class TestCapabilityFlags:
    def test_global_lock_designs(self):
        infos = all_schedulers()
        for name in ("reg", "elsc", "heap"):
            assert infos[name].factory.uses_global_lock, name
        for name in ("mq", "o1", "cfs"):
            assert not infos[name].factory.uses_global_lock, name


class TestCrossLayerReach:
    """Every layer that names schedulers draws from this one registry."""

    def test_cli_vocab_covers_registry(self):
        from repro.cli_common import resolve_scheduler_arg, scheduler_vocab

        vocab = scheduler_vocab()
        for name in scheduler_names():
            assert name in vocab
            assert resolve_scheduler_arg(name) == name
        for alias, canonical in alias_map().items():
            assert alias in vocab
            assert resolve_scheduler_arg(alias) == canonical

    def test_harness_dict_mirrors_registry(self):
        from repro.harness.registry import SCHEDULER_ALIASES, SCHEDULERS

        assert sorted(SCHEDULERS) == sorted(scheduler_names())
        assert SCHEDULER_ALIASES == alias_map()

    def test_scenario_catalogue_covers_registry(self):
        from repro.scenario.registry import scenario_names

        names = scenario_names()
        for sched in scheduler_names():
            assert any(sched in n for n in names), sched

    def test_cluster_config_canonicalises_aliases(self):
        from repro.cluster.config import ClusterConfig

        config = ClusterConfig(scheduler="multiqueue")
        assert config.scheduler == "mq"
        with pytest.raises(ValueError, match="unknown scheduler"):
            ClusterConfig(scheduler="bfs")

    def test_executor_from_name_accepts_aliases(self):
        from repro.serve import SchedulerExecutor

        executor = SchedulerExecutor.from_name("vanilla")
        assert executor.scheduler.name == "reg"
