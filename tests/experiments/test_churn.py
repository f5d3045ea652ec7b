"""Tests for mobility-churn scenarios (`repro.experiments.churn`)."""

from __future__ import annotations

import random

import pytest

from repro.experiments.churn import make_mobility_model, run_churn_scenario
from repro.experiments.config import ChurnConfig, ExperimentConfig
from repro.experiments.persistence import scenario_to_dict
from repro.mobility import GaussMarkov, ManhattanGrid, RandomWaypoint
from repro.validation.monitors import MonitorSuite


def churn_config(**kwargs):
    churn_kwargs = dict(model="waypoint", n_nodes=10, radio_range=450.0)
    churn_kwargs.update(kwargs)
    return ExperimentConfig.quick().with_(
        post_fail_window=20.0, churn=ChurnConfig(**churn_kwargs)
    )


class TestModelFactory:
    def test_dispatch(self):
        rng = random.Random(0)
        waypoint = make_mobility_model(ChurnConfig(model="waypoint"), rng)
        gm = make_mobility_model(ChurnConfig(model="gauss-markov"), rng)
        manhattan = make_mobility_model(ChurnConfig(model="manhattan"), rng)
        assert isinstance(waypoint, RandomWaypoint)
        assert isinstance(gm, GaussMarkov)
        assert isinstance(manhattan, ManhattanGrid)

    def test_unknown_model_rejected(self):
        config = ChurnConfig()
        object.__setattr__(config, "model", "teleport")
        with pytest.raises(ValueError, match="teleport"):
            make_mobility_model(config, random.Random(0))


class TestRunChurnScenario:
    def test_requires_churn_config(self):
        with pytest.raises(ValueError, match="churn"):
            run_churn_scenario("dbf", 7, ExperimentConfig.quick())

    def test_rejects_cold_start(self):
        with pytest.raises(ValueError, match="cold_start"):
            run_churn_scenario("dbf", 7, churn_config().with_(cold_start=True))

    def test_rejects_shards(self):
        with pytest.raises(ValueError, match="shards=2"):
            run_churn_scenario("dbf", 7, churn_config().with_(shards=2))

    def test_produces_events_and_delivers(self):
        result = run_churn_scenario("dbf", 7, churn_config())
        assert result.degree == 0
        assert result.events, "mobility produced no link events"
        assert result.sent > 0
        assert result.delivered > 0
        assert len(result.initial_path) >= 2

    def test_same_seed_is_byte_identical(self):
        a = run_churn_scenario("dbf", 7, churn_config())
        b = run_churn_scenario("dbf", 7, churn_config())
        assert a.events == b.events
        assert (a.sender, a.receiver) == (b.sender, b.receiver)
        assert scenario_to_dict(a) == scenario_to_dict(b)

    def test_different_seeds_diverge(self):
        a = run_churn_scenario("dbf", 7, churn_config())
        b = run_churn_scenario("dbf", 8, churn_config())
        assert a.events != b.events or a.initial_path != b.initial_path

    def test_monitors_stay_green(self):
        suite = MonitorSuite()
        result = run_churn_scenario("dbf", 7, churn_config(), monitors=suite)
        assert result.violations == ()

    @pytest.mark.parametrize("model", ("gauss-markov", "manhattan"))
    def test_other_models_run(self, model):
        result = run_churn_scenario("spf", 3, churn_config(model=model))
        assert result.sent > 0

    def test_event_outcomes_are_attributed(self):
        result = run_churn_scenario("spf", 7, churn_config())
        for event in result.events:
            assert event.kind in ("fail", "restore")
            assert event.detect_time >= event.time
            if event.wave_start is not None:
                assert event.wave_end >= event.wave_start


class TestChurnConfigPersistence:
    def test_round_trips_through_dict(self):
        config = churn_config(model="manhattan", n_nodes=12)
        data = config.to_dict()
        assert data["churn"]["model"] == "manhattan"
        restored = ExperimentConfig.from_dict(data)
        assert restored == config
        assert restored.churn == config.churn

    def test_absent_churn_round_trips_as_none(self):
        config = ExperimentConfig.quick()
        restored = ExperimentConfig.from_dict(config.to_dict())
        assert restored.churn is None
