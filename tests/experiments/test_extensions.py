"""Tests for the future-work extension experiments (paper §6)."""

from __future__ import annotations

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.extensions import (
    run_multiflow_scenario,
    run_random_topology_scenario,
    run_transport_scenario,
    transport_with_baseline,
)

TINY = ExperimentConfig.quick().with_(
    rows=5, cols=5, degrees=(4,), runs=1, post_fail_window=40.0
)


class TestMultiFlow:
    def test_runs_all_flows(self):
        r = run_multiflow_scenario("dbf", 4, 1, TINY, n_flows=3, n_failures=2)
        assert len(r.flows) == 3
        assert all(f.sent > 0 for f in r.flows)
        assert r.total_delivered <= r.total_sent

    def test_failures_are_distinct_links(self):
        r = run_multiflow_scenario("dbf", 4, 2, TINY, n_flows=3, n_failures=3)
        keys = {(min(a, b), max(a, b)) for a, b in r.failed_links}
        assert len(keys) == len(r.failed_links)

    def test_overlapping_failures_hurt_rip_more_than_dbf(self):
        rip = run_multiflow_scenario("rip", 4, 1, TINY, n_flows=3, n_failures=2)
        dbf = run_multiflow_scenario("dbf", 4, 1, TINY, n_flows=3, n_failures=2)
        assert dbf.delivery_ratio >= rip.delivery_ratio

    def test_deterministic(self):
        a = run_multiflow_scenario("dbf", 4, 5, TINY)
        b = run_multiflow_scenario("dbf", 4, 5, TINY)
        assert a.total_delivered == b.total_delivered
        assert a.failed_links == b.failed_links

    def test_validation(self):
        with pytest.raises(ValueError):
            run_multiflow_scenario("dbf", 4, 1, TINY, n_flows=0)
        with pytest.raises(ValueError):
            run_multiflow_scenario("dbf", 4, 1, TINY, n_flows=2, n_failures=3)


class TestTransportScenario:
    def test_transfer_completes_despite_failure(self):
        r = run_transport_scenario("dbf", 4, 1, TINY, total_segments=400)
        assert r.stats.completed

    def test_baseline_completes_faster_or_equal(self):
        r = transport_with_baseline("rip", 4, 1, TINY, total_segments=2000)
        assert r.stats.completed
        assert r.baseline_completion is not None
        assert r.stall_penalty is not None
        assert r.stall_penalty >= 0.0

    def test_rip_stalls_longer_than_dbf(self):
        """End-to-end translation of the paper's IP-layer result: RIP's long
        switch-over gap becomes a long transport stall."""
        rip = transport_with_baseline("rip", 4, 1, TINY, total_segments=3000)
        dbf = transport_with_baseline("dbf", 4, 1, TINY, total_segments=3000)
        assert rip.stats.completed and dbf.stats.completed
        assert rip.stall_penalty >= dbf.stall_penalty


class TestRandomTopology:
    def test_runs_and_accounts(self):
        r = run_random_topology_scenario("dbf", 4, 1, TINY, n_nodes=20)
        assert r.sent > 0
        assert r.delivered + r.total_drops <= r.sent

    def test_degree_effect_holds_off_lattice(self):
        """More connectivity still means fewer drops on random graphs — for
        the alternate-path protocol, whose recovery depends on a valid cached
        alternate existing (RIP's recovery is periodic-timer-bound, so its
        drops are degree-insensitive on any topology)."""
        cfg = TINY.with_(runs=1)
        sparse = sum(
            run_random_topology_scenario("dbf", 3, s, cfg, n_nodes=20).drops_no_route
            for s in range(1, 6)
        )
        dense = sum(
            run_random_topology_scenario("dbf", 6, s, cfg, n_nodes=20).drops_no_route
            for s in range(1, 6)
        )
        assert dense <= sparse

    #: Pinned before random-topology runs went through the shared run_plan;
    #: only the fields that existed then (series summarized).
    GOLDEN = {
        "dbf": dict(routing_convergence=0.005047999999998609,
                    destination_convergence=0.0022159999999988855,
                    messages=164),
        "bgp3": dict(routing_convergence=6.093241821981554,
                     destination_convergence=0.0035279999999993095,
                     messages=136),
    }

    @pytest.mark.parametrize("protocol", sorted(GOLDEN))
    def test_golden_values(self, protocol):
        r = run_random_topology_scenario(protocol, 4, 1, TINY, n_nodes=20)
        assert (r.sender, r.receiver) == (20, 21)
        assert r.initial_path == (20, 6, 10, 21)
        assert r.expected_final_path == (20, 6, 7, 10, 21)
        assert (r.sent, r.delivered) == (901, 899)
        assert (r.drops_no_route, r.drops_ttl, r.drops_link_down, r.drops_queue) == (
            0, 0, 1, 0,
        )
        assert r.forwarding_convergence == 0.0
        assert r.converged_to_expected
        assert r.transient_path_count == 1
        assert r.withdrawals == 0
        for name, value in self.GOLDEN[protocol].items():
            assert getattr(r, name) == value, name
        [event] = r.events
        assert (event.kind, event.link, event.time, event.detect_time) == (
            "fail", (6, 10), 10.0, 10.05,
        )
        assert (r.throughput.times[0], len(r.throughput)) == (-5.0, 45)
        assert sum(r.throughput.values) == 899.0
        assert r.throughput.values[8:14] == (20.0,) * 6
        assert (r.delay.times[0], len(r.delay)) == (-5.0, 45)
        assert sum(r.delay.values) == 0.2645999999999784

    @pytest.mark.parametrize("protocol", sorted(GOLDEN))
    def test_full_result_shape(self, protocol):
        r = run_random_topology_scenario(protocol, 4, 1, TINY, n_nodes=20)
        [event] = r.events
        assert event.wave_start is not None and event.wave_end is not None
        assert event.wave_start >= event.detect_time
        assert r.reordering is not None
        assert r.reordering.delivered == r.delivered
        assert r.manet is not None
        assert r.manet.sent == r.sent and r.manet.control_packets > 0
