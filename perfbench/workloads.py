"""The benchmark's workloads: inputs made from a seed, and the timed call.

Each workload is what people run the simulator for (see ``README.md`` in
this directory for why each was chosen):

* ``paper_grid``  -- the paper's experiment, ``run_sweep`` over
  rip/dbf/bgp/bgp3 x degree 3-8 at one seed;
* ``manet_churn`` -- mobility churn for olsr/aodv/dsr/dbf at one seed;
* ``shard_2k``    -- a 2000-node scale-free bgp3 run on 2 process shards.

Each workload has a pool of ``POOLS[workload]`` input sets, sized so that
one 40-second run normally covers all of them; the benchmark's ``--seed``
picks the set a run starts from (:func:`pool_seed`).  ``reference.json``
holds the result digest of every scenario the pools run, so every run's
output is checked.

This module imports ``repro`` lazily: ``run.py`` loads only the names and
never the program under test.
"""

from __future__ import annotations

import hashlib
import json

#: Input sets per workload; ``--seed`` values wrap onto them.  Input sets
#: differ in cost by up to 2x (``manet_churn``), so a run that covered only
#: some of them would measure which ones it drew.  These sizes let a run
#: at ``--seconds 40`` cover its whole pool, or all but one set: it makes
#: 4-5 passes of ``paper_grid``, 7-9 of ``shard_2k`` and 10-13 of
#: ``manet_churn`` on the 2-core container the baselines come from.
POOLS = {"paper_grid": 4, "manet_churn": 10, "shard_2k": 8}

#: Workload names, in the order ``BENCHMARK.json`` lists them.
NAMES = ("paper_grid", "manet_churn", "shard_2k")

#: Protocols whose per-layer routing metrics the traced run reports.
PROTOCOLS = ("rip", "dbf", "bgp", "bgp3", "olsr", "aodv", "dsr")

GRID_SEEDS = 1
CHURN_PROTOCOLS = ("olsr", "aodv", "dsr", "dbf")
#: One churn seed per input set: sets share no seed, so the many short
#: passes of a run are independent samples of the pool.
CHURN_SEEDS = 1
SHARD_NODES = 2000
SHARD_COUNT = 2


def pool_seed(workload: str, seed: int) -> int:
    """The input set (1..POOLS[workload]) that benchmark seed ``seed`` selects."""
    return (seed - 1) % POOLS[workload] + 1


def digest(result) -> str:
    """Digest of one scenario's canonical ``scenario_to_dict`` form."""
    from repro.experiments.persistence import scenario_to_dict

    payload = json.dumps(
        scenario_to_dict(result), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:24]


def make_inputs(workload: str, seed: int):
    """Generate the inputs of ``workload`` for benchmark seed ``seed``."""
    base = pool_seed(workload, seed)
    if workload == "paper_grid":
        from repro.experiments.config import ExperimentConfig

        return ExperimentConfig.paper().with_(runs=GRID_SEEDS, seed=base)
    if workload == "manet_churn":
        from repro.experiments.config import ChurnConfig, ExperimentConfig
        from repro.validation.monitors import settle_margin_for

        # Movement stops one settle margin before the end, so every
        # protocol's run ends quiesced (the churn oracle's timeline).
        settle = max(settle_margin_for(p) for p in CHURN_PROTOCOLS)
        config = ExperimentConfig.quick().with_(
            churn=ChurnConfig(model="waypoint", settle_time=settle)
        )
        return config, tuple(range(base, base + CHURN_SEEDS))
    if workload == "shard_2k":
        return _shard_spec(base)
    raise ValueError(f"unknown workload {workload!r} (expected one of {NAMES})")


def _shard_spec(seed: int):
    """The tests/dist scale scenario at 2000 nodes and 2 shards."""
    from repro.dist.runner import ShardScenarioSpec
    from repro.experiments.config import ExperimentConfig
    from repro.net.dynamics import SingleLinkFailureDriver
    from repro.topology import generators

    topo = generators.scale_free(SHARD_NODES, m=2, seed=seed)
    config = ExperimentConfig.quick().with_(
        runs=1, post_fail_window=5.0, shards=SHARD_COUNT, partition="mincut"
    )
    # The two highest-id nodes are late joiners: leaves hanging off
    # different parts of the graph, so the flow crosses it.
    sender, receiver = SHARD_NODES - 1, SHARD_NODES - 2
    pre_path = topo.shortest_path(sender, receiver)
    failed = (min(pre_path[1], pre_path[2]), max(pre_path[1], pre_path[2]))
    expected = topo.shortest_path(sender, receiver, exclude_link=failed)
    driver = SingleLinkFailureDriver(failed, config.fail_time)
    return ShardScenarioSpec(
        protocol="bgp3",
        degree=2,
        seed=seed,
        config=config,
        topology=topo,
        sender=sender,
        receiver=receiver,
        pre_path=tuple(pre_path),
        expected_final=tuple(expected) if expected else None,
        events=tuple(driver.generate(config.end_time)),
        warm_dests=(sender, receiver),
    )


def run(workload: str, inputs, registries=None) -> list[tuple[str, object]]:
    """The timed call: run ``inputs``, return ``(scenario id, outcome)`` pairs.

    An outcome is a ``ScenarioResult``, or the error text of a scenario that
    raised.  ``registries`` (``shard_2k`` only) is handed to
    ``run_sharded(registries=)`` to collect the per-shard counters.
    """
    if workload == "paper_grid":
        from repro.experiments import runner

        points = runner.run_sweep(inputs, workers=1)
        out: list[tuple[str, object]] = []
        for point in points.values():
            for result in point.runs:
                out.append((f"{result.protocol}/d{result.degree}/s{result.seed}", result))
            for failure in point.failures:
                out.append(
                    (f"{failure.protocol}/d{failure.degree}/s{failure.seed}", failure.error)
                )
        return out
    if workload == "manet_churn":
        from repro.experiments import churn

        config, seeds = inputs
        out = []
        for protocol in CHURN_PROTOCOLS:
            for seed in seeds:
                out.append(
                    (f"{protocol}/s{seed}", _guarded(churn.run_churn_scenario, protocol, seed, config))
                )
        return out
    if workload == "shard_2k":
        from repro.dist import runner as dist_runner

        outcome = _guarded(
            dist_runner.run_sharded, inputs, exchange="process", registries=registries
        )
        return [(f"bgp3/n{SHARD_NODES}/s{inputs.seed}", outcome)]
    raise ValueError(f"unknown workload {workload!r} (expected one of {NAMES})")


def _guarded(fn, *args, **kwargs):
    """Call ``fn``; a raised exception becomes its one-line error text."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - a failed scenario is counted, not fatal
        return f"{type(exc).__name__}: {exc}"
