"""Record ``reference.json``: the result digest of every scenario the
benchmark's input sets run, at the current commit.

    PYTHONPATH=src python3 perfbench/record_reference.py

Run it only when a change is meant to alter simulation results; the
benchmark counts every scenario whose digest differs from this file as
failed.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

for key in [k for k in os.environ if k.startswith("REPRO_")]:
    del os.environ[key]

import workloads  # noqa: E402


def main() -> int:
    reference: dict[str, dict[str, str]] = {}

    # paper_grid: input set s runs scenario seeds s .. s+GRID_SEEDS-1.
    config = workloads.make_inputs("paper_grid", 1)
    config = config.with_(runs=workloads.POOLS["paper_grid"] + workloads.GRID_SEEDS - 1)
    outcomes = workloads.run("paper_grid", config)
    reference["paper_grid"] = _digests(outcomes)

    # manet_churn: input set s runs churn seeds s .. s+CHURN_SEEDS-1.
    churn_config, _ = workloads.make_inputs("manet_churn", 1)
    seeds = tuple(range(1, workloads.POOLS["manet_churn"] + workloads.CHURN_SEEDS))
    reference["manet_churn"] = _digests(
        workloads.run("manet_churn", (churn_config, seeds))
    )

    reference["shard_2k"] = {}
    for seed in range(1, workloads.POOLS["shard_2k"] + 1):
        spec = workloads.make_inputs("shard_2k", seed)
        reference["shard_2k"].update(_digests(workloads.run("shard_2k", spec)))

    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print({name: len(digests) for name, digests in reference.items()})
    return 0


def _digests(outcomes) -> dict[str, str]:
    out = {}
    for sid, outcome in outcomes:
        if isinstance(outcome, str):
            raise SystemExit(f"{sid} raised: {outcome}")
        out[sid] = workloads.digest(outcome)
    return out


if __name__ == "__main__":
    sys.exit(main())
