"""The benchmark end to end: digests, metric names, hermetic runs."""

import json
import os
import shutil
import subprocess
import sys

import run
import tracer
import workloads

ROOT = run.ROOT
RUN = [sys.executable, os.path.join(run.HERE, "run.py")]


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_listed_metrics_are_the_ones_the_code_reports():
    spec = _benchmark_json()
    listed_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    listed_layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert listed_e2e == run.END_TO_END
    assert listed_layers == {**tracer.LAYER_UNITS, **run.RUN_LAYER_UNITS}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)


def test_every_listed_metric_is_emitted_and_every_emitted_one_listed():
    spec = _benchmark_json()
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [*RUN, "--workload", "shard_2k", "--seed", "3", "--seconds", "1",
             "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=170,
        )
        assert proc.returncode == 0, proc.stderr
        result = _last_json(proc.stdout)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        emitted = {name: m["unit"] for name, m in result["metrics"].items()}
        assert emitted == {m["name"]: m["unit"] for m in spec[key]}


def test_same_seed_twice_gives_the_same_digests():
    env = run.hermetic_env()
    args = ["--workload", "shard_2k", "--seed", "5", "--trace", "0"]
    _, first = run.run_worker(args, env, timeout=120)
    _, second = run.run_worker(args, env, timeout=120)
    assert first["digests"] == second["digests"]
    reference = run.load_reference("shard_2k")
    assert all(reference[sid] == dig for sid, dig in first["digests"].items())


def test_check_outputs_counts_raised_and_mismatched_scenarios():
    reference = {"a": "1", "b": "2"}
    good = {"seed": 1, "digests": {"a": "1", "b": "2"}, "errors": {}}
    bad = {"seed": 2, "digests": {"a": "1", "b": None}, "errors": {"b": "ValueError: x"}}
    wrong = {"seed": 3, "digests": {"a": "9", "c": "2"}, "errors": {}}
    assert run.check_outputs([good, good], reference)[:2] == (4, 0)
    assert run.check_outputs([good, bad], reference)[:2] == (4, 1)
    attempted, failed, problems = run.check_outputs([wrong, good], reference)
    assert (attempted, failed) == (4, 2)
    assert any("no reference digest" in p for p in problems)


def test_worker_environment_drops_repro_overrides(monkeypatch):
    monkeypatch.setenv("REPRO_EVENT_QUEUE", "calendar")
    monkeypatch.setenv("REPRO_TEST_SLEEP_SECONDS", "5")
    env = run.hermetic_env()
    assert not [k for k in env if k.startswith("REPRO_")]
    assert env["PYTHONPATH"] == os.path.join(ROOT, "src")


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        run.HERE, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__", "tests"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper_grid",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
