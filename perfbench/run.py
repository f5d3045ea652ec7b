"""The repository benchmark: one command, every metric by name and unit.

    python3 perfbench/run.py --workload paper_grid --seed 1 --seconds 40 --trace 0

Each pass of the workload runs in a fresh interpreter (``worker.py``) with
a hermetic environment: ``PYTHONPATH`` is the checkout's ``src/`` and every
``REPRO_*`` variable (the event-queue override and the ``REPRO_TEST_*``
fault hooks) is removed.  Passes repeat, pass ``k`` on the inputs of seed
``--seed + k``, while another pass fits in ``--seconds``; seeds wrap onto
the workload's pool of input sets (``workloads.POOLS``).

``--trace 0`` reports the end-to-end metrics, each the median over the
passes (``wall_s`` and ``cpu_s``: over input sets): ``wall_s`` and
``cpu_s`` of the timed call, ``setup_s`` (spawn to first timed call) and
``peak_rss_mb``.  The three times are given at the
reference host speed: each is multiplied by the host speed its worker
measured over the same stretch, set-up or timed call (``hostspeed.py``).
The raw times and speeds of every pass are printed above the result.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones, ``obs.trace_overhead`` (raw traced
over raw untraced wall time; traced passes are not probed) and
``repo.src_lines``.

Every scenario's result digest must equal its entry in ``reference.json``,
traced or not; a scenario that raised or differs counts as failed, and so
does a traced pass whose digests differ from its untraced twin.  The last line of output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the exit code is 0 only
when every output is correct.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from tracer import LAYER_UNITS  # noqa: E402

#: End-to-end metrics and their units.
END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
#: Per-layer metrics ``run.py`` adds to the tracer's.
RUN_LAYER_UNITS = {"obs.trace_overhead": "ratio", "repo.src_lines": "lines"}
#: Untraced passes (input sets) per untraced run, at least.
MIN_PASSES = 2
#: A run ends well inside the 180 s a benchmark run may take.
RUN_BUDGET_S = 165.0


class PassFailed(RuntimeError):
    """A worker exited non-zero, timed out or printed no record."""


def hermetic_env() -> dict[str, str]:
    """The worker environment: this checkout's ``src`` and no ``REPRO_*``."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def run_worker(args: list[str], env: dict[str, str], timeout: float) -> tuple[float, dict]:
    """Start ``worker.py`` with ``args``; return (spawn instant, its record)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args]
    spawned = time.monotonic()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, start_new_session=True
    )
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise PassFailed(f"worker {' '.join(args)} exceeded {timeout:.0f}s") from None
    finally:
        # The worker's own children (shard processes) share its group.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = out.decode("utf-8", "replace").strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassFailed(f"worker {' '.join(args)} exited with {proc.returncode}")
    try:
        return spawned, json.loads(lines[-1])
    except json.JSONDecodeError:
        raise PassFailed(f"worker {' '.join(args)} printed no record") from None


def load_reference(workload: str) -> dict[str, str]:
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)[workload]


def check_outputs(passes: list[dict], reference: dict[str, str]) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over every scenario of every pass.

    A scenario fails when it raised, has no reference digest, or differs
    from the reference.
    """
    attempted = failed = 0
    problems: list[str] = []
    for record in passes:
        for sid, dig in record["digests"].items():
            attempted += 1
            if dig is None:
                problem = f"raised: {record['errors'].get(sid)}"
            elif sid not in reference:
                problem = "no reference digest"
            elif dig != reference[sid]:
                problem = f"digest {dig} != reference {reference[sid]}"
            else:
                continue
            failed += 1
            problems.append(f"seed {record['seed']} {sid}: {problem}")
    return attempted, failed, problems


def src_lines() -> int:
    total = 0
    for dirpath, _dirs, files in os.walk(os.path.join(ROOT, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    total += sum(1 for _ in fh)
    return total


def measure(workload: str, seed: int, seconds: float, trace: bool):
    """Run passes; return (untraced records, traced records, set-up samples).

    Pass ``k`` runs the inputs of seed ``seed + k``, so a run's medians
    cover several input sets.  In a traced run every untraced pass is
    followed by a traced pass on the same inputs.
    """
    env = hermetic_env()
    started = time.monotonic()
    setup: list[float] = []
    plain: list[dict] = []
    traced: list[dict] = []

    def left() -> float:
        return RUN_BUDGET_S - (time.monotonic() - started)

    def one_pass(pass_seed: int, tracing: bool) -> dict:
        args = ["--workload", workload, "--seed", str(pass_seed)]
        if tracing:
            out = os.path.join(ROOT, ".perfbench", f"trace-{workload}-seed{pass_seed}.json")
            args += ["--trace", "1", "--trace-out", out]
        spawned, record = run_worker(args, env, left())
        record["setup_s"] = record["ready"] - spawned - record["setup_probe_s"]
        if record["setup_speed"] is not None:
            setup.append(record["setup_s"] * record["setup_speed"])
        record["seed"] = pass_seed
        record["set"] = workloads.pool_seed(workload, pass_seed)
        return record

    durations: list[float] = []
    while True:
        pass_started = time.monotonic()
        plain.append(one_pass(seed + len(plain), False))
        if trace:
            traced.append(one_pass(plain[-1]["seed"], True))
        durations.append(time.monotonic() - pass_started)
        elapsed = time.monotonic() - started
        enough = len(plain) >= (1 if trace else MIN_PASSES)
        # Start no pass that would end after --seconds or near the budget.
        if enough and elapsed + statistics.median(durations) > seconds:
            break
        if left() < 1.5 * max(durations):
            break
    return plain, traced, setup


def median_of(records: list[dict], key: str) -> float:
    return statistics.median(record[key] for record in records)


def scaled_median(records: list[dict], key: str) -> float:
    """Median over input sets of ``key`` at the reference host speed.

    A set that a run came back to counts once, with the median of its
    passes, so every set of the pool weighs the same.
    """
    by_set: dict[int, list[float]] = {}
    for record in records:
        by_set.setdefault(record["set"], []).append(record[key] * record["speed"])
    return statistics.median(statistics.median(values) for values in by_set.values())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"no program to measure: {os.path.join(ROOT, 'src', 'repro')} is missing",
              file=sys.stderr)
        return 2
    try:
        plain, traced, setup = measure(
            args.workload, args.seed, args.seconds, bool(args.trace)
        )
    except PassFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    attempted, failed, problems = check_outputs(plain + traced, load_reference(args.workload))
    for untraced, record in zip(plain, traced):
        if record["digests"] != untraced["digests"]:
            failed += 1
            problems.append(f"seed {record['seed']}: traced digests differ from untraced")
    for problem in problems:
        print(f"FAILED {problem}")

    if args.trace:
        units = {**LAYER_UNITS, **RUN_LAYER_UNITS}
        values = {
            name: statistics.median(record["layers"][name] for record in traced)
            for name in LAYER_UNITS
        }
        values["obs.trace_overhead"] = median_of(traced, "wall_s") / median_of(plain, "wall_s")
        values["repo.src_lines"] = src_lines()
    else:
        units = END_TO_END
        values = {
            "wall_s": scaled_median(plain, "wall_s"),
            "cpu_s": scaled_median(plain, "cpu_s"),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": median_of(plain, "peak_rss_mb"),
        }

    print(
        f"workload={args.workload} seed={args.seed} "
        f"trace={args.trace} "
        f"passes={len(plain)} untraced + {len(traced)} traced "
        f"(seeds {args.seed}..{args.seed + len(plain) - 1}), "
        f"setup samples={len(setup)}"
    )
    for record in plain + traced:
        print(f"  pass seed={record['seed']} set={record['set']} trace={int('layers' in record)} "
              f"raw wall_s={record['wall_s']:.4f} cpu_s={record['cpu_s']:.4f} "
              f"setup_s={record['setup_s']:.4f} speed={record['speed'] or 0:.4f} "
              f"({record['probes']} probes) setup speed={record['setup_speed'] or 0:.4f} "
              f"scenarios={len(record['digests'])}")
    for name, value in values.items():
        print(f"  {name:32s} {value:14.6g} {units[name]}")
    print(f"  {'failed_share':32s} {failed / attempted:14.6g} fraction "
          f"({failed} of {attempted} scenarios)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in values.items()
        },
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
