"""One pass of one workload, in a fresh interpreter started by ``run.py``.

Imports ``repro`` from the checkout's ``src/``, generates the workload's
inputs from the seed, runs the timed call once and prints one JSON object
as its last line of output: the monotonic instant of the first timed call
(``run.py`` subtracts its own spawn instant to get set-up time), wall and
CPU time of the timed call, the host speed measured during set-up and
during the timed call (``hostspeed.py``), peak RSS, and a digest per
scenario.  The probes' own time is taken out of the wall and CPU times,
and reported for set-up, which ``run.py`` takes it out of.  Traced passes run without probes, which would
otherwise land inside the traced spans; their record has no speeds.  With
``--trace 1`` the tracer is installed first and the record carries the
per-layer metrics; ``--trace-out`` writes the retained spans there.

    python3 perfbench/worker.py --workload shard_2k --seed 1 --trace 0
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

import hostspeed
import workloads


def _cpu_s() -> float:
    """CPU seconds of this process plus its reaped children (shard workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", help="write retained spans (JSON) here")
    args = parser.parse_args(argv)

    # Probes would land inside the traced spans, so traced passes run without.
    sampler = hostspeed.Sampler() if not args.trace else None
    if sampler is not None:
        sampler.start()

    import repro

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        print(f"repro imported from {repro.__file__}, not from {src}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)
    inputs = workloads.make_inputs(args.workload, args.seed)
    registries = {} if tracer is not None else None

    ready = time.monotonic()
    setup = sampler.lap() if sampler is not None else None
    cpu0 = _cpu_s()
    wall0 = time.perf_counter()
    outcomes = workloads.run(args.workload, inputs, registries=registries)
    wall = time.perf_counter() - wall0
    cpu = _cpu_s() - cpu0
    timed = None
    if sampler is not None:
        sampler.stop()
        timed = sampler.lap()
        wall -= timed.wall_spent
        cpu -= timed.cpu_spent

    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    record = {
        "ready": ready,
        "wall_s": wall,
        "cpu_s": cpu,
        "speed": timed.speed if timed else None,
        "probes": timed.probes if timed else 0,
        "setup_probe_s": setup.wall_spent if setup else 0.0,
        "setup_speed": setup.speed if setup else None,
        "peak_rss_mb": peak_kb / 1024.0,
        "digests": {
            sid: (workloads.digest(out) if not isinstance(out, str) else None)
            for sid, out in outcomes
        },
        "errors": {sid: out for sid, out in outcomes if isinstance(out, str)},
    }
    if tracer is not None:
        tracer.enabled = False
        record["layers"] = tracer.layer_metrics(registries)
        if args.trace_out:
            os.makedirs(os.path.dirname(args.trace_out) or ".", exist_ok=True)
            with open(args.trace_out, "w", encoding="utf-8") as fh:
                json.dump(tracer.dump(), fh)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
