"""Merge per-shard outputs into one ``ScenarioResult``.

The merge feeds the single-process result assembler
(:func:`~repro.experiments.scenario.assemble_result`): counters are sums
(every record is observed by exactly one shard), the convergence clocks
are replayed offline over the merged route-change stream, and the
conservation / FIB-loop invariants are re-checked from the shipped
end-of-run state.  The only genuinely order-sensitive step is the
route-record merge; see :func:`merge_route_records` for the tie-break.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Optional

from ..experiments.scenario import ScenarioResult, assemble_result
from ..metrics.convergence import (
    ConvergenceTracker,
    NetworkConvergenceWatcher,
    PathSnapshot,
    walk_forwarding_path,
)
from ..net.packet import reset_packet_ids
from ..sim.tracing import DropCause, TraceBus
from ..validation.monitors import (
    LOOP_FREE_PROTOCOLS,
    SOURCE_ROUTED_PROTOCOLS,
    FibLoopMonitor,
    Violation,
)
from .partition import Partition
from .worker import ShardOutput

__all__ = [
    "merge_results",
    "merge_route_records",
    "canonical_trace_streams",
    "shard_perfetto_trace",
    "diff_results",
    "TraceProbe",
    "run_single_with_traces",
    "run_sharded_with_traces",
]

#: Monitors that need a live simulator and are not re-derivable offline.
_SHARD_SKIPPED_MONITORS = (
    "convergence-sentinel",
    "ttl",
    "queue-occupancy",
    "no-route-after-convergence",
    "rib-consistency",
)
_SHARD_SKIP_REASON = "not evaluated under sharded execution"


def merge_route_records(
    outputs: list[ShardOutput], scheduled, detect_times
) -> list:
    """Interleave per-shard route records into the global publish order.

    Records are totally ordered within a shard (bus publish order) but only
    timestamp-ordered across shards.  At equal timestamps the dominant
    cluster is the detection instant of a topology event, where
    ``_notify_down(a, b)`` reacts at ``a`` then ``b``; the tie-break ranks
    the event's own endpoints in pair order first, then everything else by
    node id.  The sort is stable over the shard-ordered concatenation, so
    within-shard order is never perturbed.
    """
    detect_pairs: dict[float, tuple[int, int]] = {}
    for event, detect in zip(scheduled, detect_times):
        detect_pairs.setdefault(detect, (event.a, event.b))

    def rank(record) -> tuple:
        pair = detect_pairs.get(record.time)
        if pair is not None and record.node in pair:
            return (0, pair.index(record.node))
        return (1, record.node)

    merged = []
    for output in sorted(outputs, key=lambda o: o.shard_index):
        merged.extend(output.route_records)
    merged.sort(key=lambda record: (record.time, rank(record)))
    return merged


def _offline_violations(
    protocol: str,
    outputs: list[ShardOutput],
    merged_records: list,
    sent: int,
    delivered: int,
    end_at: float,
) -> tuple[tuple[str, ...], dict[str, str]]:
    """Re-check the invariants that survive sharding, skip the rest loudly."""
    violations: list[Violation] = []
    skips = {name: _SHARD_SKIP_REASON for name in _SHARD_SKIPPED_MONITORS}

    # Packet conservation: same arithmetic as the live monitor, from global
    # sums (drops_total is whole-run, data-only, owned nodes only).
    dropped = sum(sum(o.drops_total.values()) for o in outputs)
    outstanding = sent - delivered - dropped
    in_network = sum(o.end_occupancy_data for o in outputs)
    buffered = sum(o.pending_data for o in outputs)
    if outstanding != in_network + buffered:
        violations.append(
            Violation(
                "packet-conservation",
                end_at,
                f"{outstanding} packet(s) unaccounted for but {in_network} "
                f"data packet(s) physically in the network and {buffered} "
                f"buffered awaiting routes",
            )
        )

    # FIB loops: replay the real monitor over the merged stream.
    if protocol not in LOOP_FREE_PROTOCOLS:
        skips["fib-loop"] = (
            f"protocol {protocol!r} makes no loop-freedom promise"
        )
    elif protocol in SOURCE_ROUTED_PROTOCOLS:
        skips["fib-loop"] = (
            f"{_SHARD_SKIP_REASON} (source-routed cache needs a live sampler)"
        )
    else:
        monitor = FibLoopMonitor()
        for output in sorted(outputs, key=lambda o: o.shard_index):
            for node, fib in sorted(output.initial_fibs.items()):
                for dest, next_hop in fib.items():
                    monitor._views.setdefault(dest, {})[node] = next_hop
        for record in merged_records:
            monitor._on_route(record)
        monitor.finalize(SimpleNamespace(end_time=end_at))
        violations.extend(monitor.violations)

    return tuple(str(v) for v in violations), skips


def merge_results(
    spec,
    partition: Partition,
    outputs: list[ShardOutput],
    scheduled,
    validate: bool,
    collect_traces: bool,
) -> ScenarioResult:
    outputs = sorted(outputs, key=lambda o: o.shard_index)
    # Every event executes in each shard holding its link; all agree.
    detect_at: dict[int, float] = {}
    for output in outputs:
        detect_at.update(output.detect_times)
    detect_times = [detect_at[index] for index in range(len(scheduled))]

    merged_records = merge_route_records(outputs, scheduled, detect_times)

    # Offline replay of the two convergence observers over the merged stream.
    bus = TraceBus(keep_routes=False, keep_links=False)
    tracker = ConvergenceTracker(bus, dest=spec.receiver, src=spec.sender)
    view: dict[int, Optional[int]] = {}
    for output in outputs:
        view.update(output.initial_next_hops)
    tracker._fib_view = dict(sorted(view.items()))
    snap = walk_forwarding_path(tracker._fib_view, spec.sender, spec.receiver)
    tracker.snapshots.append(
        PathSnapshot(time=0.0, path=snap.path, state=snap.state)
    )
    watcher = NetworkConvergenceWatcher(bus)
    for record in merged_records:
        tracker._on_route_change(record)
        watcher._on_route_change(record)

    sent = sum(o.sent for o in outputs)
    delivered = sum(o.delivered for o in outputs)
    drops: dict[DropCause, int] = {cause: 0 for cause in DropCause}
    for output in outputs:
        for cause, count in output.drops_window.items():
            drops[cause] += count
    result = assemble_result(
        spec,
        scheduled,
        detect_times,
        tracker,
        watcher,
        deliveries=outputs[partition.shard_of(spec.receiver)].deliveries,
        sent=sent,
        delivered=delivered,
        drops=drops,
        messages=sum(o.messages for o in outputs),
        withdrawals=sum(o.withdrawals for o in outputs),
        overhead_messages=sum(o.overhead_messages for o in outputs),
        overhead_bytes=sum(o.overhead_bytes for o in outputs),
    )
    if validate:
        result.violations, result.monitor_skips = _offline_violations(
            spec.protocol, outputs, merged_records, sent, delivered,
            spec.config.end_time,
        )
    if collect_traces:
        result.traces = canonical_trace_streams(
            packets=[r for o in outputs for r in o.trace_packets],
            routes=[r for o in outputs for r in o.route_records],
            links=[r for o in outputs for r in o.trace_links],
            messages=[r for o in outputs for r in o.trace_messages],
        )
    return result


# --------------------------------------------------------------------------
# trace canonicalization and the differential harness


def _record_key(record) -> tuple:
    return (record.time, repr(record))


def canonical_trace_streams(packets, routes, links, messages) -> dict[str, tuple]:
    """Order-normalize trace streams for byte-for-byte comparison.

    Within one timestamp the global engine order is not observable across
    shards, so each stream is sorted by ``(time, repr)`` — a total order
    both the single-process and the sharded run can reach.  Link-event
    records are deduplicated first: a cut link's events execute in both
    adjacent shards and legitimately record twice.
    """
    return {
        "packet": tuple(sorted(packets, key=_record_key)),
        "route": tuple(sorted(routes, key=_record_key)),
        "link": tuple(sorted(dict.fromkeys(links), key=_record_key)),
        "message": tuple(sorted(messages, key=_record_key)),
    }


def shard_perfetto_trace(traces: dict, log_records) -> dict:
    """Cross-shard Perfetto document: node lanes plus one lane per shard.

    ``traces`` is the :func:`canonical_trace_streams` dict a
    ``collect_traces`` run attaches as ``result.traces``; ``log_records``
    is the run-event log (list of dicts, from
    :func:`repro.obs.live.read_log`).  Packet / FIB / message / link
    events land on their node lanes exactly as in
    :func:`repro.obs.flight.perfetto_trace`, and every shard gets its own
    lane of window spans, barrier-wait fractions, and relay-injection
    instants — all on the one simulated-time axis, so a cross-shard stall
    or relay burst lines up visually with the packet activity that caused
    it.
    """
    from ..obs.flight import perfetto_trace
    from ..obs.live import shard_lane_events

    return perfetto_trace(
        packets=traces.get("packet", ()),
        route_changes=traces.get("route", ()),
        link_events=traces.get("link", ()),
        messages=traces.get("message", ()),
        extra=shard_lane_events(log_records),
    )


#: ScenarioResult fields the differential harness compares exactly.
COMPARED_FIELDS = (
    "protocol",
    "degree",
    "seed",
    "sender",
    "receiver",
    "initial_path",
    "expected_final_path",
    "sent",
    "delivered",
    "drops_no_route",
    "drops_ttl",
    "drops_link_down",
    "drops_queue",
    "routing_convergence",
    "destination_convergence",
    "forwarding_convergence",
    "converged_to_expected",
    "transient_path_count",
    "messages",
    "withdrawals",
)


def diff_results(single, single_traces, sharded, sharded_traces) -> list[str]:
    """Byte-identity check: every mismatch between the two runs, as strings.

    Compares the pinned scalar fields, the binned throughput/delay series,
    and all four canonical trace streams.  Empty list == identical.
    """
    problems: list[str] = []
    for name in COMPARED_FIELDS:
        a, b = getattr(single, name), getattr(sharded, name)
        if a != b:
            problems.append(f"{name}: single={a!r} sharded={b!r}")
    for series in ("throughput", "delay"):
        a = tuple(getattr(single, series).values)
        b = tuple(getattr(sharded, series).values)
        if a != b:
            problems.append(f"{series} series differ ({len(a)} vs {len(b)} bins)")
    for stream in ("packet", "route", "link", "message"):
        a, b = single_traces[stream], sharded_traces[stream]
        if a != b:
            first = next(
                (i for i, (x, y) in enumerate(zip(a, b)) if x != y),
                min(len(a), len(b)),
            )
            problems.append(
                f"trace stream {stream!r}: {len(a)} vs {len(b)} records, "
                f"first divergence at index {first}"
            )
    return problems


class TraceProbe:
    """A monitors-shaped shim that only records the four trace streams.

    Pass as ``run_scenario(..., monitors=probe)``: a non-``None`` monitors
    argument also turns on ``record_forwards``, matching what sharded
    workers do under ``collect_traces`` — so the streams are comparable.
    """

    def __init__(self) -> None:
        self.packets: list = []
        self.routes: list = []
        self.links: list = []
        self.messages: list = []
        self.skips: dict[str, str] = {}

    def attach(self, ctx) -> None:
        ctx.bus.subscribe("packet", self.packets.append)
        ctx.bus.subscribe("route", self.routes.append)
        ctx.bus.subscribe("link", self.links.append)
        ctx.bus.subscribe("message", self.messages.append)

    def finalize(self) -> list:
        return []

    def streams(self) -> dict[str, tuple]:
        return canonical_trace_streams(
            self.packets, self.routes, self.links, self.messages
        )


def run_single_with_traces(protocol: str, degree: int, seed: int, config):
    """Single-process reference run with canonical trace streams attached."""
    from ..experiments.scenario import run_scenario

    reset_packet_ids()
    probe = TraceProbe()
    single_config = config.with_(shards=1) if config.shards != 1 else config
    result = run_scenario(protocol, degree, seed, single_config, monitors=probe)
    return result, probe.streams()


def run_sharded_with_traces(
    protocol: str,
    degree: int,
    seed: int,
    config,
    exchange: str = "local",
    validate: bool = False,
    live_log=None,
):
    """Sharded run with canonical trace streams attached (determinism proofs)."""
    from .runner import run_scenario_sharded

    result = run_scenario_sharded(
        protocol,
        degree,
        seed,
        config,
        exchange=exchange,
        collect_traces=True,
        validate=validate,
        live_log=live_log,
    )
    return result, result.traces
