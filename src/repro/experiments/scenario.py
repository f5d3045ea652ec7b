"""The scenario pipeline: lay out, build, run in phases, assemble.

Reconstructs the paper's experiment (§5): a sender attached to a random
first-row router streams CBR traffic to a receiver attached to a random
last-row router; after steady state, one randomly chosen link on the current
sender->receiver shortest path fails; every packet-level consequence is
measured until the post-failure window closes.

Every run has that shape, whatever moves the topology, so it is written
once, in four parts:

1. **layout** — :func:`mesh_layout` draws the topology, the flow's hosts
   and the on-path failed link from the run's ``"scenario"`` RNG stream;
2. **builder** — :func:`build_network` is the only place an
   :class:`ExperimentConfig` becomes ``Network`` arguments;
3. **phased runner** — :func:`run_plan` takes a :class:`RunPlan` (layout
   plus event schedule plus the plan-specific values) and owns everything
   from the simulator to teardown;
4. **assembler** — :func:`assemble_result` folds the observers into a
   :class:`ScenarioResult`; the sharded merge calls it too.

:func:`run_scenario`, ``run_churn_scenario`` and
``run_random_topology_scenario`` are plan constructors.  Every executed
event lands on :attr:`ScenarioResult.events` with its own reconvergence
wave attributed from the network-wide route-change stream.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

from ..metrics.convergence import (
    ConvergenceTracker,
    NetworkConvergenceWatcher,
    attribute_waves,
)
from ..metrics.counters import DropCounter, MessageCounter
from ..metrics.loops import LoopReport, analyze_deliveries
from ..metrics.manet import ManetReport, analyze_manet
from ..metrics.reordering import ReorderingReport, analyze_reordering
from ..metrics.timeseries import BinnedSeries, delay_series, throughput_series
from ..net.dynamics import (
    LinkEvent,
    LinkScheduler,
    SingleLinkFailureDriver,
    TopologyDriver,
)
from ..net.network import Network
from ..net.node import Node
from ..obs.flight import FlightRecorder, build_dump, save_dump
from ..obs.profiler import NULL_PROFILER
from ..routing.aodv import AodvProtocol
from ..routing.bgp import BgpConfig, BgpProtocol
from ..routing.damping import DampingConfig
from ..routing.dsr import DsrProtocol
from ..routing.olsr import OlsrProtocol
from ..routing.dbf import DbfProtocol
from ..routing.dual import DualProtocol
from ..routing.dv_common import DistanceVectorConfig
from ..routing.rip import RipProtocol
from ..routing.spf import SpfConfig, SpfProtocol
from ..routing.static import StaticProtocol
from ..sim.engine import Simulator
from ..sim.rng import RngStreams
from ..sim.tracing import DropCause, TraceBus
from ..topology.generators import attach_host
from ..topology.graph import Topology
from ..topology.mesh import regular_mesh
from ..traffic.cbr import CbrSource
from ..traffic.flows import FlowSpec
from ..traffic.sink import PacketSink
from .config import ExperimentConfig

__all__ = [
    "RunPlan",
    "ScenarioLayout",
    "ScenarioPlan",
    "ScenarioResult",
    "TopologyEventOutcome",
    "assemble_result",
    "build_network",
    "failure_plan",
    "make_protocol_factory",
    "mesh_endpoints",
    "mesh_layout",
    "on_path_layout",
    "run_plan",
    "run_scenario",
    "start_cbr",
    "warm_network",
]


@dataclass(frozen=True)
class TopologyEventOutcome:
    """One executed topology event and the reconvergence wave it caused.

    ``wave_start``/``wave_end`` are the first and last network-wide route
    changes inside the event's attribution window (from its detection to
    the next event's detection, the last window running to the end of the
    run); both ``None`` when the window saw no routing activity.  Results
    migrated from format v1/v2 carry ``time=None``/``detect_time=None`` —
    the old formats recorded only which link failed, not when.
    """

    kind: str  # "fail" | "restore"
    link: tuple[int, int]
    time: Optional[float]
    detect_time: Optional[float]
    wave_start: Optional[float] = None
    wave_end: Optional[float] = None


@dataclass(frozen=True)
class ScenarioPlan:
    """The laid-out run a ``driver_factory`` may build its schedule from."""

    topology: Topology
    sender: int
    receiver: int
    pre_path: tuple[int, ...]
    failed: tuple[int, int]
    fail_at: float
    detect_at: float
    end_at: float


@dataclass
class ScenarioResult:
    """Everything measured in one simulation run."""

    protocol: str
    degree: int
    seed: int
    sender: int
    receiver: int
    initial_path: tuple[int, ...]
    expected_final_path: Optional[tuple[int, ...]]
    #: Every executed topology event, in execution order, with its wave.
    events: tuple[TopologyEventOutcome, ...] = ()
    # Packet accounting (post-failure window for drops; whole flow otherwise).
    sent: int = 0
    delivered: int = 0
    drops_no_route: int = 0
    drops_ttl: int = 0
    drops_link_down: int = 0
    drops_queue: int = 0
    # Convergence clocks (seconds from failure detection).
    routing_convergence: float = 0.0  # network-wide, all destinations (Fig 6b)
    destination_convergence: float = 0.0  # receiver destination only
    forwarding_convergence: float = 0.0  # sender->receiver path (Fig 6a)
    converged_to_expected: bool = False
    transient_path_count: int = 0
    # Per-second series, times relative to the failure instant.
    throughput: Optional[BinnedSeries] = None
    delay: Optional[BinnedSeries] = None
    # Control-plane overhead in the post-failure window.
    messages: int = 0
    withdrawals: int = 0
    # Loop analysis (only when record_paths was enabled).
    loop_report: Optional[LoopReport] = None
    # Arrival-order inversion analysis (always computed).
    reordering: Optional[ReorderingReport] = None
    # MANET triple: PDR / normalized routing load / E2E delay (whole run).
    manet: Optional[ManetReport] = None
    # Invariant-monitor findings (non-empty only for validated runs).
    violations: tuple[str, ...] = ()
    # Monitors that declined to judge this run: name -> reason.
    monitor_skips: dict[str, str] = field(default_factory=dict)
    # Post-mortem flight dump written because a monitor fired (None otherwise).
    dump_path: Optional[str] = None

    @property
    def total_drops(self) -> int:
        return (
            self.drops_no_route
            + self.drops_ttl
            + self.drops_link_down
            + self.drops_queue
        )

    @property
    def delivery_ratio(self) -> float:
        return self.delivered / self.sent if self.sent else 0.0

    # Legacy accessors (pre-event-schedule results had exactly one failure).

    @property
    def failed_link(self) -> Optional[tuple[int, int]]:
        """The first failed link, or ``None`` for an event-free run."""
        for event in self.events:
            if event.kind == "fail":
                return event.link
        return None

    @property
    def pre_failure_path(self) -> tuple[int, ...]:
        """Legacy alias for :attr:`initial_path`."""
        return self.initial_path


def make_protocol_factory(
    name: str,
    network: Network,
    rng_streams: RngStreams,
    topology: Topology,
    config: ExperimentConfig,
) -> Callable[[Node], object]:
    """Protocol constructor-by-name, sharing one RNG family per run."""
    dv = DistanceVectorConfig(infinity=config.dv_infinity)
    fast = {"mrai_base": 3.0, "mrai_jitter": 0.5}

    def bgp(**options) -> Callable[[Node], object]:
        cfg = BgpConfig(**options)
        return lambda node: BgpProtocol(node, rng_streams, network, cfg)

    def spf(**options) -> Callable[[Node], object]:
        cfg = SpfConfig(**options)
        return lambda node: SpfProtocol(node, rng_streams, cfg)

    factories: dict[str, Callable[[Node], object]] = {
        "rip": lambda node: RipProtocol(node, rng_streams, dv),
        "rip-hd": lambda node: RipProtocol(
            node, rng_streams, replace(dv, holddown=90.0)
        ),
        "dbf": lambda node: DbfProtocol(node, rng_streams, dv),
        "bgp": bgp(),
        "bgp3": bgp(**fast, label="bgp3"),
        "bgp-pd": bgp(per_destination_mrai=True, label="bgp-pd"),
        "bgp3-pd": bgp(**fast, per_destination_mrai=True, label="bgp3-pd"),
        "bgp-ssld": bgp(sender_side_loop_detection=True, label="bgp-ssld"),
        "bgp3-ssld": bgp(**fast, sender_side_loop_detection=True, label="bgp3-ssld"),
        "bgp-rfd": bgp(damping=DampingConfig(), label="bgp-rfd"),
        "bgp3-rfd": bgp(**fast, damping=DampingConfig(), label="bgp3-rfd"),
        "dual": lambda node: DualProtocol(node, rng_streams, network),
        "spf": spf(),
        "spf-slow": spf(spf_delay=2.0, label="spf-slow"),
        "spf-lfa": spf(spf_delay=2.0, lfa=True, label="spf-lfa"),
        "static": lambda node: StaticProtocol(node, rng_streams, topology),
        "aodv": lambda node: AodvProtocol(node, rng_streams),
        "dsr": lambda node: DsrProtocol(node, rng_streams),
        "olsr": lambda node: OlsrProtocol(node, rng_streams),
    }
    if name not in factories:
        raise ValueError(f"unknown protocol {name!r}")
    return factories[name]


# --------------------------------------------------------------------------
# 1. layout


@dataclass(frozen=True)
class ScenarioLayout:
    """A topology with the flow's hosts attached and its failed link drawn."""

    topology: Topology
    sender: int
    receiver: int
    pre_path: tuple[int, ...]
    failed: tuple[int, int]
    expected_final: Optional[tuple[int, ...]]


def mesh_endpoints(
    topology: Topology, rng: random.Random, rows: int, cols: int
) -> tuple[int, int]:
    """Attach the sender and receiver hosts (the paper's attachment rule).

    The sender hangs off a random first-row router, the receiver off a
    random last-row router; returns the two host ids.
    """
    sender_router = rng.randrange(0, cols)
    receiver_router = (rows - 1) * cols + rng.randrange(0, cols)
    return attach_host(topology, sender_router), attach_host(topology, receiver_router)


def on_path_layout(
    topology: Topology, sender: int, receiver: int, rng: random.Random
) -> ScenarioLayout:
    """Draw the failed link: a random mesh link on the flow's shortest path.

    Access links (those touching a host) are never failed.  The expected
    final path is the shortest path once that link is gone.
    """
    path = topology.shortest_path(sender, receiver)
    assert path is not None, "topology must be connected"
    edges = list(zip(path[1:-2], path[2:-1]))  # hosts are the path's ends
    if not edges:
        raise ValueError("shortest path has no mesh links to fail")
    failed = rng.choice(edges)
    expected = topology.shortest_path(sender, receiver, exclude_link=failed)
    return ScenarioLayout(
        topology=topology,
        sender=sender,
        receiver=receiver,
        pre_path=tuple(path),
        failed=failed,
        expected_final=tuple(expected) if expected else None,
    )


def mesh_layout(config: ExperimentConfig, degree: int, seed: int) -> ScenarioLayout:
    """The paper's layout, drawn from the run's ``"scenario"`` RNG stream.

    A ``config.rows`` x ``config.cols`` mesh of ``degree``, the flow's hosts
    (:func:`mesh_endpoints`) and one on-path failed link
    (:func:`on_path_layout`).  Every run of ``(config, degree, seed)`` —
    single-process, sharded, narrated — lays out the same experiment.
    """
    rng = RngStreams(seed).stream("scenario")
    topology = regular_mesh(config.rows, config.cols, degree)
    sender, receiver = mesh_endpoints(topology, rng, config.rows, config.cols)
    return on_path_layout(topology, sender, receiver, rng)


def _experiment_clock(config: ExperimentConfig) -> tuple[float, float, float]:
    """``(traffic start, failure instant, end)`` on the simulator's clock.

    A cold start first spends ``config.cold_warmup`` simulated seconds
    converging; the experiment's own clock starts after it.
    """
    base = config.cold_warmup if config.cold_start else 0.0
    return base + config.traffic_start, base + config.fail_time, base + config.end_time


# --------------------------------------------------------------------------
# 2. network builder


def build_network(
    sim: Simulator,
    topology: Topology,
    bus: TraceBus,
    config: ExperimentConfig,
    record_forwards: bool = False,
) -> Network:
    """The one place an :class:`ExperimentConfig` becomes ``Network`` arguments.

    ``record_forwards`` is not a config field: monitors, the flight
    recorder and trace collection ask for the hop-by-hop TTL view.
    """
    return Network(
        sim,
        topology,
        bus,
        queue_capacity=config.queue_capacity,
        record_paths=config.record_paths,
        record_forwards=record_forwards,
        priority_control=config.prioritize_control,
    )


def warm_network(
    protocol: str,
    topology: Topology,
    seed: int,
    config: ExperimentConfig,
    bus: Optional[TraceBus] = None,
) -> tuple[Simulator, Network]:
    """A warm-started network with no traffic yet, for hand-driven runs.

    The extension experiments and ``narrate`` attach their own traffic and
    failures to it.
    """
    sim = Simulator()
    network = build_network(
        sim, topology, bus if bus is not None else TraceBus(keep_routes=False), config
    )
    network.attach_protocols(
        make_protocol_factory(protocol, network, RngStreams(seed), topology, config)
    )
    for node in network.iter_nodes():
        assert node.protocol is not None
        node.protocol.warm_start(topology)
    return sim, network


def start_cbr(
    sim: Simulator,
    network: Network,
    config: ExperimentConfig,
    sender: int,
    receiver: int,
    start: float,
    stop: float,
    flow_id: int = 1,
) -> tuple[PacketSink, CbrSource]:
    """Attach a sink at ``receiver`` and start the config's CBR flow to it."""
    sink = PacketSink(flow_id=flow_id, ttl_at_send=config.ttl)
    network.node(receiver).attach_app(sink)
    flow = FlowSpec(
        flow_id=flow_id,
        src=sender,
        dst=receiver,
        rate_pps=config.rate_pps,
        start=start,
        stop=stop,
        packet_bytes=config.packet_bytes,
        ttl=config.ttl,
    )
    source = CbrSource(sim, network, flow)
    source.start()
    return sink, source


# --------------------------------------------------------------------------
# 3. plan and phased runner


@dataclass(frozen=True)
class RunPlan:
    """Everything one run needs, laid out before the simulator exists.

    Plan constructors (:func:`run_scenario`, ``run_churn_scenario``,
    ``run_random_topology_scenario``) differ only in this data; the field
    names shared with ``ShardScenarioSpec`` let :func:`assemble_result`
    read either.
    """

    protocol: str
    degree: int
    seed: int
    config: ExperimentConfig
    #: The network's topology (for churn: every link that ever exists).
    topology: Topology
    sender: int
    receiver: int
    pre_path: tuple[int, ...]
    expected_final: Optional[tuple[int, ...]]
    #: The topology-event schedule, time-ordered, all before the end.
    events: tuple[LinkEvent, ...]
    #: Live-log header meta, flight-dump file name and dump meta.
    log_meta: dict
    dump_name: str
    dump_meta: dict
    #: The protocols' view at t=0; None means ``topology``.
    warm_topology: Optional[Topology] = None
    #: Links that start down, silently (the protocols never knew them).
    initially_down: tuple[tuple[int, int], ...] = ()
    reactive_strict: bool = True
    log_run: str = "scenario"


def failure_plan(
    protocol: str,
    degree: int,
    seed: int,
    config: ExperimentConfig,
    layout: ScenarioLayout,
    driver_factory: Optional[Callable[[ScenarioPlan], TopologyDriver]] = None,
) -> RunPlan:
    """The paper's plan over ``layout``: its on-path link fails at fail time.

    ``driver_factory`` substitutes the schedule (see :func:`run_scenario`).
    """
    _, fail_at, end_at = _experiment_clock(config)
    if driver_factory is None:
        driver: TopologyDriver = SingleLinkFailureDriver(layout.failed, fail_at)
    else:
        driver = driver_factory(
            ScenarioPlan(
                topology=layout.topology,
                sender=layout.sender,
                receiver=layout.receiver,
                pre_path=layout.pre_path,
                failed=layout.failed,
                fail_at=fail_at,
                detect_at=fail_at + config.detection_delay,
                end_at=end_at,
            )
        )
    return RunPlan(
        protocol=protocol,
        degree=degree,
        seed=seed,
        config=config,
        topology=layout.topology,
        sender=layout.sender,
        receiver=layout.receiver,
        pre_path=layout.pre_path,
        expected_final=layout.expected_final,
        events=tuple(driver.generate(end_at)),
        log_meta={"protocol": protocol, "degree": degree, "seed": seed},
        dump_name=f"flight-{protocol}-d{degree}-s{seed}.json",
        dump_meta={
            "protocol": protocol,
            "degree": degree,
            "seed": seed,
            "sender": layout.sender,
            "receiver": layout.receiver,
            "failed_link": list(layout.failed),
            "fail_time": fail_at,
        },
    )


def _event_clock(
    config: ExperimentConfig, events, detect_times
) -> tuple[float, float]:
    """The first event's instant and detection.

    With no events, the failure instant and its nominal detection.  The
    post-failure counting window opens at the first instant.
    """
    first_at = events[0].time if events else _experiment_clock(config)[1]
    first_detect = (
        detect_times[0] if detect_times else first_at + config.detection_delay
    )
    return first_at, first_detect


def run_plan(
    plan: RunPlan,
    monitors: Optional[object] = None,
    obs: Optional[object] = None,
    recorder: Optional[FlightRecorder] = None,
    dump_dir: Optional[str] = None,
    live_log=None,
) -> ScenarioResult:
    """Build, start, run in phases and measure one planned run.

    The run is split at the first event and at its detection.  Repeated
    ``run(until=...)`` calls form one contiguous timeline, so the event
    order equals a single ``run(until=end)``; the profiler spans and the
    live-log beats in between never touch simulated state.  See
    :func:`run_scenario` for ``monitors``, ``obs``, ``recorder``,
    ``dump_dir`` and ``live_log``.
    """
    config = plan.config
    if recorder is None and dump_dir is not None:
        recorder = FlightRecorder()
    if monitors is None and config.validate:
        from ..validation.monitors import MonitorSuite

        monitors = MonitorSuite()
    profiler = obs.profiler if obs is not None else NULL_PROFILER

    from ..obs.live import open_live_log

    log, owns_log = open_live_log(live_log, run=plan.log_run, meta=plan.log_meta)
    log_started = time.perf_counter()

    def beat(phase: str) -> None:
        """Phase-boundary heartbeat — written between sim.run calls only."""
        if log is not None:
            log.heartbeat(
                shard=0,
                clock=sim.now,
                events=sim.events_processed,
                wall_s=time.perf_counter() - log_started,
                phase=phase,
            )

    traffic_start, _, end_at = _experiment_clock(config)
    warm_topology = (
        plan.warm_topology if plan.warm_topology is not None else plan.topology
    )

    with profiler.span("setup"):
        sim = Simulator()
        bus = TraceBus(keep_routes=False, keep_links=False)
        if obs is not None:
            obs.attach(bus)
        if recorder is not None:
            recorder.attach(bus)
        network = build_network(
            sim,
            plan.topology,
            bus,
            config,
            record_forwards=monitors is not None or recorder is not None,
        )
        network.attach_protocols(
            make_protocol_factory(
                plan.protocol, network, RngStreams(plan.seed), warm_topology, config
            )
        )
        scheduler = LinkScheduler(sim, network, detection_delay=config.detection_delay)
        scheduler.take_down_initially(plan.initially_down)

    with profiler.span("warmup", sim=sim):
        if config.cold_start:
            network.start_protocols()
            sim.run(until=config.cold_warmup)
        else:
            for node in network.iter_nodes():
                assert node.protocol is not None
                node.protocol.warm_start(warm_topology)
    beat("warmup")

    # --- collectors, the flow and the schedule ------------------------------
    detect_times = [scheduler.detect_time(event) for event in plan.events]
    first_at, first_detect = _event_clock(config, plan.events, detect_times)
    tracker = ConvergenceTracker(bus, dest=plan.receiver, src=plan.sender)
    tracker.seed_from_network(network)
    watcher = NetworkConvergenceWatcher(bus)
    drop_counter = DropCounter(bus, window_start=first_at)
    message_counter = MessageCounter(bus, window_start=first_at)
    # Whole-run overhead for the MANET triple: NRL counts every control
    # packet the protocol ever sent, not just the post-failure window.
    overhead_counter = MessageCounter(bus)

    sink, source = start_cbr(
        sim, network, config, plan.sender, plan.receiver, traffic_start, end_at
    )

    # Private copies: the scheduler backfills restore times into events.
    scheduled = scheduler.load(replace(event) for event in plan.events)

    if monitors is not None:
        from ..validation.monitors import RunContext, settle_margin_for

        monitors.attach(
            RunContext(
                sim=sim,
                network=network,
                bus=bus,
                topology=plan.topology,
                protocol=plan.protocol,
                failed_links=tuple(
                    sorted({e.link_key for e in scheduled if e.kind == "fail"})
                ),
                detect_time=first_detect,
                end_time=end_at,
                infinity=(
                    config.dv_infinity
                    if plan.protocol in ("rip", "rip-hd", "dbf")
                    else None
                ),
                settle_margin=settle_margin_for(plan.protocol),
                # One CBR flow: the receiver is the only destination data
                # wants, which is what reactive protocols are judged on.
                active_dests=frozenset({plan.receiver}),
                reactive_strict=plan.reactive_strict,
            )
        )

    # --- run: steady state, failure until detection, convergence -----------
    for phase, until in (
        ("steady", first_at),
        ("failure", first_detect),
        ("convergence", end_at),
    ):
        with profiler.span(phase, sim=sim):
            sim.run(until=min(until, end_at))
        beat(phase)

    with profiler.span("drain", sim=sim):
        result = assemble_result(
            plan,
            scheduled,
            detect_times,
            tracker,
            watcher,
            deliveries=sink.stats.deliveries,
            sent=source.sent,
            delivered=sink.stats.delivered,
            drops=drop_counter.by_cause,
            messages=message_counter.messages,
            withdrawals=message_counter.withdrawals,
            overhead_messages=overhead_counter.messages,
            overhead_bytes=overhead_counter.bytes_sent,
        )
        if monitors is not None:
            result.violations = tuple(str(v) for v in monitors.finalize())
            result.monitor_skips = dict(monitors.skips)
        if result.violations and recorder is not None and dump_dir is not None:
            os.makedirs(dump_dir, exist_ok=True)
            dump = build_dump(
                recorder,
                meta={
                    **plan.dump_meta,
                    "detect_time": first_detect,
                    "end_time": end_at,
                    "events": [[e.kind, e.a, e.b, e.time] for e in scheduled],
                },
                violations=result.violations,
                counters=bus.counters.as_dict(),
            )
            path = os.path.join(dump_dir, plan.dump_name)
            save_dump(dump, path)
            result.dump_path = path
    if recorder is not None:
        recorder.close()
    drop_counter.close()
    message_counter.close()
    overhead_counter.close()
    if obs is not None:
        obs.finalize(sim=sim, network=network, bus=bus)
    if log is not None:
        for finding in result.violations:
            log.violation(str(finding))
        log.end(ok=not result.violations)
        if owns_log:
            log.close()
    return result


# --------------------------------------------------------------------------
# 4. result assembler


def assemble_result(
    plan,
    events,
    detect_times,
    tracker: ConvergenceTracker,
    watcher: NetworkConvergenceWatcher,
    *,
    deliveries,
    sent: int,
    delivered: int,
    drops: dict[DropCause, int],
    messages: int,
    withdrawals: int,
    overhead_messages: int,
    overhead_bytes: int,
) -> ScenarioResult:
    """Fold one run's observers and counts into a :class:`ScenarioResult`.

    ``plan`` is a :class:`RunPlan` or a sharded ``ShardScenarioSpec``;
    ``events`` are the executed events and ``detect_times`` their
    detections.  ``drops``, ``messages`` and ``withdrawals`` are counted
    from the first event on; the overhead counts cover the whole run.
    """
    config = plan.config
    traffic_start, _, end_at = _experiment_clock(config)
    first_at, first_detect = _event_clock(config, events, detect_times)
    waves = attribute_waves(detect_times, watcher.change_times, end_at)
    expected = plan.expected_final
    result = ScenarioResult(
        protocol=plan.protocol,
        degree=plan.degree,
        seed=plan.seed,
        sender=plan.sender,
        receiver=plan.receiver,
        initial_path=tuple(plan.pre_path),
        expected_final_path=expected,
        events=tuple(
            TopologyEventOutcome(
                kind=e.kind,
                link=e.link_key,
                time=e.time,
                detect_time=dt,
                wave_start=w[0],
                wave_end=w[1],
            )
            for e, dt, w in zip(events, detect_times, waves)
        ),
        sent=sent,
        delivered=delivered,
        drops_no_route=drops[DropCause.NO_ROUTE],
        drops_ttl=drops[DropCause.TTL_EXPIRED],
        drops_link_down=drops[DropCause.LINK_DOWN],
        drops_queue=drops[DropCause.QUEUE_OVERFLOW],
        routing_convergence=watcher.convergence_time(first_detect),
        destination_convergence=tracker.routing_convergence_time(first_detect),
        forwarding_convergence=tracker.forwarding_convergence_delay(first_detect),
        converged_to_expected=(
            tracker.converged_to(expected) if expected else False
        ),
        transient_path_count=len(tracker.transient_paths(first_at)),
        throughput=throughput_series(
            deliveries, traffic_start, end_at, origin=first_at
        ),
        delay=delay_series(deliveries, traffic_start, end_at, origin=first_at),
        messages=messages,
        withdrawals=withdrawals,
        reordering=analyze_reordering(deliveries),
        manet=analyze_manet(
            sent, deliveries, overhead_messages, control_bytes=overhead_bytes
        ),
    )
    if config.record_paths:
        # Forwarding hops on the original path (its two ends only send/receive).
        result.loop_report = analyze_deliveries(
            deliveries, shortest_hops=len(plan.pre_path) - 2
        )
    return result


# --------------------------------------------------------------------------
# the paper's experiment


def run_scenario(
    protocol: str,
    degree: int,
    seed: int,
    config: Optional[ExperimentConfig] = None,
    monitors: Optional[object] = None,
    obs: Optional[object] = None,
    recorder: Optional[FlightRecorder] = None,
    dump_dir: Optional[str] = None,
    driver_factory: Optional[Callable[[ScenarioPlan], TopologyDriver]] = None,
    live_log=None,
) -> ScenarioResult:
    """Run one complete experiment and return all measurements.

    ``driver_factory`` substitutes the topology-event schedule: it receives
    the laid-out :class:`ScenarioPlan` (topology, flow endpoints, the
    on-path link the default scenario would fail, and the run's clock) and
    returns any :class:`~repro.net.dynamics.TopologyDriver`.  The default is
    the paper's single on-path failure,
    ``SingleLinkFailureDriver(plan.failed, plan.fail_at)``.

    ``monitors`` is an optional :class:`repro.validation.MonitorSuite` to
    attach to the run; with ``config.validate`` set a default suite is
    created automatically.  Monitor findings land on
    ``ScenarioResult.violations``.

    ``obs`` is an optional :class:`repro.obs.RunObservation`: its profiler
    receives the phase spans (setup / warmup / steady / failure /
    convergence / drain) and its registry the run's metrics.  Observation is
    read-only — it never touches simulated time or RNG streams — so results
    are bit-identical with and without it (pinned by the golden on/off test).

    ``recorder`` is an optional :class:`repro.obs.FlightRecorder`; it is
    attached to the run's bus (capturing warm-start route installs too) and
    detached before return, rings left readable for autopsies/timelines.
    ``dump_dir`` arms post-mortems: if any monitor fires, the recorder's
    rings are snapshotted to a versioned JSON dump there (a recorder is
    created on the fly when only ``dump_dir`` is given) and
    ``ScenarioResult.dump_path`` names the file.  Like ``obs``, recording is
    read-only and does not perturb results.

    ``live_log`` (a path or an open :class:`~repro.obs.live.RunEventLog`)
    streams progress records: single-process runs emit one heartbeat at
    each phase boundary (the log is written strictly *between*
    ``sim.run`` calls, so the event stream is untouched); sharded runs
    delegate to the coordinator's window-throttled heartbeats.  Metrics
    stay byte-identical either way (pinned by the transparency tests).
    """
    config = config or ExperimentConfig.quick()
    if config.shards > 1:
        # Delegate to the sharded runtime (repro.dist): same layout, same
        # schedule, byte-identical result — pinned by the differential suite.
        unsupported = {
            "monitors": monitors,
            "obs": obs,
            "recorder": recorder,
            "dump_dir": dump_dir,
            "driver_factory": driver_factory,
        }
        given = sorted(name for name, value in unsupported.items() if value is not None)
        if given:
            raise ValueError(
                f"sharded runs (shards={config.shards}) do not support "
                f"{', '.join(given)}; the offline merge re-derives the "
                "invariants it can (see docs/distributed.md)"
            )
        from ..dist.runner import run_scenario_sharded

        return run_scenario_sharded(
            protocol, degree, seed, config, live_log=live_log
        )
    plan = failure_plan(
        protocol,
        degree,
        seed,
        config,
        mesh_layout(config, degree, seed),
        driver_factory=driver_factory,
    )
    return run_plan(
        plan,
        monitors=monitors,
        obs=obs,
        recorder=recorder,
        dump_dir=dump_dir,
        live_log=live_log,
    )
