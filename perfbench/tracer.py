"""Span tracer for the benchmark's traced run.

:func:`install` wraps the public functions at each ``repro`` layer
boundary, from the benchmark's own files; nothing under ``src/`` changes.
Every wrapped call is a span (name, start, end, parent, scenario).  A
span's *self time* is its duration minus the durations of its direct child
spans, which is the part of its interval no child covers (calls are
single-threaded, so children never overlap).

Self time is folded into per-name totals as each span closes, so hot spans
(one per packet hop) cost no memory.  Coarse spans -- scenarios, warm
starts, ``Simulator.run`` calls, partitioning, merge -- are also kept in
memory in full and written out when the run ends.

Counts come from the counters the program already keeps: per scenario the
tracer registers the run's ``Simulator``, ``Network`` and ``TraceBus`` as
they are built and harvests them through ``RunObservation.finalize``; the
shard-side counters come from ``run_sharded(registries=)``.  Shard workers
are forked, so spans they would record never reach this process; the
tracer switches itself off in forked children, which then run unwrapped.
"""

from __future__ import annotations

import functools
import os
import statistics
import sys
import time

from workloads import PROTOCOLS

#: Spans kept in full (all others are folded into totals only).
RETAINED = frozenset({
    "experiments.sweep",
    "experiments.scenario",
    "sim.run",
    "topology.build",
    "mobility.build",
    "metrics.analysis",
    "dist.partition",
    "dist.merge",
}) | {f"routing.{p}.warm_start" for p in PROTOCOLS}

#: Post-run analysis functions the scenario drivers import by name.
ANALYSIS_FUNCTIONS = (
    "attribute_waves",
    "throughput_series",
    "delay_series",
    "analyze_reordering",
    "analyze_manet",
    "analyze_deliveries",
)

#: Names of every per-layer metric :meth:`Tracer.layer_metrics` reports,
#: with units.  ``run.py`` adds ``obs.trace_overhead`` and
#: ``repo.src_lines``.
LAYER_UNITS: dict[str, str] = {
    "sim.events": "count",
    "sim.cancelled_skipped": "count",
    "sim.queue_depth_hwm": "count",
    "sim.run_self_s": "s",
    "topology.build_s": "s",
    "topology.shortest_path_s": "s",
    "topology.spf_trees": "count",
    "topology.spf_s": "s",
    "topology.neighbors_calls": "count",
    "topology.neighbors_s": "s",
    **{
        f"routing.{p}.{metric}": unit
        for p in PROTOCOLS
        for metric, unit in (
            ("warm_start_s", "s"),
            ("handle_message_s", "s"),
            ("messages", "count"),
            ("link_events", "count"),
        )
    },
    "routing.route_changes": "count",
    "routing.useful_ratio": "ratio",
    "net.receive_self_s": "s",
    "net.forwards": "count",
    "net.delivers": "count",
    "net.drops": "count",
    "net.packets_transmitted": "count",
    "net.queue_depth_hwm": "count",
    "net.link_events": "count",
    "mobility.build_s": "s",
    "mobility.link_events": "count",
    "metrics.analysis_s": "s",
    "experiments.scenarios": "count",
    "experiments.scenario_s_p50": "s",
    "experiments.scenario_s_max": "s",
    "experiments.assemble_s": "s",
    "dist.partition_s": "s",
    "dist.cut_links": "count",
    "dist.lookahead_s": "s",
    "dist.windows": "count",
    "dist.relays": "count",
    "dist.shard_busy_s": "s",
    "dist.shard_wait_s": "s",
    "dist.exchange_s": "s",
    "dist.merge_s": "s",
}


def self_times(spans) -> dict[str, float]:
    """Per-name self time of complete spans ``(name, start, end, parent)``.

    ``parent`` is the index of the enclosing span in ``spans`` or -1.  The
    reference arithmetic the online totals of :class:`Tracer` must match.
    """
    child_s = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child_s[parent] += end - start
    out: dict[str, float] = {}
    for index, (name, start, end, *_rest) in enumerate(spans):
        out[name] = out.get(name, 0.0) + (end - start) - child_s[index]
    return out


class Tracer:
    """Nested-span recorder with per-name call counts and self time."""

    def __init__(self, clock=time.perf_counter, retain=RETAINED) -> None:
        self.clock = clock
        self.retain = retain
        self.enabled = True
        #: Open spans, innermost last: [name, child seconds, retained index,
        #: retained parent index, scenario id, start].
        self._stack: list[list] = []
        #: name -> [calls, self seconds, total seconds]
        self.totals: dict[str, list] = {}
        #: Retained spans: (name, start, end, parent index, scenario id).
        self.spans: list[tuple] = []
        self.scenario: str | None = None
        #: Counters summed (or max-ed, for high-water marks) over scenarios.
        self.counts: dict[str, float] = {}
        self.scenario_s: list[float] = []
        self._instances: dict[str, object] = {}

    # ------------------------------------------------------------ recording

    def enter(self, name: str) -> list:
        index = parent = -1
        if name in self.retain:
            parent = next((f[2] for f in reversed(self._stack) if f[2] >= 0), -1)
            index = len(self.spans)
            self.spans.append(None)  # filled in when the span closes
        frame = [name, 0.0, index, parent, self.scenario, self.clock()]
        self._stack.append(frame)
        return frame

    def exit(self, frame: list) -> float:
        end = self.clock()
        name, child_s, index, parent, scenario, start = frame
        duration = end - start
        self._stack.pop()
        if self._stack:
            self._stack[-1][1] += duration
        total = self.totals.get(name)
        if total is None:
            total = self.totals[name] = [0, 0.0, 0.0]
        total[0] += 1
        total[1] += duration - child_s
        total[2] += duration
        if index >= 0:
            self.spans[index] = (name, start, end, parent, scenario)
        return duration

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` recorded as a span called ``name``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            frame = self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(frame)
            if on_result is not None:
                on_result(result)
            return result

        traced.__perfbench_span__ = name
        return traced

    def wrap_method(self, suffix: str, fn):
        """A protocol method as span ``routing.<self.name>.<suffix>``.

        A call nested in a span of the same name (a subclass chaining to
        its base through ``super()``) is part of the outer span.
        """
        names: dict[str, str] = {}

        @functools.wraps(fn)
        def traced(proto, *args, **kwargs):
            if not self.enabled:
                return fn(proto, *args, **kwargs)
            label = proto.name
            name = names.get(label)
            if name is None:
                name = names[label] = f"routing.{label}.{suffix}"
            if self._stack and self._stack[-1][0] == name:
                return fn(proto, *args, **kwargs)
            frame = self.enter(name)
            try:
                return fn(proto, *args, **kwargs)
            finally:
                self.exit(frame)

        return traced

    # ------------------------------------------------------------ scenarios

    def wrap_scenario(self, fn, label):
        """A scenario entry point: a span plus counter harvesting."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            self.scenario = label(*args)
            self._instances = {}
            frame = self.enter("experiments.scenario")
            try:
                return fn(*args, **kwargs)
            finally:
                self.scenario_s.append(self.exit(frame))
                self._harvest()
                self.scenario = None

        return traced

    def register(self, kind: str, instance) -> None:
        """Note the scenario's ``sim``/``network``/``bus`` as it is built."""
        if self.enabled and self.scenario is not None:
            self._instances[kind] = instance

    def before_run(self) -> None:
        """At a scenario's first ``Simulator.run``: note the warm-start installs.

        Warm start writes every FIB entry before simulated time starts, so
        route changes counted up to here are installs, not convergence.
        """
        bus = self._instances.get("bus")
        if bus is not None and "warm_changes" not in self._instances:
            self._instances["warm_changes"] = bus.counters.route_changes

    def _harvest(self) -> None:
        from repro.obs import RunObservation

        found, self._instances = self._instances, {}
        warm_changes = found.pop("warm_changes", 0)
        if not found:
            return
        self.count("routing.warm_route_changes", warm_changes)
        obs = RunObservation()
        obs.finalize(**found)
        for key, entry in obs.registry.snapshot().items():
            if entry["kind"] == "counter":
                self.count(key, entry["value"])
            elif entry["kind"] == "gauge" and key.endswith("_hwm"):
                self.counts[key] = max(self.counts.get(key, 0), entry["value"])

    def count(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    # ------------------------------------------------------------ reporting

    def self_s(self, name: str) -> float:
        total = self.totals.get(name)
        return total[1] if total else 0.0

    def total_s(self, name: str) -> float:
        total = self.totals.get(name)
        return total[2] if total else 0.0

    def calls(self, name: str) -> int:
        total = self.totals.get(name)
        return total[0] if total else 0

    def layer_metrics(self, registries=None) -> dict[str, float]:
        """Every metric in :data:`LAYER_UNITS`; 0 where a layer did not run."""
        c = self.counts
        shard = _shard_totals(registries or {})
        messages = 0
        out: dict[str, float] = {
            "sim.events": c.get("engine.events", 0) + shard["events"],
            "sim.cancelled_skipped": c.get("engine.cancelled_skipped", 0),
            "sim.queue_depth_hwm": c.get("engine.queue_depth_hwm", 0),
            "sim.run_self_s": self.self_s("sim.run"),
            "topology.build_s": self.self_s("topology.build"),
            "topology.shortest_path_s": self.self_s("topology.shortest_path"),
            "topology.spf_trees": self.calls("topology.spf"),
            "topology.spf_s": self.self_s("topology.spf"),
            "topology.neighbors_calls": self.calls("topology.neighbors"),
            "topology.neighbors_s": self.self_s("topology.neighbors"),
        }
        for p in PROTOCOLS:
            handled = self.calls(f"routing.{p}.handle_message")
            messages += handled
            out[f"routing.{p}.warm_start_s"] = self.self_s(f"routing.{p}.warm_start")
            out[f"routing.{p}.handle_message_s"] = self.self_s(
                f"routing.{p}.handle_message"
            )
            out[f"routing.{p}.messages"] = handled
            out[f"routing.{p}.link_events"] = self.calls(f"routing.{p}.link_event")
        changes = c.get("trace.route_changes", 0) - c.get("routing.warm_route_changes", 0)
        out["routing.route_changes"] = changes
        out["routing.useful_ratio"] = changes / messages if messages else 0.0
        out.update({
            "net.receive_self_s": self.self_s("net.receive"),
            "net.forwards": c.get("trace.forwards", 0),
            "net.delivers": c.get("trace.delivers", 0),
            "net.drops": c.get("trace.drops", 0),
            "net.packets_transmitted": c.get("net.packets_transmitted", 0),
            "net.queue_depth_hwm": c.get("net.queue_depth_hwm", 0),
            "net.link_events": c.get("trace.link_events", 0),
            "mobility.build_s": self.self_s("mobility.build"),
            "mobility.link_events": c.get("mobility.link_events", 0),
            "metrics.analysis_s": self.self_s("metrics.analysis"),
            "experiments.scenarios": len(self.scenario_s),
            "experiments.scenario_s_p50": (
                statistics.median(self.scenario_s) if self.scenario_s else 0.0
            ),
            "experiments.scenario_s_max": max(self.scenario_s, default=0.0),
            "experiments.assemble_s": self.self_s("experiments.sweep"),
            # Whole partitioning span: its neighbor scans are the cost.
            "dist.partition_s": self.total_s("dist.partition"),
            "dist.cut_links": c.get("dist.cut_links", 0),
            "dist.lookahead_s": c.get("dist.lookahead_s", 0.0),
            "dist.windows": shard["windows"],
            "dist.relays": shard["relays"],
            "dist.shard_busy_s": shard["busy_s"],
            "dist.shard_wait_s": shard["wait_s"],
            "dist.exchange_s": self.self_s("dist.exchange"),
            "dist.merge_s": self.self_s("dist.merge"),
        })
        return out

    def dump(self) -> dict:
        """JSON-ready record of the retained spans and the per-name totals."""
        return {
            "spans": [list(span) for span in self.spans if span is not None],
            "totals": {
                name: {"calls": calls, "self_s": self_s, "total_s": total_s}
                for name, (calls, self_s, total_s) in sorted(self.totals.items())
            },
        }


def _shard_totals(registries: dict) -> dict[str, float]:
    """Sums over ``run_sharded(registries=)``: shard-seconds busy and waiting."""
    out = {"events": 0, "windows": 0, "relays": 0, "busy_s": 0.0, "wait_s": 0.0}
    for registry in registries.values():
        snap = registry.snapshot()

        def value(key, default=0):
            return snap.get(key, {}).get("value", default)

        busy = value("shard.busy_s", 0.0)
        out["events"] += value("shard.events")
        # Every shard takes part in every barrier window.
        out["windows"] = max(out["windows"], value("shard.windows"))
        out["relays"] += value("shard.relays_out")
        out["busy_s"] += busy
        out["wait_s"] += value("shard.wall_s", 0.0) - busy
    return out


# ----------------------------------------------------------------- install


def _rebind(original, replacement) -> None:
    """Point every ``repro`` module global bound to ``original`` at ``replacement``.

    Functions imported by name (``from ..topology.graph import
    shortest_path_tree``) live on in the importing module's namespace, so
    patching only the defining module would miss those callers.
    """
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries; call before any ``Network`` is built.

    ``Node`` and ``Link`` bind methods into dispatch tables at construction,
    so a network built earlier keeps calling the unwrapped methods.
    """
    import repro.dist.merge
    import repro.dist.partition
    import repro.dist.runner as dist_runner
    import repro.experiments.churn as churn
    import repro.experiments.runner as runner
    import repro.experiments.scenario  # noqa: F401 - imports every protocol
    import repro.metrics.convergence
    import repro.metrics.loops
    import repro.metrics.manet
    import repro.metrics.reordering
    import repro.metrics.timeseries
    import repro.routing.olsr  # noqa: F401 - imports shortest_path_tree by name
    import repro.routing.spf  # noqa: F401 - imports shortest_path_tree by name
    from repro.mobility.driver import MobilityDriver
    from repro.net.network import Network
    from repro.net.node import Node
    from repro.routing.base import RoutingProtocol
    from repro.sim.engine import Simulator
    from repro.sim.tracing import TraceBus
    from repro.topology import generators, graph, mesh
    from repro.traffic.sink import PacketSink

    os.register_at_fork(after_in_child=lambda: setattr(tracer, "enabled", False))

    def rebind(module, attr: str, name: str, on_result=None) -> None:
        original = getattr(module, attr)
        if hasattr(original, "__perfbench_span__"):
            return  # re-exported from a module already wrapped
        _rebind(original, tracer.wrap(name, original, on_result))

    def on_init(cls, kind: str) -> None:
        original = cls.__init__

        @functools.wraps(original)
        def init(self, *args, **kwargs):
            original(self, *args, **kwargs)
            tracer.register(kind, self)

        cls.__init__ = init

    # sim: the dispatch loop; children are the spans its callbacks open.
    run = tracer.wrap("sim.run", Simulator.run)

    @functools.wraps(run)
    def sim_run(self, *args, **kwargs):
        if tracer.enabled and tracer.scenario is not None:
            tracer.before_run()
        return run(self, *args, **kwargs)

    Simulator.run = sim_run
    on_init(Simulator, "sim")
    on_init(Network, "network")
    on_init(TraceBus, "bus")

    # net: Node.receive minus its routing and app children.
    Node.receive = tracer.wrap("net.receive", Node.receive)
    PacketSink.on_packet = tracer.wrap("traffic.app", PacketSink.on_packet)

    # routing: every concrete protocol class, named by its label at call time.
    pending = [RoutingProtocol]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        for method, suffix in (
            ("warm_start", "warm_start"),
            ("handle_message", "handle_message"),
            ("handle_link_down", "link_event"),
            ("handle_link_up", "link_event"),
        ):
            fn = cls.__dict__.get(method)
            if fn is not None and not getattr(fn, "__isabstractmethod__", False):
                setattr(cls, method, tracer.wrap_method(suffix, fn))

    # topology
    rebind(graph, "shortest_path_tree", "topology.spf")
    graph.Topology.shortest_path = tracer.wrap(
        "topology.shortest_path", graph.Topology.shortest_path
    )
    graph.Topology.neighbors = tracer.wrap(
        "topology.neighbors", graph.Topology.neighbors
    )
    rebind(mesh, "regular_mesh", "topology.build")
    rebind(generators, "attach_host", "topology.build")
    rebind(generators, "scale_free", "topology.build")

    # mobility
    MobilityDriver.build = tracer.wrap(
        "mobility.build",
        MobilityDriver.build,
        on_result=lambda schedule: tracer.count(
            "mobility.link_events", len(schedule.events)
        ),
    )
    rebind(churn, "make_mobility_model", "mobility.build")

    # metrics: the post-run analysis the scenario drivers call by name.
    for module in (
        repro.metrics.convergence,
        repro.metrics.loops,
        repro.metrics.manet,
        repro.metrics.reordering,
        repro.metrics.timeseries,
    ):
        for attr in ANALYSIS_FUNCTIONS:
            if hasattr(module, attr):
                rebind(module, attr, "metrics.analysis")

    # experiments: one span per scenario; the sweep's self time is assembly.
    runner.run_scenario = tracer.wrap_scenario(
        runner.run_scenario, lambda protocol, degree, seed, *_: f"{protocol}/d{degree}/s{seed}"
    )
    churn.run_churn_scenario = tracer.wrap_scenario(
        churn.run_churn_scenario, lambda protocol, seed, *_: f"{protocol}/s{seed}"
    )
    runner.run_sweep = tracer.wrap("experiments.sweep", runner.run_sweep)

    # dist: coordinator-side spans; shard-side numbers come from registries.
    dist_runner.run_sharded = tracer.wrap_scenario(
        dist_runner.run_sharded,
        lambda spec, *_: f"{spec.protocol}/n{spec.topology.n_nodes}/s{spec.seed}",
    )

    def on_partition(partition) -> None:
        tracer.count("dist.cut_links", len(partition.cut_links))
        tracer.counts["dist.lookahead_s"] = partition.lookahead

    rebind(repro.dist.partition, "partition_topology", "dist.partition", on_partition)
    for method in ("run_until", "inject"):
        setattr(
            dist_runner.ProcessExchange,
            method,
            tracer.wrap("dist.exchange", getattr(dist_runner.ProcessExchange, method)),
        )
    rebind(repro.dist.merge, "merge_results", "dist.merge")
