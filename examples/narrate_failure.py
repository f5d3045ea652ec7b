#!/usr/bin/env python3
"""Narrate one convergence event, the way the paper reads its trace files.

Builds a small mesh, warm-starts a protocol of your choice, fails a link on
the live path, and prints the annotated timeline: failure, detection,
per-node route switches, forwarding-path evolution (including loops), and
drop bursts.

Run:  python examples/narrate_failure.py [protocol] [degree] [seed]
      e.g. python examples/narrate_failure.py bgp 5 4     # an MRAI loop
"""

import sys

from repro.experiments.config import ExperimentConfig
from repro.experiments.scenario import mesh_layout, warm_network
from repro.metrics.convergence import ConvergenceTracker
from repro.metrics.narrate import build_timeline, format_timeline
from repro.net.dynamics import LinkScheduler
from repro.sim.tracing import TraceBus
from repro.topology.render import render_mesh


def main() -> None:
    protocol = sys.argv[1] if len(sys.argv) > 1 else "dbf"
    degree = int(sys.argv[2]) if len(sys.argv) > 2 else 4
    seed = int(sys.argv[3]) if len(sys.argv) > 3 else 1

    config = ExperimentConfig.quick().with_(post_fail_window=60.0)
    layout = mesh_layout(config, degree, seed)
    sender, receiver, failed = layout.sender, layout.receiver, layout.failed
    # The first and last hops of the path are the hosts' access links.
    sr, rr = layout.pre_path[1], layout.pre_path[-2]

    print(f"protocol={protocol} degree={degree} seed={seed}")
    print(f"flow: host {sender} (router {sr}) -> host {receiver} (router {rr})")
    print(f"failing link {failed} at t=10.0 (detected +50 ms)\n")
    print(render_mesh(layout.topology, config.rows, config.cols, failed_link=failed))

    bus = TraceBus(keep_routes=True)
    sim, net = warm_network(protocol, layout.topology, seed, config, bus)
    tracker = ConvergenceTracker(bus, dest=receiver, src=sender)
    tracker.seed_from_network(net)
    LinkScheduler(sim, net, detection_delay=0.05).fail_link(*failed, at=10.0)
    sim.run(until=70.0)

    events = build_timeline(
        route_changes=bus.route_changes,
        link_events=bus.link_events,
        snapshots=tracker.snapshots,
        dest=receiver,
        since=9.9,
    )
    print(f"\nConvergence timeline (t=0 is the failure; route events are for "
          f"destination {receiver} only):\n")
    print(format_timeline(events, origin=10.0))


if __name__ == "__main__":
    main()
