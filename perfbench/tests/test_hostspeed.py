"""The host-speed probe: fixed work per call, sampling, handler restored."""

import signal
import statistics
import time

import hostspeed


def test_probe_keeps_its_state_the_same_size():
    queue_len = len(hostspeed._QUEUE)
    table_sizes = [len(peer.table) for peer in hostspeed._PEERS]
    for _ in range(50):
        assert hostspeed.probe() > 0
    assert len(hostspeed._QUEUE) == queue_len
    assert [len(peer.table) for peer in hostspeed._PEERS] == table_sizes


def test_sampler_probes_during_the_window_and_accounts_its_time():
    before = signal.getsignal(signal.SIGALRM)
    sampler = hostspeed.Sampler(interval=0.02)
    sampler.start()
    wall0 = time.perf_counter()
    while time.perf_counter() - wall0 < 0.3:
        sum(range(1000))
    elapsed = time.perf_counter() - wall0
    sampler.stop()
    # One sample at start, one at stop, and the timer's in between.
    assert len(sampler.samples) >= 5
    assert 0 < sampler.wall_spent < elapsed
    assert 0 <= sampler.cpu_spent <= sampler.wall_spent + 0.01
    samples = list(sampler.samples)
    window = sampler.lap()
    assert window.speed == hostspeed.REFERENCE_S / statistics.fmean(samples)
    assert window.probes == len(samples)
    assert window.wall_spent > 0
    assert sampler.samples == samples[-1:] and sampler.wall_spent == 0.0
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
