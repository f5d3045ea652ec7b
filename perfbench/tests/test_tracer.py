"""Self-time arithmetic of the span tracer, on synthetic nested spans."""

import pytest

from tracer import Tracer, self_times


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def test_self_time_is_span_minus_direct_children():
    spans = [
        ("a", 0.0, 10.0, -1),
        ("b", 1.0, 4.0, 0),
        ("c", 2.0, 3.0, 1),
        ("d", 5.0, 9.0, 0),
        ("c", 9.5, 9.75, -1),
    ]
    assert self_times(spans) == pytest.approx(
        {"a": 10.0 - 3.0 - 4.0, "b": 3.0 - 1.0, "c": 1.25, "d": 4.0}
    )


def test_online_totals_match_reference_arithmetic():
    clock = FakeClock()
    tracer = Tracer(clock=clock, retain=frozenset({"outer", "mid", "leaf"}))

    leaf = tracer.wrap("leaf", lambda: clock.advance(0.5))

    def mid_body():
        clock.advance(1.0)
        leaf()
        leaf()
        clock.advance(0.25)

    mid = tracer.wrap("mid", mid_body)

    def outer_body():
        clock.advance(2.0)
        mid()
        leaf()
        clock.advance(3.0)

    tracer.wrap("outer", outer_body)()

    online = {name: tracer.self_s(name) for name in ("outer", "mid", "leaf")}
    assert online == pytest.approx({"outer": 5.0, "mid": 1.25, "leaf": 1.5})
    assert online == pytest.approx(self_times(tracer.spans))
    assert tracer.calls("leaf") == 3
    # Retained spans name their nearest retained parent.
    parents = {(name, start): parent for name, start, _end, parent, _sid in tracer.spans}
    assert parents[("outer", 0.0)] == -1
    assert parents[("mid", 2.0)] == 0


def test_unretained_spans_still_count_toward_parent_self_time():
    clock = FakeClock()
    tracer = Tracer(clock=clock, retain=frozenset({"outer"}))
    hot = tracer.wrap("hot", lambda: clock.advance(0.1))

    def body():
        for _ in range(10):
            hot()
        clock.advance(1.0)

    tracer.wrap("outer", body)()
    assert [span[0] for span in tracer.spans] == ["outer"]
    assert tracer.self_s("outer") == pytest.approx(1.0)
    assert tracer.self_s("hot") == pytest.approx(1.0)
    assert tracer.calls("hot") == 10


def test_method_chaining_to_its_base_is_one_span():
    clock = FakeClock()
    tracer = Tracer(clock=clock, retain=frozenset())

    class Base:
        name = "proto"

        def handle_message(self):
            clock.advance(1.0)

    class Child(Base):
        def handle_message(self):
            clock.advance(0.5)
            super().handle_message()

    Base.handle_message = tracer.wrap_method("handle_message", Base.handle_message)
    Child.handle_message = tracer.wrap_method("handle_message", Child.handle_message)
    Child().handle_message()
    assert tracer.calls("routing.proto.handle_message") == 1
    assert tracer.self_s("routing.proto.handle_message") == pytest.approx(1.5)


def test_disabled_tracer_calls_through_without_recording():
    tracer = Tracer(clock=FakeClock())
    tracer.enabled = False
    assert tracer.wrap("x", lambda v: v + 1)(1) == 2
    assert tracer.totals == {}
