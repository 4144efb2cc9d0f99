"""Core engine checks: ordering, clock discipline, and stream reproducibility.

Distribution checks are law-of-large-numbers style with fixed seeds, so they
are deterministic; expected values come from closed-form moments.
"""

from __future__ import annotations

import math
import random
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from c2sim.engine import (
    Dist,
    ParameterError,
    RngStream,
    SchedulingError,
    Simulator,
    draw,
    draw_int,
    draw_ints,
)


def test_same_time_events_dispatch_in_scheduling_order():
    sim = Simulator(seed=1)
    order = []
    sim.schedule(500, order.append, "first")
    sim.schedule(500, order.append, "second")
    sim.schedule(200, order.append, "early")
    sim.run_until(1000)
    assert order == ["early", "first", "second"]


def test_checkin_loop_emits_at_exact_multiples():
    # an entity re-scheduling itself every 60000 ms, run to t=200000
    sim = Simulator(seed=7)
    interval = 60_000
    log = []

    def checkin(entity):
        log.append((entity, sim.clock))
        sim.schedule(sim.clock + interval, checkin, entity)

    sim.schedule(interval, checkin, "agent-1")
    sim.run_until(200_000)
    assert log == [("agent-1", 60_000), ("agent-1", 120_000), ("agent-1", 180_000)]
    assert sim.clock == 200_000


def test_run_until_is_resumable_and_clock_lands_on_t_end():
    sim = Simulator(seed=3)
    seen = []

    def tick():
        seen.append(sim.clock)

    sim.schedule(10, tick)
    sim.schedule(30, tick)
    sim.run_until(20)
    assert seen == [10] and sim.clock == 20
    sim.run_until(50)
    assert seen == [10, 30] and sim.clock == 50


def test_stop_ends_the_run_after_its_millisecond():
    sim = Simulator(seed=3)
    seen = []

    def record(name):
        seen.append((name, sim.clock))

    def stopper():
        record("stop")
        sim.stop()
        sim.schedule(sim.clock, record, "same ms, scheduled after stop")

    sim.schedule(10, record, "before")
    sim.schedule(20, stopper)
    sim.schedule(20, record, "same ms")
    sim.schedule(21, record, "later")
    sim.run_until(100)
    assert seen == [("before", 10), ("stop", 20), ("same ms", 20),
                    ("same ms, scheduled after stop", 20)]
    assert sim.clock == 20
    sim.run_until(100)
    assert seen[-1] == ("later", 21) and sim.clock == 100


def test_schedule_into_past_is_rejected_with_context():
    sim = Simulator(seed=1)
    sim.run_until(1000)

    def checkin(entity):
        pass

    with pytest.raises(SchedulingError) as exc:
        sim.schedule(999, checkin, "agent-1")
    message = str(exc.value)
    assert "999" in message and "1000" in message
    assert "checkin" in message and "agent-1" in message


def test_handler_scheduling_into_past_aborts_run():
    sim = Simulator(seed=1)

    def bad():
        sim.schedule(sim.clock - 1, bad)

    sim.schedule(100, bad)
    with pytest.raises(SchedulingError):
        sim.run_until(200)


def _taken(times, gaps, requeue):
    """(time, seq, label) of every call a handler at 0 takes from the queue,
    after labelled calls at times: each of the first len(gaps) it queues
    again gaps[i] later, by requeue(sim, time); the rest it only takes."""
    sim = Simulator(seed=1)
    taken = []

    def driver():
        while sim.peek() is not None:
            time, seq, _, (label,) = sim._queue[0]
            taken.append((time, seq, label))
            if len(taken) <= len(gaps):
                requeue(sim, time + gaps[len(taken) - 1])
            else:
                sim.take()
            assert sim.clock == time

    sim.schedule(0, driver)
    for i, t in enumerate(times):
        sim.schedule(t, taken.append, i)
    sim.run_until(10**6)
    return taken


def _take_then_schedule(sim, t):
    _, _, handler, args = sim._queue[0]
    sim.take()
    sim.schedule(t, handler, *args)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(times=st.lists(st.integers(0, 20), min_size=1, max_size=8),
       gaps=st.lists(st.integers(0, 5), max_size=30))
def test_take_with_a_time_requeues_as_take_then_schedule(times, gaps):
    want = _taken(times, gaps, _take_then_schedule)
    assert _taken(times, gaps, Simulator.take) == want
    assert len(want) == len(times) + len(gaps)


def test_take_before_the_clock_is_rejected_and_changes_nothing():
    sim = Simulator(seed=1)
    sim.schedule(5, print, "a")
    sim.schedule(9, print, "b")
    sim.run_until(3)
    queue = list(sim._queue)
    # before the clock, and before the time of the call it takes
    for t in (2, 4):
        with pytest.raises(SchedulingError, match=f"t={t}"):
            sim.take(t)
        assert sim._queue == queue and sim.clock == 3
    sim.take(5)
    assert sim.clock == 5
    assert sorted(sim._queue) == [(5, 2, print, ("a",)), (9, 1, print, ("b",))]


def test_run_until_backwards_is_rejected():
    sim = Simulator(seed=1)
    sim.run_until(100)
    with pytest.raises(SchedulingError):
        sim.run_until(99)


def test_randomized_event_order_matches_sorted_time_seq():
    # property: dispatch order equals sorting by (time, seq) regardless of
    # insertion order of timestamps
    rnd = random.Random(20260819)
    for _ in range(25):
        sim = Simulator(seed=0)
        seen: list[tuple[int, int]] = []
        events = [(rnd.randrange(0, 500), seq) for seq in range(40)]
        for event in events:
            sim.schedule(event[0], seen.append, event)
        sim.run_until(500)
        assert seen == sorted(events)
        assert all(a <= b for a, b in zip([t for t, _ in seen], [t for t, _ in seen][1:]))


def test_streams_reproducible_and_distinct():
    a1 = RngStream(42, "agent-3/checkin")
    a2 = RngStream(42, "agent-3/checkin")
    b = RngStream(42, "agent-4/checkin")
    seq_a1 = [a1.unit() for _ in range(50)]
    seq_a2 = [a2.unit() for _ in range(50)]
    seq_b = [b.unit() for _ in range(50)]
    assert seq_a1 == seq_a2
    assert seq_a1 != seq_b


def test_stream_isolation_under_extra_draws():
    # consuming more draws from one stream must not shift another
    sim1 = Simulator(seed=9)
    sim2 = Simulator(seed=9)
    _ = [sim1.stream("noise/extra").unit() for _ in range(100)]
    want = [sim2.stream("agent-1/work").unit() for _ in range(10)]
    got = [sim1.stream("agent-1/work").unit() for _ in range(10)]
    assert got == want


def test_uniform_degenerate_and_bounds():
    st = RngStream(1, "t")
    assert draw(st, Dist.parse("uniform(5, 5)")) == 5.0
    vals = [draw(st, Dist.parse("uniform(2, 8)")) for _ in range(2000)]
    assert all(2 <= v < 8 for v in vals)
    mean = sum(vals) / len(vals)
    assert abs(mean - 5.0) < 0.2  # sd of mean ~ 0.04


def test_exponential_mean_matches_parameter():
    st = RngStream(1234, "exp")
    d = Dist.parse("exponential(60)")
    vals = [draw(st, d) for _ in range(10_000)]
    mean = sum(vals) / len(vals)
    assert abs(mean - 60.0) < 2.0  # sd of mean = 0.6
    assert all(v > 0 for v in vals)


def test_lognormal_log_moments():
    st = RngStream(5, "ln")
    d = Dist.parse("lognormal(10.5, 0.8)")
    logs = [math.log(draw(st, d)) for _ in range(10_000)]
    mean = sum(logs) / len(logs)
    var = sum((x - mean) ** 2 for x in logs) / len(logs)
    assert abs(mean - 10.5) < 0.03
    assert abs(math.sqrt(var) - 0.8) < 0.03


@pytest.mark.parametrize("text", [
    "uniform(5)",             # wrong arity
    "uniform(9, 2)",          # inverted bounds
    "exponential(0)",         # mean must be positive
    "exponential(-3)",
    "lognormal(1, -0.5)",     # negative sigma
    "choice()",
    "choice(0, 0)",           # zero total weight
    "choice(1, -1)",
    "normal(0, 1)",           # unsupported family
    "uniform[2, 3]",          # unparseable
    # parameters, or a largest draw, that are not finite numbers
    "uniform(nan, 1)",
    "uniform(0, inf)",
    "uniform(-1e308, 1e308)",  # b - a overflows
    "exponential(inf)",
    "exponential(1e307)",     # 53 ln 2 means overflow
    "lognormal(1e308, 5)",
    "lognormal(702, 1)",      # exp(702 + 8.57) overflows
    "lognormal(0, nan)",
    "choice(1, inf)",
    "choice(1e308, 1e308)",   # the sum overflows
])
def test_invalid_distributions_raise(text):
    with pytest.raises(ParameterError):
        Dist.parse(text)


@pytest.mark.parametrize("name, params", [
    ("uniform", (9.0, 2.0)),
    ("exponential", (0.0,)),
    ("choice", (0.0, 0.0)),
    ("normal", (0.0, 1.0)),
])
def test_invalid_dist_is_rejected_at_construction(name, params):
    with pytest.raises(ParameterError):
        Dist(name, params)


class _FixedStream:
    """A stream whose every draw is u."""

    def __init__(self, u: float):
        self.u = u

    def unit(self) -> float:
        return self.u


def _accepts(name: str, params: tuple) -> bool:
    try:
        Dist(name, params)
    except ParameterError:
        return False
    return True


@pytest.mark.parametrize("name, params", [
    ("exponential", lambda x: (x,)),
    ("lognormal", lambda x: (x, 1.0)),
    ("lognormal", lambda x: (0.0, x)),
    ("uniform", lambda x: (-x, x)),
], ids=["exponential-mean", "lognormal-mu", "lognormal-sigma", "uniform-width"])
def test_dist_refuses_exactly_past_the_largest_finite_draw(name, params):
    # bisect down to adjacent floats: lo accepted, hi refused
    lo, hi = 1.0, sys.float_info.max
    assert _accepts(name, params(lo)) and not _accepts(name, params(hi))
    while (mid := lo + (hi - lo) / 2) not in (lo, hi):
        lo, hi = (mid, hi) if _accepts(name, params(mid)) else (lo, mid)
    assert hi == math.nextafter(lo, math.inf)
    # Random.random() tops out at 1 - 2**-53, where each of these families
    # draws its largest value; at lo that value is still finite
    top = _FixedStream(1.0 - 2.0 ** -53)
    assert math.isfinite(draw(top, Dist(name, params(lo))))


class _Units:
    """A stream whose draws are the given units, in turn."""

    def __init__(self, *units: float):
        self.units = iter(units)

    def unit(self) -> float:
        return next(self.units)


@pytest.mark.parametrize("dist", [
    Dist("uniform", (2.0, 5.0)),
    Dist("exponential", (9000.0,)),
    Dist("lognormal", (7.8, 0.7)),
], ids=str)
def test_largest_is_the_draw_at_the_top_unit(dist):
    # Random.random() tops out at 1 - 2**-53; a second unit of 0 puts the
    # lognormal's cosine at 1
    assert draw(_Units(1.0 - 2.0 ** -53, 0.0), dist) == dist.largest


def test_dist_round_trips_through_str():
    d = Dist.parse("lognormal(10.5, 0.8)")
    assert Dist.parse(str(d)) == d



# -- block draws ---------------------------------------------------------------


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(-2**70, 2**70), stream_id=st.text(max_size=16),
       before=st.integers(0, 700),
       k=st.one_of(st.sampled_from([0, 1, 2, 311, 312, 313, 624]),
                   st.integers(0, 1500)),
       after=st.integers(1, 400))
def test_units_are_unit_calls_in_one_block(seed, stream_id, before, k, after):
    # a twist of the generator's 624 words comes every 312 units
    block, ref = RngStream(seed, stream_id), RngStream(seed, stream_id)
    assert [block.unit() for _ in range(before)] == [
        ref.unit() for _ in range(before)]
    units = block.units(k)
    assert units.dtype == np.float64 and units.shape == (k,)
    assert units.tolist() == [ref.unit() for _ in range(k)]
    assert [block.unit() for _ in range(after)] == [
        ref.unit() for _ in range(after)]


# What Random.random() returns: a multiple of 2**-53 in [0, 1)
_UNITS = st.one_of(st.sampled_from([0.0, 0.5, 1.0 - 2.0 ** -53]),
                   st.integers(0, 2**53 - 1).map(lambda i: i / 2.0 ** 53))


@pytest.mark.parametrize("least", [0, 1])
@pytest.mark.parametrize("dist", [
    Dist("uniform", (7.0, 7.0)),
    Dist("uniform", (-1e6, -3.0)),
    Dist("uniform", (-5.5, 4.5)),
    # the parser's largest size, 2**63 - 1024, the last float below 2**63
    Dist("uniform", (1.0, 9223372036854774784.0)),
    Dist("exponential", (5e-324,)),
    # largest draw 53 ln 2 means, just under 2**63 at the parser's bound
    Dist("exponential", (2.5e17,)),
    Dist("lognormal", (6.9, 0.0)),
    Dist("lognormal", (40.0, 0.3)),
    Dist("lognormal", (-800.0, 1.0)),
], ids=str)
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_draw_ints_are_draw_int_on_each_row(dist, least, data):
    rows = data.draw(st.lists(
        st.lists(_UNITS, min_size=dist.units_per_draw,
                 max_size=dist.units_per_draw), max_size=20))
    u = np.array(rows, dtype=np.float64).reshape(len(rows),
                                                 dist.units_per_draw)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = draw_ints(u, dist, least)
    assert got.dtype == np.int64
    assert got.tolist() == [draw_int(_Units(*row), dist, least)
                            for row in rows]


@pytest.mark.parametrize("dist", [
    Dist("uniform", (2.0 ** 63, 2.0 ** 63)),
    Dist("uniform", (-2.0 ** 64, -2.0 ** 64)),
    Dist("exponential", (1e300,)),
    Dist("lognormal", (50.0, 0.0)),
], ids=str)
def test_draw_ints_refuse_a_value_outside_int64(dist):
    u = np.full((3, dist.units_per_draw), 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="outside the int64 range"):
            draw_ints(u, dist, -2**70)  # a least that lets -2**64 through
        # the last float below 2**63 fits, and is draw_int's value
        fits = Dist("uniform", (2.0 ** 63 - 1024, 2.0 ** 63 - 1024))
        assert draw_ints(u[:, :1], fits, 0).tolist() == [
            draw_int(_Units(0.5), fits, 0)] * 3 == [2**63 - 1024] * 3
