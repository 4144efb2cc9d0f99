"""Deterministic discrete-event core: integer-millisecond virtual clock,
an ordered event queue, and named reproducible random streams.

An event is a handler call: schedule(time, handler, *args) queues
handler(*args), and the queue runs its calls in (time, scheduling sequence)
order.

Determinism rules enforced here:
  * virtual time is integer milliseconds, never floats;
  * ties at the same timestamp dispatch in scheduling order (global sequence);
  * every random draw comes from a named stream seeded by (seed, stream_id),
    so adding draws to one entity never shifts another entity's sequence;
  * distributions are built by inverse transform on Random.random() alone,
    the one generator method with a cross-version stability guarantee.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import math
import random
import re
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

SimTime = int  # milliseconds of virtual time since scenario start

class SchedulingError(RuntimeError):
    """Raised when an event is scheduled before the current clock."""


class ParameterError(ValueError):
    """Raised for invalid distribution names or parameters."""


_DIST_RE = re.compile(r"^\s*([a-z_]+)\s*\(([^)]*)\)\s*$")

# Random.random() is at most 1 - 2**-53, so the log that draw() takes of
# 1 - u is at least ln 2**-53: an exponential draw is at most 53 ln 2 means,
# and a lognormal's |z| at most sqrt(106 ln 2).
_LN_MIN_UNIT = math.log(2.0 ** -53)
_Z_MAX = math.sqrt(-2.0 * _LN_MIN_UNIT)
_LN_FLOAT_MAX = math.log(sys.float_info.max)  # exp overflows past this


@dataclass(frozen=True)
class Dist:
    """One of uniform(a, b), exponential(mean) and lognormal(mu, sigma)."""

    name: str
    params: tuple[float, ...]

    @classmethod
    def parse(cls, text: str) -> "Dist":
        m = _DIST_RE.match(text)
        if not m:
            raise ParameterError(f"unparseable distribution {text!r}")
        name = m.group(1)
        raw = m.group(2).strip()
        try:
            params = tuple(float(p) for p in raw.split(",")) if raw else ()
        except ValueError as exc:
            raise ParameterError(f"bad numeric parameter in {text!r}") from exc
        return cls(name, params)

    def __post_init__(self) -> None:
        # frozen, so a Dist checked here stays valid for every draw, and
        # every draw is a finite number
        n, p = self.name, self.params
        if not all(map(math.isfinite, p)):
            raise ParameterError(f"{n} needs finite parameters, got {p}")
        if n == "uniform":
            if len(p) != 2 or p[0] > p[1]:
                raise ParameterError(f"uniform needs (a, b) with a <= b, got {p}")
            if not math.isfinite(p[1] - p[0]):
                raise ParameterError(f"uniform needs a finite b - a, got {p}")
        elif n == "exponential":
            if len(p) != 1 or p[0] <= 0:
                raise ParameterError(f"exponential needs mean > 0, got {p}")
            if not math.isfinite(self.largest):
                raise ParameterError(
                    f"exponential's largest draw, 53 ln 2 means, is not finite "
                    f"for mean {p[0]!r}")
        elif n == "lognormal":
            if len(p) != 2 or p[1] < 0:
                raise ParameterError(f"lognormal needs (mu, sigma >= 0), got {p}")
            if not math.isfinite(self.largest):
                raise ParameterError(
                    f"lognormal's largest draw, exp(mu + sigma sqrt(106 ln 2)), "
                    f"is not finite for {p}")
        else:
            raise ParameterError(f"unknown distribution {n!r}")

    @property
    def units_per_draw(self) -> int:
        """The stream.unit() draws one draw() takes."""
        return 2 if self.name == "lognormal" else 1

    @property
    def largest(self) -> float:
        """The largest value draw() returns, inf where that overflows."""
        n, p = self.name, self.params
        if n == "uniform":
            return p[1]
        if n == "exponential":
            return -p[0] * _LN_MIN_UNIT
        log = p[0] + p[1] * _Z_MAX  # lognormal
        return math.exp(log) if log <= _LN_FLOAT_MAX else math.inf

    def __str__(self) -> str:
        inner = ", ".join(format(v, "g") for v in self.params)
        return f"{self.name}({inner})"


class RngStream:
    """One named random stream.

    The underlying generator is seeded from SHA-256 of (seed, stream_id), so
    the same pair yields the same draw sequence on any platform and the
    streams for different ids are statistically independent.
    """

    def __init__(self, seed: int, stream_id: str):
        self.seed = seed
        self.stream_id = stream_id
        digest = hashlib.sha256(f"{seed}/{stream_id}".encode()).digest()
        self._rand = random.Random(int.from_bytes(digest[:8], "big"))

    def unit(self) -> float:
        """Next uniform draw in [0, 1)."""
        return self._rand.random()

    def units(self, k: int) -> np.ndarray:
        """The next k unit() draws as float64, in one call, leaving the
        stream where k unit() calls leave it.

        random() is ((a >> 5) * 2**26 + (b >> 6)) / 2**53 of the
        generator's next two 32-bit words a and b, and getrandbits(64 k)
        holds the next 2 k words, the first least significant: so this is
        random() bit for bit, in exact float64 arithmetic.
        """
        words = np.frombuffer(
            self._rand.getrandbits(64 * k).to_bytes(8 * k, "little"), "<u4")
        return ((words[0::2] >> 5) * 67108864.0
                + (words[1::2] >> 6)) * (1.0 / 9007199254740992.0)


def draw(stream: RngStream, dist: Dist) -> float:
    """Sample one value from dist (uniform, exponential or lognormal) using
    only stream.unit() draws."""
    name, p = dist.name, dist.params
    if name == "uniform":
        a, b = p
        return a + (b - a) * stream.unit()
    if name == "exponential":
        # inverse CDF; 1-u is in (0, 1] so the log argument is never zero
        return -p[0] * math.log(1.0 - stream.unit())
    mu, sigma = p  # lognormal
    u1 = 1.0 - stream.unit()
    u2 = stream.unit()
    z = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
    return math.exp(mu + sigma * z)


def draw_int(stream: RngStream, dist: Dist, least: int) -> int:
    """draw() rounded to the nearest integer, and no less than least."""
    return max(least, round(draw(stream, dist)))


def draw_ints(u: np.ndarray, dist: Dist, least: int) -> np.ndarray:
    """draw_int() of each row of u, a block of units with
    dist.units_per_draw columns in the order draw() takes them, as int64.

    Uniform draws use only +, *, round half to even and max, which numpy
    computes bit for bit as Python does. numpy's log, exp and cos are not
    libm's, and follow its SIMD dispatch, so exponential and lognormal draws
    are draw_int's own arithmetic, element by element. Raises ValueError for
    a value outside int64, which a cast would wrap.
    """
    name, p = dist.name, dist.params
    if name == "uniform":
        a, b = p
        x = np.maximum(np.rint(a + (b - a) * u[:, 0]), least)
        if not len(x) or (-2.0**63 <= x.min() and x.max() < 2.0**63):
            return x.astype(np.int64)
        values = [int(v) for v in x.tolist()]
    elif name == "exponential":
        m = -p[0]
        values = [max(least, round(m * math.log(1.0 - v)))
                  for v in u[:, 0].tolist()]
    else:  # lognormal
        mu, sigma = p
        two_pi = 2.0 * math.pi
        values = [max(least, round(math.exp(
                      mu + sigma * (math.sqrt(-2.0 * math.log(1.0 - v1))
                                    * math.cos(two_pi * v2)))))
                  for v1, v2 in u.tolist()]
    try:
        return np.array(values, np.int64)
    except OverflowError:
        bad = next(v for v in values if not -2**63 <= v < 2**63)
        raise ValueError(f"{dist} draws {bad}, outside the int64 range"
                         ) from None


class Simulator:
    """Event queue plus clock plus the stream registry for one run."""

    def __init__(self, seed: int):
        self.seed = seed
        self.clock: SimTime = 0
        # (time, seq, handler, args) tuples: seq is unique, so no handler is
        # compared
        self._queue: list[tuple[SimTime, int, Callable[..., None], tuple]] = []
        self._seq = itertools.count()
        self._t_end: SimTime = 0  # where the current run_until stops
        self._streams: dict[str, RngStream] = {}

    # -- random streams ----------------------------------------------------

    def stream(self, stream_id: str) -> RngStream:
        st = self._streams.get(stream_id)
        if st is None:
            st = RngStream(self.seed, stream_id)
            self._streams[stream_id] = st
        return st

    # -- event queue -------------------------------------------------------

    def schedule(self, time: SimTime, handler: Callable[..., None],
                 *args) -> None:
        """Queue the call handler(*args) for time."""
        if time < self.clock:
            raise SchedulingError(
                f"cannot schedule {handler.__qualname__}{args} at t={time}; "
                f"clock is {self.clock}")
        heapq.heappush(self._queue, (int(time), next(self._seq), handler, args))

    def stop(self) -> None:
        """End the current run_until at this millisecond: the events queued
        for it still run, later ones stay queued."""
        self._t_end = self.clock

    def peek(self) -> tuple[SimTime, Callable[..., None], tuple] | None:
        """The call run_until would dispatch next, as (time, handler, args),
        or None when none is due by the end of the current run."""
        queue = self._queue
        if queue and queue[0][0] <= self._t_end:
            time, _, handler, args = queue[0]
            return time, handler, args
        return None

    def take(self, time: SimTime | None = None) -> None:
        """Dequeue the call peek() returned and set the clock to its time,
        as run_until does before it dispatches a call: the caller runs it.

        Given a time, queue the same call again for it, with the next
        sequence number, as schedule() right after take() would: one heap
        operation for both. A time before the taken call's raises
        SchedulingError and leaves queue and clock as they were.
        """
        queue = self._queue
        if time is None:
            self.clock = heapq.heappop(queue)[0]
            return
        now, _, handler, args = queue[0]
        if time < now:
            raise SchedulingError(
                f"cannot schedule {handler.__qualname__}{args} at t={time}; "
                f"clock is {now}")
        heapq.heapreplace(queue, (int(time), next(self._seq), handler, args))
        self.clock = now

    def clear(self) -> None:
        """Forget every queued event, and with them whatever they hold."""
        self._queue.clear()

    def run_until(self, t_end: SimTime) -> None:
        """Dispatch every event with time <= t_end in order; clock ends at
        t_end, or at the time of a stop().

        A handler that schedules into the past aborts the run by raising
        SchedulingError with the offending handler named.
        """
        if t_end < self.clock:
            raise SchedulingError(f"run_until({t_end}) is before clock {self.clock}")
        self._t_end = t_end
        queue = self._queue
        while queue and queue[0][0] <= self._t_end:
            self.clock, _, handler, args = heapq.heappop(queue)
            handler(*args)
        self.clock = self._t_end
