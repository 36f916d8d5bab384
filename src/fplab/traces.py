"""Orbit generation: plain iteration, alternating two maps, and the even
subsequence of a cyclic orbit, plus named diagnostic sequences.

Every trace carries the premetric its consecutive gaps were measured under,
so downstream certificates never have to guess the pairing convention.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InputError
from .maps import NamedMap
from .spaces import (
    CyclicSetting,
    Point,
    Premetric,
    Space,
    metric_premetric,
    premetric_diagonal,
    shifted_premetric,
)

ESCAPE_NORM = 1e9

TRACE_STATUSES = ("completed", "escaped", "budget_exhausted")


@dataclass(frozen=True)
class IterationTrace:
    points: tuple[Point, ...]
    generator: str
    premetric: Premetric
    consecutive_gaps: tuple[float, ...]
    status: str
    aux_points: tuple[Point, ...] | None = None

    def __post_init__(self) -> None:
        if self.status not in TRACE_STATUSES:
            raise ConfigurationError(f"unknown trace status {self.status!r}")
        if len(self.consecutive_gaps) != max(0, len(self.points) - 1):
            raise ConfigurationError("gap count must be point count minus one")

    def __len__(self) -> int:
        return len(self.points)

    def coords_array(self) -> np.ndarray:
        return np.asarray([p.coords for p in self.points], dtype=float)

    def gap_array(self) -> np.ndarray:
        return np.asarray(self.consecutive_gaps, dtype=float)

    def companion_shift(self) -> "IterationTrace":
        """The forward-shifted trace y_n = x_{n+1}."""
        if len(self.points) < 3:
            raise InputError("need at least 3 points to form a shifted companion")
        return IterationTrace(
            points=self.points[1:],
            generator=f"shift({self.generator})",
            premetric=self.premetric,
            consecutive_gaps=self.consecutive_gaps[1:],
            status=self.status,
        )

    def to_csv(self) -> str:
        dim = len(self.points[0].coords)
        buf = io.StringIO()
        cols = ",".join(f"x{i}" for i in range(dim))
        buf.write(f"n,{cols},p_gap\n")
        for i, p in enumerate(self.points):
            coords = ",".join(repr(c) for c in p.coords)
            gap = repr(self.consecutive_gaps[i]) if i < len(self.consecutive_gaps) else ""
            buf.write(f"{i},{coords},{gap}\n")
        return buf.getvalue()

    def to_json_obj(self) -> dict:
        return {
            "generator": self.generator,
            "premetric": self.premetric.describe(),
            "status": self.status,
            "length": len(self.points),
            "points": [list(p.coords) for p in self.points],
            "consecutive_gaps": list(self.consecutive_gaps),
        }


def _gaps(premetric: Premetric, points: list[Point]) -> tuple[float, ...]:
    coords = np.asarray([p.coords for p in points], dtype=float)
    return tuple(premetric_diagonal(premetric, coords[:-1], coords[1:]).tolist())


def _extend_orbit(step, seed: Point, length: int) -> tuple[list[Point], str]:
    """Apply step(n, x) repeatedly, truncating on escape (non-finite image
    or norm beyond ESCAPE_NORM)."""
    points = [seed]
    status = "completed"
    for n in range(length - 1):
        try:
            nxt = step(n, points[-1])
        except InputError:
            status = "escaped"
            break
        if nxt.norm() > ESCAPE_NORM:
            status = "escaped"
            break
        points.append(nxt)
    return points, status


def picard_trace(
    map_t: NamedMap,
    x0: Point,
    steps: int,
    premetric: Premetric | None = None,
) -> IterationTrace:
    """Plain iteration: points[n] is the map applied n times to x0, so steps
    applications yield steps+1 points.  Escape truncates with status escaped;
    it is a status, never an error."""
    if steps < 1:
        raise InputError("need at least one iteration step")
    if x0.space_id != map_t.space.id:
        raise InputError("seed does not live on the map's space")
    p = premetric if premetric is not None else metric_premetric(map_t.space)
    points, status = _extend_orbit(lambda n, x: map_t(x), x0, steps + 1)
    return IterationTrace(
        points=tuple(points),
        generator=f"picard({map_t.name})",
        premetric=p,
        consecutive_gaps=_gaps(p, points),
        status=status,
    )


@dataclass(frozen=True)
class AlternatingSchedule:
    """Two maps applied in turn: member n is map_t for even n, map_s for odd."""

    map_t: NamedMap
    map_s: NamedMap

    def __post_init__(self) -> None:
        if self.map_t.space.id != self.map_s.space.id:
            raise ConfigurationError("alternating maps must share a space")

    def member(self, n: int) -> NamedMap:
        if n < 0:
            raise InputError("schedule index must be nonnegative")
        return self.map_t if n % 2 == 0 else self.map_s

    @property
    def space(self) -> Space:
        return self.map_t.space


def alternating_trace(
    schedule: AlternatingSchedule,
    seed: Point,
    steps: int,
    premetric: Premetric | None = None,
) -> IterationTrace:
    """Alternating orbit: x_0 = S(seed), then x_{n+1} = member(n)(x_n), so T
    produces the odd-indexed points.  The companion sequence pairing each
    point with its predecessor is recovered by an index shift, not stored."""
    if steps < 1:
        raise InputError("need at least one iteration step")
    if seed.space_id != schedule.space.id:
        raise InputError("seed does not live on the maps' space")
    p = premetric if premetric is not None else metric_premetric(schedule.space)
    x0 = schedule.map_s(seed)
    points, status = _extend_orbit(
        lambda n, x: schedule.member(n)(x), x0, steps + 1
    )
    return IterationTrace(
        points=tuple(points),
        generator=f"alternating({schedule.map_t.name},{schedule.map_s.name})",
        premetric=p,
        consecutive_gaps=_gaps(p, points),
        status=status,
    )


def cyclic_even_trace(
    map_t: NamedMap,
    setting: CyclicSetting,
    x0: Point,
    pairs: int,
    premetric: Premetric | None = None,
) -> IterationTrace:
    """Even-indexed subsequence points[n] = T^{2n} x0 for n = 0..pairs, gaps
    measured under the gap-shifted premetric.  The full orbit (odd points
    included) rides along in aux_points for diagnostics."""
    if pairs < 1:
        raise InputError("need at least one double step")
    if x0.space_id != map_t.space.id:
        raise InputError("seed does not live on the map's space")
    if not setting.set_a.contains(x0):
        raise InputError("cyclic seed must start in the first set")
    p = premetric if premetric is not None else shifted_premetric(setting)
    orbit, status = _extend_orbit(lambda n, x: map_t(x), x0, 2 * pairs + 1)
    evens = orbit[::2]
    return IterationTrace(
        points=tuple(evens),
        generator=f"cyclic_even({map_t.name})",
        premetric=p,
        consecutive_gaps=_gaps(p, evens),
        status=status,
        aux_points=tuple(orbit),
    )


def sequence_trace(
    name: str,
    space: Space,
    length: int,
    premetric: Premetric | None = None,
) -> IterationTrace:
    """Named diagnostic sequences with no generating map.

    harmonic: x_n = 1 + 1/2 + ... + 1/(n+1), a sequence whose consecutive
    gaps vanish while the sequence itself diverges.
    """
    if length < 2:
        raise InputError("trace length must be at least 2")
    if space.dimension != 1:
        raise InputError(f"sequence {name!r} is one-dimensional")
    if name != "harmonic":
        raise ConfigurationError(f"unknown sequence {name!r}; have ['harmonic']")
    partial = np.cumsum(1.0 / np.arange(1, length + 1))
    points = [space.point((float(v),)) for v in partial]
    p = premetric if premetric is not None else metric_premetric(space)
    return IterationTrace(
        points=tuple(points),
        generator="harmonic",
        premetric=p,
        consecutive_gaps=_gaps(p, points),
        status="completed",
    )


def trace_from_points(
    points: list[Point],
    generator: str,
    premetric: Premetric,
    status: str = "completed",
) -> IterationTrace:
    if len(points) < 2:
        raise InputError("trace length must be at least 2")
    return IterationTrace(
        points=tuple(points),
        generator=generator,
        premetric=premetric,
        consecutive_gaps=_gaps(premetric, points),
        status=status,
    )
