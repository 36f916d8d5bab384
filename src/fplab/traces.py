"""Orbit generation: plain iteration, alternating two maps, and the even
subsequence of a cyclic orbit, plus named diagnostic sequences.

_extend_orbit is the one orbit engine: the traces, the solvers and the
D1-D4 samples all walk it, one seed or a block of seeds at a time, under
its one escape rule (ESCAPE_NORM).

Every trace carries its premetric, which lends it its space and measures its
consecutive gaps, so downstream certificates never guess the pairing convention.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ._floatrepr import csv_rows
from .errors import ConfigurationError, InputError
from .maps import NamedMap
from .reports import SEQUENCE_NAMES
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

TRACE_STATUSES = ("completed", "escaped")


def _frozen(values, ndim: int, what: str) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.ndim != ndim:
        raise ConfigurationError(f"trace {what} must be a {ndim}-d array, got shape {arr.shape}")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class IterationTrace:
    """A stored orbit or sequence on the space of its premetric.  coords is
    the (n, d) array of its points and aux_coords the full orbit behind an
    even-subsequence trace; gaps, the n - 1 consecutive gaps under
    premetric, is derived from coords.  All three are read-only.
    A point of the orbit is a row of coords; Space.point makes a Point of
    one where a caller needs it."""

    coords: np.ndarray
    generator: str
    premetric: Premetric
    status: str
    aux_coords: np.ndarray | None = None
    gaps: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        if self.status not in TRACE_STATUSES:
            raise ConfigurationError(f"unknown trace status {self.status!r}")
        coords = _frozen(self.coords, 2, "coords")
        space = self.premetric.space
        if coords.shape[1] != space.dimension:
            raise InputError(f"trace coords of shape {coords.shape} do not fit the "
                             f"{space.dimension}-dimensional space {space.id!r}")
        gaps = premetric_diagonal(self.premetric, coords[:-1], coords[1:])
        gaps.flags.writeable = False
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "gaps", gaps)
        if self.aux_coords is not None:
            object.__setattr__(self, "aux_coords", _frozen(self.aux_coords, 2, "aux_coords"))

    def __len__(self) -> int:
        return self.coords.shape[0]

    def companion_shift(self) -> "IterationTrace":
        """The forward-shifted trace y_n = x_{n+1}."""
        if len(self) < 3:
            raise InputError("need at least 3 points to form a shifted companion")
        return IterationTrace(
            coords=self.coords[1:],
            generator=f"shift({self.generator})",
            premetric=self.premetric,
            status=self.status,
        )

    def to_csv(self) -> str:
        """Rows "n,x0,..,x{d-1},p_gap" under a header; the last row's gap is
        empty.  Every number is written as repr writes it.

        The rows before the bit-periodic tail (below) go through one
        vectorised kernel, _floatrepr.csv_rows: Schubfach's shortest
        digits for whole columns, laid out as repr lays them out, with
        subnormals, infinities and NaN passed to repr one at a time.

        repr depends only on a float's bits, so once each row's coordinates
        and gap have the bits of the row two earlier, every later row up to
        the last gap ends in one of two fixed suffixes: that tail is
        formatted once with repr, and only its row indices are written per
        row.  Bits, not ==, decide, so -0.0 and 0.0 stay distinct, and a row
        whose coordinates repeat but whose gap does not is written in full.
        The last row is formatted with repr."""
        coords, n = self.coords, len(self)
        parts = ["n," + ",".join(f"x{i}" for i in range(coords.shape[1])) + ",p_gap\n"]
        if n == 0:
            return parts[0]
        k = _bit_period_start(coords, self.gaps)
        parts.append(csv_rows(0, np.column_stack([coords[:k], self.gaps[:k]])))
        if k < n - 1:
            # rows k, k + 1, ... end like rows k - 2, k - 1
            pair = ["," + ",".join(map(repr, [*coords[j].tolist(), float(self.gaps[j])]))
                    for j in (k - 2, k - 1)]
            parts.append(_tail_rows(k, n - 1, pair))
        parts.append(",".join([str(n - 1), *map(repr, coords[-1].tolist()), ""]) + "\n")
        return "".join(parts)


def _tail_rows(start: int, stop: int, suffixes: list[str]) -> str:
    """The rows "i" + suffixes[(i - start) % 2] + "\\n" for start <= i < stop.

    The rows whose indices have one digit count are written as fixed-width
    byte records, one record per pair of rows, with the index digits
    written one column at a time; an odd row left over is an f-string."""
    parts = []
    lo = start
    while lo < stop:
        digits = len(str(lo))
        hi = min(stop, 10 ** digits)
        first, second = suffixes[(lo - start) % 2], suffixes[(lo - start + 1) % 2]
        pairs = (hi - lo) // 2
        if pairs:
            record = f"{'0' * digits}{first}\n{'0' * digits}{second}\n".encode("ascii")
            block = np.tile(np.frombuffer(record, dtype=np.uint8), (pairs, 1))
            width = digits + len(first) + 1  # the second row's offset in a record
            index = np.arange(lo, lo + 2 * pairs).reshape(pairs, 2)
            for col in range(digits - 1, -1, -1):
                index, digit = np.divmod(index, 10)
                block[:, col:col + width + 1:width] = digit + ord("0")
            parts.append(block.tobytes().decode("ascii"))
        if (hi - lo) % 2:
            parts.append(f"{hi - 1}{suffixes[(hi - 1 - start) % 2]}\n")
        lo = hi
    return "".join(parts)


def _bit_period_start(coords: np.ndarray, gaps: np.ndarray) -> int:
    """The first row k >= 2 such that every row k..n-2 has the coordinate
    and gap bits of the row two before it, or n - 1 when there is none."""
    n = coords.shape[0]
    if n < 4:
        return max(0, n - 1)
    rows = np.ascontiguousarray(coords).view(np.uint64)
    bits = np.ascontiguousarray(gaps).view(np.uint64)
    same = (rows[2:n - 1] == rows[:n - 3]).all(axis=1) & (bits[2:] == bits[:-2])
    differ = np.flatnonzero(~same)
    return 2 + (int(differ[-1]) + 1 if differ.size else 0)


def _extend_orbit(
    fns: tuple[Callable[[np.ndarray], np.ndarray], ...], seeds: np.ndarray, length: int
) -> tuple[np.ndarray, np.ndarray]:
    """The orbits x_0 = seed and x_{n+1} = fns[n % len(fns)](x_n) of one
    seed (d,) or a block of seeds (k, d), walked together; returns the
    time-major (length, *seeds.shape) block and each orbit's alive count of
    valid points.  An image escapes if it is non-finite or lies beyond
    ESCAPE_NORM in some coordinate; a wrong-shaped image escapes every
    orbit.  An escaped orbit is frozen at its last valid point, and the
    walk stops once every orbit has escaped.

    The step rule has period 1 or 2 and every fn is a pure function of its
    coordinates, so once the block is bit-identical to the block two steps
    earlier, before any escape, it repeats those two steps forever: the rest
    is filled by tiling them.  Bits, not ==, decide, so -0.0 and 0.0
    differ."""
    out = np.empty((length, *seeds.shape))
    out[0] = seeds
    alive = np.full(seeds.shape[:-1], length)
    going = None  # no orbit has escaped yet
    # the bits of steps n - 1 and n
    older, newer = None, out[0].tobytes()
    with np.errstate(all="ignore"):
        for n in range(length - 1):
            image = np.asarray(fns[n % len(fns)](out[n]), dtype=float)
            shaped = image.shape == seeds.shape
            # NaN fails the comparison too, so a non-finite image escapes
            if going is None and shaped and np.abs(image).max() <= ESCAPE_NORM:
                out[n + 1] = image
                bits = out[n + 1].tobytes()
                if bits == older:
                    out[n + 2::2] = out[n]
                    out[n + 3::2] = out[n + 1]
                    break
                older, newer = newer, bits
                continue
            ok = np.abs(image).max(axis=-1) <= ESCAPE_NORM if shaped else np.False_
            if going is None:
                going = np.ones(alive.shape, dtype=bool)
            alive[going & ~ok] = n + 1
            going &= ok
            if not going.any():
                out[n + 1:] = out[n]
                break
            out[n + 1] = np.where(going[..., None], image, out[n])
    return out, alive


def _orbit(
    fns: tuple[Callable[[np.ndarray], np.ndarray], ...], seed: np.ndarray, length: int
) -> tuple[np.ndarray, str]:
    """One seed's valid rows of _extend_orbit, and completed or escaped."""
    rows, alive = _extend_orbit(fns, seed, length)
    return rows[:alive], "completed" if alive == length else "escaped"


def _start(x0: Point, count: int, unit: str, *spaces: Space) -> np.ndarray:
    """The seed rule of every walk: at least one unit, and x0 a member of
    each of spaces (the maps' and the measure's).  Returns x0's row."""
    if count < 1:
        raise InputError(f"need at least one {unit}")
    for space in spaces:
        space.check_member(x0)
    return np.asarray(x0.coords)


def picard_trace(
    map_t: NamedMap,
    x0: Point,
    steps: int,
    premetric: Premetric | None = None,
) -> IterationTrace:
    """Plain iteration: coords[n] is the map applied n times to x0, so steps
    applications yield steps+1 points.  Escape truncates with status escaped;
    it is a status, never an error."""
    p = premetric if premetric is not None else metric_premetric(map_t.space)
    row = _start(x0, steps, "iteration step", map_t.space, p.space)
    coords, status = _orbit((map_t.fn,), row, steps + 1)
    return IterationTrace(
        coords=coords,
        generator=f"picard({map_t.name})",
        premetric=p,
        status=status,
    )


@dataclass(frozen=True)
class AlternatingSchedule:
    """Two maps applied in turn: map_t at even steps, map_s at odd ones."""

    map_t: NamedMap
    map_s: NamedMap

    def __post_init__(self) -> None:
        if self.map_t.space.id != self.map_s.space.id:
            raise ConfigurationError("alternating maps must share a space")

    @property
    def space(self) -> Space:
        return self.map_t.space


def alternating_trace(
    schedule: AlternatingSchedule,
    seed: Point,
    steps: int,
    premetric: Premetric | None = None,
) -> IterationTrace:
    """Alternating orbit: x_0 = S(seed), then x_{n+1} = T(x_n) for even n and
    S(x_n) for odd n, so T produces the odd-indexed points.  The companion
    sequence pairing each point with its predecessor is recovered by an
    index shift, not stored."""
    p = premetric if premetric is not None else metric_premetric(schedule.space)
    _start(seed, steps, "iteration step", schedule.space, p.space)
    x0 = schedule.map_s(seed)
    coords, status = _orbit(
        (schedule.map_t.fn, schedule.map_s.fn), np.asarray(x0.coords), steps + 1
    )
    return IterationTrace(
        coords=coords,
        generator=f"alternating({schedule.map_t.name},{schedule.map_s.name})",
        premetric=p,
        status=status,
    )


def cyclic_even_trace(
    map_t: NamedMap,
    setting: CyclicSetting,
    x0: Point,
    pairs: int,
    premetric: Premetric | None = None,
) -> IterationTrace:
    """Even-indexed subsequence coords[n] = T^{2n} x0 for n = 0..pairs, gaps
    measured under the gap-shifted premetric.  The full orbit (odd points
    included) rides along in aux_coords for diagnostics."""
    p = premetric if premetric is not None else shifted_premetric(setting)
    row = _start(x0, pairs, "double step", map_t.space, p.space)
    if not setting.set_a.contains_coords(row):
        raise InputError("starting point must lie in the first set")
    orbit, status = _orbit((map_t.fn,), row, 2 * pairs + 1)
    evens = orbit[::2]
    return IterationTrace(
        coords=evens,
        generator=f"cyclic_even({map_t.name})",
        premetric=p,
        status=status,
        aux_coords=orbit,
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
    if name not in SEQUENCE_NAMES:
        raise ConfigurationError(f"unknown sequence {name!r}; have {list(SEQUENCE_NAMES)}")
    coords = np.cumsum(1.0 / np.arange(1, length + 1))[:, None]
    p = premetric if premetric is not None else metric_premetric(space)
    if (p.space.id, p.space.dimension) != (space.id, 1):
        raise InputError(f"point {tuple(coords[0].tolist())} tagged {space.id!r} does not "
                         f"belong to space {p.space.id!r} (dimension {p.space.dimension})")
    return IterationTrace(
        coords=coords,
        generator="harmonic",
        premetric=p,
        status="completed",
    )

