"""Concrete spaces, premetrics and cyclic set pairs.

Everything downstream (traces, certificates, solvers) measures gaps through
a Premetric: a plain metric, a clamped cyclic shift of one, or a gauge
composed with an inner premetric.  Distances and premetrics each have one
array kernel (Space.distances, premetric_values) over coordinate arrays with
the coordinates on the last axis; the block functions, and the Point edges
Space.distance and eval_premetric, are thin layers over it.  Samples and
axiom triples are coordinate arrays too: every region draws with
sample_coords and tests rows with contains_coords.  Below 8 coordinates the
distance kernel builds no (..., d) difference block: it works column by
column, with the bits of the np.sum reduction it replaces.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from .errors import ConfigurationError, InputError
from .gauges import Gauge
from .reports import MAX_WITNESSES, CertificateReport, Verdict, witness

#: Default half-width of the working box used when sampling unbounded sets.
SAMPLING_CLIP = 100.0
#: Half-width of the default sampling region, a box around the origin.
REGION_HALF_WIDTH = 10.0


@dataclass(frozen=True)
class Point:
    """An immutable point tagged with the id of the space it lives in."""

    coords: tuple[float, ...]
    space_id: str = "default"

    def __post_init__(self) -> None:
        coords = tuple(float(c) for c in self.coords)
        if not coords:
            raise InputError("a point needs at least one coordinate")
        if not all(math.isfinite(c) for c in coords):
            raise InputError(f"coordinates must be finite, got {coords}")
        object.__setattr__(self, "coords", coords)


@dataclass(frozen=True)
class Space:
    """A finite-dimensional space with a selected distance.

    norm is "euclidean" or a float exponent >= 1 for a p-norm.  Coordinate
    arrays carry the coordinates on their last axis.
    """

    id: str
    dimension: int
    norm: Any = "euclidean"

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise ConfigurationError("space dimension must be >= 1")
        if isinstance(self.norm, str):
            if self.norm != "euclidean":
                raise ConfigurationError(f"unknown distance selector {self.norm!r}")
        elif float(self.norm) < 1.0:
            raise ConfigurationError("p-norm exponent must be >= 1")

    def point(self, *coords: float) -> Point:
        if len(coords) == 1 and isinstance(coords[0], (tuple, list, np.ndarray)):
            coords = tuple(coords[0])
        if len(coords) != self.dimension:
            raise InputError(f"space {self.id!r} is {self.dimension}-dimensional, got {coords}")
        return Point(tuple(float(c) for c in coords), self.id)

    def check_member(self, x: Point) -> None:
        if x.space_id != self.id or len(x.coords) != self.dimension:
            raise InputError(
                f"point {x.coords} tagged {x.space_id!r} does not belong to space "
                f"{self.id!r} (dimension {self.dimension})"
            )

    def distances(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The distance kernel: d(a, b) over the last axis of two coordinate
        arrays broadcast against each other.  Equal shapes give aligned
        distances; a[:, None] against b[None] gives the pairwise matrix.

        Below 8 coordinates no (..., d) difference block is built: each
        coordinate column becomes its term and the terms are added left to
        right, the order np.sum takes over a last axis shorter than 8, so
        the bits are the reduction's.  From 8 coordinates on np.sum adds
        pairwise, so there the kernel keeps the np.sum reduction.  Terms go
        through array ufuncs (np.power, not **, which rounds differently on
        a 0-d value), so a Point pair rounds like a block.

        Raises:
            InputError: an argument without a last axis of the space's width.
        """
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        widths = [x.shape[-1] if x.ndim else 0 for x in (a, b)]
        if widths != [self.dimension] * 2:
            raise InputError(
                f"space {self.id!r} is {self.dimension}-dimensional, got coordinate "
                f"arrays of width {widths[0]} and {widths[1]}"
            )
        p = None if self.norm == "euclidean" else float(self.norm)

        def term(c):
            return np.multiply(c, c) if p is None else np.power(np.abs(c), p)

        if self.dimension < 8:
            total = term(a[..., 0] - b[..., 0])
            for i in range(1, self.dimension):
                total = total + term(a[..., i] - b[..., i])
        else:
            total = np.sum(term(a - b), axis=-1)
        return np.sqrt(total) if p is None else np.power(total, 1.0 / p)

    def finite_distances(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """distances(a, b) of equal-shape arrays; a non-finite one is an InputError."""
        out = self.distances(a, b)
        for i in np.flatnonzero(~np.isfinite(out))[:1]:
            x, y = (tuple(np.reshape(c, (-1, self.dimension))[i].tolist()) for c in (a, b))
            raise InputError(f"distance evaluated to {float(out.flat[i])!r} on {x}, {y}")
        return out

    def distance(self, x: Point, y: Point) -> float:
        self.check_member(x)
        self.check_member(y)
        return float(self.finite_distances(x.coords, y.coords))


@dataclass(frozen=True)
class Box:
    """Axis-aligned sampling region."""

    lows: tuple[float, ...]
    highs: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.lows) != len(self.highs) or not self.lows:
            raise ConfigurationError("region bounds must be two equal-length tuples")
        if any(lo >= hi for lo, hi in zip(self.lows, self.highs)):
            raise ConfigurationError("region bounds must satisfy lo < hi in every axis")

    @property
    def dimension(self) -> int:
        return len(self.lows)

    def sample_coords(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.uniform(self.lows, self.highs, size=(n, self.dimension))

    def contains_coords(self, coords: np.ndarray) -> np.ndarray:
        return (np.less_equal(self.lows, coords) & np.less_equal(coords, self.highs)).all(axis=-1)


def default_region(space: Space) -> Box:
    return Box((-REGION_HALF_WIDTH,) * space.dimension, (REGION_HALF_WIDTH,) * space.dimension)


def sample_pairs(
    space: Space, region: Box, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Two (n, d) coordinate draws from region, xs first: pair i is
    (xs[i], ys[i])."""
    if region.dimension != space.dimension:
        raise InputError(f"region is {region.dimension}-dimensional, space {space.id!r} "
                         f"is {space.dimension}-dimensional")
    return region.sample_coords(rng, n), region.sample_coords(rng, n)


# ---------------------------------------------------------------------------
# Set specifications for cyclic settings


@dataclass(frozen=True)
class IntervalSet:
    """A (possibly unbounded) closed interval on a 1-dimensional space."""

    space: Space
    lo: float
    hi: float

    def __post_init__(self) -> None:
        if self.space.dimension != 1:
            raise ConfigurationError("interval sets require a 1-dimensional space")
        if math.isnan(self.lo) or math.isnan(self.hi):
            raise ConfigurationError(f"interval ends must be numbers, got [{self.lo}, {self.hi}]")
        if self.lo >= self.hi:
            raise ConfigurationError("interval needs lo < hi")

    def contains_coords(self, coords: np.ndarray) -> np.ndarray:
        x = np.asarray(coords, dtype=float)[..., 0]
        return (self.lo <= x) & (x <= self.hi)

    def sample_coords(self, rng: np.random.Generator, n: int) -> np.ndarray:
        lo = max(self.lo, -SAMPLING_CLIP)
        hi = min(self.hi, SAMPLING_CLIP)
        if lo >= hi:
            raise ConfigurationError("interval lies outside the sampling clip region")
        return rng.uniform(lo, hi, size=(n, 1))

    def describe(self) -> str:
        return f"interval[{self.lo}, {self.hi}]"


@dataclass(frozen=True)
class DiskSet:
    """A closed ball around a center point."""

    space: Space
    center: tuple[float, ...]
    radius: float

    def __post_init__(self) -> None:
        if len(self.center) != self.space.dimension:
            raise ConfigurationError("disk center dimension mismatch")
        if self.radius <= 0:
            raise ConfigurationError("disk radius must be positive")
        if not all(map(math.isfinite, (*self.center, self.radius))):
            raise ConfigurationError(f"disk center and radius must be finite, got "
                                     f"{self.center} and {self.radius}")

    def contains_coords(self, coords: np.ndarray) -> np.ndarray:
        return self.space.distances(coords, self.center) <= self.radius + 1e-12

    def sample_coords(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n uniform draws from the ball, with no rejection: for the p-norm
        (p = 2 if euclidean), Y_i = +-Gamma(1/p)^(1/p) and E ~ Exp(1) make
        Y / (sum |Y_i|^p + E)^(1/p) uniform in the unit ball (Barthe et al. 2005)."""
        p = 2.0 if self.space.norm == "euclidean" else float(self.space.norm)
        shape = (n, self.space.dimension)
        y = rng.choice((-1.0, 1.0), shape) * rng.gamma(1.0 / p, size=shape) ** (1.0 / p)
        u = y / ((np.sum(np.abs(y) ** p, axis=1) + rng.exponential(size=n)) ** (1.0 / p))[:, None]
        return np.asarray(self.center, dtype=float) + self.radius * u

    def describe(self) -> str:
        return f"disk(center={self.center}, r={self.radius})"


def _one_sided(lo: float, hi: float) -> float:
    # Separation candidate lo - hi, treating unbounded sides as no separation.
    if math.isinf(lo) and lo < 0:
        return -math.inf
    if math.isinf(hi) and hi > 0:
        return -math.inf
    return lo - hi


def _exact_gap(space: Space, a: Any, b: Any) -> float | None:
    """Closed-form gap for built-in set pairs; None when unavailable."""

    def as_interval(s: Any) -> tuple[float, float] | None:
        if isinstance(s, IntervalSet):
            return (s.lo, s.hi)
        if isinstance(s, DiskSet) and space.dimension == 1:
            return (s.center[0] - s.radius, s.center[0] + s.radius)
        return None

    ia, ib = as_interval(a), as_interval(b)
    if ia is not None and ib is not None:
        return max(0.0, _one_sided(ia[0], ib[1]), _one_sided(ib[0], ia[1]))
    if isinstance(a, DiskSet) and isinstance(b, DiskSet):
        centers = float(space.finite_distances(a.center, b.center))
        return max(0.0, centers - a.radius - b.radius)
    return None


def _require_sets_in(space: Space, set_a: Any, set_b: Any) -> None:
    """ConfigurationError unless both sets lie in space, where the gap
    between them is measured."""
    for side, s in (("set_a", set_a), ("set_b", set_b)):
        if s.space != space:
            raise ConfigurationError(f"{side} lies in space {s.space.id!r}, not in the "
                                     f"setting's space {space.id!r}")


@dataclass(frozen=True)
class CyclicSetting:
    """Two sets with the distance between them."""

    space: Space
    set_a: Any
    set_b: Any
    gap: float

    def __post_init__(self) -> None:
        _require_sets_in(self.space, self.set_a, self.set_b)
        # an infinite gap would make the shifted premetric 0 everywhere
        if not math.isfinite(self.gap):
            raise ConfigurationError(f"set gap must be finite, got {self.gap}")
        if self.gap < 0:
            raise ConfigurationError("set gap cannot be negative")

    @classmethod
    def derive(
        cls,
        space: Space,
        set_a: Any,
        set_b: Any,
    ) -> "CyclicSetting":
        """The setting with the closed-form gap between set_a and set_b;
        ConfigurationError for a pair of sets that has none."""
        _require_sets_in(space, set_a, set_b)
        gap = _exact_gap(space, set_a, set_b)
        if gap is None:
            raise ConfigurationError(f"no closed-form gap between sets of type "
                                     f"{type(set_a).__name__} and {type(set_b).__name__}")
        return cls(space, set_a, set_b, gap)


# ---------------------------------------------------------------------------
# Premetrics

CLAIM_NAMES = frozenset({"symmetric", "triangle", "mixed_triangle", "tau_distance"})
PREMETRIC_KINDS = ("metric", "shifted_cyclic", "composed")


@dataclass(frozen=True)
class Premetric:
    """A gap measure on a space, with declared (not assumed) properties.

    kind selects the evaluation rule:
      metric          -- the space distance itself
      shifted_cyclic  -- max(0, d(x, y) - gap) for a cyclic setting
      composed        -- gauge(inner(x, y))
    claims is the set of properties the caller asserts; they are verified
    (never trusted) by verify_premetric_axioms.
    """

    kind: str
    space: Space
    claims: frozenset = frozenset()
    setting: CyclicSetting | None = None
    gauge: Gauge | None = None
    inner: "Premetric | None" = None
    companion: "Premetric | None" = None

    def __post_init__(self) -> None:
        if self.kind not in PREMETRIC_KINDS:
            raise ConfigurationError(f"unknown premetric kind {self.kind!r}")
        unknown = set(self.claims) - CLAIM_NAMES
        if unknown:
            raise ConfigurationError(f"unknown premetric claims {sorted(unknown)}")
        if "mixed_triangle" in self.claims and self.companion is None:
            raise ConfigurationError("mixed_triangle claimed but no companion premetric given")
        if self.kind == "shifted_cyclic" and self.setting is None:
            raise ConfigurationError("shifted_cyclic premetric needs a cyclic setting")
        if self.kind == "composed" and (self.gauge is None or self.inner is None):
            raise ConfigurationError("composed premetric needs both a gauge and an inner premetric")
        for name in ("setting", "inner", "companion"):
            part = getattr(self, name)
            if part is not None and part.space != self.space:
                raise ConfigurationError(f"premetric {name} lies in space {part.space.id!r}, "
                                         f"not in the premetric's space {self.space.id!r}")
        object.__setattr__(self, "claims", frozenset(self.claims))

    def describe(self) -> str:
        if self.kind == "composed":
            return f"composed({self.gauge.name}, {self.inner.describe()})"
        if self.kind == "shifted_cyclic":
            return f"shifted(d - {self.setting.gap})"
        return "metric"


def metric_premetric(space: Space) -> Premetric:
    return Premetric(
        kind="metric",
        space=space,
        claims=frozenset({"symmetric", "triangle", "tau_distance"}),
    )


def shifted_premetric(setting: CyclicSetting) -> Premetric:
    """The clamped cyclic shift max(0, d - gap), with the metric itself as
    the mixed-triangle companion."""
    base = metric_premetric(setting.space)
    return Premetric(
        kind="shifted_cyclic",
        space=setting.space,
        claims=frozenset({"symmetric", "mixed_triangle"}),
        setting=setting,
        companion=base,
    )


def composed_premetric(gauge: Gauge, inner: Premetric, claims: frozenset = frozenset()) -> Premetric:
    return Premetric(
        kind="composed",
        space=inner.space,
        claims=frozenset(claims) | (frozenset({"symmetric"}) if "symmetric" in inner.claims else frozenset()),
        gauge=gauge,
        inner=inner,
    )


def _premetric_rule(p: Premetric, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if p.kind == "metric":
        return p.space.distances(a, b)
    if p.kind == "shifted_cyclic":
        return np.maximum(0.0, p.space.distances(a, b) - p.setting.gap)
    return p.gauge.apply_array(_premetric_rule(p.inner, a, b))


def premetric_values(p: Premetric, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The premetric kernel: p(a, b) over the last axis of two coordinate
    arrays broadcast against each other, checked finite and nonnegative."""
    out = _premetric_rule(p, np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    if not np.isfinite(out).all() or (out < 0).any():
        raise InputError(f"premetric {p.describe()} evaluated to a negative or non-finite "
                         "value; premetrics must be nonnegative and finite")
    return out


def premetric_masked(p: Premetric, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """premetric_values without its raise: the values, and the mask of the
    pairs on which it would raise, whose values mean nothing."""
    if p.kind != "composed":
        out = _premetric_rule(p, np.asarray(a, dtype=float), np.asarray(b, dtype=float))
        return out, ~np.isfinite(out) | (out < 0)
    inner, bad = premetric_masked(p.inner, a, b)
    out, off = p.gauge.masked(inner)
    return out, bad | off | ~np.isfinite(out) | (out < 0)


def eval_premetric(p: Premetric, x: Point, y: Point) -> float:
    """p(x, y) for two points of the premetric's space."""
    p.space.check_member(x)
    p.space.check_member(y)
    return float(premetric_values(p, x.coords, y.coords))


def premetric_matrix(p: Premetric, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Pairwise gap matrix between coordinate blocks (n, d) and (m, d)."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    return premetric_values(p, xs[:, None, :], ys[None, :, :])


def premetric_diagonal(p: Premetric, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Vector of p(x_i, y_i) for aligned coordinate blocks."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape:
        raise InputError("aligned blocks must have equal shapes")
    return premetric_values(p, xs, ys)


# ---------------------------------------------------------------------------
# Axiom verification


# the ordered position pairs (i, j) of a triple, and the permutations (a, b, c)
# of its positions in itertools order
_PAIRS = tuple(itertools.permutations(range(3), 2))
_PERMS = tuple(itertools.permutations(range(3)))


def verify_premetric_axioms(
    p: Premetric,
    sample: np.ndarray,
    eta: float = 1e-9,
) -> list[CertificateReport]:
    """Check every claimed property on the sampled (m, 3, d) triple block.

    Returns one report per claim (mixed_triangle yields two, one per
    inequality).  A fail report carries the first MAX_WITNESSES violations in
    (triple, permutation) order, each with its triple and the violation
    magnitude.

    Each premetric is evaluated once on the whole (triple, ordered pair)
    block.  A per-triple loop evaluates every ordered pair too, so the block
    raises exactly when such a loop does; the message then comes from the
    pairs evaluated one at a time in that loop's order.

    Raises:
        InputError: an empty sample or one that is no finite (m, 3, d) block,
            or a premetric value that is negative or non-finite.
    """
    try:
        sample = np.asarray(sample, dtype=float)
    except (TypeError, ValueError):
        sample = np.empty((1, 0))  # ragged: no block
    if sample.shape[:1] == (0,):
        raise InputError("axiom verification needs a non-empty triple sample")
    if sample.shape[1:] != (3, p.space.dimension) or not np.isfinite(sample).all():
        raise InputError(f"need an (m, 3, {p.space.dimension}) block of finite triple coordinates")
    try:
        return _axiom_reports(p, sample, eta)
    except InputError:
        for q, a, b in _axiom_evaluations(p, sample):
            premetric_values(q, a, b)
        raise


def _axiom_evaluations(p: Premetric, sample: np.ndarray):
    """(premetric, a, b), coordinate rows, in the order a per-triple loop
    over the claims evaluates them."""
    if "symmetric" in p.claims:
        for t in sample:
            for i, j in ((0, 1), (1, 2), (0, 2)):
                yield p, t[i], t[j]
                yield p, t[j], t[i]
    for claim in ("triangle", "tau_distance"):
        if claim in p.claims:
            for t in sample:
                for a, b, c in itertools.permutations(t):
                    yield from ((p, a, c), (p, a, b), (p, b, c))
    if "mixed_triangle" in p.claims:
        r = p.companion
        for t in sample:
            for a, c, b in itertools.permutations(t):
                yield from ((p, a, c), (p, a, b), (r, b, c), (r, a, b), (p, b, c))


def _pair_values(q: Premetric, sample: np.ndarray) -> dict:
    """{(i, j): q(t[i], t[j]) over the triples t} for every ordered pair."""
    first, second = zip(*_PAIRS)
    values = premetric_values(q, sample[:, first], sample[:, second])
    return {pair: values[:, k] for k, pair in enumerate(_PAIRS)}


def _axiom_reports(p: Premetric, sample: np.ndarray, eta: float) -> list[CertificateReport]:
    note = f"checked {len(sample)} sampled triples with slack eta={eta}"
    reports: list[CertificateReport] = []
    gap = _pair_values(p, sample) if p.claims else {}

    def report(cid: str, bad: list[dict]) -> CertificateReport:
        return CertificateReport(cid, Verdict.FAIL if bad else Verdict.PASS, bad,
                                 resolution_note=note)

    def triangle_witnesses(lhs: np.ndarray, rhs: np.ndarray, perms) -> list[dict]:
        # argwhere is row-major: the first ones in (triple, permutation) order
        bad = []
        for t, k in np.argwhere(lhs > rhs + eta)[:MAX_WITNESSES].tolist():
            a, b, c = perms[k]
            value, bound = lhs[t, k], rhs[t, k]
            bad.append(witness(x=sample[t, a], via=sample[t, b], y=sample[t, c],
                               lhs=value, rhs=bound, violation=value - bound))
        return bad

    if "symmetric" in p.claims:
        sym = ((0, 1), (1, 2), (0, 2))
        diff = np.abs(np.stack([gap[i, j] - gap[j, i] for i, j in sym], axis=1))
        reports.append(report("AX-SYM", [
            witness(x=sample[t, sym[k][0]], y=sample[t, sym[k][1]], asymmetry=diff[t, k])
            for t, k in np.argwhere(diff > eta)[:MAX_WITNESSES].tolist()]))

    if "triangle" in p.claims or "tau_distance" in p.claims:
        lhs = np.stack([gap[a, c] for a, b, c in _PERMS], axis=1)
        rhs = np.stack([gap[a, b] + gap[b, c] for a, b, c in _PERMS], axis=1)
        bad = triangle_witnesses(lhs, rhs, _PERMS)
        if "triangle" in p.claims:
            reports.append(report("AX-TRI", bad))
        if "tau_distance" in p.claims:
            rep = report("AX-TAU", list(bad))
            rep.resolution_note = (
                note + "; only the triangle facet is sampled here, the sup-tail "
                "criterion facet is exercised by the Cauchy diagnostic"
            )
            reports.append(rep)

    if "mixed_triangle" in p.claims:
        r = _pair_values(p.companion, sample)
        # the permutations name their positions (a, c, b)
        perms = [(a, b, c) for a, c, b in _PERMS]
        lhs = np.stack([gap[a, c] for a, b, c in perms], axis=1)
        right = np.stack([gap[a, b] + r[b, c] for a, b, c in perms], axis=1)
        left = np.stack([r[a, b] + gap[b, c] for a, b, c in perms], axis=1)
        reports.append(report("AX-MIX-R", triangle_witnesses(lhs, right, perms)))
        reports.append(report("AX-MIX-L", triangle_witnesses(lhs, left, perms)))
    return reports
