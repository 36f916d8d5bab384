"""The array kernels against plain per-point references.

fplab evaluates maps, distances and premetrics on coordinate arrays with the
coordinates on the last axis.  Each reference below is the per-point loop
those kernels replaced, written with Python floats, and every property asks
for exact equality: the reports are pinned byte for byte, so one ulp counts.
"""

import importlib.util
import inspect
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

import fplab
from fplab.certificates import _orbit_block, check_banach_rate
from fplab.errors import InputError
from fplab.expressions import compile_expression
from fplab.gauges import builtin_gauge, expression_gauge
from fplab.maps import builtin_map, expression_map
from fplab.reports import CertificateReport, SearchBudget, Verdict, witness
from fplab.spaces import (
    Box,
    CyclicSetting,
    DiskSet,
    Space,
    composed_premetric,
    custom_premetric,
    default_region,
    eval_premetric,
    metric_premetric,
    premetric_diagonal,
    premetric_matrix,
    shifted_premetric,
)
from fplab.traces import ESCAPE_NORM, picard_trace

# ---------------------------------------------------------------------------
# References: the per-point loops the kernels replaced

# the builtin maps as they were written per coordinate, on Python floats
SCALAR_MAPS = {
    "half": lambda c: 0.5 * c,
    "mk": lambda c: c / (1.0 + c),
    "translation": lambda c: c + 1.0,
    "flip": lambda c: 1.0 - c,
    "neg": lambda c: -c,
    "cyclic_reflect": lambda c: -0.5 * (abs(c) + 1.0) * float(np.sign(c) if c != 0 else 1.0),
}
EXPRESSIONS = ("min(1/x, 5)", "x * x", "0.5 * x + 1.0")


def scalar_step(name: str):
    """Maps one coordinate tuple to its image, one float at a time.  A
    division by zero gives NaN, as the expression grammar documents."""
    if name in SCALAR_MAPS:
        fn = SCALAR_MAPS[name]
    else:
        expr = compile_expression(name, variables=("x",))

        def fn(c):
            return float(expr(x=c))

    def step(coords):
        out = []
        for c in coords:
            try:
                with np.errstate(all="ignore"):
                    out.append(fn(c))
            except ZeroDivisionError:
                out.append(math.nan)
        return tuple(out)

    return step


def orbit_block_reference(step, seeds: np.ndarray, n_steps: int):
    """The row-by-row loop: an escaping row is frozen at its last good point."""
    k, dim = seeds.shape
    orbits = np.empty((k, n_steps, dim))
    orbits[:, 0, :] = seeds
    alive = np.full(k, n_steps, dtype=int)
    current = [tuple(row) for row in seeds]
    for s in range(1, n_steps):
        for idx in range(k):
            if alive[idx] < n_steps:
                orbits[idx, s] = orbits[idx, s - 1]
                continue
            nxt = step(current[idx])
            if not all(np.isfinite(nxt)) or max(abs(c) for c in nxt) > ESCAPE_NORM:
                alive[idx] = s
                orbits[idx, s] = orbits[idx, s - 1]
                continue
            current[idx] = nxt
            orbits[idx, s] = nxt
    return orbits, alive


def euclidean_reference(a, b) -> float:
    total = 0.0
    for u, v in zip(a, b):
        total += (u - v) * (u - v)
    return math.sqrt(total)


def pair_distance_curves_reference(space: Space, xs: np.ndarray, ys: np.ndarray):
    """d(x_step, y_step) per pair row, one Point pair at a time."""
    k, n, _ = xs.shape
    out = np.empty((k, n))
    for i in range(k):
        for s in range(n):
            out[i, s] = space.distance(space.point(*xs[i, s]), space.point(*ys[i, s]))
    return out


def premetric_reference(p, a, b) -> float:
    """One pair, one rule per kind, on Python floats where the rule allows."""
    if p.kind == "metric":
        return euclidean_reference(a, b)
    if p.kind == "shifted_cyclic":
        return max(0.0, euclidean_reference(a, b) - p.setting.gap)
    if p.kind == "composed":
        return p.gauge(premetric_reference(p.inner, a, b))
    return float(p.fn(x=np.asarray(a), y=np.asarray(b)))


def banach_rate_reference(map_t, space, budget, region, seed=0, margin=1e-3):
    """check_banach_rate's per-pair loop: the first strictly larger ratio wins."""
    rng = np.random.default_rng(seed)
    sup_ratio, sup_at = -np.inf, {}

    def consider(a, b):
        nonlocal sup_ratio, sup_at
        d0 = space.distance(a, b)
        if d0 <= 1e-12:
            return
        r = space.distance(map_t(a), map_t(b)) / d0
        if r > sup_ratio:
            sup_ratio = r
            sup_at = {"x": list(a.coords), "y": list(b.coords), "ratio": r}

    coords_a = region.sample_coords(rng, budget.pair_samples)
    coords_b = region.sample_coords(rng, budget.pair_samples)
    for ca, cb in zip(coords_a, coords_b):
        consider(space.point(*ca), space.point(*cb))
    lows, highs = np.asarray(region.lows), np.asarray(region.highs)
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        base = lows + frac * (highs - lows)
        for h in (10.0 ** -k for k in range(1, 8)):
            shifted = base.copy()
            shifted[0] += h
            if not region.contains_coords(shifted):
                shifted = base.copy()
                shifted[0] -= h
                if not region.contains_coords(shifted):
                    continue
            consider(space.point(*base), space.point(*shifted))
    note = (
        f"{budget.pair_samples} sampled pairs plus a deterministic short-separation "
        f"ladder; pass needs sup ratio <= {1 - margin}"
    )
    verdict = Verdict.PASS if sup_ratio <= 1.0 - margin else Verdict.FAIL
    return CertificateReport("RATE", verdict, [witness(**sup_at)], budget, note)


# ---------------------------------------------------------------------------
# Strategies

# coordinates with the values that matter drawn often: zero, the pole of
# mk, and points a few steps short of the escape bound
special = st.sampled_from([0.0, -0.0, -1.0, 1.0, ESCAPE_NORM - 2.5, -ESCAPE_NORM + 0.5])
coord = st.one_of(special, st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
                  st.floats(min_value=-2e9, max_value=2e9, allow_nan=False))
small = st.floats(min_value=-40.0, max_value=40.0, allow_nan=False)


def blocks(elements):
    """(rows, dim) coordinate blocks."""
    return st.tuples(st.integers(1, 6), st.integers(1, 3)).flatmap(
        lambda shape: hnp.arrays(float, shape, elements=elements))


NORMS = ("euclidean", 1.0, 1.5, 3.0)


# ---------------------------------------------------------------------------
# Maps and orbits


class TestOrbitBlock:
    @given(name=st.sampled_from(sorted(SCALAR_MAPS) + list(EXPRESSIONS)),
           seeds=blocks(coord), n_steps=st.integers(1, 12))
    def test_batched_orbits_equal_the_row_loop(self, name, seeds, n_steps):
        space = Space(id="s", dimension=seeds.shape[1])
        m = builtin_map(name, space) if name in SCALAR_MAPS else expression_map(space, name)
        orbits, alive = _orbit_block(m, seeds, n_steps)
        want_orbits, want_alive = orbit_block_reference(scalar_step(name), seeds, n_steps)
        assert alive.tolist() == want_alive.tolist()
        assert orbits.tobytes() == want_orbits.tobytes()

    def test_escapes_are_exercised(self):
        line = Space(id="line", dimension=1)
        seeds = np.array([[ESCAPE_NORM - 2.5], [0.0], [3.0]])
        _, alive = _orbit_block(builtin_map("translation", line), seeds, 6)
        assert alive.tolist() == [3, 6, 6]
        orbits, alive = _orbit_block(expression_map(line, "min(1/x, 5)"), seeds, 6)
        assert alive.tolist() == [6, 1, 6]
        assert (orbits[1] == 0.0).all()

    @given(name=st.sampled_from(sorted(SCALAR_MAPS)), coords=blocks(small))
    def test_point_edge_is_one_row_of_the_kernel(self, name, coords):
        space = Space(id="s", dimension=coords.shape[1])
        m = builtin_map(name, space)
        with np.errstate(all="ignore"):
            block = m.fn(coords)
        for row, image in zip(coords, block):
            if np.isfinite(image).all():
                assert m(space.point(*row)).coords == tuple(image.tolist())
            else:
                with pytest.raises(InputError):
                    m(space.point(*row))


# ---------------------------------------------------------------------------
# Distances


class TestDistanceKernel:
    @given(norm=st.sampled_from(NORMS),
           pair=st.tuples(st.integers(1, 4), st.integers(1, 5), st.integers(1, 3)).flatmap(
               lambda s: st.tuples(hnp.arrays(float, s, elements=small),
                                   hnp.arrays(float, s, elements=small))))
    def test_aligned_equals_the_point_loop(self, norm, pair):
        xs, ys = pair
        space = Space(id="s", dimension=xs.shape[-1], norm=norm)
        got = space.distances(xs, ys)
        assert got.tobytes() == pair_distance_curves_reference(space, xs, ys).tobytes()

    @given(norm=st.sampled_from(NORMS), dim=st.integers(1, 3),
           n=st.integers(1, 5), m=st.integers(1, 5), data=st.data())
    def test_pairwise_equals_the_point_loop(self, norm, dim, n, m, data):
        a = data.draw(hnp.arrays(float, (n, dim), elements=small))
        b = data.draw(hnp.arrays(float, (m, dim), elements=small))
        space = Space(id="s", dimension=dim, norm=norm)
        got = space.distances(a[:, None], b[None])
        for i in range(n):
            for j in range(m):
                # bit for bit: the Point edge rounds like the block
                assert got[i, j] == space.distance(space.point(*a[i]), space.point(*b[j]))

    @given(pair=st.integers(1, 3).flatmap(
        lambda d: st.tuples(hnp.arrays(float, d, elements=small),
                            hnp.arrays(float, d, elements=small))))
    def test_euclidean_and_taxi_equal_plain_float_formulas(self, pair):
        a, b = pair
        d = a.shape[0]
        assert Space("e", d).distances(a, b) == euclidean_reference(a, b)
        taxi = 0.0
        for u, v in zip(a, b):
            taxi += abs(u - v)
        assert Space("t", d, norm=1.0).distances(a, b) == taxi

    def test_width_guard(self):
        with pytest.raises(InputError, match="2-dimensional"):
            Space("p", 2).distances(np.zeros((3, 1)), np.zeros((3, 2)))


# ---------------------------------------------------------------------------
# Premetrics

PLANE = Space(id="plane", dimension=2)
SETTING = CyclicSetting.derive(PLANE, DiskSet(PLANE, (20.0, 0.0), 5.0),
                               DiskSet(PLANE, (-20.0, 0.0), 5.0))
PREMETRICS = {
    "metric": metric_premetric(PLANE),
    "shifted_cyclic": shifted_premetric(SETTING),
    "composed_mk": composed_premetric(builtin_gauge("mk"), metric_premetric(PLANE)),
    "composed_expression": composed_premetric(
        expression_gauge("t / (1 + t) + min(t, 2 / (1 + t))"), shifted_premetric(SETTING)),
    "custom": custom_premetric(PLANE, compile_expression(
        "abs(x[0] - y[0]) / (1 + abs(x[1] - y[1])) + 0.5 * abs(x[1] - y[1])", ("x", "y"))),
}


class TestPremetricKernel:
    @given(name=st.sampled_from(sorted(PREMETRICS)), n=st.integers(1, 5),
           m=st.integers(1, 5), data=st.data())
    def test_matrix_and_diagonal_equal_the_pair_loop(self, name, n, m, data):
        p = PREMETRICS[name]
        xs = data.draw(hnp.arrays(float, (n, 2), elements=small))
        ys = data.draw(hnp.arrays(float, (m, 2), elements=small))
        mat = premetric_matrix(p, xs, ys)
        assert mat.shape == (n, m)
        for i in range(n):
            for j in range(m):
                want = premetric_reference(p, xs[i], ys[j])
                assert mat[i, j] == want
                assert eval_premetric(p, PLANE.point(*xs[i]), PLANE.point(*ys[j])) == want
        k = min(n, m)
        diag = premetric_diagonal(p, xs[:k], ys[:k])
        assert diag.tolist() == [premetric_reference(p, xs[i], ys[i]) for i in range(k)]

    @given(x0=st.floats(min_value=0.0, max_value=30.0, allow_nan=False),
           name=st.sampled_from(["metric", "composed_mk"]))
    def test_trace_gaps_equal_the_pair_loop(self, x0, name):
        line = Space(id="line", dimension=1)
        inner = metric_premetric(line)
        p = inner if name == "metric" else composed_premetric(builtin_gauge("mk"), inner)
        tr = picard_trace(builtin_map("mk", line), line.point(x0), 20, premetric=p)
        want = [premetric_reference(p, a.coords, b.coords)
                for a, b in zip(tr.points, tr.points[1:])]
        assert list(tr.consecutive_gaps) == want

    def test_nonfinite_or_negative_values_are_refused(self):
        neg = custom_premetric(PLANE, compile_expression("x[0] - y[0]", ("x", "y")))
        with pytest.raises(InputError, match="nonnegative and finite"):
            premetric_diagonal(neg, np.zeros((2, 2)), np.ones((2, 2)))
        pole = custom_premetric(PLANE, compile_expression("1 / (x[0] - y[0])", ("x", "y")))
        with pytest.raises(InputError, match="nonnegative and finite"):
            eval_premetric(pole, PLANE.point(1.0, 0.0), PLANE.point(1.0, 5.0))

    def test_constant_custom_premetric_broadcasts(self):
        one = custom_premetric(PLANE, compile_expression("1.0", ("x", "y")))
        assert premetric_matrix(one, np.zeros((3, 2)), np.zeros((4, 2))).shape == (3, 4)


# ---------------------------------------------------------------------------
# The contraction-rate sweep


class TestBanachRate:
    @pytest.mark.parametrize("name", ["half", "mk", "flip", "cyclic_reflect",
                                      "0.5 * x + 1.0", "min(1/x, 5)"])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_report_equals_the_pair_loop(self, name, dim):
        space = Space(id="s", dimension=dim)
        m = builtin_map(name, space) if name in SCALAR_MAPS else expression_map(space, name)
        budget = SearchBudget(pair_samples=64)
        region = Box((0.5,) * dim, (9.0,) * dim)
        got = check_banach_rate(m, space, budget, region, seed=3)
        want = banach_rate_reference(m, space, budget, region, seed=3)
        assert got.to_json() == want.to_json()

    def test_ties_keep_the_first_pair(self):
        # halving scales every distance by exactly 0.5, so all ratios tie
        line = Space(id="line", dimension=1)
        budget = SearchBudget(pair_samples=16)
        region = default_region(line)
        rep = check_banach_rate(builtin_map("half", line), line, budget, region, seed=5)
        rng = np.random.default_rng(5)
        first_a = region.sample_coords(rng, 16)[0]
        first_b = region.sample_coords(rng, 16)[0]
        assert rep.witnesses == [{"x": first_a.tolist(), "y": first_b.tolist(), "ratio": 0.5}]

    def test_nonfinite_image_is_an_input_error(self):
        line = Space(id="line", dimension=1)
        with pytest.raises(InputError, match="non-finite"):
            check_banach_rate(expression_map(line, "1 / x"), line, SearchBudget(pair_samples=8),
                              Box((-1.0,), (1.0,)))


# ---------------------------------------------------------------------------
# The benchmark's tracer wraps fplab functions by name


def _tracing_module():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = _tracing_module()
    names = [(module, attr) for module, attrs in tracing.SPANNED.items() for attr in attrs]
    names += list(tracing.COUNTED.values())
    for module, attr in names:
        owner = getattr(fplab, module)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
            assert owner is not None, f"fplab.{module}.{attr} is traced but gone"
    for fn in (fplab.spaces.premetric_matrix, fplab.spaces.premetric_diagonal):
        assert {"xs", "ys"} <= set(inspect.signature(fn).parameters)
