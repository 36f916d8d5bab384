"""Property tests for the structural invariants the rest of the suite
leans on: premetric axioms, gauge family composition, verdict algebra,
JSON sanitization, the one JSON writer, the few places a Point is built,
the trace gap caches, one builder per kind of checker input, one home per
input rule, checkers that measure with their inputs' own premetric and
space, a schema walk that loads no checker, entry points that load only
the layer they run, one home for the names a document chooses among, and
references that evaluate without the kernels they check.
"""

import ast
import importlib
import inspect
import json
import math
import os
import re
import subprocess
import sys
import typing
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from fplab import certificates, reports, scenario, solvers, traces
from fplab.gallery import get_entry, list_gallery
from fplab.gauges import Gauge, GaugeFamily, _members, builtin_gauge, iterated_family
from fplab.maps import NamedMap, builtin_map, expression_map
from fplab.reports import SearchBudget, Verdict, sanitize, worst_verdict
from fplab.spaces import (
    Box,
    CyclicSetting,
    IntervalSet,
    Premetric,
    Space,
    composed_premetric,
    eval_premetric,
    metric_premetric,
    shifted_premetric,
)
from fplab.traces import AlternatingSchedule, IterationTrace, alternating_trace, picard_trace

from reference import axioms_reference, banach_rate_reference, check_asf1_reference, \
    check_asmk_reference, check_p_controls_d_reference, fpsi_reference, premetric_reference, \
    regularity_reference, solve_best_proximity_reference, solve_common_fixed_point_reference, \
    solve_fixed_point_reference, to_csv_reference

LINE = Space(id="line", dimension=1)
PLANE = Space(id="plane", dimension=2)
D1 = metric_premetric(LINE)
D2 = metric_premetric(PLANE)

coord = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
small_t = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)


class TestPremetricAxioms:
    @given(ax=coord, ay=coord, bx=coord, by=coord)
    def test_metric_axioms_in_the_plane(self, ax, ay, bx, by):
        x, y = PLANE.point(ax, ay), PLANE.point(bx, by)
        d = eval_premetric(D2, x, y)
        assert d >= 0.0
        assert eval_premetric(D2, y, x) == d
        assert eval_premetric(D2, x, x) == 0.0

    @given(ax=coord, ay=coord, bx=coord, by=coord, cx=coord, cy=coord)
    def test_triangle_inequality(self, ax, ay, bx, by, cx, cy):
        x, y, z = PLANE.point(ax, ay), PLANE.point(bx, by), PLANE.point(cx, cy)
        xz = eval_premetric(D2, x, z)
        assert xz <= eval_premetric(D2, x, y) + eval_premetric(D2, y, z) + 1e-9 * (1 + xz)

    @given(a=st.floats(min_value=1.0, max_value=1e3, allow_nan=False),
           b=st.floats(min_value=-1e3, max_value=-1.0, allow_nan=False))
    def test_shifted_gap_clamps_at_zero(self, a, b):
        setting = CyclicSetting.derive(LINE,
                                       IntervalSet(LINE, 1.0, math.inf),
                                       IntervalSet(LINE, -math.inf, -1.0))
        p = shifted_premetric(setting)
        got = eval_premetric(p, LINE.point(a), LINE.point(b))
        assert got == max(0.0, abs(a - b) - setting.gap)
        assert got >= 0.0
        assert eval_premetric(p, LINE.point(b), LINE.point(a)) == got

    @given(a=st.floats(min_value=-400.0, max_value=400.0, allow_nan=False),
           b=st.floats(min_value=-400.0, max_value=400.0, allow_nan=False))
    def test_composed_value_is_gauge_of_inner(self, a, b):
        # coordinates stay small enough to keep the inner distance inside
        # the gauge's working range
        g = builtin_gauge("mk")
        p = composed_premetric(g, D1)
        x, y = LINE.point(a), LINE.point(b)
        inner = eval_premetric(D1, x, y)
        assert eval_premetric(p, x, y) == g(inner)
        assert eval_premetric(p, x, y) < 1.0  # t/(1+t) stays below one


def _member(fam: GaugeFamily, n: int, t: float) -> float:
    """Member n (from 1) at t: the n-th step of the family walk."""
    *_, v = _members(fam, t, n)
    return float(v)


class TestGaugeFamily:
    @given(m=st.integers(min_value=1, max_value=20),
           n=st.integers(min_value=1, max_value=20), t=small_t)
    def test_iterated_family_composes(self, m, n, t):
        fam = GaugeFamily(kind="iterated", zero_fixed=True,
                          base=builtin_gauge("mk"))
        whole = _member(fam, m + n, t)
        stacked = _member(fam, m, _member(fam, n, t))
        assert whole == stacked or abs(whole - stacked) <= 1e-12 * (1.0 + whole)

    @given(n=st.integers(min_value=1, max_value=30), t=small_t)
    def test_mk_iterates_match_the_closed_form(self, n, t):
        fam = GaugeFamily(kind="iterated", zero_fixed=True,
                          base=builtin_gauge("mk"))
        expected = t / (1.0 + n * t) if t else 0.0
        assert abs(_member(fam, n, t) - expected) <= 1e-12 * (1.0 + expected)

    @given(n=st.integers(min_value=1, max_value=40))
    def test_zero_stays_fixed(self, n):
        fam = GaugeFamily(kind="iterated", zero_fixed=True,
                          base=builtin_gauge("half"))
        assert _member(fam, n, 0.0) == 0.0


verdicts = st.sampled_from([Verdict.PASS, Verdict.FAIL, Verdict.INCONCLUSIVE])


class TestVerdictAlgebra:
    @given(vs=st.lists(verdicts, min_size=1, max_size=8))
    def test_dominance(self, vs):
        worst = worst_verdict(vs)
        if Verdict.FAIL in vs:
            assert worst is Verdict.FAIL
        elif Verdict.INCONCLUSIVE in vs:
            assert worst is Verdict.INCONCLUSIVE
        else:
            assert worst is Verdict.PASS

    @given(vs=st.lists(verdicts, min_size=1, max_size=8))
    def test_order_invariance(self, vs):
        assert worst_verdict(vs) is worst_verdict(list(reversed(vs)))

    @given(vs=st.lists(verdicts, min_size=2, max_size=8))
    def test_fold_agrees_with_one_shot(self, vs):
        folded = vs[0]
        for v in vs[1:]:
            folded = worst_verdict([folded, v])
        assert folded is worst_verdict(vs)

    @given(v=verdicts)
    def test_single_verdict_is_its_own_worst(self, v):
        assert worst_verdict([v]) is v


json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-2**40, max_value=2**40),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.text(max_size=12),
)
json_values = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=6), children, max_size=4)),
    max_leaves=12,
)


class TestSanitize:
    @given(value=json_values)
    def test_output_survives_a_json_round_trip(self, value):
        clean = sanitize(value)
        assert json.loads(json.dumps(clean)) == clean

    @given(value=json_values)
    def test_idempotent(self, value):
        clean = sanitize(value)
        assert sanitize(clean) == clean

    @given(xs=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                       max_size=6))
    def test_numpy_vectors_become_plain_lists(self, xs):
        import numpy as np

        clean = sanitize(np.asarray(xs))
        assert clean == xs
        assert all(type(v) is float for v in clean)

    def test_numpy_bools_become_plain_bools(self):
        import numpy as np

        assert sanitize(np.True_) is True
        clean = sanitize(np.array([True, False]))
        assert clean == [True, False]
        assert all(type(v) is bool for v in clean)


class TestSearchBudgetScaling:
    @given(factor=st.floats(min_value=0.01, max_value=10.0, allow_nan=False))
    def test_knobs_stay_positive_and_grids_untouched(self, factor):
        budget = SearchBudget(nu_horizon=16, index_horizon=64, pair_samples=50)
        scaled = budget.scaled(factor)
        assert scaled.nu_horizon >= 1
        assert scaled.index_horizon >= 1
        assert scaled.pair_samples >= 1
        assert scaled.nu_horizon == max(1, round(16 * factor))
        assert scaled.eps_grid == budget.eps_grid
        assert scaled.delta_candidates == budget.delta_candidates
        assert scaled.slack == budget.slack

    def test_identity_scale(self):
        budget = SearchBudget(nu_horizon=16, index_horizon=64, pair_samples=50)
        assert budget.scaled(1.0) == budget


class TestTraceCaches:
    @given(c=st.floats(min_value=0.1, max_value=0.9, allow_nan=False),
           x0=st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
           steps=st.integers(min_value=1, max_value=10))
    @settings(max_examples=40)
    def test_picard_gap_cache_matches_recomputation(self, c, x0, steps):
        tr = picard_trace(expression_map(LINE, f"{c!r} * x"), LINE.point(x0), steps)
        for gap, a, b in zip(tr.gaps.tolist(), tr.coords, tr.coords[1:]):
            assert gap == eval_premetric(D1, LINE.point(a), LINE.point(b))

    @given(seed=st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
           steps=st.integers(min_value=1, max_value=9))
    @settings(max_examples=40)
    def test_alternating_orbit_respects_the_schedule(self, seed, steps):
        t, s = builtin_map("quarter", LINE), builtin_map("fifth", LINE)
        tr = alternating_trace(AlternatingSchedule(t, s), LINE.point(seed), steps)
        # the seed is consumed by S; after that the maps take turns with
        # T acting on the even-indexed points
        x = s(LINE.point(seed))
        assert tuple(tr.coords[0].tolist()) == x.coords
        for n in range(len(tr) - 1):
            x = t(x) if n % 2 == 0 else s(x)
            assert tuple(tr.coords[n + 1].tolist()) == x.coords

    @given(c=st.floats(min_value=0.1, max_value=0.9, allow_nan=False),
           x0=st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
           steps=st.integers(min_value=2, max_value=10))
    @settings(max_examples=40)
    def test_csv_round_trips_every_coordinate(self, c, x0, steps):
        tr = picard_trace(expression_map(LINE, f"{c!r} * x"), LINE.point(x0), steps)
        lines = tr.to_csv().splitlines()
        assert lines[0] == "n,x0,p_gap"
        for n, line in enumerate(lines[1:]):
            cells = line.split(",")
            assert int(cells[0]) == n
            assert float(cells[1]) == tr.coords[n, 0]
            if n < len(tr) - 1:
                assert float(cells[2]) == tr.gaps[n]
            else:
                assert cells[2] == ""


class TestExpressionsAgainstReference:
    @given(a=st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
           b=st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
           v=coord)
    @settings(max_examples=60)
    def test_affine_map_matches_direct_arithmetic(self, a, b, v):
        m = expression_map(LINE, f"{a!r} * x + {b!r}")
        assert m(LINE.point(v)).coords[0] == a * v + b

    @given(t=small_t)
    def test_builtin_gauges_match_their_formulas(self, t):
        assert builtin_gauge("half")(t) == 0.5 * t
        assert builtin_gauge("mk")(t) == t / (1.0 + t)


class _Scoped(ast.NodeVisitor):
    """Keeps the dotted class.function path of the node being visited."""

    def __init__(self):
        self.scope = []

    def _enter(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _enter


def _scan(visitor_class) -> list:
    """One visitor per module of src/fplab, in file order."""
    found = []
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "fplab").glob("*.py")):
        visitor = visitor_class()
        visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
        found.append((path.stem, visitor))
    return found


class _JsonWriters(_Scoped):
    """Collects the enclosing class.function of every json.dump(s) call,
    every `from json import`, and every class that defines a JSON method."""

    def __init__(self):
        super().__init__()
        self.calls, self.imports, self.methods = [], [], []

    def visit_ClassDef(self, node):
        self.methods += [f"{node.name}.{f.name}" for f in node.body
                         if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
                         and f.name in ("to_json", "to_json_obj")]
        self._enter(node)

    def visit_ImportFrom(self, node):
        if node.module == "json":
            self.imports.append(".".join(self.scope) or "<module>")

    def visit_Call(self, node):
        f = node.func
        if (isinstance(f, ast.Attribute) and f.attr in ("dump", "dumps")
                and isinstance(f.value, ast.Name) and f.value.id == "json"):
            self.calls.append(".".join(self.scope))
        self.generic_visit(node)


def test_one_json_writer():
    """Every artifact is reports.sanitize of the result objects, written in
    one place: no class hand-writes a JSON form, and only
    runner._Sink.write_json calls json.dump or json.dumps."""
    calls, imports, methods = [], [], []
    for module, found in _scan(_JsonWriters):
        calls += [f"{module}.{c}" for c in found.calls]
        imports += [f"{module}.{i}" for i in found.imports]
        methods += [f"{module}.{m}" for m in found.methods]
    assert methods == []
    assert imports == []
    assert calls == ["runner._Sink.write_json"]


class _PointBuilders(_Scoped):
    """Collects the enclosing class.function of every Point(...) and
    .point(...) call."""

    def __init__(self):
        super().__init__()
        self.calls = []

    def visit_Call(self, node):
        f = node.func
        if (isinstance(f, ast.Name) and f.id == "Point") or \
                (isinstance(f, ast.Attribute) and f.attr in ("Point", "point")):
            self.calls.append(".".join(self.scope))
        self.generic_visit(node)


def test_points_are_built_only_at_the_public_edge():
    """Orbits, samples and triples are coordinate arrays: a Point is built
    only where a caller hands one in (a document's seed, Space.point) or
    takes one out (a map applied to a Point, SolveResult.point)."""
    calls = sorted({f"{module}.{c}" for module, found in _scan(_PointBuilders)
                    for c in found.calls})
    assert calls == [
        "maps.NamedMap.__call__",
        "scenario._param",
        "scenario._walk",
        "solvers.solve_best_proximity",
        "solvers.solve_common_fixed_point",
        "solvers.solve_fixed_point",
        "spaces.Space.point",
    ]


class _InputErrorHandlers(_Scoped):
    """Collects the enclosing class.function of every except clause that
    names InputError."""

    def __init__(self):
        super().__init__()
        self.sites = []

    def visit_ExceptHandler(self, node):
        caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        if any(isinstance(c, ast.Name) and c.id == "InputError" for c in caught):
            self.sites.append(".".join(self.scope))
        self.generic_visit(node)


def test_only_the_listed_sites_catch_an_input_error():
    """A kernel that raises has one masked form (Gauge.masked,
    spaces.premetric_masked) for a caller that must find its first bad
    element in loop order; a block evaluation retried element by element
    after an InputError stays only where README says why."""
    sites = sorted({f"{module}.{s}" for module, found in _scan(_InputErrorHandlers)
                    for s in found.sites})
    assert sites == [
        "certificates.check_f_psi_contraction",
        "gauges.check_family_C6",
        "solvers._edge_residual",
        "solvers._walk",
        "spaces.verify_premetric_axioms",
    ]


class _Calls(_Scoped):
    """Maps each called name (a method by its attribute, a numpy function
    as np.name) to the enclosing class.function of every call."""

    def __init__(self):
        super().__init__()
        self.calls = {}

    def visit_Call(self, node):
        f = node.func
        name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
        if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name) and f.value.id == "np":
            name = f"np.{name}"
        self.calls.setdefault(name, []).append(".".join(self.scope))
        self.generic_visit(node)


def test_each_kind_of_checker_input_has_one_builder():
    """certificates builds every gap matrix in _pair_matrix, for C5 and C9
    only, reads every gap run against the forward shift from trace.gaps,
    so it measures a diagonal itself only for PCD's d-tail, under the
    metric; it gathers every shift in _shifted, builds every id block in
    _id_block, measures C4's and D4's float gaps through their one reader,
    _OrbitGaps, which gathers the rows of a defeat's points in at and is
    read at only in the defeat rebuild of _band_uniform, and draws every
    seed pair through spaces.sample_pairs; only check_cyclic draws from its
    sets itself."""
    calls = dict(_scan(_Calls))["certificates"].calls
    assert calls.get("premetric_matrix") == ["_pair_matrix"]
    assert set(calls.get("_pair_matrix")) == {"check_c5", "check_asmk"}
    assert calls.get("premetric_diagonal") == ["check_p_controls_d"]
    assert calls.get("take") == ["_SegmentIds.__call__", "_OrbitGaps.at", "_shifted"]
    assert set(calls.get("_OrbitGaps")) == {"check_asf2", "_mapping_reports"}
    assert set(calls.get("_id_block")) == {"check_asf2", "_mapping_reports"}
    assert set(calls.get("at")) == {"_band_uniform"}
    assert "np.take" not in calls
    assert calls.get("sample_pairs") == ["_mapping_reports", "check_banach_rate"]
    assert calls.get("sample_coords") == ["check_cyclic"]


class _Definitions(ast.NodeVisitor):
    """Collects every name a module defines: its functions and classes at
    any depth and the names its assignments bind."""

    def __init__(self):
        self.names = set()

    def visit_FunctionDef(self, node):
        self.names.add(node.name)
        self.generic_visit(node)

    visit_AsyncFunctionDef = visit_ClassDef = visit_FunctionDef

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Store):
            self.names.add(node.id)


def test_the_readme_cites_only_private_names_that_exist():
    """Every underscore-prefixed name that README.md cites in backticks, a
    helper, class, constant or module of src/fplab, is defined there, so a
    helper that is renamed or deleted cannot stay in the README."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    cited = {name for span in re.findall(r"`([^`\n]+)`", readme)
             for name in re.findall(r"(?<![\w.])(?:\w+\.)*(_\w+)", span)}
    defined = {name for stem, found in _scan(_Definitions) for name in {stem, *found.names}}
    assert cited
    assert sorted(cited - defined) == []


class _RuleHomes(_Scoped):
    """Collects the enclosing class.function of every check_member call and
    every function definition, and each raise of a named exception with the
    string literals of its message."""

    def __init__(self):
        super().__init__()
        self.members, self.defs, self.raises = [], [], []

    def visit_FunctionDef(self, node):
        self.defs.append(".".join([*self.scope, node.name]))
        self._enter(node)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node):
        if getattr(node.func, "attr", None) == "check_member":
            self.members.append(".".join(self.scope))
        self.generic_visit(node)

    def visit_Raise(self, node):
        exc = node.exc
        if isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name):
            text = "".join(n.value for arg in exc.args for n in ast.walk(arg)
                           if isinstance(n, ast.Constant) and isinstance(n.value, str))
            self.raises.append((".".join(self.scope), exc.func.id, text))
        self.generic_visit(node)


def test_each_input_rule_has_one_home():
    """A walk's seed rule lives in traces._start, a premetric's companion
    rule in Premetric.__post_init__ and the count rule in reports._is_count;
    a copy elsewhere could drift from it.  The FPSI and PCD length messages
    in certificates are rules of their own."""
    members, defs, raises = [], [], []
    for module, found in _scan(_RuleHomes):
        members += [f"{module}.{c}" for c in found.members]
        defs += [f"{module}.{d}" for d in found.defs]
        raises += [(f"{module}.{where}", exc, text) for where, exc, text in found.raises]
    assert sorted(set(members)) == ["spaces.Space.distance", "spaces.eval_premetric",
                                    "traces._start"]
    assert [where for where, _, text in raises if where.startswith(("traces.", "solvers."))
            and text.startswith("need at least one")] == ["traces._start"]
    assert [where for where, exc, text in raises
            if exc == "ConfigurationError" and "mixed_triangle" in text] == \
        ["spaces.Premetric.__post_init__"]
    assert [d for d in defs if d.rpartition(".")[2] == "_is_count"] == ["reports._is_count"]


class _FloatText(_Scoped):
    """Collects every module imported, and the enclosing class.function of
    every use of repr and of csv_rows."""

    def __init__(self):
        super().__init__()
        self.imports, self.reprs, self.kernel = [], [], []

    def visit_Import(self, node):
        self.imports += [alias.name for alias in node.names]

    def visit_ImportFrom(self, node):
        self.imports.append("." * node.level + (node.module or ""))

    def visit_Name(self, node):
        if node.id == "repr":
            self.reprs.append(".".join(self.scope))
        elif node.id == "csv_rows":
            self.kernel.append(".".join(self.scope))


def test_one_home_for_the_float_text_of_trace_csvs():
    """_floatrepr is a leaf that imports numpy and the standard library
    only; only traces imports it, and IterationTrace.to_csv writes its head
    rows only through its csv_rows.  The two uses of repr left there are
    the bit-periodic tail's template rows and the last row."""
    found = dict(_scan(_FloatText))
    assert sorted(found["_floatrepr"].imports) == ["__future__", "numpy"]
    assert [module for module, visitor in found.items()
            if any(name.endswith("_floatrepr") for name in visitor.imports)] == ["traces"]
    assert found["traces"].kernel == ["IterationTrace.to_csv"]
    assert found["traces"].reprs == ["IterationTrace.to_csv"] * 2


# the modules a document's schema walk imports: scenario's import closure
SCHEMA_LAYER = {"errors", "expressions", "reports", "gauges", "spaces", "maps", "scenario"}


def test_the_schema_walk_imports_no_checker():
    """scenario reads the route, variant and sequence names a document
    chooses among from reports, so its relative imports, followed
    transitively and into function bodies, reach no checker, no trace
    writer and nothing that runs a document."""
    imports = {module: {name[1:] for name in visitor.imports if name.startswith(".")}
               for module, visitor in _scan(_FloatText)}
    closure, todo = set(), ["scenario"]
    while todo:
        module = todo.pop()
        if module not in closure:
            closure.add(module)
            todo += imports[module]
    assert sorted(closure & {"certificates", "solvers", "traces", "_floatrepr", "runner",
                             "gallery", "cli"}) == []
    assert closure == SCHEMA_LAYER


def _loaded_after(code: str, *args: str, stdin: str = "") -> tuple[list[str], set[str]]:
    """Runs code in a fresh interpreter, with fplab importable and args as
    sys.argv[1:]; returns the lines it printed and every module then loaded."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    code += "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    out = subprocess.run([sys.executable, "-c", code, *args], input=stdin, env=env,
                         capture_output=True, text=True, check=True)
    *lines, modules = out.stdout.splitlines()
    return lines, set(json.loads(modules))


def _fplab(modules: set[str]) -> set[str]:
    return {name for name in modules if name.split(".")[0] == "fplab"}


class TestWhatEachEntryPointLoads:
    """The package loads a module on first use, so each entry point loads
    only the layer it runs; each case is a fresh process."""

    def test_import(self):
        _, modules = _loaded_after("import fplab")
        assert _fplab(modules) == {"fplab"}
        assert "numpy" not in modules

    def test_import_then_build(self):
        code = "import fplab, json, sys\nfplab.build_scenario(json.load(sys.stdin))"
        _, modules = _loaded_after(code, stdin=json.dumps(get_entry("meir-keeler").doc))
        assert _fplab(modules) == {"fplab", *(f"fplab.{name}" for name in SCHEMA_LAYER)}

    def test_validate(self, tmp_path):
        path = tmp_path / "doc.yaml"
        path.write_text(json.dumps(get_entry("meir-keeler").doc), encoding="utf-8")
        code = "import sys\nfrom fplab.cli import main\nmain(['validate', sys.argv[1]])"
        lines, modules = _loaded_after(code, str(path))
        assert lines == ["ok"]
        assert sorted(modules & {"fplab.certificates", "fplab.solvers", "fplab.traces",
                                 "fplab._floatrepr", "fplab.runner", "fplab.gallery",
                                 "concurrent.futures"}) == []

    def test_gallery_list(self):
        lines, modules = _loaded_after("from fplab.cli import main\nmain(['gallery', '--list'])")
        assert lines == list_gallery().splitlines()
        assert _fplab(modules) == {"fplab", "fplab.cli", "fplab.errors", "fplab.gallery"}
        assert "numpy" not in modules

    @pytest.mark.parametrize("name", ["certificates", "traces", "check_asf2", "RunResult"])
    def test_a_run_layer_name_loads_the_whole_layer(self, name):
        _, modules = _loaded_after(f"import fplab\nfplab.{name}")
        src = Path(__file__).resolve().parents[1] / "src" / "fplab"
        every = {f"fplab.{path.stem}" for path in src.glob("*.py")} - {"fplab.__init__"}
        assert _fplab(modules) == {"fplab", *every} - {"fplab.cli"}

    def test_the_tracer_leaves_no_wrapper(self):
        """perfbench's tracer rebinds a checker in every loaded module that
        holds it.  After reading one run-layer module, it finds all of them,
        and a package name first read while it is installed is not kept."""
        tracing = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
        lines, _ = _loaded_after("""
import importlib.util, json, sys
import fplab
spec = importlib.util.spec_from_file_location("perfbench_tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
fplab.certificates
original = fplab.certificates.check_asf2
tracer = tracing.Tracer()
tracer.install()
try:
    read = (fplab.check_asf2, fplab.solvers.check_asf2, fplab.runner.run_scenario_doc)
    wrapped = [getattr(fn, "__perfbench_wrapped__", False) for fn in read]
finally:
    tracer.uninstall()
print(json.dumps([wrapped, tracing.leftover_wrappers(), fplab.check_asf2 is original]))
""", str(tracing))
        wrapped, left, restored = json.loads(lines[-1])
        assert wrapped == [True, True, True]
        assert left == []
        assert restored

    def test_every_public_name_is_its_homes_object(self):
        lines, _ = _loaded_after("""
import json, sys, types
import fplab
star = {}
exec("from fplab import *", star)
del star["__builtins__"]
wrong, modules = [], []
for name in fplab.__all__:
    home = sys.modules[f"fplab.{fplab._HOME[name]}"]
    value = home if home.__name__ == f"fplab.{name}" else getattr(home, name)
    if not star[name] is getattr(fplab, name) is value:
        wrong.append(name)
    if isinstance(value, types.ModuleType):
        modules.append(name)
print(json.dumps([fplab.__all__, dir(fplab), sorted(star), wrong, modules]))
""")
        names, listed, starred, wrong, modules = json.loads(lines[-1])
        assert len(names) == 88
        assert names == listed == starred
        assert wrong == []
        assert modules == ["certificates", "errors", "expressions", "gallery", "gauges", "maps",
                           "reports", "runner", "scenario", "solvers", "spaces", "traces"]


def test_document_names_have_one_home():
    """Each name list a document chooses among is one object, defined in
    reports; the checkers and the walk hold that object, not a copy."""
    assert scenario.RUN_PARAMS["certify"]["route"][0] is reports.CAUCHY_ROUTES \
        is solvers.CAUCHY_ROUTES
    assert scenario.RUN_PARAMS["alternate"]["psi_variant"][0] is reports.PSI_VARIANTS \
        is certificates.PSI_VARIANTS
    assert tuple(certificates._PSI_PROFILES) == reports.PSI_VARIANTS
    assert scenario.ASMK_VARIANTS is certificates.ASMK_VARIANTS is reports.ASMK_VARIANTS
    assert scenario.SEQUENCE_NAMES is traces.SEQUENCE_NAMES is reports.SEQUENCE_NAMES


def _named_classes(hint) -> set:
    """Every class an annotation names, through unions and generics."""
    found = {hint} if typing.get_origin(hint) is None and isinstance(hint, type) else set()
    for arg in typing.get_args(hint):
        found |= _named_classes(arg)
    return found


def test_checkers_measure_with_their_inputs():
    """A trace carries its premetric and a map its space, so no public
    function of certificates or solvers takes a Premetric beside an
    IterationTrace, or a Space beside a NamedMap: a second copy of either
    could only disagree with the first.  A trace checker reads the trace
    against its own forward shift, so none takes a second trace either."""
    both = []
    for module in (certificates, solvers):
        for name, fn in vars(module).items():
            if name.startswith("_") or not inspect.isfunction(fn) \
                    or fn.__module__ != module.__name__:
                continue
            hints = typing.get_type_hints(fn)
            hints.pop("return", None)
            named = set().union(*map(_named_classes, hints.values()))
            both += [f"{module.__name__}.{name} takes a {beside.__name__}"
                     for held, beside in ((IterationTrace, Premetric), (NamedMap, Space))
                     if held in named and beside in named]
            traces = [arg for arg, hint in hints.items()
                      if IterationTrace in _named_classes(hint)]
            if len(traces) > 1:
                both.append(f"{module.__name__}.{name} takes the traces {traces}")
    assert both == []


TESTS = Path(__file__).resolve().parent
#: The fplab helpers reference.py may import besides classes, exception
#: types and constants: none of them computes a number.
REFERENCE_HELPERS = frozenset({"witness", "worst_verdict", "compile_expression",
                               "metric_premetric"})
#: Methods that evaluate a distance or a gauge kernel; a reference measures
#: with its own formulas and applies a gauge through the gauge's own fn.
KERNEL_METHODS = frozenset({"distances", "finite_distances", "distance", "apply_array",
                            "_check_range"})


def test_the_references_import_no_kernel():
    """reference.py takes from fplab only classes, exception types,
    non-callable constants and the four helpers above, and calls no
    distance or gauge kernel through an object, so no reference compares a
    kernel's arithmetic with itself."""
    tree = ast.parse((TESTS / "reference.py").read_text(encoding="utf-8"))
    kernels = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            kernels += [a.name for a in node.names if a.name.split(".")[0] == "fplab"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "fplab":
            module = importlib.import_module(node.module)
            for alias in node.names:
                obj = getattr(module, alias.name)
                plain = inspect.isclass(obj) or not (callable(obj) or inspect.ismodule(obj))
                if not plain and alias.name not in REFERENCE_HELPERS:
                    kernels.append(f"{node.module}.{alias.name}")
    calls = sorted({node.func.attr for node in ast.walk(tree) if isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in KERNEL_METHODS})
    assert kernels == []
    assert calls == []


def test_references_live_in_reference_py():
    """No test module defines a reference loop of its own (a test may be
    named after one): every one is in reference.py, where the test above
    pins what it may call."""
    found = []
    for path in sorted(TESTS.glob("test_*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [f"{path.name}::{node.name}" for node in tree.body
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and not node.name.startswith("test_")
                  and (node.name.endswith("_reference") or node.name == "band_uniform_per_eps")]
    assert found == []


def _refuse(*args, **kwargs):
    raise AssertionError("a reference evaluated through an fplab kernel")


def _reference_runs():
    """One small call of each reference that once evaluated through a
    kernel, with every input built up front."""
    half, quarter = builtin_map("half", LINE), builtin_map("quarter", LINE)
    mk = builtin_gauge("mk")
    composed = composed_premetric(mk, D1, claims=frozenset({"triangle"}))
    family = iterated_family(mk)
    setting = CyclicSetting.derive(LINE, IntervalSet(LINE, 1.0, math.inf),
                                   IntervalSet(LINE, -math.inf, -1.0))
    points = [LINE.point(v) for v in (0.0, 1.0, 3.0, -2.5)]
    triples = [tuple(points[:3]), tuple(points[1:])]
    orbit = picard_trace(half, LINE.point(1.0), 10)
    shifted = IterationTrace(coords=orbit.coords[1:], premetric=orbit.premetric,
                             status=orbit.status)
    budget = SearchBudget(index_horizon=3, nu_horizon=4, eps_grid=(0.05,),
                          delta_candidates=(0.05,), pair_samples=8)
    return {
        "premetric": lambda: premetric_reference(composed, (0.5,), (3.0,)),
        "fixed-point": lambda: solve_fixed_point_reference(half, points[1], premetric=composed),
        "best-proximity": lambda: solve_best_proximity_reference(
            builtin_map("cyclic_reflect", LINE), setting, points[2], max_pairs=12),
        "common-fixed-point": lambda: solve_common_fixed_point_reference(
            AlternatingSchedule(half, quarter), points[1]),
        "fpsi": lambda: fpsi_reference(half, quarter, D1, builtin_gauge("id"), mk,
                                       [(points[0], points[2]), (points[1], points[3])]),
        "axioms": lambda: axioms_reference(composed, triples)
        + axioms_reference(shifted_premetric(setting), triples),
        "rate": lambda: banach_rate_reference(builtin_map("mk", LINE), LINE, budget,
                                              Box((0.5,), (9.0,)), seed=3),
        "regularity": lambda: regularity_reference(mk),
        "csv": lambda: to_csv_reference(orbit),
        "asmk": lambda: check_asmk_reference(orbit, shifted, builtin_gauge("id"), family,
                                             budget=budget, variant="asmk2"),
        "asf1": lambda: check_asf1_reference(orbit, shifted, budget=budget),
        "pcd": lambda: check_p_controls_d_reference([(orbit, shifted)]),
    }


def test_the_references_run_with_the_kernels_refusing():
    """With the distance, premetric, gauge, orbit and float-text kernels made
    to raise, every reference returns what it returns with them in place."""
    runs = _reference_runs()
    want = {name: json.dumps(sanitize(run()), sort_keys=True) for name, run in runs.items()}
    with mock.patch.object(Space, "distances", _refuse), \
            mock.patch("fplab.spaces.premetric_values", _refuse), \
            mock.patch.object(Gauge, "apply_array", _refuse), \
            mock.patch("fplab.traces._extend_orbit", _refuse), \
            mock.patch("fplab.traces.csv_rows", _refuse):
        got = {name: json.dumps(sanitize(run()), sort_keys=True) for name, run in runs.items()}
    assert got == want
