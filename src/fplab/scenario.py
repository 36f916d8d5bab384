"""Declarative scenario documents, checked and built by one schema walk.

A scenario is one YAML (or JSON) document: a space, maps, a gap measure,
optional gauges and cyclic sets, a search budget, per-run parameter sections
(declared in RUN_PARAMS) and the ordered run list.  The walk reads each field
once to type-check, default, convert and build it, noting every problem.
validate_scenario returns those diagnostics and build_scenario raises the
first, so a document validates clean exactly when it builds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ConfigurationError, FplabError
from .gauges import DEFAULT_T_MAX, Gauge, GaugeFamily, _BUILTINS as _GAUGE_BUILTINS, \
    builtin_gauge, expression_gauge, explicit_family, iterated_family
from .maps import NamedMap, _BUILTINS as _MAP_BUILTINS, builtin_map, expression_map
from .reports import ASMK_VARIANTS, CAUCHY_ROUTES, PSI_VARIANTS, SEQUENCE_NAMES, SearchBudget, \
    _as_float, _is_count, _is_real
from .spaces import PREMETRIC_KINDS, Box, CyclicSetting, DiskSet, IntervalSet, Premetric, \
    Space, composed_premetric, default_region, metric_premetric, shifted_premetric

#: The runs a document may request, in the order the runner executes them.
RUN_NAMES = ("iterate", "certify", "cyclic", "alternate", "falsify")
#: The traces a certify or falsify run can read.
TRACE_SOURCES = ("picard", "alternating", "sequence")
#: Bounds what the walk allocates for default regions and start points.
MAX_DIMENSION = 10_000

#: run -> parameter -> (kind, default).  Kinds: "count" a positive int, "real"
#: a finite real stored as a float, "point" space.dimension finite reals stored
#: as a Point, or a tuple of choices; bool is never a number.  A None default
#: means: a point of all ones, steps from the runner's (scaled) budget, and a
#: source that is the document's default trace, which falsify takes from certify.
RUN_PARAMS: dict[str, dict[str, tuple]] = {
    "iterate": {"x0": ("point", None), "steps": ("count", None), "tol": ("real", 1e-9),
                "max_steps": ("count", 10_000)},
    "certify": {"source": (TRACE_SOURCES, None), "route": (CAUCHY_ROUTES, "tau"),
                "tol": ("real", 1e-6)},
    "cyclic": {"x0": ("point", None), "samples": ("count", 64), "pairs": ("count", 40),
               "tol": ("real", 1e-8), "max_pairs": ("count", 10_000),
               "collapse_tol": ("real", 1e-6), "cert_tol": ("real", 1e-6)},
    "alternate": {"seed": ("point", None), "steps": ("count", None), "tol": ("real", 1e-9),
                  "max_steps": ("count", 10_000), "fpsi_pairs": ("count", 200),
                  "psi_variant": (PSI_VARIANTS, "standard")},
    "falsify": {"source": (TRACE_SOURCES, None), "eps": ("real", 0.5),
                "gap_tol": ("real", 1e-2)},
}

_TOP_LEVEL = frozenset({"name", "seed", "space", "region", "maps", "sequence", "premetric",
                        "gauges", "cyclic_setting", "budget", "run", *RUN_NAMES})
_BUDGET_FIELDS = frozenset(f.name for f in fields(SearchBudget))


def load_scenario_file(path: str) -> dict:
    """Parse a scenario document.  Parse failures and non-mapping documents
    raise ConfigurationError; field-level problems are left to
    validate_scenario.  yaml is imported here, the one place that reads
    YAML, so that building from a dict never loads it."""
    import yaml

    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read scenario file: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigurationError(f"scenario file is not valid YAML: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigurationError("scenario document must be a mapping at the top level")
    return doc


@dataclass(frozen=True)
class Scenario:
    name: str
    seed: int
    space: Space
    region: Box
    budget: SearchBudget
    premetric: Premetric
    map_t: NamedMap | None = None
    map_s: NamedMap | None = None
    sequence: str | None = None
    f_gauge: Gauge | None = None
    psi: Gauge | None = None
    family: GaugeFamily | None = None
    asmk_variants: tuple[str, ...] = ()
    setting: CyclicSetting | None = None
    runs: tuple[str, ...] = ()
    params: dict = field(default_factory=dict)

    def run_params(self, run: str) -> dict:
        return self.params.get(run, {})


def _real(value, finite: bool = True) -> float | None:
    """value as a float if it is a real number (not NaN, and ±inf only when
    finite is false), else None."""
    value = _as_float(value) if _is_real(value) else math.nan
    return None if math.isnan(value) or (finite and math.isinf(value)) else value


def _make(where: str, diags: list[str], build, *args, **kwargs):
    """build(*args, **kwargs), or None after noting the FplabError it raised."""
    try:
        return build(*args, **kwargs)
    except FplabError as exc:
        diags.append(f"{where}: {exc}")
        return None


def _gauge(spec, where: str, diags: list[str]) -> Gauge | None:
    """A builtin name, an expression in t, or a table with an expression and
    optional name, profile and t_max.  where also names an unnamed gauge."""
    if isinstance(spec, str):
        if spec in _GAUGE_BUILTINS:
            return builtin_gauge(spec)
        return _make(where, diags, expression_gauge, spec, name=where)
    if not isinstance(spec, dict):
        diags.append(f"{where}: expected a gauge name, expression, or table")
        return None
    if "expression" not in spec:
        diags.append(f"{where}: gauge table needs an 'expression' field")
    profile = spec.get("profile", [])
    if not isinstance(profile, list) or not all(isinstance(e, str) for e in profile):
        diags.append(f"{where}.profile: must be a list of profile entry names")
    elif "expression" in spec:
        return _make(where, diags, expression_gauge, spec["expression"],
                     name=spec.get("name", where), profile=frozenset(profile),
                     t_max=spec.get("t_max", DEFAULT_T_MAX))
    return None


def _family(fam, gauges: dict, psi: Gauge | None, diags: list[str]) -> GaugeFamily | None:
    if not isinstance(fam, dict):
        diags.append("gauges.family: expected a table")
        return None
    kind = fam.get("kind", "iterated")
    if kind == "iterated":
        base = fam.get("base")
        if base is None:
            diags.append("gauges.family.base: iterated family needs a base gauge")
            return None
        if base == "psi" and "psi" not in gauges:
            diags.append("gauges.psi: family.base refers to it but it is missing")
        base = psi if base == "psi" else _gauge(base, "gauges.family.base", diags)
        return base and _make("gauges.family", diags, iterated_family, base)
    if kind == "explicit":
        members, zero_fixed = fam.get("members"), fam.get("zero_fixed")
        if not isinstance(members, list) or not members:
            diags.append("gauges.family.members: explicit family needs a member list")
            members = []
        if "zero_fixed" not in fam:
            diags.append("gauges.family.zero_fixed: explicit family must declare it")
        elif not isinstance(zero_fixed, bool):
            diags.append("gauges.family.zero_fixed: must be true or false")
        members = [_gauge(m, "gauges.family.members", diags) for m in members]
        ok = members and None not in members and isinstance(zero_fixed, bool)
        return explicit_family(members, zero_fixed) if ok else None
    diags.append(f"gauges.family.kind: unknown kind {kind!r}")
    return None


def _set(spec, where: str, space: Space | None, diags: list[str]):
    """An interval (lo, hi; an end may be infinite) or a disk (center, radius)."""
    if not isinstance(spec, dict):
        diags.append(f"{where}: required" if spec is None else
                     f"{where}: expected a table describing a set")
        return None
    kind = spec.get("kind", "interval")
    if kind == "interval" and "lo" in spec and "hi" in spec:
        build, args = IntervalSet, [_real(spec[key], finite=False) for key in ("lo", "hi")]
    elif kind == "disk" and "center" in spec and "radius" in spec:
        center = spec["center"]
        center = tuple(map(_real, center)) if isinstance(center, list) else (None,)
        build, args = DiskSet, [None if None in center else center, _real(spec["radius"])]
    else:
        diags.append(f"{where}: interval set needs 'lo' and 'hi'" if kind == "interval" else
                     f"{where}: disk set needs 'center' and 'radius'" if kind == "disk" else
                     f"{where}.kind: unknown set kind {kind!r}")
        return None
    if None in args:
        diags.append(f"{where}: bounds, center and radius must be real numbers")
        return None
    return space and _make(where, diags, build, space, *args)


def _map(spec, slot: str, space: Space | None, diags: list[str]) -> NamedMap | None:
    if isinstance(spec, str) and spec in _MAP_BUILTINS:
        return space and builtin_map(spec, space)
    if not isinstance(spec, (str, list)):
        diags.append(f"maps.{slot}: expected a builtin name or expression")
        return None
    return space and _make(f"maps.{slot}", diags, expression_map, space, spec, name=slot)


def _param(kind, value, where: str, space: Space | None, diags: list[str]):
    """One run parameter checked against its RUN_PARAMS kind and converted."""
    if kind == "point":
        coords = [_real(c) for c in value] if isinstance(value, list) else [None]
        if space is None or (len(coords) == space.dimension and None not in coords):
            return space and space.point(*coords)
        diags.append(f"{where}: expected {space.dimension} finite coordinate(s), got {value!r}")
    elif kind == "count":
        if _is_count(value):
            return value
        diags.append(f"{where}: must be a positive integer")
    elif kind == "real":
        if _real(value) is not None:
            return float(value)
        diags.append(f"{where}: must be a finite real number")
    elif value in kind:
        return value
    else:
        diags.append(f"{where}: unknown {where.rpartition('.')[2]} {value!r}")
    return None


def _needs_trace(run: str, source, has_t: bool, has_s: bool, seq, diags: list[str]) -> None:
    if source == "picard" and not has_t:
        diags.append(f"maps.T: run {run} on a picard trace needs a map T")
    if source == "alternating" and not has_s:
        diags.append(f"maps.S: run {run} on an alternating trace needs S")
    if source == "alternating" and not has_t:
        diags.append(f"maps.T: run {run} on an alternating trace needs T")
    if source == "sequence" and not seq:
        diags.append(f"sequence: run {run} on a sequence trace needs one")


def _min_trace_points(run: str, route, asmk: bool, fpsi: bool, budget: SearchBudget) -> int:
    """The fewest trace points that run's checks accept, from their length
    guards: the settling diagnostic CAUCHY reads 4 points; C1-C3, C4, C8 and
    C9 read index_horizon + nu_horizon gaps against the trace's forward
    shift, one point shorter; the falsify scan reads 4 consecutive gaps and
    INEQFP, alternate's check when F and psi are given, 2."""
    if run == "certify":
        bands = budget.index_horizon + budget.nu_horizon + 1 if route != "mixed" or asmk else 0
        return max(4, bands)
    if run == "falsify":
        return 5
    return 3 if run == "alternate" and fpsi else 1


def seed_problem(seed) -> str | None:
    """Why seed is no scenario seed (a non-negative int, not a bool), or None."""
    if not isinstance(seed, int) or isinstance(seed, bool):
        return "must be an integer"
    return "must not be negative" if seed < 0 else None


def _walk(doc) -> tuple[list[str], Scenario | None]:
    """Read every field of doc once, to check, default, convert and build it.
    Returns the diagnostics and, when there are none, the Scenario."""
    if not isinstance(doc, dict):
        return ["scenario document must be a mapping"], None
    diags = [f"{key}: unknown top-level field" for key in doc if key not in _TOP_LEVEL]

    name = doc.get("name")
    if not isinstance(name, str) or not name:
        diags.append("name: required non-empty string")
    seed = doc.get("seed", 0)
    if problem := seed_problem(seed):
        diags.append(f"seed: {problem}")
        seed = None

    space = None
    spec = doc.get("space")
    dim = spec.get("dimension") if isinstance(spec, dict) else None
    if not isinstance(spec, dict):
        diags.append("space: required table with 'dimension'")
    else:
        mark = len(diags)
        if not _is_count(dim):
            diags.append("space.dimension: required positive integer")
        elif dim > MAX_DIMENSION:
            diags.append(f"space.dimension: at most {MAX_DIMENSION}")
        norm = spec.get("norm", "euclidean")
        if norm != "euclidean":
            norm = _real(norm)
            if norm is None or norm < 1:
                diags.append("space.norm: 'euclidean' or a number >= 1")
        space_id = spec.get("id", f"{name}-space")
        if not isinstance(space_id, str) or not space_id:
            diags.append("space.id: must be a non-empty string")
        space = Space(id=space_id, dimension=dim, norm=norm) if len(diags) == mark else None

    region, box = doc.get("region"), None
    if region is None:
        box = space and default_region(space)
    elif not (isinstance(region, dict) and isinstance(region.get("lows"), list)
              and isinstance(region.get("highs"), list)):
        diags.append("region: needs 'lows' and 'highs' lists")
    elif isinstance(dim, int) and (len(region["lows"]) != dim or len(region["highs"]) != dim):
        diags.append("region: lows/highs length must equal space.dimension")
    elif None in (bounds := [_real(v) for v in region["lows"] + region["highs"]]):
        diags.append("region: lows and highs must be finite real numbers")
    else:
        cut = len(region["lows"])
        box = _make("region", diags, Box, tuple(bounds[:cut]), tuple(bounds[cut:]))

    maps = doc.get("maps", {})
    if not isinstance(maps, dict):
        diags.append("maps: expected a table with 'T' and optional 'S'")
        maps = {}
    diags.extend(f"maps.{key}: unknown map slot (use 'T' or 'S')"
                 for key in maps if key not in ("T", "S"))
    map_t, map_s = (_map(maps[slot], slot, space, diags) if slot in maps else None
                    for slot in ("T", "S"))
    seq = doc.get("sequence")
    if seq is not None and seq not in SEQUENCE_NAMES:
        diags.append(f"sequence: unknown named sequence {seq!r} (have {list(SEQUENCE_NAMES)})")

    pm = doc.get("premetric", {"kind": "metric"})
    if not isinstance(pm, dict):
        diags.append("premetric: expected a table with 'kind'")
        pm = {}
    kind = pm.get("kind", "metric")
    if kind not in PREMETRIC_KINDS:
        diags.append(f"premetric.kind: unknown kind {kind!r} (have {list(PREMETRIC_KINDS)})")
    if kind == "composed" and "G" not in pm:
        diags.append("premetric.G: composed premetric needs the outer gauge G")
    outer = _gauge(pm["G"], "premetric.G", diags) if "G" in pm else None
    if kind == "shifted_cyclic" and doc.get("cyclic_setting") is None:
        diags.append("cyclic_setting: required by premetric.kind shifted_cyclic")

    gauges = doc.get("gauges", {})
    if not isinstance(gauges, dict):
        diags.append("gauges: expected a table")
        gauges = {}
    f_gauge, psi = (_gauge(gauges[slot], f"gauges.{slot}", diags) if slot in gauges else None
                    for slot in ("F", "psi"))
    fam = gauges.get("family")
    family = None if fam is None else _family(fam, gauges, psi, diags)
    variants = gauges.get("asmk_variants", [])
    if not isinstance(variants, list) or any(v not in ASMK_VARIANTS for v in variants):
        diags.append(f"gauges.asmk_variants: list drawn from {list(ASMK_VARIANTS)}")
    elif variants and (fam is None or "F" not in gauges):
        diags.append("gauges: asmk_variants need both F and family")

    cyc = doc.get("cyclic_setting")
    setting = None
    if cyc is not None and not isinstance(cyc, dict):
        diags.append("cyclic_setting: expected a table with set_a and set_b")
    elif cyc is not None:
        sets = [_set(cyc.get(side), f"cyclic_setting.{side}", space, diags)
                for side in ("set_a", "set_b")]
        if None not in sets:
            setting = _make("cyclic_setting", diags, CyclicSetting.derive, space, *sets)

    budget = {} if doc.get("budget") is None else doc["budget"]
    if not isinstance(budget, dict):
        diags.append("budget: expected a table of SearchBudget fields")
        budget = None
    else:
        diags.extend(f"budget.{key}: unknown budget field"
                     for key in budget if key not in _BUDGET_FIELDS)
        budget = _make("budget", diags, SearchBudget,
                       **{k: v for k, v in budget.items() if k in _BUDGET_FIELDS})

    runs = doc.get("run")
    if not isinstance(runs, list) or not runs:
        diags.append("run: required non-empty list")
        runs = []
    diags.extend(f"run: unknown run name {r!r} (have {list(RUN_NAMES)})"
                 for r in runs if r not in RUN_NAMES)
    if any(runs.count(r) > 1 for r in runs):
        diags.append("run: duplicate run names")

    # every trace reads iterate's or alternate's section, so those two are
    # always read; the others when the document runs or configures them.
    # RUN_NAMES order reads certify before falsify, whose default source is
    # certify's.
    has_t, has_s = "T" in maps, "S" in maps
    default_source = "sequence" if seq and not has_t else "picard"
    sections: dict[str, dict] = {}
    params: dict[str, dict] = {}
    for run in RUN_NAMES:
        if run not in runs and run not in doc and run not in ("iterate", "alternate"):
            continue
        section = doc.get(run, {})
        if not isinstance(section, dict):
            diags.append(f"{run}: expected a table of run parameters")
            section = {}
        diags.extend(f"{run}.{key}: unknown run parameter"
                     for key in section if key not in RUN_PARAMS[run])
        sections[run], params[run] = section, {}
        for key, (param_kind, value) in RUN_PARAMS[run].items():
            if key in section:
                value = _param(param_kind, section[key], f"{run}.{key}", space, diags)
            elif param_kind == "point":
                value = space and space.point(*[1.0] * space.dimension)
            elif key == "source":
                value = params.get("certify", {}).get("source", default_source)
            params[run][key] = value

    # run -> the trace it reads: a run with a source parameter reads that
    # source; cyclic builds its own trace from maps.T
    reads = {"iterate": default_source, "alternate": "alternating",
             **{run: given["source"] for run, given in params.items() if "source" in given}}
    for run in RUN_NAMES:
        if run in runs and run in reads:
            _needs_trace(run, reads[run], has_t, has_s, seq, diags)
            # a declared steps gives the trace at most steps + 1 points
            owner = "alternate" if reads[run] == "alternating" else "iterate"
            steps = params[owner]["steps"]
            if steps is None or budget is None:
                continue
            need = _min_trace_points(run, params[run].get("route"), bool(variants),
                                     f_gauge is not None and psi is not None, budget)
            if steps + 1 < need:
                diags.append(f"{owner}.steps: run {run} needs a trace of at least {need} "
                             f"points, so at least {need - 1} steps, got {steps}")

    route = params["certify"]["route"] if "certify" in runs else None
    if route == "tau" and kind != "metric":
        diags.append("premetric.kind: certify route tau needs a premetric claiming "
                     "the sup-tail property (metric)")
    if route == "composed" and kind != "composed":
        diags.append("premetric.kind: certify route composed needs a composed premetric")
    if route == "mixed" and kind != "shifted_cyclic":
        diags.append("premetric.kind: certify route mixed needs a premetric "
                     "with a mixed-triangle companion (shifted_cyclic)")
    if "cyclic" in runs:
        if cyc is None:
            diags.append("cyclic_setting: required by run cyclic")
        if not has_t:
            diags.append("maps.T: run cyclic needs a map T")
    if "cyclic" in runs and "x0" not in sections["cyclic"]:
        diags.append("cyclic.x0: starting point required")
    if "cyclic" in runs and params["cyclic"]["pairs"] is not None \
            and params["cyclic"]["pairs"] < 3:
        diags.append("cyclic.pairs: at least 3, for the 4 points the settling diagnostic needs")
    if "cyclic" in runs and setting is not None:
        # check_cyclic draws from both sets, and the orbit starts in set_a
        rng = np.random.default_rng(seed)
        for side in ("set_a", "set_b"):
            _make(f"cyclic_setting.{side}", diags, getattr(setting, side).sample_coords, rng, 1)
        x0 = params["cyclic"]["x0"] if "x0" in sections["cyclic"] else None
        if x0 is not None and not setting.set_a.contains_coords(x0.coords):
            diags.append("cyclic.x0: must lie in cyclic_setting.set_a")

    if diags:
        return diags, None
    if kind == "metric":
        premetric = metric_premetric(space)
    elif kind == "shifted_cyclic":
        premetric = shifted_premetric(setting)
    else:
        premetric = composed_premetric(outer, metric_premetric(space))
    return diags, Scenario(
        name=name, seed=seed, space=space, region=box, budget=budget, premetric=premetric,
        map_t=map_t, map_s=map_s, sequence=seq, f_gauge=f_gauge, psi=psi, family=family,
        asmk_variants=tuple(variants), setting=setting, runs=tuple(runs), params=params)


def validate_scenario(doc: dict) -> list[str]:
    """The schema walk's diagnostics; empty exactly when build_scenario succeeds."""
    return _walk(doc)[0]


def build_scenario(doc: dict) -> Scenario:
    """Turn a document into live objects.

    Raises:
        ConfigurationError: the document has schema problems (the message
            points at the first offending field).
    """
    diags, scenario = _walk(doc)
    if diags:
        raise ConfigurationError(diags[0] + (
            f" (+{len(diags) - 1} more problem(s))" if len(diags) > 1 else ""))
    return scenario
