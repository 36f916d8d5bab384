"""Declarative scenario documents: schema validation and ingredient builders.

A scenario is one YAML (or JSON) document describing a space, maps, a gap
measure, optional gauges and cyclic sets, a search budget, per-run parameter
sections, and the ordered run list.  validate_scenario reports every problem
it can find without executing anything; build_scenario turns a clean document
into live objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import yaml

from .errors import ConfigurationError, InputError
from .gauges import Gauge, GaugeFamily, _BUILTINS as _GAUGE_BUILTINS, builtin_gauge, \
    expression_gauge, explicit_family, iterated_family
from .maps import NamedMap, _BUILTINS as _MAP_BUILTINS, builtin_map, expression_map
from .reports import SearchBudget
from .spaces import PREMETRIC_KINDS as _ALL_PREMETRIC_KINDS, Box, CyclicSetting, DiskSet, \
    IntervalSet, Premetric, Space, composed_premetric, default_region, metric_premetric, \
    shifted_premetric

#: The runs a document may request, in the order the runner executes them.
RUN_NAMES = ("iterate", "certify", "cyclic", "alternate", "falsify")
#: Custom premetrics are expressions built through the API, not documents.
PREMETRIC_KINDS = tuple(k for k in _ALL_PREMETRIC_KINDS if k != "custom")
CERTIFY_SOURCES = ("picard", "alternating", "sequence")
SEQUENCE_NAMES = ("harmonic",)


def load_scenario_file(path: str) -> dict:
    """Parse a scenario document.  Parse failures and non-mapping documents
    raise ConfigurationError; field-level problems are left to
    validate_scenario."""
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


def _is_num(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _check_gauge_spec(spec, where: str, diags: list[str]) -> None:
    if isinstance(spec, str):
        return  # builtin name or expression source; builders disambiguate
    if isinstance(spec, dict):
        if "expression" not in spec:
            diags.append(f"{where}: gauge table needs an 'expression' field")
        if "profile" in spec and not isinstance(spec["profile"], list):
            diags.append(f"{where}.profile: must be a list of profile entry names")
        return
    diags.append(f"{where}: expected a gauge name, expression, or table")


def _check_set_spec(spec, where: str, diags: list[str]) -> None:
    if not isinstance(spec, dict):
        diags.append(f"{where}: expected a table describing a set")
        return
    kind = spec.get("kind", "interval")
    if kind == "interval":
        if not ("lo" in spec and "hi" in spec):
            diags.append(f"{where}: interval set needs 'lo' and 'hi'")
    elif kind == "disk":
        if not ("center" in spec and "radius" in spec):
            diags.append(f"{where}: disk set needs 'center' and 'radius'")
    else:
        diags.append(f"{where}.kind: unknown set kind {kind!r}")


def validate_scenario(doc: dict) -> list[str]:
    """Schema check only; returns one diagnostic per missing or inconsistent
    field, empty when the document is well formed."""
    diags: list[str] = []
    if not isinstance(doc, dict):
        return ["scenario document must be a mapping"]
    known = {
        "name", "seed", "space", "region", "maps", "sequence", "premetric",
        "gauges", "cyclic_setting", "budget", "run", *RUN_NAMES,
    }
    for key in doc:
        if key not in known:
            diags.append(f"{key}: unknown top-level field")

    if not isinstance(doc.get("name"), str) or not doc.get("name"):
        diags.append("name: required non-empty string")
    if "seed" in doc and not isinstance(doc["seed"], int):
        diags.append("seed: must be an integer")

    space = doc.get("space")
    if not isinstance(space, dict):
        diags.append("space: required table with 'dimension'")
    else:
        dim = space.get("dimension")
        if not isinstance(dim, int) or dim < 1:
            diags.append("space.dimension: required positive integer")
        norm = space.get("norm", "euclidean")
        if norm != "euclidean" and not (_is_num(norm) and norm >= 1):
            diags.append("space.norm: 'euclidean' or a number >= 1")

    region = doc.get("region")
    if region is not None:
        if not (isinstance(region, dict) and isinstance(region.get("lows"), list)
                and isinstance(region.get("highs"), list)):
            diags.append("region: needs 'lows' and 'highs' lists")
        elif isinstance(space, dict) and isinstance(space.get("dimension"), int):
            if len(region["lows"]) != space["dimension"] or \
                    len(region["highs"]) != space["dimension"]:
                diags.append("region: lows/highs length must equal space.dimension")

    maps = doc.get("maps", {})
    if maps and not isinstance(maps, dict):
        diags.append("maps: expected a table with 'T' and optional 'S'")
        maps = {}
    for key in maps:
        if key not in ("T", "S"):
            diags.append(f"maps.{key}: unknown map slot (use 'T' or 'S')")
    dim = space.get("dimension") if isinstance(space, dict) else None
    if isinstance(dim, int) and dim >= 1:
        # compile expression maps now, so that a bad one (out-of-range x[i]
        # included) is a diagnostic here and not an error mid-run
        for slot in ("T", "S"):
            spec = maps.get(slot)
            if isinstance(spec, list) or (isinstance(spec, str) and spec not in _MAP_BUILTINS):
                try:
                    expression_map(Space(id="validate", dimension=dim), spec)
                except ConfigurationError as exc:
                    diags.append(f"maps.{slot}: {exc}")
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
    if "G" in pm:
        _check_gauge_spec(pm["G"], "premetric.G", diags)
    if kind == "shifted_cyclic" and "cyclic_setting" not in doc:
        diags.append("cyclic_setting: required by premetric.kind shifted_cyclic")

    gauges = doc.get("gauges", {})
    if gauges and not isinstance(gauges, dict):
        diags.append("gauges: expected a table")
        gauges = {}
    for slot in ("F", "psi"):
        if slot in gauges:
            _check_gauge_spec(gauges[slot], f"gauges.{slot}", diags)
    fam = gauges.get("family")
    if fam is not None:
        if not isinstance(fam, dict):
            diags.append("gauges.family: expected a table")
        else:
            fkind = fam.get("kind", "iterated")
            if fkind == "iterated":
                base = fam.get("base")
                if base is None:
                    diags.append("gauges.family.base: iterated family needs a base gauge")
                elif base != "psi":
                    _check_gauge_spec(base, "gauges.family.base", diags)
                if base == "psi" and "psi" not in gauges:
                    diags.append("gauges.psi: family.base refers to it but it is missing")
            elif fkind == "explicit":
                if not isinstance(fam.get("members"), list) or not fam.get("members"):
                    diags.append("gauges.family.members: explicit family needs a member list")
                if "zero_fixed" not in fam:
                    diags.append("gauges.family.zero_fixed: explicit family must declare it")
            else:
                diags.append(f"gauges.family.kind: unknown kind {fkind!r}")
    variants = gauges.get("asmk_variants")
    if variants is not None:
        if not isinstance(variants, list) or \
                any(v not in ("asmk1", "asmk2") for v in variants):
            diags.append("gauges.asmk_variants: list drawn from ['asmk1', 'asmk2']")
        elif variants and (fam is None or "F" not in gauges):
            diags.append("gauges: asmk_variants need both F and family")

    cyc = doc.get("cyclic_setting")
    if cyc is not None:
        if not isinstance(cyc, dict):
            diags.append("cyclic_setting: expected a table with set_a and set_b")
        else:
            for side in ("set_a", "set_b"):
                if side not in cyc:
                    diags.append(f"cyclic_setting.{side}: required")
                else:
                    _check_set_spec(cyc[side], f"cyclic_setting.{side}", diags)

    budget = doc.get("budget")
    if budget is not None:
        if not isinstance(budget, dict):
            diags.append("budget: expected a table of SearchBudget fields")
        else:
            allowed = {"eps_grid", "delta_candidates", "nu_horizon", "index_horizon",
                       "pair_samples", "slack"}
            for key in budget:
                if key not in allowed:
                    diags.append(f"budget.{key}: unknown budget field")
            try:
                SearchBudget(**{k: v for k, v in budget.items() if k in allowed})
            except InputError as exc:
                diags.append(f"budget: {exc}")

    runs = doc.get("run")
    if not isinstance(runs, list) or not runs:
        diags.append("run: required non-empty list")
        runs = []
    for r in runs:
        if r not in RUN_NAMES:
            diags.append(f"run: unknown run name {r!r} (have {list(RUN_NAMES)})")
    if len(set(runs)) != len(runs):
        diags.append("run: duplicate run names")

    has_t = isinstance(maps, dict) and "T" in maps
    has_s = isinstance(maps, dict) and "S" in maps
    if "iterate" in runs and not (has_t or seq):
        diags.append("maps.T: run iterate needs a map T or a named sequence")
    if "certify" in runs:
        cert = doc.get("certify", {})
        if isinstance(cert, dict):
            source = cert.get("source", "sequence" if seq and not has_t else "picard")
            if source not in CERTIFY_SOURCES:
                diags.append(f"certify.source: unknown source {source!r}")
            if source == "picard" and not has_t:
                diags.append("maps.T: run certify on a picard trace needs a map T")
            if source == "alternating" and not has_s:
                diags.append("maps.S: run certify on an alternating trace needs S")
            if source == "sequence" and not seq:
                diags.append("sequence: run certify on a sequence trace needs one")
            route = cert.get("route", "tau")
            if route not in ("tau", "composed", "mixed"):
                diags.append(f"certify.route: unknown route {route!r}")
            if route == "composed" and kind != "composed":
                diags.append("premetric.kind: certify route composed needs a composed premetric")
            if route == "mixed" and kind not in ("shifted_cyclic",):
                diags.append("premetric.kind: certify route mixed needs a premetric "
                             "with a mixed-triangle companion (shifted_cyclic)")
        else:
            diags.append("certify: expected a table")
    if "cyclic" in runs:
        if cyc is None:
            diags.append("cyclic_setting: required by run cyclic")
        if not has_t:
            diags.append("maps.T: run cyclic needs a map T")
    if "alternate" in runs and not has_s:
        diags.append("maps.S: run alternate needs a second map")
    if "alternate" in runs and not has_t:
        diags.append("maps.T: run alternate needs a map T")
    if "falsify" in runs and not (has_t or seq):
        diags.append("maps.T: run falsify needs a trace source (map T or sequence)")

    for section in RUN_NAMES:
        if section in doc and not isinstance(doc[section], dict):
            diags.append(f"{section}: expected a table of run parameters")
    return diags


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


def _build_space(doc: dict) -> Space:
    spec = doc["space"]
    norm = spec.get("norm", "euclidean")
    return Space(
        id=spec.get("id", f"{doc['name']}-space"),
        dimension=spec["dimension"],
        norm=norm if norm == "euclidean" else float(norm),
    )


def _build_map(spec, space: Space, slot: str) -> NamedMap:
    if isinstance(spec, str) and spec in _MAP_BUILTINS:
        return builtin_map(spec, space)
    if isinstance(spec, (str, list)):
        return expression_map(space, spec, name=slot)
    raise ConfigurationError(f"maps.{slot}: expected a builtin name or expression")


def _build_gauge(spec, where: str) -> Gauge:
    if isinstance(spec, str) and spec in _GAUGE_BUILTINS:
        return builtin_gauge(spec)
    if isinstance(spec, str):
        return expression_gauge(spec, name=where)
    if isinstance(spec, dict):
        profile = frozenset(spec.get("profile", ()))
        return expression_gauge(spec["expression"], name=spec.get("name", where),
                                profile=profile, t_max=spec.get("t_max", 1e3))
    raise ConfigurationError(f"{where}: cannot build a gauge from {spec!r}")


def _build_set(spec: dict, space: Space, label: str):
    kind = spec.get("kind", "interval")
    if kind == "interval":
        return IntervalSet(space, float(spec["lo"]), float(spec["hi"]))
    if kind == "disk":
        center = tuple(float(c) for c in spec["center"])
        return DiskSet(space, center, float(spec["radius"]))
    raise ConfigurationError(f"{label}: unknown set kind {kind!r}")


def build_scenario(doc: dict) -> Scenario:
    """Turn a validated document into live objects.

    Raises:
        ConfigurationError: the document has schema problems (the message
            points at the first offending field).
    """
    diags = validate_scenario(doc)
    if diags:
        raise ConfigurationError(diags[0] + (
            f" (+{len(diags) - 1} more problem(s))" if len(diags) > 1 else ""))

    space = _build_space(doc)
    region = doc.get("region")
    box = Box(tuple(float(v) for v in region["lows"]),
              tuple(float(v) for v in region["highs"])) if region else default_region(space)

    maps = doc.get("maps", {})
    map_t = _build_map(maps["T"], space, "T") if "T" in maps else None
    map_s = _build_map(maps["S"], space, "S") if "S" in maps else None

    setting = None
    if "cyclic_setting" in doc:
        cyc = doc["cyclic_setting"]
        setting = CyclicSetting.derive(
            space,
            _build_set(cyc["set_a"], space, "cyclic_setting.set_a"),
            _build_set(cyc["set_b"], space, "cyclic_setting.set_b"),
            seed=doc.get("seed", 0),
        )

    pm_spec = doc.get("premetric", {"kind": "metric"})
    kind = pm_spec.get("kind", "metric")
    if kind == "metric":
        premetric = metric_premetric(space)
    elif kind == "shifted_cyclic":
        premetric = shifted_premetric(setting)
    else:
        outer = _build_gauge(pm_spec["G"], "premetric.G")
        premetric = composed_premetric(outer, metric_premetric(space))

    gauges = doc.get("gauges", {})
    f_gauge = _build_gauge(gauges["F"], "gauges.F") if "F" in gauges else None
    psi = _build_gauge(gauges["psi"], "gauges.psi") if "psi" in gauges else None
    family = None
    if "family" in gauges:
        fam = gauges["family"]
        if fam.get("kind", "iterated") == "iterated":
            base = psi if fam["base"] == "psi" else _build_gauge(fam["base"],
                                                                 "gauges.family.base")
            family = iterated_family(base)
        else:
            members = [_build_gauge(m, "gauges.family.members") for m in fam["members"]]
            family = explicit_family(members, bool(fam["zero_fixed"]))

    budget = SearchBudget(**doc.get("budget", {}))
    return Scenario(
        name=doc["name"],
        seed=doc.get("seed", 0),
        space=space,
        region=box,
        budget=budget,
        premetric=premetric,
        map_t=map_t,
        map_s=map_s,
        sequence=doc.get("sequence"),
        f_gauge=f_gauge,
        psi=psi,
        family=family,
        asmk_variants=tuple(gauges.get("asmk_variants", ())),
        setting=setting,
        runs=tuple(doc["run"]),
        params={k: doc.get(k, {}) for k in RUN_NAMES},
    )
