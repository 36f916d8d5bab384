"""Scenario documents, the runner's exit-code contract, and the CLI.

The scenario layer is deliberately chatty: validate_scenario returns one
diagnostic string per problem instead of stopping at the first.  Those
strings are frozen here.  CLI tests go through main() with real files in
tmp_path so the exit codes are exercised end to end.
"""

import ast
import copy
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings, strategies as st

import fplab
from fplab.cli import main
from fplab.errors import ConfigurationError, FplabError, InputError
from fplab.gallery import GALLERY, Expectation, gallery_names, get_entry, list_gallery
from fplab.runner import RunResult, _Sink, _exit_code, run_scenario, run_scenario_doc
from fplab.scenario import RUN_NAMES, RUN_PARAMS, build_scenario, load_scenario_file, validate_scenario


def base_doc() -> dict:
    return {
        "name": "unit",
        "space": {"dimension": 1},
        "maps": {"T": "half"},
        "run": ["iterate"],
    }


# cheap enough for a unit test: 40 picard steps, tiny search horizons
SMOKE = {
    "name": "cli-smoke",
    "space": {"dimension": 1},
    "maps": {"T": "half"},
    "budget": {"index_horizon": 8, "nu_horizon": 8, "pair_samples": 20},
    "run": ["iterate", "certify"],
    "iterate": {"x0": [1.0], "steps": 40, "tol": 1e-6},
    "certify": {"route": "tau"},
}


def strict_json(text: str):
    """json.loads that refuses the non-JSON tokens Infinity, -Infinity and NaN."""
    def refuse(token):
        raise ValueError(f"non-finite JSON token {token}")
    return json.loads(text, parse_constant=refuse)


def write_doc(tmp_path, doc, name="scenario.yaml") -> str:
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    return str(path)


class TestValidateScenario:
    def test_minimal_document_is_clean(self):
        assert validate_scenario(base_doc()) == []

    def test_full_document_is_clean(self):
        doc = {
            "name": "full",
            "seed": 7,
            "space": {"dimension": 1, "norm": "euclidean"},
            "region": {"lows": [-4.0], "highs": [4.0]},
            "maps": {"T": "quarter", "S": "fifth"},
            "premetric": {"kind": "metric"},
            "gauges": {
                "F": {"expression": "t", "profile": ["nondecreasing", "continuous"]},
                "psi": "mk",
                "family": {"kind": "iterated", "base": "psi"},
                "asmk_variants": ["asmk1", "asmk2"],
            },
            "budget": {"nu_horizon": 16, "index_horizon": 32, "pair_samples": 40},
            "run": ["iterate", "alternate"],
            "iterate": {"x0": [1.0], "steps": 30},
            "alternate": {"seed": [1.0], "steps": 12},
        }
        assert validate_scenario(doc) == []

    def test_non_mapping_document(self):
        assert validate_scenario("nope") == ["scenario document must be a mapping"]

    @pytest.mark.parametrize(
        ("mutate", "needle"),
        [
            (lambda d: d.pop("name"), "name: required non-empty string"),
            (lambda d: d.update(name=""), "name: required non-empty string"),
            (lambda d: d.update(seed="x"), "seed: must be an integer"),
            (lambda d: d.pop("space"), "space: required table with 'dimension'"),
            (lambda d: d["space"].update(dimension=0),
             "space.dimension: required positive integer"),
            (lambda d: d["space"].update(norm="sup"),
             "space.norm: 'euclidean' or a number >= 1"),
            (lambda d: d.update(region={"lows": [0.0]}),
             "region: needs 'lows' and 'highs' lists"),
            (lambda d: d.update(region={"lows": [0.0, 1.0], "highs": [2.0, 3.0]}),
             "region: lows/highs length must equal space.dimension"),
            (lambda d: d.update(extra=1), "extra: unknown top-level field"),
            (lambda d: d["maps"].update(R="half"),
             "maps.R: unknown map slot (use 'T' or 'S')"),
            (lambda d: d.update(maps=[1]),
             "maps: expected a table with 'T' and optional 'S'"),
            (lambda d: d.update(sequence="fib"),
             "sequence: unknown named sequence 'fib'"),
            (lambda d: d.update(premetric={"kind": "weird"}),
             "premetric.kind: unknown kind 'weird'"),
            (lambda d: d.update(premetric={"kind": "composed"}),
             "premetric.G: composed premetric needs the outer gauge G"),
            (lambda d: d.update(premetric={"kind": "shifted_cyclic"}),
             "cyclic_setting: required by premetric.kind shifted_cyclic"),
            (lambda d: d.update(gauges={"F": 3}),
             "gauges.F: expected a gauge name, expression, or table"),
            (lambda d: d.update(gauges={"F": {"name": "f"}}),
             "gauges.F: gauge table needs an 'expression' field"),
            (lambda d: d.update(gauges={"F": {"expression": "t",
                                              "profile": "nondecreasing"}}),
             "gauges.F.profile: must be a list of profile entry names"),
            (lambda d: d.update(gauges={"family": {"kind": "iterated"}}),
             "gauges.family.base: iterated family needs a base gauge"),
            (lambda d: d.update(gauges={"family": {"base": "psi"}}),
             "gauges.psi: family.base refers to it but it is missing"),
            (lambda d: d.update(gauges={"family": {"kind": "explicit",
                                                   "members": ["half"]}}),
             "gauges.family.zero_fixed: explicit family must declare it"),
            (lambda d: d.update(gauges={"family": {"kind": "weird"}}),
             "gauges.family.kind: unknown kind 'weird'"),
            (lambda d: d.update(gauges={"asmk_variants": ["asmk3"]}),
             "gauges.asmk_variants: list drawn from ['asmk1', 'asmk2']"),
            (lambda d: d.update(gauges={"asmk_variants": ["asmk1"]}),
             "gauges: asmk_variants need both F and family"),
            (lambda d: d.update(cyclic_setting={"set_a": {"lo": 1.0, "hi": 2.0}}),
             "cyclic_setting.set_b: required"),
            (lambda d: d.update(cyclic_setting={"set_a": {"kind": "disk"},
                                                "set_b": {"lo": 0.0, "hi": 1.0}}),
             "cyclic_setting.set_a: disk set needs 'center' and 'radius'"),
            (lambda d: d.update(budget={"fuel": 3}),
             "budget.fuel: unknown budget field"),
            (lambda d: d.update(budget={"nu_horizon": -4}), "budget: "),
            (lambda d: d.update(run=[]), "run: required non-empty list"),
            (lambda d: d.update(run=["bogus"]), "run: unknown run name 'bogus'"),
            (lambda d: d.update(run=["iterate", "iterate"]),
             "run: duplicate run names"),
            (lambda d: d.pop("maps"),
             "maps.T: run iterate on a picard trace needs a map T"),
            (lambda d: d.update(run=["certify"], certify="x"),
             "certify: expected a table"),
            (lambda d: d.update(run=["certify"], certify={"source": "weird"}),
             "certify.source: unknown source 'weird'"),
            (lambda d: d.update(run=["certify"], certify={"source": "alternating"}),
             "maps.S: run certify on an alternating trace needs S"),
            (lambda d: d.update(run=["certify"], certify={"source": "sequence"}),
             "sequence: run certify on a sequence trace needs one"),
            (lambda d: d.update(run=["certify"], certify={"route": "scenic"}),
             "certify.route: unknown route 'scenic'"),
            (lambda d: d.update(run=["certify"], certify={"route": "composed"}),
             "premetric.kind: certify route composed needs a composed premetric"),
            (lambda d: d.update(run=["certify"], certify={"route": "mixed"}),
             "certify route mixed needs a premetric"),
            (lambda d: d.update(run=["cyclic"]),
             "cyclic_setting: required by run cyclic"),
            (lambda d: (d.pop("maps"),
                        d.update(run=["cyclic"],
                                 cyclic_setting={"set_a": {"lo": 1.0, "hi": 2.0},
                                                 "set_b": {"lo": -2.0, "hi": -1.0}})),
             "maps.T: run cyclic needs a map T"),
            (lambda d: d.update(run=["alternate"]),
             "maps.S: run alternate on an alternating trace needs S"),
            (lambda d: (d.pop("maps"), d.update(run=["falsify"])),
             "maps.T: run falsify on a picard trace needs a map T"),
            (lambda d: d.update(iterate=[1, 2]),
             "iterate: expected a table of run parameters"),
            (lambda d: d.update(seed=-1), "seed: must not be negative"),
            (lambda d: d["space"].update(dimension=10 ** 6), "space.dimension: at most 10000"),
            (lambda d: d.update(maps=None), "maps: expected a table with 'T'"),
            (lambda d: d.update(gauges=None), "gauges: expected a table"),
            (lambda d: d.update(cyclic_setting={"set_a": None, "set_b": {"lo": 0.0, "hi": 1.0}}),
             "cyclic_setting.set_a: required"),
            (lambda d: d.update(iterate={"steps": 3, "stride": 2}),
             "iterate.stride: unknown run parameter"),
        ],
    )
    def test_diagnostic(self, mutate, needle):
        doc = base_doc()
        mutate(doc)
        diags = validate_scenario(doc)
        assert any(needle in diag for diag in diags), diags


class TestBuildScenario:
    def test_full_document_fields(self):
        doc = {
            "name": "full",
            "seed": 7,
            "space": {"dimension": 1},
            "region": {"lows": [-4.0], "highs": [4.0]},
            "maps": {"T": "quarter", "S": "fifth"},
            "gauges": {
                "F": {"expression": "t", "profile": ["nondecreasing", "continuous"]},
                "psi": "mk",
                "family": {"kind": "iterated", "base": "psi"},
                "asmk_variants": ["asmk1", "asmk2"],
            },
            "budget": {"nu_horizon": 16, "index_horizon": 32, "pair_samples": 40},
            "run": ["iterate", "alternate"],
            "iterate": {"x0": [1.0], "steps": 30},
            "alternate": {"seed": [1.0], "steps": 12},
        }
        scn = build_scenario(doc)
        assert scn.name == "full"
        assert scn.seed == 7
        assert scn.space.id == "full-space"
        assert scn.space.dimension == 1
        assert scn.region.lows == (-4.0,)
        assert scn.region.highs == (4.0,)
        assert scn.map_t.name == "quarter"
        assert scn.map_s.name == "fifth"
        assert scn.psi.name == "mk"
        assert scn.f_gauge.name == "gauges.F"
        assert scn.family is not None
        assert scn.asmk_variants == ("asmk1", "asmk2")
        assert scn.runs == ("iterate", "alternate")
        assert scn.premetric.kind == "metric"
        assert (scn.budget.nu_horizon, scn.budget.index_horizon,
                scn.budget.pair_samples) == (16, 32, 40)
        assert scn.run_params("iterate") == {"x0": scn.space.point(1.0), "steps": 30,
                                             "tol": 1e-9, "max_steps": 10_000}
        assert scn.run_params("falsify") == {}

    def test_defaults(self):
        scn = build_scenario(base_doc())
        assert scn.seed == 0
        assert scn.space.id == "unit-space"
        assert scn.premetric.kind == "metric"
        assert scn.map_s is None and scn.sequence is None
        assert scn.asmk_variants == ()
        assert scn.runs == ("iterate",)

    def test_first_problem_wins_and_counts_the_rest(self):
        doc = {"name": "", "space": {"dimension": 0}, "run": []}
        with pytest.raises(ConfigurationError) as err:
            build_scenario(doc)
        assert "name: required non-empty string" in str(err.value)
        assert "(+2 more problem(s))" in str(err.value)

    def test_single_problem_has_no_suffix(self):
        doc = base_doc()
        doc["run"] = ["bogus"]
        with pytest.raises(ConfigurationError) as err:
            build_scenario(doc)
        assert "run: unknown run name 'bogus'" in str(err.value)
        assert "more problem" not in str(err.value)


class TestLoadScenarioFile:
    def test_round_trip(self, tmp_path):
        path = write_doc(tmp_path, base_doc())
        assert load_scenario_file(path) == base_doc()

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot read scenario file"):
            load_scenario_file(str(tmp_path / "missing.yaml"))

    def test_invalid_yaml(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("name: [unclosed\n", encoding="utf-8")
        with pytest.raises(ConfigurationError, match="not valid YAML"):
            load_scenario_file(str(path))

    def test_non_mapping_document(self, tmp_path):
        path = tmp_path / "list.yaml"
        path.write_text("- 1\n- 2\n", encoding="utf-8")
        with pytest.raises(ConfigurationError,
                           match="must be a mapping at the top level"):
            load_scenario_file(str(path))

    def test_building_from_a_dict_never_imports_yaml(self):
        # only load_scenario_file reads YAML; a fresh process that imports
        # fplab and builds a gallery document must not pay for the import
        code = ("import sys, fplab\n"
                "from fplab.gallery import get_entry\n"
                "from fplab.scenario import build_scenario\n"
                "build_scenario(get_entry('meir-keeler').doc)\n"
                "print('yaml' in sys.modules)\n")
        src = str(Path(fplab.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        assert out.stdout == "False\n"


class TestExitCode:
    @pytest.mark.parametrize(
        ("verdicts", "violations", "strict", "expected"),
        [
            ({}, [], False, 0),
            ({"a": "pass", "b": "pass"}, [], False, 0),
            ({"a": "pass", "b": "fail"}, [], False, 2),
            ({"a": "pass", "b": "inconclusive"}, [], False, 3),
            ({"a": "pass", "b": "inconclusive"}, [], True, 2),
            ({"a": "pass"}, [{"path": "x"}], False, 2),
            ({"a": "fail", "b": "inconclusive"}, [], False, 2),
        ],
    )
    def test_matrix(self, verdicts, violations, strict, expected):
        assert _exit_code(verdicts, violations, strict) == expected

    def test_informational_statuses_do_not_drive_the_code(self):
        # solver and scan outcomes are recorded next to the verdicts but
        # only pass/fail/inconclusive matter for the exit code
        verdicts = {"iterate.solve": "not_converged", "falsify.scan": "not_applicable"}
        assert _exit_code(verdicts, [], False) == 0


class TestCliRun:
    def test_scenario_file_all_pass(self, tmp_path, capsys):
        path = write_doc(tmp_path, SMOKE)
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out)]) == 0

        assert sorted(p.name for p in out.iterdir()) == [
            "reports.json", "solve_fixed_point.json", "trace_picard.csv"]
        report = json.loads((out / "reports.json").read_text())
        assert sorted(report) == ["budget", "exit_code", "runs", "scenario",
                                  "seed", "verdicts", "violations"]
        assert report["scenario"] == "cli-smoke"
        assert report["seed"] == 0
        assert report["exit_code"] == 0
        assert report["violations"] == []
        expected = {f"certify.{cid}": "pass"
                    for cid in ("C1", "C2", "C3", "C4", "C5", "CAUCHY",
                                "D1", "D2", "D3", "D4", "RATE", "overall")}
        expected["iterate.solve"] = "converged"
        assert report["verdicts"] == expected

        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("cli-smoke: exit 0")
        assert "  certify.C1: pass" in lines

    def test_strict_flag_on_a_clean_run(self, tmp_path):
        path = write_doc(tmp_path, SMOKE)
        assert main(["run", path, "--out", str(tmp_path / "out"), "--strict"]) == 0

    def test_gallery_entry_by_name(self, tmp_path, capsys):
        assert main(["run", "translation", "--out", str(tmp_path / "out")]) == 2
        out = capsys.readouterr().out
        assert "translation: exit 2" in out
        assert "certify.C3: fail" in out

    def test_missing_file(self, tmp_path, capsys):
        code = main(["run", str(tmp_path / "missing.yaml"),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert "error: cannot read scenario file" in capsys.readouterr().err

    def test_config_error(self, tmp_path, capsys):
        doc = base_doc()
        doc["run"] = ["bogus"]
        path = write_doc(tmp_path, doc)
        assert main(["run", path, "--out", str(tmp_path / "out")]) == 1
        assert "error: run: unknown run name 'bogus'" in capsys.readouterr().err

    def test_out_of_range_subscript_exits_one(self, tmp_path, capsys):
        # it used to pass validation and end the run in a raw IndexError
        doc = dict(SMOKE, maps={"T": ["x[3]"]})
        path = write_doc(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out)]) == 1
        assert "error: maps.T: map 'x[3]': subscript x[3] is out of range" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_an_allocation_failure_exits_one(self, tmp_path, capsys, monkeypatch):
        # "steps": 10**12 passes validate, and numpy's MemoryError for the
        # orbit ended the run in a traceback; the failure is injected here,
        # so the run asks for nothing large
        def out_of_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.28 TiB for an array")

        monkeypatch.setattr("fplab.traces._extend_orbit", out_of_memory)
        doc = {"name": "huge", "space": {"dimension": 1}, "maps": {"T": "half"},
               "run": ["iterate"], "iterate": {"x0": [1.0], "steps": 10}}
        out = tmp_path / "out"
        with pytest.raises(InputError, match="needs more memory than is available") as info:
            run_scenario_doc(doc, str(out))
        assert isinstance(info.value.__cause__, MemoryError)
        assert not out.exists()
        assert main(["run", write_doc(tmp_path, doc), "--out", str(out)]) == 1
        assert ("error: the run needs more memory than is available: Unable to allocate "
                "7.28 TiB") in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("budget", [{"eps_grid": [float("nan")]},
                                        {"delta_candidates": [float("inf"), 0.5]},
                                        {"slack": float("nan")}])
    def test_non_finite_budget_exits_one(self, tmp_path, capsys, budget):
        # a NaN eps used to give vacuous passes and a reports.json with NaN
        doc = dict(SMOKE, budget=dict(SMOKE["budget"], **budget))
        path = write_doc(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out)]) == 1
        assert f"error: budget: {next(iter(budget))} must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("budget, message", [
        ({"nu_horizon": 2.5}, "nu_horizon must be an integer"),
        ({"pair_samples": 2.5}, "pair_samples must be an integer"),
        ({"index_horizon": True}, "index_horizon must be an integer"),
        ({"eps_grid": ["x"]}, "eps_grid must be a list of real numbers"),
        ({"delta_candidates": [True]}, "delta_candidates must be a list of real numbers"),
        ({"slack": "1e-9"}, "slack must be a real number"),
    ])
    def test_mistyped_budget_exits_one(self, tmp_path, capsys, budget, message):
        # these used to end in a raw TypeError or ValueError, or (a bool
        # horizon) to run as if 1 had been written
        doc = dict(SMOKE, budget=dict(SMOKE["budget"], **budget))
        path = write_doc(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out)]) == 1
        assert f"error: budget: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_budget_scale(self, tmp_path, capsys):
        path = write_doc(tmp_path, SMOKE)
        code = main(["run", path, "--out", str(tmp_path / "out"),
                     "--budget-scale", "0"])
        assert code == 1
        assert "error: budget scale factor must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, message", [
        ("--seed", "-1", "seed: must not be negative, got -1"),
        ("--budget-scale", "nan", "budget scale factor must be positive and finite, got nan"),
        ("--budget-scale", "inf", "budget scale factor must be positive and finite, got inf"),
    ])
    def test_bad_override_exits_one(self, tmp_path, capsys, flag, value, message):
        # these ended in a raw ValueError from numpy's seed check or from
        # round(nan), and a raw OverflowError from round(inf)
        out = tmp_path / "out"
        assert main(["run", "banach-half", "--out", str(out), flag, value]) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_constant_expression_gauge_reaches_a_verdict(self, tmp_path, capsys):
        # psi = 0.5 ignores t; applying it to a gap array used to raise a
        # raw TypeError instead of producing the stepwise-domination verdict
        doc = {
            "name": "const-psi",
            "space": {"dimension": 1},
            "maps": {"T": "half", "S": "half"},
            "gauges": {"F": "id",
                       "psi": {"expression": "0.5",
                               "profile": ["nondecreasing", "right_upper_semicontinuous"]}},
            "run": ["alternate"],
            "alternate": {"seed": [1.0], "psi_variant": "zhang", "fpsi_pairs": 20},
        }
        path = write_doc(tmp_path, doc)
        assert main(["run", path, "--out", str(tmp_path / "out")]) == 2
        lines = capsys.readouterr().out.splitlines()
        # F(gap) <= 0.5 holds along the orbit but not on every sampled pair
        assert "  alternate.INEQFP: pass" in lines
        assert "  alternate.FPSI: fail" in lines

    def test_no_pair_budget_claims_no_pair_condition(self, tmp_path, capsys):
        # an index horizon of 1 holds no pair i < j: the translation used to
        # pass C4, C5 and D4 with nothing examined
        doc = dict(SMOKE, name="no-pairs", maps={"T": "translation"},
                   budget={"index_horizon": 1, "nu_horizon": 8, "pair_samples": 20})
        path = write_doc(tmp_path, doc)
        assert main(["run", path, "--out", str(tmp_path / "out")]) == 2
        lines = capsys.readouterr().out.splitlines()
        for cid in ("C4", "C5", "D4"):
            assert f"  certify.{cid}: inconclusive" in lines
        reports = json.loads((tmp_path / "out" / "reports.json").read_text())
        notes = [r["resolution_note"] for r in reports["runs"]["certify"]["additional"]]
        assert any(n.startswith("index horizon 1 is below the 2 indices") for n in notes)

    def test_proximity_budget_ending_on_a_non_finite_image(self, tmp_path, capsys):
        # x - 2 + 0/(x - 8) walks 20, 18, ..., 8 and then to NaN: the solver's
        # budget of 3 double steps ends at 8, whose image is not finite.  The
        # run reports the solve instead of exiting 1 with no run directory.
        doc = dict(CYCLIC, name="nan-image", maps={"T": "x - 2.0 + 0.0 / (x - 8.0)"},
                   cyclic={"x0": [20.0], "pairs": 3, "max_pairs": 3})
        path = write_doc(tmp_path, doc)
        assert main(["run", path, "--out", str(tmp_path / "out")]) == 2
        assert "  cyclic.solve: not_converged" in capsys.readouterr().out.splitlines()
        solve = strict_json((tmp_path / "out" / "solve_best_proximity.json").read_text())
        assert solve == {"point": [8.0], "residual": "inf", "iterations": 3,
                         "converged": False}

    def test_every_artifact_is_strict_json(self, tmp_path):
        # x -> x*x from 10 escapes, so the solve's residual is infinite
        doc = dict(SMOKE, name="escape-solve", maps={"T": "x * x"}, run=["iterate"],
                   iterate={"x0": [10.0]})
        path = write_doc(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out)]) == 0
        artifacts = sorted(out.glob("*.json"))
        assert [a.name for a in artifacts] == ["reports.json", "solve_fixed_point.json"]
        for artifact in artifacts:
            strict_json(artifact.read_text())
        assert strict_json((out / "solve_fixed_point.json").read_text())["residual"] == "inf"

    def test_disks_in_twelve_dimensions(self, tmp_path, capsys):
        # a sampler rejecting from the bounding box gave up here: about 1
        # draw in 3000 lands in a 12-dimensional ball, so validate was clean
        # and run exited 1
        rest = [0.0] * 11
        doc = _with(CYCLIC, "name", "disks-12", "space.dimension", 12, "maps.T", "neg",
                    "cyclic_setting", {side: {"kind": "disk", "center": [c] + rest, "radius": 1.0}
                                       for side, c in (("set_a", -2.0), ("set_b", 2.0))},
                    "cyclic", {"x0": [-1.0] + rest})
        path = write_doc(tmp_path, doc)
        assert main(["validate", path]) == 0
        assert capsys.readouterr().out.startswith("ok")
        assert main(["run", path, "--out", str(tmp_path / "out")]) == 0

    def test_escaping_orbit_cannot_fill_the_budget(self, tmp_path, capsys):
        # x -> x*x from 10 blows past the escape bound after three points,
        # far short of the aligned gaps the band checkers need
        doc = dict(SMOKE, name="escape", maps={"T": "x * x"},
                   iterate={"x0": [10.0], "steps": 40})
        path = write_doc(tmp_path, doc)
        assert main(["run", path, "--out", str(tmp_path / "out")]) == 1
        assert "aligned gaps" in capsys.readouterr().err


class TestCliValidate:
    def test_clean_file(self, tmp_path, capsys):
        path = write_doc(tmp_path, base_doc())
        assert main(["validate", path]) == 0
        assert capsys.readouterr().out.strip() == "ok"

    def test_diagnostics_go_to_stdout(self, tmp_path, capsys):
        doc = base_doc()
        doc["run"] = ["bogus"]
        path = write_doc(tmp_path, doc)
        assert main(["validate", path]) == 0
        assert "run: unknown run name 'bogus'" in capsys.readouterr().out

    def test_out_of_range_subscript_is_a_diagnostic(self, tmp_path, capsys):
        doc = base_doc()
        doc["maps"] = {"T": ["x[3]"]}
        path = write_doc(tmp_path, doc)
        assert main(["validate", path]) == 0
        assert "maps.T: map 'x[3]': subscript x[3] is out of range" in capsys.readouterr().out

    def test_non_finite_budget_is_a_diagnostic(self, tmp_path, capsys):
        doc = dict(base_doc(), budget={"eps_grid": [0.1, float("nan")]})
        path = write_doc(tmp_path, doc)
        assert main(["validate", path]) == 0
        assert "budget: eps_grid must be finite" in capsys.readouterr().out

    @pytest.mark.parametrize("budget, message", [
        ({"nu_horizon": 2.5}, "nu_horizon must be an integer"),
        ({"index_horizon": True}, "index_horizon must be an integer"),
        ({"eps_grid": ["x"]}, "eps_grid must be a list of real numbers"),
    ])
    def test_mistyped_budget_is_a_diagnostic(self, tmp_path, capsys, budget, message):
        doc = dict(base_doc(), budget=budget)
        path = write_doc(tmp_path, doc)
        assert main(["validate", path]) == 0
        assert f"budget: {message}" in capsys.readouterr().out

    def test_unreadable_file_still_exits_zero(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "missing.yaml")]) == 0
        assert "cannot read scenario file" in capsys.readouterr().out


def _with(base: dict, *path_value, drop=()) -> dict:
    """A deep copy of base with each (path, value) set and each path in drop
    removed; a path is a dotted string of table keys."""
    doc = copy.deepcopy(base)
    for path, value in zip(path_value[::2], path_value[1::2]):
        *parents, last = path.split(".")
        node = doc
        for key in parents:
            node = node.setdefault(key, {})
        node[last] = value
    for path in drop:
        *parents, last = path.split(".")
        node = doc
        for key in parents:
            node = node[key]
        del node[last]
    return doc


CYCLIC = {
    "name": "cyclic-smoke",
    "space": {"dimension": 1},
    "maps": {"T": "cyclic_reflect"},
    "premetric": {"kind": "shifted_cyclic"},
    "cyclic_setting": {"set_a": {"lo": 1.0, "hi": float("inf")},
                       "set_b": {"lo": -float("inf"), "hi": -1.0}},
    "budget": {"index_horizon": 8, "nu_horizon": 8, "pair_samples": 20},
    "run": ["cyclic"],
    "cyclic": {"x0": [3.0], "pairs": 30},
}

_PSI = {"expression": "0.5 * t",
        "profile": ["nondecreasing", "right_upper_semicontinuous"]}

ALTERNATE = {
    "name": "alternate-smoke",
    "space": {"dimension": 1},
    "maps": {"T": "quarter", "S": "fifth"},
    "gauges": {"F": "id", "psi": _PSI},
    "budget": {"index_horizon": 8, "nu_horizon": 8, "pair_samples": 20},
    "run": ["alternate"],
    "alternate": {"seed": [1.0], "psi_variant": "zhang", "fpsi_pairs": 20},
}

FALSIFY = _with(SMOKE, "name", "falsify-smoke", "run", ["iterate", "certify", "falsify"])

# Malformed documents, each with the field path its finding must start
# with: text or bools where numbers belong, fractional or non-positive
# counts, a misspelled key, unknown choices, missing or ill-sized points,
# and expressions or gauge profiles that do not build.
MALFORMED = [
    ("steps-text", _with(SMOKE, "iterate.steps", "x"), "iterate.steps:"),
    ("tol-text", _with(SMOKE, "iterate.tol", "x"), "iterate.tol:"),
    ("x0-text", _with(SMOKE, "iterate.x0", ["a"]), "iterate.x0:"),
    ("eps-text", _with(FALSIFY, "falsify", {"eps": "x"}), "falsify.eps:"),
    ("certify-tol-text", _with(SMOKE, "certify.tol", "x"), "certify.tol:"),
    ("pairs-text", _with(CYCLIC, "cyclic.pairs", "x"), "cyclic.pairs:"),
    ("set-lo-text", _with(CYCLIC, "cyclic_setting.set_a.lo", "x"),
     "cyclic_setting.set_a:"),
    ("region-text", _with(SMOKE, "region", {"lows": ["x"], "highs": [1.0]}), "region:"),
    ("t-max-text", _with(ALTERNATE, "gauges.psi.t_max", "x"), "gauges.psi"),
    ("profile-nested", _with(ALTERNATE, "gauges.psi.profile", [[1]]),
     "gauges.psi.profile:"),
    ("run-nested-list", _with(SMOKE, "run", [["iterate"]]), "run:"),
    ("run-table", _with(SMOKE, "run", [{}]), "run:"),
    ("steps-fraction", _with(SMOKE, "iterate.steps", 2.7), "iterate.steps:"),
    ("steps-bool", _with(SMOKE, "iterate.steps", True), "iterate.steps:"),
    ("dimension-bool", _with(SMOKE, "space.dimension", True), "space.dimension:"),
    ("seed-bool", _with(SMOKE, "seed", True), "seed:"),
    ("seed-point-typo", _with(ALTERNATE, "alternate.seed_point", [7.0]),
     "alternate.seed_point:"),
    ("zero-fixed-text", _with(ALTERNATE, "gauges.family",
                              {"kind": "explicit", "members": ["half"], "zero_fixed": "no"}),
     "gauges.family.zero_fixed:"),
    ("space-id-number", _with(SMOKE, "space.id", 5), "space.id:"),
    ("cyclic-x0-missing", _with(CYCLIC, drop=["cyclic.x0"]), "cyclic.x0:"),
    ("cyclic-x0-outside-set-a", _with(CYCLIC, "cyclic.x0", [-3.0]), "cyclic.x0:"),
    ("set-a-past-the-clip", _with(CYCLIC, "cyclic_setting.set_a.lo", 200.0),
     "cyclic_setting.set_a:"),
    # finite disks whose distance overflows to inf
    ("cyclic-gap-beyond-the-floats",
     _with(CYCLIC, "cyclic_setting", {side: {"kind": "disk", "center": [c], "radius": 1.0}
                                      for side, c in (("set_a", 1e308), ("set_b", -1e308))},
           "cyclic.x0", [1e308]), "cyclic_setting:"),
    # a cyclic run reads pairs + 1 even points and the settling diagnostic needs 4
    ("cyclic-pairs-1", _with(CYCLIC, "cyclic.pairs", 1), "cyclic.pairs:"),
    ("cyclic-pairs-2", _with(CYCLIC, "cyclic.pairs", 2), "cyclic.pairs:"),
    # of the document premetrics only the metric claims the sup-tail property
    ("route-tau-on-composed", _with(SMOKE, "premetric", {"kind": "composed", "G": "mk"}),
     "premetric.kind:"),
    ("route-tau-on-shifted-cyclic", _with(CYCLIC, "run", ["certify"]), "premetric.kind:"),
    ("falsify-source-unknown", _with(FALSIFY, "falsify", {"source": "weird"}),
     "falsify.source:"),
    ("falsify-alternating-without-s", _with(FALSIFY, "falsify", {"source": "alternating"}),
     "maps.S:"),
    ("psi-variant-unknown", _with(ALTERNATE, "alternate.psi_variant", "bogus"),
     "alternate.psi_variant:"),
    ("x0-wrong-length", _with(SMOKE, "iterate.x0", [1.0, 2.0]), "iterate.x0:"),
    ("steps-negative", _with(SMOKE, "iterate.steps", -3), "iterate.steps:"),
    ("max-steps-zero", _with(SMOKE, "iterate.max_steps", 0), "iterate.max_steps:"),
    ("map-number", _with(SMOKE, "maps.T", 3), "maps.T:"),
    ("outer-gauge-unparsable", _with(SMOKE, "premetric", {"kind": "composed", "G": "t +"},
                                     "certify.route", "composed"), "premetric.G:"),
    ("profile-entry-unknown", _with(ALTERNATE, "gauges.psi.profile", ["smooth"]),
     "gauges.psi:"),
]


class TestMalformedDocuments:
    @pytest.mark.parametrize(("doc", "path"), [case[1:] for case in MALFORMED],
                             ids=[case[0] for case in MALFORMED])
    def test_run_exits_one_and_validate_names_the_field(self, tmp_path, capsys, doc, path):
        scenario = write_doc(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["run", scenario, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()
        assert main(["validate", scenario]) == 0
        findings = capsys.readouterr().out.splitlines()
        assert any(line.startswith(path) for line in findings), findings

    def test_the_clean_bases_run(self, tmp_path):
        for doc in (SMOKE, CYCLIC, ALTERNATE, FALSIFY):
            assert validate_scenario(doc) == []
            run_scenario_doc(doc, str(tmp_path / doc["name"]))
            assert (tmp_path / doc["name"] / "reports.json").is_file()


# (run, document, the section whose steps sets the trace's length, the
# fewest steps its checks accept): certify reads index_horizon + nu_horizon
# gaps against the trace's forward shift, the falsify scan 4 consecutive
# gaps and INEQFP 2
SMALL_BUDGET = {"index_horizon": 8, "nu_horizon": 8, "pair_samples": 20}
SHORT_TRACES = [
    ("certify", {"name": "short-certify", "space": {"dimension": 1}, "maps": {"T": "half"},
                 "budget": SMALL_BUDGET, "run": ["certify"]}, "iterate", 16),
    ("falsify", {"name": "short-falsify", "space": {"dimension": 1}, "sequence": "harmonic",
                 "run": ["falsify"]}, "iterate", 4),
    ("alternate", {"name": "short-alternate", "space": {"dimension": 1},
                   "maps": {"T": "half", "S": "half"}, "gauges": {"F": "id", "psi": "half"},
                   "budget": SMALL_BUDGET, "run": ["alternate"]}, "alternate", 2),
]


class TestDeclaredTraceLength:
    @pytest.mark.parametrize(("doc", "owner", "steps"), [case[1:] for case in SHORT_TRACES],
                             ids=[case[0] for case in SHORT_TRACES])
    def test_the_fewest_steps_run_and_one_less_is_a_finding(self, tmp_path, capsys, doc,
                                                             owner, steps):
        enough = _with(doc, f"{owner}.steps", steps)
        assert validate_scenario(enough) == []
        run_scenario_doc(enough, str(tmp_path / "enough"))
        assert (tmp_path / "enough" / "reports.json").is_file()

        short = write_doc(tmp_path, _with(doc, f"{owner}.steps", steps - 1))
        out = tmp_path / "short"
        assert main(["run", short, "--out", str(out)]) == 1
        assert not out.exists()
        capsys.readouterr()
        assert main(["validate", short]) == 0
        findings = capsys.readouterr().out.splitlines()
        assert any(line.startswith(f"{owner}.steps: ") and f"at least {steps} steps" in line
                   for line in findings), findings


def _paths(node, prefix=()):
    """The path of every table entry and list item below node."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _wrong_values(huge: bool):
    values = [st.booleans(), st.just(math.nan), st.just(math.inf), st.just(-math.inf),
              st.just([[1.0]]), st.just({"a": {"b": 1}}), st.just("x"), st.just(None),
              st.integers(-10_000, 10_000), st.floats(-1e4, 1e4)]
    if huge:
        values.append(st.sampled_from([10 ** 30, -(10 ** 30), 10 ** 400, 1e308, 2 ** 63]))
    return st.one_of(values)


@st.composite
def mutated_documents(draw, huge: bool):
    """A gallery document with one drawn mutation: a field dropped or given
    a wrong value, a run parameter given a wrong value, an unknown key added
    to a table, or a run name added."""
    doc = copy.deepcopy(get_entry(draw(st.sampled_from(gallery_names()))).doc)
    mutation = draw(st.sampled_from(("drop", "replace", "param", "unknown-key", "add-run")))
    if mutation == "param":
        run = draw(st.sampled_from(doc["run"]))
        key = draw(st.sampled_from(sorted(RUN_PARAMS[run])))
        doc.setdefault(run, {})[key] = draw(_wrong_values(huge))
        return doc
    if mutation == "add-run":
        doc["run"].append(draw(st.sampled_from(
            [r for r in RUN_NAMES if r not in doc["run"]] + ["bogus"])))
        return doc
    if mutation == "unknown-key":
        tables = [()] + [p for p in _paths(doc) if isinstance(_at(doc, p), dict)]
        _at(doc, draw(st.sampled_from(tables)))["zz_unknown"] = 1
        return doc
    *parents, last = draw(st.sampled_from(list(_paths(doc))))
    if mutation == "drop":
        del _at(doc, parents)[last]
    else:
        _at(doc, parents)[last] = draw(_wrong_values(huge))
    return doc


class TestSchemaFuzz:
    """Mutated gallery documents: the walk never raises, agrees with the
    build, and a run either completes or ends in an FplabError with nothing
    left behind."""

    @given(mutated_documents(huge=True))
    def test_validate_agrees_with_build(self, doc):
        diags = validate_scenario(doc)
        if not diags:
            build_scenario(doc)
            return
        with pytest.raises(ConfigurationError) as err:
            build_scenario(doc)
        assert str(err.value).startswith(diags[0])

    @settings(max_examples=40)
    @given(mutated_documents(huge=False))
    def test_run_completes_or_leaves_nothing(self, doc):
        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, "out")
            try:
                run_scenario_doc(doc, out, budget_scale=0.05)
            except FplabError:
                assert not os.path.exists(out)
            else:
                assert os.path.isfile(os.path.join(out, "reports.json"))


def _readme_run_params() -> list[tuple]:
    """(run, key, kind, default) per row of README's run-parameter table.  A
    kind is a word or a list of `choices`; a default is a Python literal when
    the cell is one code span, else None (prose: the walk or runner fills it)."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    rows = readme.split("| Run | Key | Kind | Default |\n| --- | --- | --- | --- |\n")[1]
    table = []
    for row in rows[:rows.index("\n\n")].splitlines():
        run, key, kind, default = (cell.strip() for cell in row.strip("|").split("|"))
        choices = tuple(re.findall(r"`([^`]*)`", kind))
        literal = re.fullmatch(r"`([^`]*)`", default)
        table.append((run, key, choices or kind,
                      ast.literal_eval(literal.group(1)) if literal else None))
    return table


def test_readme_documents_the_run_parameters():
    walk = [(run, key, kind, default) for run, spec in RUN_PARAMS.items()
            for key, (kind, default) in spec.items()]
    assert _readme_run_params() == walk


class TestCliGallery:
    def test_list(self, capsys):
        assert main(["gallery", "--list"]) == 0
        out = capsys.readouterr().out
        for name in gallery_names():
            assert name in out
        assert "exit 0" in out and "exit 2" in out

    def test_run_unknown_entry(self, capsys):
        assert main(["gallery", "--run", "nope"]) == 1
        assert "unknown gallery entry" in capsys.readouterr().err

    def test_run_one_entry(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["gallery", "--run", "banach-half", "--out", str(out)]) == 0
        assert capsys.readouterr().out.startswith(f"banach-half: exit 0  ({out})\n")
        assert (out / "reports.json").is_file()

    def test_whole_gallery_is_the_same_at_any_job_count(self, tmp_path, capsys):
        # some entries expect a fail, so the whole gallery exits 2
        want = [f"{e.name}: exit {e.expected_exit} (expected {e.expected_exit}) ok"
                for e in GALLERY]
        trees = []
        for jobs in ("1", "3"):
            out = tmp_path / jobs
            assert main(["gallery", "--out", str(out), "--jobs", jobs]) == 2
            assert capsys.readouterr().out.splitlines() == want
            trees.append({path.relative_to(out): path.read_bytes()
                          for path in sorted(out.rglob("*")) if path.is_file()})
        assert trees[0] == trees[1]
        assert {path.parts[0] for path in trees[0]} == set(gallery_names())

    @pytest.mark.parametrize("exits, want", [((2, 3), 2), ((3, 2), 2), ((3, 0), 3),
                                             ((0, 0), 0)])
    def test_a_fail_wins_over_an_inconclusive(self, monkeypatch, capsys, exits, want):
        # each entry gets the exit it expects, so every line is ok
        entries = [dataclasses.replace(e, expected_exit=code) for e, code in zip(GALLERY, exits)]
        codes = {e.name: e.expected_exit for e in entries}
        monkeypatch.setattr("fplab.gallery.GALLERY", entries)
        monkeypatch.setattr("fplab.runner.run_scenario", lambda name, out, **_: RunResult(
            name=name, exit_code=codes[name], verdicts={}, violations=[], out_dir=out))
        assert main(["gallery", "--out", "unused"]) == want
        assert capsys.readouterr().out.count(" ok\n") == len(exits)

    def test_a_violated_expectation_is_printed(self, tmp_path, monkeypatch, capsys):
        wrong = dataclasses.replace(get_entry("banach-half"), expectations=(
            Expectation("iterate.solve", "not_converged", "pinned wrong on purpose"),))
        monkeypatch.setattr("fplab.gallery.GALLERY", (wrong,))
        line = "  EXPECTATION VIOLATED iterate.solve: expected not_converged, got converged"
        assert main(["run", "banach-half", "--out", str(tmp_path / "run")]) == 2
        assert line in capsys.readouterr().out.splitlines()
        assert main(["gallery", "--out", str(tmp_path / "gallery")]) == 2
        assert capsys.readouterr().out.splitlines() == [
            "banach-half: exit 2 (expected 0) UNEXPECTED", line]


class TestGalleryTable:
    def test_names(self):
        names = gallery_names()
        assert names == ("banach-half", "meir-keeler", "translation", "periodic",
                         "cyclic-line", "alternating-45", "composed-G",
                         "harmonic-divergent")
        assert len(set(names)) == len(names)

    def test_expected_exits(self):
        expected = {
            "banach-half": 0,
            "meir-keeler": 2,
            "translation": 2,
            "periodic": 2,
            "cyclic-line": 0,
            "alternating-45": 0,
            "composed-G": 0,
            "harmonic-divergent": 2,
        }
        assert {e.name: e.expected_exit for e in GALLERY} == expected

    def test_entries_are_internally_consistent(self):
        for entry in GALLERY:
            assert entry.doc["name"] == entry.name
            assert validate_scenario(entry.doc) == []
            assert entry.description
            assert entry.expectations

    def test_get_entry(self):
        assert get_entry("banach-half").name == "banach-half"
        with pytest.raises(InputError, match="unknown gallery entry"):
            get_entry("nope")

    def test_listing_has_one_line_per_entry(self):
        lines = list_gallery().splitlines()
        assert len(lines) == len(GALLERY)
        for entry, line in zip(GALLERY, lines):
            assert line.startswith(entry.name)
            assert f"exit {entry.expected_exit}" in line


class TestRunnerOverrides:
    def test_reports_are_deterministic(self, tmp_path):
        run_scenario_doc(SMOKE, str(tmp_path / "a"))
        run_scenario_doc(SMOKE, str(tmp_path / "b"))
        first = (tmp_path / "a" / "reports.json").read_bytes()
        second = (tmp_path / "b" / "reports.json").read_bytes()
        assert first == second

    def test_seed_and_budget_scale_are_recorded(self, tmp_path):
        run_scenario_doc(SMOKE, str(tmp_path / "out"), seed=9, budget_scale=0.5)
        report = json.loads((tmp_path / "out" / "reports.json").read_text())
        assert report["seed"] == 9
        assert report["budget"]["index_horizon"] == 4
        assert report["budget"]["nu_horizon"] == 4
        assert report["budget"]["pair_samples"] == 10

    @pytest.mark.parametrize("seed", [-1, True, 2.0, "3"])
    def test_seed_follows_the_documents_rule(self, tmp_path, seed):
        # -1 was a raw ValueError from numpy; the others ran as int(seed)
        out = tmp_path / "out"
        with pytest.raises(InputError, match="seed: must"):
            run_scenario_doc(SMOKE, str(out), seed=seed)
        assert not out.exists()

    @pytest.mark.parametrize("name", gallery_names())
    def test_small_budget_scales_end_with_verdicts(self, tmp_path, name):
        # 0.05 takes nu_horizon 64 to 3, below the 4 members C6 needs: C6 is
        # inconclusive, where the run used to end in an InputError
        result = run_scenario(name, str(tmp_path / name), budget_scale=0.05)
        assert result.exit_code in (0, 2)
        if name == "banach-half":
            assert result.exit_code == 2
            assert result.verdicts["certify.asmk1.C6"] == "inconclusive"
            assert result.verdicts["certify.asmk2.C6"] == "inconclusive"

    def test_a_verdict_key_is_written_once(self, tmp_path):
        sink = _Sink(str(tmp_path))
        sink.value("iterate.solve", "converged")
        with pytest.raises(ConfigurationError, match="duplicate verdict key iterate.solve"):
            sink.value("iterate.solve", "not_converged")

    def test_run_result_mirrors_the_report(self, tmp_path):
        result = run_scenario_doc(SMOKE, str(tmp_path / "out"))
        assert result.name == "cli-smoke"
        assert result.exit_code == 0
        assert result.violations == []
        assert "reports.json" in result.artifacts
        assert "trace_picard.csv" in result.artifacts
        assert result.verdicts["certify.overall"] == "pass"

    @pytest.mark.parametrize("gauge, message", [
        # the translation's pairs reach t = 319 at the default horizons
        ({"expression": "t / (1 + t)", "t_max": 100.0},
         "gauge 'premetric.G' evaluated at t=319.0 outside its working range [0, 100.0]"),
        # every pair gap is at least 1, but p(x, x) = -0.001
        ("t - 0.001", "premetric composed(premetric.G, metric) evaluated to a negative or "
                      "non-finite value"),
    ], ids=["out-of-range", "negative-at-zero"])
    def test_a_bad_composed_gap_in_c4_exits_one(self, tmp_path, capsys, gauge, message):
        doc = {"name": "bad-gap", "space": {"dimension": 1}, "maps": {"T": "translation"},
               "premetric": {"kind": "composed", "G": gauge}, "run": ["certify"],
               "iterate": {"x0": [0.0], "steps": 400}, "certify": {"route": "composed"}}
        out = tmp_path / "out"
        assert main(["run", write_doc(tmp_path, doc), "--out", str(out)]) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_a_raising_run_leaves_nothing_behind(self, tmp_path):
        # the composed gap from x_0 outgrows mk's working range [0, 1000]
        # after the fixed-point solve has already written its artifact
        doc = {
            "name": "beyond-t-max",
            "space": {"dimension": 1},
            "maps": {"T": "translation"},
            "premetric": {"kind": "composed", "G": "mk"},
            "run": ["iterate", "certify"],
            "iterate": {"steps": 1100},
            "certify": {"route": "composed"},
        }
        fresh = tmp_path / "fresh"
        with pytest.raises(InputError):
            run_scenario_doc(doc, str(fresh))
        assert not fresh.exists()
        kept = tmp_path / "kept"
        kept.mkdir()
        (kept / "notes.txt").write_text("not ours")
        with pytest.raises(InputError):
            run_scenario_doc(doc, str(kept))
        assert sorted(p.name for p in kept.iterdir()) == ["notes.txt"]
