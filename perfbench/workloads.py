"""Workload definitions: the operations each workload runs and what each
operation must produce.

One operation is one ``fplab.run_scenario_doc`` call on one document with one
scenario seed.  A workload seed derives every scenario seed and every
generated document, so the same workload seed always gives the same inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from fplab.gallery import get_entry, gallery_names

# Orbit length of the long-orbit documents.
LONG_STEPS = 20_000
# Mapping-level checkers sample this many pairs; kept small so that orbit
# sampling and the D4 band search stay minor next to the per-point work.
LONG_PAIR_SAMPLES = 8

# The psi gauge of the alternating documents, as in the alternating-45 entry.
_PSI = {
    "expression": "7.0 * t / 12.0",
    "name": "seven-twelfths",
    "profile": [
        "continuous", "right_continuous", "nondecreasing",
        "positive_on_positive", "zero_at_zero",
        "upper_semicontinuous", "right_upper_semicontinuous",
        "strictly_below_identity",
    ],
}


@dataclass(frozen=True)
class Op:
    """One operation and the outcome it must have."""

    label: str
    doc: dict
    seed: int
    expected_exit: int
    # verdict-map entries the run must contain with exactly these values
    expected_verdicts: dict
    # True when the verdict map must equal expected_verdicts as a whole
    exact_verdicts: bool
    # pinned gallery expectations, handed to the runner as `fplab gallery` does
    expectations: tuple = ()


def _gallery_ops(names: list[str], seed: int) -> tuple[Op, ...]:
    """Gallery entries at scenario seed `seed`.  Every entry's own seed is 0,
    so at workload seed 0 they write exactly what `fplab gallery` writes."""
    ops = []
    for name in names:
        entry = get_entry(name)
        ops.append(Op(
            label=f"{name}@{seed}",
            doc=entry.doc,
            seed=seed,
            expected_exit=entry.expected_exit,
            expected_verdicts={e.path: e.expected for e in entry.expectations},
            exact_verdicts=False,
            expectations=entry.expectations,
        ))
    return tuple(ops)


def long_orbit_documents(seed: int) -> list[dict]:
    """Five documents with ~20 000-point orbits.  The workload seed picks the
    starting points and the scenario seed; the verdicts do not depend on it."""
    rng = random.Random(seed)

    def pick(lo: float, hi: float) -> float:
        return round(rng.uniform(lo, hi), 6)

    scenario_seed = rng.randrange(2 ** 31)
    line_region = {"lows": [-10.0], "highs": [10.0]}
    small_budget = {"pair_samples": LONG_PAIR_SAMPLES}
    falsify = {"eps": 0.5, "gap_tol": 1e-2}
    return [
        {
            "name": "long-half-2d",
            "seed": scenario_seed,
            "space": {"dimension": 2},
            "region": {"lows": [-10.0, -10.0], "highs": [10.0, 10.0]},
            "maps": {"T": "half"},
            "budget": small_budget,
            "run": ["iterate", "certify", "falsify"],
            "iterate": {"x0": [pick(1.0, 5.0), pick(-5.0, -1.0)],
                        "steps": LONG_STEPS, "tol": 1e-9},
            "certify": {"route": "tau"},
            "falsify": falsify,
        },
        {
            "name": "long-affine",
            "seed": scenario_seed,
            "space": {"dimension": 1},
            "region": line_region,
            "maps": {"T": "0.5 * x + 1.0"},
            "budget": small_budget,
            "run": ["iterate", "certify", "falsify"],
            "iterate": {"x0": [pick(3.0, 8.0)], "steps": LONG_STEPS, "tol": 1e-9},
            "certify": {"route": "tau"},
            "falsify": falsify,
        },
        {
            "name": "long-harmonic",
            "seed": scenario_seed,
            "space": {"dimension": 1},
            "sequence": "harmonic",
            "run": ["iterate", "certify", "falsify"],
            "iterate": {"steps": LONG_STEPS - 1},
            "certify": {"route": "tau", "source": "sequence"},
            "falsify": falsify,
        },
        {
            "name": "long-alternating",
            "seed": scenario_seed,
            "space": {"dimension": 1},
            "region": line_region,
            "maps": {"T": "quarter", "S": "fifth"},
            "budget": small_budget,
            "gauges": {
                "F": "id",
                "psi": _PSI,
                "family": {"kind": "iterated", "base": "psi"},
                "asmk_variants": ["asmk1"],
            },
            "run": ["certify", "alternate"],
            "certify": {"route": "tau", "source": "alternating"},
            "alternate": {"seed": [pick(0.5, 2.0)], "steps": LONG_STEPS, "tol": 1e-9,
                          "fpsi_pairs": 4000},
        },
        {
            "name": "long-cyclic",
            "seed": scenario_seed,
            "space": {"dimension": 1},
            "maps": {"T": "cyclic_reflect"},
            "premetric": {"kind": "shifted_cyclic"},
            "cyclic_setting": {
                "set_a": {"kind": "interval", "lo": 1.0, "hi": float("inf")},
                "set_b": {"kind": "interval", "lo": -float("inf"), "hi": -1.0},
            },
            "run": ["cyclic"],
            "cyclic": {"x0": [pick(1.5, 6.0)], "pairs": LONG_STEPS // 2, "tol": 1e-8,
                       "collapse_tol": 1e-6, "samples": 64},
        },
    ]


def _long_orbit_ops(seed: int, verdicts: dict) -> tuple[Op, ...]:
    ops = []
    for doc in long_orbit_documents(seed):
        pinned = verdicts[doc["name"]]
        ops.append(Op(
            label=f"{doc['name']}@{doc['seed']}",
            doc=doc,
            seed=doc["seed"],
            expected_exit=pinned["exit_code"],
            expected_verdicts=pinned["verdicts"],
            exact_verdicts=True,
        ))
    return tuple(ops)


WORKLOADS = ("meir-keeler", "gallery-quick", "long-orbit")


def build_workload(name: str, seed: int, expected: dict) -> tuple[Op, ...]:
    """The operations of one round of workload `name` at workload seed
    `seed`; `expected` is the parsed expected.json (long-orbit verdict maps
    live there)."""
    if name == "meir-keeler":
        ops = _gallery_ops(["meir-keeler"], seed)
    elif name == "gallery-quick":
        names = [n for n in gallery_names() if n != "meir-keeler"]
        ops = _gallery_ops(names, seed)
    elif name == "long-orbit":
        ops = _long_orbit_ops(seed, expected["long_orbit_verdicts"])
    else:
        raise ValueError(f"unknown workload {name!r}; have {list(WORKLOADS)}")
    return ops
