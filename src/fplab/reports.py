"""Verdicts, search budgets, the certificate report, and sanitize, the one
JSON form of every result; also the route, variant and sequence names a
scenario document chooses among, so the schema walk imports no checker."""

from __future__ import annotations

import dataclasses
import enum
import math
import numbers
from collections.abc import Iterable
from dataclasses import dataclass, field, replace
from typing import Any

import numpy as np

from .errors import InputError

#: The Cauchy routes solvers.certify_cauchy accepts.
CAUCHY_ROUTES = ("tau", "composed", "mixed")
#: The gauge-family domination variants certificates.check_asmk accepts.
ASMK_VARIANTS = ("asmk1", "asmk2")
#: The psi regularity variants certificates.check_f_psi_contraction accepts.
PSI_VARIANTS = ("standard", "zhang")
#: The named sequences traces.sequence_trace builds.
SEQUENCE_NAMES = ("harmonic",)


class Verdict(str, enum.Enum):
    PASS = "pass"
    FAIL = "fail"
    INCONCLUSIVE = "inconclusive"


def worst_verdict(verdicts) -> Verdict:
    """fail dominates inconclusive dominates pass."""
    vs = list(verdicts)
    if Verdict.FAIL in vs:
        return Verdict.FAIL
    if Verdict.INCONCLUSIVE in vs:
        return Verdict.INCONCLUSIVE
    return Verdict.PASS


def last_quarter(values: np.ndarray) -> np.ndarray:
    """The last quarter of values, max(1, n // 4) of n entries, on the last axis."""
    return values[..., -max(1, values.shape[-1] // 4):]


def _default_eps_grid() -> tuple[float, ...]:
    return tuple(10.0 ** -k for k in range(7))


def _default_delta_candidates() -> tuple[float, ...]:
    return tuple(2.0 ** -k for k in range(21))


def _is_real(value: Any) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_count(value: Any) -> bool:
    """value is an int of at least 1, not a bool."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


def _as_float(value: Any) -> float:
    """float(value), or NaN for an int too large for a float."""
    try:
        return float(value)
    except OverflowError:
        return math.nan


def _real_tuple(name: str, values: Any) -> tuple[float, ...]:
    if isinstance(values, (str, bytes)) or not isinstance(values, Iterable):
        raise InputError(f"{name} must be a list of real numbers, got {values!r}")
    values = tuple(values)
    if not all(map(_is_real, values)):
        raise InputError(f"{name} must be a list of real numbers, got {list(values)!r}")
    return tuple(map(_as_float, values))


@dataclass(frozen=True)
class SearchBudget:
    """Finite search budget shared by every checker.

    eps_grid: levels at which universally quantified conditions are probed.
    delta_candidates: strictly decreasing candidates for existential deltas.
    nu_horizon: maximum shift searched for existential indices.
    index_horizon: how many leading indices (or index pairs) are examined.
    pair_samples: sampled point pairs for mapping-level checks.
    slack: numeric tolerance for strict inequalities.
    """

    eps_grid: tuple[float, ...] = field(default_factory=_default_eps_grid)
    delta_candidates: tuple[float, ...] = field(default_factory=_default_delta_candidates)
    nu_horizon: int = 64
    index_horizon: int = 256
    pair_samples: int = 200
    slack: float = 1e-9

    def __post_init__(self) -> None:
        # bool is an int subclass, yet true is no horizon and no level
        for name in ("nu_horizon", "index_horizon", "pair_samples"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise InputError(f"{name} must be an integer, got {value!r}")
        for name in ("eps_grid", "delta_candidates"):
            object.__setattr__(self, name, _real_tuple(name, getattr(self, name)))
        if not _is_real(self.slack):
            raise InputError(f"slack must be a real number, got {self.slack!r}")
        # NaN slips through every comparison below, and an infinite level
        # gives vacuous bands and non-JSON reports
        for name, values in (("eps_grid", self.eps_grid),
                             ("delta_candidates", self.delta_candidates),
                             ("slack", (_as_float(self.slack),))):
            if not all(map(math.isfinite, values)):
                raise InputError(f"{name} must be finite")
        if not self.eps_grid or any(e <= 0 for e in self.eps_grid):
            raise InputError("eps_grid must be non-empty and positive")
        if not self.delta_candidates or any(d <= 0 for d in self.delta_candidates):
            raise InputError("delta_candidates must be non-empty and positive")
        if any(b >= a for a, b in zip(self.delta_candidates, self.delta_candidates[1:])):
            raise InputError("delta_candidates must be strictly decreasing")
        if self.nu_horizon < 1 or self.index_horizon < 1 or self.pair_samples < 1:
            raise InputError("horizons and sample counts must be positive")
        if self.slack <= 0:
            raise InputError("slack must be positive")

    def scaled(self, factor: float) -> "SearchBudget":
        """Scale the discrete budget knobs by ``factor`` (grids unchanged)."""
        if not (_is_real(factor) and 0 < _as_float(factor) < math.inf):
            raise InputError(f"budget scale factor must be positive and finite, got {factor!r}")
        return replace(
            self,
            nu_horizon=max(1, round(self.nu_horizon * factor)),
            index_horizon=max(1, round(self.index_horizon * factor)),
            pair_samples=max(1, round(self.pair_samples * factor)),
        )


def sanitize(value: Any) -> Any:
    """The JSON form of a value: plain bools, strings (a Verdict among
    them), floats, ints, dicts and lists, with numpy scalars and arrays
    coerced.  A non-finite float is its repr, "inf", "-inf" or "nan", so
    the text is strict JSON.  A Point is its coordinate list and any other
    dataclass the table of its fields, so a result's fields are its artifact
    schema; anything else is its str."""
    if isinstance(value, (bool, str)) or value is None:
        return value
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, (float, np.floating)):
        value = float(value)
        return value if math.isfinite(value) else repr(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, dict):
        return {str(k): sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, np.ndarray)):
        return [sanitize(v) for v in value]
    if dataclasses.is_dataclass(value):
        from .spaces import Point  # spaces imports this module

        if isinstance(value, Point):
            return [sanitize(c) for c in value.coords]
        return {f.name: sanitize(getattr(value, f.name)) for f in dataclasses.fields(value)}
    return str(value)


def witness(**fields: Any) -> dict:
    """Build a witness record with JSON-safe values."""
    return {k: sanitize(v) for k, v in fields.items()}


@dataclass
class CertificateReport:
    """Verdict for one condition, with the evidence that produced it.

    A fail verdict always carries at least one witness; a pass verdict for
    an existentially quantified condition carries the witnessing delta/nu.
    """

    condition_id: str
    verdict: Verdict
    witnesses: list[dict] = field(default_factory=list)
    budget: SearchBudget | None = None
    resolution_note: str = ""

    def __post_init__(self) -> None:
        if self.verdict is Verdict.FAIL and not self.witnesses:
            raise InputError(f"{self.condition_id}: fail verdict requires at least one witness")

