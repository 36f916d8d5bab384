"""Self-maps of a space: named builtins and expression-defined maps."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigurationError, InputError
from .expressions import compile_expression
from .spaces import Point, Space


@dataclass(frozen=True)
class NamedMap:
    """A map on a space.  fn sends a (..., d) coordinate array to a (..., d)
    array, so one call moves a whole block of points, as orbits and solvers
    do.  Applying the map to a Point is the edge for callers holding one; a
    non-finite or misshapen image is an InputError there.

    fn must be a pure function of its input coordinates: no state, no
    randomness, and no writes to its argument.  Orbits rely on this to stop
    iterating once a row repeats the row two steps earlier and to tile the
    rest.  The builtins and compiled expressions are pure."""

    name: str
    space: Space
    fn: Callable[[np.ndarray], np.ndarray]

    def __call__(self, x: Point) -> Point:
        if x.space_id != self.space.id:
            raise InputError(
                f"map {self.name!r} on space {self.space.id!r} applied to a point "
                f"from {x.space_id!r}"
            )
        with np.errstate(all="ignore"):
            image = self.fn(np.asarray(x.coords))
        return self.space.point(image.tolist())


_BUILTINS: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "half": lambda x: 0.5 * x,
    "mk": lambda x: x / (1.0 + x),
    "translation": lambda x: x + 1.0,
    "flip": lambda x: 1.0 - x,
    "quarter": lambda x: 0.25 * x,
    "fifth": lambda x: 0.2 * x,
    "neg": lambda x: -x,
    "cyclic_reflect": lambda x: -0.5 * (np.abs(x) + 1.0) * np.where(x != 0, np.sign(x), 1.0),
}


def builtin_map(name: str, space: Space) -> NamedMap:
    if name not in _BUILTINS:
        raise ConfigurationError(f"unknown builtin map {name!r}; have {sorted(_BUILTINS)}")
    return NamedMap(name=name, space=space, fn=_BUILTINS[name])


def expression_map(space: Space, sources: list[str] | str, name: str | None = None) -> NamedMap:
    """Coordinate-wise expressions in x.

    A single source is applied to every coordinate with x bound to that
    coordinate, one number; a list gives one expression per output
    coordinate with x the input's space.dimension coordinates, read as x[i].
    compile_expression refuses any other reading of x.
    """
    if isinstance(sources, str):
        expr = compile_expression(sources, variables=("x",))

        def apply_each(x: np.ndarray) -> np.ndarray:
            return np.broadcast_to(expr(x=x), x.shape)

        return NamedMap(name=name or sources, space=space, fn=apply_each)

    if len(sources) != space.dimension:
        raise ConfigurationError(
            f"need {space.dimension} coordinate expressions, got {len(sources)}"
        )
    exprs = [compile_expression(src, variables=("x",), width=space.dimension) for src in sources]

    def apply_list(x: np.ndarray) -> np.ndarray:
        return np.stack([np.broadcast_to(e(x=x), x.shape[:-1]) for e in exprs], axis=-1)

    return NamedMap(name=name or "; ".join(sources), space=space, fn=apply_list)
