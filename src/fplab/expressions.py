"""Small arithmetic expression grammar for user-declared evaluables.

Maps and gauges may be given as text expressions using +, -, *, /, abs,
min, max, numeric constants and coordinate references like ``x[0]``.
Parsing is done with the stdlib ``ast`` module and a strict node
whitelist, so nothing outside the grammar can run.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .errors import ExpressionError

_ALLOWED_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div)
_ALLOWED_UNARY = (ast.USub, ast.UAdd)


def _reduce_min(*args: Any) -> Any:
    out = args[0]
    for a in args[1:]:
        out = np.minimum(out, a)
    return out


def _reduce_max(*args: Any) -> Any:
    out = args[0]
    for a in args[1:]:
        out = np.maximum(out, a)
    return out


def _divide(a: Any, b: Any) -> Any:
    """a / b with NaN wherever b is zero, element by element for arrays, so
    scalars and arrays agree on division by zero."""
    if np.ndim(b) == 0:
        return a / b if b != 0 else a * np.nan
    return np.where(b == 0, np.nan, np.divide(a, b))


_FUNCTIONS: dict[str, Any] = {"abs": abs, "min": _reduce_min, "max": _reduce_max}
_DIVIDE = "__divide"


class _DivisionToCall(ast.NodeTransformer):
    """Rewrites every a / b into a call of _divide."""

    def visit_BinOp(self, node: ast.BinOp) -> ast.AST:
        self.generic_visit(node)
        if not isinstance(node.op, ast.Div):
            return node
        call = ast.Call(func=ast.Name(id=_DIVIDE, ctx=ast.Load()),
                        args=[node.left, node.right], keywords=[])
        return ast.copy_location(call, node)


class CoordView:
    """Binds a coordinate array so x[i] reads arr[..., i]: an expression over
    coordinates then evaluates on a whole (..., d) block at once."""

    __slots__ = ("arr",)

    def __init__(self, arr: np.ndarray) -> None:
        self.arr = arr

    def __getitem__(self, i: int) -> np.ndarray:
        return self.arr[..., i]


def _validate(node: ast.AST, variables: tuple[str, ...], source: str) -> None:
    if isinstance(node, ast.Expression):
        _validate(node.body, variables, source)
    elif isinstance(node, ast.BinOp):
        if not isinstance(node.op, _ALLOWED_BINOPS):
            raise ExpressionError(f"operator not in grammar: {ast.dump(node.op)} in {source!r}")
        _validate(node.left, variables, source)
        _validate(node.right, variables, source)
    elif isinstance(node, ast.UnaryOp):
        if not isinstance(node.op, _ALLOWED_UNARY):
            raise ExpressionError(f"unary operator not in grammar in {source!r}")
        _validate(node.operand, variables, source)
    elif isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCTIONS:
            raise ExpressionError(f"only abs/min/max calls are allowed in {source!r}")
        if node.keywords:
            raise ExpressionError(f"keyword arguments are not in the grammar in {source!r}")
        if not node.args:
            raise ExpressionError(f"{node.func.id}() needs at least one argument in {source!r}")
        if node.func.id == "abs" and len(node.args) != 1:
            raise ExpressionError(f"abs() takes exactly one argument in {source!r}")
        for arg in node.args:
            _validate(arg, variables, source)
    elif isinstance(node, ast.Constant):
        if not isinstance(node.value, (int, float)) or isinstance(node.value, bool):
            raise ExpressionError(f"only numeric constants are allowed in {source!r}")
    elif isinstance(node, ast.Name):
        if node.id not in variables:
            raise ExpressionError(f"unknown name {node.id!r} in {source!r} (declared: {variables})")
    elif isinstance(node, ast.Subscript):
        if not isinstance(node.value, ast.Name) or node.value.id not in variables:
            raise ExpressionError(f"subscript base must be a declared variable in {source!r}")
        idx = node.slice
        if not (isinstance(idx, ast.Constant) and isinstance(idx.value, int) and idx.value >= 0):
            raise ExpressionError(f"subscripts must be literal non-negative ints in {source!r}")
    else:
        raise ExpressionError(f"syntax not in grammar: {type(node).__name__} in {source!r}")


@dataclass(frozen=True)
class Expression:
    """A compiled expression over the declared variable names.

    Calling the expression with keyword arguments bound to floats gives a
    float; binding numpy arrays (or CoordViews of them) broadcasts, which
    the batch evaluation paths rely on.  Division by zero yields NaN, for
    floats and element by element for arrays alike, so the checkers can
    record it as a witness.
    """

    source: str
    variables: tuple[str, ...]
    _code: Any = field(repr=False, compare=False, default=None)
    # every literal index i of a subscript v[i]
    subscripts: frozenset = frozenset()

    def __call__(self, **env: Any) -> Any:
        scope = dict(_FUNCTIONS)
        scope[_DIVIDE] = _divide
        scope.update(env)
        with np.errstate(all="ignore"):
            return eval(self._code, {"__builtins__": {}}, scope)  # noqa: S307 - AST whitelisted


def compile_expression(source: str, variables: tuple[str, ...]) -> Expression:
    """Parse ``source`` against the grammar and return a callable Expression.

    Raises:
        ExpressionError: if the text does not parse or uses anything
            outside the grammar.
    """
    if not isinstance(source, str) or not source.strip():
        raise ExpressionError("expression source must be a non-empty string")
    try:
        tree = ast.parse(source, mode="eval")
    except SyntaxError as exc:
        raise ExpressionError(f"cannot parse {source!r}: {exc.msg}") from exc
    _validate(tree, variables, source)
    subscripts = frozenset(node.slice.value for node in ast.walk(tree)
                           if isinstance(node, ast.Subscript))
    tree = ast.fix_missing_locations(_DivisionToCall().visit(tree))
    code = compile(tree, f"<expr {source!r}>", "eval")
    return Expression(source=source, variables=variables, _code=code, subscripts=subscripts)
