"""Small arithmetic expression grammar for user-declared evaluables.

Maps and gauges may be given as text expressions using +, -, *, /, abs,
min, max, numeric constants and their variable.  Parsing is done with the
stdlib ``ast`` module and a strict node whitelist, so nothing outside the
grammar can run.  compile_expression alone decides how an expression reads
its variable: without a width it is one number (a gauge's t, a single-form
map's x) and takes no subscript; with width d it is d coordinates (a
list-form map's x), read only as x[i] with 0 <= i < d, which reads x[..., i].
"""

from __future__ import annotations

import ast
import sys
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


class _Rewrite(ast.NodeTransformer):
    """Rewrites every a / b into a call of _divide and every x[i] into
    x[..., i]."""

    def visit_BinOp(self, node: ast.BinOp) -> ast.AST:
        self.generic_visit(node)
        if not isinstance(node.op, ast.Div):
            return node
        call = ast.Call(func=ast.Name(id=_DIVIDE, ctx=ast.Load()),
                        args=[node.left, node.right], keywords=[])
        return ast.copy_location(call, node)

    def visit_Subscript(self, node: ast.Subscript) -> ast.AST:
        node.slice = ast.Tuple(elts=[ast.Constant(Ellipsis), node.slice], ctx=ast.Load())
        return node


def _validate(node: ast.AST, variables: tuple[str, ...], width: int | None, source: str) -> None:
    if isinstance(node, ast.Expression):
        _validate(node.body, variables, width, source)
    elif isinstance(node, ast.BinOp):
        if not isinstance(node.op, _ALLOWED_BINOPS):
            raise ExpressionError(f"operator not in grammar: {ast.dump(node.op)} in {source!r}")
        _validate(node.left, variables, width, source)
        _validate(node.right, variables, width, source)
    elif isinstance(node, ast.UnaryOp):
        if not isinstance(node.op, _ALLOWED_UNARY):
            raise ExpressionError(f"unary operator not in grammar in {source!r}")
        _validate(node.operand, variables, width, source)
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
            _validate(arg, variables, width, source)
    elif isinstance(node, ast.Constant):
        if type(node.value) not in (int, float):
            raise ExpressionError(f"only numeric constants are allowed in {source!r}")
        if type(node.value) is int and abs(node.value) > sys.float_info.max:
            raise ExpressionError(f"integer constant past the float range in {source!r}")
    elif isinstance(node, ast.Name):
        if node.id not in variables:
            raise ExpressionError(f"unknown name {node.id!r} in {source!r} (declared: {variables})")
        if width is not None:
            raise ExpressionError(f"map {source!r}: {node.id} is a vector of {width} "
                                  f"coordinate(s), read one as {node.id}[i] with 0 <= i < {width}")
    elif isinstance(node, ast.Subscript):
        name, i = node.value, node.slice
        if not isinstance(name, ast.Name) or name.id not in variables:
            raise ExpressionError(f"subscript base must be a declared variable in {source!r}")
        if width is None:
            raise ExpressionError(f"{name.id} is one number in {source!r} and takes no subscript")
        if not (isinstance(i, ast.Constant) and type(i.value) is int and 0 <= i.value < width):
            raise ExpressionError(f"map {source!r}: subscript {ast.unparse(node)} is out of range, "
                                  f"read {name.id}[i] with a literal int 0 <= i < {width}")
    else:
        raise ExpressionError(f"syntax not in grammar: {type(node).__name__} in {source!r}")


@dataclass(frozen=True)
class Expression:
    """A compiled expression over the declared variable names.

    Calling the expression with keyword arguments bound to floats gives a
    float; binding numpy arrays broadcasts, which the batch evaluation paths
    rely on.  A variable compiled with a width is bound to a (..., width)
    coordinate array.  Division by zero yields NaN, for floats and element
    by element for arrays alike, so the checkers can record it as a witness.
    """

    source: str
    variables: tuple[str, ...]
    _code: Any = field(repr=False, compare=False, default=None)

    def __call__(self, **env: Any) -> Any:
        scope = dict(_FUNCTIONS)
        scope[_DIVIDE] = _divide
        scope.update(env)
        with np.errstate(all="ignore"):
            return eval(self._code, {"__builtins__": {}}, scope)  # noqa: S307 - AST whitelisted


def compile_expression(source: str, variables: tuple[str, ...],
                       width: int | None = None) -> Expression:
    """Parse ``source`` against the grammar and return a callable Expression.

    Raises:
        ExpressionError: if the text does not parse or uses anything outside
            the grammar: a subscript of a variable without a width, a bare
            variable or an index outside [0, width) with one, or an integer
            constant past the float range.
    """
    if not isinstance(source, str) or not source.strip():
        raise ExpressionError("expression source must be a non-empty string")
    try:
        tree = ast.parse(source, mode="eval")
    except SyntaxError as exc:
        raise ExpressionError(f"cannot parse {source!r}: {exc.msg}") from exc
    _validate(tree, variables, width, source)
    tree = ast.fix_missing_locations(_Rewrite().visit(tree))
    code = compile(tree, f"<expr {source!r}>", "eval")
    return Expression(source=source, variables=variables, _code=code)
