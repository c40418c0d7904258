"""A small arithmetic expression language for user-defined case files.

Expressions are parsed with the standard ``ast`` module and checked against a
whitelist before evaluation, so a case file can contain arithmetic, the usual
elementary functions and comparisons, but no attribute access, subscripts or
other Python constructs.  The accepted grammar is documented in
docs/formats.md.  Evaluation is vectorised over numpy arrays.
"""

from __future__ import annotations

import ast
from typing import Callable, Sequence

import numpy as np


class ExpressionError(Exception):
    """An expression failed to parse or uses something outside the grammar."""


def _variadic(reduction):
    def apply(*args):
        if not args:
            raise ExpressionError("min/max need at least one argument")
        out = args[0]
        for a in args[1:]:
            out = reduction(out, a)
        return out
    return apply


_FUNCTIONS = {
    "sin": np.sin, "cos": np.cos, "tan": np.tan,
    "asin": np.arcsin, "acos": np.arccos, "atan": np.arctan, "atan2": np.arctan2,
    "sinh": np.sinh, "cosh": np.cosh, "tanh": np.tanh,
    "exp": np.exp, "log": np.log, "log10": np.log10,
    "sqrt": np.sqrt, "abs": np.abs, "sign": np.sign,
    "floor": np.floor, "ceil": np.ceil,
    "min": _variadic(np.minimum), "max": _variadic(np.maximum),
    "where": np.where,
}

_CONSTANTS = {"pi": np.pi, "e": np.e}

_BINOPS = {
    ast.Add: np.add, ast.Sub: np.subtract, ast.Mult: np.multiply,
    ast.Div: np.divide, ast.Pow: np.power, ast.Mod: np.mod,
}

_UNARY = {ast.USub: np.negative, ast.UAdd: lambda v: v}

_COMPARE = {
    ast.Lt: np.less, ast.LtE: np.less_equal,
    ast.Gt: np.greater, ast.GtE: np.greater_equal,
    ast.Eq: np.equal, ast.NotEq: np.not_equal,
}


def _compile(node: ast.AST, names: frozenset) -> Callable:
    """Check a node against the grammar and return its ``env -> value``."""
    if isinstance(node, ast.Expression):
        return _compile(node.body, names)
    if isinstance(node, ast.Constant):
        value = node.value
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ExpressionError(f"constant {value!r} is not a number")
        return lambda env: value
    if isinstance(node, ast.Name):
        name = node.id
        if name in names:
            return lambda env: env[name]
        if name not in _CONSTANTS:
            raise ExpressionError(f"unknown name {name!r}")
        value = _CONSTANTS[name]
        return lambda env: value
    if isinstance(node, ast.BinOp):
        if type(node.op) not in _BINOPS:
            raise ExpressionError(f"operator {type(node.op).__name__} not allowed")
        op = _BINOPS[type(node.op)]
        left, right = _compile(node.left, names), _compile(node.right, names)
        return lambda env: op(left(env), right(env))
    if isinstance(node, ast.UnaryOp):
        if type(node.op) not in _UNARY:
            raise ExpressionError(f"operator {type(node.op).__name__} not allowed")
        op = _UNARY[type(node.op)]
        operand = _compile(node.operand, names)
        return lambda env: op(operand(env))
    if isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCTIONS:
            raise ExpressionError("only the documented functions can be called")
        if node.keywords:
            raise ExpressionError("keyword arguments are not part of the grammar")
        function = _FUNCTIONS[node.func.id]
        args = [_compile(a, names) for a in node.args]
        return lambda env: function(*[arg(env) for arg in args])
    if isinstance(node, ast.Compare):
        if len(node.ops) != 1 or type(node.ops[0]) not in _COMPARE:
            raise ExpressionError("only single comparisons are allowed")
        op = _COMPARE[type(node.ops[0])]
        left, right = _compile(node.left, names), _compile(node.comparators[0], names)
        return lambda env: op(left(env), right(env))
    raise ExpressionError(f"{type(node).__name__} is not part of the grammar")


def compile_expression(text: str, variables: Sequence[str]) -> Callable:
    """Compile an expression into ``fn(**named_arrays) -> array``.

    ``variables`` lists the names the expression may refer to, e.g.
    ``("x", "y", "t", "r")``.
    """
    if not isinstance(text, str) or not text.strip():
        raise ExpressionError("expression must be a non-empty string")
    names = frozenset(variables)
    try:
        evaluate = _compile(ast.parse(text, mode="eval"), names)
    except (SyntaxError, RecursionError, MemoryError) as exc:  # the last two: deep nesting
        raise ExpressionError(f"cannot parse {text!r}: {exc}") from exc

    def fn(**env):
        missing = names - env.keys()
        if missing:
            raise ExpressionError(f"missing variables {sorted(missing)}")
        return evaluate(env)

    return fn
