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


def _check(node: ast.AST, variables: frozenset) -> None:
    if isinstance(node, ast.Expression):
        _check(node.body, variables)
    elif isinstance(node, ast.Constant):
        if not isinstance(node.value, (int, float)):
            raise ExpressionError(f"constant {node.value!r} is not a number")
    elif isinstance(node, ast.Name):
        if node.id not in variables and node.id not in _CONSTANTS:
            raise ExpressionError(f"unknown name {node.id!r}")
    elif isinstance(node, ast.BinOp):
        if type(node.op) not in _BINOPS:
            raise ExpressionError(f"operator {type(node.op).__name__} not allowed")
        _check(node.left, variables)
        _check(node.right, variables)
    elif isinstance(node, ast.UnaryOp):
        if type(node.op) not in _UNARY:
            raise ExpressionError(f"operator {type(node.op).__name__} not allowed")
        _check(node.operand, variables)
    elif isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCTIONS:
            raise ExpressionError("only the documented functions can be called")
        if node.keywords:
            raise ExpressionError("keyword arguments are not part of the grammar")
        for a in node.args:
            _check(a, variables)
    elif isinstance(node, ast.Compare):
        if len(node.ops) != 1 or type(node.ops[0]) not in _COMPARE:
            raise ExpressionError("only single comparisons are allowed")
        _check(node.left, variables)
        _check(node.comparators[0], variables)
    else:
        raise ExpressionError(f"{type(node).__name__} is not part of the grammar")


def _evaluate(node: ast.AST, env: dict):
    if isinstance(node, ast.Expression):
        return _evaluate(node.body, env)
    if isinstance(node, ast.Constant):
        return node.value
    if isinstance(node, ast.Name):
        return env[node.id] if node.id in env else _CONSTANTS[node.id]
    if isinstance(node, ast.BinOp):
        return _BINOPS[type(node.op)](_evaluate(node.left, env),
                                      _evaluate(node.right, env))
    if isinstance(node, ast.UnaryOp):
        return _UNARY[type(node.op)](_evaluate(node.operand, env))
    if isinstance(node, ast.Call):
        args = [_evaluate(a, env) for a in node.args]
        return _FUNCTIONS[node.func.id](*args)
    if isinstance(node, ast.Compare):
        return _COMPARE[type(node.ops[0])](_evaluate(node.left, env),
                                           _evaluate(node.comparators[0], env))
    raise ExpressionError(f"cannot evaluate {type(node).__name__}")


def compile_expression(text: str, variables: Sequence[str]) -> Callable:
    """Compile an expression into ``fn(**named_arrays) -> array``.

    ``variables`` lists the names the expression may refer to, e.g.
    ``("x", "y", "t", "r")``.
    """
    if not isinstance(text, str) or not text.strip():
        raise ExpressionError("expression must be a non-empty string")
    names = frozenset(variables)
    try:
        tree = ast.parse(text, mode="eval")
        _check(tree, names)
    except (SyntaxError, RecursionError, MemoryError) as exc:  # the last two: deep nesting
        raise ExpressionError(f"cannot parse {text!r}: {exc}") from exc

    def fn(**env):
        missing = names - env.keys()
        if missing:
            raise ExpressionError(f"missing variables {sorted(missing)}")
        return _evaluate(tree, env)

    fn.source = text
    return fn
