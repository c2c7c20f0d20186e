"""Profile expressions in one variable s.

Grammar (v1):
    expr    := term (("+" | "-") term)*
    term    := factor (("*" | "/") factor)*
    factor  := ("+" | "-") factor | primary
    primary := NUMBER | "s" | "(" expr ")"

NUMBER is an unsigned decimal literal with optional fraction and exponent;
whitespace may separate tokens, and operators nest at most 200 deep.  The
grammar is a subset of Python's expressions with the same precedence and
associativity, so Python's parser builds the tree and a whitelist refuses
every node outside the grammar.  The result is a callable evaluating the
expression on scalars or numpy arrays.
"""

import ast
import operator
import re

_NUMBER = re.compile(r"(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?")
# zeros leading an integer part, which Python refuses in "01"
_LEADING_ZEROS = re.compile(r"(?<![\w.])0+(?=\d)")
_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub,
           ast.Mult: operator.mul, ast.Div: operator.truediv}
_UNARY = {ast.UAdd: operator.pos, ast.USub: operator.neg}
# Python's parser stops nested parentheses at the same depth; the compiled
# callable recurses once per level, so this also bounds its stack
_MAX_DEPTH = 200


class ExpressionError(ValueError):
    pass


def _compile(node, text, depth):
    """The function of s that a whitelisted tree computes; depth counts the
    operators enclosing node."""
    if isinstance(node, (ast.BinOp, ast.UnaryOp)) and depth >= _MAX_DEPTH:
        raise ExpressionError(f"operators nest deeper than {_MAX_DEPTH}")
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
        op = _BINARY[type(node.op)]
        left = _compile(node.left, text, depth + 1)
        right = _compile(node.right, text, depth + 1)
        return lambda s: op(left(s), right(s))
    if isinstance(node, ast.UnaryOp) and type(node.op) in _UNARY:
        op = _UNARY[type(node.op)]
        operand = _compile(node.operand, text, depth + 1)
        return lambda s: op(operand(s))
    source = ast.get_source_segment(text, node)
    if isinstance(node, ast.Name) and source == "s":
        return lambda s: s
    if isinstance(node, ast.Constant) and _NUMBER.fullmatch(source):
        value = float(source)
        return lambda s: value
    raise ExpressionError(f"not allowed in a profile expression: {source!r}")


def parse_expression(text):
    """Compile the expression to a callable of s (scalar or array)."""
    if "#" in text:
        raise ExpressionError("comments are not allowed")
    text = _LEADING_ZEROS.sub("", " ".join(text.split()))
    try:
        tree = ast.parse(text, mode="eval")
    # the parser reports nesting past its own stack as RecursionError, or
    # as MemoryError for long runs of unary signs
    except (SyntaxError, ValueError, RecursionError, MemoryError) as exc:
        raise ExpressionError(
            f"cannot parse {text!r}: "
            f"{getattr(exc, 'msg', exc) or 'nested too deeply'}") from exc
    fn = _compile(tree.body, text, 0)
    return lambda s: fn(s) + 0.0 * s
