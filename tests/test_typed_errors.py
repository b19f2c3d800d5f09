"""Every exception the library raises is a typed ``AttitudeError``.

The check reads the source of ``attikit`` outside ``cli.py``: each ``raise``
must name an ``AttitudeError`` subclass, or a parameter of its function
that every call site fills with one (``checks.reject``'s ``error``, and
through it ``checks._unit_norm``'s).
"""

import ast
import inspect
from pathlib import Path

import attikit
from attikit import errors

SRC = Path(attikit.__file__).parent
TYPED = {
    name
    for name, obj in vars(errors).items()
    if inspect.isclass(obj) and issubclass(obj, errors.AttitudeError)
}


def _name(expr):
    """``X`` for the expressions ``X`` and ``module.X``, else None."""
    if isinstance(expr, ast.Attribute):
        return expr.attr
    return expr.id if isinstance(expr, ast.Name) else None


def _params(fn) -> list[str]:
    return [a.arg for a in fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs]


class _Scan(ast.NodeVisitor):
    """Every def, and every raise and call with its innermost enclosing def."""

    def __init__(self):
        self.defs, self.raises, self.calls, self._stack = {}, [], [], [None]

    def scan(self, where: str, source: str):
        self.where = where
        self.visit(ast.parse(source))

    def visit_FunctionDef(self, node):
        self.defs[node.name] = node
        self._stack.append(node)
        self.generic_visit(node)
        self._stack.pop()

    def visit_Raise(self, node):
        self.raises.append((f"{self.where}:{node.lineno}", node, self._stack[-1]))
        self.generic_visit(node)

    def visit_Call(self, node):
        self.calls.append((f"{self.where}:{node.lineno}", node, self._stack[-1]))
        self.generic_visit(node)


def untyped(sources: dict[str, str]) -> tuple[list[str], set]:
    """(raises and calls that may raise an untyped error, (def, parameter) pairs followed)."""
    scan = _Scan()
    for where, source in sources.items():
        scan.scan(where, source)
    bad, pending, followed = [], [], set()

    def check(where, expr, fn, what):
        name = _name(expr)
        if name in TYPED:
            return
        if fn is not None and name in _params(fn):
            pending.append((fn.name, name))
        else:
            bad.append(f"{where}: {what}")

    for where, node, fn in scan.raises:
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        check(where, exc, fn, ast.unparse(node))
    while pending:
        callee, param = pending.pop()
        if (callee, param) in followed:
            continue
        followed.add((callee, param))
        index = _params(scan.defs[callee]).index(param)
        for where, call, fn in scan.calls:
            if _name(call.func) != callee:
                continue
            given = [k.value for k in call.keywords if k.arg == param] + call.args[index : index + 1]
            check(where, given[0] if given else None, fn, ast.unparse(call))
    return bad, followed


def _package_sources() -> dict[str, str]:
    return {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py")) if p.name != "cli.py"}


def test_every_raise_outside_cli_is_typed():
    bad, followed = untyped(_package_sources())
    assert bad == []
    assert {("reject", "error"), ("_unit_norm", "error")} <= followed


def test_scan_flags_untyped_raises_and_arguments():
    source = '''
def reject(bad, error, message):
    raise error(message)

def forward(x, error):
    reject(x, error, "m")

def f(x):
    reject(x, NonFiniteInputError, "m")
    forward(x, error=ValueError)
    reject(x, TypeError, "m")
    raise ValueError("plain")

def g():
    raise
'''
    bad, followed = untyped({"m.py": source})
    assert bad == [
        "m.py:12: raise ValueError('plain')",
        "m.py:15: raise",
        "m.py:11: reject(x, TypeError, 'm')",
        "m.py:10: forward(x, error=ValueError)",
    ]
    assert followed == {("reject", "error"), ("forward", "error")}
