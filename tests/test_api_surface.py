"""Guard against options that no caller sets.

An AST scan of ``src/fbmcf`` collects every parameter with a default value
and every defaulted field of a public dataclass. A second scan of the call
sites in ``src/``, ``tests/``, ``demos/`` and ``bench/`` records which of
them some call sets, by keyword or by position. Calls are matched by the
name they use (``f(...)``, ``obj.f(...)``, ``Cls(...)``), so a call sets a
parameter of every definition with that name. A default that no call
overrides is a constant in disguise: it doubles the configurations the
acceptance rows would have to cover and may guard a branch no run reaches.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fbmcf"
CALLER_DIRS = ("src", "tests", "demos", "bench")
MAX_DEFAULTED = 79


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _name(expr):
    """The name an expression ends in: ``f`` for ``f`` and for ``obj.f``."""
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        return expr.attr
    return None


def _is_dataclass(node):
    return any(_name(d.func if isinstance(d, ast.Call) else d) == "dataclass"
               for d in node.decorator_list)


def _signature(fn, method):
    """Positional parameter names (``self``/``cls`` dropped) and defaulted names."""
    args = fn.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    if method:
        positional = positional[1:]
    n_def = len(args.defaults)
    defaulted = positional[len(positional) - n_def:] if n_def else []
    defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
                  if d is not None]
    return positional, defaulted


def _definitions():
    """Map callee name -> list of (label, positional names, defaulted names)."""
    defs = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem

        def visit(body, owner):
            for node in body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    positional, defaulted = _signature(
                        node, method=owner is not None)
                    name = node.name
                    label = f"{module}.{owner + '.' if owner else ''}{name}"
                    if name == "__init__" and owner:
                        name = owner
                    defs.setdefault(name, []).append(
                        (label, positional, defaulted))
                    visit(node.body, None)
                elif isinstance(node, ast.ClassDef):
                    if _is_dataclass(node):
                        fields, defaulted = [], []
                        for item in node.body:
                            if isinstance(item, ast.AnnAssign) and \
                                    isinstance(item.target, ast.Name):
                                fields.append(item.target.id)
                                if item.value is not None and \
                                        not item.target.id.startswith("_"):
                                    defaulted.append(item.target.id)
                        if not node.name.startswith("_"):
                            defs.setdefault(node.name, []).append(
                                (f"{module}.{node.name}", fields, defaulted))
                    visit(node.body, node.name)

        visit(_parse(path).body, None)
    return defs


def _set_parameters(defs):
    """Set of (callee name, parameter name) that some call site sets."""
    used = set()
    for d in CALLER_DIRS:
        for path in sorted((ROOT / d).rglob("*.py")):
            for node in ast.walk(_parse(path)):
                if not isinstance(node, ast.Call):
                    continue
                name = _name(node.func)
                if name == "submit" and node.args:
                    # executor.submit(fn, *args) calls fn with the rest.
                    name = _name(node.args[0])
                    args = node.args[1:]
                else:
                    args = node.args
                if name not in defs:
                    continue
                for kw in node.keywords:
                    if kw.arg is not None:
                        used.add((name, kw.arg))
                n_pos = len(args)
                if any(isinstance(a, ast.Starred) for a in args):
                    n_pos = max(len(p) for _, p, _ in defs[name])
                for _, positional, _ in defs[name]:
                    for p in positional[:n_pos]:
                        used.add((name, p))
    return used


def _survey():
    defs = _definitions()
    used = _set_parameters(defs)
    defaulted, unset = [], []
    for name, entries in sorted(defs.items()):
        for label, _, names in entries:
            for p in names:
                defaulted.append(f"{label}({p})")
                if (name, p) not in used:
                    unset.append(f"{label}({p})")
    return defaulted, unset


def test_every_default_is_set_by_some_caller():
    _, unset = _survey()
    assert not unset, (
        f"{len(unset)} defaulted parameters or dataclass fields are set by "
        "no call site; make each a constant:\n  " + "\n  ".join(unset))


def test_defaulted_parameter_count_is_bounded():
    defaulted, _ = _survey()
    assert len(defaulted) <= MAX_DEFAULTED, (
        f"{len(defaulted)} defaulted parameters and dataclass fields "
        f"(bound {MAX_DEFAULTED})")
