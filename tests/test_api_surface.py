"""Guard against options that no caller sets and names that only tests use.

An AST scan of ``src/fbmcf`` collects every parameter with a default value
and every defaulted field of a public dataclass. A second scan of the call
sites in ``src/``, ``tests/``, ``demos/`` and ``bench/`` records which of
them some call sets, by keyword or by position. Calls are matched by the
name they use (``f(...)``, ``obj.f(...)``, ``Cls(...)``), so a call sets a
parameter of every definition with that name. A key of a barrier or
initial-curve kind in ``scenario._KINDS`` counts as a call that sets that
parameter of the kind's builder, since a config sets it. A default that no
call overrides is a constant in disguise: it doubles the configurations the
acceptance rows would have to cover and may guard a branch no run reaches.

A third scan collects every public top-level function and class and every
public method of a public class under ``src/fbmcf``, and looks for its name
outside its own definition in ``src/``, ``demos/`` and ``bench/`` (as a
name, an attribute, or a word of a string that is not a docstring, such
as ``__all__`` or the tracer's targets), in ``README.md`` and in
``pyproject.toml``. A public name that only tests use is code kept for the
tests' sake: move it into the test that needs it.
"""

from __future__ import annotations

import ast
import inspect
import re
from pathlib import Path

from fbmcf.scenario import _KINDS

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fbmcf"
CALLER_DIRS = ("src", "tests", "demos", "bench")
REFERENCE_DIRS = ("src", "demos", "bench")
REFERENCE_FILES = ("README.md", "pyproject.toml")
MAX_DEFAULTED = 73
WORD = re.compile(r"[A-Za-z_]\w*")


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
    """Set of (callee name, parameter name) that some call site or kind key
    sets."""
    used = {(builder.__name__, key) for kinds in _KINDS.values()
            for builder, required, optional in kinds.values()
            for key in required + optional}
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


def test_kind_keys_are_builder_parameters():
    """Every kind key names a parameter of its builder, and every parameter
    of a builder without a default is a required key of its kind."""
    for kinds in _KINDS.values():
        for kind, (builder, required, optional) in kinds.items():
            params = inspect.signature(builder).parameters
            assert set(required + optional) <= set(params), kind
            assert {name for name, p in params.items()
                    if p.default is p.empty} <= set(required), kind


def test_defaulted_parameter_count_is_bounded():
    defaulted, _ = _survey()
    assert len(defaulted) <= MAX_DEFAULTED, (
        f"{len(defaulted)} defaulted parameters and dataclass fields "
        f"(bound {MAX_DEFAULTED})")


def _public_definitions():
    """(label, name) of every public top-level function and class and every
    public method of a public class under ``src/fbmcf``."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _parse(path).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or \
                    node.name.startswith("_"):
                continue
            out.append((f"{path.stem}.{node.name}", node.name))
            if isinstance(node, ast.ClassDef):
                out += [(f"{path.stem}.{node.name}.{item.name}", item.name)
                        for item in node.body
                        if isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_")]
    return out


class _References(ast.NodeVisitor):
    """Names used in a module, each outside the definitions of that name:
    names, attributes and the words of strings that are not docstrings."""

    def __init__(self, tree):
        self.names, self._inside = set(), []
        self._docstrings = {
            id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef))
            and ast.get_docstring(node, clean=False) is not None}
        self.visit(tree)

    def _add(self, name):
        if name not in self._inside:
            self.names.add(name)

    def visit_FunctionDef(self, node):
        self._inside.append(node.name)
        self.generic_visit(node)
        self._inside.pop()

    visit_AsyncFunctionDef = visit_ClassDef = visit_FunctionDef

    def visit_Name(self, node):
        self._add(node.id)

    def visit_Attribute(self, node):
        self._add(node.attr)
        self.generic_visit(node)

    def visit_Constant(self, node):
        if isinstance(node.value, str) and id(node) not in self._docstrings:
            for word in WORD.findall(node.value):
                self._add(word)


def _references():
    names = set()
    for d in REFERENCE_DIRS:
        for path in sorted((ROOT / d).rglob("*.py")):
            names |= _References(_parse(path)).names
    for f in REFERENCE_FILES:
        names |= set(WORD.findall((ROOT / f).read_text()))
    return names


def test_every_public_name_is_used_outside_tests():
    used = _references()
    unused = [label for label, name in _public_definitions()
              if name not in used]
    assert not unused, (
        f"{len(unused)} public functions, classes or methods are named "
        "nowhere but in their own definition and in tests; delete them or "
        "move them into the tests that use them:\n  " + "\n  ".join(unused))
