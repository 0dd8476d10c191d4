"""Rules on the package source, checked on its syntax tree."""

import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
import typing
from pathlib import Path

import dualfix

SRC = Path(dualfix.__file__).parent


def _trees():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    for path in paths:
        yield path, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_no_bare_assert_in_the_package():
    # Invariants must survive ``python -O``, which strips assert statements;
    # raise an exception instead.
    found = []
    for path, tree in _trees():
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_the_cli_imports_no_typing():
    # Annotations are strings under ``from __future__ import annotations``,
    # so the package needs no ``typing`` at run time, and a one-shot CLI
    # process without ``site`` does not import it.
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    code = "import sys, dualfix.cli; print('typing' in sys.modules)"
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout == "False\n"


def test_posets_are_built_only_in_the_poset_module():
    # Outside poset.py every Poset comes from _generated_poset or build_poset,
    # so each one carries strict generators of its order.
    found = []
    for path, tree in _trees():
        if path.name == "poset.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "Poset":
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_the_quotient_layer_reads_no_closed_rows():
    # fixpoint.py works from generating edges only: it reads neither closed
    # up-sets nor closed down-sets of any poset.
    tree = ast.parse((SRC / "fixpoint.py").read_text(encoding="utf-8"))
    found = [
        f"fixpoint.py:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in ("up_masks", "down_masks")
    ]
    assert found == []


def test_counting_reads_no_closed_rows():
    # count_ideals, and every function of poset.py that it calls, works
    # from generating edges only.
    tree = ast.parse((SRC / "poset.py").read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    todo, reached = ["count_ideals"], set()
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        for node in ast.walk(functions[name]):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in functions:
                todo.append(node.func.id)
    assert {"count_ideals", "_generating_extension", "_count_along"} <= reached
    found = [
        f"poset.py:{node.lineno}"
        for name in sorted(reached)
        for node in ast.walk(functions[name])
        if isinstance(node, ast.Attribute) and node.attr in ("up_masks", "down_masks")
    ]
    assert found == []


def _mode(node, names):
    """The mode of a call to a function in ``names``: ``"r"`` when left out,
    ``"?"`` when not a literal, None for any other call.  ``os.open`` takes
    flags, not a mode, and is never matched."""
    func = node.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if name not in names or ast.unparse(func) == "os.open":
        return None
    mode = next((kw.value for kw in node.keywords if kw.arg == "mode"), node.args[1] if len(node.args) > 1 else None)
    if mode is None:
        return "r"
    return mode.value if isinstance(mode, ast.Constant) and isinstance(mode.value, str) else "?"


def test_no_open_truncates_its_file():
    # Truncating a file on open makes ext4 flush it at close.  Output is
    # written over the old bytes and trimmed instead (cli._overwrite).
    found = []
    for path, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and set("w?") & set(_mode(node, ("open",)) or ""):
                found.append(f"{path.name}:{node.lineno}")
            if isinstance(node, ast.Attribute) and node.attr == "O_TRUNC":
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_files_are_written_only_through_the_overwrite_helper():
    # Every file the package writes is opened by cli._overwrite.
    found = []
    for path, tree in _trees():
        helper = set()
        if path.name == "cli.py":
            (overwrite,) = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "_overwrite"]
            helper = {id(node) for node in ast.walk(overwrite)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or id(node) in helper:
                continue
            mode = _mode(node, ("open", "fdopen"))
            if mode is not None and not set(mode) <= set("rbt") or getattr(node.func, "attr", None) in ("write_text", "write_bytes"):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def _package_modules():
    return [importlib.import_module(f"dualfix.{info.name}") for info in pkgutil.iter_modules(dualfix.__path__)]


def test_every_annotation_resolves():
    # Annotations are strings, so a name that a module never imports only
    # shows when they are evaluated: every one must resolve in its module.
    checked = 0
    for module in _package_modules():
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            members = [obj]
            if isinstance(obj, type):
                for attr in vars(obj).values():
                    if isinstance(attr, property):
                        members += [attr.fget, attr.fset, attr.fdel]
                    else:
                        members.append(getattr(attr, "__func__", attr))
            for member in members:
                if inspect.isfunction(member) or isinstance(member, type):
                    typing.get_type_hints(member)
                    checked += 1
    assert checked > 150


POSET_SIDE = ("bitgraph.py", "errors.py", "poset.py", "jsonio.py", "fixpoint.py")


def test_the_poset_side_imports_nothing_from_the_explicit_side():
    # A monotone map's fix-points need neither lattices nor homs: the poset
    # side reaches dualfix.lattice and dualfix.duality through no import.
    explicit = {"dualfix.lattice", "dualfix.duality"}
    found = []
    for path, tree in _trees():
        if path.name not in POSET_SIDE:
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                targets = {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                base = ".".join(filter(None, ["dualfix" if node.level else "", node.module]))
                targets = {base} | {f"{base}.{alias.name}" for alias in node.names}
            else:
                continue
            if targets & explicit:
                found.append(f"{path.name}:{node.lineno}")
    assert {path.name for path, _ in _trees()} >= set(POSET_SIDE)
    assert found == []


def test_the_public_names_exist():
    assert all(hasattr(dualfix, name) for name in dualfix.__all__)
    for name in ("algorithm1", "hom_quotient", "NotAnIdealOfC"):
        assert name not in dualfix.__all__
        assert not any(hasattr(module, name) for module in [dualfix, *_package_modules()])
