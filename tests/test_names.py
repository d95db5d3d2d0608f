"""Standing checks against dead names: every top-level function and class of
the package, every method of its classes and every field of its dataclasses
is used somewhere, and no module imports a name it never uses.

They read the syntax trees, so a name mentioned in a docstring or a comment
does not count as a use; only the exemption of a method that overrides a
base-class method imports the package.
"""

import argparse
import ast
import importlib
from collections import Counter
from pathlib import Path

import click

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "intertwinor"


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def used_names(tree: ast.AST) -> set:
    """Names read as a bare name or as an attribute anywhere in ``tree``."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def is_click_command(node: ast.AST) -> bool:
    """Whether a definition is registered by a decorator such as
    ``@main.command(...)`` or ``@click.group(...)``."""
    for dec in getattr(node, "decorator_list", ()):
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Attribute) and target.attr in ("command", "group"):
            return True
    return False


def bench_names() -> set:
    """Every name the benchmark's modules read."""
    return set().union(*(used_names(parse(path)) for path in sorted((ROOT / "bench").glob("*.py"))))


def test_every_top_level_definition_is_used():
    # the names each top-level statement of each module uses
    uses = {path.name: [(node, used_names(node)) for node in parse(path).body]
            for path in sorted(PACKAGE.glob("*.py"))}
    bench = bench_names()
    unused = []
    for name, statements in uses.items():
        elsewhere = bench.union(*(seen for other, rest in uses.items() if other != name
                                  for _, seen in rest))
        for node, _ in statements:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or is_click_command(node):
                continue
            if node.name not in elsewhere.union(*(seen for other, seen in statements
                                                  if other is not node)):
                unused.append(f"{name}: {node.name}")
    assert unused == []


def attribute_counts(tree: ast.AST) -> Counter:
    """How often each name is read as an attribute in ``tree``."""
    return Counter(node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute))


def overrides(module: str, cls: str, name: str) -> bool:
    """Whether the method ``name`` of the class overrides a base-class method,
    which the base's own machinery calls (click's ``main``, say)."""
    found = getattr(importlib.import_module(f"intertwinor.{module}"), cls)
    return any(hasattr(base, name) for base in found.__mro__[1:])


def package_methods(trees: dict):
    """(module, class name, definition) of every non-dunder method and property
    of a top-level class in the modules' trees."""
    for module, tree in trees.items():
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            for node in cls.body:
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("__"):
                    yield module, cls.name, node


def package_trees() -> dict:
    return {path.stem: parse(path) for path in sorted(PACKAGE.glob("*.py"))}


def test_every_method_is_used():
    # a non-dunder method or property of a class must be read as an attribute
    # in the package outside its own body, or in the benchmark
    trees = package_trees()
    reads = sum((attribute_counts(tree) for tree in trees.values()), Counter())
    bench = bench_names()
    unused = []
    for module, cls, node in package_methods(trees):
        if reads[node.name] > attribute_counts(node)[node.name] or node.name in bench:
            continue
        if not overrides(module, cls, node.name):
            unused.append(f"{module}: {cls}.{node.name}")
    assert unused == []


def test_the_methods_the_name_check_cannot_tell_apart_are_pinned():
    # the check above matches a method to its reads by name alone, so a method
    # named like another package class's method, or like one of a dict, a click
    # command or an argparse parser, counts as used wherever that other method
    # is read; these are listed so that a new one is looked at by hand
    methods = list(package_methods(package_trees()))
    defined = Counter(node.name for _, _, node in methods)
    common = {name for name, count in defined.items() if count > 1}
    common |= set(dir(dict)) | set(dir(click.Command)) | set(dir(argparse.ArgumentParser))
    shared = sorted(f"{module}: {cls}.{node.name}" for module, cls, node in methods
                    if node.name in common)
    assert shared == ["cli: _RequestGroup.main", "torus: TorusBasis.keys"]


def test_a_base_class_hook_counts_as_used():
    # click's Command.__call__ calls the group's main, whatever else reads that name
    assert overrides("cli", "_RequestGroup", "main")
    assert not overrides("torus", "TorusBasis", "contains")


def is_dataclass(node: ast.ClassDef) -> bool:
    """Whether a class is decorated with ``@dataclass`` or ``@dataclass(...)``."""
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def test_every_dataclass_field_is_read():
    """A field of a package dataclass must be read as an attribute in the
    package or the benchmark, or passed by keyword in the benchmark, which
    builds ``torus.ResidualResult(k=..., r=..., M=...)``.

    Like the method check, this matches bare names: a field counts as read
    wherever an attribute of its name is read, on any object, or a keyword
    of its name is passed in the benchmark, to any call.
    """
    trees = package_trees()
    bench_trees = [parse(path) for path in sorted((ROOT / "bench").glob("*.py"))]
    reads = {node.attr for tree in [*trees.values(), *bench_trees] for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    reads |= {node.arg for tree in bench_trees for node in ast.walk(tree)
              if isinstance(node, ast.keyword)}
    unread = [f"{module}: {cls.name}.{node.target.id}"
              for module, tree in trees.items()
              for cls in tree.body if isinstance(cls, ast.ClassDef) and is_dataclass(cls)
              for node in cls.body
              if isinstance(node, ast.AnnAssign) and node.target.id not in reads]
    assert unread == []


def imported_names(tree: ast.Module):
    """(bound name, line) of every import in the module, ``__future__`` excepted."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield (alias.asname or alias.name), node.lineno


def exported_names(tree: ast.Module) -> set:
    """The strings listed in a module's ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return {elt.value for elt in node.value.elts}
    return set()


def test_no_module_imports_a_name_it_never_uses():
    paths = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    unused = []
    for path in paths:
        tree = parse(path)
        seen = used_names(tree) | exported_names(tree)
        unused += [f"{path.relative_to(ROOT)}:{line}: {name}"
                   for name, line in imported_names(tree) if name not in seen]
    assert unused == []
