"""Every name a module of `intana` imports is used in that module, and
every private name a module defines is used somewhere in `intana`.

The package `__init__.py` files are left out of the first test: they
import names to re-export them.  A name used only inside a string
annotation, such as `"dict[str, FunctionAnalysis]"`, counts as used; one
mentioned only in a docstring or comment does not.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).parent.parent / "src" / "intana"
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> "set[str]":
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            yield node.returns
            for arg in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]:
                yield arg and arg.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def annotated_trees(tree: ast.Module) -> "list[ast.AST]":
    """The module and the expressions in its string annotations."""
    trees = [tree]
    for annotation in filter(None, annotations(tree)):
        trees += [ast.parse(c.value, mode="eval") for c in ast.walk(annotation)
                  if isinstance(c, ast.Constant) and isinstance(c.value, str)]
    return trees


def used_names(tree: ast.Module) -> "set[str]":
    return {n.id for t in annotated_trees(tree) for n in ast.walk(t) if isinstance(n, ast.Name)}


def private_definitions(tree: ast.Module):
    """The private functions, classes and constants a module defines at its
    top level; dunder names such as `__all__` are not private."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        yield from (name for name in names
                    if name.startswith("_") and not name.endswith("__"))


def read_names(tree: ast.Module) -> "set[str]":
    """The names a module reads, as a variable or as an attribute."""
    found = set()
    for t in annotated_trees(tree):
        for n in ast.walk(t):
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
                found.add(n.id)
            elif isinstance(n, ast.Attribute):
                found.add(n.attr)
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), str(path))
    assert sorted(imported_names(tree) - used_names(tree)) == []


def test_every_private_name_is_used():
    trees = {path: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.rglob("*.py"))}
    used = set().union(*map(read_names, trees.values()))
    assert ["%s: %s" % (path.relative_to(SRC), name) for path, tree in trees.items()
            for name in private_definitions(tree) if name not in used] == []
