"""Every name a module of `intana` imports is used in that module.

The package `__init__.py` files are left out: they import names to
re-export them.  A name used only inside a string annotation, such as
`"dict[str, FunctionAnalysis]"`, counts as used.
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


def used_names(tree: ast.Module) -> "set[str]":
    trees = [tree]
    for annotation in filter(None, annotations(tree)):
        trees += [ast.parse(c.value, mode="eval") for c in ast.walk(annotation)
                  if isinstance(c, ast.Constant) and isinstance(c.value, str)]
    return {n.id for t in trees for n in ast.walk(t) if isinstance(n, ast.Name)}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), str(path))
    assert sorted(imported_names(tree) - used_names(tree)) == []
