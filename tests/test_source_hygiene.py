"""The package carries no dead imports and no unreferenced private names.

Two checks over the syntax trees of ``src/smoothflow``: every name a
module imports is used in that module (a name listed in its ``__all__``
counts as used), and every private module-level function, class or
constant is referenced somewhere in the package. A helper that loses
its last caller, or an import that outlives its use, fails here.
"""

import ast
import os

import pytest

import smoothflow

PACKAGE = os.path.dirname(os.path.abspath(smoothflow.__file__))
MODULES = sorted(name for name in os.listdir(PACKAGE) if name.endswith(".py"))


def tree(module):
    with open(os.path.join(PACKAGE, module), encoding="utf-8") as fh:
        return ast.parse(fh.read(), filename=module)


def imported_names(node):
    """The names an import statement binds in its module."""
    for alias in node.names:
        if alias.asname is not None:
            yield alias.asname
        elif isinstance(node, ast.Import):
            yield alias.name.split(".")[0]
        else:
            yield alias.name


def exported(module_tree):
    """The strings listed in a module-level ``__all__``."""
    for node in module_tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def loaded_names(module_tree):
    return {
        node.id
        for node in ast.walk(module_tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    module_tree = tree(module)
    imports = {
        name
        for node in ast.walk(module_tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for name in imported_names(node)
    }
    unused = imports - loaded_names(module_tree) - exported(module_tree)
    assert not unused, f"{module} imports names it never uses: {sorted(unused)}"


def private_definitions(module_tree):
    """Module-level functions, classes and constants whose names start with one underscore."""
    for node in module_tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name


def references(module_tree):
    """Names read, attributes taken and names imported anywhere in a module."""
    for node in ast.walk(module_tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_every_private_name_is_referenced():
    trees = {module: tree(module) for module in MODULES}
    referenced = {name for module_tree in trees.values() for name in references(module_tree)}
    unreferenced = sorted(
        f"{module}:{name}"
        for module, module_tree in trees.items()
        for name in private_definitions(module_tree)
        if name not in referenced
    )
    assert not unreferenced, f"private names no code in the package uses: {unreferenced}"
