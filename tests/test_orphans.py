"""No leftovers in the package: every module-level import is used, every
module-level private function and upper-case constant is referred to from
somewhere else in `src/`, and no class has an `__init__` that only stores its
arguments, which a `types.SimpleNamespace` subclass does without one.

A name counts as used when the package refers to it outside its own binding:
as a name or an attribute anywhere in `src/`, or, for an import, when another
module imports it from this one. `__init__.py` is the public API, and its names
are exempt. The test reads the sources with `ast` and imports nothing.
"""

import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mirrorkit"
MODULES = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}


def _references(tree):
    """Names and attribute names that `tree` refers to."""
    found = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return found


# each module's top-level nodes, each with the names it refers to, walked once
TOP_LEVEL = {module: [(node, _references(node)) for node in tree.body] for module, tree in MODULES.items()}


def _imported_from(module):
    """Names that other modules of the package import from `module`."""
    names = set()
    for other, tree in MODULES.items():
        for node in tree.body:
            if other != module and isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == module:
                names.update(alias.name for alias in node.names)
    return names


def test_every_module_level_import_is_used():
    unused = []
    for module, tree in MODULES.items():
        if module == "__init__":
            continue
        used = set().union(*(refs for _, refs in TOP_LEVEL[module])) | _imported_from(module)
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        unused.append(f"{module}: {bound}")
    assert not unused, f"imported but never used: {unused}"


def test_every_private_function_is_referenced():
    # the number of top-level nodes in the package that refer to each name
    referring = Counter(name for nodes in TOP_LEVEL.values() for _, refs in nodes for name in refs)
    orphans = []
    for module, nodes in TOP_LEVEL.items():
        for node, refs in nodes:
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_") and not node.name.startswith("__"):
                # references inside the function itself (recursion) do not count
                if referring[node.name] == (node.name in refs):
                    orphans.append(f"{module}.{node.name}")
    assert not orphans, f"private functions nothing in src/ refers to: {orphans}"


def test_every_module_level_constant_is_referenced():
    referring = Counter(name for nodes in TOP_LEVEL.values() for _, refs in nodes for name in refs)
    orphans = []
    for module, nodes in TOP_LEVEL.items():
        if module == "__init__":
            continue
        for node, refs in nodes:
            targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
            for target in targets:
                if isinstance(target, ast.Name) and target.id.isupper():
                    # the assignment names its own target, which does not count
                    if referring[target.id] == (target.id in refs):
                        orphans.append(f"{module}.{target.id}")
    assert not orphans, f"upper-case constants nothing else in src/ refers to: {orphans}"


def _only_stores_its_parameters(init):
    """Whether the body of `init`, docstring aside, is one or more
    `self.<attr> = <parameter>` statements and nothing else."""
    self_name, *params = [a.arg for a in init.args.posonlyargs + init.args.args + init.args.kwonlyargs]
    body = init.body[1:] if ast.get_docstring(init) is not None else init.body
    return bool(body) and all(
        isinstance(stmt, ast.Assign)
        and len(stmt.targets) == 1
        and isinstance(stmt.targets[0], ast.Attribute)
        and isinstance(stmt.targets[0].value, ast.Name)
        and stmt.targets[0].value.id == self_name
        and isinstance(stmt.value, ast.Name)
        and stmt.value.id in params
        for stmt in body
    )


def test_no_class_has_an_init_that_only_stores_its_arguments():
    records = [
        f"{module}.{node.name}"
        for module, tree in MODULES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        for init in node.body
        if isinstance(init, ast.FunctionDef) and init.name == "__init__" and _only_stores_its_parameters(init)
    ]
    assert not records, f"make these types.SimpleNamespace subclasses, whose __init__ only stores: {records}"
