"""Every public module-level function and class of the library, and every
public method and property of its classes, is used by the library itself.

A name counts as used when some part of ``src/dualracah`` other than its
own definition refers to it: as a plain name, as an attribute, or in an
import.  The match is by name alone, so a method whose name another
definition shares (``Poly.is_zero`` and a ``SquareMatrix.is_zero``, say)
counts as used when either is.  The entry point is the only name the
library may define for outside callers alone."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "dualracah"
EXCEPTIONS = {("cli", "main")}


def _names(tree, skip) -> set:
    """Every name, attribute and imported name in tree, outside skip."""
    out, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
        stack.extend(ast.iter_child_nodes(node))
    return out


def _public(body):
    return [
        node for node in body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    ]


def test_every_public_definition_is_used_in_the_library():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    public = []
    for module, tree in trees.items():
        for node in _public(tree.body):
            public.append((module, node.name, node))
            if isinstance(node, ast.ClassDef):
                public += [(module, f"{node.name}.{m.name}", m) for m in _public(node.body)]
    defined = {(module, name) for module, name, _ in public}
    assert EXCEPTIONS <= defined, "an exception names a definition that is gone"
    unused = [
        f"{module}.{name}"
        for module, name, node in public
        if (module, name) not in EXCEPTIONS
        and not any(node.name in _names(tree, node) for tree in trees.values())
    ]
    assert unused == []
