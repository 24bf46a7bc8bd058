"""Every public module-level function and class of the library, and every
public method and property of its classes, is used by the library itself.

A name counts as used when some part of ``src/dualracah`` other than its
own definition refers to it: as a plain name, as an attribute, or in an
import.  The match is by name alone, so a method whose name another
definition shares (``Poly.is_zero`` and a ``SquareMatrix.is_zero``, say)
counts as used when either is.  The entry point is the only name the
library may define for outside callers alone.

Every field of a class is read as an attribute in the library, too: each
annotated name of its body (a NamedTuple's fields) and each attribute its
``__init__`` sets on self.  A read counts for its receiver's class, as the
annotations give it: ``self`` in a method, an annotated parameter, a local
bound to a call whose return annotation names a class, or a field or
property read on such a receiver.  A read on a receiver of unknown class
counts for every field of that name."""

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


def _class_of(annotation):
    """The class an annotation names, by its last dotted part; None for a
    subscripted or missing annotation."""
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        return annotation.value.split(".")[-1]
    if isinstance(annotation, ast.Name):
        return annotation.id
    if isinstance(annotation, ast.Attribute):
        return annotation.attr
    return None


def _fields(cls):
    """Field name -> class of each field of a class: the annotated names of
    its body (a NamedTuple's fields) and the attributes its ``__init__``
    sets on self, an attribute set from a parameter of that parameter's
    class."""
    out = {
        node.target.id: _class_of(node.annotation)
        for node in cls.body
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
    }
    for init in cls.body:
        if not (isinstance(init, ast.FunctionDef) and init.name == "__init__"):
            continue
        me, *args = init.args.args
        params = {a.arg: _class_of(a.annotation) for a in args}
        for node in ast.walk(init):
            for target in node.targets if isinstance(node, ast.Assign) else []:
                pairs = [(target, node.value)]
                if isinstance(target, ast.Tuple):
                    values = getattr(node.value, "elts", [None] * len(target.elts))
                    pairs = zip(target.elts, values)
                for t, v in pairs:
                    if isinstance(t, ast.Attribute) and getattr(t.value, "id", None) == me.arg:
                        out[t.attr] = params.get(getattr(v, "id", None))
    return out


def _split(scope):
    """The nodes of scope outside the functions and classes it defines, and
    those definitions."""
    own, defs, stack = [], [], list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defs.append(node)
        else:
            own.append(node)
            stack.extend(ast.iter_child_nodes(node))
    return own, defs


class _Reads:
    """(receiver class or None, attribute) of every attribute read in the
    library."""

    def __init__(self, trees):
        self.members, returns = {}, {}
        for node in (n for tree in trees.values() for n in ast.walk(tree)):
            if isinstance(node, ast.ClassDef):
                returns.setdefault(node.name, set()).add(node.name)
                self.members[node.name] = {
                    **_fields(node),
                    **{m.name: _class_of(m.returns)
                       for m in node.body if isinstance(m, ast.FunctionDef)},
                }
            elif isinstance(node, ast.FunctionDef):
                returns.setdefault(node.name, set()).add(_class_of(node.returns))
        # a name that several definitions share, with different returns, is unknown
        self.returns = {name: kinds.pop() for name, kinds in returns.items() if len(kinds) == 1}
        self.found = set()
        for tree in trees.values():
            self._visit(tree, {}, None)

    def _type(self, node, env):
        if isinstance(node, ast.Name):
            return env.get(node.id)
        if isinstance(node, ast.Attribute):
            return self.members.get(self._type(node.value, env), {}).get(node.attr)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            owner = self._type(node.func.value, env)
            if owner in self.members:
                return self.members[owner].get(node.func.attr)
            return self.returns.get(node.func.attr)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return self.returns.get(node.func.id)
        return None

    def _bind(self, func, own, env, cls):
        """env with the parameters and locals of func bound to their
        classes; a name bound twice to different classes, or by a loop or
        a with, is unknown."""
        env = dict(env)
        args = func.args.posonlyargs + func.args.args + func.args.kwonlyargs
        env.update((a.arg, _class_of(a.annotation)) for a in args)
        if cls and args:
            env[args[0].arg] = cls
        kinds = {name: {kind} for name, kind in env.items()}

        def bind(target, value):
            if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple):
                for t, v in zip(target.elts, value.elts):
                    bind(t, v)
            elif isinstance(target, ast.Name):
                env[target.id] = self._type(value, env)
                kinds.setdefault(target.id, set()).add(env[target.id])

        for node in sorted((n for n in own if isinstance(n, ast.Assign)), key=lambda n: n.lineno):
            for target in node.targets:
                bind(target, node.value)
        loops = [n.target for n in own if isinstance(n, (ast.For, ast.comprehension))]
        loops += [n.optional_vars for n in own if isinstance(n, ast.withitem) and n.optional_vars]
        unknown = {t.id for target in loops for t in ast.walk(target) if isinstance(t, ast.Name)}
        unknown |= {name for name, k in kinds.items() if len(k) > 1}
        env.update((name, None) for name in unknown)
        return env

    def _visit(self, scope, env, cls):
        own, defs = _split(scope)
        if isinstance(scope, ast.FunctionDef):
            env = self._bind(scope, own, env, cls)
        self.found |= {
            (self._type(node.value, env), node.attr)
            for node in own
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        }
        for node in defs:
            self._visit(node, env, scope.name if isinstance(scope, ast.ClassDef) else None)


def test_every_field_is_read_in_the_library():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    found = _Reads(trees).found
    fields = [
        (module, node.name, name)
        for module, tree in trees.items()
        for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
        for name in _fields(node)
    ]
    assert fields, "no field found"
    unread = [
        f"{module}.{cls}.{name}"
        for module, cls, name in fields
        if (cls, name) not in found and (None, name) not in found
    ]
    assert unread == []
