"""Every certification in the library has a fault test that makes it fire.

A certification is a ``raise CrossCheckMismatch(...)``,
``raise DegreeMismatch(...)`` or ``raise SingularR0(...)`` in
``src/dualracah``.  Each one must be matched by the ``match=`` pattern of
some ``pytest.raises`` under ``tests/``, or be listed in ``CANNOT_FIRE``
with the reason it cannot fire.

A pattern matches a site when, read as text, it spells the site's whole
message: the pattern's escapes, ``.``, ``\\d`` (each with an optional
``*`` or ``+``) and the formatted values of an f-string pattern are filled
in with one sample character, and the result must fit the site's message
with each formatted value of the site standing for any text.  So the
pattern names its site, not merely a phrase that several sites share.  A
``match=`` that is not a literal is resolved through the names it reads:
``pytest.mark.parametrize`` arguments, assignments and ``for`` targets of
the enclosing functions, and module-level assignments; every string those
bind is a candidate pattern.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "dualracah"
TESTS = ROOT / "tests"
CERTIFICATIONS = {"CrossCheckMismatch", "DegreeMismatch", "SingularR0"}
HOLE = "\0"

#: (module, message with "{}" for each formatted value) -> why it cannot fire
CANNOT_FIRE = {}


def _template(node):
    """The text of a str or f-string node, HOLE for each formatted value."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(
            part.value if isinstance(part, ast.Constant) else HOLE for part in node.values
        )
    return None


def _sites():
    """(module, line, message template) of every certification raise."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Raise)
                and isinstance(node.exc, ast.Call)
                and isinstance(node.exc.func, ast.Name)
                and node.exc.func.id in CERTIFICATIONS
            ):
                args = node.exc.args
                yield path.stem, node.lineno, _template(args[0]) if args else None


def _binders(scopes, name):
    """The expressions that may bind `name` in the enclosing scopes,
    innermost first: parametrize values, assignments, for-loop iterables."""
    for scope in reversed(scopes):
        for dec in getattr(scope, "decorator_list", ()):
            if (
                isinstance(dec, ast.Call)
                and getattr(dec.func, "attr", None) == "parametrize"
                and len(dec.args) >= 2
                and name in str(getattr(dec.args[0], "value", "")).replace(" ", "").split(",")
            ):
                yield dec.args[1]
        body = scope.body if isinstance(scope, ast.Module) else list(ast.walk(scope))[1:]
        for node in body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.For, ast.comprehension)):
                targets = [node.target]
            else:
                continue
            if any(isinstance(t, ast.Name) and t.id == name
                   for target in targets for t in ast.walk(target)):
                yield node.value if isinstance(node, ast.Assign) else node.iter


def _strings(expr, scopes, seen):
    """Every str or f-string template that `expr` may evaluate to or read."""
    for node in ast.walk(expr):
        template = _template(node)
        if template is not None:
            yield template
        elif isinstance(node, ast.Name) and node.id not in seen:
            seen.add(node.id)
            for bound in _binders(scopes, node.id):
                yield from _strings(bound, scopes, seen)


def _patterns():
    """Every candidate match= pattern of the tests."""
    for path in sorted(TESTS.glob("*.py")):
        tree = ast.parse(path.read_text())
        stack = [(tree, [tree])]
        while stack:
            node, scopes = stack.pop()
            if isinstance(node, ast.Call):
                for kw in node.keywords:
                    if kw.arg == "match":
                        yield from _strings(kw.value, scopes, set())
            for child in ast.iter_child_nodes(node):
                inner = scopes + [child] if isinstance(child, ast.FunctionDef) else scopes
                stack.append((child, inner))


def _sample(pattern):
    """A message that `pattern` matches, each wildcard filled with one
    character; None for regex syntax beyond escapes, '.' and '\\d'."""
    out, i = [], 0
    while i < len(pattern):
        c = pattern[i]
        if c == "\\" and i + 1 < len(pattern):
            out.append("7" if pattern[i + 1] == "d" else pattern[i + 1])
            i += 2
        elif c in ".\0":
            out.append("7")
            i += 1
        elif c in "*+" and out:
            i += 1
        elif c in "[](){}|?^$*+":
            return None
        else:
            out.append(c)
            i += 1
    sample = "".join(out)
    return sample if re.search(pattern.replace(HOLE, ".+"), sample) else None


def _fits(template, sample):
    site = ".+".join(re.escape(chunk) for chunk in template.split(HOLE))
    return re.fullmatch(site, sample, re.DOTALL) is not None


def _name(module, template):
    return module, template.replace(HOLE, "{}")


def test_every_certification_has_a_fault_test():
    sites = list(_sites())
    assert sites, "no certification found"
    assert all(t for _, _, t in sites), "a certification raises without a message literal"
    names = {_name(module, t) for module, _, t in sites}
    assert set(CANNOT_FIRE) <= names, "CANNOT_FIRE names a certification that is gone"
    samples = {s for s in map(_sample, set(_patterns())) if s}
    uncovered = [
        f"{module}.py:{line}: {_name(module, t)[1]}"
        for module, line, t in sites
        if _name(module, t) not in CANNOT_FIRE and not any(_fits(t, s) for s in samples)
    ]
    assert uncovered == []


def test_the_pattern_reader_tells_sites_apart():
    """A pattern fits its own site only: a shared leading phrase is not
    enough, and a formatted value of the site stands for any text."""
    site = f"deformed polynomial n={HOLE} is {HOLE} at x=0, not 1"
    other = f"deformed polynomial n={HOLE} degree/leading coefficient"
    sample = _sample(r"deformed polynomial n=6 is .* at x=0, not 1")
    assert _fits(site, sample) and not _fits(other, sample)
    assert not _fits(site, _sample("deformed polynomial n="))
    assert _sample(f"dual coefficient at n={HOLE}") == "dual coefficient at n=7"
    assert _sample(r"a|b") is None
