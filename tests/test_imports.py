"""Nothing under src/jsjforge is dead: every name a module imports is read
somewhere in it, every parameter of a def is read in its body, and every
public top-level function or class, and every method of a reached class,
is reached from cli.main (or from a name that an open item, the
benchmark or an acceptance criterion needs)."""

import ast
import itertools
from pathlib import Path

import pytest

import jsjforge

MODULES = sorted(Path(jsjforge.__file__).parent.glob("*.py"))


def unused_imports(source):
    """(line, name) for each imported name that the module never reads.

    A name counts as read when it appears as a loaded identifier
    (``name``, ``name.attr``, ``name(...)``) or is listed in ``__all__``.
    """
    tree = ast.parse(source)
    bound = []
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.append((node.lineno, name))
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            read.update(elt.value for elt in ast.walk(node.value)
                        if isinstance(elt, ast.Constant))
    return [(line, name) for line, name in bound if name not in read]


def test_detector_negative_control():
    src = ("import os, sys\nfrom math import pi as PI, tau\n"
           "__all__ = ['tau']\nprint(sys.argv)\n")
    assert unused_imports(src) == [(1, "os"), (2, "PI")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def _only_raises_not_implemented(node):
    body = node.body[1:] if ast.get_docstring(node) is not None else node.body
    if len(body) != 1 or not isinstance(body[0], ast.Raise):
        return False
    exc = body[0].exc
    exc = exc.func if isinstance(exc, ast.Call) else exc
    return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"


def unread_parameters(source):
    """(line, function, parameter) for each parameter its body never reads.

    A body that only raises NotImplementedError is exempt, and so is the
    first parameter of a method (self or cls), which the class fixes.
    """
    tree = ast.parse(source)
    bound_first = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            bound_first.update(
                f for f in node.body
                if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                            for d in f.decorator_list))
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                or _only_raises_not_implemented(node):
            continue
        a = node.args
        params = [x.arg for x in a.posonlyargs + a.args + a.kwonlyargs]
        params += [x.arg for x in (a.vararg, a.kwarg) if x is not None]
        if node in bound_first:
            params = params[1:]
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        out += [(node.lineno, node.name, p) for p in params if p not in read]
    return out


def test_unread_parameter_negative_control():
    src = ("def f(a, b, *args, c=1, **kw):\n    return a + c\n"
           "def g(x):\n    raise NotImplementedError\n"
           "class K:\n    def m(self, y):\n        return 1\n"
           "    @staticmethod\n    def s(z):\n        return 2\n")
    assert unread_parameters(src) == [
        (1, "f", "b"), (1, "f", "args"), (1, "f", "kw"), (6, "m", "y"),
        (9, "s", "z")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    assert unread_parameters(path.read_text(encoding="utf-8")) == []


def _is_method(node):
    """A def in a class body other than a dunder."""
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
        and not (node.name.startswith("__") and node.name.endswith("__"))


def _own_nodes(node):
    """The nodes of a top-level definition, less a class's methods, which
    are walked when they are reached themselves."""
    if not isinstance(node, ast.ClassDef):
        return ast.walk(node)
    return itertools.chain([node], *(ast.walk(c) for c in
                                     ast.iter_child_nodes(node)
                                     if not _is_method(c)))


def unreached(sources, roots):
    """Public top-level functions and classes, and methods of reached
    classes, that no walk from roots reaches, as sorted "module.name"
    and "module.Class.method" strings.

    sources maps a module name to its source.  A reached function or
    class reaches every top-level name its definition reads: one of its
    own module, one bound by `from .x import name`, or `x.name` for a
    module bound by `from . import x`.  A reached module-level assignment
    reaches the names its value reads.  A class reaches its dunders, but
    not its other methods, private ones included: such a method is
    reached when its class is and some reached body loads an attribute
    of its name (`obj.name`, `super().name`, a property read), and the
    walk runs until no method is added.
    """
    defs, imports, methods = {}, {}, {}
    for mod, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defs[mod, node.name] = node
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                for target in targets:
                    for n in ast.walk(target):
                        if isinstance(n, ast.Name):
                            defs[mod, n.id] = node
            if isinstance(node, ast.ClassDef):
                for f in filter(_is_method, node.body):
                    key = mod, "%s.%s" % (node.name, f.name)
                    defs[key] = f
                    methods[key] = (mod, node.name), f.name
        imports[mod] = {
            alias.asname or alias.name:
                (node.module, alias.name) if node.module else (alias.name, None)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names}
    seen, loaded, todo = set(), set(), list(roots)
    while todo:
        while todo:
            key = todo.pop()
            if key in seen or key not in defs:
                continue
            seen.add(key)
            names = imports[key[0]]
            for n in _own_nodes(defs[key]):
                if isinstance(n, ast.Name):
                    todo.append(names.get(n.id, (key[0], n.id)))
                elif isinstance(n, ast.Attribute) \
                        and isinstance(n.ctx, ast.Load):
                    loaded.add(n.attr)
                    if isinstance(n.value, ast.Name):
                        mod, attr = names.get(n.value.id, (None, ""))
                        if attr is None:
                            todo.append((mod, n.attr))
        todo = [key for key, (cls, name) in methods.items()
                if key not in seen and cls in seen and name in loaded]
    return sorted(
        "%s.%s" % key for key, node in defs.items()
        if key not in seen and not isinstance(node, (ast.Assign,
                                                     ast.AnnAssign))
        and (methods[key][0] in seen if key in methods
             else not key[1].startswith("_")))


# public names and methods no CLI path reaches yet, and what needs each;
# the walk starts from these too, so their helpers need no entry of
# their own
UNREACHED_BY_CLI = {
    "annulus.component_count_stability":
        "criterion 5; bench/worker.py calls it",
    "features.build_periodic_path": "criterion 6 builds a path with it",
    "geometry.CayleyBall.sphere_sizes":
        "bench/worker.py exports it, and oracles.py checks the sizes",
    "features.search_cut_pair":
        "ROADMAP item 2 wires it; bench/tracer.py wraps it",
    "features.serialize_feature": "ROADMAP item 3 (--witness)",
    "features.parse_feature": "ROADMAP item 3 (jsj-forge verify)",
    "geometry.distance": "criterion 1; bench/worker.py calls it",
    "geometry.valence_stats": "ROADMAP item 3's check of B and V",
    "gog.canonical_key": "criterion 9 compares graphs of groups with it",
    "hyperbolicity.certify_delta":
        "ROADMAP item 3; criterion 3 and bench/worker.py call it",
    "hyperbolicity.check_ddag":
        "criterion 3; bench/tracer.py wraps it (check_ddag_calls)",
    "hyperbolicity.ConstantTable.fingerprint":
        "criterion 2 compares constant tables with it",
}


def test_reachability_negative_control():
    sources = {
        "cli": "from .b import used\nfrom . import c\n"
               "def main():\n    used()\n    c.helper()\n    _private()\n"
               "def _private():\n    pass\n",
        "b": "LIMIT = cap()\ndef used():\n    return LIMIT\n"
             "def cap():\n    return 3\ndef orphan():\n    pass\n"
             "class Kept:\n    pass\nclass Lost:\n    pass\n",
        "c": "from .b import Kept, orphan\ndef helper():\n    return Kept()\n"
             "def helper2():\n    return orphan()\n",
    }
    assert unreached(sources, [("cli", "main")]) == [
        "b.Lost", "b.orphan", "c.helper2"]
    assert unreached(sources, [("cli", "main"), ("c", "helper2")]) == [
        "b.Lost"]


def test_method_reachability_negative_control():
    sources = {
        "cli": "from .m import Box, Sub\n"
               "def main():\n    b = Box()\n    b.read()\n"
               "    Sub().grow()\n    return b.size + len(b)\n",
        "m": "class Box:\n"
             "    def __len__(self):\n        return self._count()\n"
             "    def read(self):\n        return 1\n"
             "    @property\n    def size(self):\n        return 2\n"
             "    def _count(self):\n        return 3\n"
             "    def unread(self):\n        return self._hidden()\n"
             "    def _hidden(self):\n        return 4\n"
             "    def _spare(self):\n        return 5\n"
             "class Base:\n    def grow(self):\n        return 6\n"
             "    def shrink(self):\n        return 7\n"
             "class Sub(Base):\n"
             "    def grow(self):\n        return super().grow()\n"
             "class Lost:\n    def read(self):\n        return 8\n",
    }
    # a dunder comes with its class, a method with a load of its name;
    # a private method read only by an unread one stays unread, and an
    # unreached class reports no method
    assert unreached(sources, [("cli", "main")]) == [
        "m.Base.shrink", "m.Box._hidden", "m.Box._spare", "m.Box.unread",
        "m.Lost"]
    assert unreached(sources, [("cli", "main"), ("m", "Box.unread")]) == [
        "m.Base.shrink", "m.Box._spare", "m.Lost"]


def test_every_public_name_is_reached_from_cli_main():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in MODULES}
    exempt = [tuple(name.split(".", 1)) for name in UNREACHED_BY_CLI]
    assert unreached(sources, [("cli", "main")] + exempt) == []
    # an exception the CLI now reaches, or a deleted name, is stale
    from_cli = unreached(sources, [("cli", "main")])
    assert [n for n in UNREACHED_BY_CLI if n not in from_cli] == []
