"""Source hygiene checks that need nothing beyond the standard library."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "coarselab"


def unused_imports(source):
    """(line, name) of each name an import binds that the module never reads.

    A name counts as read when it appears as a bare name anywhere in the
    module (attribute bases and annotations included) or in ``__all__``.
    ``from __future__`` imports are exempt.
    """
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                bound.append((node.lineno, a.asname or a.name.split(".")[0]))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                bound.append((node.lineno, a.asname or a.name))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [(line, name) for line, name in bound if name not in used]


def test_checker_flags_an_unused_import():
    src = "import json\nimport math\nfrom os import path, sep\nprint(math.pi, sep)\n"
    assert unused_imports(src) == [(1, "json"), (3, "path")]


@pytest.mark.parametrize("path",
                         sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def unread_private_attributes(sources):
    """(file, line, name) of each private attribute ``obj._x`` that some
    source stores and no source reads.

    `sources` maps a file name to its text.  A store is an assignment
    target ``obj._x = ...`` (augmented, annotated and tuple targets
    included); a read is an attribute load ``obj._x`` anywhere, or the
    string ``"_x"`` passed to ``getattr`` or ``hasattr``.  Dunder names are
    exempt.
    """
    stored, read = [], set()
    for name, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Attribute):
                if isinstance(node.ctx, ast.Store):
                    stored.append((name, node.lineno, node.attr))
                elif isinstance(node.ctx, ast.Load):
                    read.add(node.attr)
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id in ("getattr", "hasattr")
                  and len(node.args) >= 2
                  and isinstance(node.args[1], ast.Constant)):
                read.add(node.args[1].value)
    return [(name, line, attr) for name, line, attr in stored
            if attr.startswith("_") and not attr.startswith("__")
            and attr not in read]


def test_checker_flags_an_unread_private_attribute():
    src = ("class A:\n"
           "    def __init__(self):\n"
           "        self._a, self._b = 1, 2\n"
           "        self._c = 3\n"
           "        self.d = 4\n"
           "    def f(self):\n"
           "        return self._a + getattr(self, '_c')\n")
    assert unread_private_attributes({"a.py": src}) == [("a.py", 3, "_b")]


def test_every_stored_private_attribute_is_read():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unread_private_attributes(sources) == []


def unreferenced_private_definitions(sources):
    """(file, line, name) of each private function, method or class that
    some source defines and no source references.

    `sources` maps a file name to its text.  A definition is a ``def``,
    ``async def`` or ``class`` statement at any depth whose name starts
    with one underscore; a reference is a bare name or an attribute
    ``obj._x`` read anywhere.  Dunder names are exempt.
    """
    defined, referenced = [], set()
    for name, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defined.append((name, node.lineno, node.name))
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                referenced.add(node.id)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                referenced.add(node.attr)
    return [(name, line, fn) for name, line, fn in defined
            if fn.startswith("_") and not fn.startswith("__")
            and fn not in referenced]


def test_checker_flags_an_unreferenced_private_definition():
    src = ("def _used():\n"
           "    pass\n"
           "def _unused():\n"
           "    _other = 1\n"
           "class _Box:\n"
           "    def __init__(self):\n"
           "        self._walk = None\n"
           "    def _walk(self):\n"
           "        pass\n"
           "    def _step(self):\n"
           "        return _used()\n"
           "def public():\n"
           "    return _Box()._step()\n")
    assert unreferenced_private_definitions({"a.py": src}) == [
        ("a.py", 3, "_unused"), ("a.py", 8, "_walk")]


def test_every_private_definition_is_referenced():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unreferenced_private_definitions(sources) == []


# public definitions that no runner path reaches yet, each with the reason
# it stays; unwired_drift keeps this list exact
UNWIRED = {
    "change_generators": "the quasi-isometry invariance falsifier will run "
                         "it on a regenerated space (ROADMAP item 5)",
    "in_kappa_neighborhood": "the boundary walk statistic will compare a "
                             "walk's proxies with it (ROADMAP item 7)",
    "fellow_traveling_profile": "the boundary walk statistic will part two "
                                "walks' proxies with it (ROADMAP item 7)",
    "fit_kappa_projection": "[morse] gauge = derive will fit D1 and D2 with "
                            "it (ROADMAP item 9)",
    "ProjectionConstants": "what fit_kappa_projection returns (ROADMAP "
                           "item 9)",
    "cone_membership": "the topology of the kappa-boundary, which needs a "
                       "section of its own (ROADMAP item 10)",
    "symmetry_transfer": "the topology of the kappa-boundary, which needs "
                         "a section of its own (ROADMAP item 10)",
    "check_scaling": "the scaling lemma on every canonical gauge, checked "
                     "by acceptance test 1",
    "registry": "the canonical gauge family that acceptance test 1 checks",
    "coset_projection": "the coset projection that acceptance test 2 "
                        "checks against brute force",
    "projection_diameter_profile": "the loopy-ray projection profile of "
                                   "acceptance test 4",
    "coned_dist_to_coset": "the definition that the projection-oracle test "
                           "prices the coset runs against",
}


def unwired_drift(modules, readers, unwired):
    """(name, problem) of each disagreement between what the runner
    reaches in `modules` and the names of `unwired`.

    `modules` maps a source file name to its text, `readers` a test file
    name to its text, and `unwired` a public name to the reason no runner
    path reaches it yet.  Names are followed by name alone: a reached
    statement reaches every module-level ``def``, ``class`` or assignment
    of `modules` that binds a name it reads as a bare name or as an
    attribute ``obj.x``, and a reached definition reaches all it reads,
    a class its methods' reads too.  The runner reaches ``main`` of cli.py
    and every other module-level statement, which runs on import; the
    tests reach whatever their sources read.

    The problem is "unreachable" for a public module-level function or
    class that the runner does not reach and `unwired` does not name.  For
    a name of `unwired` it is "undefined", "reachable" when the runner
    reaches it, or "read by no test" when the tests do not.
    """
    binders, runner_roots, public = {}, [], []
    for file, source in modules.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                names = [node.name]
                if not node.name.startswith("_"):
                    public.append(node)
                if file == "cli.py" and node.name == "main":
                    runner_roots.append(node)
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                names = [n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            else:
                runner_roots.append(node)
                continue
            for name in names:
                binders.setdefault(name, []).append(node)

    def reach(roots):
        seen, read, todo = set(), set(), list(roots)
        while todo:
            node = todo.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            for n in ast.walk(node):
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                    name = n.id
                elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                    name = n.attr
                else:
                    continue
                if name not in read:
                    read.add(name)
                    todo += binders.get(name, [])
        return {node.name for node in public if id(node) in seen}

    by_runner = reach(runner_roots)
    by_tests = reach(ast.parse(source) for source in readers.values())
    defined = {node.name for node in public}
    out = [(name, "unreachable") for name in defined - by_runner
           if name not in unwired]
    for name in unwired:
        if name not in defined:
            out.append((name, "undefined"))
        elif name in by_runner:
            out.append((name, "reachable"))
        elif name not in by_tests:
            out.append((name, "read by no test"))
    return sorted(out)


def test_checker_flags_unwired_drift():
    cli = ("from . import lab\n"
           "def main():\n"
           "    return lab.run()\n"
           "if __name__ == '__main__':\n"
           "    main()\n")
    lab = ("def run():\n"
           "    return Box().go()\n"
           "class Box:\n"
           "    def go(self):\n"
           "        return wired_now(TABLE)\n"
           "TABLE = {'h': helper}\n"
           "def helper():\n"
           "    pass\n"
           "def wired_now(table):\n"
           "    pass\n"
           "def orphan():\n"
           "    pass\n"
           "def tested():\n"
           "    return Parts()\n"
           "class Parts:\n"
           "    pass\n"
           "def untested():\n"
           "    pass\n"
           "def _private():\n"
           "    pass\n"
           "print(on_import())\n"
           "def on_import():\n"
           "    pass\n")
    reader = ("from lab import tested, wired_now\n"
              "def test_lab():\n"
              "    tested(); wired_now(0)\n")
    unwired = dict.fromkeys(["tested", "Parts", "wired_now", "untested",
                             "deleted"], "reason")
    assert unwired_drift({"cli.py": cli, "lab.py": lab},
                         {"test_lab.py": reader}, unwired) == [
        ("deleted", "undefined"), ("orphan", "unreachable"),
        ("untested", "read by no test"), ("wired_now", "reachable")]


def test_every_public_definition_is_reachable_or_unwired():
    modules = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    readers = {p.name: p.read_text() for p in sorted(TESTS.glob("*.py"))}
    assert unwired_drift(modules, readers, UNWIRED) == []


def unset_defaulted_parameters(modules, callers):
    """(file, line, function, parameter) of each defaulted parameter of a
    function in `modules` that no call in `callers` passes.

    Both arguments map a file name to its text.  Calls are matched to
    definitions by name alone: ``f(...)`` and ``obj.f(...)`` reach every
    function and method named ``f`` (after ``from m import f as g``,
    ``g(...)`` reaches ``f``), and ``C(...)`` reaches ``C.__init__``.  A
    method's first parameter is bound, so a call's positional arguments
    fill the parameters after it (static methods excepted).  A call sets a
    parameter by keyword or by position, and a ``*args`` or ``**kwargs``
    in it sets every parameter.  A closure's default-binding idiom, a
    parameter of a nested function whose default is a bare name
    (``_t=ts``), is exempt.
    """
    defs = {}   # called name -> [(file, line, function, positional, defaulted)]

    def visit(name, body, cls, nested):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(name, node.body, node.name, nested)
                continue
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for field in ("body", "orelse", "finalbody", "handlers"):
                    visit(name, getattr(node, field, []), cls, nested)
                continue
            a = node.args
            params = a.posonlyargs + a.args
            static = any(getattr(d, "id", None) == "staticmethod"
                         for d in node.decorator_list)
            bound = cls is not None and not static
            defaults = [*zip(params[len(params) - len(a.defaults):], a.defaults),
                        *zip(a.kwonlyargs, a.kw_defaults)]
            defaulted = [p.arg for p, d in defaults if d is not None
                         and not (nested and isinstance(d, ast.Name))]
            if defaulted:
                key = cls if cls and node.name == "__init__" else node.name
                defs.setdefault(key, []).append(
                    (name, node.lineno, node.name,
                     [p.arg for p in params[bound:]], defaulted))
            visit(name, node.body, None, True)

    for name, source in modules.items():
        visit(name, ast.parse(source).body, None, False)
    passed = {}   # called name -> parameters some call sets
    for source in callers.values():
        tree = ast.parse(source)
        alias = {a.asname: a.name for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)
                 for a in node.names if a.asname}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Name):
                key = alias.get(node.func.id, node.func.id)
            elif isinstance(node.func, ast.Attribute):
                key = node.func.attr
            else:
                continue
            got = passed.setdefault(key, set())
            splat = (any(isinstance(arg, ast.Starred) for arg in node.args)
                     or any(k.arg is None for k in node.keywords))
            for _, _, _, positional, defaulted in defs.get(key, ()):
                got.update(defaulted if splat else positional[:len(node.args)])
            got.update(k.arg for k in node.keywords)
    return sorted((name, line, fn, p)
                  for key, entries in defs.items()
                  for name, line, fn, _, defaulted in entries
                  for p in defaulted if p not in passed.get(key, ()))


def test_checker_flags_an_unset_defaulted_parameter():
    module = ("def by_keyword(x, a=1, b=2):\n"
              "    pass\n"
              "def by_position(x, a=1, b=2):\n"
              "    pass\n"
              "def aliased(a=1):\n"
              "    pass\n"
              "class Box:\n"
              "    def __init__(self, size=1, fill=0):\n"
              "        def inner(t, _size=size, scale=2):\n"
              "            return t * _size * scale\n"
              "        self.f = inner\n"
              "    def grow(self, by=1, *, to=None):\n"
              "        pass\n"
              "def spread(a=1, b=2):\n"
              "    pass\n"
              "def splat(a=1, b=2):\n"
              "    pass\n")
    caller = ("from m import aliased as alias, by_position\n"
              "by_keyword(0, b=3)\n"
              "by_position(0, 1)\n"
              "alias(2)\n"
              "box = Box(3)\n"
              "box.grow(2)\n"
              "spread(*args)\n"
              "splat(**kwargs)\n")
    assert unset_defaulted_parameters({"m.py": module}, {"t.py": caller}) == [
        ("m.py", 1, "by_keyword", "a"), ("m.py", 3, "by_position", "b"),
        ("m.py", 8, "__init__", "fill"), ("m.py", 9, "inner", "scale"),
        ("m.py", 12, "grow", "to")]


def test_every_defaulted_parameter_is_passed_somewhere():
    modules = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    callers = {str(p): p.read_text()
               for d in (SRC, TESTS, TESTS.parent / "bench")
               for p in sorted(d.glob("*.py"))}
    assert unset_defaulted_parameters(modules, callers) == []


# the program runs in one process, and numpy serves only array arithmetic:
# walks draw from random.Random, whose stream the outputs are pinned to, in
# one getrandbits batch per walk that numpy turns into random() values
FORBIDDEN_IMPORTS = ("concurrent.futures", "multiprocessing", "numpy.random")


def forbidden_imports(source, forbidden=FORBIDDEN_IMPORTS):
    """(line, module) of each import of a forbidden module or of a name from
    it: ``import m``, ``import m.sub``, ``from m import x`` and, for a
    forbidden ``pkg.m``, ``from pkg import m``."""
    def hit(name):
        return next((m for m in forbidden
                     if name == m or name.startswith(m + ".")), None)

    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            names = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
        else:
            continue
        for m in dict.fromkeys(filter(None, map(hit, names))):
            out.append((node.lineno, m))
    return out


def test_checker_flags_a_forbidden_import():
    src = ("import concurrent.futures\n"
           "from multiprocessing import Pool\n"
           "from numpy import random\n"
           "import numpy as np\n"
           "from numpy.random import default_rng\n"
           "from concurrent import futures\n"
           "from .numpy import random\n")
    assert forbidden_imports(src) == [
        (1, "concurrent.futures"), (2, "multiprocessing"), (3, "numpy.random"),
        (5, "numpy.random"), (6, "concurrent.futures")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_process_pools_or_numpy_random(path):
    assert forbidden_imports(path.read_text()) == []


# failures are caught by their documented type, so an unexpected error
# surfaces as itself instead of as a wrong verdict
CATCH_ALL = ("Exception", "BaseException")


def catch_all_handlers(source):
    """(line, caught) of each handler that catches every exception: a bare
    ``except:`` (caught is ``""``), or ``Exception`` or ``BaseException``
    by name or attribute, alone or in a tuple."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if node.type is None:
            out.append((node.lineno, ""))
            continue
        types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        for t in types:
            name = getattr(t, "id", None) or getattr(t, "attr", None)
            if name in CATCH_ALL:
                out.append((node.lineno, name))
    return out


def test_checker_flags_a_catch_all_handler():
    src = ("try:\n    pass\nexcept:\n    pass\n"
           "try:\n    pass\nexcept Exception:\n    pass\n"
           "try:\n    pass\nexcept (KeyError, builtins.BaseException) as e:\n    pass\n"
           "try:\n    pass\nexcept (KeyError, ValueError):\n    pass\n"
           "try:\n    pass\nexcept errors.DomainError:\n    pass\n")
    assert catch_all_handlers(src) == [
        (3, ""), (7, "Exception"), (11, "BaseException")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_exceptions_are_caught_by_type(path):
    assert catch_all_handlers(path.read_text()) == []


def stray_pushes(sources):
    """(file, line) of each ``obj.push`` attribute read (a call, or a bound
    method taken for one) outside the module-level function ``_pushes`` of
    space.py, the one replay of letters on an accumulator.

    `sources` maps a file name to its text."""
    out = []
    for name, source in sources.items():
        tree = ast.parse(source)
        exempt = {id(n) for node in tree.body
                  if name == "space.py" and isinstance(node, ast.FunctionDef)
                  and node.name == "_pushes" for n in ast.walk(node)}
        out += [(name, node.lineno) for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr == "push"
                and isinstance(node.ctx, ast.Load) and id(node) not in exempt]
    return sorted(out)


def test_checker_flags_a_stray_push():
    space = ("def _pushes(acc, letters):\n"
             "    for g in letters:\n"
             "        acc.push(g)\n"
             "        yield acc.norm\n"
             "class Acc:\n"
             "    def push(self, g):\n"
             "        self.stack.append(g)\n"
             "def replay(acc, letters):\n"
             "    push = acc.push\n"
             "    for g in letters:\n"
             "        push(g)\n")
    other = ("def _pushes(acc, letters):\n"
             "    acc.push(letters[0])\n")
    assert stray_pushes({"space.py": space, "morse.py": other}) == [
        ("morse.py", 2), ("space.py", 9)]


def test_every_push_goes_through_pushes():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert stray_pushes(sources) == []


def forked_pushes(source):
    """(qualified name, line) of each method ``push`` of the space.py text
    `source`, other than ``GroupSpace._GenericAcc.push``, whose body does
    more than replay its letter through ``_pushes``: one expression
    statement that calls ``_pushes``.  So the push rules of free groups and
    free products live in ``_pushes`` alone."""
    out = []

    def visit(node, names):
        for child in node.body:
            if isinstance(child, ast.ClassDef):
                visit(child, names + [child.name])
            elif (isinstance(child, ast.FunctionDef) and child.name == "push"
                  and names and names != ["GroupSpace", "_GenericAcc"]):
                body = child.body[1:] if ast.get_docstring(child) else child.body
                if not (len(body) == 1 and isinstance(body[0], ast.Expr)
                        and any(isinstance(n, ast.Call)
                                and isinstance(n.func, ast.Name)
                                and n.func.id == "_pushes"
                                for n in ast.walk(body[0]))):
                    out.append((".".join(names + ["push"]), child.lineno))

    visit(ast.parse(source), [])
    return out


def test_checker_flags_a_forked_push():
    space = ("class GroupSpace:\n"
             "    class _GenericAcc:\n"
             "        def push(self, g):\n"
             "            self.cur = g\n"
             "class FreeGroupSpace:\n"
             "    class _RightAcc:\n"
             "        def push(self, g):\n"
             "            '''Replay g.'''\n"
             "            deque(_pushes(self, (g,)), maxlen=0)\n"
             "class FreeProductSpace:\n"
             "    class _RightAcc:\n"
             "        def push(self, g):\n"
             "            self.stack.append(g)\n"
             "    class _GenericAcc:\n"
             "        def push(self, g):\n"
             "            deque(_pushes(self, (g,)), maxlen=0)\n"
             "            self.norm += 1\n"
             "def push(acc, g):\n"
             "    acc.stack.append(g)\n")
    assert forked_pushes(space) == [("FreeProductSpace._RightAcc.push", 12),
                                    ("FreeProductSpace._GenericAcc.push", 15)]


def test_every_push_method_replays_through_pushes():
    assert forked_pushes((SRC / "space.py").read_text()) == []


# every verdict follows from the config and the seed it records, so the
# program reads no setting from the environment
ENV_NAMES = ("environ", "getenv")


def environment_reads(sources):
    """(file, line) of each read of the environment: any use of
    ``os.getenv`` or ``os.environ`` (``os.environ[...]``,
    ``os.environ.get``, ``in os.environ`` and the rest), and any ``from os
    import`` of either.  A bare ``os.environ.setdefault(...)`` statement
    sets a default for libraries the program loads and reads nothing, so
    it is allowed.

    `sources` maps a file name to its text."""
    out = []
    for name, source in sources.items():
        tree = ast.parse(source)
        allowed = {id(node.value.func.value) for node in ast.walk(tree)
                   if isinstance(node, ast.Expr)
                   and isinstance(node.value, ast.Call)
                   and isinstance(node.value.func, ast.Attribute)
                   and node.value.func.attr == "setdefault"}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr in ENV_NAMES
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "os" and id(node) not in allowed):
                out.append((name, node.lineno))
            elif (isinstance(node, ast.ImportFrom) and node.module == "os"
                  and any(a.name in ENV_NAMES for a in node.names)):
                out.append((name, node.lineno))
    return sorted(out)


def test_checker_flags_an_environment_read():
    src = ("import os\n"
           "os.environ.setdefault('OPENBLAS_NUM_THREADS', '1')\n"
           "seed = os.getenv('SEED')\n"
           "seed = os.environ['SEED']\n"
           "seed = os.environ.get('SEED')\n"
           "if 'SEED' in os.environ:\n"
           "    pass\n"
           "cap = os.environ.setdefault('CAP', '1')\n"
           "from os import environ\n"
           "path = os.path.join('a', 'b')\n")
    assert environment_reads({"a.py": src}) == [
        ("a.py", 3), ("a.py", 4), ("a.py", 5), ("a.py", 6), ("a.py", 8),
        ("a.py", 9)]


def test_no_source_reads_the_environment():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert environment_reads(sources) == []


# importing the package caps OpenBLAS at one thread (__init__.py), which
# loses nothing only while no module calls a BLAS-backed numpy routine
BLAS_NAMES = ("dot", "vdot", "matmul", "inner", "outer", "tensordot",
              "einsum", "polyfit", "linalg")


def blas_calls(source):
    """(line, name) of each use of a BLAS-backed numpy routine: ``np.<name>``
    for a name in BLAS_NAMES, under any alias of numpy (``linalg`` stands
    for all of ``np.linalg``), an import of such a name or of
    ``numpy.linalg``, any ``.dot`` method, and the ``@`` operator (``@``
    for both)."""
    tree = ast.parse(source)
    numpy = {"numpy"} | {a.asname for node in ast.walk(tree)
                         if isinstance(node, ast.Import)
                         for a in node.names if a.name == "numpy" and a.asname}
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and (
                node.attr == "dot" or (node.attr in BLAS_NAMES
                                       and isinstance(node.value, ast.Name)
                                       and node.value.id in numpy)):
            out.append((node.lineno, node.attr))
        elif (isinstance(node, (ast.BinOp, ast.AugAssign))
              and isinstance(node.op, ast.MatMult)):
            out.append((node.lineno, "@"))
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            if node.module.startswith("numpy.linalg"):
                out.append((node.lineno, "linalg"))
            elif node.module == "numpy":
                out += [(node.lineno, a.name) for a in node.names
                        if a.name in BLAS_NAMES]
        elif isinstance(node, ast.Import):
            out += [(node.lineno, "linalg") for a in node.names
                    if a.name.startswith("numpy.linalg")]
    return sorted(out)


def test_checker_flags_a_blas_call():
    src = ("import numpy as xp\n"
           "import numpy.linalg\n"
           "from numpy import einsum, sort\n"
           "from numpy.linalg import norm\n"
           "a = xp.dot(x, y) + x.dot(y)\n"
           "b = x @ y\n"
           "b @= y\n"
           "c = numpy.linalg.norm(x) + xp.outer(x, y)[0]\n"
           "d = xp.polyfit(x, y, 1) + xp.inner(x, y)\n"
           "e = xp.sort(x) + xp.cumsum(x) + np.inner(x, y) + inner(x, y)\n"
           "@decorator\n"
           "def f(dot):\n"
           "    return xp.einsum\n")
    assert blas_calls(src) == [
        (2, "linalg"), (3, "einsum"), (4, "linalg"), (5, "dot"), (5, "dot"),
        (6, "@"), (7, "@"), (8, "linalg"), (8, "outer"), (9, "inner"),
        (9, "polyfit"), (13, "einsum")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_blas_backed_numpy_calls(path):
    assert blas_calls(path.read_text()) == []


def numpy_random_reads(source):
    """(line, alias) of each ``<alias>.random`` under any alias of numpy,
    which imports numpy.random on first use as surely as the imports
    forbidden_imports flags.  The program draws every random number from
    random.Random streams (seeds.rng_for), and loading numpy.random as well
    raised a process's peak RSS by 5.4 MB, about 13% of the runner's, and
    cost 7 ms per process (CPython 3.11, numpy 2.4, after importing
    coarselab.cli)."""
    tree = ast.parse(source)
    numpy = {"numpy"} | {a.asname for node in ast.walk(tree)
                         if isinstance(node, ast.Import)
                         for a in node.names if a.name == "numpy" and a.asname}
    return sorted((node.lineno, node.value.id) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "random"
                  and isinstance(node.value, ast.Name)
                  and node.value.id in numpy)


def test_checker_flags_a_numpy_random_read():
    src = ("import random\n"
           "import numpy as xp\n"
           "a = xp.random.default_rng(0)\n"
           "b = random.random() + rng.random() + xp.cumsum(a)\n"
           "c = numpy.random.MT19937\n")
    assert numpy_random_reads(src) == [(3, "xp"), (5, "numpy")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_reads_numpy_random(path):
    assert numpy_random_reads(path.read_text()) == []


THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                    "OMP_NUM_THREADS")


def _after_import(env, expression):
    """What a fresh process with environment `env` prints for `expression`
    once it has imported coarselab.space, and numpy with it."""
    code = f"import os\nimport coarselab.space\nprint({expression})\n"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**env, "PYTHONPATH": str(SRC.parent)})
    return out.stdout.strip()


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(),
                    reason="needs /proc/self/task to count threads")
def test_importing_the_package_starts_no_thread():
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
    assert _after_import(env, "len(os.listdir('/proc/self/task'))") == "1"


def test_a_thread_count_the_user_set_is_kept():
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2"}
    assert _after_import(env, "os.environ['OPENBLAS_NUM_THREADS']") == "2"
