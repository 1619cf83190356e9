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


def unreferenced_public_definitions(modules, readers):
    """(file, line, name) of each public module-level function or class of
    `modules` that no source in `modules` or `readers` loads by name.

    Both arguments map a file name to its text.  A definition is a
    ``def``, ``async def`` or ``class`` statement directly in a module's
    body whose name does not start with an underscore; a use is a bare
    name or an attribute ``obj.x`` read anywhere, or a name imported by
    ``from ... import``.
    """
    defined, loaded = [], set()
    for name, source in modules.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)) and not node.name.startswith("_"):
                defined.append((name, node.lineno, node.name))
    for source in [*modules.values(), *readers.values()]:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                loaded.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                loaded.update(a.name for a in node.names)
    return [(name, line, fn) for name, line, fn in defined if fn not in loaded]


def test_checker_flags_an_unreferenced_public_definition():
    module = ("def called():\n"
              "    pass\n"
              "def imported():\n"
              "    pass\n"
              "def unused():\n"
              "    called = 1\n"
              "class Box:\n"
              "    def method(self):\n"
              "        return called()\n"
              "class Orphan:\n"
              "    pass\n"
              "def _private():\n"
              "    pass\n")
    reader = ("from a import imported as alias\n"
              "import a\n"
              "a.Box().method(); alias()\n"
              "def unused_in_tests():\n"
              "    pass\n")
    assert unreferenced_public_definitions({"a.py": module}, {"t.py": reader}) \
        == [("a.py", 5, "unused"), ("a.py", 10, "Orphan")]


def test_every_public_definition_is_referenced():
    modules = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    readers = {p.name: p.read_text() for p in sorted(TESTS.glob("*.py"))}
    assert unreferenced_public_definitions(modules, readers) == []


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
