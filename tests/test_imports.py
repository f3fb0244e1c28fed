"""Every imported name in `src/` and `tests/` is used, every `__all__`
entry in `src/` names a module-level attribute, every module-level
UPPER_CASE constant and private helper in `src/` is read there (or, for a
constant, exported), `src/` stays off the slow scipy subpackages, and
`src/` never reads the process environment.

No linter ships with the project, so this is the check for dead imports.
A name counts as used if it is read anywhere in its module or is listed in
the module's `__all__`; the imports of an `__init__.py` are re-exports and
are not checked.  No module under `src/` may import a scipy subpackage
that costs more to load than a run uses of it: `scipy.signal` loads
`scipy.stats` (about 0.5 s per process), `scipy.integrate` loads
`scipy.optimize` (about 0.3 s), and `scipy.special` and `scipy.linalg`
served three Bessel values and one eigh that the package now computes
itself (`model.bessel_j`, `dop853`, and `propagation._symmetric_eigh`,
which calls the three stages of LAPACK's dsyevd in place from the OpenBLAS
that numpy's linalg links: numpy's eigh would cost an extra copy of S, and
dsyevd itself half of one).  Nor may a module
import `scipy.sparse` when it is imported: its `__init__` costs about
0.25 s per process (its array API shim loads `numpy.f2py` and
`numpy.testing`), and a run uses only its compiled CSR product, which
`hamiltonian` loads from its extension file.  Only the scipy views of
`HamiltonianParts`' blocks import it, inside a function, for the callers
that want scipy's arithmetic: perfbench/child.py and the tests.  Importing
`starkband.cli`, as every run does, loads none of `logging`, `fractions`,
`decimal`, `numpy.ma`, `scipy` and `scipy.sparse`: each one costs resident
memory in every run (`logging` about 0.55 MB, `fractions` with `decimal`
about 0.40 MB), and a run needs none of them.  An
environment variable would be a setting that no flag, parameter file or
output fingerprint shows, so no module under `src/` may read `os.environ`
or call `os.getenv`.  A tuning constant that no code reads any more, left
behind when the code it tuned went, would still look like a setting, so
every UPPER_CASE constant must be read somewhere in `src/` (by name or as
a module attribute) or be listed in its module's `__all__`.  Likewise every
module-level private function or class in `src/` must be read somewhere in
`src/` outside its own definition: a helper that only the tests still call
was left behind by a deletion.  And a parameter with a default that only
the tests set is a knob no run turns, so every defaulted parameter of a
function in `src/` must be passed, by position or by keyword, at some call
in `src/` or in the benchmark's programs under `perfbench/`.  Conversely a
default that every call passes, in `src/`, `perfbench/` or `tests/`, is
one that nothing uses, so some call must omit it.  Calls are matched to
functions by name alone, and a method's positions skip `self`.
A private name is its module's own business, so no module in `src/` may
read one of another module: neither import it nor read it as an attribute
of a name that an import binds.  A function that consumes its argument,
as `diagonalize_floquet` overwrites S, must be handed a temporary in
`src/`: every call there passes a call expression, such as
`floquet_operator(parts)`, not a name that could be read afterwards.
"""

import ast
import collections
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py") if p.name != "__init__.py"
)


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def _exports(tree):
    """The entries of every `__all__` the module assigns."""
    return [name for node in ast.walk(tree) if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            for name in ast.literal_eval(node.value)]


def _used_names(tree):
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | set(_exports(tree))


SLOW_IMPORTS = ("scipy.signal", "scipy.stats", "scipy.integrate", "scipy.optimize",
                "scipy.special", "scipy.linalg")


def _imported_modules(nodes):
    for node in nodes:
        if isinstance(node, ast.Import):
            yield from ((alias.name, node.lineno) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            yield from ((f"{node.module}.{alias.name}", node.lineno) for alias in node.names)


def _slow_imports(tree, modules=SLOW_IMPORTS, nodes=None):
    return [(name, line) for name, line in _imported_modules(nodes or ast.walk(tree))
            if any(name == m or name.startswith(m + ".") for m in modules)]


SLOW_ON_IMPORT = ("scipy.sparse",)


def _run_on_import(tree):
    """The nodes that run when the module is imported: all but the bodies
    of functions."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def test_modules_found():
    assert any(p.name == "propagation.py" for p in MODULES)
    assert Path(__file__).resolve() in MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used_names(tree)
    unused = [f"{name} (line {line})" for name, line in _imported_names(tree) if name not in used]
    assert not unused, f"unused imports in {path.name}: {', '.join(unused)}"


def test_detects_an_unused_import():
    tree = ast.parse("import os\nimport numpy as np\nfrom a.b import c, d\nprint(np, d)\n")
    used = _used_names(tree)
    assert [n for n, _ in _imported_names(tree) if n not in used] == ["os", "c"]


def _stale_exports(tree):
    """`__all__` entries that no top-level statement of the module binds."""
    bound, exported = set(), []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                bound.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
                if isinstance(target, ast.Name) and target.id == "__all__":
                    exported = ast.literal_eval(node.value)
    return [name for name in exported if name not in bound]


@pytest.mark.parametrize("path", sorted((ROOT / "src").rglob("*.py")),
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_src_exports_exist(path):
    stale = _stale_exports(ast.parse(path.read_text(), filename=str(path)))
    assert not stale, f"{path.name} exports undefined names: {', '.join(stale)}"


def test_detects_a_stale_export():
    tree = ast.parse("import numpy as np\nfrom a import b as c\nX, Y = 1, 2\nZ: int = 3\n"
                     "class K:\n    inner = 1\ndef f():\n    local = 1\n"
                     "__all__ = ['np', 'c', 'X', 'Y', 'Z', 'K', 'f', 'inner', 'local', 'GFit']\n")
    assert _stale_exports(tree) == ["inner", "local", "GFit"]


def _constants(tree):
    """(name, line) of each UPPER_CASE name a top-level assignment binds."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(n.id, node.lineno) for target in targets for n in ast.walk(target)
                      if isinstance(n, ast.Name) and re.fullmatch(r"[A-Z][A-Z0-9_]*", n.id)]
    return found


def _read_names(tree):
    """Names read as variables or as attributes, and the `__all__` entries."""
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    read |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    return read | set(_exports(tree))


SRC_TREES = {p: ast.parse(p.read_text(), filename=str(p))
             for p in sorted((ROOT / "src").rglob("*.py"))}


@pytest.mark.parametrize("path", list(SRC_TREES), ids=lambda p: str(p.relative_to(ROOT)))
def test_src_constants_are_read(path):
    read = set().union(*map(_read_names, SRC_TREES.values()))
    unread = [f"{name} (line {line})" for name, line in _constants(SRC_TREES[path])
              if name not in read]
    assert not unread, f"{path.name} defines constants nothing reads: {', '.join(unread)}"


def _private_helpers(tree):
    """The module-level private function and class definitions."""
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")]


def _unreferenced_helpers(trees, path):
    """The private helpers of `path` that no top-level statement of `trees`
    reads, other than the helper's own definition."""
    reads = [(node, _read_names(node)) for tree in trees.values() for node in tree.body]
    return [f"{helper.name} (line {helper.lineno})" for helper in _private_helpers(trees[path])
            if not any(helper.name in names for node, names in reads if node is not helper)]


@pytest.mark.parametrize("path", list(SRC_TREES), ids=lambda p: str(p.relative_to(ROOT)))
def test_src_private_helpers_are_referenced(path):
    dead = _unreferenced_helpers(SRC_TREES, path)
    assert not dead, f"{path.name} defines private helpers nothing uses: {', '.join(dead)}"


def test_detects_an_unreferenced_helper():
    tree = ast.parse("def _used():\n    pass\ndef _dead():\n    pass\n"
                     "def _recursive(n):\n    return _recursive(n - 1)\nclass _Box:\n    pass\n"
                     "class _Gone:\n    def _method(self):\n        return _Gone\n"
                     "def __getattr__(name):\n    pass\n"
                     "def public():\n    def _nested():\n        pass\n    return _used(), _Box\n")
    other = ast.parse("import m\nm._dead()\n")
    assert _unreferenced_helpers({"m": tree}, "m") == [
        "_dead (line 3)", "_recursive (line 5)", "_Gone (line 9)"]
    assert _unreferenced_helpers({"m": tree, "n": other}, "m") == [
        "_recursive (line 5)", "_Gone (line 9)"]


def test_detects_an_unread_constant():
    tree = ast.parse("import m\nA, B_2 = 1, 2\nC: int = 3\nD = E = 4\nlower = 5\n"
                     "__all__ = ['D']\nprint(A, m.C)\ndef f():\n    F = 6\n    return F\n")
    assert [n for n, _ in _constants(tree) if n not in _read_names(tree)] == ["B_2", "E"]


def _defaulted_parameters(tree):
    """(function, parameter, position or None for keyword-only, line) of
    each parameter with a default, in every function of the tree.  The
    position is that of the argument a call passes, so a method's, other
    than a static method's, skips `self` or `cls`."""
    methods = {id(node) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
               for node in cls.body if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                           for d in node.decorator_list)}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args, shift = node.args, id(node) in methods
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            for i, arg in enumerate(positional[first:], first):
                yield node.name, arg.arg, i - shift, node.lineno
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield node.name, arg.arg, None, node.lineno


def _calls(trees):
    """For each name called in `trees`, as `name(...)` or `x.name(...)`: one
    set per call of the positions and keywords it passes, with "*" for a
    `*` or `**` that may pass any."""
    calls = collections.defaultdict(list)
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                passed = set(range(len(node.args))) | {k.arg or "*" for k in node.keywords}
                if any(isinstance(a, ast.Starred) for a in node.args):
                    passed.add("*")
                calls[name].append(passed)
    return calls


def _unpassed_defaults(tree, calls):
    """The defaulted parameters of `tree`'s functions that no call in `calls` sets."""
    return [f"{function}({parameter}) (line {line})"
            for function, parameter, position, line in _defaulted_parameters(tree)
            if not set().union(*calls[function]) & {position, parameter, "*"}]


def _dead_defaults(tree, calls):
    """The defaulted parameters of `tree`'s functions that every call in
    `calls` passes: there is one at least, and none with a `*` or `**`,
    which may omit it."""
    return [f"{function}({parameter}) (line {line})"
            for function, parameter, position, line in _defaulted_parameters(tree)
            if calls[function] and all({position, parameter} & passed and "*" not in passed
                                       for passed in calls[function])]


def _trees(paths):
    return [ast.parse(p.read_text(), filename=str(p)) for p in paths]


CALLERS = list(SRC_TREES.values()) + _trees(sorted((ROOT / "perfbench").glob("*.py")))
ALL_CALLERS = list(SRC_TREES.values()) + _trees(
    sorted(p for d in ("perfbench", "tests") for p in (ROOT / d).rglob("*.py")))


@pytest.mark.parametrize("path", list(SRC_TREES), ids=lambda p: str(p.relative_to(ROOT)))
def test_src_defaults_are_passed(path):
    unpassed = _unpassed_defaults(SRC_TREES[path], _calls(CALLERS))
    assert not unpassed, (f"{path.name} has defaulted parameters that no call in src/ or "
                          f"perfbench/ passes: {', '.join(unpassed)}")


@pytest.mark.parametrize("path", list(SRC_TREES), ids=lambda p: str(p.relative_to(ROOT)))
def test_src_defaults_are_omitted(path):
    dead = _dead_defaults(SRC_TREES[path], _calls(ALL_CALLERS))
    assert not dead, (f"{path.name} has defaulted parameters that every call in src/, "
                      f"perfbench/ and tests/ passes: {', '.join(dead)}")


def test_detects_an_unpassed_default():
    tree = ast.parse("def f(a, b=1, *, c=2, d=3):\n    pass\n"
                     "class K:\n    def m(self, x=1, y=2):\n        pass\n"
                     "    @staticmethod\n    def s(x=1, y=2):\n        pass\n"
                     "    @classmethod\n    def c(cls, z=1):\n        pass\n"
                     "def g(u=1, v=2):\n    pass\n"
                     "f(0, 1, d=4)\nK().m(5)\nK.s(0)\nK.c()\ng(*args)\n")
    assert _unpassed_defaults(tree, _calls([tree])) == [
        "f(c) (line 1)", "m(y) (line 4)", "s(y) (line 7)", "c(z) (line 10)"]


def test_detects_a_default_every_call_passes():
    tree = ast.parse("def f(a, b=1, *, c=2, d=3):\n    pass\n"
                     "class K:\n    def m(self, x=1, y=2):\n        pass\n"
                     "def g(u=1):\n    pass\n"
                     "def h(v=1):\n    pass\n"
                     "def unused(w=1):\n    pass\n"
                     "f(0, 1, c=2, d=3)\nf(0, b=2, d=4)\nK().m(5)\nK().m(x=6, y=7)\n"
                     "g(1)\ng(*args)\nh(1)\nh(**kw)\n")
    assert _dead_defaults(tree, _calls([tree])) == [
        "f(b) (line 1)", "f(d) (line 1)", "m(x) (line 4)"]


@pytest.mark.parametrize("path", sorted((ROOT / "src").rglob("*.py")),
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_src_avoids_slow_scipy_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    slow = [f"{name} (line {line})" for name, line in _slow_imports(tree)]
    assert not slow, f"{path.name} imports {', '.join(slow)}"


def test_detects_a_slow_scipy_import():
    tree = ast.parse("import scipy.stats\nfrom scipy import signal, linalg\n"
                     "from scipy.signal import find_peaks\nimport scipy.sparse\n"
                     "def f():\n    from scipy.stats import norm\n")
    assert [n for n, _ in _slow_imports(tree)] == [
        "scipy.stats", "scipy.signal", "scipy.linalg", "scipy.signal.find_peaks",
        "scipy.stats.norm"]


@pytest.mark.parametrize("path", sorted((ROOT / "src").rglob("*.py")),
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_src_imports_no_scipy_sparse_on_import(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    slow = [f"{name} (line {line})"
            for name, line in _slow_imports(tree, SLOW_ON_IMPORT, _run_on_import(tree))]
    assert not slow, f"{path.name} imports {', '.join(slow)} when it is imported"


def test_detects_scipy_sparse_imported_on_import():
    tree = ast.parse("import scipy.sparse\nfrom scipy import sparse\nif x:\n"
                     "    import scipy.sparse as sp\nclass K:\n"
                     "    from scipy.sparse import csr_matrix\ndef f():\n"
                     "    import scipy.sparse\nimport scipy.sparse.linalg\n")
    found = _slow_imports(tree, SLOW_ON_IMPORT, _run_on_import(tree))
    assert sorted(found, key=lambda item: item[1]) == [
        ("scipy.sparse", 1), ("scipy.sparse", 2), ("scipy.sparse", 4),
        ("scipy.sparse.csr_matrix", 6), ("scipy.sparse.linalg", 9)]


UNUSED_BY_A_RUN = ("logging", "fractions", "decimal", "numpy.ma", "scipy", "scipy.sparse")


def test_cli_loads_no_module_a_run_does_not_use():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    probe = (f"import sys, starkband.cli\n"
             f"print(*[m for m in {UNUSED_BY_A_RUN!r} if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env,
                          check=True)
    assert proc.stdout.split() == []


ENVIRONMENT_READERS = ("environ", "getenv")


def _environment_reads(tree):
    reads = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT_READERS
                and isinstance(node.value, ast.Name) and node.value.id == "os"):
            reads.append((f"os.{node.attr}", node.lineno))
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            reads += [(f"os.{alias.name}", node.lineno)
                      for alias in node.names if alias.name in ENVIRONMENT_READERS]
    return sorted(reads, key=lambda read: read[1])


@pytest.mark.parametrize("path", sorted((ROOT / "src").rglob("*.py")),
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_src_reads_no_environment(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    reads = [f"{name} (line {line})" for name, line in _environment_reads(tree)]
    assert not reads, f"{path.name} reads the environment: {', '.join(reads)}"


def test_detects_an_environment_read():
    tree = ast.parse("import os\nfrom os import getenv, path\nn = os.environ.get('X')\n"
                     "def f():\n    return os.getenv('Y'), os.sysconf('SC_PAGE_SIZE')\n")
    assert _environment_reads(tree) == [
        ("os.getenv", 2), ("os.environ", 3), ("os.getenv", 5)]


def _private_reads(tree):
    """(name, line) of each private name of another module that the tree
    reads: imported by name, or read as an attribute of an imported name."""
    imported = {name for name, _ in _imported_names(tree)}
    reads = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            reads += [(alias.name, node.lineno) for alias in node.names
                      if alias.name.startswith("_") and not alias.name.startswith("__")]
        elif (isinstance(node, ast.Attribute) and node.attr.startswith("_")
              and not node.attr.startswith("__")
              and isinstance(node.value, ast.Name) and node.value.id in imported):
            reads.append((f"{node.value.id}.{node.attr}", node.lineno))
    return sorted(reads, key=lambda read: read[1])


@pytest.mark.parametrize("path", list(SRC_TREES), ids=lambda p: str(p.relative_to(ROOT)))
def test_src_reads_no_private_name_of_another_module(path):
    reads = [f"{name} (line {line})" for name, line in _private_reads(SRC_TREES[path])]
    assert not reads, f"{path.name} reads private names of other modules: {', '.join(reads)}"


def test_detects_a_private_read():
    tree = ast.parse("import numpy as np\nfrom . import propagation as prop\n"
                     "from .fock import _helper, Csr\nclass K:\n    def f(self, x):\n"
                     "        return self._y, x._z, prop._memory(), np.__version__\n"
                     "m = Csr._rows, _helper, np._core\n")
    assert _private_reads(tree) == [
        ("_helper", 3), ("prop._memory", 6), ("Csr._rows", 7), ("np._core", 7)]


CONSUMERS = {"diagonalize_floquet": "s"}  # function: the parameter it consumes


def _kept_consumed_arguments(tree):
    """(function, line) of each call of a function in CONSUMERS whose
    consumed argument, by position (the first) or keyword, is not a call
    expression."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
            name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
            if name in CONSUMERS:
                passed = node.args[:1] + [k.value for k in node.keywords
                                          if k.arg == CONSUMERS[name]]
                if not passed or not all(isinstance(arg, ast.Call) for arg in passed):
                    found.append((name, node.lineno))
    return found


@pytest.mark.parametrize("path", list(SRC_TREES), ids=lambda p: str(p.relative_to(ROOT)))
def test_src_hands_consumed_arguments_a_temporary(path):
    kept = [f"{name} (line {line})" for name, line in _kept_consumed_arguments(SRC_TREES[path])]
    assert not kept, (f"{path.name} passes a name that could be read afterwards to a "
                      f"function that consumes it: {', '.join(kept)}")


def test_detects_a_consumed_argument_kept():
    tree = ast.parse("diagonalize_floquet(floquet_operator(p), 1, t, psi)\n"
                     "sb.diagonalize_floquet(s.copy(), 1, t, psi)\n"
                     "diagonalize_floquet(s, 1, t, psi)\n"
                     "prop.diagonalize_floquet(s=u, order=1, t_bloch=t, psi0=psi)\n"
                     "diagonalize_floquet(*args)\n"
                     "diagonalize_floquet(x[0], 1, t, psi)\n"
                     "floquet_operator(p)\n")
    assert _kept_consumed_arguments(tree) == [
        ("diagonalize_floquet", 3), ("diagonalize_floquet", 4), ("diagonalize_floquet", 5),
        ("diagonalize_floquet", 6)]
