"""Every name a package module imports is used in that module, every
module-level private name is read somewhere else in the package, and
importing the package stays light.

No linter ships with the package, so the module sources are parsed with
ast: a name bound by an import statement must be read somewhere in the
module.  __init__.py is exempt, since its imports are the re-exported API.
"""
import ast
import subprocess
import sys
from pathlib import Path

import pytest

import vspart

MODULES = sorted(
    path for path in Path(vspart.__file__).parent.glob("*.py")
    if path.name != "__init__.py"
)


def _unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_the_check_sees_an_unused_import():
    assert _unused_imports(
        "import json\nfrom os import path, sep\nprint(sep)\n"
    ) == [(1, "json"), (2, "path")]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_uses_every_import(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_import_loads_no_code_generation_modules():
    """Each command-line run imports the package once, so it must not pull
    in dataclasses (which loads inspect, ast and dis) or fractions (which
    loads decimal).  Run without site so nothing else loads them first."""
    src = Path(vspart.__file__).parents[1]
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); "
        "import vspart, vspart.cli; "
        "print(sorted(set(sys.argv[2:]) & set(sys.modules)))"
    )
    heavy = ["dataclasses", "inspect", "fractions", "decimal"]
    out = subprocess.run(
        [sys.executable, "-S", "-c", code, str(src), *heavy],
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert out.stdout.strip() == "[]"


def test_a_well_formed_command_loads_no_parser_modules():
    """A well-formed command line is read from the option table, so one
    run of main loads neither argparse nor the gettext and locale that
    argparse's messages pull in, besides the modules above."""
    src = Path(vspart.__file__).parents[1]
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import vspart.cli; "
        "code = vspart.cli.main(['sigma', '--n', '5', '--t', '2', "
        "'--q', '2', '--oracle']); "
        "print(code, sorted(set(sys.argv[2:]) & set(sys.modules)))"
    )
    heavy = ["argparse", "gettext", "locale", "dataclasses", "inspect",
             "fractions", "decimal"]
    out = subprocess.run(
        [sys.executable, "-S", "-c", code, str(src), *heavy],
        capture_output=True, text=True, check=True, timeout=60,
    )
    lines = out.stdout.splitlines()
    assert lines[0] == "sigma(5,2;q=2) = 13"
    assert lines[-1] == "0 []"


def _stranded_private_names(sources):
    """Module-level _private names that no statement other than their own
    definition reads, over the given {module name: source} package."""
    defined = []
    readers = {}  # name -> {(module, top-level statement index)}
    for module, source in sources.items():
        for index, stmt in enumerate(ast.parse(source).body):
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = getattr(stmt, "targets", None) or [stmt.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            defined += [(module, index, name) for name in names
                        if name.startswith("_") and not name.endswith("__")]
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    read = [node.id]
                elif isinstance(node, ast.Attribute):
                    read = [node.attr]
                elif isinstance(node, ast.ImportFrom):
                    read = [alias.name for alias in node.names]
                else:
                    continue
                for name in read:
                    readers.setdefault(name, set()).add((module, index))
    return sorted(
        f"{module}.{name}" for module, index, name in defined
        if not readers.get(name, set()) - {(module, index)}
    )


def test_the_check_sees_a_stranded_private_name():
    sources = {
        "a": "def _used():\n    pass\n\ndef _stranded():\n    _stranded()\n"
             "_LIMIT = 3\n",
        "b": "from .a import _used\nprint(_used)\n",
    }
    assert _stranded_private_names(sources) == ["a._LIMIT", "a._stranded"]


def test_every_private_name_is_used_elsewhere_in_the_package():
    """A module-level helper that no other statement of the package reads
    is dead code; a consolidation must delete the copies it replaces."""
    package = Path(vspart.__file__).parent
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(package.glob("*.py"))}
    assert _stranded_private_names(sources) == []


def _readers(sources, name):
    """The definitions, as dotted module.function paths (methods and
    nested functions included), whose code reads the name or attribute
    name; code outside any definition counts as the module itself."""
    found = set()

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            owner = f"{owner}.{node.name}"
        if (isinstance(node, ast.Name) and node.id == name
                or isinstance(node, ast.Attribute) and node.attr == name):
            found.add(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    for module, source in sources.items():
        visit(ast.parse(source), module)
    return sorted(found)


def test_the_check_sees_every_reader():
    source = ("import time\n"
              "def f():\n    def g():\n        time.monotonic()\n"
              "    return g\n"
              "class C:\n    def m(self):\n        _x()\n"
              "_x()\n")
    assert _readers({"a": source}, "monotonic") == ["a.f.g"]
    assert _readers({"a": source}, "_x") == ["a", "a.C.m"]


SEARCH_ENTRY_POINTS = ("enumerate_partitions", "search_min_partition_size",
                       "check_no_minimum_supertail", "conjecture_search")


def test_every_search_reaches_the_engine_through_one_front_end():
    """Only the front end drives the exact-cover engine, and no search
    entry point reads the clock: each call's node budget and deadline are
    fixed once and enforced by the engine, so a new search cannot fork
    its own set-up or limits."""
    package = Path(vspart.__file__).parent
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(package.glob("*.py"))}
    assert _readers(sources, "_exact_cover") == ["search._covers"]
    for entry in SEARCH_ENTRY_POINTS:
        assert f"def {entry}(" in sources["search"], entry
    entry_points = {f"search.{entry}" for entry in SEARCH_ENTRY_POINTS}
    assert [r for r in _readers(sources, "monotonic")
            if ".".join(r.split(".")[:2]) in entry_points] == []


_MUTATORS = {"append", "extend", "insert", "pop", "remove", "clear", "sort",
             "reverse"}


def _chain(node):
    """The names and attributes along a chain of subscripts and
    attributes, such as tables.per_point[p]."""
    names = []
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        if isinstance(node, ast.Attribute):
            names.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        names.append(node.id)
    return names


def _writers(source, name):
    """The definitions, as dotted paths, whose code writes into the
    container called name: assigns or deletes an item or attribute
    along a chain through it, or calls a list mutator on one.  Binding a
    plain local of that name is not a write into it."""
    found = set()

    def written(target):
        if isinstance(target, (ast.Tuple, ast.List)):
            return any(map(written, target.elts))
        if isinstance(target, ast.Starred):
            return written(target.value)
        return (isinstance(target, (ast.Subscript, ast.Attribute))
                and name in _chain(target))

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            owner = f"{owner}.{node.name}"
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and node.func.attr in _MUTATORS):
            targets = [node.func.value]
        else:
            targets = []
        if any(map(written, targets)):
            found.add(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source), "")
    return sorted(owner.lstrip(".") for owner in found)


def test_the_check_sees_every_write():
    source = ("def reads(t):\n    per_point = t.per_point\n"
              "    return per_point[0], t.other[t.per_point[1]]\n"
              "def sets(t):\n    t.per_point[0] = []\n"
              "def unpacks(t):\n    a, t.per_point[1] = 1, 2\n"
              "def appends(t):\n    t.per_point[2].append(3)\n"
              "def rebinds(t):\n    t.per_point = None\n"
              "class C:\n    def m(self, per_point):\n"
              "        del per_point[0]\n")
    assert _writers(source, "per_point") == [
        "C.m", "appends", "rebinds", "sets", "unpacks"]


def _pin_passers(source, name):
    """The definitions, as dotted paths, whose code calls name with its
    pins, or with arguments that may hold them: a third positional
    argument, the keyword pins, or an unpacked * or ** argument."""
    found = set()

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            owner = f"{owner}.{node.name}"
        if (isinstance(node, ast.Call) and name in _chain(node.func)
                and (len(node.args) > 2
                     or any(isinstance(a, ast.Starred) for a in node.args)
                     or any(k.arg in ("pins", None) for k in node.keywords))):
            found.add(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source), "")
    return sorted(owner.lstrip(".") for owner in found)


def test_the_check_sees_every_pin_passer():
    source = ("def plain(pi):\n    return T(pi, (1,))\n"
              "def positional(pi):\n    return T(pi, (1,), [], 0)\n"
              "def keyword(pi):\n    return m.T(pi, (1,), pins=[])\n"
              "def at(pi):\n    return T(pi, (1,), at=0)\n"
              "class C:\n    def m(self):\n        T(*self.a)\n"
              "    def k(self):\n        T(**self.b)\n")
    assert _pin_passers(source, "T") == ["C.k", "C.m", "keyword",
                                         "positional"]


def test_one_function_pins_the_search_tables():
    """Both size searches take their symmetry pins from one helper: only
    it passes pins to the candidate tables, and nothing in search.py
    writes into the per-point candidate lists, so a new search cannot
    fork the pin."""
    source = (Path(vspart.__file__).parent / "search.py").read_text(
        encoding="utf-8")
    assert _writers(source, "per_point") == []
    assert _pin_passers(source, "_Candidates") == ["_pinned"]


def _limit_readers(source):
    """The definitions, as dotted paths, once for each comparison with a
    budget, a watch or a deadline that they make, identity tests aside,
    and once for each read of time.monotonic."""
    limits = {"budget", "watch", "deadline"}
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            owner = f"{owner}.{node.name}"
        if (isinstance(node, ast.Compare)
                and not all(isinstance(op, (ast.Is, ast.IsNot))
                            for op in node.ops)
                and any(limits & set(_chain(side))
                        for side in [node.left, *node.comparators])):
            found.append(owner)
        if "monotonic" in _chain(node)[:1]:
            found.append(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source), "")
    return sorted(owner.lstrip(".") for owner in found)


def test_the_check_sees_every_limit_reader():
    source = ("import time\n"
              "def over(c):\n    return c.units > c.budget\n"
              "def local(units, watch):\n    return watch <= units\n"
              "def clock():\n    return time.monotonic()\n"
              "def unset(deadline):\n    return deadline is None\n"
              "def other(c):\n    return c.units > c.size\n"
              "class C:\n    def m(self, a):\n"
              "        return a + 1 > self.deadline\n")
    assert _limit_readers(source) == ["C.m", "clock", "local", "over"]


@pytest.mark.parametrize("name", ["search.py", "candidates.py"])
def test_one_method_charges_every_search_step(name):
    """Every search step is charged through _Call.charge, which alone
    compares units with the budget and reads the clock.  The one
    exception is the engine's inline check, at a node and at a frame
    pop, which compares its local count with the call's watch and calls
    charge once it is passed, so a walk or a table cannot grow a second
    limit."""
    source = (Path(vspart.__file__).parent / name).read_text(
        encoding="utf-8")
    outside = [owner for owner in _limit_readers(source)
               if not owner.startswith("_Call.")]
    assert outside == (["_exact_cover"] * 2 if name == "search.py" else [])
    methods = [[stmt.name for stmt in node.body
                if isinstance(stmt, ast.FunctionDef)]
               for node in ast.parse(source).body
               if isinstance(node, ast.ClassDef) and node.name == "_Call"]
    assert methods == ([["__init__", "charge"]] if name == "search.py"
                       else [])


def _unexported_public_functions(sources):
    """Public module-level functions, over the given {module name: source}
    package, that __init__ does not export and no other module reads."""
    defined = []
    readers = {}  # name -> {module}
    for module, source in sources.items():
        tree = ast.parse(source)
        if module != "__init__":
            defined += [(module, stmt.name) for stmt in tree.body
                        if isinstance(stmt, ast.FunctionDef)
                        and not stmt.name.startswith("_")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read = [node.id]
            elif isinstance(node, ast.Attribute):
                read = [node.attr]
            elif isinstance(node, ast.ImportFrom):
                read = [alias.name for alias in node.names]
            else:
                continue
            for name in read:
                readers.setdefault(name, set()).add(module)
    return sorted(f"{module}.{name}" for module, name in defined
                  if not readers.get(name, set()) - {module})


def test_the_check_sees_an_unexported_public_function():
    sources = {
        "__init__": "from .a import exported\n",
        "a": "def exported():\n    pass\n\ndef shared():\n    pass\n\n"
             "def alone():\n    alone()\n\ndef _private():\n    pass\n\n"
             "class C:\n    def method(self):\n        pass\n",
        "b": "from . import a\na.shared()\n",
    }
    assert _unexported_public_functions(sources) == ["a.alone"]


def test_every_public_function_is_exported_or_read_elsewhere():
    """A public function that neither the API nor another module reads is
    left behind, as a decoder is when a refactor replaces it.  The command
    line's entry point and parser builder are read by the console script
    and the tests, and hstats.hyperplane_masks is the tests' reference."""
    package = Path(vspart.__file__).parent
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(package.glob("*.py"))}
    assert _unexported_public_functions(sources) == [
        "cli.build_parser", "cli.main", "hstats.hyperplane_masks"]
