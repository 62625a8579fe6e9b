"""Source hygiene: every imported name is used, and library code has a caller.

No linter ships with the project, so this stands in for two of its checks. A
name bound by an import in `src/meirl/*.py`, `scripts/*.py` or `tests/*.py`
must be read somewhere in that module (code or annotations) or be listed in
its `__all__`. A top-level def, class or UPPER_CASE constant in `src/meirl` must be read, by
name or as an attribute, somewhere in `src/meirl` or `scripts` outside its own
definition, or be wrapped by the benchmark's traced run (`TRACED` in
`perfbench/spans.py`). And each file of a training run has one owner: within
`src/meirl`, only `trainer` reads `update_parameters` (the Adam step),
`save_checkpoint`, `write_report` or `write_timings`, and only `reward_net`
reads `load_checkpoint`, so a second training loop, a second way from a
checkpoint back to a net, or a run file written elsewhere cannot come back
unnoticed. Likewise one module writes files: within `src/meirl`, only
`config` opens a file for writing or calls `write_text`, `write_bytes`,
`savetxt` or `tofile`, apart from the listed `dataset.save_demo`, so every
output keeps its rename into place. And no
module in `src/meirl` or `scripts` holds an `assert` statement, which
`python -O` strips: a check the program relies on raises an error of its own.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "meirl").glob("*.py"))
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))
SOURCES = LIBRARY + SCRIPTS
TESTS = sorted((ROOT / "tests").glob("*.py"))
SPANS = ROOT / "perfbench" / "spans.py"
CONSTANT = re.compile(r"[A-Z][A-Z0-9_]*$")
# the one module allowed to read each name: the trainer steps a net's
# parameters and writes every file of a run, and reward_net alone turns a
# checkpoint back into a net
SOLE_READER = {"update_parameters": "trainer", "save_checkpoint": "trainer",
               "write_report": "trainer", "write_timings": "trainer",
               "load_checkpoint": "reward_net"}
# the one module that writes files, and the one write outside it: a dataset
# record, which loads only once its manifest is renamed into place after it
FILE_WRITER = "config"
DIRECT_WRITES = {("dataset", "save_demo")}
WRITE_CALLS = {"write_text", "write_bytes", "savetxt", "tofile"}


def imported_names(tree: ast.Module) -> dict:
    """Bound name -> line of the import that binds it (`__future__` aside)."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def exported_names(tree: ast.Module) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def read_names(tree: ast.Module) -> set:
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    used = read_names(tree) | exported_names(tree)
    return sorted((line, name) for name, line in imported_names(tree).items()
                  if name not in used)


@pytest.mark.parametrize("path", SOURCES + TESTS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_import_is_used(path):
    unused = unused_imports(path.read_text())
    assert not unused, f"{path.name}: unused imports " + ", ".join(
        f"{name} (line {line})" for line, name in unused)


def test_checker_flags_an_unused_import():
    source = "import math\nfrom typing import Optional, List\n\nx: List[int] = []\n"
    assert unused_imports(source) == [(1, "math"), (2, "Optional")]
    assert unused_imports("from .errors import ConfigError\n__all__ = ['ConfigError']\n") == []


def referenced(node: ast.AST) -> set:
    """Names a node reads, bare or as an attribute."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, ast.Attribute)
            or isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def defined_names(node: ast.stmt) -> set:
    """Names a top-level statement defines that need a reader: a def or class,
    or the UPPER_CASE names an assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {node.name}
    targets = node.targets if isinstance(node, ast.Assign) else \
        [node.target] if isinstance(node, ast.AnnAssign) else []
    return {t.id for t in targets if isinstance(t, ast.Name) and CONSTANT.match(t.id)}


def unread_definitions(library: dict, callers: dict) -> list:
    """(module, name) of each top-level def, class or constant in `library`
    that no top-level statement of `library` or `callers` reads, its own
    definition aside. Both map a module name to its source."""
    trees = {name: ast.parse(source) for name, source in {**callers, **library}.items()}
    reads = [(module, defined_names(node), referenced(node))
             for module, tree in trees.items() for node in tree.body]
    return sorted(
        (module, name) for module in library for node in trees[module].body
        for name in defined_names(node)
        if not any(name in names and not (reader == module and name in owners)
                   for reader, owners, names in reads))


def test_every_library_definition_has_a_caller():
    # compiled from its text, as in test_trace_names, so nothing is imported
    spans = {"__name__": "perfbench_spans"}
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), spans)
    traced = {tuple(qualname.rsplit(".", 1)) for qualname in spans["TRACED"]}
    dead = unread_definitions({p.stem: p.read_text() for p in LIBRARY},
                              {f"scripts/{p.stem}": p.read_text() for p in SCRIPTS})
    assert set(dead) - traced == set()


def test_checker_flags_a_definition_without_a_caller():
    library = {"a": "def used():\n    pass\n\n\ndef dead(n):\n    return dead(n - 1)\n\n\n"
                    "class Kept:\n    pass\n",
               "b": "from a import used\nused()\n"}
    callers = {"script": "import a\na.Kept()\n"}
    assert unread_definitions(library, callers) == [("a", "dead")]
    assert unread_definitions(library, {}) == [("a", "Kept"), ("a", "dead")]


def test_checker_flags_a_constant_without_a_reader():
    library = {"a": "RATE = 0.5\nLEFTOVER = RATE * 2\nlower = 1\n__all__ = []\n\n\n"
                    "def scaled(x):\n    return RATE * x\n",
               "b": "from a import scaled\nscaled(1)\n"}
    assert unread_definitions(library, {}) == [("a", "LEFTOVER")]
    assert unread_definitions(library, {"script": "import a\na.LEFTOVER\n"}) == []


def readers(library: dict, name: str) -> list:
    """The modules of `library` (module name -> source) that read `name`,
    bare or as an attribute; importing it alone is not a read."""
    return sorted(module for module, source in library.items()
                  if name in referenced(ast.parse(source)))


@pytest.mark.parametrize("name", sorted(SOLE_READER))
def test_one_module_reads_each_owned_name(name):
    assert readers({p.stem: p.read_text() for p in LIBRARY}, name) == [SOLE_READER[name]]


def test_checker_finds_every_reader():
    library = {"a": "from nn import step\nstep(store, grads)\n",
               "b": "import nn\nfit = nn.step\n",
               "c": "from nn import step\n",
               "nn": "def step(store, grads):\n    pass\n"}
    assert readers(library, "step") == ["a", "b"]


def open_mode(call: ast.Call):
    """The mode an `open` call gives, as a constant string; None if it gives
    none, "?" if it is not a constant."""
    given = [k.value for k in call.keywords if k.arg == "mode"]
    # open(path, mode) or path.open(mode)
    given += call.args[1:2] if isinstance(call.func, ast.Name) else call.args[:1]
    if not given:
        return None
    return given[0].value if isinstance(given[0], ast.Constant) else "?"


def file_writes(source: str) -> list:
    """(top-level def or class, or None at module level; line) of each call
    that writes a file: `open` in a write mode, or one of WRITE_CALLS."""
    out = []
    for node in ast.parse(source).body:
        owner = getattr(node, "name", None)
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            name = call.func.id if isinstance(call.func, ast.Name) else \
                getattr(call.func, "attr", None)
            mode = open_mode(call) if name == "open" else None
            if name in WRITE_CALLS or mode is not None and set(mode) & set("wxa+?"):
                out.append((owner, call.lineno))
    return out


def test_only_config_writes_files():
    writes = {(p.stem, owner) for p in LIBRARY if p.stem != FILE_WRITER
              for owner, _ in file_writes(p.read_text())}
    assert writes == DIRECT_WRITES
    assert file_writes((ROOT / "src" / "meirl" / f"{FILE_WRITER}.py").read_text())


def test_checker_finds_every_file_write():
    source = ("import numpy as np\n"
              "def a(p):\n    open(p, 'w').write('x')\n"
              "def b(p):\n    with open(p, mode='ab') as f:\n        pass\n"
              "def c(p):\n    p.write_text('x')\n"
              "def d(p, g):\n    np.savetxt(p, g)\n"
              "def e(p):\n    return open(p).read() + open(p, 'rb').read() + p.read_text()\n"
              "def f(p):\n    p.open('r+')\n"
              "def g(p, mode):\n    open(p, mode)\n"
              "LOG = open('log', 'w')\n")
    assert [owner for owner, _ in file_writes(source)] == ["a", "b", "c", "d", "f", "g", None]


def assert_lines(source: str) -> list:
    """The line of each `assert` statement in `source`."""
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert)]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_assert_in_program_code(path):
    assert assert_lines(path.read_text()) == []


def test_checker_finds_every_assert():
    source = ("assert True\n"
              "def f(x):\n    if x:\n        assert x > 0, 'positive'\n    return x\n"
              "class C:\n    def g(self):\n        assert self\n"
              "ASSERTS = 'assert'\n")
    assert assert_lines(source) == [1, 4, 8]
