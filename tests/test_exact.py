"""The package computes with ints only: no float reaches a count, and a
Fraction appears only where the WDVV residual is read back in the ordinary
basis x1^a x2^b.  Outside seqs, only SeveriIndex canonicalizes a profile, and
only its own constructor calls tuple.__new__, so no SeveriIndex skips the
check.  Only severi keeps the memo's counter; the route's module never touches
the memo.  The table command reads the cache through check_cache alone."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

import curvecount

MODULES = sorted(pathlib.Path(curvecount.__file__).parent.glob("*.py"))


def float_sources(tree):
    """(line, what) for every float constant, true division and `float` name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield node.lineno, "float constant %r" % node.value
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            yield node.lineno, "true division"
        elif isinstance(node, ast.Name) and node.id == "float":
            yield node.lineno, "the name float"


def fraction_references(node, scope="<module>"):
    """(scope, line) for each import of `fractions` and each use of Fraction;
    scope is "import" or the innermost enclosing def or class."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        scope = node.name
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        names = [getattr(node, "module", None) or ""] + [a.name for a in node.names]
        if any(name.split(".")[0] == "fractions" for name in names):
            yield "import", node.lineno
    elif (isinstance(node, ast.Name) and node.id == "Fraction"
          or isinstance(node, ast.Attribute) and node.attr == "Fraction"):
        yield scope, node.lineno
    for child in ast.iter_child_nodes(node):
        yield from fraction_references(child, scope)


def scoped_references(node, hit, scope="<module>"):
    """(scope, line) for each node where hit(node) holds; scope is the dotted
    path of the enclosing defs and classes."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        scope = node.name if scope == "<module>" else "%s.%s" % (scope, node.name)
    if hit(node):
        yield scope, node.lineno
    for child in ast.iter_child_nodes(node):
        yield from scoped_references(child, hit, scope)


def canon_references(tree):
    """Each use of the name canon: a name, an attribute or an imported name."""
    return scoped_references(tree, lambda node: (
        isinstance(node, ast.Name) and node.id == "canon"
        or isinstance(node, ast.Attribute) and node.attr == "canon"
        or isinstance(node, ast.alias) and node.name == "canon"))


def tuple_new_references(tree):
    """Each use of tuple.__new__, which builds a tuple subclass unchecked."""
    return scoped_references(tree, lambda node: (
        isinstance(node, ast.Attribute) and node.attr == "__new__"
        and isinstance(node.value, ast.Name) and node.value.id == "tuple"))


def test_every_module_is_checked():
    assert {path.stem for path in MODULES} >= {
        "__init__", "cache", "classical", "cli", "genfunc", "goettsche",
        "kontsevich", "seqs", "series", "severi",
    }


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_module_has_no_float_arithmetic(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert list(float_sources(tree)) == []


def test_the_guard_sees_each_kind():
    tree = ast.parse("x = 0.5\ny = a / b\nz /= 2\nw = float(s)\n")
    assert sorted(line for line, _ in float_sources(tree)) == [1, 2, 3, 4]


def test_fraction_appears_only_in_the_wdvv_residual():
    found = {
        (path.stem, scope)
        for path in MODULES
        for scope, _ in fraction_references(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert found == {("series", "import"), ("series", "wdvv_residual")}


def test_the_fraction_guard_sees_each_kind():
    tree = ast.parse(
        "import fractions\nfrom fractions import Fraction\nx = Fraction(1, 2)\n"
        "def f(q: Fraction):\n    return fractions.Fraction(q)\n"
    )
    assert sorted(fraction_references(tree)) == [
        ("<module>", 3), ("f", 4), ("f", 5), ("import", 1), ("import", 2),
    ]


def test_canon_appears_outside_seqs_only_where_input_enters():
    # children are built valid (seqs.add, partitions, subsequences); only a
    # profile from outside is canonicalized, once, by the checked constructor
    found = {
        (path.stem, scope)
        for path in MODULES if path.stem != "seqs"
        for scope, _ in canon_references(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert found == {("severi", "SeveriIndex.__new__")}


def test_the_canon_guard_sees_each_kind():
    tree = ast.parse(
        "from .seqs import canon\nclass A:\n    def f(self, x):\n"
        "        return seqs.canon(x)\ng = canon\n"
    )
    assert sorted(canon_references(tree)) == [
        ("<module>", 1), ("<module>", 5), ("A.f", 4),
    ]


def test_only_the_checked_constructor_calls_tuple_new():
    # every SeveriIndex passes its checks; the memo's unchecked keys are _Key
    found = {
        (path.stem, scope)
        for path in MODULES
        for scope, _ in tuple_new_references(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert found == {("severi", "SeveriIndex.__new__")}


def test_the_tuple_new_guard_sees_each_kind():
    tree = ast.parse(
        "_make = partial(tuple.__new__, A)\nclass A(tuple):\n"
        "    def __new__(cls, x):\n        return tuple.__new__(cls, x)\n"
        "def f():\n    return tuple.__new__\nsuper().__new__(B)\nlist.__new__(list)\n"
    )
    assert sorted(tuple_new_references(tree)) == [
        ("<module>", 1), ("A.__new__", 4), ("f", 6),
    ]


def counter_references(tree):
    """(line, attribute) for each read or write of a memo counter attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ("hits", "misses"):
            yield node.lineno, node.attr


def memo_uses(tree):
    """What holds each use of the name memo: the function a call passes it to,
    memo.<attribute>, or else the kind of the node around it."""
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == "memo":
            parent = parents[node]
            if isinstance(parent, ast.Call) and node in parent.args:
                yield ast.unparse(parent.func)
            elif isinstance(parent, ast.Attribute):
                yield ast.unparse(parent)
            else:
                yield type(parent).__name__


def test_only_severi_keeps_a_memo_counter():
    # each computed index is one memo entry, so len(memo) is the miss count;
    # severi counts the hits, and no other module keeps the memo's books
    found = {
        (path.stem, attr)
        for path in MODULES
        for _, attr in counter_references(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert found == {("severi", "hits")}


def test_the_counter_guard_sees_each_kind():
    tree = ast.parse("memo.hits += 1\nx = m.misses\nstore.hits = 0\n")
    assert sorted(counter_references(tree)) == [(1, "hits"), (2, "misses"), (3, "hits")]


def test_the_route_module_never_touches_the_memo():
    # severi reads the window rows and stores the routed value; goettsche
    # extrapolates ints
    path = pathlib.Path(curvecount.__file__).parent / "goettsche.py"
    assert set(memo_uses(ast.parse(path.read_text(encoding="utf-8")))) == set()


def test_the_memo_use_guard_sees_each_kind():
    tree = ast.parse("f(memo)\nmemo.put(i, v)\nmemo[i]\ng(x, key=memo)\nlen(memo)\n")
    assert sorted(memo_uses(tree)) == ["Subscript", "f", "keyword", "len", "memo.put"]


def names_read_from(tree, module):
    """Each name that tree reads from module: module.<name>, or an imported name."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == module):
            yield node.attr
        elif isinstance(node, ast.ImportFrom) and node.module == module:
            yield from (alias.name for alias in node.names)


def test_table_reads_the_cache_only_through_check_cache():
    # one pass checks the file; append_records writes the rows it lacks
    path = pathlib.Path(curvecount.__file__).parent / "cli.py"
    (cmd_table,) = [node for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                    if isinstance(node, ast.FunctionDef) and node.name == "cmd_table"]
    assert set(names_read_from(cmd_table, "cache")) == {"check_cache", "append_records"}


def test_the_cache_name_guard_sees_each_kind():
    tree = ast.parse("from .cache import table_lines\ncache.read(p)\nx = cache.y\nother.z\n")
    assert sorted(names_read_from(tree, "cache")) == ["read", "table_lines", "y"]


def modules_after(statement):
    """Names in sys.modules of a fresh interpreter once it has run statement."""
    src = os.path.dirname(os.path.dirname(curvecount.__file__))
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", statement + "\nimport sys\nprint(*sys.modules)"],
        capture_output=True,
        text=True,
        check=True,
        env=dict(os.environ, PYTHONPATH=pythonpath),
    )
    return set(proc.stdout.split())


def private_reaches(tree, siblings):
    """(line, name) for each private name of a sibling module that the tree
    imports (from .sibling import _x; from . import _x) or reads (sibling._x)."""
    def private(name):
        return name.startswith("_") and not name.endswith("__")

    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            for alias in node.names:
                if private(alias.name):
                    yield node.lineno, alias.name
        elif (isinstance(node, ast.Attribute) and private(node.attr)
              and isinstance(node.value, ast.Name) and node.value.id in siblings):
            yield node.lineno, "%s.%s" % (node.value.id, node.attr)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_reaches_a_private_name_of_another(path):
    siblings = {module.stem for module in MODULES}
    assert list(private_reaches(ast.parse(path.read_text()), siblings)) == []


def test_a_private_reach_is_detected():
    source = "from .severi import SeveriIndex, _index\nseqs._padded\nseqs.canon\n"
    assert list(private_reaches(ast.parse(source), {"seqs"})) == [
        (1, "_index"), (2, "seqs._padded")]


# the parser's modules, which only help and usage errors load
PARSER = ("argparse", "gettext", "locale")
# what a fresh interpreter holds of the package, csv and PARSER after each command
CLI_MODULES = [
    (["--version"], ()),
    (["--help"], PARSER),
    # N(3, 1; (), (3)) is read from the node constants; genus 0 at d = 9 never routes
    (["severi", "--d", "3", "--delta", "1", "--beta", "3"], ("goettsche", "seqs", "severi")),
    (["severi", "--d", "3", "--delta", "1", "--beta", "3", "--format", "json"],
     ("goettsche", "seqs", "severi")),
    (["severi", "--d", "3", "--delta", "1", "--beta", "3", "--format", "csv"],
     ("csv", "goettsche", "seqs", "severi")),
    (["severi", "--d", "9", "--delta", "28", "--beta", "9"],
     ("fill", "reach", "seqs", "severi")),
    (["kontsevich", "--max", "4"], ("kontsevich",)),
    (["kontsevich", "--max", "4", "--format", "csv"], ("csv", "kontsevich")),
    (["verify", "wdvv"], ("kontsevich", "series")),
    (["case-study"], ("classical",)),
]


def cli_modules_after(*argv, code=0):
    """The curvecount modules, csv and PARSER in a fresh interpreter once
    `curvecount argv` has exited with code (stdout dropped)."""
    loaded = modules_after(
        "import contextlib, io\nfrom curvecount import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(%r) == %d" % (list(argv), code))
    ours = {name for name in loaded
            if name.split(".")[0] == "curvecount" or name in ("csv", *PARSER)}
    return {name.replace("curvecount.", "") for name in ours} - {"curvecount", "cli"}


def test_imports_load_only_what_they_use(tmp_path):
    # the WDVV residual imports fractions, and with it decimal, only to
    # report a nonzero entry; severi imports goettsche only for a query that
    # may take a route, fill only for a query or a table that fills, and reach
    # only for a query that fills
    assert not {"dataclasses", "inspect", "fractions", "decimal", "curvecount.goettsche",
                *PARSER} & modules_after("import curvecount.cli")
    loaded = modules_after("from curvecount import severi")
    assert {name for name in loaded if name.split(".")[0] == "curvecount"} == {
        "curvecount", "curvecount.seqs", "curvecount.severi",
    }
    loaded = modules_after("from curvecount import classical")
    assert {name for name in loaded if name.split(".")[0] == "curvecount"} == {
        "curvecount", "curvecount.classical",
    }
    loaded = modules_after("from curvecount import goettsche")  # no cycle back to severi
    assert {name for name in loaded if name.split(".")[0] == "curvecount"} == {
        "curvecount", "curvecount.goettsche",
    }
    # each command loads the modules it runs, when it runs, and argparse
    # only for help and usage errors
    for argv, modules in CLI_MODULES:
        assert cli_modules_after(*argv) == set(modules), argv
    # every verify witness of the recursion stays off Goettsche's route
    assert "goettsche" not in cli_modules_after("verify", "all")
    argv = ["table", "--dmax", "3", "--deltamax", "1", "--cache", str(tmp_path / "c")]
    assert cli_modules_after(*argv) == {"cache", "fill", "seqs", "severi"}
    assert cli_modules_after(*argv) == {"cache", "fill", "seqs", "severi"}  # a re-run reads it
    assert cli_modules_after("severi", "--d", "3", code=2) == set(PARSER)
