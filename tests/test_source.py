"""Source-level guards over the package."""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from svlab.cli.main import main

SRC = Path(__file__).resolve().parents[1] / "src" / "svlab"


def test_no_assert_statements():
    # python -O strips assert, so no check in the package may use it
    paths = sorted(SRC.rglob("*.py"))
    # the walk must see the package, or it would pass on nothing
    assert {SRC / "lattice.py", SRC / "cli" / "schema.py"} <= set(paths)
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found += [
            f"{path.relative_to(SRC)}:{node.lineno}"
            for node in ast.walk(tree) if isinstance(node, ast.Assert)
        ]
    assert found == []


@pytest.mark.parametrize("forbidden", [
    # records come from svlab.record; dataclasses would load inspect
    "dataclasses",
    # the sweep runs serially in one process
    "concurrent.futures",
    "multiprocessing",
])
def test_no_forbidden_import(forbidden):
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                # "from concurrent import futures" names the submodule
                modules = [node.module] + [
                    f"{node.module}.{alias.name}" for alias in node.names
                ]
            else:
                continue
            if any(name == forbidden or name.startswith(forbidden + ".")
                   for name in modules):
                found.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert found == []


def test_argparse_is_imported_only_inside_a_function():
    # a well-formed command line is read without argparse, which loads
    # only for --help and for a command line the flag reader declines
    inside, outside = [], []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        stack = [(node, False) for node in tree.body]
        while stack:
            node, in_function = stack.pop()
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module]
            else:
                modules = []
            if "argparse" in modules:
                (inside if in_function else outside).append(
                    f"{path.relative_to(SRC)}:{node.lineno}")
            in_function = in_function or isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef))
            stack.extend((kid, in_function)
                         for kid in ast.iter_child_nodes(node))
    # build_parser's import is seen, so the check cannot pass on nothing
    assert inside and outside == []


def test_package_inits_bind_no_name():
    # every name is imported from the module that defines it; a package
    # __init__ holds its docstring and, for svlab itself, __version__
    inits = sorted(SRC.rglob("__init__.py"))
    assert {SRC / "__init__.py", SRC / "cli" / "__init__.py"} <= set(inits)
    bound = {}
    for path in inits:
        docstring, *rest = ast.parse(path.read_text(encoding="utf-8")).body
        assert isinstance(docstring, ast.Expr)
        assert isinstance(docstring.value.value, str)
        statements = [
            ast.unparse(node.targets[0] if isinstance(node, ast.Assign)
                        else node)
            for node in rest
        ]
        if statements:
            bound[str(path.relative_to(SRC))] = statements
    assert bound == {"__init__.py": ["__version__"]}


# names that only the acceptance gates or bench/fiber_worker.py use
_NO_PRODUCTION_CALLER = {
    "intersect", "pullback_blowup", "FiberTree.self_degree",
    "RuledModel.exceptional_class", "RuledModel.blow_up",
    "blow_up_on_component", "blow_up_on_edge", "reduce_model",
    "minimality_audit", "contract_component", "FiberTree.neighbors",
}


def test_every_public_name_has_a_production_caller():
    # a public function, class or method of the package must be read
    # somewhere in the package; an import or an export list entry does
    # not count.  A method is matched by its bare name, so any attribute
    # read of that name counts for it.
    defined, read = set(), set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            defined.add(node.name)
            if isinstance(node, ast.ClassDef):
                defined.update(
                    f"{node.name}.{item.name}" for item in node.body
                    if isinstance(item, ast.FunctionDef)
                )
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    # each command's handler is read by name, from cli/main's table
    from svlab.cli.main import _COMMANDS

    read.update(handler for handler, _, _ in _COMMANDS.values())
    uncalled = {
        name for name in defined
        if not name.rsplit(".", 1)[-1].startswith("_")
        and name.rsplit(".", 1)[-1] not in read
    }
    assert uncalled == _NO_PRODUCTION_CALLER


def test_per_item_converters_import_nothing():
    # the readers named in the key tables, and the functions of the
    # module and of cli/schema and cli/rational that they call, run once
    # per document item or loop over the items; an import statement
    # costs about a microsecond even when the module is loaded, so the
    # klt reader imports its layer's names at its top
    tree, *shared = (
        ast.parse((SRC / "cli" / name).read_text(encoding="utf-8"))
        for name in ("arrangement.py", "schema.py", "rational.py")
    )
    functions = {
        node.name: node for module in (*shared, tree) for node in module.body
        if isinstance(node, ast.FunctionDef)
    }
    per_item = {
        name.id
        for table in ast.walk(tree) if isinstance(table, ast.Dict)
        for value in table.values for name in ast.walk(value)
        if isinstance(name, ast.Name) and name.id in functions
    }
    grown = None
    while grown != per_item:
        grown = set(per_item)
        per_item |= {
            node.func.id
            for name in grown for node in ast.walk(functions[name])
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", None) in functions
        }
    assert {"_branches", "_clusters", "_object", "_list_of",
            "parse_ratio"} <= per_item
    importing = sorted(
        name for name in per_item
        if any(isinstance(node, (ast.Import, ast.ImportFrom))
               for node in ast.walk(functions[name]))
    )
    assert importing == []


def test_one_document_envelope():
    # every request kind reads format, request and its top-level keys
    # through one check in cli/schema, which also refuses a document of
    # another kind, so cli/main checks no request name itself; the check
    # is the one ``_object`` read whose refusals' paths start at
    # "document"
    cli = SRC / "cli"
    envelopes = [
        path.name for path in sorted(cli.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "_at"
        and len(node.args) > 1 and isinstance(node.args[0], ast.Constant)
        and node.args[0].value == "document"
        and getattr(node.args[1], "id", None) == "_object"
    ]
    assert envelopes == ["schema.py"]
    main_tree = ast.parse((cli / "main.py").read_text(encoding="utf-8"))
    assert [
        node.lineno for node in ast.walk(main_tree)
        if isinstance(node, ast.Call) and "require_request" in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None)
        )
    ] == []


def test_decide_walks_one_table_of_hypotheses():
    # every hypothesis a route row names is in the table and every entry
    # of the table is named by a row; the rows hold route functions, so
    # the names that decide calls through its module stay rebindable
    import svlab.nonvanish as nonvanish

    named = [name for _, names, _ in nonvanish.ROUTES for name in names]
    assert set(named) == set(nonvanish.HYPOTHESES)
    assert {route for _, _, route in nonvanish.ROUTES}.isdisjoint({
        nonvanish.classify, nonvanish.certify_positivity,
        nonvanish.riemann_roch_chi,
    })


def test_only_the_table_reads_the_positivity_certificates():
    # the nef(D) and ample(H) certificates of the facts are read, and
    # their refusals written, only inside HYPOTHESES: no route guards
    # itself by hand
    tree = ast.parse((SRC / "nonvanish.py").read_text(encoding="utf-8"))
    (table,) = [
        node.value for node in tree.body if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["HYPOTHESES"]
    ]
    inside = {id(node) for node in ast.walk(table)}
    assert "_refuse_violated" not in {
        node.name for node in tree.body if isinstance(node, ast.FunctionDef)
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ("nef", "ample"):
            found.append(node)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and ("the divisor is not nef:" in node.value
                     or "fails ampleness" in node.value):
            found.append(node)
    # the table itself is seen, so the check cannot pass on nothing
    assert {getattr(node, "attr", "literal") for node in found} == {
        "nef", "ample", "literal",
    }
    assert [node.lineno for node in found if id(node) not in inside] == []
    # no other module writes these refusals
    for path in sorted(SRC.rglob("*.py")):
        if path.name != "nonvanish.py":
            text = path.read_text(encoding="utf-8")
            assert "fails ampleness" not in text, path
            assert "the divisor is not nef:" not in text, path


def test_only_the_entry_point_freezes_the_heap():
    # a library caller of main() never gets a frozen heap or a switched
    # off collector, and no module leaves past the atexit handlers and
    # the final flush of the streams
    entry = SRC / "__main__.py"
    # the entry point's calls are seen, so the check cannot pass on nothing
    entry_text = entry.read_text(encoding="utf-8")
    assert "gc.freeze()" in entry_text
    assert "gc.disable()" in entry_text
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        assert "os._exit" not in text, path
        if path != entry:
            assert "gc.freeze" not in text, path
            assert "gc.disable" not in text, path


# -- import footprint ---------------------------------------------------------

_ENV = dict(
    os.environ,
    PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC.parent), os.environ.get("PYTHONPATH")) if p
    ),
)


def _imported(*argv):
    """The modules a fresh interpreter imports to run ``argv``."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *argv],
        capture_output=True, text=True, env=_ENV,
    )
    assert proc.returncode == 0, proc.stderr
    return {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }


# the document readers that are modules of their own
_READERS = {
    "svlab.cli.scenario", "svlab.cli.arrangement", "svlab.cli.sweep",
    "svlab.cli.package",
}

# the modules that each command's handler loads: its own, and for verify
# cli/family too, whose package lines it prints
_HANDLERS = {
    "classify": {"svlab.cli.scenario"},
    "klt": {"svlab.cli.arrangement"},
    "tango": {"svlab.cli.family"},
    "construct": {"svlab.cli.family"},
    "verify": {"svlab.cli.package", "svlab.cli.family"},
    "sweep": {"svlab.cli.sweep"},
}


def test_cli_import_loads_no_layer_but_the_lattice():
    loaded = _imported("-c", "import svlab.cli.main")
    assert "svlab.cli.main" in loaded
    unwanted = {
        "svlab.charpcurve", "svlab.construct", "svlab.fibered",
        "svlab.kltcalc", "svlab.nonvanish", "svlab.chiproduct",
        "concurrent.futures", "dataclasses", "inspect", *_READERS,
        "svlab.cli.family", "svlab.cli.rational",
        "argparse", "gettext", "locale",
        "json", "fractions", "decimal",
    }
    assert loaded & unwanted == set()


def test_klt_command_loads_only_its_layer(tmp_path):
    doc = tmp_path / "klt.json"
    doc.write_text(json.dumps({
        "format": "svlab/1",
        "request": "klt",
        "arrangement": {"branches": [{"id": "b1", "coefficient": "1/2"}]},
    }), encoding="utf-8")
    loaded = _imported("-m", "svlab", "klt", "--in", str(doc))
    assert "svlab.kltcalc" in loaded
    assert loaded & {
        "svlab.charpcurve", "svlab.construct", "svlab.nonvanish",
        "svlab.lattice",
    } == set()


def test_tango_command_does_not_load_the_lattice():
    loaded = _imported(
        "-m", "svlab", "tango", "--family", "hyperelliptic",
        "--p", "3", "--h", "3",
    )
    assert "svlab.charpcurve.families" in loaded
    assert "svlab.lattice" not in loaded
    # a text report of flags reads no document and no rational
    assert loaded & {"json", "fractions", "decimal"} == set()


def test_machine_tango_of_flags_loads_no_json(capsys):
    # the machine report quotes a value of printable ASCII itself
    argv = ["tango", "--family", "artinschreier", "--p", "3", "--h", "4",
            "--format", "machine"]
    assert main(argv) == 0
    assert ' curve="y^' in capsys.readouterr().out
    loaded = _imported("-m", "svlab", *argv)
    assert "svlab.cli.report" in loaded
    assert "json" not in loaded


# the rational arithmetic of the standard library: fractions loads the
# other two
_RATIONAL_MODULES = {"fractions", "decimal", "numbers"}


def _klt_forest(forest):
    """A klt document: "wide", 40 roots of three original branches each,
    every coefficient text unreduced; or "mixed", exceptional branches
    of every sign, nested children and a not-klt verdict."""
    if forest == "wide":
        branches, clusters = [], []
        for r in range(40):
            ids = [f"r{r}x{i}" for i in range(3)]
            branches += [{"id": bid, "coefficient": f"{2 * i}/{2 * i + 6}"}
                         for i, bid in enumerate(ids)]
            clusters.append({"branches": ids})
    else:
        branches = [
            {"id": "a", "coefficient": "1/2"},
            {"id": "b", "coefficient": "2/3"},
            {"id": "c", "coefficient": "0"},
            {"id": "d", "coefficient": "-3/4", "kind": "exceptional"},
            {"id": "e", "coefficient": "3/2", "kind": "exceptional"},
        ]
        clusters = [
            {"branches": ["a", "b", "c", "d"], "children": [
                {"branches": ["a", "b"], "children": [
                    {"branches": ["a", "b"]},
                ]},
                {"branches": ["c", "d"]},
            ]},
            {"branches": ["c", "e"]},
        ]
    return {"format": "svlab/1", "request": "klt",
            "arrangement": {"branches": branches, "clusters": clusters}}


@pytest.mark.parametrize("fmt", ("text", "machine"))
@pytest.mark.parametrize("forest", ("wide", "mixed"))
def test_klt_command_loads_no_rational_arithmetic(forest, fmt, tmp_path,
                                                  capsys):
    # every coefficient and every printed ratio stays an integer pair
    argv = ["klt", "--in", _write(tmp_path / "k.json", _klt_forest(forest)),
            "--format", fmt]
    main(argv)
    out = capsys.readouterr().out
    assert out.count("blowup") == (40 if forest == "wide" else 5)
    assert ("min_discrepancy" in out) is (forest == "mixed")
    loaded = _imported("-m", "svlab", *argv)
    assert "svlab.kltcalc" in loaded
    assert loaded & _RATIONAL_MODULES == set()


@pytest.mark.parametrize("fmt", ("text", "machine"))
def test_sweep_command_loads_no_rational_arithmetic(fmt, tmp_path, capsys):
    # a box with certified entries and with entries whose polarization
    # is violated or unknown, so every verdict of the kernel is met
    argv = ["sweep", "--in", _write(tmp_path / "s.json", {
        "format": "svlab/1",
        "request": "sweep",
        "model": {"p": 3, "genus": 4, "e": -2},
        "box": {"a": [-1, 4], "b": [-12, 20]},
        "boundary_coefficient": "2/4",
    }), "--format", fmt]
    assert main(argv) == 0
    out = capsys.readouterr().out
    for seen in ("PASS", "violated", "unknown"):
        assert seen in out
    loaded = _imported("-m", "svlab", *argv)
    assert "svlab.chiproduct" in loaded
    assert loaded & _RATIONAL_MODULES == set()


def test_classify_command_does_not_load_the_fibered_layer(tmp_path):
    doc = tmp_path / "classify.json"
    doc.write_text(json.dumps({
        "format": "svlab/1",
        "request": "classify",
        "scenario": {
            "model": {"p": 3, "genus": 0, "e": 1},
            "kodaira": "-inf",
            "chi_o": 1,
            "q": 0,
            "relatively_minimal": True,
            "divisor": ["0", "0"],
        },
    }), encoding="utf-8")
    loaded = _imported("-m", "svlab", "classify", "--in", str(doc))
    assert "svlab.nonvanish" in loaded
    # case A never reaches the chi product route
    assert loaded & {"svlab.fibered", "svlab.chiproduct"} == set()


def test_classify_command_loads_the_product_on_its_route(tmp_path):
    # the README scenario: case C_M, decided by the chi product
    doc = tmp_path / "classify.json"
    doc.write_text(json.dumps({
        "format": "svlab/1",
        "request": "classify",
        "scenario": {
            "model": {"p": 3, "genus": 4, "e": -2},
            "kodaira": "-inf",
            "chi_o": -3,
            "q": 4,
            "relatively_minimal": True,
            "divisor": ["0", "6"],
            "boundary": [{"class": ["3", "-6"], "coefficient": "1/2"}],
        },
    }), encoding="utf-8")
    loaded = _imported("-m", "svlab", "classify", "--in", str(doc))
    assert {"svlab.nonvanish", "svlab.chiproduct"} <= loaded


def test_report_import_loads_neither_the_parser_nor_the_schema():
    loaded = _imported("-c", "import svlab.cli.report")
    assert "svlab.cli.report" in loaded
    assert loaded & {"argparse", "svlab.cli.main", "svlab.cli.schema"} == set()


# -- lazy names ---------------------------------------------------------------

def test_unknown_names_are_attribute_errors():
    with pytest.raises(AttributeError):
        sys.modules["svlab.cli.main"].no_such_name


_BINDINGS = (
    ("svlab.cli.main", "certify_tango", "svlab.charpcurve.families"),
    ("svlab.cli.main", "build_package", "svlab.construct"),
    ("svlab.cli.main", "verify_package", "svlab.construct"),
    ("svlab.cli.main", "is_klt", "svlab.kltcalc"),
    ("svlab.cli.main", "decide", "svlab.nonvanish"),
    ("svlab.cli.schema", "certify_tango", "svlab.charpcurve.families"),
    ("svlab.cli.schema", "scenario_from_document", "svlab.cli.scenario"),
    ("svlab.cli.schema", "arrangement_from_document",
     "svlab.cli.arrangement"),
    ("svlab.cli.schema", "sweep_from_document", "svlab.cli.sweep"),
    ("svlab.cli.schema", "family_from_fields", "svlab.cli.family"),
    ("svlab.cli.schema", "family_from_document", "svlab.cli.family"),
    ("svlab.cli.schema", "construct_from_document", "svlab.cli.family"),
    ("svlab.cli.schema", "family_document", "svlab.cli.family"),
    ("svlab.cli.schema", "package_to_document", "svlab.cli.package"),
    ("svlab.cli.schema", "package_from_document", "svlab.cli.package"),
    ("svlab.cli.schema", "dumps_canonical", "svlab.cli.package"),
)


@pytest.mark.parametrize("module,name,layer", _BINDINGS)
def test_layer_bindings_resolve_by_getattr(module, name, layer):
    found = getattr(importlib.import_module(module), name)
    assert found is getattr(importlib.import_module(layer), name)


def _write(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _argv(command, tmp_path):
    if command == "classify":
        return ["classify", "--in", _write(tmp_path / "c.json", {
            "format": "svlab/1",
            "request": "classify",
            "scenario": {
                "model": {"p": 3, "genus": 0, "e": 1},
                "kodaira": "-inf",
                "chi_o": 1,
                "q": 0,
                "relatively_minimal": True,
                "divisor": ["0", "0"],
            },
        })]
    if command == "klt":
        return ["klt", "--in", _write(tmp_path / "k.json", {
            "format": "svlab/1",
            "request": "klt",
            "arrangement": {
                "branches": [{"id": "b1", "coefficient": "1/2"}],
            },
        })]
    if command == "tango":
        return ["tango", "--family", "hyperelliptic", "--p", "3", "--h", "3"]
    if command == "sweep":
        return ["sweep", "--in", _write(tmp_path / "s.json", {
            "format": "svlab/1",
            "request": "sweep",
            "model": {"p": 3, "genus": 4, "e": -2},
            "box": {"a": [0, 2], "b": [-2, 4]},
            "boundary_coefficient": "1/2",
        })]
    emitted = tmp_path / "kv.json"
    assert main(["construct", "--kind", "kv", "--family", "hyperelliptic",
                 "--p", "3", "--h", "3", "--emit", str(emitted)]) == 0
    if command == "construct":
        return ["construct", "--kind", "kv", "--family", "hyperelliptic",
                "--p", "3", "--h", "3"]
    return ["verify", "--in", str(emitted)]


@pytest.mark.parametrize("command,reader", (
    ("classify", "svlab.cli.scenario"),
    ("klt", "svlab.cli.arrangement"),
    ("tango", None),
    ("construct", None),
    ("verify", "svlab.cli.package"),
    ("sweep", "svlab.cli.sweep"),
))
def test_commands_load_only_their_own_reader(command, reader, tmp_path):
    loaded = _imported("-m", "svlab", *_argv(command, tmp_path))
    assert "svlab.cli.schema" in loaded
    assert loaded & _READERS == ({reader} - {None})


@pytest.mark.parametrize("command", sorted(_HANDLERS))
def test_commands_load_only_their_own_handler(command, tmp_path):
    loaded = _imported("-m", "svlab", *_argv(command, tmp_path))
    assert loaded & set().union(*_HANDLERS.values()) == _HANDLERS[command]


def test_cli_main_defines_no_handler():
    # each handler lives beside its reader, so a request compiles only
    # its own
    tree = ast.parse((SRC / "cli" / "main.py").read_text(encoding="utf-8"))
    functions = [node.name for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef)]
    # main itself is seen, so the check cannot pass on nothing
    assert "main" in functions
    assert [name for name in functions if name.startswith("cmd_")] == []


def test_every_command_resolves_to_its_handler():
    # a misspelt handler or module in the dispatch table fails here, not
    # when its one command runs
    cli = importlib.import_module("svlab.cli.main")
    assert set(cli._COMMANDS) == set(_HANDLERS)
    for command, (handler, _, _) in cli._COMMANDS.items():
        found = getattr(cli, handler)
        assert callable(found), command
        assert found.__module__ in _HANDLERS[command], command


def test_sweep_command_loads_the_product_not_the_decision_engine(tmp_path):
    loaded = _imported("-m", "svlab", *_argv("sweep", tmp_path))
    assert {"svlab.lattice", "svlab.chiproduct"} <= loaded
    assert "svlab.nonvanish" not in loaded


@pytest.mark.parametrize("command", (
    "classify", "klt", "tango", "construct", "verify", "sweep",
))
def test_commands_load_neither_dataclasses_nor_inspect(command, tmp_path):
    loaded = _imported("-m", "svlab", *_argv(command, tmp_path))
    assert "svlab.record" in loaded
    # nor the argument parser, which only --help and usage errors need
    assert loaded & {
        "dataclasses", "inspect", "argparse", "gettext", "locale",
    } == set()


@pytest.mark.parametrize("module,name,command", (
    *(("svlab.cli.main", name, command)
      for name in ("check", "render_text", "render_machine")
      for command in _HANDLERS),
    ("svlab.cli.schema", "load_document", "klt"),
    ("svlab.cli.schema", "family_from_fields", "tango"),
    ("svlab.cli.schema", "family_document", "construct"),
    ("svlab.cli.main", "certify_tango", "tango"),
    ("svlab.cli.main", "certify_tango", "construct"),
    ("svlab.cli.main", "build_package", "construct"),
    ("svlab.cli.main", "verify_package", "verify"),
    ("svlab.cli.main", "is_klt", "klt"),
    ("svlab.nonvanish", "classify", "classify"),
    ("svlab.cli.main", "decide", "classify"),
    ("svlab.cli.schema", "certify_tango", "verify"),
))
def test_commands_call_the_rebound_name(
    module, name, command, tmp_path, capsys, monkeypatch,
):
    argv = _argv(command, tmp_path)
    if name == "render_machine":
        argv += ["--format", "machine"]
    capsys.readouterr()  # what making argv printed
    owner = importlib.import_module(module)
    real = getattr(owner, name)
    calls = []

    def spy(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)
    assert main(argv) == 0
    assert calls
    out = capsys.readouterr().out
    if name == "check":
        # every check line of the report, not just some, is made by it
        assert len(calls) == len(re.findall(r"^\S.*: (PASS|FAIL|SKIP)$",
                                            out, re.M))


def test_classify_command_classifies_once(tmp_path, capsys, monkeypatch):
    # the report prints the case label of the verdict, so only decide
    # classifies the scenario
    import svlab.nonvanish as nonvanish

    real = nonvanish.classify
    calls = []

    def spy(scenario):
        calls.append(scenario)
        return real(scenario)

    monkeypatch.setattr(nonvanish, "classify", spy)
    assert main(_argv("classify", tmp_path)) == 0
    assert len(calls) == 1
    assert "    case: A\n" in capsys.readouterr().out
