"""Source-level guards over the package."""

import ast
import importlib
import json
import os
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
    "RuledModel.exceptional_class", "blow_up_on_component",
    "blow_up_on_edge", "reduce_model", "minimality_audit",
    "contract_component", "FiberTree.neighbors",
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
    uncalled = {
        name for name in defined
        if not name.rsplit(".", 1)[-1].startswith("_")
        and name.rsplit(".", 1)[-1] not in read
    }
    assert uncalled == _NO_PRODUCTION_CALLER


def test_per_item_converters_import_nothing():
    # a converter handed to _list_of runs once per array item, and an
    # import statement costs about a microsecond even when the module is
    # loaded: such a converter reads the names its layer binds lazily
    tree = ast.parse((SRC / "cli" / "schema.py").read_text(encoding="utf-8"))
    functions = {
        node.name: node for node in tree.body
        if isinstance(node, ast.FunctionDef)
    }
    per_item = {
        arg.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "_list_of"
        for arg in node.args if isinstance(arg, ast.Name)
    }
    assert {"_branch", "_cluster"} <= per_item
    importing = sorted(
        name for name in per_item if name in functions
        and any(isinstance(node, (ast.Import, ast.ImportFrom))
                for node in ast.walk(functions[name]))
    )
    assert importing == []


def test_one_document_envelope():
    # every request kind reads format, request and its top-level keys
    # through one check in cli/schema, which also refuses a document of
    # another kind, so cli/main checks no request name itself
    cli = SRC / "cli"
    schema = ast.parse((cli / "schema.py").read_text(encoding="utf-8"))
    envelopes = [
        node for node in ast.walk(schema)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "_object"
        and len(node.args) > 1 and isinstance(node.args[1], ast.Constant)
        and node.args[1].value == "document"
    ]
    assert len(envelopes) == 1
    main_tree = ast.parse((cli / "main.py").read_text(encoding="utf-8"))
    assert [
        node.lineno for node in ast.walk(main_tree)
        if isinstance(node, ast.Call) and "require_request" in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None)
        )
    ] == []


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


def test_cli_import_loads_no_layer_but_the_lattice():
    loaded = _imported("-c", "import svlab.cli.main")
    assert "svlab.cli.main" in loaded
    unwanted = {
        "svlab.charpcurve", "svlab.construct", "svlab.fibered",
        "svlab.kltcalc", "svlab.nonvanish", "svlab.cli.sweep",
        "concurrent.futures", "dataclasses", "inspect",
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
    assert "svlab.fibered" not in loaded


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
    ("svlab.cli.schema", "ORIGINAL", "svlab.kltcalc"),
    ("svlab.cli.schema", "EXCEPTIONAL", "svlab.kltcalc"),
    ("svlab.cli.schema", "WeightedBranch", "svlab.kltcalc"),
    ("svlab.cli.schema", "ClusterNode", "svlab.kltcalc"),
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


@pytest.mark.parametrize("command", (
    "classify", "klt", "tango", "construct", "verify", "sweep",
))
def test_commands_load_neither_dataclasses_nor_inspect(command, tmp_path):
    loaded = _imported("-m", "svlab", *_argv(command, tmp_path))
    assert "svlab.record" in loaded
    assert loaded & {"dataclasses", "inspect"} == set()


@pytest.mark.parametrize("module,name,command", (
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
    owner = importlib.import_module(module)
    real = getattr(owner, name)
    calls = []

    def spy(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)
    assert main(argv) == 0
    assert calls
    capsys.readouterr()


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
