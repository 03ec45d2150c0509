"""Report-bytes guard: the sha256 of the text and machine reports of a
fixed corpus, and the exact stderr of a corpus of refusals.

The digests were taken before the lattice and KLT kernels moved from
``Fraction`` coefficients to integer numerators over one denominator,
so any change in what a report prints, down to one byte, fails here.
A deliberate change of report bytes updates the digest it moves and
says so in CHANGES.md.
"""

import hashlib
import json

import pytest

from svlab.cli.main import main

README_SCENARIO = {
    "model": {"p": 3, "genus": 4, "e": -2},
    "kodaira": "-inf",
    "chi_o": -3,
    "q": 4,
    "relatively_minimal": True,
    "divisor": ["0", "6"],
    "boundary": [{"class": ["3", "-6"], "coefficient": "1/2"}],
}

# five blown-up points: a chain, a satellite point and a fresh chain; the
# boundary meets the exceptionals, so pullback and dot see them
RANK7_SCENARIO = {
    "model": {"p": 3, "genus": 2, "e": 1,
              "exceptionals": [[], [0], [1], [2, 1], []]},
    "kodaira": "-inf",
    "chi_o": -1,
    "q": 2,
    "relatively_minimal": False,
    "divisor": ["2", "11", "0", "0", "0", "0", "0"],
    "boundary": [{"class": ["4", "6", "0", "1", "0", "-1", "0"],
                  "coefficient": "3/4"}],
}

# denominators 2 through 12, nested to depth three; one exceptional
# coefficient reaches 1, so the verdict is not klt
MIXED_FOREST = {
    "branches": [
        {"id": "a", "coefficient": "1/3"},
        {"id": "b", "coefficient": "2/5"},
        {"id": "c", "coefficient": "3/7"},
        {"id": "d", "coefficient": "1/2"},
        {"id": "e", "coefficient": "5/12"},
        {"id": "f", "coefficient": "0"},
        {"id": "g", "coefficient": "7/9"},
        {"id": "h", "coefficient": "1/11", "kind": "exceptional"},
        {"id": "i", "coefficient": "11/12"},
    ],
    "clusters": [
        {"branches": ["a", "b", "c"],
         "children": [
             {"branches": ["a", "b"],
              "children": [{"branches": ["b", "a"]}]},
         ]},
        {"branches": ["d", "e", "f"],
         "children": [{"branches": ["d", "e"],
                       "children": [{"branches": ["e", "d"]}]}]},
        {"branches": ["g", "h"]},
        {"branches": ["c", "f", "h"]},
        {"branches": ["g", "i", "b"]},
    ],
}


def _document(request, **body):
    return {"format": "svlab/1", "request": request, **body}


DOCUMENTS = {
    "sweep-readme": _document(
        "sweep", model={"p": 3, "genus": 4, "e": -2},
        box={"a": [0, 5], "b": [-10, 20]}, boundary_coefficient="1/2",
    ),
    "klt-mixed-forest": _document("klt", arrangement=MIXED_FOREST),
    "classify-readme": _document("classify", scenario=README_SCENARIO),
    "classify-rank7": _document("classify", scenario=RANK7_SCENARIO),
}

KV_FLAGS = ["construct", "--kind", "kv", "--family", "hyperelliptic",
            "--p", "3", "--h", "3"]

DIGESTS = {
    "classify-rank7:machine":
        "76905c5fbeb3c16d2ee40a8333b8de3155e8543aba03fc714256468a7fba759b",
    "classify-rank7:text":
        "2ecf4729fd8b1be4b48619d2e6cb82828eda24068e3ac1abf2ed86d11bfd4565",
    "classify-readme:machine":
        "87d185db4b91815f2e154f42308d5480bba64ed5776a92417a8fc86ab7575ff2",
    "classify-readme:text":
        "10c9f0e6feba56ca803004d9e37b8f36c4419d9d25d228c648c9335753d02a41",
    "construct-kv:machine":
        "ed0f08dca2909497867313179dc55c0c3776e1bbea5fedbeb87af84a75d3b655",
    "construct-kv:package":
        "88242af27862b318db00e711ff35614c4eb7aa70feb242b8c5923250a4547e71",
    "construct-kv:text":
        "71322320ee21df6fd58b111712c93bfa5c399c59d1ce7044c735f1ca62f8b639",
    "klt-mixed-forest:machine":
        "a123f9df537c07edd30d181b76dcaa361d85dfc31dc4bbef17fac2c2d6ccfbea",
    "klt-mixed-forest:text":
        "c2811fd528dd597df19cb62f3bca825b6e94ddc07db00538931f2e343850f033",
    "sweep-readme:machine":
        "fbc1a8cfe013e563c9041152124d6c347054f5d7a807a4993b356296d10a4833",
    "sweep-readme:text":
        "d203193e88413631c631d0e7ff35d6c95bdef7890a4a4a75c21b5738e5edec9f",
    "verify-kv:machine":
        "111fa182a86880029eb7b56dcd58b223f751972e76932e5ca5252656e26eac2b",
    "verify-kv:text":
        "eeb325861f00693a34ae99b189dd7968310d79dd7e72209ca5d38e55a000e69f",
}


def _digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _report(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert captured.err == ""
    return code, captured.out


@pytest.mark.parametrize("fmt", ["text", "machine"])
@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_document_report_bytes(tmp_path, capsys, name, fmt):
    doc = DOCUMENTS[name]
    path = tmp_path / "request.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out = _report(
        capsys, [doc["request"], "--in", str(path), "--format", fmt]
    )
    assert code == 0
    assert _digest(out) == DIGESTS[f"{name}:{fmt}"]


# -- per-item bulk requests ---------------------------------------------------
#
# A 1,000-entry sweep box whose entries are certified or skipped with a
# polarization that is violated or unknown, and a klt arrangement of 1,200
# clusters over 40 branches with denominators 9 to 19, exceptional
# branches and children; the digests were taken before the per-item work
# of the two requests was trimmed.

BULK_SWEEP = _document(
    "sweep", model={"p": 3, "genus": 4, "e": -2},
    box={"a": [-2, 7], "b": [-30, 69]}, boundary_coefficient="2/3",
)


def _wide_arrangement(clusters=1200, branches=40):
    ids = [f"b{i}" for i in range(branches)]
    declared = [
        {"id": bid, "coefficient": f"{i % 7 + 1}/{i % 11 + 9}"}
        for i, bid in enumerate(ids)
    ]
    declared += [
        {"id": f"x{i}", "coefficient": f"-{i + 1}/3", "kind": "exceptional"}
        for i in range(3)
    ]
    forest = []
    for i in range(clusters):
        pair = [ids[i % branches], ids[(7 * i + 3) % branches]]
        node = {"branches": pair + ([f"x{i % 3}"] if i % 4 == 0 else [])}
        if i % 3 == 0:
            node["children"] = [{"branches": pair[::-1]}]
        forest.append(node)
    return {"branches": declared, "clusters": forest}


BULK_DIGESTS = {
    "klt:machine":
        "032054295813ed87480453caa7ef58bb833d73e4875e1286f65c8edb47fe05d0",
    "sweep:machine":
        "0ffd8fd2499251ce626ea13f26095253d6be366a4180b480b75205bd1ee4add5",
    "sweep:text":
        "72ff1767e112eb42d1a5b0aa28eac9800b1a9cee32f96f61d9adf3a87f2183f9",
}


@pytest.mark.parametrize("fmt", ["text", "machine"])
def test_bulk_sweep_report_bytes(tmp_path, capsys, fmt):
    path = tmp_path / "request.json"
    path.write_text(json.dumps(BULK_SWEEP), encoding="utf-8")
    argv = ["sweep", "--in", str(path), "--format", fmt]
    code, out = _report(capsys, argv)
    assert code == 0
    assert out.count("check name=entry" if fmt == "machine"
                     else "entry: ") == 1000
    assert _digest(out) == BULK_DIGESTS[f"sweep:{fmt}"]
    assert _report(capsys, argv + ["--jobs", "1"]) == (code, out)


def test_bulk_klt_report_bytes(tmp_path, capsys):
    path = tmp_path / "request.json"
    path.write_text(json.dumps(_document(
        "klt", arrangement=_wide_arrangement(),
    )), encoding="utf-8")
    code, out = _report(
        capsys, ["klt", "--in", str(path), "--format", "machine"]
    )
    assert code == 0
    assert out.count("check name=blowup") == 1600
    assert _digest(out) == BULK_DIGESTS["klt:machine"]


@pytest.mark.parametrize("fmt", ["text", "machine"])
def test_construct_and_verify_report_bytes(tmp_path, capsys, fmt):
    package = tmp_path / "package.json"
    code, out = _report(
        capsys, KV_FLAGS + ["--format", fmt, "--emit", str(package)]
    )
    assert code == 0
    assert _digest(out) == DIGESTS[f"construct-kv:{fmt}"]
    assert (_digest(package.read_text(encoding="utf-8"))
            == DIGESTS["construct-kv:package"])
    code, out = _report(
        capsys, ["verify", "--in", str(package), "--format", fmt]
    )
    assert code == 0
    assert _digest(out) == DIGESTS[f"verify-kv:{fmt}"]


# -- refusal bytes ------------------------------------------------------------
#
# Each case is an argv and the request document behind its ``{doc}``
# placeholder; the expected stderr and exit code were taken before the
# document envelope was read through one check, so a refusal that moves,
# rewords or changes order fails here.

FAMILY = {"kind": "hyperelliptic", "p": 3, "h": 3}

# a valid body of each request kind; the verify-package envelope is
# refused before its package is read, so an empty package serves there
BODIES = {
    "classify": {"scenario": README_SCENARIO},
    "klt": {"arrangement": MIXED_FOREST},
    "tango": {"family": FAMILY},
    "construct": {"kind": "kv", "family": FAMILY},
    "verify-package": {"package": {}},
    "sweep": {"model": {"p": 3, "genus": 4, "e": -2},
              "box": {"a": [0, 5], "b": [-10, 20]},
              "boundary_coefficient": "1/2"},
}

COMMAND_OF = {request: request.split("-")[0] for request in BODIES}


def _text(request, drop=None, **extra):
    body = {k: v for k, v in BODIES[request].items() if k != drop}
    return json.dumps({**_document(request, **body), **extra})


def _refusal_cases():
    requests = list(BODIES)
    cases = {}
    for i, request in enumerate(requests):
        argv = [COMMAND_OF[request], "--in", "{doc}"]
        other = requests[(i + 1) % len(requests)]
        cases[f"{request}:other-request"] = (argv, _text(other))
        cases[f"{request}:unknown-key"] = (argv, _text(request, extra=1))
        cases[f"{request}:missing-body"] = (
            argv, _text(request, drop=list(BODIES[request])[-1]),
        )
        cases[f"{request}:wrong-format"] = (
            argv, _text(request, format="svlab/0"),
        )
    cases.update({
        "not-json": (["klt", "--in", "{doc}"], "{not json"),
        "top-level-array": (["klt", "--in", "{doc}"], "[]"),
        "unknown-request": (
            ["klt", "--in", "{doc}"],
            json.dumps({"format": "svlab/1", "request": "frobnicate"}),
        ),
        "deep-nesting": (["klt", "--in", "{doc}"], "[" * 100_000),
        "tango:in-and-family": (
            ["tango", "--in", "{doc}", "--family", "hyperelliptic",
             "--p", "3", "--h", "3"], _text("tango"),
        ),
        "tango:no-source": (["tango"], None),
        "tango:family-without-p": (
            ["tango", "--family", "hyperelliptic", "--h", "3"], None,
        ),
        "construct:flags-without-kind": (
            ["construct", "--family", "hyperelliptic", "--p", "3",
             "--h", "3"], None,
        ),
        "construct:kind-contradicts-document": (
            ["construct", "--in", "{doc}", "--kind", "kollar"],
            _text("construct"),
        ),
        # the model's "chi" key may not lift chi(O) of a ruled surface
        # off 1 - g, even when chi_o agrees with it
        "classify:ruled-chi-override": (
            ["classify", "--in", "{doc}"],
            json.dumps(_document("classify", scenario={
                "model": {"p": 3, "genus": 0, "e": 1, "chi": 5},
                "kodaira": "-inf", "chi_o": 5, "q": 0,
                "relatively_minimal": True, "divisor": ["0", "1"],
            })),
        ),
    })
    cases.update(_deep_item_cases())
    return cases


def _deep_item_cases():
    """klt documents whose one malformed item sits deep in a list: the
    1,200-cluster arrangement above with 500 more branches declared,
    then one edit."""
    def klt(where, index, key, value):
        arrangement = _wide_arrangement()
        arrangement["branches"] += [
            {"id": f"y{i}", "coefficient": "1/2"} for i in range(500)
        ]
        items = arrangement[where]
        if where == "clusters" and key == "children":
            items, index, key = items[index]["children"], 0, "branches"
        items[index][key] = value
        return (["klt", "--in", "{doc}"],
                json.dumps(_document("klt", arrangement=arrangement)))

    return {
        "klt:branch-id-not-a-string": klt("branches", 437, "id", 437),
        "klt:unknown-key-in-500th-branch": klt(
            "branches", 499, "colour", "red"),
        "klt:bad-rational-mid-list": klt(
            "branches", 271, "coefficient", "0.5"),
        "klt:cluster-branches-not-an-array": klt(
            "clusters", 900, "children", "b0 b1"),
        "klt:cluster-branch-not-a-string": klt(
            "clusters", 700, "branches", ["b0", 1]),
    }


REFUSAL_CASES = _refusal_cases()

REFUSALS = {
    "classify:missing-body": "error: document: missing key 'scenario'\n",
    "classify:other-request":
        "error: document is a klt request, not classify\n",
    "classify:unknown-key":
        "error: document: unknown keys ['extra']; this schema is strict\n",
    "classify:wrong-format":
        "error: format: expected 'svlab/1', got 'svlab/0'\n",
    "classify:ruled-chi-override":
        "error: chi(O) of a ruled surface is 1 - base genus\n",
    "construct:flags-without-kind": "error: this command needs --kind\n",
    "construct:kind-contradicts-document":
        "error: --kind contradicts the request document\n",
    "construct:missing-body": "error: document: missing key 'family'\n",
    "construct:other-request":
        "error: document is a verify-package request, not construct\n",
    "construct:unknown-key":
        "error: document: unknown keys ['extra']; this schema is strict\n",
    "construct:wrong-format":
        "error: format: expected 'svlab/1', got 'svlab/0'\n",
    "deep-nesting":
        "error: not readable JSON: nested deeper than the decoder's limit\n",
    "klt:bad-rational-mid-list":
        "error: arrangement.branches[271].coefficient: expected an exact "
        "rational like \"3\" or \"-9/2\", got '0.5'\n",
    "klt:branch-id-not-a-string":
        "error: arrangement.branches[437].id: expected a string\n",
    "klt:cluster-branch-not-a-string":
        "error: arrangement.clusters[700].branches[1]: expected a string\n",
    "klt:cluster-branches-not-an-array":
        "error: arrangement.clusters[900].children[0].branches: expected an"
        " array\n",
    "klt:missing-body": "error: document: missing key 'arrangement'\n",
    "klt:other-request": "error: document is a tango request, not klt\n",
    "klt:unknown-key":
        "error: document: unknown keys ['extra']; this schema is strict\n",
    "klt:unknown-key-in-500th-branch":
        "error: arrangement.branches[499]: unknown keys ['colour']; this"
        " schema is strict\n",
    "klt:wrong-format": "error: format: expected 'svlab/1', got 'svlab/0'\n",
    "not-json":
        "error: not valid JSON: Expecting property name enclosed in double "
        "quotes: line 1 column 2 (char 1)\n",
    "sweep:missing-body":
        "error: document: missing key 'boundary_coefficient'\n",
    "sweep:other-request":
        "error: document is a classify request, not sweep\n",
    "sweep:unknown-key":
        "error: document: unknown keys ['extra']; this schema is strict\n",
    "sweep:wrong-format": "error: format: expected 'svlab/1', got 'svlab/0'\n",
    "tango:family-without-p": "error: family flags need --p\n",
    "tango:in-and-family":
        "error: give either --in or the family flags, not both\n",
    "tango:missing-body": "error: document: missing key 'family'\n",
    "tango:no-source":
        "error: this command needs --family (with --p, --h) or --in PATH\n",
    "tango:other-request":
        "error: document is a construct request, not tango\n",
    "tango:unknown-key":
        "error: document: unknown keys ['extra']; this schema is strict\n",
    "tango:wrong-format": "error: format: expected 'svlab/1', got 'svlab/0'\n",
    "top-level-array": "error: top level: expected an object\n",
    "unknown-request":
        "error: request: expected one of classify, klt, tango, construct, "
        "verify-package, sweep, got 'frobnicate'\n",
    "verify-package:missing-body": "error: document: missing key 'package'\n",
    "verify-package:other-request":
        "error: document is a sweep request, not verify-package\n",
    "verify-package:unknown-key":
        "error: document: unknown keys ['extra']; this schema is strict\n",
    "verify-package:wrong-format":
        "error: format: expected 'svlab/1', got 'svlab/0'\n",
}


@pytest.mark.parametrize("name", sorted(REFUSAL_CASES))
def test_refusal_bytes(tmp_path, capsys, name):
    argv, text = REFUSAL_CASES[name]
    path = tmp_path / "request.json"
    if text is not None:
        path.write_text(text, encoding="utf-8")
    code = main([str(path) if arg == "{doc}" else arg for arg in argv])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", REFUSALS[name])
