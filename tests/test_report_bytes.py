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
        "d42deac3b138ab024277dd418cb5d49527b0c81253005b741378eae2ec5f80d4",
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


# Every other kind on p = 2 (ArtinSchreier 2 5, 3 | n), p = 3
# (Hyperelliptic 3 3) and p >= 5 (Hyperelliptic 5 3, with its member
# branch): the lines that print a twist degree, a member coefficient or a
# fractional class.  The digests were taken while the package data was
# still held as ``Fraction``s.  Each case keys its construct and verify
# reports, text then machine, and its emitted package.
PACKAGE_FAMILIES = {
    "as25": ["artinschreier", "2", "5"],
    "h33": ["hyperelliptic", "3", "3"],
    "h53": ["hyperelliptic", "5", "3"],
}

PACKAGE_DIGESTS = {
    "kv-as25": (
        "8bf639702a8e95acf802cf68ebcd007ebbf36d6dfb15554c8f3d21ca0d1ff237",
        "5d86c81c20db9fa5510a897fdd06616bb3022be45cbfdaa7fab5a19466cd65ff",
        "9bb6e1cae34e89d94953e694c2d17ba14b2bea485be786585e63904be7c3872a",
        "6e6d3ff5085b00140220c6d4c6bba57e77913585a52799b1ace2622b90cd807f",
        "c40cd07c4146d98f243e2d573aea2c5aef7a985c752ef4288f0e7e3a5db8fd20",
    ),
    "kv-h53": (
        "bc9e50c970b307f3a2bfdcb953f4534318a45bcec2954503bcfc09bfbdd6d135",
        "6403eaca263a9115f6c9939d5af853c2a5a14107a453cde5e0078c654e0d3f0c",
        "2c1369a21e344110990f8d6fadcd271dba8e7ae29c6c32131c2e59f613159f7e",
        "e0eace86c490401f7ada4f22f4e9ebb468233244cdbb1fd16123983bbb317309",
        "cd0719f7f41ba86002598005f9bf8d8ceefddf9a5f1b48afffea9f4aa3f97558",
    ),
    "kollar-as25": (
        "53968cb7fc27d08ca250e5d5ff4ba089433d1da5cda84e927787a0cc1ec7c909",
        "81305f5902797faa483899024b403aceff34495ce371b14f573ad202fafe8095",
        "2cf80d811bbee2e3bd11a1965a3f6ebe200713d37415c35ebcc3ee4d187524c4",
        "9164c703e5f8fcbab2d32506e51d113a2fbd3d5a483c75a1e6fbf8b19fe5acd2",
        "be285d06625df0507582f1071b47d547e7df30223226eef516a88705776f89d8",
    ),
    "kollar-h33": (
        "4311a93c76c3ad2d1b74113cc633a86f806d72fc15c0a759364702b4e3677fd7",
        "ec07d7f1ae8793fa03f6ba6e060bc540f06678894de2d669a4f3ef66f302485b",
        "74959bd1915175b8126a0ce50da3bc424acee89b0cf95192f40c61f1c606300b",
        "8be2fdced29261aee7d32f279ee220d0603eea94dc35d2a39229e2b9dd24868e",
        "c9dab8271036542271b0a97994c112d8b8a7c68f03a7a6d7ae4f0304d06b1b58",
    ),
    "kollar-h53": (
        "0de144316b6aa514c17ada886d2b6c1003e8bb49423a1d51444dda8ecb978084",
        "3af692125f41ae938576be55abd0810c40af5a16fa522273166e456fa7800034",
        "4cb3907e7cecdc94fd7fc1bba124909367f063c7ac9a102dc8233d2a5477e252",
        "87b9293c3826582b8089e6a9cfbb2e54c4e94671b34d1531bdae79ff0cb3db4c",
        "660545b399f25b71cf59e843b6237b07585cb60d40d832762cf8d04fcf7f5497",
    ),
    "semipos-as25": (
        "2d427be0c3c891c2fd21193631394491c036abcfc403806d14dc08accdeffddf",
        "be0273f28c4ac31866819ee5d4be4c8a6d78b7e9ed519bcf6a7ac232855c1222",
        "2d07f413fa7b1b920342e2806ddd508c1f98c216cf469ad1a3391c27da739ce4",
        "4a19bf800c33dded85064db487c44948f806ed8abdc2162b54f05dc048b0a62d",
        "97191a91487e9d5ffd9e5135439a1c6cc6c48fe35658811967e3d2068603bbb0",
    ),
    "semipos-h33": (
        "9634a769635dadfdd971a2dbd4167fbcd25203171f502bb233ac82f61cb4690e",
        "08d72d75919806bbb730ba0ec2ba23796fcf1f6163b5556cde482484100bcc28",
        "785f74c03366a8771570e785eaf18bebe2c8857deaae2337a227b1c969e9f6ca",
        "26c8a28b6a9a0e25273e6be1a8bab54fe39188337fbcbd61e0bba8c960e4e210",
        "1f9dbaf8713a0c975ac99dbcfdc35755c40fdd484360950a3cb5ff5ed2ab177a",
    ),
    "semipos-h53": (
        "88064a57e6bf9028c4d6418aefae68d2286448f81d6ea773e06b147dc5ecf0cb",
        "9bdd601a6e8327fbb10fe4d3fae6d100f5bf89ee2701ba572faa1d58b79d70da",
        "fcccb7ce96257b628b160ff09c1f7efda44275dda2b67d16ef99418377a8bec9",
        "5e1a378411a43ed6a503f0d5a791729715056c0d04b8c672e636bfd0ce6983a1",
        "474b2e1245c4fdc9a05c342df8015ab66802d04e9f07dde809c6fc9e9dc70737",
    ),
}


@pytest.mark.parametrize("fmt", ["text", "machine"])
@pytest.mark.parametrize("case", sorted(PACKAGE_DIGESTS))
def test_package_report_bytes(tmp_path, capsys, case, fmt):
    kind, family = case.split("-")
    name, p, h = PACKAGE_FAMILIES[family]
    construct_text, construct_machine, package_digest, verify_text, \
        verify_machine = PACKAGE_DIGESTS[case]
    text = fmt == "text"
    package = tmp_path / "package.json"
    code, out = _report(capsys, [
        "construct", "--kind", kind, "--family", name, "--p", p, "--h", h,
        "--format", fmt, "--emit", str(package),
    ])
    assert code == 0
    assert _digest(out) == (construct_text if text else construct_machine)
    assert _digest(package.read_text(encoding="utf-8")) == package_digest
    code, out = _report(
        capsys, ["verify", "--in", str(package), "--format", fmt]
    )
    assert code == 0
    assert _digest(out) == (verify_text if text else verify_machine)


# -- refusal bytes ------------------------------------------------------------
#
# Each case is an argv and the request document behind its ``{doc}``
# placeholder; the expected stderr and exit code were taken before the
# document envelope was read through one check, so a refusal that moves,
# rewords or changes order fails here.

FAMILY = {"kind": "hyperelliptic", "p": 3, "h": 3}

# a package body of the current shape; its refusals below come while it
# is read, before any class is put on the surface
PACKAGE = {
    "kind": "kv", "family": FAMILY,
    "section_curve": ["3", "-6"],
    "boundary": [{"class": ["3", "-6"], "coefficient": "1/2"}],
    "divisor": ["0", "6"], "h_class": ["1/2", "1"],
    "base_twist_degree": None, "member_class": None,
    "member_coefficient": None, "shifted_divisor": None,
}

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
        # chi(O) is 1 - g on every model, so the model has no "chi" key
        # that could lift it, even when chi_o agrees with the key
        # a package document of the old shape, which stored the
        # certificate and model that its family fixes
        "verify-package:old-shape": (
            ["verify", "--in", "{doc}"],
            json.dumps(_document("verify-package", package={
                **{k: v for k, v in PACKAGE.items() if k != "family"},
                "certificate": {
                    "family": FAMILY, "witness": "y/x^p", "genus": 4,
                    "v_inf": 6, "n": 2, "bound": 2, "equality": True,
                    "l_degree": 2, "star_condition": None,
                    "provenance": "computed",
                },
                "model": {"p": 3, "genus": 4, "e": -2},
            })),
        ),
        # the README scenario in characteristic 0: e < 0 there has no
        # x >= p branch, so the boundary 3E - 6F is no curve
        "classify:readme-in-characteristic-0": _edited(
            "classify", BODIES["classify"], ("scenario", "model", "p"), 0),
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
    cases.update(_nested_value_cases())
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


def _edited(request, body, path, value):
    """The argv and document text of ``request`` with ``body``, its value
    at ``path`` (keys and indices from the body's top) set to ``value``."""
    body = json.loads(json.dumps(body))
    node = body
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = value
    return ([COMMAND_OF[request], "--in", "{doc}"],
            json.dumps(_document(request, **body)))


# the cluster chain of the deep klt case: 400 nodes, the last one with
# a key no table lists
CHAIN_DEPTH = 400


def _chain(depth):
    node = {"branches": ["a", "b"], "colour": "red"}
    for _ in range(depth - 1):
        node = {"branches": ["a", "b"], "children": [node]}
    return node


def _nested_value_cases():
    """One malformed value two or more levels below the root of its
    document, for every document kind, and klt cluster nodes deep in
    the forest."""
    forest = {**MIXED_FOREST,
              "clusters": MIXED_FOREST["clusters"][:1] + [_chain(CHAIN_DEPTH)]}
    return {
        "classify:model-genus-not-an-integer": _edited(
            "classify", BODIES["classify"],
            ("scenario", "model", "genus"), "4"),
        "classify:boundary-class-not-a-rational": _edited(
            "classify", BODIES["classify"],
            ("scenario", "boundary", 0, "class", 1), "-6.0"),
        "sweep:box-bound-not-an-integer": _edited(
            "sweep", BODIES["sweep"], ("box", "b", 1), 20.0),
        "sweep:model-p-over-the-cap": _edited(
            "sweep", BODIES["sweep"], ("model", "p"), 2 ** 16),
        "sweep:model-p-not-a-prime": _edited(
            "sweep", BODIES["sweep"], ("model", "p"), 4),
        "tango:family-p-not-a-prime": _edited(
            "tango", BODIES["tango"], ("family", "p"), 9),
        "tango:family-h-not-an-integer": _edited(
            "tango", BODIES["tango"], ("family", "h"), "3"),
        "construct:family-p-is-a-bool": _edited(
            "construct", BODIES["construct"], ("family", "p"), True),
        "verify-package:boundary-coefficient-not-a-string": _edited(
            "verify-package", {"package": PACKAGE},
            ("package", "boundary", 0, "coefficient"), 0.5),
        "verify-package:family-unknown-key": _edited(
            "verify-package", {"package": PACKAGE},
            ("package", "family", "genus"), 4),
        "klt:children-depth-three": _edited(
            "klt", BODIES["klt"],
            ("arrangement", "clusters", 1, "children", 0, "children", 0,
             "children"),
            [{"branches": ["e", "d"]}, {"branches": ["e", 5]}]),
        "klt:unknown-key-400-deep": (
            ["klt", "--in", "{doc}"],
            json.dumps(_document("klt", arrangement=forest)),
        ),
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
    "classify:boundary-class-not-a-rational":
        "error: scenario.boundary[0].class[1]: expected an exact rational"
        " like \"3\" or \"-9/2\", got '-6.0'\n",
    "classify:model-genus-not-an-integer":
        "error: scenario.model.genus: expected an integer\n",
    "classify:readme-in-characteristic-0":
        "error: 3E + -6F cannot be a curve on this model\n",
    "classify:ruled-chi-override":
        "error: scenario.model: unknown keys ['chi']; this schema is"
        " strict\n",
    "construct:family-p-is-a-bool":
        "error: family.p: expected an integer\n",
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
    "klt:children-depth-three":
        "error: arrangement.clusters[1].children[0].children[0].children[1]"
        ".branches[1]: expected a string\n",
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
    "klt:unknown-key-400-deep":
        "error: arrangement.clusters[1]"
        + ".children[0]" * (CHAIN_DEPTH - 1)
        + ": unknown keys ['colour']; this schema is strict\n",
    "klt:wrong-format": "error: format: expected 'svlab/1', got 'svlab/0'\n",
    "not-json":
        "error: not valid JSON: Expecting property name enclosed in double "
        "quotes: line 1 column 2 (char 1)\n",
    "sweep:box-bound-not-an-integer":
        "error: box.b[1]: expected an integer\n",
    "sweep:missing-body":
        "error: document: missing key 'boundary_coefficient'\n",
    "sweep:other-request":
        "error: document is a classify request, not sweep\n",
    "sweep:model-p-over-the-cap":
        "error: model.p: expected a characteristic below 65536\n",
    "sweep:model-p-not-a-prime":
        "error: model.p: expected 0 or a prime, got 4\n",
    "sweep:unknown-key":
        "error: document: unknown keys ['extra']; this schema is strict\n",
    "sweep:wrong-format": "error: format: expected 'svlab/1', got 'svlab/0'\n",
    "tango:family-h-not-an-integer":
        "error: family.h: expected an integer\n",
    "tango:family-p-not-a-prime":
        "error: family.p: expected 0 or a prime, got 9\n",
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
    "verify-package:boundary-coefficient-not-a-string":
        "error: package.boundary[0].coefficient: expected an exact rational"
        " like \"3\" or \"-9/2\", got 0.5\n",
    "verify-package:family-unknown-key":
        "error: package.family: unknown keys ['genus']; this schema is"
        " strict\n",
    "verify-package:missing-body": "error: document: missing key 'package'\n",
    "verify-package:other-request":
        "error: document is a sweep request, not verify-package\n",
    "verify-package:old-shape":
        "error: package: unknown keys ['certificate', 'model']; this schema"
        " is strict\n",
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
