"""Seeded request corpora, one builder per workload.

A corpus is plain JSON data: the documents to write, the ``construct
--emit`` calls that produce the ``verify`` documents, and the request
round that the closed loop cycles through.  Each request carries the
oracle's expectation, derived from how the input was built.  The seed
picks the inputs; the composition of a round (which kinds, which
families, which sizes) is fixed per workload, so that runs with
different seeds measure the same amount of work.
"""

import random

from oracles import construct_refusal, klt_walk

FORMAT = "svlab/1"

WHY = {
    "cli-small": (
        "all six subcommands at fixture size: interpreter start and import"
        " dominate, the heavy kernels are bypassed"
    ),
    "curve-ladder": (
        "tango, construct and verify up a ladder of curve families:"
        " series roots and field arithmetic dominate, the lattice idles"
    ),
    "lattice-heavy": (
        "10^4 sweep entries a run, rank-52 classify, wide and 200-deep klt"
        " forests"
        " (300+ deep crash with RecursionError, ROADMAP item 5): lattice,"
        " nonvanish, kltcalc, reports dominate"
    ),
    "fiber-trees": (
        "in-process fiber trees of 10 to 150 blow-ups through reduce_model,"
        " audit and decide: the only workload where fibered works"
    ),
}

WORKLOADS = tuple(WHY)

# Ladder of curve families for curve-ladder, grouped by default precision
# 4g + 2p.  The set is fixed so that per-family layer rows keep their
# names across seeds; the seed varies the kinds, formats and order.
LADDER = (
    ("hyperelliptic", 3, 3), ("artinschreier", 2, 5),        # 20-22
    ("artinschreier", 2, 8), ("artinschreier", 3, 3),
    ("hyperelliptic", 5, 3),                                 # 32-38
    ("artinschreier", 3, 4), ("hyperelliptic", 3, 7),
    ("hyperelliptic", 7, 3), ("hyperelliptic", 5, 5),
    ("artinschreier", 3, 5),                                 # 46-58
    ("artinschreier", 3, 8), ("artinschreier", 5, 3),        # 94-114
    ("artinschreier", 5, 4),                                 # 154
)
LADDER_VERIFY = (
    ("hyperelliptic", 3, 3), ("artinschreier", 3, 3),
    ("hyperelliptic", 7, 3), ("artinschreier", 3, 8),
    ("artinschreier", 5, 3),
)
# Run once per run: ROADMAP item 2 states its target on this family.
LADDER_ONCE = ("artinschreier", 5, 8)

# klt forests deeper than this crash the CLI with a RecursionError at the
# seed commit (a robustness bug, ROADMAP item 5), so forests stay at or
# below it.
MAX_FOREST_DEPTH = 200

_KIND_NAMES = {
    "hyperelliptic": "Hyperelliptic",
    "artinschreier": "ArtinSchreier",
    "tangoplane": "TangoPlane",
}


def family_label(kind: str, p: int, h=None) -> str:
    name = f"{_KIND_NAMES[kind]}-{p}"
    return name if h is None else f"{name}-{h}"


def _family(kind, p, h=None) -> dict:
    fam = {"kind": kind, "p": p}
    if h is not None:
        fam["h"] = h
    return fam


class _Builder:
    def __init__(self, workload: str, seed: int):
        self.rng = random.Random(f"{workload}:{seed}")
        self.corpus = {
            "workload": workload,
            "seed": seed,
            "why": WHY[workload],
            "docs": {},
            "emits": [],
            "first": [],
            "round": [],
        }

    def doc(self, name: str, data: dict) -> str:
        if name in self.corpus["docs"]:
            raise ValueError(f"two documents named {name!r}")
        self.corpus["docs"][name] = data
        return "{doc:" + name + "}"

    def request(self, kind, tag, argv, expect, cost, where="round"):
        fmt = self.rng.choice(("text", "machine"))
        self.corpus[where].append({
            "kind": kind,
            "tag": tag,
            "argv": [kind, *argv, "--format", fmt],
            "format": fmt,
            "expect": expect,
            "cost": cost,
        })

    # -- curve requests -------------------------------------------------

    def family_args(self, fam: dict, request: str):
        """Flags or a request document, picked by the seed."""
        if self.rng.random() < 0.5:
            argv = ["--family", fam["kind"], "--p", str(fam["p"])]
            if "h" in fam:
                argv += ["--h", str(fam["h"])]
            return argv, {}
        return None, {"format": FORMAT, "request": request, "family": fam}

    def tango(self, fam, cost, where="round"):
        argv, doc = self.family_args(fam, "tango")
        tag = family_label(fam["kind"], fam["p"], fam.get("h"))
        if argv is None:
            argv = ["--in", self.doc(f"tango:{tag}", doc)]
        self.request("tango", f"tango:{tag}", argv, {"family": fam}, cost,
                     where=where)

    def construct(self, fam, kind, allow, cost):
        argv, doc = self.family_args(fam, "construct")
        tag = family_label(fam["kind"], fam["p"], fam.get("h")) + f":{kind}"
        if allow:
            tag += ":allow-asserted"
        if argv is None:
            doc["kind"] = kind
            if allow:
                doc["allow_asserted"] = True
            argv = ["--in", self.doc(f"construct:{tag}", doc)]
        else:
            argv += ["--kind", kind]
            if allow:
                argv.append("--allow-asserted")
        expect = {"family": fam, "kind": kind, "allow_asserted": allow}
        self.request("construct", f"construct:{tag}", argv, expect, cost)

    def verify(self, fam, cost):
        """Emit a package in set-up; verify must reproduce its lines."""
        allow = fam["kind"] == "tangoplane"
        kinds = [k for k in ("kv", "kollar", "semipos")
                 if construct_refusal(k, fam, allow) is None]
        kind = self.rng.choice(kinds)
        tag = family_label(fam["kind"], fam["p"], fam.get("h"))
        name = f"package-{tag}-{kind}"
        argv = ["construct", "--family", fam["kind"], "--p", str(fam["p"])]
        if "h" in fam:
            argv += ["--h", str(fam["h"])]
        argv += ["--kind", kind, "--format", "machine"]
        if allow:
            argv.append("--allow-asserted")
        self.corpus["emits"].append({
            "name": name,
            "argv": argv,
            "expect": {"family": fam, "kind": kind, "allow_asserted": allow},
        })
        self.request("verify", f"verify:{tag}:{kind}",
                     ["--in", "{emit:" + name + "}"], {"emit": name}, cost)

    # -- lattice requests -----------------------------------------------

    def classify(self, tag, scenario, case, result, rule, cost):
        path = self.doc(tag, {
            "format": FORMAT, "request": "classify", "scenario": scenario,
        })
        self.request("classify", tag, ["--in", path],
                     {"case": case, "result": result, "rule": rule}, cost)

    def klt(self, tag, arrangement, cost):
        path = self.doc(tag, {
            "format": FORMAT, "request": "klt", "arrangement": arrangement,
        })
        self.request("klt", tag, ["--in", path], klt_walk(arrangement), cost)

    def sweep(self, tag, model, a_range, b_range, coefficient, cost):
        path = self.doc(tag, {
            "format": FORMAT,
            "request": "sweep",
            "model": model,
            "box": {"a": list(a_range), "b": list(b_range)},
            "boundary_coefficient": coefficient,
        })
        entries = ((a_range[1] - a_range[0] + 1)
                   * (b_range[1] - b_range[0] + 1))
        self.request("sweep", tag, ["--in", path, "--jobs", "1"],
                     {"entries": entries}, cost)

    def finish(self) -> dict:
        self.corpus["round"] = _spread(self.corpus["round"], self.rng)
        for req in self.corpus["first"] + self.corpus["round"]:
            del req["cost"]
        return self.corpus


def _spread(requests, rng):
    """Order a round so that every cost band is spread evenly over it: a
    run that stops part-way through a round then still holds its share
    of heavy and light requests."""
    bands = {}
    for req in requests:
        bands.setdefault(req["cost"], []).append(req)
    keyed = []
    for cost in sorted(bands):
        group = bands[cost]
        rng.shuffle(group)
        offset = rng.random()
        for i, req in enumerate(group):
            keyed.append(((i + offset) / len(group), cost, req["tag"], req))
    keyed.sort(key=lambda item: item[:3])
    return [item[3] for item in keyed]


# -- scenario templates -----------------------------------------------------

def _proximities(rng, k):
    """Proximity data for k blown-up points: chains of infinitely near
    points, with the occasional satellite point and fresh chain."""
    out = []
    for j in range(k):
        roll = rng.random()
        if j == 0 or roll < 0.1:
            out.append([])
        elif j >= 2 and roll < 0.3 and out[j - 1] == [j - 2]:
            out.append([j - 1, j - 2])
        else:
            out.append([j - 1])
    return out


def _blown_up_scenario(rng, rank, template):
    """Irregular ruled scenario on a model blown up to ``rank``.

    D is pulled back from the base (zero exceptional coefficients), so D
    is nef whenever aE + bF is; a, b are taken well inside the nef cone
    so that H = D - K - B stays ample.  The template fixes the verdict:

    - ``threshold``: no boundary, so H.F = a + 2 > 1: case C, m = 1 by
      the fiber-degree threshold;
    - ``doubling``: a boundary xE + yF with coefficient 3/4 pushes H.F
      into (0, 1] at fiber degree a >= 2 with D^2 > 0: case C, m <= 2 by
      the doubling bound;
    - ``open``: kappa - K declared negative with D^2 > 0: case CR,
      unknown.
    """
    k = rank - 2
    p = rng.choice((2, 3, 5, 7))
    g = rng.randrange(2, 6)
    e = rng.randrange(0, 3)
    a = rng.randrange(2, 5)
    b = a * e + 2 * g + rng.randrange(4, 12)
    zeros = ["0"] * k
    scenario = {
        "model": {"p": p, "genus": g, "e": e,
                  "exceptionals": _proximities(rng, k)},
        "kodaira": "-inf",
        "chi_o": 1 - g,
        "q": g,
        "relatively_minimal": False,
        "divisor": [str(a), str(b)] + zeros,
    }
    if template == "threshold":
        return scenario, ("C", "m=1", "nonvanish.fiber-degree-threshold")
    if template == "doubling":
        # 3x/4 >= a + 1 (threshold fails) and 3x/4 < a + 2 (H.F > 0)
        x = -(-4 * (a + 1) // 3)
        y = x * e + rng.randrange(1, 4)
        scenario["boundary"] = [
            {"class": [str(x), str(y)] + zeros, "coefficient": "3/4"}
        ]
        return scenario, ("C", "m<=2", "nonvanish.euler-doubling-bound")
    scenario["kappa_minus_k_nonneg"] = False
    return scenario, ("CR", "unknown", None)


def _pure_scenarios(rng):
    """Classify documents on pure models, with the verdict each one was
    built to reach."""
    out = []
    # the README scenario: one negative boundary component on e < 0
    out.append(("classify:readme", {
        "model": {"p": 3, "genus": 4, "e": -2},
        "kodaira": "-inf", "chi_o": -3, "q": 4,
        "relatively_minimal": True,
        "divisor": ["0", "6"],
        "boundary": [{"class": ["3", "-6"], "coefficient": "1/2"}],
    }, ("C_M", "m=1", "nonvanish.chi-product")))
    # zero divisor on a rational ruled surface with -K ample (e in {0, 1})
    p = rng.choice((2, 3, 5))
    out.append(("classify:zero", {
        "model": {"p": p, "genus": 0, "e": rng.randrange(0, 2)},
        "kodaira": "-inf", "chi_o": 1, "q": 0,
        "relatively_minimal": True, "divisor": ["0", "0"],
    }, ("A", "m=1", "nonvanish.structure-sheaf-euler")))
    # aE + bF with a, b >= 1 on P^1 x P^1: chi > 0 and H = D - K ample
    a, b = rng.randrange(1, 4), rng.randrange(1, 6)
    kodaira = rng.choice(("-inf", 0))
    out.append(("classify:euler", {
        "model": {"p": rng.choice((2, 3)), "genus": 0, "e": 0},
        "kodaira": kodaira, "chi_o": 1, "q": 0,
        "relatively_minimal": True, "divisor": [str(a), str(b)],
    }, ("B_II" if kodaira == "-inf" else "B_I", "m=1",
        "nonvanish.euler-characteristic")))
    # relatively minimal irregular ruled, e >= 0, no boundary: H.F = a + 2
    g, e = rng.randrange(2, 6), rng.randrange(0, 3)
    a = rng.randrange(0, 4)
    out.append(("classify:threshold", {
        "model": {"p": rng.choice((3, 5, 7)), "genus": g, "e": e},
        "kodaira": "-inf", "chi_o": 1 - g, "q": g,
        "relatively_minimal": True,
        "divisor": [str(a), str(a * e + 2 * g + rng.randrange(1, 6))],
    }, ("C", "m=1", "nonvanish.fiber-degree-threshold")))
    return out


# -- klt arrangements -------------------------------------------------------

def _coefficient(rng, low, high):
    den = rng.choice((4, 5, 6, 8, 10, 12))
    num = rng.randrange(int(low * den), int(high * den) + 1)
    return f"{num}/{den}"


def _chain(ids, depth):
    """A chain of infinitely near points shared by every branch in ids,
    built leaf first so no recursion is needed."""
    node = {"branches": list(ids)}
    for _ in range(depth - 1):
        node = {"branches": list(ids), "children": [node]}
    return node


def _small_arrangement(rng, n):
    ids = [f"b{i}" for i in range(n)]
    branches = [{"id": b, "coefficient": _coefficient(rng, 0.1, 0.9)}
                for b in ids]
    root = {"branches": ids}
    if rng.random() < 0.5:
        root["children"] = [{"branches": rng.sample(ids, 2)}]
    return {"branches": branches, "clusters": [root]}


def _wide_arrangement(rng, roots):
    """Many transverse points, each on its own two or three branches."""
    branches, clusters = [], []
    for r in range(roots):
        ids = [f"r{r}x{i}" for i in range(rng.choice((2, 3)))]
        for b in ids:
            branches.append({"id": b,
                             "coefficient": _coefficient(rng, 0.0, 0.6)})
        clusters.append({"branches": ids})
    return {"branches": branches, "clusters": clusters}


def _deep_arrangement(rng, depth):
    """Two branches tangent to order ``depth``; the seed decides whether
    their coefficients sum below 1 (klt) or above it (not klt)."""
    if rng.random() < 0.5:
        c1, c2 = _coefficient(rng, 0.05, 0.45), _coefficient(rng, 0.05, 0.45)
    else:
        c1, c2 = _coefficient(rng, 0.55, 0.9), _coefficient(rng, 0.55, 0.9)
    return {
        "branches": [{"id": "u", "coefficient": c1},
                     {"id": "v", "coefficient": c2}],
        "clusters": [_chain(("u", "v"), depth)],
    }


def _forest_arrangement(rng, trees, depth):
    """Wide and deep: several chains, each splitting at its root into
    two tangent pairs."""
    branches, clusters = [], []
    for t in range(trees):
        ids = [f"t{t}x{i}" for i in range(4)]
        for b in ids:
            branches.append({"id": b,
                             "coefficient": _coefficient(rng, 0.05, 0.3)})
        clusters.append({
            "branches": ids,
            "children": [_chain(ids[:2], depth - 1),
                         _chain(ids[2:], depth - 1)],
        })
    return {"branches": branches, "clusters": clusters}


# -- workloads --------------------------------------------------------------

_SMALL_FAMILIES = (
    ("hyperelliptic", 3, 3), ("hyperelliptic", 5, 3),
    ("artinschreier", 2, 5), ("artinschreier", 3, 3),
)


def cli_small(seed: int) -> dict:
    b = _Builder("cli-small", seed)
    rng = b.rng
    plane = _family("tangoplane", rng.choice((3, 5, 7)))
    small = [_family(*f) for f in _SMALL_FAMILIES]
    for fam in small + [plane, _family("artinschreier", 2,
                                       rng.choice((4, 8)))]:
        b.tango(fam, cost=1)
    for fam in small:
        b.construct(fam, rng.choice(("kv", "kollar", "semipos")), False,
                    cost=1)
    b.construct(plane, rng.choice(("kv", "kollar", "semipos")), True, cost=1)
    # refused: the asserted certificate without its flag
    b.construct(_family("tangoplane", 3), "kv", False, cost=0)
    for fam in small + [plane]:
        b.verify(fam, cost=1)
    for tag, scenario, (case, result, rule) in _pure_scenarios(rng):
        b.classify(tag, scenario, case, result, rule, cost=1)
    for rank in (4, 7):
        template = rng.choice(("threshold", "doubling", "open"))
        scenario, verdict = _blown_up_scenario(rng, rank, template)
        b.classify(f"classify:rank{rank}", scenario, *verdict, cost=1)
    b.klt("klt:triple", {
        "branches": [{"id": "b1", "coefficient": "2/5"},
                     {"id": "b2", "coefficient": "4/5"},
                     {"id": "b3", "coefficient": "3/4"}],
        "clusters": [{"branches": ["b1", "b2", "b3"]}],
    }, cost=1)
    b.klt("klt:tangent", {
        "branches": [{"id": "b2", "coefficient": "4/5"},
                     {"id": "b3", "coefficient": "3/4"}],
        "clusters": [{"branches": ["b2", "b3"],
                      "children": [{"branches": ["b2", "b3"]}]}],
    }, cost=1)
    for i in range(2):
        b.klt(f"klt:small{i}", _small_arrangement(rng, rng.randrange(2, 5)),
              cost=1)
    # the 186-entry box of the README, shifted along b by the seed
    shift = rng.randrange(0, 4)
    b.sweep("sweep:readme", {"p": 3, "genus": 4, "e": -2},
            (0, 5), (-10 + shift, 20 + shift), "1/2", cost=2)
    return b.finish()


def curve_ladder(seed: int) -> dict:
    b = _Builder("curve-ladder", seed)
    rng = b.rng
    for index, fam in enumerate(LADDER):
        cost = index // 3
        fam = _family(*fam)
        b.tango(fam, cost)
        b.construct(fam, rng.choice(("kv", "kollar", "semipos")), False,
                    cost)
    for fam in LADDER_VERIFY:
        b.verify(_family(*fam), cost=LADDER.index(fam) // 3)
    b.tango(_family(*LADDER_ONCE), cost=9, where="first")
    return b.finish()


# five boxes of 1000 entries each per round, so 1.5 * 10^4 entries in a
# run of three rounds; small boxes keep many sweeps in every run
SWEEP_BOX = (4, 250)
# (p, g, e) with pn <= 2g - 2 for n = -e, so the multisection pE - pnF
# passes the curve constraints and nearly all of each box is certified;
# one model per box keeps the cost of a round the same for every seed
SWEEP_MODELS = ((3, 4, -2), (2, 3, -2), (5, 6, -2), (2, 5, -3), (3, 5, -2))
# Ten classify and four deep klt requests are the light cluster of a
# round, more than half of it, so the median sits inside that cluster
# rather than on its edge.
CLASSIFY_SLOTS = ((52, "threshold"), (52, "doubling"), (52, "open"),
                  (37, "doubling"), (22, "threshold"), (22, "doubling"),
                  (22, "open"), (7, "threshold"), (7, "doubling"),
                  (7, "open"))


def lattice_heavy(seed: int) -> dict:
    b = _Builder("lattice-heavy", seed)
    rng = b.rng
    for i, (p, g, e) in enumerate(SWEEP_MODELS):
        a0 = rng.randrange(0, 4)
        b0 = rng.randrange(-40, 0)
        b.sweep(f"sweep:box{i}", {"p": p, "genus": g, "e": e},
                (a0, a0 + SWEEP_BOX[0] - 1), (b0, b0 + SWEEP_BOX[1] - 1),
                "1/2", cost=3)
    for rank, template in CLASSIFY_SLOTS:
        scenario, verdict = _blown_up_scenario(rng, rank, template)
        b.classify(f"classify:rank{rank}:{template}", scenario, *verdict,
                   cost=1)
    b.klt("klt:wide600", _wide_arrangement(rng, 600), cost=2)
    b.klt("klt:wide1200", _wide_arrangement(rng, 1200), cost=2)
    b.klt("klt:deep50", _deep_arrangement(rng, 50), cost=1)
    b.klt("klt:deep100", _deep_arrangement(rng, 100), cost=1)
    b.klt("klt:deep150", _deep_arrangement(rng, 150), cost=1)
    b.klt(f"klt:deep{MAX_FOREST_DEPTH}",
          _deep_arrangement(rng, MAX_FOREST_DEPTH), cost=1)
    b.klt("klt:forest", _forest_arrangement(rng, 12, 60), cost=2)
    return b.finish()


# blow-up counts of one round; the fiber count cycles through 1, 2, 3
FIBER_SIZES = tuple(range(10, 151, 10))


def _blowup_sequence(rng, count):
    """Blow-ups on components or on edges of one fiber that starts as a
    single 0-curve.  The edge set is simulated here, so every index is
    valid by construction."""
    edges = set()
    size = 1
    seq = []
    for _ in range(count):
        if edges and rng.random() < 0.4:
            i, j = rng.choice(sorted(edges))
            edges.discard((i, j))
            edges.update({(i, size), (j, size)})
            seq.append([i, j])
        else:
            i = rng.randrange(size)
            edges.add((i, size))
            seq.append([i])
        size += 1
    return seq


def fiber_trees(seed: int) -> dict:
    rng = random.Random(f"fiber-trees:{seed}")
    ops = []
    for index, total in enumerate(FIBER_SIZES):
        fibers = 1 + index % 3
        share = [total // fibers] * fibers
        share[0] += total - sum(share)
        ops.append({
            "tag": f"fiber:{total}x{fibers}",
            "genus": rng.randrange(0, 5),
            "p": rng.choice((0, 2, 3, 5)),
            "d": rng.choice((0, 1, 2)),
            "fibers": [_blowup_sequence(rng, n) for n in share],
        })
    rng.shuffle(ops)
    return {"workload": "fiber-trees", "seed": seed,
            "why": WHY["fiber-trees"], "ops": ops}


BUILDERS = {
    "cli-small": cli_small,
    "curve-ladder": curve_ladder,
    "lattice-heavy": lattice_heavy,
    "fiber-trees": fiber_trees,
}


def build(workload: str, seed: int) -> dict:
    return BUILDERS[workload](seed)


def tango_labels() -> list:
    """Names of the per-family certificate rows: the ladder and the family
    run once (the ladder holds the small families of cli-small too)."""
    fams = list(LADDER) + [LADDER_ONCE]
    return [family_label(*f) for f in fams]
