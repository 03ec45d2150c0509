"""Report parsing and the benchmark's own verdict oracles.

Every expected value here comes from a closed form, from how the input
was built, or from a small independent walk.  Nothing is read back from
svlab's library code: the oracles only see the bytes a user would see.
"""

import json
import re
from fractions import Fraction

_TOKEN = re.compile(r'([\w-]+)=("(?:[^"\\]|\\.)*"|\S+)')


class Report:
    """A parsed report: the command, its check lines and the exit line."""

    def __init__(self, command, checks, exit_code):
        self.command = command
        self.checks = checks  # [(name, status, {key: value})]
        self.exit_code = exit_code

    def lines(self, name):
        return [c for c in self.checks if c[0] == name]

    def one(self, name):
        found = self.lines(name)
        if len(found) != 1:
            raise OracleMismatch(f"expected one {name!r} line, got {len(found)}")
        return found[0]


class OracleMismatch(Exception):
    """The program's output disagrees with the oracle."""


def parse_report(text: str, fmt: str) -> Report:
    lines = text.splitlines()
    if not lines:
        raise OracleMismatch("empty report")
    if fmt == "machine":
        return _parse_machine(lines)
    return _parse_text(lines)


def _parse_machine(lines) -> Report:
    head = dict(_fields(lines[0]))
    if not lines[0].startswith("report ") or "command" not in head:
        raise OracleMismatch(f"bad machine header {lines[0]!r}")
    checks = []
    exit_code = None
    for line in lines[1:]:
        fields = _fields(line)
        if line.startswith("check "):
            detail = dict(fields[2:])
            checks.append((fields[0][1], fields[1][1], detail))
        elif line.startswith("exit "):
            exit_code = int(dict(fields)["code"])
        else:
            raise OracleMismatch(f"unexpected machine line {line!r}")
    return Report(head["command"], checks, exit_code)


def _fields(line):
    return [
        (key, json.loads(raw) if raw.startswith('"') else raw)
        for key, raw in _TOKEN.findall(line)
    ]


def _parse_text(lines) -> Report:
    if not lines[0].startswith("svlab "):
        raise OracleMismatch(f"bad text header {lines[0]!r}")
    checks = []
    exit_code = None
    for line in lines[1:]:
        if line.startswith("    "):
            if not checks:
                raise OracleMismatch("detail line before any check line")
            key, _, value = line[4:].partition(": ")
            checks[-1][2][key] = value
        elif line.startswith("exit "):
            exit_code = int(line[5:])
        else:
            name, _, status = line.rpartition(": ")
            checks.append((name, status, {}))
    return Report(lines[0][6:], checks, exit_code)


# -- closed forms ----------------------------------------------------------

def family_genus(kind: str, p: int, h) -> int:
    """Genus from the curve equation, not from the program."""
    if kind == "hyperelliptic":
        # y^2 = (odd degree ph polynomial): g = (deg - 1) / 2
        return (p * h - 1) // 2
    if kind == "artinschreier":
        # y^m = x^p - x with gcd(m, p) = 1: g = (m - 1)(p - 1) / 2
        m = h * p - 1
        return (m - 1) * (p - 1) // 2
    # smooth plane curve of degree d = p + 1
    d = p + 1
    return (d - 1) * (d - 2) // 2


def tango_expectation(kind: str, p: int, h) -> dict:
    g = family_genus(kind, p, h)
    bound = 2 * (g - 1) // p
    if kind == "tangoplane":
        # catalogue value, carried with asserted provenance
        v_inf = None
        n = p - 2
    else:
        # the witness differential has its whole divisor at infinity
        v_inf = 2 * g - 2
        n = v_inf // p
    return {
        "genus": g,
        "v_inf": v_inf,
        "n": n,
        "bound": bound,
        "equality": n == bound,
        "star": (n % 3 == 0) if p == 2 else None,
    }


def construct_refusal(kind: str, family: dict, allow_asserted: bool):
    """Why the package must be refused, or None when it must build."""
    t = tango_expectation(family["kind"], family["p"], family.get("h"))
    if t["n"] <= 0:
        return "invariant not positive"
    if not t["equality"]:
        return "invariant off the genus bound"
    if family["kind"] == "tangoplane" and not allow_asserted:
        return "asserted certificate without --allow-asserted"
    if family["p"] == 2 and kind in ("kollar", "semipos") and t["n"] % 3:
        return "p = 2 needs 3 | n"
    return None


def klt_walk(arrangement: dict) -> dict:
    """Resolve the cluster forest with an explicit stack: each point's
    exceptional coefficient is the sum of the incident coefficients
    (declared branches plus the parent's exceptional) minus 1."""
    coeff = {b["id"]: Fraction(b["coefficient"])
             for b in arrangement["branches"]}
    stack = [(node, None) for node in reversed(arrangement.get("clusters", []))]
    best = None
    blowups = 0
    while stack:
        node, parent = stack.pop()
        sigma = sum((coeff[b] for b in node["branches"]), Fraction(0))
        if parent is not None:
            sigma += parent
        value = sigma - 1
        blowups += 1
        best = value if best is None else max(best, value)
        for child in reversed(node.get("children", [])):
            stack.append((child, value))
    klt = all(c < 1 for c in coeff.values()) and (best is None or best < 1)
    return {
        "verdict": "klt" if klt else "not-klt",
        "max_exceptional": None if best is None else str(best),
        "blowups": blowups,
        "branches": len(coeff),
        "clusters": len(arrangement.get("clusters", [])),
    }


# -- per-request checks ----------------------------------------------------

def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise OracleMismatch(what)


def _bool_text(value) -> str:
    return "true" if value else "false"


def check_tango(report: Report, spec: dict) -> None:
    fam = spec["family"]
    want = tango_expectation(fam["kind"], fam["p"], fam.get("h"))
    _expect(report.exit_code == 0, "tango exit code")
    _, status, detail = report.one("genus-bound")
    _expect(status == "PASS", "genus-bound status")
    _expect(detail.get("genus") == str(want["genus"]), "genus")
    _expect(detail.get("bound") == str(want["bound"]), "bound")
    _expect(detail.get("equality") == _bool_text(want["equality"]),
            "equality")
    _, _, inv = report.one("invariant")
    _expect(inv.get("n") == str(want["n"]), "invariant n")
    if want["v_inf"] is None:
        _expect("v_inf" not in inv, "v_inf on an asserted family")
    else:
        _expect(inv.get("v_inf") == str(want["v_inf"]), "v_inf")
    stars = report.lines("star-condition")
    if want["star"] is None:
        _expect(not stars, "star condition off p = 2")
    else:
        _expect(len(stars) == 1 and stars[0][2].get("value")
                == _bool_text(want["star"]), "star condition")


def check_package(report: Report, spec: dict) -> None:
    """A built package: every line passes and the head carries the
    closed-form genus, n and e = -n."""
    fam = spec["family"]
    want = tango_expectation(fam["kind"], fam["p"], fam.get("h"))
    _expect(report.exit_code == 0, "package exit code")
    _, _, head = report.one("package")
    _expect(head.get("kind") == spec["kind"], "package kind")
    _expect(head.get("genus") == str(want["genus"]), "package genus")
    _expect(head.get("n") == str(want["n"]), "package n")
    _expect(head.get("e") == str(-want["n"]), "package e")
    _expect(all(c[1] == "PASS" for c in report.checks), "a check failed")
    _expect(report.one("package-valid")[1] == "PASS", "package-valid")


def check_classify(report: Report, spec: dict) -> None:
    _expect(report.exit_code == 0, "classify exit code")
    _, _, cls = report.one("classification")
    _expect(cls.get("case") == spec["case"],
            f"case {cls.get('case')} != {spec['case']}")
    _, _, dec = report.one("decision")
    _expect(dec.get("result") == spec["result"],
            f"result {dec.get('result')} != {spec['result']}")
    if spec.get("rule") is not None:
        _expect(dec.get("rule") == spec["rule"], "decision rule")


def check_klt(report: Report, spec: dict) -> None:
    _expect(report.exit_code == 0, "klt exit code")
    _, _, arr = report.one("arrangement")
    _expect(arr.get("branches") == str(spec["branches"]), "branch count")
    _expect(arr.get("clusters") == str(spec["clusters"]), "cluster count")
    _expect(len(report.lines("blowup")) == spec["blowups"], "blowup count")
    _, _, verdict = report.one("klt-verdict")
    _expect(verdict.get("verdict") == spec["verdict"], "klt verdict")
    _expect(verdict.get("max_exceptional") == spec["max_exceptional"],
            "max exceptional coefficient")


def check_sweep(report: Report, spec: dict) -> None:
    _expect(report.exit_code == 0, "sweep exit code")
    _expect(len(report.lines("entry")) == spec["entries"], "entry lines")
    status, summary = report.one("summary")[1:]
    _expect(status == "PASS", "summary status")
    _expect(summary.get("entries") == str(spec["entries"]), "entries")
    _expect(summary.get("disagreements") == "0", "disagreements")


def normalized_checks(report: Report):
    return [(n, s, sorted(d.items())) for n, s, d in report.checks]


def check_request(request: dict, returncode: int, stdout: str, stderr: str,
                  emitted: dict) -> None:
    """Raise OracleMismatch unless the request produced the verdict its
    oracle predicts."""
    _expect("Traceback" not in stderr, "traceback on stderr")
    spec = request["expect"]
    kind = request["kind"]
    if kind == "construct":
        reason = construct_refusal(spec["kind"], spec["family"],
                                   spec["allow_asserted"])
        if reason is not None:
            _expect(returncode == 2 and stdout == ""
                    and stderr.startswith("error:"),
                    f"expected a refusal ({reason})")
            return
    _expect(returncode == 0, f"exit code {returncode}: {stderr.strip()[:200]}")
    report = parse_report(stdout, request["format"])
    _expect(report.command == ("verify" if kind == "verify" else kind),
            "report command")
    if kind == "tango":
        check_tango(report, spec)
    elif kind == "construct":
        check_package(report, spec)
    elif kind == "verify":
        expected = emitted[spec["emit"]]
        _expect(normalized_checks(report) == expected,
                "verify lines differ from the construct report")
    elif kind == "classify":
        check_classify(report, spec)
    elif kind == "klt":
        check_klt(report, spec)
    elif kind == "sweep":
        check_sweep(report, spec)
    else:
        raise OracleMismatch(f"unknown request kind {kind!r}")


def check_fiber_op(op: dict, outcome: dict) -> None:
    """One fiber-trees operation: every fiber reduces to a single 0-curve
    after (components - 1) contractions, the D-degree survives, the
    audit finds no obstruction, and decide answers from the case."""
    blowups = [len(seq) for seq in op["fibers"]]
    _expect(outcome["reduced"] == [[0, 1, op["d"]]] * len(blowups),
            "reduced fibers are not single 0-curves")
    _expect(outcome["contractions"] == sum(blowups), "contraction count")
    _expect(outcome["d_degree"] == op["d"], "D-degree not preserved")
    _expect(outcome["audits"] == [[-2, False]] * len(blowups),
            "minimality audit")
    if op["genus"] <= 1:
        want = ["B_II", "unknown", None]
    else:
        want = ["C", "m=1", "nonvanish.fiber-degree-threshold"]
    _expect(outcome["decide"] == want, f"decide {outcome['decide']}")
