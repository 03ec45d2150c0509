"""Layer tracer: spans and counts recorded from outside the program.

The tracer rebinds the public names that each layer boundary is called
through (a module attribute, or a method on a class) with a wrapper
that records a span or bumps a counter.  Spans are kept in memory as
``[name, start_ns, end_ns, parent_index, key]`` and written out once,
when the request ends.  A layer's self time is its span's duration
minus the part covered by its child spans.

Run as a script, it traces one CLI request in a fresh interpreter::

    python bench/tracer.py SPANS.json REQUEST_ID -- tango --family ...
"""

import functools
import importlib
import json
import statistics
import sys
import time
from collections import Counter


class Tracer:
    def __init__(self, request_id: str = "0"):
        self.request_id = request_id
        self.spans = []
        self.counts = Counter()
        self.missing = []
        self._stack = []
        self._wrapped = {}

    # -- recording ------------------------------------------------------

    def span_wrapper(self, name, fn, key=None, on_result=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1,
                   key(args) if key else None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(self.counts, result)
            return result
        return wrapper

    def count_wrapper(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def region(self, name, key=None):
        """Context manager for a span opened by the benchmark itself."""
        return _Region(self, name, key)

    # -- installing -----------------------------------------------------

    def patch(self, target: str, make) -> None:
        """Rebind ``module:attr`` or ``module:Class.attr``.  Every binding
        of one function object gets the same wrapper, so a function
        imported under several names is never wrapped twice."""
        module_name, _, path = target.partition(":")
        try:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            fn = getattr(owner, attr)
        except (ImportError, AttributeError):
            self.missing.append(target)
            return
        wrapped = self._wrapped.get(id(fn))
        if wrapped is None:
            wrapped = make(fn)
            self._wrapped[id(fn)] = wrapped
            self._wrapped[id(wrapped)] = wrapped
        setattr(owner, attr, wrapped)

    def install(self) -> None:
        for targets, name, key, on_result in SPANS:
            for target in targets:
                self.patch(target, lambda fn, n=name, k=key, r=on_result:
                           self.span_wrapper(n, fn, k, r))
        for targets, name in COUNTS:
            for target in targets:
                self.patch(target, lambda fn, n=name:
                           self.count_wrapper(n, fn))

    def dump(self) -> dict:
        return {
            "request": self.request_id,
            "spans": self.spans,
            "counts": dict(self.counts),
            "missing": self.missing,
        }


class _Region:
    def __init__(self, tracer, name, key):
        self.tracer, self.name, self.key = tracer, name, key

    def __enter__(self):
        t = self.tracer
        self.rec = [self.name, 0, 0, t._stack[-1] if t._stack else -1,
                    self.key]
        t._stack.append(len(t.spans))
        t.spans.append(self.rec)
        self.rec[1] = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        self.rec[2] = time.perf_counter_ns()
        self.tracer._stack.pop()
        return False


# -- layer boundaries -------------------------------------------------------

def _family_key(args):
    fam = args[0]
    name = type(fam).__name__
    h = getattr(fam, "h", None)
    return f"{name}-{fam.p}" if h is None else f"{name}-{fam.p}-{h}"


def _rank_key(args):
    return args[0].model.rank


def _kind_key(args):
    return args[0]


def _package_kind_key(args):
    return args[0].kind


def _count_bytes(counts, result):
    counts["report.bytes"] += len(result.encode("utf-8"))


def _count_certified(counts, result):
    if result.status == "certified":
        counts["sweep.certified"] += 1


def _count_checks(counts, result):
    counts["construct.checks"] += len(result.results)


_SCHEMA = ("load_document", "scenario_from_document",
           "arrangement_from_document", "family_from_document",
           "family_from_fields", "construct_from_document",
           "sweep_from_document", "package_from_document",
           "package_to_document", "dumps_canonical", "family_document")
_CHECK_USERS = ("svlab.nonvanish", "svlab.construct", "svlab.cli.sweep")

# (targets, span name, key of the span, hook on the result); a target is
# every module that calls the function through its own binding
SPANS = (
    (tuple(f"svlab.cli.schema:{f}" for f in _SCHEMA), "schema", None, None),
    (("svlab.cli.main:render_text", "svlab.cli.main:render_machine"),
     "report.render", None, _count_bytes),
    (("svlab.cli.main:check",), "report.check", None, None),
    (("svlab.cli.sweep:sweep_entry",), "sweep.entry", None,
     _count_certified),
    (("svlab.cli.main:certify_tango", "svlab.cli.schema:certify_tango"),
     "tango.certify", _family_key, None),
    (("svlab.charpcurve.families:defining_residual",), "tango.residual",
     None, None),
    (("svlab.charpcurve.series:LaurentSeries.nth_root_unit",
      "svlab.charpcurve.series:LaurentSeries.sqrt_unit"),
     "series.root", None, None),
    (("svlab.lattice:DivisorClass.dot",), "lattice.dot", _rank_key, None),
    (tuple(f"{m}:certify_positivity" for m in _CHECK_USERS),
     "lattice.positivity", None, None),
    (("svlab.cli.main:decide", "svlab.nonvanish:decide"),
     "nonvanish.decide", None, None),
    (("svlab.cli.main:classify", "svlab.nonvanish:classify"),
     "nonvanish.classify", None, None),
    (("svlab.cli.main:is_klt",), "klt.is_klt", None, None),
    (("svlab.cli.main:build_package",), "construct.build", _kind_key, None),
    (("svlab.cli.main:verify_package",), "construct.verify",
     _package_kind_key, _count_checks),
    (("svlab.fibered:reduce_model", "svlab.nonvanish:reduce_model"),
     "fibered.reduce", None, None),
)

# (targets, counter name): hot calls that are counted, not timed
COUNTS = (
    (("svlab.charpcurve.series:LaurentSeries.__mul__",), "series.mul_calls"),
    (("svlab.charpcurve.series:LaurentSeries.__pow__",), "series.pow_calls"),
    (("svlab.charpcurve.gf:FieldElement.__mul__",
      "svlab.charpcurve.gf:FieldElement.__rmul__"), "gf.mul_calls"),
    (("svlab.charpcurve.gf:FieldElement.__add__",), "gf.add_calls"),
    (("svlab.lattice:RuledModel.gram_matrix",), "lattice.gram_builds"),
    (tuple(f"{m}:riemann_roch_chi" for m in _CHECK_USERS),
     "lattice.rr_calls"),
    (("svlab.kltcalc:blowup_step",), "klt.blowups"),
    (("svlab.kltcalc:ClusterArrangement.branch",), "klt.branch_lookups"),
    (("svlab.fibered:contract_component",), "fibered.contractions"),
    (("svlab.fibered:FiberTree.__post_init__",), "fibered.tree_validations"),
)


# -- aggregation ------------------------------------------------------------

def self_times(spans) -> list:
    """Duration minus the time covered by direct children, per span."""
    covered = [0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i]
            for i, (_, start, end, _, _) in enumerate(spans)]


def _has_ancestor(spans, index, names) -> bool:
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] in names:
            return True
        parent = spans[parent][3]
    return False


class Aggregate:
    """Per-layer totals over the traced requests of one run."""

    def __init__(self):
        self.calls = Counter()
        self.total_ns = Counter()
        self.self_ns = Counter()
        self.keyed = {}
        self.counts = Counter()
        self.requests = 0
        self.root_ns = []
        self.classify_in_decide = 0
        self.readme_decide_ns = []
        self.kv_package_ns = []
        self.missing = set()

    def add(self, dump: dict, tag: str) -> None:
        spans = dump["spans"]
        self.requests += 1
        self.counts.update(dump["counts"])
        self.missing.update(dump["missing"])
        selfs = self_times(spans)
        kv_ns = 0
        for i, (name, start, end, _, key) in enumerate(spans):
            dur = end - start
            self.calls[name] += 1
            self.total_ns[name] += dur
            self.self_ns[name] += selfs[i]
            if key is not None:
                self.keyed.setdefault((name, key), []).append(dur)
            if name == "series.root" and not _has_ancestor(
                    spans, i, {"series.root"}):
                self.root_ns.append(dur)
            if name == "nonvanish.classify" and _has_ancestor(
                    spans, i, {"nonvanish.decide"}):
                self.classify_in_decide += 1
            if name == "nonvanish.decide" and tag == "classify:readme":
                self.readme_decide_ns.append(dur)
            if name in ("construct.build", "construct.verify") \
                    and key == "kv":
                kv_ns += dur
        if kv_ns and tag.startswith("construct:"):
            self.kv_package_ns.append(kv_ns)

    def mean(self, name, scale) -> float:
        calls = self.calls[name]
        return self.total_ns[name] / calls / scale if calls else 0.0

    def keyed_mean(self, name, key, scale) -> float:
        values = self.keyed.get((name, key), [])
        return sum(values) / len(values) / scale if values else 0.0

    def keyed_median(self, name, key, scale) -> float:
        values = self.keyed.get((name, key), [])
        return statistics.median(values) / scale if values else 0.0

    def metrics(self, tango_labels) -> dict:
        ms, us = 1e6, 1e3
        per_request = max(self.requests, 1)
        entries = self.calls["sweep.entry"]
        decides = self.calls["nonvanish.decide"]
        out = {
            "schema.parse_ms": self.self_ns["schema"] / per_request / ms,
            "report.render_ms": (self.self_ns["report.render"]
                                 + self.self_ns["report.check"])
            / per_request / ms,
            "report.bytes": self.counts["report.bytes"],
            "sweep.entry_us": self.mean("sweep.entry", us),
            "sweep.entries": entries,
            "sweep.certified_ratio": (self.counts["sweep.certified"] / entries
                                      if entries else 0.0),
            "tango.residual_ms": self.mean("tango.residual", ms),
            "series.root_ms": (statistics.fmean(self.root_ns) / ms
                               if self.root_ns else 0.0),
            "series.mul_calls": self.counts["series.mul_calls"],
            "series.pow_calls": self.counts["series.pow_calls"],
            "gf.mul_calls": self.counts["gf.mul_calls"],
            "gf.add_calls": self.counts["gf.add_calls"],
            "lattice.dot_calls": self.calls["lattice.dot"],
            "lattice.dot_us": self.mean("lattice.dot", us),
            "lattice.gram_builds": self.counts["lattice.gram_builds"],
            "lattice.positivity_calls": self.calls["lattice.positivity"],
            "lattice.positivity_us": self.mean("lattice.positivity", us),
            "lattice.rr_calls": self.counts["lattice.rr_calls"],
            "nonvanish.decide_ms": self.mean("nonvanish.decide", ms),
            "nonvanish.decide_ms.readme": (
                statistics.fmean(self.readme_decide_ns) / ms
                if self.readme_decide_ns else 0.0),
            "nonvanish.classify_per_decide": (
                self.classify_in_decide / decides if decides else 0.0),
            "klt.is_klt_ms": self.mean("klt.is_klt", ms),
            "klt.blowups": self.counts["klt.blowups"],
            "klt.branch_lookups": self.counts["klt.branch_lookups"],
            "fibered.build_ms": self.mean("fibered.build", ms),
            "fibered.reduce_ms": self.mean("fibered.reduce", ms),
            "fibered.contractions": self.counts["fibered.contractions"],
            "fibered.tree_validations":
                self.counts["fibered.tree_validations"],
            "construct.build_ms": self.mean("construct.build", ms),
            "construct.verify_ms": self.mean("construct.verify", ms),
            "construct.checks": self.counts["construct.checks"],
            "construct.kv_build_verify_ms": (
                statistics.fmean(self.kv_package_ns) / ms
                if self.kv_package_ns else 0.0),
        }
        for rank in DOT_RANKS:
            out[f"lattice.dot_us.rank{rank}"] = self.keyed_mean(
                "lattice.dot", rank, us)
        for label in tango_labels:
            out[f"tango.certify_ms.{label}"] = self.keyed_median(
                "tango.certify", label, ms)
        return out


DOT_RANKS = (2, 22, 52)


# -- import cost ------------------------------------------------------------

IMPORT_GROUPS = ("svlab", "svlab.lattice", "svlab.kltcalc", "svlab.fibered",
                 "svlab.nonvanish", "svlab.construct", "svlab.charpcurve",
                 "svlab.cli")


def import_self_us(stderr: str) -> dict:
    """Self import time per top-level svlab module from ``-X importtime``
    output.  A module outside svlab is charged to the svlab module that
    imported it, so ``svlab.cli`` carries ``concurrent.futures``."""
    children = {}
    nodes = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        try:
            self_us = int(fields[0])
        except ValueError:
            continue  # the header line
        raw = fields[2]
        name = raw.strip()
        depth = (len(raw) - len(raw.lstrip()) - 1) // 2
        node = (name, self_us, children.pop(depth + 1, []))
        children.setdefault(depth, []).append(node)
    for depth in sorted(children):
        nodes.extend(children[depth])
    totals = Counter()
    stack = [(node, None) for node in nodes]
    while stack:
        (name, self_us, kids), owner = stack.pop()
        if name == "svlab" or name.startswith("svlab."):
            owner = ".".join(name.split(".")[:2])
        if owner is not None:
            totals[owner] += self_us
        stack.extend((kid, owner) for kid in kids)
    return totals


# -- one traced CLI request -------------------------------------------------

def _main(argv) -> int:
    out_path, request_id, sep, *cli_argv = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS.json REQUEST_ID -- ARGV...")
    # the package re-exports main(), which shadows the module attribute
    cli = importlib.import_module("svlab.cli.main")

    tracer = Tracer(request_id)
    tracer.install()
    try:
        with tracer.region("cli.main"):
            code = cli.main(cli_argv)
    except SystemExit as ex:  # argparse refusing its arguments
        code = ex.code if isinstance(ex.code, int) else 2
    finally:
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh, separators=(",", ":"))
    return code


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
