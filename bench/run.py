"""svlab benchmark: seeded request corpora, checked verdicts, timed end to end.

    python3 bench/run.py --workload cli-small --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is taken from
``src/`` with no install.  Each CLI request runs ``python -m svlab`` in a
fresh interpreter, one at a time, as a closed loop with one client, so
at most two processes are alive at once.  Every verdict is checked
against the benchmark's own oracle.

With ``--trace 0`` the last line of stdout is the end-to-end result.
Each timed sample is scaled by a speed reference taken right after it
(see speed.py), because the shared machine's speed drifts from one
minute to the next; the unscaled figures are in the detail line.

With ``--trace 1`` the last line holds the per-layer metrics of one
untraced and one traced pass over one round of the same corpus (no
scaling; ``--seconds`` does not apply).  The line before the result
carries the details: machine facts, seed, sample counts and the tail
percentile.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import oracles  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

REQUEST_TIMEOUT_S = 60
SETUPS = 3
PROBES = 15
TRACE_PROBES = 5
FIBER_SEGMENTS = 4
TAIL_ABOVE = 10

END_TO_END = {
    "verdict_p50_ms": "ms",
    "verdict_tail_ms": "ms",
    "verdicts_per_s": "1/s",
    "import_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_share": "share",
    "setup_s": "s",
}


def per_layer_units() -> dict:
    units = {
        "python.startup_ms": "ms",
        "cli.import_ms": "ms",
        "schema.parse_ms": "ms",
        "report.render_ms": "ms",
        "report.bytes": "bytes",
        "sweep.entry_us": "us",
        "sweep.entries": "count",
        "sweep.certified_ratio": "share",
        "tango.residual_ms": "ms",
        "series.root_ms": "ms",
        "series.mul_calls": "count",
        "series.pow_calls": "count",
        "gf.mul_calls": "count",
        "gf.add_calls": "count",
        "lattice.dot_calls": "count",
        "lattice.dot_us": "us",
        "lattice.gram_builds": "count",
        "lattice.positivity_calls": "count",
        "lattice.positivity_us": "us",
        "lattice.rr_calls": "count",
        "nonvanish.decide_ms": "ms",
        "nonvanish.decide_ms.readme": "ms",
        "nonvanish.classify_per_decide": "ratio",
        "klt.is_klt_ms": "ms",
        "klt.blowups": "count",
        "klt.branch_lookups": "count",
        "fibered.build_ms": "ms",
        "fibered.reduce_ms": "ms",
        "fibered.contractions": "count",
        "fibered.tree_validations": "count",
        "construct.build_ms": "ms",
        "construct.verify_ms": "ms",
        "construct.checks": "count",
        "construct.kv_build_verify_ms": "ms",
        "trace.overhead_ratio": "ratio",
    }
    for group in tracer.IMPORT_GROUPS:
        units[f"cli.import_self_ms.{group}"] = "ms"
    for rank in tracer.DOT_RANKS:
        units[f"lattice.dot_us.rank{rank}"] = "us"
    for label in workloads.tango_labels():
        units[f"tango.certify_ms.{label}"] = "ms"
    return units


def machine_facts() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "loadavg_at_start": list(os.getloadavg()),
    }


def child_env() -> dict:
    env = dict(os.environ)
    parts = [str(SRC)]
    if env.get("PYTHONPATH"):
        parts.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(parts)
    return env


class Session:
    """One benchmark run: a work directory, a child environment and the
    counters every request feeds."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.env = child_env()
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    # -- processes --------------------------------------------------------

    def spawn(self, argv, timeout=REQUEST_TIMEOUT_S):
        """Run one child to completion; returns (code, out, err, seconds).
        A child over the time limit is killed and reported as code None."""
        started = time.perf_counter()
        try:
            done = subprocess.run(
                argv, env=self.env, cwd=ROOT, capture_output=True,
                text=True, timeout=timeout,
            )
            code, out, err = done.returncode, done.stdout, done.stderr
        except subprocess.TimeoutExpired as ex:
            code, out, err = None, "", f"over the {timeout}s limit: {ex}"
        return code, out, err, time.perf_counter() - started

    def svlab(self, argv, timeout=REQUEST_TIMEOUT_S):
        return self.spawn([sys.executable, "-m", "svlab", *argv], timeout)

    def record(self, tag: str, error) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(f"{tag}: {error}")

    # -- set-up -------------------------------------------------------------

    def setup(self, index: int):
        """Generate the corpus, write its documents, check that the
        program starts, and emit the packages that verify reads."""
        corpus = workloads.build(self.workload, self.seed)
        where = self.workdir / f"setup{index}"
        where.mkdir(parents=True)
        paths = {}
        for name, doc in corpus.get("docs", {}).items():
            path = where / (name.replace(":", "_") + ".json")
            path.write_text(json.dumps(doc), encoding="utf-8")
            paths["{doc:" + name + "}"] = str(path)
        if corpus["workload"] == "fiber-trees":
            path = where / "ops.json"
            path.write_text(json.dumps(corpus), encoding="utf-8")
            paths["ops"] = str(path)
            probe = [sys.executable, "-c",
                     "import svlab.fibered, svlab.nonvanish"]
        else:
            probe = [sys.executable, "-m", "svlab", "--help"]
        code, _, err, _ = self.spawn(probe)
        if code != 0:
            raise SystemExit(f"the program does not start: {err.strip()}")
        emitted = {}
        for emit in corpus.get("emits", []):
            path = where / (emit["name"] + ".json")
            code, out, err, _ = self.svlab(
                emit["argv"] + ["--emit", str(path)])
            request = {"kind": "construct", "format": "machine",
                       "expect": emit["expect"]}
            try:
                oracles.check_request(request, code, out, err, {})
                emitted[emit["name"]] = oracles.normalized_checks(
                    oracles.parse_report(out, "machine"))
            except oracles.OracleMismatch as ex:
                raise SystemExit(f"set-up emit {emit['name']}: {ex}")
            paths["{emit:" + emit["name"] + "}"] = str(path)
        return corpus, paths, emitted

    # -- requests -----------------------------------------------------------

    @staticmethod
    def resolve(argv, paths):
        return [paths.get(a, a) for a in argv]

    def run_request(self, request, paths, emitted, traced=None):
        """Run and check one CLI request; returns its wall seconds."""
        argv = self.resolve(request["argv"], paths)
        if traced is None:
            code, out, err, seconds = self.svlab(argv)
        else:
            spans_path, request_id = traced
            code, out, err, seconds = self.spawn(
                [sys.executable, str(HERE / "tracer.py"), spans_path,
                 request_id, "--", *argv])
        error = None
        if code is None:
            error = err
        else:
            try:
                oracles.check_request(request, code, out, err, emitted)
            except oracles.OracleMismatch as ex:
                error = str(ex)
        self.record(request["tag"], error)
        return seconds

    def requests(self, corpus):
        """The closed loop's request order: the once-per-run requests,
        then the round, over and over."""
        yield from corpus["first"]
        while True:
            yield from corpus["round"]

    def run_fiber_worker(self, paths, start, seconds, spans_path=None):
        argv = [sys.executable, str(HERE / "fiber_worker.py"), paths["ops"],
                str(start), repr(seconds)]
        if spans_path is not None:
            argv.append(spans_path)
        code, out, err, wall = self.spawn(
            argv, timeout=seconds + 2 * REQUEST_TIMEOUT_S)
        if code != 0:
            raise SystemExit(f"fiber worker exited {code}: {err.strip()}")
        return json.loads(out), wall

    def check_fiber_ops(self, corpus, report):
        """Check each operation; returns (ms, reference ms) pairs."""
        latencies = []
        for index, ms, reference, outcome in report["ops"]:
            op = corpus["ops"][index]
            try:
                oracles.check_fiber_op(op, outcome)
                error = None
            except oracles.OracleMismatch as ex:
                error = str(ex)
            self.record(op["tag"], error)
            latencies.append((ms, reference))
        return latencies


# -- statistics ---------------------------------------------------------------

def tail(latencies):
    """The highest percentile with at least TAIL_ABOVE samples above it,
    as (value, percentile)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_ABOVE:
        return ordered[-1], 100.0
    return ordered[n - TAIL_ABOVE - 1], 100.0 * (n - TAIL_ABOVE) / n


def probe_ms(session, argv, count):
    samples = []
    for _ in range(count):
        code, _, err, seconds = session.spawn([sys.executable, *argv])
        if code != 0:
            raise SystemExit(f"probe {argv} failed: {err.strip()}")
        samples.append(seconds * 1e3)
    return samples


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux: the largest child waited for so far
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


# -- the two modes -------------------------------------------------------------

def times(latencies, imports, setups) -> dict:
    """The timed end-to-end metrics from samples in milliseconds."""
    tail_value, _ = tail(latencies)
    return {
        "verdict_p50_ms": statistics.median(latencies),
        "verdict_tail_ms": tail_value,
        # requests per second of request time: the reciprocal of the mean
        # latency, so the heavy requests weigh in
        "verdicts_per_s": 1e3 * len(latencies) / sum(latencies),
        "import_ms": statistics.median(imports),
        "setup_s": statistics.median(setups) / 1e3,
    }


def measure(session, seconds):
    """The closed loop runs until its requests have used ``seconds``.
    Every timed sample is kept with the speed reference taken right after
    it (see speed.py).  The repeated set-ups and the import probes are
    spread evenly over the window, on their own clock."""
    setups, imports, latencies = [], [], []  # (ms, reference ms) pairs

    def timed_setup():
        started = time.perf_counter()
        prepared = session.setup(len(setups))
        ms = (time.perf_counter() - started) * 1e3
        setups.append((ms, statistics.median(
            speed.reference_ms() for _ in range(5))))
        return prepared

    def import_probe():
        ms = probe_ms(session, ["-c", "import svlab.cli.main"], 1)[0]
        imports.append((ms, speed.reference_ms()))

    corpus, paths, emitted = timed_setup()
    events = [(k / SETUPS, timed_setup) for k in range(1, SETUPS)]
    events += [((k + 0.5) / PROBES, import_probe) for k in range(PROBES)]
    events.sort(key=lambda event: event[0])
    started = time.perf_counter()
    aside = 0.0

    def clock():
        return time.perf_counter() - started - aside

    def run_due(until):
        nonlocal aside
        while events and events[0][0] * seconds <= until:
            t0 = time.perf_counter()
            events.pop(0)[1]()
            aside += time.perf_counter() - t0

    if session.workload == "fiber-trees":
        for _ in range(FIBER_SEGMENTS):
            # each segment picks up the cycle where the last one stopped
            report, _ = session.run_fiber_worker(
                paths, len(latencies), seconds / FIBER_SEGMENTS)
            latencies += session.check_fiber_ops(corpus, report)
            run_due(clock())
    else:
        for request in session.requests(corpus):
            ms = session.run_request(request, paths, emitted) * 1e3
            latencies.append((ms, speed.reference_ms()))
            if clock() >= seconds:
                break
            run_due(clock())
    window = clock()
    run_due(float("inf"))

    samples = (latencies, imports, setups)
    metrics = times(*([speed.scaled(ms, ref) for ms, ref in pairs]
                      for pairs in samples))
    metrics["peak_rss_mb"] = peak_rss_mb()
    metrics["ok_share"] = (session.attempted - session.failed) \
        / session.attempted
    detail = {
        "samples": len(latencies),
        "window_s": window,
        "tail_percentile": tail([ms for ms, _ in latencies])[1],
        "tail_samples_above": min(TAIL_ABOVE, len(latencies) - 1),
        "unscaled": times(*([ms for ms, _ in pairs] for pairs in samples)),
        "reference_ms_median": statistics.median(
            ref for pairs in samples for _, ref in pairs),
        "import_samples_ms": imports,
        "setup_samples_ms": setups,
        "closed_loop": "one client, one request at a time",
    }
    return metrics, END_TO_END, detail


def trace_pass(session):
    corpus, paths, emitted = session.setup(0)
    agg = tracer.Aggregate()
    if session.workload == "fiber-trees":
        _, plain = session.run_fiber_worker(paths, 0, 0)
        spans_path = str(session.workdir / "spans.json")
        report, traced = session.run_fiber_worker(paths, 0, 0, spans_path)
        session.check_fiber_ops(corpus, report)
        with open(spans_path, encoding="utf-8") as fh:
            agg.add(json.load(fh), "fiber-trees")
    else:
        order = corpus["first"] + corpus["round"]
        plain = sum(session.run_request(r, paths, emitted) for r in order)
        traced = 0.0
        for index, request in enumerate(order):
            spans_path = str(session.workdir / f"spans{index}.json")
            traced += session.run_request(
                request, paths, emitted, (spans_path, str(index)))
            with open(spans_path, encoding="utf-8") as fh:
                agg.add(json.load(fh), request["tag"])
            os.unlink(spans_path)

    metrics = agg.metrics(workloads.tango_labels())
    metrics["trace.overhead_ratio"] = traced / plain
    metrics["python.startup_ms"] = statistics.median(
        probe_ms(session, ["-c", "pass"], TRACE_PROBES))
    per_group = {group: [] for group in tracer.IMPORT_GROUPS}
    totals = []
    for _ in range(TRACE_PROBES):
        code, _, err, _ = session.spawn(
            [sys.executable, "-X", "importtime", "-c",
             "import svlab.cli.main"])
        if code != 0:
            raise SystemExit(f"import probe failed: {err.strip()}")
        self_us = tracer.import_self_us(err)
        totals.append(sum(self_us.values()) / 1e3)
        for group in tracer.IMPORT_GROUPS:
            per_group[group].append(self_us.get(group, 0) / 1e3)
    metrics["cli.import_ms"] = statistics.median(totals)
    for group, values in per_group.items():
        metrics[f"cli.import_self_ms.{group}"] = statistics.median(values)
    detail = {
        "traced_requests": agg.requests,
        "untraced_pass_s": plain,
        "traced_pass_s": traced,
        "tracer_missing_targets": sorted(agg.missing),
    }
    return metrics, per_layer_units(), detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "svlab" / "__init__.py").is_file():
        print(f"error: no svlab sources under {SRC}; run from a source"
              " checkout", file=sys.stderr)
        return 2

    facts = machine_facts()
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    session = Session(args.workload, args.seed, workdir)
    try:
        if args.trace:
            values, units, detail = trace_pass(session)
        else:
            values, units, detail = measure(session, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it, or it was never made

    detail.update({
        "workload": args.workload,
        "why": workloads.WHY[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": facts,
        "max_klt_forest_depth": workloads.MAX_FOREST_DEPTH,
        "failures": session.reasons,
    })
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
