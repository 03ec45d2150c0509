"""In-process fiber-trees operations, run in one child process.

No CLI path reaches ``svlab.fibered``, so this worker calls the library
the way a script would: build a ``FiberedModel`` from blow-ups, then run
``reduce_model``, ``minimality_audit`` and ``decide`` on it.  It prints
one JSON object with the wall time, the speed reference taken right
after it (see speed.py) and the outcome of every operation;
the parent process checks the outcomes against its oracle.

    python bench/fiber_worker.py CORPUS.json START SECONDS [SPANS.json]

It starts at operation START.  With SECONDS > 0 it cycles through the
operations until that much time has passed; with SECONDS = 0 it runs
each operation once.  A SPANS.json argument turns on the layer tracer.
"""

import contextlib
import json
import sys
import time

from speed import reference_ms


def run_op(op, fibered, nonvanish, region):
    with region("fibered.build"):
        trees = []
        for seq in op["fibers"]:
            tree = fibered.FiberTree((fibered.component(0, 1, op["d"]),))
            for step in seq:
                if len(step) == 1:
                    tree = fibered.blow_up_on_component(tree, step[0])
                else:
                    tree = fibered.blow_up_on_edge(tree, step[0], step[1])
            trees.append(tree)
        model = fibered.FiberedModel(op["genus"], op["p"], tuple(trees))
    reduced, trace = fibered.reduce_model(model)
    audits = [fibered.minimality_audit(t.components) for t in trees]
    verdict = nonvanish.decide(nonvanish.Scenario(
        model=model,
        kodaira=nonvanish.RULED,
        chi_o=1 - op["genus"],
        q=op["genus"],
        relatively_minimal=False,
    ))
    return {
        "reduced": [
            [c.self_intersection, c.multiplicity, c.d_degree]
            for t in reduced.fibers for c in t.components
        ],
        "contractions": len(trace),
        "d_degree": reduced.fiber_degree(),
        "audits": [[a.k_degree_sum, a.contradiction] for a in audits],
        "decide": [verdict.case_label, verdict.result,
                   verdict.certificate.get("rule")],
    }


def main(argv) -> int:
    corpus_path, start, seconds = argv[0], int(argv[1]), float(argv[2])
    spans_path = argv[3] if len(argv) > 3 else None
    with open(corpus_path, encoding="utf-8") as fh:
        ops = json.load(fh)["ops"]

    import svlab.fibered as fibered
    import svlab.nonvanish as nonvanish

    tracer = None
    region = lambda name: contextlib.nullcontext()  # noqa: E731
    if spans_path is not None:
        from tracer import Tracer

        tracer = Tracer("fiber-trees")
        tracer.install()
        region = tracer.region

    results = []
    started = time.perf_counter()
    deadline = started + seconds
    index = start
    while True:
        op = ops[index % len(ops)]
        t0 = time.perf_counter()
        with region("fiber.op"):
            outcome = run_op(op, fibered, nonvanish, region)
        t1 = time.perf_counter()
        results.append([index % len(ops), (t1 - t0) * 1e3, reference_ms(),
                        outcome])
        index += 1
        if seconds > 0 and t1 >= deadline:
            break
        if seconds <= 0 and index == start + len(ops):
            break
    window = time.perf_counter() - started
    if tracer is not None:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh, separators=(",", ":"))
    json.dump({"window_s": window, "ops": results}, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
