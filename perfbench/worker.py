"""Workload child: one fresh interpreter runs one timed pass of texcas.

Reads one item per line (JSON) on stdin, the ``--warm`` warm-up items
first, and writes one output line (JSON) per timed item on stdout as soon as
the item is done, then a last line with the latencies, calibration bursts,
peak RSS and spans summary.  It keeps no item and no output, only the
latencies, and imports texcas and the standard library only (plus the span
recorder when tracing), so its peak RSS is texcas's plus a harness of
constant size, and its timings are the program's.

    python3 perfbench/worker.py --workload translate --src src --warm 200 [--trace DIR]

The loop is closed with one caller: each item starts when the previous one
has returned.  Only the call into texcas is inside the timed region; a
calibration burst (see calib.py) runs between chunks of about 25 ms of items.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from array import array

import calib

CHUNK_NS = 25_000_000  # item time between two calibration bursts

def _runner(workload, lex):
    """(prepare(item) -> args, call(args) -> result, output(result) -> dict)."""
    from texcas import cli, forward, verify

    if workload == "translate":
        translate = forward.translate_string
        return (lambda it: (it["text"], lex, it["dialect"]),
                lambda a: translate(*a),
                lambda r: {"output": r.output})
    if workload == "roundtrip":
        return (lambda it: (it["text"], it["side"], lex, it["use_divide"]),
                lambda a: verify.round_trip(a[0], a[1], a[2], use_divide=a[3]),
                lambda r: {"steps": [s.text for s in r.steps],
                           "reason": r.terminated_reason})
    if workload == "verify-corpus":
        fields = ("classification", "outcome", "max_abs_difference", "maple")
        return (lambda it: ([cli.CorpusRecord("r", it["text"])], lex),
                lambda a: cli.run_corpus(*a),
                lambda r: {k: r[1][0][k] for k in fields if k in r[1][0]})
    raise SystemExit(f"unknown workload {workload}")


def peak_rss_kb() -> int:
    """Peak resident set of this process image (VmHWM).  ru_maxrss is not
    used: on Linux it carries over the parent's peak through fork and exec,
    so a child of a large parent would report the parent's size."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def _count_leaves(tree):
    n, todo = 0, [tree]
    while todo:
        t = todo.pop()
        if t.is_leaf:
            n += 1
        else:
            todo.extend(t.children)
    return n


def _count_nodes(tree):
    n, todo = 0, [tree]
    while todo:
        t = todo.pop()
        n += 1
        todo.extend(t.children)
    return n


def install_spans(tracer):
    """Wrap the public functions at the bindings their callers look up."""
    from texcas import backward, cli, forward, inert, verify
    from texcas.lexicon import Lexicon

    def leaves(tree, totals):
        totals["scanner.leaves"] += _count_leaves(tree)

    def chars(result, totals):
        totals["forward.out_chars"] += len(result.output)

    def nodes(tree, totals):
        totals["inert.nodes"] += _count_nodes(tree)

    def verdict(v, totals):
        totals["verify.symbolic_zero"] += v.outcome == "symbolic-zero"
        totals["verify.finite_samples"] += len(v.samples)

    def trip(report, totals):
        totals["verify.round_trip.steps"] += len(report.steps)
        totals["verify.round_trip.fixed_points"] += report.fixed_point_reached

    tracer.install(forward, "scan", "scanner.scan", leaves)
    tracer.install(forward, "translate_forward", "forward.translate_forward", chars)
    tracer.install(cli, "translate_string", "forward.translate_string")
    tracer.install(verify, "translate_string", "forward.translate_string")
    tracer.install(verify, "backward_string", "backward.backward_string")
    tracer.install(backward, "build_reverse_rules", "backward.build_reverse_rules")
    tracer.install(backward, "translate_backward", "backward.translate_backward")
    tracer.install(inert, "parse_maple", "inert.parse_maple", nodes)
    tracer.install(inert, "preprocess", "inert.preprocess", recursive=True)
    tracer.install(verify, "simplify_light", "verify.simplify_light", recursive=True)
    tracer.install(verify, "evaluate", "evaluator.evaluate")
    tracer.install(verify, "check_equivalence", "verify.check_equivalence", verdict)
    tracer.install(verify, "round_trip", "verify.round_trip", trip)
    tracer.install(cli, "run_corpus", "cli.run_corpus")
    tracer.install(Lexicon, "lookup", "lexicon.lookup")


def run(workload, items, warm, emit, spans_dir=None, prefix=0):
    """One pass over ``items`` (an iterator of item dicts): the first
    ``warm`` untimed, the rest timed, each output handed to ``emit`` as a
    JSON line.  With spans_dir, traced, and the counts over the first
    ``prefix`` timed items reported apart for the determinism check."""
    import texcas

    lex = texcas.load_default()
    prepare, call, output = _runner(workload, lex)

    for _, item in zip(range(warm), items):
        try:
            output(call(prepare(item)))
        except Exception:  # warm-up only; the timed pass counts errors
            pass

    tracer = None
    if spans_dir is not None:
        from spans import Tracer
        tracer = Tracer()
        install_spans(tracer)
        if workload == "translate":  # the benchmark's own call site
            from texcas import forward
            traced = tracer.wrap("forward.translate_string", forward.translate_string)
            call = lambda a: traced(*a)  # noqa: E731

    latencies, starts, bursts = array("q"), array("q"), []
    clock = time.perf_counter_ns
    gc.collect()
    prefix_totals = None
    next_burst = 0
    for k, item in enumerate(items):
        a = prepare(item)
        if clock() >= next_burst:
            bursts.append((k, calib.burst()))
            next_burst = clock() + CHUNK_NS
        if tracer is not None:
            tracer.current_item = k
            if k == prefix:
                prefix_totals = dict(tracer.totals)
        t0 = clock()
        try:
            result = call(a)
        except Exception as exc:  # an unexpected error is a failed item
            latencies.append(clock() - t0)
            starts.append(t0)
            emit(json.dumps({"error": type(exc).__name__}))
            continue
        latencies.append(clock() - t0)
        starts.append(t0)
        emit(json.dumps(output(result)))
    bursts.append((len(latencies), calib.burst()))
    peak_kb = peak_rss_kb()

    out = {"latencies_ns": latencies.tolist(), "peak_rss_kb": peak_kb,
           "bursts": bursts}
    if tracer is not None:
        tracer.uninstall()
        calls, self_ns, root_ns = tracer.summary()
        out["trace"] = {"calls": calls, "self_ns": self_ns, "root_ns": root_ns,
                        "roots_outside": tracer.roots_outside(starts, latencies),
                        "totals": dict(tracer.totals)}
        if prefix:
            out["trace"]["prefix"] = {
                "calls": tracer.calls_before(prefix),
                "totals": dict(tracer.totals) if prefix_totals is None else prefix_totals}
        tracer.write(spans_dir)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--src", required=True, help="directory holding texcas/")
    parser.add_argument("--warm", type=int, required=True,
                        help="the first N items are warm-up, not timed")
    parser.add_argument("--trace", metavar="DIR",
                        help="record spans and write them under DIR")
    parser.add_argument("--prefix", type=int, default=0,
                        help="also report traced counts over the first N items")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    items = (json.loads(line) for line in sys.stdin)
    out = run(args.workload, items, args.warm, lambda line: print(line),
              args.trace, args.prefix)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
