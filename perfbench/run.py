"""texcas benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload translate --seed 1 --seconds 8 --trace 0

Run it from the root of a checkout (the directory holding ``src/texcas``).
The run draws its items from ``--seed``, sizes them so that one pass takes
about ``--seconds`` at the seed commit, times them in a fresh child process,
checks every answer against an oracle texcas did not produce, and prints a
table followed by one JSON line:

* ``--trace 0``: the end-to-end metrics of ``BENCHMARK.json``;
* ``--trace 1``: the per-layer metrics, from a traced pass (spans written
  under ``.bench_out/``), with the same seed run twice as a determinism check.

Exit status 0 when a result is printed; 2 when the checkout has no texcas
sources or ``BENCHMARK.json``; 3 when a child process fails.
"""

from __future__ import annotations

import argparse
import collections
import json
import math
import os
import statistics
import subprocess
import sys
import time

import calib

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".bench_out"
SETUP_SPAWNS = 15
CLI_SPAWNS = 15
CHILD_TIMEOUT_S = 150
DETERMINISM_SHARE = 4  # the second traced run repeats 1/4 of the items
# Wrong answers that no known defect's evidence explains make the run
# incorrect above this share.  Below it they still count as failures: sweeps
# of 88,000 to 187,200 items per workload at the seed commit left at most 1 in
# 10^4 (mostly a variable spelled like a Maple constant inside EllipticF or
# next to the constant itself), and a broken translation, evaluator or
# reverse rule shows up far above 1 in 1000.
UNEXPLAINED_SHARE = 0.001

# Fresh interpreter: what every new process pays before its first
# translation, timed inside it.
SETUP_CODE = """
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import texcas
t1 = time.perf_counter()
texcas.load_default()
t2 = time.perf_counter()
print(t1 - t0, t2 - t1)
"""


class BenchError(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


def _run(cmd, timeout, **kwargs):
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=timeout, **kwargs)
    except subprocess.TimeoutExpired:
        raise BenchError(3, f"timed out after {timeout}s: {cmd[:4]}")
    if proc.returncode != 0:
        raise BenchError(3, f"{cmd[:4]} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return proc.stdout


# --- processes ------------------------------------------------------------------------

def _wall(cmd, env=None):
    t0 = time.perf_counter()
    out = _run(cmd, 60, env=env)
    return time.perf_counter() - t0, out


def probe_processes(src, formula, n_setup, n_cli):
    """Fresh-process costs, each scaled to calibration reference speed by
    the bare interpreter starts (`python -c pass`) on either side of it.

    Returns ([(import_s, load_default_s, factor)], [(wall_s, stdout, factor)]):
    set-up timed inside a fresh interpreter, and the wall time of whole
    `python -m texcas.cli translate <formula>` processes, interleaved.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    bare = [sys.executable, "-c", "pass"]
    setup_cmd = [sys.executable, "-c", SETUP_CODE, src]
    cli_cmd = [sys.executable, "-m", "texcas.cli", "translate", "--", formula]
    _run(setup_cmd, 60)  # the first import in a fresh checkout compiles bytecode
    _run(cli_cmd, 60, env=env)
    order = []
    for k in range(max(n_setup, n_cli)):
        order += ["setup"] * (k < n_setup) + ["cli"] * (k < n_cli)
    setups, clis = [], []
    before = _wall(bare)[0]
    for kind in order:
        if kind == "setup":
            import_s, load_s = map(float, _run(setup_cmd, 60).split())
        else:
            wall, out = _wall(cli_cmd, env)
        after = _wall(bare)[0]
        factor = 2 * calib.REF_START_S / (before + after)
        if kind == "setup":
            setups.append((import_s, load_s, factor))
        else:
            clis.append((wall, out.strip(), factor))
        before = after
    return setups, clis


def scaled_latencies(child):
    """Item latencies at reference speed: each chunk of items is scaled by
    the calibration bursts on either side of it, each burst taken as the
    median of it and its neighbours (two on either side), so that one burst
    hit by an interrupt does not rescale its chunks."""
    lat, bursts = child["latencies_ns"], child["bursts"]
    starts = [k for k, _ in bursts]
    times = [b for _, b in bursts]
    smooth = [statistics.median(times[max(0, j - 2):j + 3]) for j in range(len(times))]
    out = []
    for j in range(len(bursts) - 1):
        factor = calib.scale(smooth[j], smooth[j + 1])
        out.extend(t * factor for t in lat[starts[j]:starts[j + 1]])
    return out


def run_child(workload, src, warm, timed, spans_dir=None, prefix=0):
    """One pass in a fresh worker: the items go in one JSON line each, the
    outputs come back one line each, then the worker's summary line."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--src", src, "--warm", str(len(warm)), "--prefix", str(prefix)]
    if spans_dir is not None:
        cmd += ["--trace", spans_dir]
    lines = "".join(json.dumps(_payload(workload, it)) + "\n" for it in warm + timed)
    *outputs, summary = _run(cmd, CHILD_TIMEOUT_S, input=lines).splitlines()
    out = json.loads(summary)
    out["outputs"] = [json.loads(o) for o in outputs]
    if len(out["outputs"]) != len(timed):
        raise BenchError(3, f"worker gave {len(out['outputs'])} outputs for "
                            f"{len(timed)} items")
    return out


def _payload(workload, item):
    """The text texcas sees, and the call options: nothing of the oracle."""
    keys = {"translate": ("text", "dialect"),
            "roundtrip": ("text", "side", "use_divide"),
            "verify-corpus": ("text",)}[workload]
    return {k: item[k] for k in keys}


# --- checks ----------------------------------------------------------------------------

def check_outputs(workloads, workload, timed, outputs):
    check = {"translate": workloads.check_translate,
             "roundtrip": workloads.check_roundtrip,
             "verify-corpus": workloads.check_relation}[workload]
    return collections.Counter(
        c for c in (check(it, out) for it, out in zip(timed, outputs)) if c)


def quantile_us(latencies_ns, q):
    """Nearest-rank quantile in microseconds."""
    ordered = sorted(latencies_ns)
    k = max(0, math.ceil(q * len(ordered)) - 1)
    return ordered[k] / 1000


# --- the run ----------------------------------------------------------------------------

def measure(workload, seed, seconds, trace, root, spec):
    src = os.path.join(root, "src")
    sys.path[:0] = [src, HERE]
    import texcas
    if not os.path.abspath(texcas.__file__).startswith(os.path.join(src, "")):
        raise BenchError(2, f"texcas imported from {texcas.__file__}, not {src}")
    import oracle
    import workloads

    lex = texcas.load_default()
    n = workloads.n_items(workload, seconds)
    if workload == "translate":
        warm, timed = workloads.build_translate(lex, seed, n)
    elif workload == "roundtrip":
        warm, timed = workloads.build_roundtrip(lex, seed, n)
    else:
        with open(os.path.join(src, "texcas", "data", "seed_corpus.tsv"),
                  encoding="utf-8") as fh:
            corpus = [line.rstrip("\n").split("\t")[1] for line in fh
                      if line.strip() and not line.startswith("#")]
        warm, timed = workloads.build_relations(lex, seed, n, corpus)

    problems = []
    cli_item = workloads.build_translate(lex, f"cli-{seed}", 1)[1][0]
    setups, clis = probe_processes(src, cli_item["text"], SETUP_SPAWNS,
                                   0 if trace else CLI_SPAWNS)
    cli_failures = collections.Counter(
        workloads.check_translate(cli_item, {"output": text}) for _, text, _ in clis)
    cli_failures.pop(None, None)

    a = run_child(workload, src, warm, timed)
    failures = check_outputs(workloads, workload, timed, a["outputs"]) + cli_failures
    attempted = len(timed) + len(clis)
    failed = sum(failures.values())

    if not trace:
        metrics, raw = e2e_metrics(a, failed, attempted, setups, clis)
        declared = spec["end_to_end"]
    else:
        # Same seed, separate processes: the traced run must reproduce every
        # output of the untraced one, and a second traced run over the first
        # quarter of the items every output, count and IR size.
        base = os.path.join(root, OUT_DIR, f"spans-{workload}-seed{seed}")
        prefix = len(timed) // DETERMINISM_SHARE
        b = run_child(workload, src, warm, timed, base + "-1", prefix)
        c = run_child(workload, src, warm, timed[:prefix], base + "-2")
        if b["outputs"] != a["outputs"]:
            problems.append("determinism: the traced run changed an output")
        if c["outputs"] != a["outputs"][:prefix]:
            problems.append("determinism: the second traced run changed an output")
        for part in ("calls", "totals"):
            if b["trace"]["prefix"][part] != c["trace"][part]:
                problems.append(f"determinism: two traced runs differ in {part}")
        metrics, accounting = layer_metrics(b, a, setups, len(timed))
        problems += accounting
        raw = {}
        declared = spec["per_layer"]

    names = [m["name"] for m in declared]
    if set(names) != set(metrics):
        problems.append(f"metric names differ from BENCHMARK.json: "
                        f"{sorted(set(names) ^ set(metrics))}")
    unexplained = failures.get("unexplained", 0)
    if unexplained > UNEXPLAINED_SHARE * attempted:
        problems.append(f"{unexplained} wrong answers match no known defect")
    units = {m["name"]: m["unit"] for m in declared}
    report = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units.get(k, "?")}
                    for k in names if k in metrics},
    }
    return report, raw, failures, problems, len(timed), len(clis), oracle.KNOWN_DEFECTS


def e2e_metrics(a, failed, attempted, setups, clis):
    """End-to-end metrics at calibration reference speed, and the same
    timings unscaled (printed for reference, not reported)."""
    lat = scaled_latencies(a)
    raw_lat = a["latencies_ns"]
    metrics = {
        "throughput_per_s": len(lat) / (sum(lat) / 1e9),
        "latency_p50_us": quantile_us(lat, 0.50),
        "latency_p99_us": quantile_us(lat, 0.99),
        "correct_share": 1 - failed / attempted,
        "peak_rss_mb": a["peak_rss_kb"] / 1024,
        "setup_s": statistics.median((i + ld) * f for i, ld, f in setups),
        "cli_oneshot_s": statistics.median(w * f for w, _, f in clis),
    }
    raw = {
        "throughput_per_s": len(raw_lat) / (sum(raw_lat) / 1e9),
        "latency_p50_us": quantile_us(raw_lat, 0.50),
        "latency_p99_us": quantile_us(raw_lat, 0.99),
        "setup_s": statistics.median(i + ld for i, ld, _ in setups),
        "cli_oneshot_s": statistics.median(w for w, _, _ in clis),
    }
    return metrics, raw


def layer_metrics(b, a, setups, n_items):
    """Per-layer numbers from traced child b; a is the untraced pass.  Span
    times are scaled by b's overall calibration factor, so they keep adding
    up to its (scaled) wall time."""
    t = b["trace"]
    calls, self_ns, totals = t["calls"], t["self_ns"], t["totals"]
    raw_wall_ns = sum(b["latencies_ns"])
    # self times add up to root_ns by definition (each span's duration less
    # its children's); what can fail is the nesting of spans (summary()
    # raises) and of root spans in their items' timed intervals
    unspanned_ns = raw_wall_ns - t["root_ns"]
    problems = []
    if t["roots_outside"]:
        problems.append(f"trace accounting: {t['roots_outside']} root spans "
                        f"outside their item's timed interval")
    if unspanned_ns < 0:
        problems.append("trace accounting: root spans longer than the traced "
                        "wall time")
    wall_ns = sum(scaled_latencies(b))
    factor = wall_ns / raw_wall_ns

    def per_item_us(name):
        return self_ns.get(name, 0) * factor / 1000 / n_items

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for layer in ("scanner.scan", "lexicon.lookup", "forward.translate_string",
                  "forward.translate_forward", "inert.parse_maple",
                  "inert.preprocess", "backward.backward_string",
                  "backward.translate_backward", "backward.build_reverse_rules",
                  "evaluator.evaluate", "verify.simplify_light",
                  "verify.check_equivalence", "verify.round_trip", "cli.run_corpus",
                  "trace.measure"):
        m[f"{layer}.calls"] = calls.get(layer, 0)
        m[f"{layer}.self_us"] = per_item_us(layer)
    del m["trace.measure.calls"]
    m["scanner.leaves_per_formula"] = ratio(totals.get("scanner.leaves", 0),
                                            calls.get("scanner.scan", 0))
    m["forward.out_chars_per_formula"] = ratio(totals.get("forward.out_chars", 0),
                                               calls.get("forward.translate_forward", 0))
    m["inert.nodes_per_tree"] = ratio(totals.get("inert.nodes", 0),
                                      calls.get("inert.parse_maple", 0))
    m["backward.rule_builds_per_backward"] = ratio(
        calls.get("backward.build_reverse_rules", 0),
        calls.get("backward.backward_string", 0))
    m["verify.symbolic_share"] = ratio(totals.get("verify.symbolic_zero", 0),
                                       calls.get("verify.check_equivalence", 0))
    m["verify.finite_point_share"] = ratio(totals.get("verify.finite_samples", 0),
                                           calls.get("evaluator.evaluate", 0))
    m["verify.round_trip.steps_per_call"] = ratio(
        totals.get("verify.round_trip.steps", 0), calls.get("verify.round_trip", 0))
    m["verify.round_trip.fixed_point_share"] = ratio(
        totals.get("verify.round_trip.fixed_points", 0), calls.get("verify.round_trip", 0))
    m["bench.unspanned_us"] = unspanned_ns * factor / 1000 / n_items
    m["trace.wall_us"] = wall_ns / 1000 / n_items
    m["trace.overhead_share"] = wall_ns / sum(scaled_latencies(a)) - 1
    m["texcas.import_s"] = statistics.median(i * f for i, _, f in setups)
    m["lexicon.load_default_s"] = statistics.median(ld * f for _, ld, f in setups)
    return m, problems


def print_table(args, spec, report, raw, failures, problems, n_timed, n_cli, known):
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    print(f"texcas benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"why: {why.get(args.workload, '?')}")
    print(f"items: {n_timed} distinct, timed once each in a fresh child process "
          f"(closed loop, one caller), after warm-up items from a disjoint seed")
    for name, m in report["metrics"].items():
        unscaled = f"   (unscaled {raw[name]:.6g})" if name in raw else ""
        print(f"  {name:42s} {m['value']:>16.6g} {m['unit']}{unscaled}")
    base = f"{n_timed} items" + (f" + {n_cli} CLI runs" if n_cli else "")
    print(f"  {'failed_share':42s} {report['failed'] / report['attempted']:>16.6g} "
          f"ratio ({report['failed']} of {report['attempted']} attempted: {base})")
    for cls, count in sorted(failures.items()):
        note = known.get(cls, "not a known defect")
        print(f"    {cls}: {count} ({note})")
    for p in problems:
        print(f"  problem: {p}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("translate", "verify-corpus", "roundtrip"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    try:
        if not os.path.isfile(os.path.join(root, "src", "texcas", "__init__.py")):
            raise BenchError(2, "no src/texcas here; run from the repository root")
        spec_path = os.path.join(root, "BENCHMARK.json")
        if not os.path.isfile(spec_path):
            raise BenchError(2, "no BENCHMARK.json here")
        with open(spec_path, encoding="utf-8") as fh:
            spec = json.load(fh)
        result = measure(args.workload, args.seed, args.seconds, args.trace, root, spec)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return exc.code
    report = result[0]
    print_table(args, spec, *result)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
