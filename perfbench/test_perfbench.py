"""Self-tests of the benchmark: generator, oracle, metric names, spans.

    python3 -m pytest perfbench -q
"""

import cmath
import json
import os
import shutil
import subprocess
import sys

import pytest
from mpmath import mp

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import texcas  # noqa: E402

import calib  # noqa: E402
import gen  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def lex():
    return texcas.load_default()


def _texts(items):
    return [it["text"] for it in items]


def test_generator_is_deterministic_per_seed(lex):
    for build in (workloads.build_translate, workloads.build_roundtrip):
        warm1, timed1 = build(lex, 7, 300)
        warm2, timed2 = build(lex, 7, 300)
        assert _texts(warm1) == _texts(warm2)
        assert _texts(timed1) == _texts(timed2)
        assert [it["node"].v for it in timed1] == [it["node"].v for it in timed2]
        assert _texts(build(lex, 8, 300)[1]) != _texts(timed1)
    rel1 = workloads.build_relations(lex, 7, 300, ["x = x"])[1]
    rel2 = workloads.build_relations(lex, 7, 300, ["x = x"])[1]
    assert [(r["text"], r["expected"]) for r in rel1] == \
        [(r["text"], r["expected"]) for r in rel2]


def test_items_are_distinct_and_warmup_is_disjoint(lex):
    warm, timed = workloads.build_translate(lex, 3, 2000)
    texts = _texts(timed)
    assert len(texts) == 2000 == len(set(texts))
    assert not set(texts) & set(_texts(warm))


def test_generator_draws_from_every_lexicon_function(lex):
    joined = " ".join(_texts(workloads.build_translate(lex, 5, 3000)[1]))
    for name, entry in lex.entries.items():
        if entry.role == "function":
            assert name + "{" in joined or name + "@" in joined, name
    for construct in ("\\frac{", "\\sqrt{", "\\sqrt[", "\\idt", "^{", "\\cpi"):
        assert construct in joined


def test_relation_answers_split_two_to_one(lex):
    timed = workloads.build_relations(lex, 4, 1500, [])[1]
    false_share = sum(not r["expected"] for r in timed) / len(timed)
    assert 0.28 < false_share < 0.38


def test_oracle_legendre_two_by_hand():
    x = 0.3 + 0.2j
    want = (3 * x * x - 1) / 2
    node = gen.Call("\\JacobiP", [gen.Num("0"), gen.Num("0"), gen.Num("2")],
                    [gen.Var("x")], "@")
    assert node.latex() == "\\JacobiP{0}{0}{2}@{x}"
    assert node.maple() == "JacobiP(2, 0, 0, x)"
    assert oracle.close(node.ev({"x": x}), want)
    assert oracle.close(oracle.maple_value("JacobiP(2,0,0,x)", {"x": x}), want)


def test_oracle_pythagoras_by_hand():
    z = 0.7 - 1.1j
    sq = [gen.Pow(gen.Call(f, [], [gen.Var("z")], "@"), gen.Num("2"))
          for f in ("\\sin", "\\cos")]
    node = gen.Sum([("+", sq[0]), ("+", sq[1])])
    assert node.latex() == "\\sin@{z}^{2}+\\cos@{z}^{2}"
    assert oracle.close(node.ev({"z": z}), 1)
    assert oracle.close(oracle.maple_value("sin(z)^2+cos(z)^2", {"z": z}), 1)


def test_oracle_reads_maple_as_maple():
    assert oracle.close(oracle.maple_value("exp(1)^2+I^2", {}), cmath.e ** 2 - 1)
    assert oracle.close(oracle.maple_value("-x^2", {"x": 3}), -9)
    assert oracle.close(oracle.maple_value("2/3/4", {}), 1 / 6)
    assert oracle.close(oracle.maple_value("x^(-2)*gamma", {"x": 2}),
                        0.25 * 0.5772156649015329)
    assert oracle.close(oracle.maple_value("1e-05", {}), 0.00001)
    with pytest.raises(oracle.MapleError):
        oracle.maple_value("1*e-05", {})  # e is a free name, not Euler's number
    phi, k = 0.4 + 0.1j, 0.3
    assert oracle.close(oracle.maple_value("EllipticF(sin(phi), k)",
                                           {"phi": phi, "k": k}),
                        complex(mp.ellipf(phi, k * k)))


def test_mathematica_structural_check():
    assert oracle.mathematica_ok("JacobiP[2,\\[Alpha],\\[Beta],Cos[a \\[CapitalTheta]]]")
    assert not oracle.mathematica_ok("Sin[$0]")
    assert not oracle.mathematica_ok("Sin[x")
    assert not oracle.mathematica_ok("Sin[x)]")
    assert not oracle.mathematica_ok("\\sin[x]")


def _item(node, **values):
    """A translate item over ``node`` at the given point (Maple names)."""
    env = {gen.maple_name(v): values[gen.maple_name(v)] for v in node.names()}
    node.v = node.ev({v: env[gen.maple_name(v)] for v in node.names()})
    return {"text": node.latex(), "dialect": "maple", "node": node, "env": env}


def test_a_constant_name_is_known_only_where_it_explains_the_value():
    x, gamma = gen.Var("x"), gen.Var("\\gamma")
    item = _item(gen.Prod([gamma, x], [False]), x=0.3 + 0.4j, gamma=-0.7 + 0.2j)
    check = workloads.check_translate
    assert check(item, {"output": "x*gamma"}) == "maple-constant-name"
    assert check(item, {"output": "2*gamma*x"}) == "unexplained"
    assert check(_item(gen.Prod([x, x], [False]), x=0.5j),
                 {"output": "x*gamma"}) == "unexplained"


def test_a_split_float_is_known_only_where_joining_it_restores_the_value():
    item = _item(gen.Sum([("+", gen.Var("x")), ("+", gen.Num("0.0000022"))]), x=0.3j)
    explain = workloads._explain_values
    assert explain(["x+0.0000022", "x+2.2e-06"], item["env"], item["node"].v,
                   None) is None
    assert explain(["x+0.0000022", "x+2.2*e-06"], item["env"], item["node"].v,
                   None) == "float-exponent"
    assert explain(["x+2.3*e-06"], item["env"], item["node"].v,
                   None) == "unexplained"


def test_a_trip_without_fixed_point_is_known_only_by_its_pattern():
    cycle = workloads._cycle_change
    assert cycle(["(3*(1)/(6)*(1)/(4)*1)^4", "(1*(1)/(4)*(3)/(6)*1)^4",
                  "(1*1*(1)/(4)*(3)/(6)*1)^4"]) == "no-fixed-point"
    assert cycle(["EllipticF(sin(x),k)", "EllipticF(sin(arcsin(sin(x))),k)",
                  "EllipticF(sin(arcsin(sin(arcsin(sin(x))))),k)"]) == \
        "ellipticf-divergence"
    assert cycle(["(x+1)^2", "(x+2)^2", "(x+3)^2"]) is None
    assert cycle(["EllipticF(sin(x),k)", "EllipticF(sin(arcsin(sin(x))),k)",
                  "EllipticF(sin(arcsin(sin(arcsin(sin(x))))),k+1)"]) is None


def _relation(factor, expected=True):
    """sin(f z)^2 + cos(f z)^2 = 1, true or perturbed by + 1."""
    def arg():
        return gen.Prod([gen.Num(str(factor)), gen.Var("z")], [False])
    lhs = gen.Sum([("+", gen.Pow(gen.Call(f, [], [arg()], "@"), gen.Num("2")))
                   for f in ("\\sin", "\\cos")])
    rhs = gen.Num("1")
    delta = None
    if not expected:
        delta = gen.Num("1")
        rhs = gen.Sum([("+", rhs), ("+", delta)])
    rel = gen.Rel(lhs, rhs)
    item = {"text": rel.latex(), "expected": expected, "node": rel, "delta": delta}
    return item, f"{lhs.maple()} = {rhs.maple()}"


def test_a_wrong_verdict_is_known_only_where_rounding_explains_it():
    # |sin(20 z)| reaches e^40 on verify's annulus: 8 ulps of it exceed 1e-10
    item, maple = _relation(20)
    out = {"classification": "translated-unverified", "outcome": "numeric-mismatch",
           "maple": maple}
    assert workloads.check_relation(item, out) == "absolute-tolerance"
    # at most e^4 here: rounding cannot reach the tolerance
    item, maple = _relation(2)
    out = {"classification": "translated-unverified", "outcome": "numeric-mismatch",
           "maple": maple}
    assert workloads.check_relation(item, out) == "unexplained"
    # nor swallow the perturbation 1
    item, maple = _relation(20, expected=False)
    out = {"classification": "verified", "outcome": "numeric-converged",
           "maple": maple}
    assert workloads.check_relation(item, out) == "unexplained"
    # a wrong translation is never put down to rounding
    item, maple = _relation(20)
    out = {"classification": "translated-unverified", "outcome": "numeric-mismatch",
           "maple": maple.replace("20", "21", 1)}
    assert workloads.check_relation(item, out) == "unexplained"


def _fake_child(n=1000, trace=None):
    child = {"latencies_ns": [1000 + k for k in range(n)], "peak_rss_kb": 2048,
             "bursts": [(0, calib.REF_NS), (n // 2, calib.REF_NS), (n, 3 * calib.REF_NS)]}
    if trace is not None:
        child["trace"] = trace
    return child


def test_metric_names_equal_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == \
        ["translate", "verify-corpus", "roundtrip"]
    setups = [(0.05, 0.001, 1.0)]
    e2e, raw = run.e2e_metrics(_fake_child(), 1, 1001, setups, [(0.2, "x", 1.0)])
    assert list(e2e) == [m["name"] for m in spec["end_to_end"]]
    assert set(raw) <= set(e2e)
    trace = {"calls": {}, "self_ns": {}, "root_ns": 0, "roots_outside": 0,
             "totals": {}}
    layers, problems = run.layer_metrics(_fake_child(trace=trace), _fake_child(),
                                         setups, 1000)
    assert set(layers) == {m["name"] for m in spec["per_layer"]}
    assert problems == []


def test_scaling_uses_the_bursts_around_each_chunk():
    ref = calib.REF_NS

    def scaled(bursts):
        child = {"latencies_ns": [1000] * (len(bursts) - 1),
                 "bursts": [(k, b * ref) for k, b in enumerate(bursts)]}
        return run.scaled_latencies(child)

    # one burst hit by an interrupt rescales nothing
    assert scaled([1, 1, 1, 9, 1, 1, 1]) == [1000] * 6
    # a machine that slows to a third: later chunks count a third
    assert scaled([1, 1, 1, 3, 3, 3, 3]) == [1000, 1000, 500] + [1000 / 3] * 3


def _traced(workload, items, tmp_path):
    lines = []
    out = worker.run(workload, iter([run._payload(workload, it) for it in items]), 0,
                     lines.append, str(tmp_path / "spans"), prefix=len(items) // 2)
    assert len(lines) == len(out["latencies_ns"]) == len(items)
    t = out["trace"]
    assert sum(t["self_ns"].values()) == t["root_ns"] <= sum(out["latencies_ns"])
    assert t["roots_outside"] == 0
    assert (tmp_path / "spans" / "spans.json").exists()
    return t["calls"]


def test_roundtrip_spans_isolate_backward(lex, tmp_path):
    _, timed = workloads.build_roundtrip(lex, 2, 1000)
    calls = _traced("roundtrip", timed[:40], tmp_path)
    assert calls["backward.build_reverse_rules"] == calls["backward.backward_string"] > 0
    assert calls["verify.round_trip"] == 40
    assert "evaluator.evaluate" not in calls


def test_verify_spans_isolate_the_evaluator(lex, tmp_path):
    _, timed = workloads.build_relations(lex, 2, 1000, [])
    calls = _traced("verify-corpus", timed[:20], tmp_path)
    assert calls["evaluator.evaluate"] > 0
    assert calls["cli.run_corpus"] == 20
    assert "backward.build_reverse_rules" not in calls


def test_refuses_a_directory_without_texcas(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "translate",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
