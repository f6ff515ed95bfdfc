"""Tests of the benchmark itself: python3 -m pytest slbench/tests"""

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import stringlinks
import stringlinks.cli
from slbench import oracle, run, tracing, workloads

ROOT = Path(__file__).resolve().parents[2]
# The package re-exports functions named like some of its modules (gassner).
SOLVE_HOLDERS = [importlib.import_module(m) for m in
                 ("stringlinks", "stringlinks.algebra", "stringlinks.gassner", "stringlinks.walks")]
ALGEBRA, WALKS = SOLVE_HOLDERS[1], SOLVE_HOLDERS[3]
HOPF = "sl 2\ncolors 1 2\nx 1 +\nx 1 +\nend\n"


@pytest.fixture
def hopf(tmp_path):
    path = tmp_path / "hopf.sl"
    path.write_text(HOPF)
    job = workloads.Job("hopf", HOPF, (("report", "--json"), ("verify", "--json")), {})
    return job, path


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generators_repeat_exactly_for_a_seed(name):
    first = workloads.make_pool(name, 7)
    assert first == workloads.make_pool(name, 7)
    assert [j.dsl for j in first] != [j.dsl for j in workloads.make_pool(name, 8)]
    assert len(first) == workloads.WORKLOADS[name].pool_size


def test_word_records_show_input_properties():
    tangles = workloads.make_pool("tangles", 3)
    assert all(j.info["cups"] >= 1 and j.info["core"] > 0 for j in tangles)
    braids = workloads.make_pool("braids", 3)
    assert {j.info["pure"] for j in braids} == {True, False}
    assert {j.info["n"] for j in braids} == {3, 4}
    assert all(j.info["cups"] == 0 and j.info["core"] == 0 for j in braids)


def test_walk_core_size_matches_the_walk_oracle():
    sizes = []
    original = WALKS.solve

    def spy(M, B):
        sizes.append(M.rows)
        return original(M, B)

    word = stringlinks.parse_morse(workloads.make_pool("tangles", 1)[0].dsl)
    WALKS.solve = spy
    try:
        stringlinks.walk_matrix(stringlinks.trace(word))
    finally:
        WALKS.solve = original
    assert sizes and max(sizes) == workloads.walk_core_size(word)


def _run(job, path, reference, cli=stringlinks.cli):
    tally = run.Tally()
    run.run_job(cli, oracle, job, path, reference, {}, tally)
    return tally


def test_correct_outputs_pass(hopf):
    job, path = hopf
    tally = _run(job, path, {})
    assert (tally.attempted, tally.failed, tally.words_done) == (2, 0, 1)


def test_tampered_output_is_counted_as_failed(hopf):
    job, path = hopf
    seen = {}
    run.run_job(stringlinks.cli, oracle, job, path, {}, seen, run.Tally())
    reference = {"hopf": {"dsl": HOPF, "report": seen[("hopf", "report")],
                          "verify": seen[("hopf", "verify")]}}

    class Tampered:
        @staticmethod
        def run(argv):
            out = json.loads(_capture(argv))
            if argv[0] == "report":
                out["tau"] = "2"
            print(json.dumps(out))
            return 0

    tally = _run(job, path, reference, cli=Tampered)
    assert (tally.attempted, tally.failed, tally.words_done) == (2, 1, 0)
    assert "tau differs from the reference" in tally.problems[0]["problems"]


def _capture(argv):
    _, code, out, _ = run.run_op(stringlinks.cli, argv)
    assert code == 0
    return out


def test_exceptions_and_exit_codes_are_failures(hopf):
    job, path = hopf

    class Broken:
        @staticmethod
        def run(argv):
            if argv[0] == "report":
                raise ValueError("boom")
            return 2

    tally = _run(job, path, {}, cli=Broken)
    assert (tally.attempted, tally.failed) == (2, 2)


def test_oracle_flags_identities_and_skips():
    report = json.loads(_capture(["report", "--json", str(ROOT / "corpus" / "hopf.sl")]))
    assert oracle.check("report", report, report) == []
    broken = dict(report, one_factorization_ok=False)
    assert oracle.check("report", broken) == ["one_factorization_ok is False"]
    skipped = dict(report, multi_factorization_ok=None)
    assert oracle.check("report", skipped, report) == [
        "multi_factorization_ok ran in the reference but is skipped"]
    assert oracle.check("report", dict(report, delta_link="t1"), report) == [
        "delta_link differs from the reference"]

    verify = json.loads(_capture(["verify", "--json", str(ROOT / "corpus" / "hopf.sl")]))
    assert oracle.check("verify", verify, verify) == []
    now = json.loads(json.dumps(verify))
    now["checks"][0]["ok"] = None
    assert oracle.check("verify", now, verify) == [
        "check ran in the reference but is skipped: %s" % now["checks"][0]["name"]]
    assert oracle.check("verify", {"checks": []}) == ["malformed verify output: KeyError('ok')"]


def test_rational_functions_compare_by_value():
    names = ["t1", "t2"]
    assert oracle._same_ratfunc("(t1 - t1*t2)/(1 - t2)", "t1", names)
    assert not oracle._same_ratfunc("t2", "t1", names)


def test_missing_traced_name_raises():
    original = ALGEBRA.solve
    with pytest.raises(tracing.MissingTracedName, match="algebra.no_such_function"):
        with tracing.Tracer({"algebra": ("solve", "no_such_function")}):
            pass
    assert ALGEBRA.solve is original


def test_tracer_wraps_every_importer_and_restores(hopf):
    _, path = hopf
    original = ALGEBRA.solve
    with tracing.Tracer() as tracer:
        for module in SOLVE_HOLDERS:
            assert module.solve.__wrapped__ is original
        tracer.op = "hopf/verify"
        assert stringlinks.cli.run(["verify", "--json", str(path)]) == 0
    for module in SOLVE_HOLDERS:
        assert module.solve is original
    seconds, calls = tracer.by_name()
    assert calls["cli.run"] == 1 and calls["algebra.solve.fox"] >= 1
    assert all(s.op == "hopf/verify" for s in tracer.spans)
    assert all(v >= -1e-6 for v in tracer.self_times())
    values = tracer.metrics(1, 1.0, 1.5)
    assert [name for name, _, _ in tracing.LAYER_METRICS] == list(values)
    assert values["trace_overhead"] == pytest.approx(0.5)
    assert values["algebra.max_dim"] >= 2 and values["algebra.max_terms"] >= 1


def test_tail_is_highest_percentile_with_ten_beyond():
    assert run.tail(range(1, 101)) == (90, pytest.approx(90.1))
    assert run.tail(range(1, 51)) == (81, pytest.approx(40.69))
    assert run.tail(range(1, 201)) == (95, pytest.approx(190.05))
    assert run.tail(range(1, 30)) == (67, pytest.approx(19.76))
    assert run.tail(range(1, 20)) == (50, 10)
    assert run.tail([0.5]) == (50, 0.5)


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        tracing.LAYER_METRICS)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_fails_without_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "slbench", tmp_path / "slbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run([sys.executable, "slbench/run.py", "--workload", "braids", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
