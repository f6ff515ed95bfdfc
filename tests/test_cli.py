"""Command-line interface: output formats, exit codes, fan-out."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import stringlinks
from stringlinks import MorseWord, cli, gassner, matrix_from_json, parse_morse, to_dsl
from stringlinks.algebra import SingularMatrixError
from stringlinks.cli import run
from stringlinks.diagram import MAX_STRANDS, Cap, CrossNeg, CrossPos, CupL, CupR, is_crossing

from conftest import CORPUS_DIR

HOPF = str(CORPUS_DIR / "hopf.sl")
FIG8 = str(CORPUS_DIR / "fig8.sl")
TRIVIAL = str(CORPUS_DIR / "trivial_2.sl")


def invoke(argv, capsys):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_success(self, capsys):
        code, out, err = invoke(["gassner", HOPF], capsys)
        assert code == 0
        assert "t2" in out

    def test_missing_file(self, capsys):
        code, out, err = invoke(["gassner", "/no/such/file.sl"], capsys)
        assert code == 1
        assert "error" in err

    def test_bad_subcommand_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            run(["frobnicate", HOPF])
        assert exc.value.code == 1

    def test_missing_argument_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            run(["gassner"])
        assert exc.value.code == 1

    def test_parse_error_in_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.sl"
        bad.write_text("braid 2: s9\n")
        code, out, err = invoke(["gassner", str(bad)], capsys)
        assert code == 1
        assert "out of range" in err

    def test_invariant_violation_exits_two(self, capsys):
        code, out, err = invoke(
            ["spectrum", FIG8, "--angles", "0.5"], capsys
        )
        assert code == 2
        assert "violation" in err


class TestParserCache:
    def test_two_runs_build_one_parser(self, monkeypatch, capsys):
        built = []
        init = cli._Parser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "__init__", counting)
        cli.build_parser.cache_clear()
        try:
            assert invoke(["torsion", HOPF], capsys)[0] == 0
            assert invoke(["gassner", TRIVIAL], capsys)[0] == 0
        finally:
            cli.build_parser.cache_clear()
        assert built.count("stringlinks") == 1

    def test_usage_error_after_a_run_exits_one(self, capsys):
        assert invoke(["torsion", HOPF], capsys)[0] == 0
        with pytest.raises(SystemExit) as exc:
            run(["torsion", HOPF, "--order", "2"])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if "error:" in line] == \
            ["stringlinks: error: unrecognized arguments: --order 2"]


class TestBadArguments:
    """Bad option values are usage errors (exit 1), never violations."""

    def test_altsum_flip_out_of_range(self, capsys):
        code, out, err = invoke(["altsum", HOPF, "--flips", "99"], capsys)
        assert code == 1
        assert "out of range" in err

    def test_altsum_flip_not_a_crossing(self, capsys):
        # event 3 of kink_on_hopf is the kink's cup
        code, out, err = invoke(
            ["altsum", str(CORPUS_DIR / "kink_on_hopf.sl"), "--flips", "3"], capsys
        )
        assert code == 1
        assert "not a crossing" in err

    def test_altsum_flips_not_distinct(self, capsys):
        code, out, err = invoke(["altsum", HOPF, "--flips", "1,1"], capsys)
        assert code == 1
        assert "distinct" in err

    def test_twist_strand_out_of_range(self, capsys):
        code, out, err = invoke(["twist", HOPF, "--strand", "5"], capsys)
        assert code == 1
        assert "out of range" in err

    @pytest.mark.parametrize("angles", ["nan,nan", "inf,0.1", "1e308,1e308"])
    def test_spectrum_angles_that_are_not_finite(self, angles, capsys):
        # nan and inf reach no eigenvalue solver; 2 pi * 1e308 overflows
        code, out, err = invoke(["spectrum", HOPF, "--angles", angles], capsys)
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_spectrum_pole_at_given_angles(self, capsys):
        code, out, err = invoke(["spectrum", HOPF, "--angles", "0,0"], capsys)
        assert code == 1
        assert "pole" in err

    def test_taylor_negative_order(self):
        with pytest.raises(SystemExit) as exc:
            run(["taylor", HOPF, "--order", "-1"])
        assert exc.value.code == 1

    def test_altsum_negative_order(self):
        with pytest.raises(SystemExit) as exc:
            run(["altsum", HOPF, "--flips", "1", "--order", "-2"])
        assert exc.value.code == 1

    def test_taylor_order_past_the_exponent_range(self, capsys):
        # braid4_a23sq has 4 colors, so exponents and orders stay below 1024
        code, out, err = invoke(
            ["taylor", str(CORPUS_DIR / "braid4_a23sq.sl"), "--order", "1024"], capsys)
        assert code == 1
        assert err.startswith("error:") and "packed range" in err

    def test_braid_b_generators(self, capsys):
        code, out, err = invoke(["alexander", HOPF, "--braid-b", "s1"], capsys)
        assert code == 0
        for bad, message in (("s9", "generator 's9' out of range for n=2"),
                             ("x1", "bad braid generator 'x1'"),
                             ("1", "bad braid generator '1'")):
            code, out, err = invoke(["alexander", HOPF, "--braid-b", bad], capsys)
            assert code == 1
            assert err.splitlines() == ["error: " + message]

    def test_algebra_error_is_one_line_violation(self, monkeypatch, capsys):
        def singular(word):
            raise SingularMatrixError("coefficient matrix is structurally singular")

        monkeypatch.setattr(cli, "gassner", singular)
        code, out, err = invoke(["gassner", HOPF], capsys)
        assert code == 2
        assert err.strip() == (
            "violation: SingularMatrixError: "
            "coefficient matrix is structurally singular"
        )

    def test_closure_of_color_permuting_word_is_usage_error(self, tmp_path, capsys):
        swap = tmp_path / "swap.sl"
        swap.write_text("sl 2\nx 1 +\nend\n")
        for command in ("report", "alexander"):
            code, out, err = invoke([command, str(swap)], capsys)
            assert code == 1
            assert err.splitlines() == [
                "error: closure undefined: bottom colors (1, 2) != top colors (2, 1)"]

    def test_knot_closure_of_non_pure_word_is_usage_error(self, capsys):
        code, out, err = invoke(
            ["alexander", str(CORPUS_DIR / "nonpure3_cycle.sl"), "--braid-b", "s1"], capsys
        )
        assert code == 1
        assert err.splitlines() == ["error: knot-closure relation needs a pure word"]

    def test_zero_division_is_violation(self, monkeypatch, capsys):
        def divide(fox):
            raise ZeroDivisionError("division by the zero polynomial")

        monkeypatch.setattr(cli, "torsion", divide)
        code, out, err = invoke(["torsion", HOPF], capsys)
        assert code == 2
        assert "Traceback" not in err


SUBCOMMANDS = ("gassner", "burau", "reduce", "alexander", "torsion", "report",
               "twist", "taylor", "altsum", "walkcheck", "spectrum", "verify")


class TestBadInput:
    """Every subcommand turns an unreadable input into one `error:` line, exit 1."""

    def test_every_subcommand_is_covered(self):
        assert set(SUBCOMMANDS) == set(cli._HANDLERS)

    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_malformed_file(self, command, tmp_path, capsys):
        bad = tmp_path / "bad.sl"
        bad.write_text("sl 2\nx 1 sideways\nend\n")
        code, out, err = invoke([command, str(bad)], capsys)
        assert code == 1
        assert err.startswith("error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_file_not_utf8(self, command, tmp_path, capsys):
        bad = tmp_path / "latin1.sl"
        bad.write_bytes("# caf\u00e9\nbraid 2: s1 s1\n".encode("latin-1"))
        code, out, err = invoke([command, str(bad), "--flips", "1"] if command == "altsum"
                                else [command, str(bad)], capsys)
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err and out == ""

    @pytest.mark.parametrize("text", ["braid 100000000000000000000: s3\n",
                                      "sl 2\ncolors 1 100000000000000000000\nend\n"])
    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_value_past_the_strand_limit(self, command, text, tmp_path, capsys):
        # the parser rejects the value, so no stage runs on it
        bad = tmp_path / "huge.sl"
        bad.write_text(text)
        code, out, err = invoke([command, str(bad)], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error: line ") and err.count("\n") == 1
        assert "in 1..%d" % MAX_STRANDS in err

    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_missing_file(self, command, tmp_path, capsys):
        code, out, err = invoke([command, str(tmp_path / "missing.sl")], capsys)
        assert code == 1
        assert err.startswith("error:")
        assert "Traceback" not in err


# DSL vocabulary for token streams: small numbers, and values past the
# strand limit that the parser must refuse before any stage runs
TOKENS = ("sl", "colors", "x", "cap", "cup", "end", "braid", "braid 2:", "braid 3:", "+", "-",
          "<", ">", "#", ":", "s1", "s2'", "s3", "0", "1", "2", "3", "4", "-1", "1.5",
          str(MAX_STRANDS + 1), "100000000000000000000", "\u00e9")


@st.composite
def small_words(draw):
    """A word of at most 4 strands and 8 events, with free colors, crossings,
    cups and caps; every cup is closed by a cap, so the DSL parses."""
    n = draw(st.integers(1, 4))
    colors = draw(st.one_of(st.just(tuple(range(1, n + 1))),
                            st.lists(st.integers(1, 4), min_size=n, max_size=n)))
    events, live, size = [], n, draw(st.integers(0, 8))
    while len(events) < size:
        room = size - len(events) - (live - n) // 2  # events left once the caps are due
        kinds = ["cup"] * (room >= 2) + ["x"] * (live >= 2 and room >= 1) + ["cap"] * (live - 2 >= n)
        if not kinds:
            break
        kind = draw(st.sampled_from(kinds))
        if kind == "x":
            events.append(draw(st.sampled_from((CrossPos, CrossNeg)))(draw(st.integers(1, live - 1))))
        elif kind == "cup":
            events.append(draw(st.sampled_from((CupL, CupR)))(draw(st.integers(1, live + 1))))
            live += 2
        else:
            events.append(Cap(draw(st.integers(1, live - 1))))
            live -= 2
    while live > n:
        events.append(Cap(draw(st.integers(1, live - 1))))
        live -= 2
    return MorseWord(n, tuple(colors), tuple(events))


def _fuzz_argv(draw, command, path):
    argv = [command, path] + draw(st.sampled_from(([], ["--json"])))
    if command == "altsum":
        argv += ["--flips", draw(st.sampled_from(("1", "2", "1,2", "2,3", "9", "0", "x")))]
    if command in ("taylor", "altsum"):
        argv += draw(st.sampled_from(([], ["--order", "0"], ["--order", "2"])))
    if command == "twist":
        argv += ["--strand", draw(st.sampled_from(("1", "2", "4", "0")))]
    if command == "spectrum":
        argv += draw(st.sampled_from(([], ["--angles", "0.25"], ["--angles", "0.25,0.5"],
                                      ["--angles", "0.1,0.2,0.3,0.4"])))
    return argv


class TestExitContractUnderFuzzing:
    """cli.run exits 0, 1 or 2 on any input and any of the 12 subcommands,
    and no exception or traceback reaches the user."""

    @staticmethod
    def _run_all(data, path, capsys):
        """Run every subcommand on the file at path; {subcommand: exit code}."""
        codes = {}
        for command in SUBCOMMANDS:
            argv = _fuzz_argv(data.draw, command, path)
            codes[command] = run(argv)
            out, err = capsys.readouterr()
            assert codes[command] in (0, 1, 2), (argv, codes[command])
            assert "Traceback" not in out + err, argv
        return codes

    def test_small_valid_words(self, tmp_path, capsys):
        path = tmp_path / "word.sl"
        codes = set()

        @settings(max_examples=60, derandomize=True, database=None, deadline=None)
        @given(small_words(), st.data())
        def contract(word, data):
            dsl = to_dsl(word)
            assert parse_morse(dsl) == word
            path.write_text(dsl)
            ran = self._run_all(data, str(path), capsys)
            # an identity holds on every valid word; only spectrum's
            # unitarity check may fail, at drawn angles
            assert all(code < 2 for command, code in ran.items() if command != "spectrum"), ran
            codes.update(ran.values())

        contract()
        assert 0 in codes and 1 in codes

    def test_random_text_and_token_streams(self, tmp_path, capsys):
        path = tmp_path / "input.sl"
        tokens = st.lists(st.sampled_from(TOKENS), max_size=24).flatmap(
            lambda toks: st.lists(st.sampled_from((" ", "\n")), min_size=len(toks),
                                  max_size=len(toks)).map(
                lambda seps: "".join(t + s for t, s in zip(toks, seps))))
        raw = st.one_of(st.binary(max_size=60), st.text(max_size=60).map(
            lambda text: text.encode("utf-8", "surrogatepass")), tokens.map(str.encode))

        @settings(max_examples=60, derandomize=True, database=None, deadline=None)
        @given(raw, st.data())
        def contract(content, data):
            path.write_bytes(content)
            self._run_all(data, str(path), capsys)

        contract()


PINNED = json.loads((Path(__file__).resolve().parent / "data" / "corpus_outputs.json").read_text())


class TestPinnedOutputs:
    """Corpus outputs, byte for byte as recorded: report --json, torsion --json,
    taylor --json --order 4 and, where the word has a crossing, altsum --json
    over its first crossing at order 3."""

    def test_every_corpus_file_is_pinned(self):
        assert sorted(PINNED) == sorted(p.name for p in CORPUS_DIR.glob("*.sl"))
        for name, pins in PINNED.items():
            has_crossing = any(is_crossing(e) for e in
                               parse_morse((CORPUS_DIR / name).read_text()).events)
            expected = {"report", "torsion", "taylor"} | ({"altsum"} if has_crossing else set())
            assert set(pins) == expected, name

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_corpus_output_unchanged(self, name, capsys):
        for command, pin in sorted(PINNED[name].items()):
            code, out, err = invoke(pin["argv"] + [str(CORPUS_DIR / name)], capsys)
            assert (code, out) == (pin["exit"], pin["stdout"]), command


class TestJson:
    def test_matrix_round_trip(self, capsys):
        code, out, err = invoke(["gassner", HOPF, "--json"], capsys)
        assert code == 0
        data = json.loads(out)
        word = parse_morse(Path(HOPF).read_text())
        assert matrix_from_json(data) == gassner(word).entries

    def test_report_json_fields(self, capsys):
        code, out, err = invoke(["report", HOPF, "--json"], capsys)
        data = json.loads(out)
        assert data["pure"] is True
        assert data["one_factorization_ok"] is True

    def test_verify_json(self, capsys):
        code, out, err = invoke(["verify", HOPF, "--json"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["ok"] is True
        assert all(c["ok"] in (True, None) for c in data["checks"])


class TestSubcommands:
    def test_torsion_of_braid_is_unit(self, capsys):
        code, out, err = invoke(["torsion", HOPF], capsys)
        assert code == 0
        assert out.strip() == "1"

    def test_walkcheck(self, capsys):
        code, out, err = invoke(["walkcheck", HOPF], capsys)
        assert code == 0
        assert "agree" in out

    @pytest.fixture
    def tampered_walk(self, monkeypatch):
        # the walk oracle, off by one in its (1, 1) cell
        def walk_matrix(diagram, num_vars=None):
            G = stringlinks.walk_matrix(diagram, num_vars)
            entries = [list(row) for row in G.entries]
            entries[0][0] = entries[0][0] + stringlinks.RatFunc.one(G.num_vars)
            return stringlinks.RatMatrix(G.num_vars, entries)

        monkeypatch.setattr(cli, "walk_matrix", walk_matrix)

    @pytest.mark.parametrize("name", ["hopf.sl", "kink_on_hopf.sl"])
    def test_walkcheck_fails_when_the_oracle_disagrees(self, name, tampered_walk, capsys):
        code, out, err = invoke(["walkcheck", str(CORPUS_DIR / name)], capsys)
        assert (code, out) == (2, "")
        assert err.splitlines() == ["violation: walk matrix disagrees with the Fox matrix"]

    @pytest.mark.parametrize("name", ["hopf.sl", "kink_on_hopf.sl"])
    def test_verify_fails_when_the_oracle_disagrees(self, name, tampered_walk, capsys):
        code, out, err = invoke(["verify", str(CORPUS_DIR / name)], capsys)
        assert (code, out) == (2, "")
        lines = err.splitlines()
        assert lines[0] == "violation: identity failed: walk oracle agreement"
        status = {line[6:].split("  ")[0]: line[:4].strip() for line in lines[1:]}
        assert status.pop("walk oracle agreement") == "FAIL"
        assert set(status.values()) == {"ok"}

    @pytest.fixture
    def tampered_stack(self, monkeypatch):
        # the doubled word of the stacking check, stacked once more
        def stack(lower, upper):
            return stringlinks.stack(stringlinks.stack(lower, upper), upper)

        monkeypatch.setattr(cli, "stack", stack)

    @pytest.mark.parametrize("name", ["hopf.sl", "kink_on_hopf.sl", "twist_s2.sl"])
    def test_verify_fails_when_stacking_disagrees(self, name, tampered_stack, capsys):
        code, out, err = invoke(["verify", str(CORPUS_DIR / name)], capsys)
        assert (code, out) == (2, "")
        lines = err.splitlines()
        assert lines[0] == "violation: identity failed: stacking multiplicativity"
        status = {line[6:].split("  ")[0]: line[:4].strip() for line in lines[1:]}
        assert status.pop("stacking multiplicativity") == "FAIL"
        assert set(status.values()) <= {"ok", "skip"} and "ok" in status.values()

    @pytest.mark.parametrize("name", ["twist_s2.sl", "twisted_k1.sl", "twisted_k2.sl"])
    def test_verify_passes_over_a_non_unit_denominator(self, name, capsys):
        # gamma = N / d with d != 1: the stacking product is N N over d^2
        code, out, err = invoke(["verify", str(CORPUS_DIR / name)], capsys)
        assert (code, err) == (0, "")
        assert out.splitlines()[0].split()[:3] == ["ok", "stacking", "multiplicativity"]

    def test_twist_self_verifies(self, capsys):
        code, out, err = invoke(["twist", HOPF, "--strand", "2"], capsys)
        assert code == 0

    def test_twist_bad_strand_is_usage_error(self, capsys):
        # strand 1 of s1 is not returned to its slot: precondition fails
        code, out, err = invoke(
            ["twist", str(CORPUS_DIR / "s1.sl"), "--strand", "1"], capsys
        )
        assert code == 1

    def test_taylor_default_order(self, capsys):
        code, out, err = invoke(["taylor", HOPF, "--json"], capsys)
        data = json.loads(out)
        assert data["bound"] == 2
        assert data["vars"] == ["z1", "z2"]

    def test_altsum_requires_flips(self, capsys):
        code, out, err = invoke(["altsum", HOPF], capsys)
        assert code == 1

    def test_altsum_reports_vanishing(self, capsys):
        code, out, err = invoke(["altsum", HOPF, "--flips", "1"], capsys)
        assert code == 0
        assert "min total degree" in out

    def test_alexander_with_braid(self, capsys):
        code, out, err = invoke(
            ["alexander", HOPF, "--braid-b", "s1", "--json"], capsys
        )
        assert code == 0
        data = json.loads(out)
        assert data["knot_closure"]["ok"] is True
        assert data["knot_closure"]["closure"] == "1 - t"

    def test_spectrum_default_angles(self, capsys):
        code, out, err = invoke(["spectrum", HOPF], capsys)
        assert code == 0
        assert "lambda" in out

    def test_verify_skips_on_non_pure(self, capsys):
        code, out, err = invoke(["verify", FIG8], capsys)
        assert code == 0
        assert "skip" in out


class TestMultiFile:
    def test_headers_and_aggregate_status(self, capsys):
        code, out, err = invoke(["torsion", HOPF, TRIVIAL], capsys)
        assert code == 0
        assert "== %s ==" % HOPF in out

    def test_parallel_jobs(self, capsys):
        code, out, err = invoke(
            ["walkcheck", HOPF, TRIVIAL, FIG8, "--jobs", "2"], capsys
        )
        assert code == 0
        assert out.count("agree") == 3

    @pytest.mark.parametrize("cpus, workers", [(8, 3), (2, 2)])
    def test_jobs_capped_by_files_and_cpus(self, monkeypatch, capsys, cpus, workers):
        # a fake pool: no process is started, whatever --jobs asks for
        pools = []

        class FakePool:
            def __init__(self, max_workers, mp_context):
                pools.append((max_workers, mp_context.get_start_method()))

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        code, out, err = invoke(["torsion", HOPF, TRIVIAL, FIG8, "--jobs", "10000"], capsys)
        assert code == 0
        assert out.count("== ") == 3
        assert pools == [(workers, "spawn")]

    @pytest.mark.parametrize("jobs", ["0", "-3", "two"])
    def test_jobs_below_one_is_a_usage_error(self, jobs, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["torsion", HOPF, TRIVIAL, "--jobs", jobs])
        assert exc.value.code == 1
        assert "--jobs" in capsys.readouterr().err

    def test_worst_exit_code_wins(self, capsys):
        code, out, err = invoke(
            ["spectrum", HOPF, FIG8, "--angles", "0.5"], capsys
        )
        assert code == 2


def test_console_script_installed():
    # the child imports the same stringlinks as this process, installed or not
    package_root = str(Path(stringlinks.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "stringlinks.cli", "gassner", HOPF],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0
    assert "t2" in proc.stdout
