"""Command-line front end for string-link invariants.

Every subcommand reads one or more diagram files (Morse DSL or the
one-line braid shorthand), computes an invariant, and prints it as
aligned text or JSON.  Exit codes: 0 on success, 1 on usage or parse
problems, 2 when a mathematical identity that must hold fails.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from functools import lru_cache
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from .alexander import full_report, knot_closure_relation, torsion
from .algebra import (
    AlgebraError,
    ExponentRangeError,
    PoleError,
    VerificationError,
    default_var_names,
)
from .diagram import (
    MorseError,
    MorseWord,
    _braid_generators,
    add_twist,
    parse_morse,
    stack,
)
from .finitetype import alternating_sum, flip_problem, taylor_gassner
from .gassner import (
    burau,
    fixes_weight_vectors,
    fox_of_word,
    gassner,
    matrix_to_json,
    reduce,
    squared,
    unitary_spectrum_check,
)
from .walks import twist_formula, walk_matrix

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; the contract reserves 2 for math."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, "%s: error: %s\n" % (self.prog, message))


def _parse_list(text: str, kind, name: str) -> list:
    try:
        return [kind(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise MorseError("expected a comma-separated %s list, got %r" % (name, text))


def _nonneg_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("expected an integer, got %r" % text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0, got %d" % value)
    return value


def _matrix_text(data: dict) -> str:
    rows = data["entries"]
    if not rows:
        return "[]"
    width = max(len(cell) for row in rows for cell in row)
    return "\n".join(
        "[ " + "  ".join(cell.ljust(width) for cell in row) + " ]"
        for row in rows
    )


def _emit_matrix(g, as_json: bool) -> str:
    data = matrix_to_json(g)
    if as_json:
        return json.dumps(data, indent=2)
    return _matrix_text(data)


def _cmd_gassner(word: MorseWord, opts) -> str:
    return _emit_matrix(gassner(word), opts.json)


def _cmd_burau(word: MorseWord, opts) -> str:
    return _emit_matrix(burau(word), opts.json)


def _cmd_reduce(word: MorseWord, opts) -> str:
    return _emit_matrix(reduce(gassner(word)), opts.json)


def _cmd_torsion(word: MorseWord, opts) -> str:
    tau = torsion(fox_of_word(word))
    names = default_var_names(tau.num_vars)
    if opts.json:
        return json.dumps({"torsion": tau.to_text(names), "vars": list(names)})
    return tau.to_text(names)


def _cmd_alexander(word: MorseWord, opts) -> str:
    report = full_report(word)
    data = report.to_json()
    out = {
        "delta_closure": data["delta_closure"],
        "delta_link": data["delta_link"],
        "delta_closure_one": data["delta_closure_one"],
        "delta_link_one": data["delta_link_one"],
    }
    if opts.braid_b is not None:
        gens = _braid_generators(opts.braid_b, word.n)
        check = knot_closure_relation(report, gens)
        out["knot_closure"] = {
            "ok": check.ok,
            "degenerate": check.degenerate,
            "closure": check.lhs.to_text(("t",)),
            "closure_with_braid": check.rhs_closure.to_text(("t",)),
        }
        if check.ok is False:
            raise VerificationError(
                "knot-closure relation failed:\n" + json.dumps(out, indent=2)
            )
    if opts.json:
        return json.dumps(out, indent=2)
    return "\n".join("%-18s  %s" % item for item in out.items())


def _cmd_report(word: MorseWord, opts) -> str:
    report = full_report(word)
    if opts.json:
        return json.dumps(report.to_json(), indent=2)
    return report.table()


def _cmd_twist(word: MorseWord, opts) -> str:
    strand = opts.strand
    if not 1 <= strand <= word.n:
        raise MorseError("strand %d out of range 1..%d" % (strand, word.n))
    g = gassner(word)
    formula = twist_formula(g, strand)
    direct = gassner(add_twist(word, strand))
    if formula != direct.entries:
        raise VerificationError(
            "twist formula disagrees with the twisted diagram on strand %d"
            % strand
        )
    return _emit_matrix(formula, opts.json)


def _cmd_taylor(word: MorseWord, opts) -> str:
    order = opts.order if opts.order is not None else 2
    series = taylor_gassner(word, order)
    if opts.json:
        return json.dumps(series.to_json(), indent=2)
    return _matrix_text(series.to_json())


def _cmd_altsum(word: MorseWord, opts) -> str:
    if not opts.flips:
        raise MorseError("altsum needs --flips with at least one index")
    flips = _parse_list(opts.flips, int, "integer")
    problem = flip_problem(word, flips)
    if problem is not None:
        raise MorseError(problem)
    k = len(flips)
    order = opts.order if opts.order is not None else k + 2
    series = alternating_sum(word, flips, order)
    lowest = series.min_total_degree()
    if not series.vanishes_below(k):
        raise VerificationError(
            "alternating sum over %d flips has a coefficient of total "
            "degree %s < %d" % (k, lowest, k)
        )
    if opts.json:
        data = series.to_json()
        data["flips"] = flips
        data["min_total_degree"] = lowest
        return json.dumps(data, indent=2)
    head = "min total degree %s (>= %d as required)" % (lowest, k)
    return head + "\n" + _matrix_text(series.to_json())


def _cmd_walkcheck(word: MorseWord, opts) -> str:
    g = gassner(word)
    walked = walk_matrix(g.diagram)
    if walked != g.entries:
        raise VerificationError("walk matrix disagrees with the Fox matrix")
    msg = {"agree": True, "n": g.n}
    return json.dumps(msg) if opts.json else "ok: walk and Fox matrices agree"


def _cmd_spectrum(word: MorseWord, opts) -> str:
    g = gassner(word)
    gt = reduce(g)
    if opts.angles is not None:
        angles = _parse_list(opts.angles, float, "float")
        if len(angles) != g.num_vars:
            raise MorseError(
                "need %d angles (one per variable), got %d"
                % (g.num_vars, len(angles))
            )
        if not all(math.isfinite(2 * math.pi * a) for a in angles):
            raise MorseError("angles a_j must keep 2 pi a_j finite, got %s" % opts.angles)
        try:
            report = unitary_spectrum_check(gt, angles)
        except PoleError:
            raise MorseError("angles %s hit a pole of the reduced matrix"
                             % opts.angles)
    else:
        report = unitary_spectrum_check(gt)
    if not report.ok:
        raise VerificationError(
            "spectrum off the unit circle: max | |lambda| - 1 | = %.3e"
            % report.max_deviation
        )
    if opts.json:
        return json.dumps(
            {
                "ok": report.ok,
                "max_deviation": report.max_deviation,
                "tolerance": report.tolerance,
                "eigenvalues": [[z.real, z.imag] for z in report.eigenvalues],
            },
            indent=2,
        )
    lines = ["max | |lambda| - 1 | = %.3e" % report.max_deviation]
    lines += ["lambda = %.12f %+.12fi" % (z.real, z.imag)
              for z in report.eigenvalues]
    return "\n".join(lines)


def _verify_checks(word: MorseWord) -> List[Tuple[str, Optional[bool], str]]:
    """Run the identity suite; each entry is (name, ok-or-None, detail)."""
    checks: List[Tuple[str, Optional[bool], str]] = []
    # gassner only accepts words whose top colors match their bottom
    # colors, so every word it returns a record for stacks on itself.
    g = gassner(word)
    doubled = gassner(stack(word, word))
    ok = doubled.entries == squared(g)
    checks.append(("stacking multiplicativity", ok, "gamma(LL) = gamma(L)^2"))

    if g.diagram.is_pure:
        fixes_col, fixes_row = fixes_weight_vectors(g)
        checks.append(
            ("weight column fixed", fixes_col, "gamma w = w, w_i = 1 - t_{c_i}")
        )
        checks.append(
            ("weight row fixed", fixes_row,
             "u gamma = u, u_i = (t_{c_1}...t_{c_i})^{-1}")
        )
    else:
        checks.append(("weight column fixed", None, "needs a pure word"))
        checks.append(("weight row fixed", None, "needs a pure word"))

    report = full_report(g)
    checks.append(
        ("closure matrix factorization", report.decomposition_residual_zero,
         "V = (A B) * blocks of gamma")
    )
    if report.multi_factorization_ok is not None:
        checks.append(
            ("torsion factors closure polynomial",
             report.multi_factorization_ok, "Delta_closure = tau * Delta_link")
        )
    checks.append(
        ("torsion factors closure polynomial (one variable)",
         report.one_factorization_ok, "collapsed to a single variable")
    )

    walked = walk_matrix(g.diagram)
    checks.append(
        ("walk oracle agreement", walked == g.entries,
         "walk-sum matrix equals the Fox matrix")
    )
    return checks


def _cmd_verify(word: MorseWord, opts) -> str:
    checks = _verify_checks(word)
    failed = [name for name, ok, _ in checks if ok is False]
    if opts.json:
        payload = {
            "checks": [
                {"name": name, "ok": ok, "detail": detail}
                for name, ok, detail in checks
            ],
            "ok": not failed,
        }
        text = json.dumps(payload, indent=2)
    else:
        lines = []
        for name, ok, detail in checks:
            status = "skip" if ok is None else ("ok" if ok else "FAIL")
            lines.append("%-4s  %-48s  %s" % (status, name, detail))
        text = "\n".join(lines)
    if failed:
        raise VerificationError(
            "identity failed: %s\n%s" % (", ".join(failed), text)
        )
    return text


_HANDLERS = {
    "gassner": _cmd_gassner,
    "burau": _cmd_burau,
    "reduce": _cmd_reduce,
    "alexander": _cmd_alexander,
    "torsion": _cmd_torsion,
    "report": _cmd_report,
    "twist": _cmd_twist,
    "taylor": _cmd_taylor,
    "altsum": _cmd_altsum,
    "walkcheck": _cmd_walkcheck,
    "spectrum": _cmd_spectrum,
    "verify": _cmd_verify,
}


def _process_file(path: str, opts_dict: dict) -> Tuple[str, int, str]:
    opts = argparse.Namespace(**opts_dict)
    try:
        word = parse_morse(Path(path).read_text())
        return path, EXIT_OK, _HANDLERS[opts.subcommand](word, opts)
    except (MorseError, OSError, ExponentRangeError, UnicodeDecodeError) as exc:
        return path, EXIT_USAGE, "error: %s" % exc
    except VerificationError as exc:
        return path, EXIT_VIOLATION, "violation: %s" % exc
    except (AlgebraError, ZeroDivisionError) as exc:
        return path, EXIT_VIOLATION, "violation: %s: %s" % (type(exc).__name__, exc)


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser; built on the first call, then shared by every run."""
    parser = _Parser(
        prog="stringlinks",
        description="Exact Gassner/Burau invariants of string links.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    specs = {
        "gassner": "print the colored matrix of a string link",
        "burau": "print the one-variable matrix of a string link",
        "reduce": "print the reduced (n-1) x (n-1) matrix",
        "alexander": "print closure and link Alexander polynomials",
        "torsion": "print the string-link torsion",
        "report": "print the full Alexander-invariant table",
        "twist": "twist one strand by formula and confirm on the diagram",
        "taylor": "Taylor expansion at t_i = 1 - z_i",
        "altsum": "alternating sum over crossing sign flips",
        "walkcheck": "compare the walk-sum matrix with the Fox matrix",
        "spectrum": "eigenvalue moduli at a unitarity point",
        "verify": "run the identity suite and fail on any violation",
    }
    for name, help_text in specs.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("inputs", nargs="+", help="diagram file(s)")
        p.add_argument("--json", action="store_true", help="JSON output")
        p.add_argument("--jobs", type=int, default=1, metavar="K",
                       help="process up to K files in parallel (at most one "
                            "worker per file and per CPU)")
        if name in ("taylor", "altsum"):
            p.add_argument("--order", type=_nonneg_int, default=None, metavar="N",
                           help="truncation order (total degree bound)")
        if name == "altsum":
            p.add_argument("--flips", default=None, metavar="I,J,...",
                           help="1-based crossing event indices to flip")
        if name == "twist":
            p.add_argument("--strand", type=int, default=1, metavar="S",
                           help="strand to twist (default 1)")
        if name == "spectrum":
            p.add_argument("--angles", default=None, metavar="A1,A2,...",
                           help="angles a_j, evaluate at t_j = exp(2 pi i a_j)")
        if name == "alexander":
            p.add_argument("--braid-b", default=None, metavar="WORD",
                           help="braid word, e.g. \"s1 s2'\", for the "
                                "knot-closure comparison")
    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    opts = parser.parse_args(argv)
    if opts.jobs < 1:
        parser.error("argument --jobs: must be >= 1, got %d" % opts.jobs)
    opts_dict = vars(opts).copy()
    paths = opts_dict.pop("inputs")
    workers = min(opts_dict.pop("jobs"), len(paths), os.cpu_count() or 1)
    opts_dict["inputs"] = None
    opts_dict["jobs"] = 1

    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers,
                                 mp_context=multiprocessing.get_context("spawn")) as pool:
            results = list(pool.map(_process_file, paths,
                                    [opts_dict] * len(paths)))
    else:
        results = [_process_file(path, opts_dict) for path in paths]

    status = EXIT_OK
    for path, code, output in results:
        if len(results) > 1:
            print("== %s ==" % path)
        stream = sys.stdout if code == EXIT_OK else sys.stderr
        print(output, file=stream)
        status = max(status, code)
    return status


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
