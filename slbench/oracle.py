"""Correctness checks on the JSON that the CLI prints.

check(command, payload, expected) returns a list of problems; an empty
list means the output is correct.  Every identity flag the output carries
must hold.  With an expected payload (the stored reference, or the first
output seen for the same word) the output must also agree with it:
unit-normalized polynomials and series by canonical text, rational
functions by value, and a check that ran in the expected output must
not report `skip` now.
"""

from __future__ import annotations

from typing import List, Optional

from stringlinks import parse_ratfunc

REPORT_POLYS = ("tau", "delta_closure", "tau_one", "delta_closure_one")
REPORT_RATFUNCS = ("delta_link", "delta_link_one")
REPORT_FLAGS = ("multi_factorization_ok", "one_factorization_ok", "decomposition_residual_zero")
REPORT_REQUIRED = ("one_factorization_ok", "decomposition_residual_zero")


def _same_ratfunc(a: Optional[str], b: Optional[str], names) -> bool:
    if a is None or b is None:
        return a is b
    return parse_ratfunc(a, len(names), names) == parse_ratfunc(b, len(names), names)


def _check_report(out: dict, ref: Optional[dict]) -> List[str]:
    problems = ["%s is %s" % (k, out[k]) for k in REPORT_REQUIRED if out[k] is not True]
    if out["multi_factorization_ok"] is False:
        problems.append("multi_factorization_ok is False")
    if ref is None:
        return problems
    for key in ("n", "vars", "pure") + REPORT_POLYS:
        if out[key] != ref[key]:
            problems.append("%s differs from the reference" % key)
    names = {"delta_link": out["vars"], "delta_link_one": ["t"]}
    for key in REPORT_RATFUNCS:
        if not _same_ratfunc(out[key], ref[key], names[key]):
            problems.append("%s differs from the reference" % key)
    for key in REPORT_FLAGS:
        if ref[key] is not None and out[key] is None:
            problems.append("%s ran in the reference but is skipped" % key)
    return problems


def _check_verify(out: dict, ref: Optional[dict]) -> List[str]:
    problems = ["check failed: %s" % c["name"] for c in out["checks"] if c["ok"] is False]
    if out["ok"] is not True:
        problems.append("verify reports ok=%s" % out["ok"])
    if ref is None:
        return problems
    names = [c["name"] for c in out["checks"]]
    if names != [c["name"] for c in ref["checks"]]:
        problems.append("the list of checks differs from the reference")
        return problems
    for now, then in zip(out["checks"], ref["checks"]):
        if then["ok"] is not None and now["ok"] is None:
            problems.append("check ran in the reference but is skipped: %s" % now["name"])
    return problems


def _check_series(out: dict, ref: Optional[dict]) -> List[str]:
    problems = []
    if "flips" in out:
        lowest = out["min_total_degree"]
        if lowest is not None and lowest < len(out["flips"]):
            problems.append("alternating sum has a term of degree %s < %d" % (lowest, len(out["flips"])))
    if ref is None:
        return problems
    for key in ("n", "vars", "bound", "entries", "flips", "min_total_degree"):
        if out.get(key) != ref.get(key):
            problems.append("%s differs from the reference" % key)
    return problems


_CHECKS = {
    "report": _check_report,
    "verify": _check_verify,
    "taylor": _check_series,
    "altsum": _check_series,
}


def check(command: str, out: dict, ref: Optional[dict] = None) -> List[str]:
    """Problems found in one command's JSON output; empty when correct."""
    try:
        return _CHECKS[command](out, ref)
    except (KeyError, TypeError, ValueError) as exc:
        return ["malformed %s output: %r" % (command, exc)]
