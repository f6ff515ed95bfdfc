#!/usr/bin/env python3
"""Benchmark of the stringlinks command line.

    python3 slbench/run.py --workload braids --seed 1 --seconds 37 --trace 0

Run from the root of a checkout.  It builds the seeded workload pool,
writes each word as a .sl file, then calls stringlinks.cli.run in this
process on one word after another (a closed loop with one client) until
--seconds have passed.  Every output is checked (see oracle.py).  The
last line of standard output is the result as JSON:

  --trace 0  the end-to-end metrics, measured without tracing;
  --trace 1  the per-layer metrics: every word runs untraced and then
             traced, with spans recorded (see tracing.py).

Earlier lines give the per-command latencies, the inputs, failures and
the machine.  `--write-reference` stores the outputs of the default seed
in slbench/reference.json, the reference later runs are compared with.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "slbench"
WORK = BENCH / ".work"
REFERENCE = BENCH / "reference.json"
DEFAULT_SEED = 1
SETUP_REPEATS = 5
TAIL_PERCENTILES = range(99, 49, -1)
TAIL_BEYOND = 10
# The span name expected to have the largest self time on each workload.
PREDICTED_DOMINANT = {"braids": "algebra.solve.fox", "tangles": "algebra.solve.walk",
                      "series": "algebra.taylor_expand"}

# (name, unit, better) of every end-to-end metric, in output order.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("compute_p50_s", "s", "lower"),
    ("compute_tail_s", "s", "lower"),
    ("check_p50_s", "s", "lower"),
    ("check_tail_s", "s", "lower"),
    ("words_per_s", "words/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)


class Tally:
    """Latency samples per command and failed operations."""

    def __init__(self):
        self.samples = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.words_done = 0
        self.per_word = {}

    def fail(self, where: str, problems) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append({"op": where, "problems": list(problems)[:5]})


def tail(samples):
    """(percentile, value): the highest whole percentile from 99 down to 50
    with at least TAIL_BEYOND samples above it; the median when none has."""
    xs = sorted(samples)
    if len(xs) >= 2:
        cuts = statistics.quantiles(xs, n=100, method="inclusive")
        for pct in TAIL_PERCENTILES:
            if sum(1 for x in xs if x > cuts[pct - 1]) >= TAIL_BEYOND:
                return pct, cuts[pct - 1]
    return 50, statistics.median(xs)


def run_op(cli, argv):
    """One CLI call: (seconds, exit code or None, stdout, error text)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # any exception is a failed operation, recorded below
        return time.perf_counter() - t0, None, out.getvalue(), repr(exc)
    return time.perf_counter() - t0, code, out.getvalue(), err.getvalue()


def run_job(cli, oracle, job, path, reference, seen, tally, tracer=None) -> float:
    """Run every command of one job, timing and checking each; returns the
    seconds spent inside the CLI."""
    ok = True
    spent = 0.0
    for op in job.ops:
        command = op[0]
        if tracer is not None:
            tracer.op = "%s/%s" % (job.name, command)
        seconds, code, out, err = run_op(cli, list(op) + [str(path)])
        spent += seconds
        tally.attempted += 1
        where = "%s %s" % (job.name, " ".join(op))
        if code != 0:
            tally.fail(where, ["exit code %s: %s" % (code, err.strip()[-300:])])
            ok = False
            continue
        expected = reference.get(job.name, {}).get(command) or seen.get((job.name, command))
        try:
            payload = json.loads(out)
        except ValueError:
            problems = ["output is not JSON"]
        else:
            problems = oracle.check(command, payload, expected)
            if reference.get(job.name, {}).get("dsl", job.dsl) != job.dsl:
                problems.append("word differs from the reference word")
            seen.setdefault((job.name, command), payload)
        if problems:
            tally.fail(where, problems)
            ok = False
            continue
        tally.samples.setdefault(command, []).append(seconds)
        tally.per_word.setdefault(job.name, {})[command] = seconds
    if ok:
        tally.words_done += 1
    return spent


def loop(cli, oracle, jobs, paths, reference, seen, tally, seconds, tracer=None):
    """Closed loop over the pool, cycling if needed, until `seconds` have passed.

    With a tracer every word runs twice, untraced and then traced, so both
    totals cover the same words under the same machine load.  Returns
    (words, wall seconds, untraced CLI seconds, traced CLI seconds).
    """
    t0 = time.perf_counter()
    words, untraced_s, traced_s = 0, 0.0, 0.0
    while time.perf_counter() - t0 < seconds:
        k = words % len(jobs)
        untraced_s += run_job(cli, oracle, jobs[k], paths[k], reference, seen, tally)
        if tracer is not None:
            with tracer:
                traced_s += run_job(cli, oracle, jobs[k], paths[k], reference, seen, tally, tracer)
        words += 1
    return words, time.perf_counter() - t0, untraced_s, traced_s


def setup(workloads, workload: str, seed: int):
    """Build the pool, write its .sl files and load the reference."""
    jobs = workloads.make_pool(workload, seed)
    folder = WORK / ("%s-%d" % (workload, seed))
    folder.mkdir(parents=True, exist_ok=True)
    paths = []
    for job in jobs:
        path = folder / (job.name + ".sl")
        path.write_text(job.dsl)
        paths.append(path.relative_to(ROOT))
    with open(REFERENCE) as fh:
        stored = json.load(fh)
    reference = stored[workload] if seed == DEFAULT_SEED else {}
    return jobs, paths, reference


def machine() -> dict:
    info = {"python": platform.python_version(), "nproc": os.cpu_count(),
            "loadavg": list(os.getloadavg()), "cpu": None}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return info


def corpus_check(cli):
    """Verify over the whole corpus, which must exit 0; outside the timed
    loop, its time is printed as a gauge of the machine's speed.
    Returns (seconds, problems)."""
    files = sorted(str(p.relative_to(ROOT)) for p in (ROOT / "corpus").glob("*.sl"))
    seconds, code, _, err = run_op(cli, ["verify", "--json"] + files)
    if code != 0 or not files:
        return seconds, ["verify over %d corpus files exited %s: %s"
                         % (len(files), code, err[-300:])]
    return seconds, []


def latencies(workload_spec, tally) -> dict:
    out = {}
    for command in workload_spec.commands:
        xs = tally.samples.get(command, [])
        if not xs:
            continue
        pct, value = tail(xs)
        out[command] = {"p50_s": statistics.median(xs), "tail_s": value,
                        "tail_percentile": pct, "samples": len(xs)}
    return out


def write_reference(cli, workloads) -> None:
    """Store the outputs of every word of the default seed."""
    stored = {}
    for name in workloads.WORKLOADS:
        jobs = workloads.make_pool(name, DEFAULT_SEED)
        folder = WORK / "reference"
        folder.mkdir(parents=True, exist_ok=True)
        entries = {}
        for job in jobs:
            path = folder / (job.name + ".sl")
            path.write_text(job.dsl)
            entry = {"dsl": job.dsl}
            for op in job.ops:
                _, code, out, err = run_op(cli, list(op) + [str(path.relative_to(ROOT))])
                if code != 0:
                    raise RuntimeError("%s %s exited %s: %s" % (job.name, op, code, err))
                entry[op[0]] = json.loads(out)
            entries[job.name] = entry
            print(job.name, flush=True)
        stored[name] = entries
    with open(REFERENCE, "w") as fh:
        json.dump(stored, fh, separators=(",", ":"), sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("braids", "tangles", "series"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=37.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.write_reference and args.workload is None:
        parser.error("--workload is required")

    missing = [p for p in ("src/stringlinks/__init__.py", "corpus") if not (ROOT / p).exists()]
    if not args.write_reference and not REFERENCE.exists():
        missing.append(str(REFERENCE.relative_to(ROOT)))
    if missing:
        print("error: run from a stringlinks checkout; missing %s" % ", ".join(missing),
              file=sys.stderr)
        return 1
    os.chdir(ROOT)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import stringlinks.cli as cli
    from slbench import oracle, tracing, workloads

    if args.write_reference:
        write_reference(cli, workloads)
        return 0
    if args.setup_only:
        setup(workloads, args.workload, args.seed)
        return 0

    # Set-up as a user pays it: a fresh process that imports the package,
    # builds the pool, writes the files and loads the reference.
    rounds = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(Path(__file__).resolve()), "--setup-only",
                        "--workload", args.workload, "--seed", str(args.seed)],
                       cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        rounds.append(time.perf_counter() - t0)
    setup_s = statistics.median(rounds)
    jobs, paths, reference = setup(workloads, args.workload, args.seed)

    corpus_s, corpus_problems = corpus_check(cli)
    # The pool and the reference stay alive for the whole run; keep them out
    # of the collections the program's own allocations trigger.
    gc.freeze()
    tally = Tally()
    seen = {}
    spec = workloads.WORKLOADS[args.workload]

    if args.trace:
        tracer = tracing.Tracer()
        words, _, untraced_s, traced_s = loop(cli, oracle, jobs, paths, reference, seen, tally,
                                              args.seconds, tracer)
        spans_file = WORK / ("spans-%s-%d.json" % (args.workload, args.seed))
        tracer.dump(spans_file)
        values = tracer.metrics(words, untraced_s, traced_s)
        dominant, share = tracer.dominant()
        predicted = PREDICTED_DOMINANT[args.workload]
        print(json.dumps({"trace": {"words": words, "spans": len(tracer.spans),
                                    "spans_file": str(spans_file.relative_to(ROOT)),
                                    "dominant": dominant, "dominant_share": share,
                                    "predicted": predicted,
                                    "prediction": "confirmed" if dominant == predicted else "wrong"}}))
        units = {name: unit for name, unit, _ in tracing.LAYER_METRICS}
    else:
        words, wall_s, _, _ = loop(cli, oracle, jobs, paths, reference, seen, tally, args.seconds)
        ops = latencies(spec, tally)
        compute, check = (ops.get(c, {"p50_s": 0.0, "tail_s": 0.0}) for c in spec.commands)
        values = {
            "setup_s": setup_s,
            "compute_p50_s": compute["p50_s"],
            "compute_tail_s": compute["tail_s"],
            "check_p50_s": check["p50_s"],
            "check_tail_s": check["tail_s"],
            "words_per_s": tally.words_done / wall_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        print(json.dumps({"latency": ops, "setup_rounds_s": rounds}))
        units = {name: unit for name, unit, _ in END_TO_END}

    print(json.dumps({"workload": args.workload, "seed": args.seed, "machine": machine(),
                      "corpus_verify_s": corpus_s,
                      "inputs": [dict(name=j.name, seconds=tally.per_word.get(j.name), **j.info)
                                 for j in jobs[:min(words, len(jobs))]]}))
    print(json.dumps({"attempted": tally.attempted, "failed": tally.failed,
                      "failed_frac": tally.failed / max(tally.attempted, 1),
                      "corpus_problems": corpus_problems, "problems": tally.problems}))
    result = {
        "correct": tally.failed == 0 and not corpus_problems and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
