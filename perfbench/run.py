"""The affstr benchmark: run one workload and print its metrics.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload deep_solve --seed 1 --seconds 40 --trace 0

The inputs are made from the seed (workloads.py).  Each repetition runs
the whole job in a fresh interpreter (worker.py) so that it starts with
cold caches, and repetitions continue until --seconds have passed.  Every
output is checked against the committed references.  The human-readable
report goes to stdout first; the last line is one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`.

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json,
measured with tracing off.  With --trace 1 untraced and traced
repetitions alternate; the metrics are the per-layer ones, and the spans
are written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402
from host import pin_fastest_cpu  # noqa: E402
from tracer import CHECK_NAMES  # noqa: E402

# A run must end within 180 s whatever --seconds says.
RUN_LIMIT_S = 170.0
# Set-up (a fresh interpreter importing affstr and loading the algebras)
# takes about 50 ms, so each untraced repetition is preceded by this many
# interpreters that only set up: setup_s is a median over more samples.
SETUP_ONLY_PER_REP = 2


def run_rep(root, job, trace, cpus, timeout):
    """One repetition in a fresh interpreter: (result or None, error text)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    payload = json.dumps(dict(job, trace=trace, cpus=cpus))
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py")],
            input=payload, capture_output=True, text=True, cwd=root, env=env,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return None, f"repetition exceeded {timeout:.0f} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or [f"exit code {proc.returncode}"]
        return None, tail[0]
    return json.loads(lines[-1]), ""


def percentile(values, q):
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def run_benchmark(workload, seed, seconds, trace, *, root=None, min_reps=None, refs=None):
    """Run repetitions until `seconds` pass; return the report as a dict."""
    root = pathlib.Path(root or os.getcwd())
    refs = refs or wl.load_references()
    job, expected = wl.make_inputs(workload, seed, refs)
    if min_reps is None:
        min_reps = 2 if trace else 3
    began = time.perf_counter()
    reps, calib, notes, setup_s = [], [], [], []
    attempted = failed = 0
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    try:
        while True:
            traced = bool(trace) and len(reps) % 2 == 1
            rep_start = time.perf_counter()
            calib.append(pin_fastest_cpu(cpus))
            timeout = max(5.0, RUN_LIMIT_S - (rep_start - began))
            for _ in range(0 if traced else SETUP_ONLY_PER_REP):
                result, error = run_rep(root, dict(job, ops=[]), False, cpus, timeout)
                if result is not None:
                    setup_s.append(result["setup_s"])
            result, error = run_rep(root, job, traced, cpus, timeout)
            rep_s = time.perf_counter() - rep_start
            outputs = result["outputs"] if result else None
            a, f, rep_notes = wl.check_rep(job, expected, outputs)
            attempted += a
            failed += f
            notes += [error] if error else rep_notes
            if result is None:
                break
            result["traced"] = traced
            reps.append(result)
            if not traced:
                setup_s.append(result["setup_s"])
            elapsed = time.perf_counter() - began
            traced_reps = sum(r["traced"] for r in reps)
            done = len(reps) - traced_reps >= min_reps and (not trace or traced_reps >= min_reps)
            # Start another repetition only if it can end in time.
            if (done and elapsed + rep_s > seconds) or elapsed + rep_s > RUN_LIMIT_S:
                break
    finally:
        if len(cpus) > 1:
            os.sched_setaffinity(0, cpus)
    return {
        "workload": workload,
        "seed": seed,
        "job": job,
        "reps": reps,
        "calibration_ms": calib,
        "setup_s": setup_s,
        "attempted": attempted,
        "failed": failed,
        "notes": notes,
        "elapsed_s": time.perf_counter() - began,
    }


def end_to_end(report) -> dict:
    """End-to-end metrics from the untraced repetitions, with sample counts.

    The job is deterministic and CPU-bound, so other load on the host
    only ever slows it, and every repetition makes the same calls.
    `wall_s` adds up, over the timed operations, each one's lower quartile
    over the repetitions (see job_wall).  Reads are short, so each call
    and window is timed at its best over the passes of all repetitions,
    and the latency percentiles are taken over the calls.  Set-up time
    (over the repetitions and the set-up-only interpreters before them)
    and memory are medians.
    """
    plain = [r for r in report["reps"] if not r["traced"]]
    if not plain:
        return {name: (0.0, unit, 0) for name, unit in END_TO_END_UNITS.items()}

    def best(key):
        return [min(samples) for samples in zip(*(r[key] for r in plain))]

    mult_us = [ns / 1000.0 for ns in best("mult_ns")]
    # A window's size depends on the seeded module; its cost per listed
    # weight does not, so windows are compared per weight.
    window_us = [
        ns / 1000.0 / max(1, n) for ns, n in zip(best("window_ns"), plain[0]["window_weights"])
    ]
    n = len(plain)
    return {
        "wall_s": (job_wall(plain), "s", n),
        "setup_s": (statistics.median(report["setup_s"]), "s", len(report["setup_s"])),
        "mult_us.p50": (percentile(mult_us, 50), "us", len(mult_us)),
        "mult_us.p99": (percentile(mult_us, 99), "us", len(mult_us)),
        "character_us_per_weight.p50": (percentile(window_us, 50), "us", len(window_us)),
        "peak_rss_mb": (statistics.median(r["peak_rss_kb"] for r in plain) / 1024.0, "MB", n),
    }


def job_wall(reps) -> float:
    """Sum over the timed operations of each one's lower quartile in `reps`.

    On a shared 2-vCPU VM the host's speed drifts by tens of percent, both
    within seconds and in phases of minutes (see the calibration loop).
    The median moves with those phases.  The minimum does not, but an
    operation of several seconds (`verify`) is fast throughout only on rare
    occasions, so its minimum over the few repetitions of one run is
    unsteady.  In ten-seed sets of 40-second runs, the lower quartile
    (nearest rank) gave the lowest worst-case spread over the workloads.
    """
    if not reps:
        return 0.0
    return sum(percentile(samples, 25) for samples in zip(*(r["timed_s"] for r in reps)))


END_TO_END_UNITS = {
    "wall_s": "s", "setup_s": "s", "mult_us.p50": "us", "mult_us.p99": "us",
    "character_us_per_weight.p50": "us", "peak_rss_mb": "MB",
}


def per_layer(report) -> dict:
    """Per-layer metrics from the traced repetitions (median over them)."""
    traced = [r for r in report["reps"] if r["traced"]]
    plain = [r for r in report["reps"] if not r["traced"]]

    def med(fn):
        return statistics.median(fn(r) for r in traced) if traced else 0.0

    def t(name):
        return med(lambda r: r["trace"]["times"].get(name, 0.0))

    def c(name):
        value = med(lambda r: r["trace"]["counts"].get(name, 0))
        return int(value) if float(value).is_integer() else value

    def ratio(num, den):
        return med(
            lambda r: r["trace"]["counts"].get(num, 0) / r["trace"]["counts"][den]
            if r["trace"]["counts"].get(den) else 0.0
        )

    traced_wall = job_wall(traced)
    plain_wall = job_wall(plain)
    m = {
        "algebra.spec_s": (t("algebra.spec"), "s"),
        "fan.build_s": (t("fan.build"), "s"),
        "fan.vectors": (c("fan.vectors"), "count"),
        "fan.denominator_s": (t("fan.denominator"), "s"),
        "fan.denominator_terms": (c("fan.denominator_terms"), "count"),
        "folding.build_s": (t("folding.build"), "s"),
        "folding.folds": (c("folding.folds"), "count"),
        "folding.fan_margin": (c("folding.fan_margin"), "count"),
        "folding.useful_ratio": (ratio("folding.useful_folds", "folding.folds"), "ratio"),
        "folding.entries": (c("folding.entries"), "count"),
        "folding.calls": (c("folding.calls"), "count"),
        "folding.repeat_calls": (c("folding.repeat_calls"), "count"),
        "weyl.reductions": (c("weyl.reductions"), "count"),
        "weyl.reflections": (c("weyl.reflections"), "count"),
        "weyl.reflections_per_reduction": (
            ratio("weyl.reflections", "weyl.reductions"), "ratio"
        ),
        "strings.solve_s": (t("strings.solve"), "s"),
        "strings.solve_cells": (c("strings.solve_cells"), "count"),
        "strings.grade0_size": (c("strings.grade0_size"), "count"),
        "strings.assemble_s": (t("strings.assemble"), "s"),
        "strings.classes_s": (t("strings.classes"), "s"),
        "strings.mult_s": (t("strings.mult"), "s"),
        "strings.mult_calls": (c("strings.mult_calls"), "count"),
        "strings.character_s": (t("strings.character"), "s"),
        "strings.character_weights": (c("strings.character_weights"), "count"),
        "oracle.query_s": (t("oracle.query"), "s"),
        "oracle.queries": (c("oracle.queries"), "count"),
        "verify.run_s": (t("op.verify"), "s"),
    }
    for name in CHECK_NAMES:
        m[f"verify.{name}_s"] = (t(f"verify.{name}"), "s")
    m["verify.checks"] = (c("verify.checks"), "count")
    m["verify.failed"] = (c("verify.failed"), "count")
    m["trace.wall_s"] = (traced_wall, "s")
    m["trace.untraced_wall_s"] = (plain_wall, "s")
    m["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    m["host.calib_ms"] = (statistics.median(report["calibration_ms"]), "ms")
    return m


def write_spans(report) -> pathlib.Path:
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{report['workload']}-seed{report['seed']}.json"
    spans = [
        {"rep": i, "spans": r["trace"]["spans"]}
        for i, r in enumerate(report["reps"]) if r["traced"]
    ]
    with open(path, "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "job"], "reps": spans}, fh)
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = pathlib.Path(os.getcwd())
    if not (root / "src" / "affstr" / "__init__.py").is_file():
        print(f"error: no affstr sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    report = run_benchmark(args.workload, args.seed, args.seconds, args.trace, root=root)
    calib = report["calibration_ms"]
    print(f"workload {args.workload}, seed {args.seed}: {len(report['reps'])} repetitions "
          f"in {report['elapsed_s']:.1f} s, {report['failed']} of {report['attempted']} "
          f"operations failed")
    print(f"  host calibration loop (diagnostic, not gated): median {statistics.median(calib):.2f} ms, "
          f"min {min(calib):.2f}, max {max(calib):.2f}")
    plain = [r for r in report["reps"] if not r["traced"]]
    if plain and plain[0]["verify_s"] is not None:
        verify_s = percentile([r["verify_s"] for r in plain], 25)
        print(f"  verify_s (diagnostic): lower quartile {verify_s:.4f} s "
              f"over {len(plain)} repetitions")
    for note in dict.fromkeys(report["notes"]):
        print(f"  failure: {note}")
    if args.trace:
        metrics = per_layer(report)
        for name, (value, unit) in metrics.items():
            print(f"  {name:40s} {value:14.6g} {unit}")
        print(f"  spans written to {write_spans(report).relative_to(HERE.parent)}")
    else:
        samples = end_to_end(report)
        print(f"  wall_s: lower quartile of each operation over {len(plain)} repetitions; "
              "reads: best over passes (set-up and memory: "
              "median); n = repetitions, or calls timed")
        for name, (value, unit, n) in samples.items():
            print(f"  {name:28s} {value:14.6g} {unit:5s} (n={n})")
        if plain:
            walls = [r["wall_s"] for r in plain]
            print(f"  whole-job wall time (diagnostic): best {min(walls):.4f} s, "
                  f"median {statistics.median(walls):.4f} s")
        metrics = {name: (value, unit) for name, (value, unit, n) in samples.items()}
    result = {
        "correct": report["failed"] == 0 and report["attempted"] > 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
