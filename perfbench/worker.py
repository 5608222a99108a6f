"""One repetition of a benchmark job, in a fresh interpreter.

Reads a job made by workloads.make_inputs as JSON on stdin and writes
one JSON object on stdout: set-up time, the time of each operation,
latencies of single calls, peak memory, the program's outputs and, when
`trace` is set, the tracer's summary.  run.py starts one per repetition,
so every repetition begins with cold caches: `preset()` specs, fans,
and whatever a later version of the program caches per process.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import resource
import sys
import time

from host import pin_fastest_cpu

# Timed operations long enough to be worth starting on the currently
# faster CPU (see host.py); the probe is outside the timed region.  In ten
# alternating pairs of high_rank runs with and without this probe, it
# lowered the quartile spread of every timing metric.
LONG_OPS = ("solve", "verify", "two_path", "gate")
# Reads take a fraction of a second next to the seconds of solving and
# folding around them, so each repetition times them READ_PASSES times,
# after one full collection, and keeps each call's best: a single pass right
# after heavy folding is too few samples against the noise of a shared host.
READ_OPS = ("mults", "window")
READ_PASSES = 5


def window_digest(pairs):
    rows = sorted([int(x) for x in w.labels] + [int(w.grade), int(m)] for w, m in pairs)
    text = json.dumps(rows, separators=(",", ":"))
    return {"count": len(rows), "digest": hashlib.sha256(text.encode()).hexdigest()}


class Runner:
    def __init__(self, job, affstr, tracer):
        self.job = job
        self.affstr = affstr
        self.tracer = tracer
        self.specs = {}
        self.tables = {}
        self.mult_ns = {}  # op index -> each call's best latency
        self.window_ns = {}  # op index -> the window's best latency

    def load_algebras(self):
        for name, source in self.job["algebras"].items():
            self.specs[name] = self.affstr.load_algebra(source)

    def table_args(self, table_id):
        t = self.job["tables"][table_id]
        return self.specs[t["algebra"]], t

    # Each operation returns its output; only the program calls are timed.
    # Reads record their latencies, best over passes, under the op index.

    def solve(self, index, op):
        spec, t = self.table_args(op["table"])
        table = self.affstr.string_table(spec, t["mu"], t["level"], -t["depth"])
        self.tables[op["table"]] = table
        return {
            "base": [[int(x) for x in w.labels] for w in table.base.weights],
            "coefficients": [list(row) for row in table.coefficients],
        }

    def mults(self, index, op):
        calls = []
        for table_id, labels, grade in op["queries"]:
            spec, t = self.table_args(table_id)
            calls.append((spec, self.tables[table_id], spec.weight(labels, t["level"], grade)))
        weight_multiplicity = self.affstr.weight_multiplicity
        clock = time.perf_counter_ns
        answers, latencies = [], []
        for spec, table, lam in calls:
            start = clock()
            answers.append(weight_multiplicity(spec, table, lam))
            latencies.append(clock() - start)
        best = self.mult_ns.setdefault(index, latencies)
        self.mult_ns[index] = [min(a, b) for a, b in zip(best, latencies)]
        return {"answers": answers}

    def window(self, index, op):
        spec, t = self.table_args(op["table"])
        start = time.perf_counter_ns()
        pairs = self.affstr.character(spec, self.tables[op["table"]], op["depth"])
        elapsed = time.perf_counter_ns() - start
        self.window_ns[index] = min(self.window_ns.get(index, elapsed), elapsed)
        return pairs  # digested by window_digest, outside the timed region

    def verify(self, index, op):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.affstr.cli.main(["verify"])
        lines = buf.getvalue().splitlines()
        return {"lines": lines[:-1], "exit_code": code}

    def two_path(self, index, op):
        spec, t = self.table_args(op["table"])
        table = self.tables[op["table"]]
        fan = self.affstr.build_fan(spec, t["depth"])
        oracle = self.affstr.RacahOracle(spec, spec.weight(t["mu"], t["level"], 0), fan)
        points = mismatches = 0
        for s, xi in enumerate(table.base.weights):
            for d in range(t["depth"] + 1):
                points += 1
                mismatches += oracle.multiplicity(xi.shift_grade(-d)) != table.coefficients[s][d]
        return {"points": points, "mismatches": mismatches}

    def gate(self, index, op):
        fan = self.affstr.build_fan(self.specs[op["algebra"]], op["cutoff"])
        report = self.affstr.verify_denominator(fan)
        return {"ok": bool(report), "vectors": len(fan), "terms": report.checked_terms}

    def run(self, index, op):
        """(output, best seconds) of one operation; an exception is an output too."""
        fn = getattr(self, op["op"])
        reads = op["op"] in READ_OPS
        if op["op"] in LONG_OPS:
            pin_fastest_cpu(self.job["cpus"])
        first, best = None, float("inf")
        if reads:
            gc.collect()
        for k in range(READ_PASSES if reads else 1):
            start = time.perf_counter()
            try:
                if self.tracer is None:
                    out = fn(index, op)
                else:
                    out = self.tracer.run_op(index, f"op.{op['op']}", lambda: fn(index, op))
            except Exception as exc:  # a failed operation is reported, not fatal
                return {"error": f"{type(exc).__name__}: {exc}"}, time.perf_counter() - start
            best = min(best, time.perf_counter() - start)
            if k == 0:
                first = out
            elif out != first:
                return {"error": "output differs between passes"}, best
        return first, best


def main():
    job = json.load(sys.stdin)
    start = time.perf_counter()
    import affstr
    import affstr.cli

    tracer = None
    if job.get("trace"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    runner = Runner(job, affstr, tracer)
    runner.load_algebras()
    setup_s = time.perf_counter() - start
    ops = job["ops"]
    outputs = [None] * len(ops)
    timed_s = [0.0] * len(ops)
    for i, op in enumerate(ops):
        outputs[i], timed_s[i] = runner.run(i, op)
    windows = [i for i in sorted(runner.window_ns) if isinstance(outputs[i], list)]
    window_weights = [len(outputs[i]) for i in windows]
    for i in windows:
        outputs[i] = window_digest(outputs[i])
    if tracer is not None:
        tracer.uninstall()
    verify_s = [s for s, op in zip(timed_s, ops) if op["op"] == "verify"]
    result = {
        "setup_s": setup_s,
        "wall_s": sum(timed_s),
        "timed_s": timed_s,
        "verify_s": verify_s[0] if verify_s else None,
        "mult_ns": [ns for i in sorted(runner.mult_ns) for ns in runner.mult_ns[i]],
        "window_ns": [runner.window_ns[i] for i in windows],
        "window_weights": window_weights,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "outputs": outputs,
        "trace": tracer.summary() if tracer is not None else None,
    }
    sys.stdout.write(json.dumps(result, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    main()
