"""Workloads of the affstr benchmark: candidate pools, seeded inputs, checks.

Nothing here imports affstr.  What a run sends to the program is derived
from the seed, the fixed pools below and the committed reference file
only, so a change to the program cannot change its own inputs.  Weyl
images of string points are made with the benchmark's own reflection
helper for the same reason.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import random

HERE = pathlib.Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "references.json"

# Cartan data with marks and comarks of every algebra the benchmark uses.
# `source` is what the program is asked to load: a preset name, or a JSON
# Cartan config (the way users supply non-preset algebras), relative to the
# root of the checkout.
ALGEBRAS = {
    "A1": {"source": "A1", "cartan": [[2]], "marks": [1], "comarks": [1]},
    "A2": {"source": "A2", "cartan": [[2, -1], [-1, 2]], "marks": [1, 1], "comarks": [1, 1]},
    "A3": {
        "source": "A3",
        "cartan": [[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
        "marks": [1, 1, 1],
        "comarks": [1, 1, 1],
    },
    "A4": {
        "source": "perfbench/configs/A4.json",
        "cartan": [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]],
        "marks": [1, 1, 1, 1],
        "comarks": [1, 1, 1, 1],
    },
    "G2": {
        "source": "perfbench/configs/G2.json",
        "cartan": [[2, -1], [-3, 2]],
        "marks": [2, 3],
        "comarks": [2, 1],
    },
}


def _group(algebra, level, depth, pool, windows):
    """Modules of one congruence class: the seed picks one mu from `pool`.

    All modules of a class share their folded fans and the size of their
    block system.  Where the Dynkin diagram has a symmetry, the pool is a
    pair of mirror images, whose character windows have the same size too;
    otherwise the vacuum module, whose windows are far smaller, is left
    out.  So the pick changes the answers but not the cost.
    """
    return {
        "algebra": algebra,
        "level": level,
        "depth": depth,
        "pool": [list(mu) for mu in pool],
        "windows": list(windows),
    }


# Calls of weight_multiplicity made on every table a workload solves;
# each group also reads one character window per listed depth.
READ_MULTS = 1000
MAX_WORD = 12

DEEP_SOLVE = [
    _group("A2", 10, 40, [(4, 1), (1, 4)], [4]),
    _group("A1", 8, 200, [(2,), (4,), (6,)], [20]),
    _group("A1", 8, 200, [(1,), (3,), (5,)], [20]),
    _group("G2", 3, 20, [(1, 0), (0, 2)], [6]),
]
# A mirror image moves an A4 module to another congruence class, so the A4
# pool is two self-mirror modules of class 0: they fold and solve in the
# same time, but their windows differ in size and cost per weight.  Five
# A3 windows keep the median window an A3 one whichever A4 module is picked.
HIGH_RANK = [
    _group("A3", 4, 15, [(2, 1, 0), (0, 1, 2)], [2, 3, 4, 5, 6]),
    _group("A4", 2, 3, [(1, 0, 0, 1), (0, 1, 1, 0)], [2, 3]),
]
TWO_PATH = [_group("A2", 3, 18, [(3, 0), (0, 3)], [4, 6, 8, 10, 12])]
# Denominator gates (algebra, cutoff).  Their costs differ, so every
# repetition runs all of them and the seed picks only their order.
GATES = [("A2", 24), ("A3", 8), ("G2", 12)]
WORKLOADS = ("deep_solve", "high_rank", "two_path")


def algebra_source(name, workload) -> str:
    """What the program is asked to load for algebra `name` on `workload`.

    `affstr verify` loads its algebras through preset(), whose specs, and
    the fans cached per spec, live for the whole process.  On `two_path`
    the workload's own algebras come from JSON configs instead, so verify
    starts with a cold preset() cache and no fan it builds serves the
    oracle or the gates.
    """
    if workload == "two_path":
        return f"perfbench/configs/{name}.json"
    return ALGEBRAS[name]["source"]


def all_groups():
    return DEEP_SOLVE + HIGH_RANK + TWO_PATH


def module_key(algebra, level, depth, mu) -> str:
    return f"{algebra}/L{level}/d{depth}/mu={','.join(str(x) for x in mu)}"


def gate_key(algebra, cutoff) -> str:
    return f"{algebra}/n{cutoff}"


def load_references(path=REFERENCE_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


# -- the benchmark's own Weyl group helpers -------------------------------


def theta_labels(alg) -> list[int]:
    cartan, marks = alg["cartan"], alg["marks"]
    return [sum(cartan[i][j] * marks[j] for j in range(len(marks))) for i in range(len(marks))]


def reflect(alg, i, labels, level, grade):
    """Simple reflection s_i on integer (labels; level; grade)."""
    if i == 0:
        l0 = level - sum(c * x for c, x in zip(alg["comarks"], labels))
        theta = theta_labels(alg)
        return [x + l0 * t for x, t in zip(labels, theta)], grade - l0
    li = labels[i - 1]
    cartan = alg["cartan"]
    return [x - li * cartan[j][i - 1] for j, x in enumerate(labels)], grade


def orbit_window(alg, start, level, grade, floor):
    """Orbit elements of a dominant weight with grade >= floor."""
    if grade < floor:
        return []
    seen = {(tuple(start), grade)}
    stack = [(list(start), grade)]
    out = []
    while stack:
        labels, g = stack.pop()
        out.append((tuple(labels), g))
        affine = [level - sum(c * x for c, x in zip(alg["comarks"], labels))] + labels
        for i, li in enumerate(affine):
            if li <= 0:
                continue
            child, cg = reflect(alg, i, labels, level, g)
            key = (tuple(child), cg)
            if cg >= floor and key not in seen:
                seen.add(key)
                stack.append((child, cg))
    return out


def window_rows(alg, level, base, coefficients, depth):
    """Canonical character window: sorted [labels..., grade, mult] rows."""
    rows = []
    for xi, coeffs in zip(base, coefficients):
        for d in range(depth + 1):
            if coeffs[d]:
                for labels, g in orbit_window(alg, xi, level, -d, -depth):
                    rows.append(list(labels) + [g, coeffs[d]])
    rows.sort()
    return rows


def digest(rows) -> str:
    text = json.dumps(rows, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# -- seeded inputs --------------------------------------------------------


def _pick_table(rng, group, refs, table_id):
    mu = rng.choice(group["pool"])
    ref = refs["modules"][module_key(group["algebra"], group["level"], group["depth"], mu)]
    table = {
        "id": table_id,
        "algebra": group["algebra"],
        "level": group["level"],
        "depth": group["depth"],
        "mu": mu,
    }
    return table, ref


def _query(rng, table, ref, length):
    """A Weyl image of a seeded string point, and the coefficient it must give.

    The word has the given length and no letter twice in a row, so the
    mix of query costs is the same for every seed.
    """
    alg = ALGEBRAS[table["algebra"]]
    s = rng.randrange(len(ref["base"]))
    d = rng.randrange(table["depth"] + 1)
    labels, grade = list(ref["base"][s]), -d
    letter = None
    for _ in range(length):
        letter = rng.choice([i for i in range(len(labels) + 1) if i != letter])
        labels, grade = reflect(alg, letter, labels, table["level"], grade)
    return [table["id"], labels, grade], ref["coefficients"][s][d]


def make_inputs(workload: str, seed: int, refs: dict):
    """The job sent to the program, and the answers kept back to check it.

    The job is a list of tables (modules to solve) and a list of timed
    operations; `expected` holds one entry per operation.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"affstr-bench:{workload}:{seed}")
    tables, ops, expected = [], [], []

    def solve_and_read(group):
        table, ref = _pick_table(rng, group, refs, len(tables))
        tables.append(table)
        ops.append({"op": "solve", "table": table["id"]})
        expected.append({"base": ref["base"], "coefficients": ref["coefficients"]})
        queries, answers = zip(
            *(_query(rng, table, ref, 1 + k % MAX_WORD) for k in range(READ_MULTS))
        )
        ops.append({"op": "mults", "queries": list(queries)})
        expected.append(list(answers))
        for depth in group["windows"]:
            ops.append({"op": "window", "table": table["id"], "depth": depth})
            expected.append(ref["windows"][str(depth)])
        return table, ref

    if workload in ("deep_solve", "high_rank"):
        for group in DEEP_SOLVE if workload == "deep_solve" else HIGH_RANK:
            solve_and_read(group)
    else:
        ops.append({"op": "verify"})
        expected.append(refs["verify"])
        table, ref = solve_and_read(TWO_PATH[0])
        ops.append({"op": "two_path", "table": table["id"]})
        expected.append({"points": len(ref["base"]) * (table["depth"] + 1)})
        for algebra, cutoff in rng.sample(GATES, len(GATES)):
            ops.append({"op": "gate", "algebra": algebra, "cutoff": cutoff})
            expected.append(refs["gates"][gate_key(algebra, cutoff)])
    algebras = sorted({t["algebra"] for t in tables} | {o["algebra"] for o in ops if "algebra" in o})
    job = {
        "workload": workload,
        "algebras": {name: algebra_source(name, workload) for name in algebras},
        "tables": tables,
        "ops": ops,
    }
    return job, expected


# -- checking the program's outputs ---------------------------------------


def op_size(op, want) -> int:
    """Operations one job entry counts for in attempted/failed."""
    if op["op"] == "mults":
        return len(op["queries"])
    if op["op"] == "verify":
        return want["checks"]
    if op["op"] == "two_path":
        return want["points"]
    return 1


def check_op(op, want, got):
    """Failed operations among op_size(op, want), with a note on the first."""
    size = op_size(op, want)
    if got is None or "error" in got:
        return size, (got or {}).get("error", "no result")
    kind = op["op"]
    if kind == "solve":
        mine = {tuple(b): list(c) for b, c in zip(want["base"], want["coefficients"])}
        theirs = {tuple(b): list(c) for b, c in zip(got["base"], got["coefficients"])}
        return (0, "") if mine == theirs else (1, f"table {op['table']} differs")
    if kind == "mults":
        bad = sum(a != b for a, b in zip(want, got["answers"]))
        bad += abs(len(want) - len(got["answers"]))
        return bad, f"{bad} multiplicities wrong" if bad else ""
    if kind == "window":
        ok = got["count"] == want["count"] and got["digest"] == want["digest"]
        return (0, "") if ok else (1, f"window depth {op['depth']} differs")
    if kind == "verify":
        passed = sum(line.startswith("PASS") for line in got["lines"])
        bad = max(len(got["lines"]), size) - passed
        if got["exit_code"] != 0 and bad == 0:
            bad = 1
        return bad, f"{bad} verify checks not PASS" if bad else ""
    if kind == "two_path":
        bad = got["mismatches"] + abs(size - got["points"])
        return bad, f"{bad} two-path points differ" if bad else ""
    if kind == "gate":
        ok = got["ok"] and got["vectors"] == want["vectors"] and got["terms"] == want["terms"]
        return (0, "") if ok else (1, f"gate {op['algebra']} n<={op['cutoff']} differs")
    raise ValueError(f"unknown operation {kind!r}")


def check_rep(job, expected, outputs):
    """(attempted, failed, notes) for one repetition's outputs."""
    attempted = failed = 0
    notes = []
    outputs = list(outputs or [])
    outputs += [None] * (len(job["ops"]) - len(outputs))
    for op, want, got in zip(job["ops"], expected, outputs):
        attempted += op_size(op, want)
        bad, note = check_op(op, want, got)
        failed += bad
        if note:
            notes.append(note)
    return attempted, failed, notes
