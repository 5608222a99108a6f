"""Regenerate perfbench/references.json, the benchmark's expected outputs.

Run from the root of the repository:

    python3 perfbench/make_references.py

Every module in every workload's candidate pool is solved by the folded
pipeline and then confirmed point by point by the unfolded recursion
(RacahOracle) to full depth.  Character windows are computed by the
benchmark's own orbit walk from the confirmed tables and must equal what
`character` returns.  Each denominator gate must pass, and `affstr verify`
must pass every check.  The script stops at the first disagreement, so
the file only ever holds confirmed values.
"""

from __future__ import annotations

import json
import pathlib
import random
import sys
import threading
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import affstr  # noqa: E402
from affstr import verify as verify_mod  # noqa: E402
from affstr.weyl import apply_word  # noqa: E402

import workloads as wl  # noqa: E402


def _fail(message):
    raise SystemExit(f"reference check failed: {message}")


def _spec(name, workload=None):
    source = wl.algebra_source(name, workload)
    return affstr.load_algebra(str(ROOT / source) if source.endswith(".json") else source)


def check_algebra_data(name, spec):
    """The benchmark's own Cartan data and reflections match the program's."""
    alg = wl.ALGEBRAS[name]
    if [list(r) for r in spec.cartan] != alg["cartan"]:
        _fail(f"{name}: Cartan matrix differs")
    if list(spec.marks) != alg["marks"] or list(spec.comarks) != alg["comarks"]:
        _fail(f"{name}: marks or comarks differ")
    if list(spec.theta_labels) != wl.theta_labels(alg):
        _fail(f"{name}: highest root labels differ")
    rng = random.Random(name)
    for _ in range(200):
        level = rng.randint(1, 6)
        labels = [rng.randint(-5, 5) for _ in alg["cartan"]]
        grade = -rng.randint(0, 10)
        word = [rng.randrange(len(labels) + 1) for _ in range(rng.randint(1, 10))]
        mine = (labels, grade)
        for i in word:
            mine = wl.reflect(alg, i, mine[0], level, mine[1])
        theirs = apply_word(spec, word, spec.weight(labels, level, grade))
        if (mine[0], mine[1]) != ([int(x) for x in theirs.labels], int(theirs.grade)):
            _fail(f"{name}: reflection word {word} differs")


def module_reference(group, mu, spec):
    name, level, depth = group["algebra"], group["level"], group["depth"]
    alg = wl.ALGEBRAS[name]
    table = affstr.string_table(spec, mu, level, -depth)
    base = [[int(x) for x in w.labels] for w in table.base.weights]
    coefficients = [list(row) for row in table.coefficients]
    oracle = affstr.RacahOracle(spec, spec.weight(mu, level, 0), affstr.build_fan(spec, depth))
    for s, xi in enumerate(table.base.weights):
        for d in range(depth + 1):
            if oracle.multiplicity(xi.shift_grade(-d)) != coefficients[s][d]:
                _fail(f"{name} level {level} mu={mu}: oracle differs at string {s} depth {d}")
    windows = {}
    for wdepth in sorted(set(group["windows"])):
        rows = wl.window_rows(alg, level, base, coefficients, wdepth)
        program = sorted(
            [int(x) for x in w.labels] + [int(w.grade), m]
            for w, m in affstr.character(spec, table, wdepth)
        )
        if rows != program:
            _fail(f"{name} level {level} mu={mu}: character window {wdepth} differs")
        windows[str(wdepth)] = {"count": len(rows), "digest": wl.digest(rows)}
    return {
        "base": base,
        "coefficients": coefficients,
        "windows": windows,
        "checked_by": f"RacahOracle on every string point to depth {depth}",
    }


def main():
    refs = {"modules": {}, "gates": {}, "verify": {}}
    specs = {}
    for name in wl.ALGEBRAS:
        specs[name] = _spec(name)
        check_algebra_data(name, specs[name])
    for name in {g["algebra"] for g in wl.TWO_PATH} | {name for name, _ in wl.GATES}:
        check_algebra_data(name, _spec(name, "two_path"))
    for group in wl.all_groups():
        classes = set()
        for mu in group["pool"]:
            spec = specs[group["algebra"]]
            classes.add(affstr.strings.classifier_for(spec).id_of(mu))
            key = wl.module_key(group["algebra"], group["level"], group["depth"], mu)
            start = time.perf_counter()
            refs["modules"][key] = module_reference(group, mu, spec)
            print(f"{key}: confirmed in {time.perf_counter() - start:.1f} s", flush=True)
        if len(classes) != 1:
            _fail(f"pool of {group['algebra']} level {group['level']} spans several classes")
    for name, cutoff in wl.GATES:
        start = time.perf_counter()
        fan = affstr.build_fan(specs[name], cutoff)
        report = affstr.verify_denominator(fan)
        if not report.ok:
            _fail(f"denominator gate {name} n<={cutoff}: {report.mismatch}")
        refs["gates"][wl.gate_key(name, cutoff)] = {
            "vectors": len(fan),
            "terms": report.checked_terms,
        }
        print(f"gate {name} n<={cutoff}: {time.perf_counter() - start:.2f} s", flush=True)
    results = verify_mod.run_all()
    if not all(r.ok for r in results):
        _fail("affstr verify has failing checks")
    refs["verify"] = {"checks": len(results)}
    with open(wl.REFERENCE_PATH, "w") as fh:
        json.dump(refs, fh, separators=(",", ":"), sort_keys=True)
        fh.write("\n")
    print(f"wrote {wl.REFERENCE_PATH.relative_to(ROOT)}")


if __name__ == "__main__":
    # The unfolded recursion nests one frame per dependent state.
    sys.setrecursionlimit(1_000_000)
    threading.stack_size(512 * 1024 * 1024)
    outcome = []

    def target():
        try:
            main()
        except BaseException as exc:  # re-raised below, in the main thread
            outcome.append(exc)
            raise

    worker = threading.Thread(target=target)
    worker.start()
    worker.join()
    if outcome:
        raise outcome[0]
