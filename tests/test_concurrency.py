import concurrent.futures
import json
import random
import sys
import threading
import time

import pytest

import weyl_reference
from affstr import (
    AlgebraSpec,
    ConsistencyError,
    RacahOracle,
    algebra,
    build_fan,
    build_folded_fans,
    character,
    load_algebra,
    string_table,
    to_dominant,
    weight_multiplicity,
    weyl,
)
from affstr.fan import Fan
from affstr.strings import enumerate_class_weights
from fan_reference import fan_vector


def test_shared_oracle_parallel_queries(a2):
    fan = build_fan(a2, 8)
    oracle = RacahOracle(a2, a2.weight((0, 0), 2, 0), fan)
    queries = [a2.weight(s, 2, -d) for s in [(0, 0), (1, 1)] for d in range(9)]
    expected = [RacahOracle(a2, a2.weight((0, 0), 2, 0), fan).multiplicity(q) for q in queries]
    with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
        got = list(pool.map(oracle.multiplicity, queries * 4))
    assert got == expected * 4


def test_shared_oracle_under_frequent_thread_switches(a2):
    # Threads share the oracle's cache while each walks its own stack;
    # switching every microsecond interleaves their fills of the cache.
    fan = build_fan(a2, 10)
    mu = a2.weight((1, 0), 2, 0)
    queries = [a2.weight(s, 2, -d) for s in [(1, 0), (0, 2)] for d in range(11)][::-1]
    expected = [RacahOracle(a2, mu, fan).multiplicity(q) for q in queries]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            oracle = RacahOracle(a2, mu, fan)
            with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(oracle.multiplicity, q) for q in queries * 8]
                got = [f.result(timeout=60) for f in futures]
            assert got == expected * 8
    finally:
        sys.setswitchinterval(interval)


def test_oracles_of_one_class_share_expansions_across_threads():
    # Two modules of one class on one fan fill one shared expansion memo
    # while eight threads query both; a fresh algebra, so the memo starts
    # empty under the threads.  The answers must be a fresh sequential
    # oracle's, on an algebra of its own.
    def setup():
        spec = AlgebraSpec("A2", [[2, -1], [-1, 2]])
        fan = build_fan(spec, 10)
        return spec, fan, [spec.weight(m, 3, 0) for m in [(0, 0), (1, 1)]]

    spec, fan, mus = setup()
    queries = [
        (k, spec.weight(s, 3, -d))
        for k in range(2)
        for s in [(0, 0), (1, 1), (3, 0), (0, 3)]
        for d in range(11)
    ][::-1]
    ref_spec, ref_fan, ref_mus = setup()
    references = [RacahOracle(ref_spec, mu, ref_fan) for mu in ref_mus]
    expected = [references[k].multiplicity(q) for k, q in queries]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        oracles = [RacahOracle(spec, mu, fan) for mu in mus]
        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(oracles[k].multiplicity, q) for k, q in queries * 4]
            got = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert got == expected * 4


def test_first_walks_of_a_fresh_algebra_across_threads():
    # The reads and windows of eight threads are the first walks of a fresh
    # algebra, so its kernel is compiled under them; the table was solved
    # on another instance with the same Cartan matrix.  The answers must
    # be a sequential run's on a third instance.
    cartan = [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]
    table = string_table(AlgebraSpec("A3", cartan), (1, 0, 1), 2, -4)
    rng = random.Random(7)
    jobs = []
    for _ in range(60):
        s = rng.randrange(len(table.base))
        word = [rng.randrange(4) for _ in range(rng.randrange(10))]
        jobs.append(("mult", word, s, rng.randrange(5)))
    jobs += [("character", None, None, depth) for depth in (1, 2, 3)]

    def run(spec, job):
        kind, word, s, d = job
        if kind == "character":
            return character(spec, table, d)
        point = table.base.weights[s].shift_grade(-d)
        return weight_multiplicity(spec, table, weyl_reference.apply_word(spec, word, point))

    reference = AlgebraSpec("A3", cartan)
    expected = [run(reference, job) for job in jobs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            spec = AlgebraSpec("A3", cartan)
            with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(run, spec, job) for job in jobs * 2]
                got = [f.result(timeout=60) for f in futures]
            assert got == expected * 2
            assert len(spec._memo) == 1  # one kernel kept, whichever thread won
    finally:
        sys.setswitchinterval(interval)


def test_first_loads_of_one_config_across_threads(tmp_path, monkeypatch, fresh_algebras):
    # Eight threads, released together, load a config that no one has
    # loaded yet and walk it.  Each builds an instance of its own, yielding
    # inside the constructor so that all of them miss the registry first;
    # all must get the one stored first, and its kernel must be one object.
    config = tmp_path / "B3.json"
    config.write_text(json.dumps({"label": "B3", "cartan": [[2, -1, 0], [-1, 2, -1], [0, -2, 2]]}))

    class Yielding(AlgebraSpec):
        def __init__(self, label, cartan):
            time.sleep(0.001)
            super().__init__(label, cartan)

    monkeypatch.setattr(algebra, "AlgebraSpec", Yielding)
    for _ in range(3):
        fresh_algebras.clear()
        barrier = threading.Barrier(8)

        def load_and_walk(_):
            barrier.wait(timeout=60)
            spec = load_algebra(str(config))
            assert to_dominant(spec, spec.weight((-1, 2, -3), 1, 0)).word
            return spec, weyl._kernel(spec)

        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(load_and_walk, range(8)))
        spec, kernel = got[0]
        assert all(s is spec and k is kernel for s, k in got)
        assert list(fresh_algebras.values()) == [spec]


def test_parallel_folded_fan_builds():
    # Each call gets a fresh algebra, so the per-algebra memo serves
    # nothing and every thread builds its own fan, classes and folds.
    def fold_all(_):
        spec = AlgebraSpec("A2", [[2, -1], [-1, 2]])
        return [
            [f.entries for f in build_folded_fans(spec, base, 6)[0]]
            for base in enumerate_class_weights(spec, 4).values()
        ]

    sequential = fold_all(None)
    with concurrent.futures.ThreadPoolExecutor(max_workers=3) as pool:
        parallel = list(pool.map(fold_all, range(6)))
    assert parallel == [sequential] * 6


def test_cycle_tripwire(a2):
    # a fan containing the zero shift makes the recursion self-referential;
    # the oracle must refuse rather than loop
    degenerate = Fan(a2, 0, [fan_vector(a2, (0, 0), 0, 1)])
    mu = a2.weight((0, 0), 1, 0)
    oracle = RacahOracle(a2, mu, degenerate)
    # the shared expansion of the state names the state itself: a second
    # query, and a second oracle on the fan, meet the cycle again
    for asked in (oracle, oracle, RacahOracle(a2, mu, degenerate)):
        with pytest.raises(ConsistencyError):
            asked.multiplicity(mu)
