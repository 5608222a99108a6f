import concurrent.futures
import sys

import pytest

from affstr import AlgebraSpec, ConsistencyError, RacahOracle, build_fan, build_folded_fans
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
