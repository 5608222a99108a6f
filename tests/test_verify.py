import functools

from affstr import algebra, folding, strings, verify


def test_run_all_computes_each_result_once(monkeypatch):
    # Fresh preset specs, so the per-algebra memo starts empty and the
    # counts are the work one run actually does.
    monkeypatch.setattr(algebra, "_preset_cache", {})
    calls = {"build_folded_fan": 0, "solve_strings": 0, "RacahOracle": 0}

    def counted(module, name):
        original = getattr(module, name)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(folding, "build_folded_fan")
    counted(strings, "solve_strings")
    counted(verify, "RacahOracle")
    results = verify.run_all()
    assert len(results) == 48 and all(r.ok for r in results)
    # 7 (algebra, level, class, depth) foldings with 14 base weights in all,
    # each folded once; 11 fixture modules, each solved and compared once.
    assert calls == {"build_folded_fan": 14, "solve_strings": 11, "RacahOracle": 11}
