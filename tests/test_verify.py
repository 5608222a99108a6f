import functools

from affstr import folding, strings, verify


def test_run_all_computes_each_result_once(monkeypatch):
    calls = {"string_table": 0, "RacahOracle": 0, "build_folded_fans": 0}

    def counted(name, original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(verify, "string_table", counted("string_table", strings.string_table))
    monkeypatch.setattr(verify, "RacahOracle", counted("RacahOracle", verify.RacahOracle))
    folds = counted("build_folded_fans", folding.build_folded_fans)
    monkeypatch.setattr(verify, "build_folded_fans", folds)
    monkeypatch.setattr(strings, "build_folded_fans", folds)
    results = verify.run_all()
    assert len(results) == 48 and all(r.ok for r in results)
    # 11 fixture modules; 7 (algebra, level, class, depth) foldings, plus
    # the one inside each string_table call.
    assert calls["string_table"] == 11
    assert calls["RacahOracle"] == 11
    assert calls["build_folded_fans"] <= 18
