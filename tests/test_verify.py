import functools

import pytest

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


def _structure_lines(fixtures):
    """The two structural lines of check_structure; every other line passes."""
    results = verify.check_structure(fixtures)
    assert results[0].name.startswith("grade independence")
    assert results[1].name.startswith("grade-0 block")
    assert all(r.ok for r in results[2:])
    return results[0], results[1]


@pytest.mark.parametrize("j, s, value", [(1, 0, 1), (0, 0, 1), (1, 1, -2)])
def test_grade0_block_line_fails_on_a_wrong_grade0_entry(monkeypatch, j, s, value):
    # a non-zero entry below the diagonal, or a diagonal entry other than -1,
    # in the folded fans of every class with two or more base weights
    build = verify.build_folded_fans

    def tampered(spec, base, cutoff):
        folded, fan = build(spec, base, cutoff)
        if len(base) < 2:
            return folded, fan
        entries = dict(folded[j].entries)
        entries[s, 0] = value
        folded = list(folded)
        folded[j] = folding.FoldedFan(j, folded[j].cutoff, entries)
        return tuple(folded), fan

    fixtures = verify.load_fixtures()
    grade, block = _structure_lines(fixtures)
    assert grade.ok and block.ok
    monkeypatch.setattr(verify, "build_folded_fans", tampered)
    grade, block = _structure_lines(fixtures)
    assert grade.ok and not block.ok
    assert f"base {j} target {s}: grade-0 entry {value}" in block.detail


def test_grade_independence_line_fails_on_a_two_path_mismatch(monkeypatch):
    two_path = verify._two_path

    def injected(spec, mu, level, depth):
        mismatches = two_path(spec, mu, level, depth)
        if (mu, level) == ((1, 1), 4):
            mismatches = mismatches + [(1, 3, 5, 4)]
        return mismatches

    monkeypatch.setattr(verify, "_two_path", injected)
    grade, block = _structure_lines(verify.load_fixtures())
    assert block.ok and not grade.ok
    assert grade.detail == "mu=[1, 1] level 4: string 1 grade -3"
