import functools

import pytest

from affstr import algebra, fan, folding, oracle, strings, verify


def test_run_all_computes_each_result_once(monkeypatch, fresh_algebras):
    # Fresh registered specs, so the per-algebra memo starts empty and the
    # counts are the work one run actually does.
    calls = {"build_folded_fan": 0, "solve_strings": 0, "RacahOracle": 0, "verify_denominator": 0}

    def counted(module, name):
        original = getattr(module, name)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(folding, "build_folded_fan")
    counted(strings, "solve_strings")
    counted(oracle, "RacahOracle")
    counted(oracle, "verify_denominator")
    results = verify.run_all()
    assert len(results) == 48 and all(r.ok for r in results)
    # 7 (algebra, level, class, depth) foldings with 14 base weights in all,
    # each folded once; 11 fixture modules, each solved and certified once;
    # the three fans they read (A2 at cutoffs 9, 10 and 20), each gated once.
    assert calls == {
        "build_folded_fan": 14, "solve_strings": 11, "RacahOracle": 11, "verify_denominator": 3
    }


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
    certify = verify.certify

    def injected(table):
        certificate = certify(table)
        if (table.mu.labels, table.level) == ((1, 1), 4):
            certificate = certificate._replace(mismatches=certificate.mismatches + [(1, 3, 5, 4)])
        return certificate

    monkeypatch.setattr(verify, "certify", injected)
    grade, block = _structure_lines(verify.load_fixtures())
    assert block.ok and not grade.ok
    assert grade.detail == "mu=[1, 1] level 4: string 1 grade -3"


def test_two_path_lines_fail_when_their_fan_fails_the_gate(fresh_algebras, drop_fan_vectors):
    # The level-1 modules are folded from the cutoff-20 fan, and the oracle
    # reads that fan too, so both paths agree on a wrong fan: only its
    # denominator gate can fail their two-path lines.  Fresh registered
    # algebras, so no true fold of that fan is held and no wrong one is kept.
    drop_fan_vectors({20})
    results = verify.check_oracle_equivalence(verify.load_fixtures())
    report = fan.verify_denominator(verify.build_fan(algebra.preset("A2"), 20))
    assert not report.ok
    failed = [r for r in results if not r.ok]
    assert [r.name for r in failed] == [
        r.name for r in results if r.name.endswith("level 1 to depth 20")
    ]
    assert len(failed) == 3
    for r in failed:
        assert r.detail == f"denominator identity fails: first mismatch {report.mismatch}"
