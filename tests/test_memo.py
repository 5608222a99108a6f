import concurrent.futures
import gc
import weakref
from fractions import Fraction

import pytest

from affstr import (
    AffineWeight,
    AlgebraSpec,
    BaseWeightSet,
    build_fan,
    build_folded_fans,
    string_table,
    verify_denominator,
)
from affstr.strings import classifier_for, enumerate_class_weights, module_class
from affstr.verify import CheckResult


def fresh_a2():
    return AlgebraSpec("A2", [[2, -1], [-1, 2]])


def test_repeat_calls_on_one_spec_share_one_object():
    spec = fresh_a2()
    table = string_table(spec, (1, 0), 2, -6)
    assert string_table(spec, (1, 0), 2, -6) is table
    assert build_fan(spec, 6) is build_fan(spec, 6)
    assert classifier_for(spec) is classifier_for(spec)
    classes = enumerate_class_weights(spec, 2)
    assert enumerate_class_weights(spec, 2) is classes
    # the table was solved from the memoised fold of its class
    folded, fan = build_folded_fans(spec, table.base, 6)
    assert isinstance(folded, tuple) and fan is build_fan(spec, 6)
    assert build_folded_fans(spec, classes[table.base.class_id], 6)[0] is folded


def test_keys_are_normalised_before_the_memo():
    spec = fresh_a2()
    table = string_table(spec, (1, 0), 2, -6)
    assert string_table(spec, [1, 0], 2, -6) is table
    # other cutoffs are their own entries, not prefixes of a longer one
    assert string_table(spec, (1, 0), 2, -4).depth == 4
    assert build_fan(spec, 4).cutoff == 4


def test_fresh_spec_recomputes():
    one, two = fresh_a2(), fresh_a2()
    first, second = string_table(one, (0, 0), 2, -6), string_table(two, (0, 0), 2, -6)
    assert first is not second
    assert first.coefficients == second.coefficients
    assert build_fan(one, 6) is not build_fan(two, 6)


def test_key_by_keyword_is_refused():
    spec = fresh_a2()
    with pytest.raises(TypeError):
        build_fan(spec, cutoff=3)
    # the wrapper takes no keyword options that could bypass the key
    with pytest.raises(TypeError):
        build_fan(spec, 3, max_nodes=10)


def test_memo_dies_with_its_algebra():
    spec = fresh_a2()
    string_table(spec, (0, 0), 2, -4)
    alive = weakref.ref(spec)
    del spec
    gc.collect()
    assert alive() is None


def test_threads_racing_on_one_key_share_the_first_value():
    spec = fresh_a2()
    with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
        tables = list(pool.map(lambda _: string_table(spec, (0, 0), 2, -8), range(8)))
    assert all(table is tables[0] for table in tables)


def test_equal_base_weight_sets_share_one_fold():
    # build_folded_fans keys its memo by value: a base weight set rebuilt
    # from fresh weights finds the fold of the first
    spec = fresh_a2()
    base, _ = module_class(spec, (1, 0), 2)
    weights = tuple(AffineWeight(w.labels, w.level, w.grade) for w in base)
    twin = BaseWeightSet(spec, base.level, weights, base.class_id)
    assert twin is not base and twin == base and hash(twin) == hash(base)
    assert build_folded_fans(spec, twin, 4) is build_folded_fans(spec, base, 4)
    assert BaseWeightSet(spec, base.level, weights) != base


def test_memoised_folds_and_positions_cannot_be_changed_by_a_caller():
    # an edit of a shared fold used to change every later table of its class
    spec = fresh_a2()
    base, _ = module_class(spec, (1, 1), 4)
    folded, _ = build_folded_fans(spec, base, 10)
    key = next(k for k in folded[0].entries if k[1] == 3)
    with pytest.raises(TypeError):
        folded[0].entries[key] += 1
    with pytest.raises(TypeError):
        base.positions[(9, 9)] = 0
    want = string_table(fresh_a2(), (0, 0), 4, -10).coefficients
    assert string_table(spec, (0, 0), 4, -10).coefficients == want


def test_memoised_classes_cannot_be_changed_by_a_caller():
    # clearing the shared classes used to make the next table of the level
    # raise a bare KeyError for its class id
    spec = fresh_a2()
    classes = enumerate_class_weights(spec, 2)
    with pytest.raises(AttributeError):
        classes.clear()
    with pytest.raises(TypeError):
        classes[next(iter(classes))] = None
    assert enumerate_class_weights(spec, 2) is classes and len(classes) == 3
    want = string_table(fresh_a2(), (1, 0), 2, -3).coefficients
    assert string_table(spec, (1, 0), 2, -3).coefficients == want


def test_record_hashes_and_reprs_are_unchanged(a2):
    # set and dict orders, and every printed record, stay as they were
    for w in (AffineWeight((1, 0), 1, -2), AffineWeight((Fraction(2, 2), 3), 2, 0)):
        assert hash(w) == hash((w.labels, w.level, w.grade))
    report = verify_denominator(build_fan(a2, 3))
    assert repr(report) == "DenominatorReport(ok=True, mismatch=None, checked_terms=23)"
    assert repr(CheckResult("fan", False, "grade 2")) == (
        "CheckResult(name='fan', ok=False, detail='grade 2')"
    )
    base, _ = module_class(a2, (1, 0), 2)
    assert repr(build_folded_fans(a2, base, 2)[0][1]) == (
        "FoldedFan(base_index=1, cutoff=2, "
        "entries={(1, 0): -1, (0, 1): 2, (0, 2): -1, (1, 2): 1})"
    )
    assert repr(base.class_id) == "class(2, 1)"
    assert repr(classifier_for(a2).id_of((1, 1))) == "class(0, 0)"
