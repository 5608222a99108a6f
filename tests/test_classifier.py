import json
import random

from affstr import build_fan, RacahOracle, string_table, verify_denominator, weight_multiplicity
from affstr.algebra import AlgebraSpec, load_algebra
from affstr.strings import classifier_for, enumerate_class_weights


def lattice_member(spec, vector):
    # v is in the column lattice of the Cartan matrix iff A^{-1} v is integral
    coords = [
        sum(spec.cartan_inverse[i][j] * vector[j] for j in range(spec.rank))
        for i in range(spec.rank)
    ]
    return all(c.denominator == 1 for c in coords)


CLASSIFIER_CONFIGS = {
    # det 2
    "B2": {"label": "B2", "cartan": [[2, -2], [-1, 2]]},
    # weight/root quotient Z2 x Z2, not cyclic
    "D4": {
        "label": "D4",
        "cartan": [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]],
    },
    # trivial quotient
    "G2": {"label": "G2", "cartan": [[2, -1], [-3, 2]]},
    "A4": {
        "label": "A4",
        "cartan": [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]],
    },
}


def test_classifier_agrees_with_lattice_membership(tmp_path):
    rng = random.Random(23)
    specs = [load_algebra(name) for name in ("A1", "A2", "A3")]
    for name, config in CLASSIFIER_CONFIGS.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(config))
        specs.append(load_algebra(str(path)))
    for spec in specs:
        classify = classifier_for(spec)
        for _ in range(120):
            v = tuple(rng.randint(-8, 8) for _ in range(spec.rank))
            w = tuple(rng.randint(-8, 8) for _ in range(spec.rank))
            same = classify.id_of(v) == classify.id_of(w)
            member = lattice_member(spec, tuple(a - b for a, b in zip(v, w)))
            assert same == member


def test_g2_affine_data(tmp_path):
    path = tmp_path / "g2.json"
    path.write_text(json.dumps({"label": "G2", "cartan": [[2, -1], [-3, 2]]}))
    g2 = load_algebra(str(path))
    assert len(g2.positive_roots) == 6
    assert g2.dual_coxeter == 4
    assert sorted(g2.comarks) == [1, 2]
    # trivial weight/root quotient: a single congruence class at level 1
    classes = enumerate_class_weights(g2, 1)
    assert len(classes) == 1
    fan = build_fan(g2, 4)
    assert verify_denominator(fan).ok


def test_g2_level1_two_path(tmp_path):
    path = tmp_path / "g2.json"
    path.write_text(json.dumps({"label": "G2", "cartan": [[2, -1], [-3, 2]]}))
    g2 = load_algebra(str(path))
    (base,) = enumerate_class_weights(g2, 1).values()
    mu = tuple(int(x) for x in base.weights[0].labels)
    table = string_table(g2, mu, 1, -4)
    fan = build_fan(g2, 4)
    oracle = RacahOracle(g2, g2.weight(mu, 1, 0), fan)
    for xi in table.base.weights:
        for d in range(5):
            lam = xi.shift_grade(-d)
            assert weight_multiplicity(g2, table, lam) == oracle.multiplicity(lam)


def test_a2_level3_two_path(a2):
    # a congruence class of four weights, not covered by any fixture
    classes = enumerate_class_weights(a2, 3)
    sizes = sorted(len(b) for b in classes.values())
    assert sizes == [3, 3, 4]
    fan = build_fan(a2, 6)
    base = next(b for b in classes.values() if len(b) == 4)
    mu = tuple(int(x) for x in base.weights[0].labels)
    table = string_table(a2, mu, 3, -6)
    oracle = RacahOracle(a2, a2.weight(mu, 3, 0), fan)
    for xi in table.base.weights:
        for d in range(7):
            lam = xi.shift_grade(-d)
            assert weight_multiplicity(a2, table, lam) == oracle.multiplicity(lam)
