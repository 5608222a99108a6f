#!/usr/bin/env python3
"""Regenerate the golden fixture files under src/affstr/fixtures/.

The printed reference tables are transcribed below verbatim.  Every
fixture value is recomputed from scratch and cross-checked against the
independent oracles (denominator expansion, closed q-series forms,
unfolded recursion) before being written; printed entries that fail the
oracles are kept under a "paper" key with the corrected value stored as
the fixture value and a note attached.

Run from the repository root:  PYTHONPATH=src python3 scripts/make_fixtures.py
"""

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from affstr import (  # noqa: E402
    build_fan,
    build_folded_fans,
    certify,
    euler_square_series,
    level1_eta_series,
    preset,
    string_table,
    verify_denominator,
)
from affstr.strings import module_class  # noqa: E402

OUT = pathlib.Path(__file__).resolve().parents[1] / "src" / "affstr" / "fixtures"

# -- printed tables --------------------------------------------------------

PRINTED_FAN = [  # (a1, a2, grade, mult), printed order
    (0, 1, 0, 1), (2, 1, 0, -1), (1, 0, 0, 1), (1, 2, 0, -1), (2, 2, 0, 1),
    (3, 1, 1, 1), (-1, 1, 1, -1), (1, 3, 1, 1), (1, -1, 1, -1), (3, 3, 1, -1),
    (-1, -1, 1, 1),
    (3, 4, 2, 1), (0, -2, 2, 1), (2, 4, 2, -1), (-1, -2, 2, -1), (4, 3, 2, 1),
    (-2, 0, 2, 1), (4, 2, 2, -1), (-2, -1, 2, -1), (0, 3, 2, -1), (3, 0, 2, -1),
    (-1, 2, 2, 1), (2, -1, 2, 1),
    (0, 4, 4, 1), (-3, -2, 4, 1), (5, 4, 4, -1), (2, -2, 4, -1), (4, 0, 4, 1),
    (-2, -3, 4, 1), (4, 5, 4, -1), (-2, 2, 4, -1), (-3, 0, 4, -1),
    (1, -3, 5, 1), (5, 1, 5, -1), (5, 5, 5, 1), (1, 5, 5, -1),
    (0, -3, 4, -1), (2, 5, 4, 1), (5, 2, 4, 1),
    (-3, -3, 5, -1), (-3, 1, 5, 1),
    (6, 4, 6, 1), (3, -2, 6, 1), (-1, 4, 6, -1), (-4, -2, 6, -1), (4, 6, 6, 1),
    (-2, 3, 6, 1), (4, -1, 6, -1), (-2, -4, 6, -1), (3, 6, 6, -1), (6, 3, 6, -1),
    (-4, -1, 6, 1), (-1, -4, 6, 1),
    (6, 1, 8, 1), (-4, 1, 8, -1), (1, 6, 8, 1), (1, -4, 8, -1), (6, 6, 8, -1),
    (-4, -4, 8, 1),
    (3, 7, 9, 1), (-3, -5, 9, 1), (5, 7, 9, -1), (-1, -5, 9, -1), (7, 3, 9, 1),
    (-5, -3, 9, 1), (7, 5, 9, -1), (-5, -1, 9, -1), (-3, 3, 9, -1), (3, -3, 9, -1),
    (-1, 5, 9, 1), (5, -1, 9, 1),
]

PRINTED_LEVEL1_SIGMA = [
    1, 2, 5, 10, 20, 36, 65, 110, 185, 300, 481, 752, 1165, 1770, 2665,
    3956, 5822, 8470, 12230, 17490, 24842,
]
# The printed multiplicity list holds 22 values for 21 grades; one
# spurious value sits at grade 11.
PRINTED_LEVEL1_ETA_LIST = [
    -1, 2, 1, -2, -1, -2, 2, 0, 2, 2, -1, -1, 0, 0, -2, -3, 2, -2, 0, 0, 2, 2,
]
# The printed folded-fan listing, grade -> multiplicity (absent = 0).
PRINTED_LEVEL1_FOLDED = {
    0: -1, 1: 2, 2: 1, 3: -2, 4: -1, 5: -2, 7: 2, 8: 2, 9: -1, 10: -1,
    13: -2, 14: -3, 15: 2, 16: -2, 19: 2, 20: 2,
}

PRINTED_LEVEL2 = {
    "I": {
        "base": [[0, 0], [1, 1]],
        "mu": [0, 0],
        "sigma": [
            [1, 2, 8, 20, 52, 116, 256, 522, 1045, 1996, 3736],
            [0, 1, 4, 12, 32, 77, 172, 365, 740, 1445, 2736],
        ],
        "eta": [
            [[-1, 0, 1, 0, 2, 0, 0, 0, -2, 0, -2],
             [2, -1, -2, -2, 2, 1, -2, 2, 0, -1, 0]],
            [[0, 1, 0, -2, 0, 0, 0, 1, 0, -1, 0],
             [-1, 2, -2, 0, 1, 2, 2, -2, -2, -2, 0]],
        ],
    },
    "II": {
        "base": [[1, 0], [0, 2]],
        "mu": [1, 0],
        "sigma": [
            [1, 4, 13, 36, 89, 204, 441, 908, 1798, 3444, 6410],
            [0, 2, 7, 22, 56, 136, 300, 636, 1280, 2498, 4708],
        ],
        "eta": [
            [[-1, 2, -2, 0, 1, 2, 2, -2, -2, -2, 0],
             [1, 0, -2, 0, 0, 0, 1, 0, -1, 0, 2]],
            [[0, 2, -1, -2, -2, 2, 1, -2, 2, 0, -1],
             [-1, 0, 1, 0, 2, 0, 0, 0, -2, 0, -2]],
        ],
    },
    "III": {
        "base": [[0, 1], [2, 0]],
        "mu": [0, 1],
        "sigma": None,  # printed as identical to class II
        "eta": None,    # printed as identical to class II
    },
}

PRINTED_LEVEL4_BASE = [[0, 0], [1, 1], [0, 3], [3, 0], [2, 2]]

PRINTED_LEVEL4_ETA = [
    [[-1, 0, 0, 0, 0, 0, 0, 0, 2, 0],
     [2, 1, 0, -1, -2, 2, -2, -1, 2, 0],
     [-1, -1, 0, 1, 0, 1, 0, 0, 1, 0],
     [-1, -1, 0, 1, 0, 1, 0, 0, 1, 0],
     [1, 0, 2, 0, -2, 0, -2, 0, -2, 0]],
    [[0, 1, 0, 0, 0, -1, 0, 0, 0, 0],
     [-1, 0, -1, 0, 2, -2, 0, 0, 2, 2],
     [1, -1, 1, 0, 1, -1, -1, -1, 0, 0],
     [1, -1, 1, 0, 1, -1, -1, -1, 0, 0],
     [1, 0, 2, 0, -2, 0, -2, 0, -2, 0]],
    [[0, 0, -1, 0, 0, 0, 1, 0, 0, 0],
     [0, 1, 0, 0, 2, 0, -2, -2, 0, 0],
     [-1, 1, 0, 0, -1, -1, 1, 0, 1, 2],
     [0, -1, -1, 2, 0, 1, -1, 0, -1, 0],
     [1, 0, -1, 0, 0, 0, 0, 0, 1, 0]],
    [[0, 0, -1, 0, 0, 0, 1, 0, 0, 0],
     [0, 1, 0, 0, 2, 0, -2, -2, 0, 0],
     [0, -1, -1, 2, 0, 1, -1, 0, -1, 0],
     [-1, 1, 0, 0, -1, -1, 1, 0, 1, 2],
     [1, 0, -1, 0, 0, 0, 0, 0, 1, 0]],
    [[0, 0, 0, 0, 1, 0, 0, 0, -2, 0],
     [0, 1, -2, -2, 2, 1, 0, -1, 2, 0],
     [0, 1, -1, 0, 0, 0, -1, 1, 0, 1],
     [0, 1, -1, 0, 0, 0, -1, 1, 0, 1],
     [-1, 0, 2, 0, 0, 0, -2, 0, -1, 0]],
]

PRINTED_LEVEL4_SIGMA = {
    (0, 0): [
        [1, 2, 8, 24, 72, 190, 490, 1176, 2729, 6048],
        [0, 1, 4, 15, 48, 138, 366, 913, 2156, 4874],
        [0, 0, 1, 6, 23, 74, 2121, 556, 1366, 3184],
        [0, 0, 1, 6, 23, 74, 2121, 556, 1366, 3184],
        [0, 0, 1, 4, 18, 56, 167, 440, 1103, 2588],
    ],
    (1, 1): [
        [2, 10, 40, 133, 398, 1084, 2760, 6632, 15214, 33508],
        [1, 6, 27, 96, 298, 836, 2173, 5310, 12341, 27486],
        [0, 0, 2, 12, 49, 166, 494, 1340, 3387, 8086],
        [0, 0, 2, 12, 49, 166, 494, 1340, 3387, 8086],
        [0, 1, 8, 35, 124, 379, 1052, 2700, 6536, 15047],
    ],
    (0, 3): [
        [1, 8, 32, 110, 322, 872, 2183, 5186, 11730, 25552],
        [1, 6, 25, 85, 255, 695, 1764, 4226, 9653, 21179],
        [1, 4, 16, 54, 163, 450, 1161, 2824, 6549, 14572],
        [0, 2, 11, 44, 143, 414, 1096, 2714, 6364, 14272],
        [0, 2, 9, 36, 115, 336, 890, 2224, 5241, 11840],
    ],
    (3, 0): None,  # printed as the (0,3) table with strings 3 and 4 swapped
    (2, 2): [
        [3, 14, 58, 184, 536, 1408, 3492, 8160, 18299, 39428],
        [2, 11, 44, 145, 424, 1133, 2830, 6688, 15102, 32805],
        [1, 6, 25, 86, 260, 716, 1833, 4426, 10183, 22488],
        [1, 6, 25, 86, 260, 716, 1833, 4426, 10183, 22488],
        [1, 4, 19, 64, 202, 560, 1464, 3568, 8315, 18512],
    ],
}


def make_fan():
    spec = preset("A2")
    fan = build_fan(spec, 9)
    report = verify_denominator(fan)
    assert report.ok, report
    computed = {(v.root, v.grade): v.mult for v in fan}
    printed = {((a, b), g): m for a, b, g, m in PRINTED_FAN}
    assert set(computed) >= set(printed)
    entries = []
    annotated = 0
    for (root, grade), mult in sorted(computed.items(), key=lambda kv: (kv[0][1], kv[0][0])):
        entry = {"root": list(root), "grade": grade, "mult": mult}
        pm = printed.get((root, grade))
        if pm is None:
            entry["paper"] = None
            entry["note"] = "absent from the published listing"
            annotated += 1
        elif pm != mult:
            entry["paper"] = pm
            entry["adjudicated"] = mult
            entry["note"] = "suspected typo; denominator expansion fixes the sign"
            annotated += 1
        entries.append(entry)
    extra_printed = sorted(set(printed) - set(computed))
    assert not extra_printed, extra_printed
    data = {
        "kind": "fan",
        "algebra": "A2",
        "cutoff": 9,
        "entries": entries,
        "printed_entries": len(printed),
        "annotated": annotated,
    }
    _write("fan_a2_n9.json", data)


def make_level1():
    spec = preset("A2")
    depth = 20
    sigma = string_table(spec, (0, 0), 1, -depth).coefficients[0]
    assert list(sigma) == euler_square_series(depth) == PRINTED_LEVEL1_SIGMA
    eta = level1_eta_series(depth)
    base, _ = module_class(spec, (0, 0), 1)
    folded, _ = build_folded_fans(spec, base, depth)
    assert folded[0].eta_row(0) == eta
    annotations = []
    for grade in range(depth + 1):
        printed = PRINTED_LEVEL1_FOLDED.get(grade, 0)
        if printed != eta[grade]:
            annotations.append({
                "grade": grade,
                "paper": printed,
                "adjudicated": eta[grade],
                "note": "suspected typo in the published shift listing; "
                        "the squared Euler product fixes the value",
            })
    # The published multiplicity list carries one extra value; find the
    # insertion point that aligns it with the closed form.
    lst = PRINTED_LEVEL1_ETA_LIST
    # Both neighbours of a repeated value admit the alignment; report the
    # deepest grade that works.
    insertion = max(
        g for g in range(len(lst))
        if lst[:g] == eta[:g] and lst[g + 1:] == eta[g:depth + 1]
    )
    annotations.append({
        "grade": insertion,
        "paper": lst[insertion],
        "adjudicated": eta[insertion],
        "note": "the published multiplicity list holds 22 values for 21 "
                "grades; dropping the extra value here aligns it with the "
                "closed form",
    })
    data = {
        "kind": "level1",
        "algebra": "A2",
        "level": 1,
        "depth": depth,
        "sigma": list(sigma),
        "eta": eta,
        "eta_annotations": annotations,
        "paper_eta_list": lst,
        "paper_folded_fan": {str(g): m for g, m in sorted(PRINTED_LEVEL1_FOLDED.items())},
    }
    _write("level1_a2.json", data)


def make_level2():
    spec = preset("A2")
    depth = 10
    classes_out = []
    for name, printed in PRINTED_LEVEL2.items():
        base_labels = [list(map(int, b)) for b in printed["base"]]
        table = string_table(spec, printed["mu"], 2, -depth)
        assert [list(map(int, w.labels)) for w in table.base.weights] == base_labels
        base, _ = module_class(spec, printed["mu"], 2)
        folded, _ = build_folded_fans(spec, base, depth)
        eta = [[folded[j].eta_row(s) for s in range(2)] for j in range(2)]
        sigma = [list(r) for r in table.coefficients]
        ref_sigma = printed["sigma"] if printed["sigma"] is not None else PRINTED_LEVEL2["II"]["sigma"]
        ref_eta = printed["eta"] if printed["eta"] is not None else PRINTED_LEVEL2["II"]["eta"]
        assert sigma == ref_sigma, (name, sigma)
        assert eta == ref_eta, (name, eta)
        classes_out.append({
            "name": name,
            "base": base_labels,
            "mu": list(printed["mu"]),
            "sigma": sigma,
            "eta": eta,
            "coincides_with": None if printed["sigma"] is not None else "II",
        })
    data = {
        "kind": "level2",
        "algebra": "A2",
        "level": 2,
        "depth": depth,
        "classes": classes_out,
    }
    _write("level2_a2.json", data)


def make_level4():
    spec = preset("A2")
    depth = 9
    base, _ = module_class(spec, (0, 0), 4)
    assert [list(map(int, w.labels)) for w in base.weights] == PRINTED_LEVEL4_BASE
    folded, _ = build_folded_fans(spec, base, depth)
    eta = [[folded[j].eta_row(s) for s in range(5)] for j in range(5)]
    eta_annotations = []
    for j in range(5):
        for s in range(5):
            if eta[j][s] != PRINTED_LEVEL4_ETA[j][s]:
                eta_annotations.append({
                    "row": [j, s],
                    "paper": PRINTED_LEVEL4_ETA[j][s],
                    "adjudicated": eta[j][s],
                    "note": "suspected typo in the published multiplicity "
                            "lists; the unfolded recursion confirms the "
                            "recomputed row",
                })
    modules = []
    swap = {(3, 0): ((0, 3), [0, 1, 3, 2, 4])}
    for mu in [(0, 0), (1, 1), (0, 3), (3, 0), (2, 2)]:
        table = string_table(spec, mu, 4, -depth)
        # The unfolded recursion confirms every value, adjudicated ones
        # included, on a fan that passes the denominator identity.
        certificate = certify(table)
        assert certificate.gate and not certificate.mismatches, (mu, certificate)
        sigma = [list(r) for r in table.coefficients]
        printed = PRINTED_LEVEL4_SIGMA[mu]
        annotations = []
        if printed is None:
            src, perm = swap[mu]
            printed = [PRINTED_LEVEL4_SIGMA[src][perm[s]] for s in range(5)]
            note_prefix = "published only via the string swap statement; "
        else:
            note_prefix = ""
        for s in range(5):
            if sigma[s] == printed[s]:
                continue
            diffs = [d for d in range(depth + 1) if sigma[s][d] != printed[s][d]]
            if len(diffs) == 1:
                d = diffs[0]
                annotations.append({
                    "string": s,
                    "grade": d,
                    "paper": printed[s][d],
                    "adjudicated": sigma[s][d],
                    "note": note_prefix + "suspected typo; the unfolded "
                            "recursion gives the adjudicated value",
                })
            else:
                annotations.append({
                    "string": s,
                    "paper_row": printed[s],
                    "adjudicated_row": sigma[s],
                    "note": note_prefix + "published row is shifted by one "
                            "grade; the unfolded recursion confirms the "
                            "recomputed row",
                })
        modules.append({
            "mu": list(mu),
            "sigma": sigma,
            "annotations": annotations,
            "swap_of": list(swap[mu][0]) if mu in swap else None,
            "swap_perm": swap[mu][1] if mu in swap else None,
        })
    distinct = len({tuple(r) for m in modules for r in m["sigma"]})
    assert distinct == 17, distinct
    data = {
        "kind": "level4",
        "algebra": "A2",
        "level": 4,
        "depth": depth,
        "base": PRINTED_LEVEL4_BASE,
        "eta": eta,
        "eta_annotations": eta_annotations,
        "modules": modules,
        "distinct_strings": distinct,
    }
    _write("level4_a2_classI.json", data)


def _write(name, data):
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / name
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote", path)


if __name__ == "__main__":
    make_fan()
    make_level1()
    make_level2()
    make_level4()
