"""Command-line front end.

Subcommands mirror the pipeline stages: `fan`, `folded-fan`, `strings`,
`mult`, `character`, and the fixture harness `verify`; `strings --verify`
prints only a table that `oracle.certify` certifies.  Weights are
entered as comma-separated classical Dynkin labels; the zeroth label is
inferred from the level.  Exit codes: 0 success, 2 configuration error or
a request beyond the computed window, 3 mathematical consistency failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from .algebra import load_algebra, to_root_basis
from .errors import AffstrError, ConfigurationError, ConsistencyError, OutOfWindowError
from .fan import build_fan, verify_denominator
from .folding import build_folded_fans
from .strings import character, module_class, string_table, weight_multiplicity

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MATH = 3


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    out = getattr(args, "out", None)
    if out:
        # Check the target before any work, so an unwritable path fails at
        # once.  Append mode truncates nothing, so a failed run leaves an
        # existing file as it was; it removes one that the check created.
        created = not os.path.exists(out)
        try:
            open(out, "a").close()
        except OSError as exc:
            return _cannot_write(out, exc)
    text, code = _run(args)
    if text is None:
        if out and created:
            os.remove(out)
    elif out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            return _cannot_write(out, exc)
    else:
        sys.stdout.write(text)
    return code


def _run(args):
    """The handler's text and exit code; on an error, None and its exit code."""
    try:
        text = args.handler(args)
    except (ConfigurationError, OutOfWindowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None, EXIT_CONFIG
    except AffstrError as exc:
        print(f"consistency failure: {exc}", file=sys.stderr)
        return None, EXIT_MATH
    return text, getattr(args, "exit_code", EXIT_OK)


def _cannot_write(path, exc) -> int:
    print(f"error: cannot write {path!r}: {exc.strerror}", file=sys.stderr)
    return EXIT_CONFIG


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="affstr",
        description="Exact string functions and weight multiplicities "
        "of untwisted affine Lie algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, level=True, mu=True, cutoff=True):
        p.add_argument("--algebra", default="A2", help="preset name or JSON config path")
        if level:
            p.add_argument("--level", type=int, required=True, help="level k >= 1")
        if mu:
            p.add_argument("--mu", required=True, help="classical Dynkin labels, e.g. 1,0")
        if cutoff:
            p.add_argument("--cutoff", type=int, required=True, help="grade depth |u| >= 0")
        p.add_argument("--format", choices=("text", "json", "csv"), default="text")
        p.add_argument("--out", help="write output to a file instead of stdout")

    p = sub.add_parser("fan", help="recursion-shift fan up to a grade cutoff")
    common(p, level=False, mu=False)
    p.add_argument("--check", action="store_true", help="also run the denominator identity")
    p.set_defaults(handler=cmd_fan)

    p = sub.add_parser("folded-fan", help="folded fans for a congruence class")
    common(p)
    p.set_defaults(handler=cmd_folded_fan)

    p = sub.add_parser("strings", help="string function table for a module")
    common(p)
    p.add_argument("--verify", action="store_true",
                   help="gate the fan and check depths 0..cutoff by the unfolded recursion")
    p.set_defaults(handler=cmd_strings)

    p = sub.add_parser("mult", help="multiplicity of a single weight")
    common(p)
    p.add_argument("--weight", required=True,
                   help="classical Dynkin labels of the weight; write a negative first "
                        "label as --weight=-1,1")
    p.add_argument("--grade", type=int, required=True, help="grade of the weight (<= 0)")
    p.set_defaults(handler=cmd_mult)

    p = sub.add_parser("character", help="weights and multiplicities at grades 0..-cutoff")
    common(p)
    p.set_defaults(handler=cmd_character)

    p = sub.add_parser("verify", help="run the golden-fixture verification suite")
    p.add_argument("--fixtures", default=None,
                   help="fixture directory (default: packaged)")
    p.add_argument("--out", help="write the report to a file instead of stdout")
    p.set_defaults(handler=cmd_verify)
    return parser


def _labels(text: str, spec) -> tuple[int, ...]:
    try:
        labels = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ConfigurationError(f"cannot parse Dynkin labels from {text!r}") from None
    if len(labels) != spec.rank:
        raise ConfigurationError(
            f"{len(labels)} labels given but algebra {spec.label} has rank {spec.rank}"
        )
    return labels


def cmd_fan(args) -> str:
    spec = load_algebra(args.algebra)
    fan = build_fan(spec, args.cutoff)
    if args.check:
        report = verify_denominator(fan)
        if not report.ok:
            raise ConsistencyError(f"denominator identity fails: {report.mismatch}")
    if args.format == "json":
        return _dumps(fan.to_json())
    if args.format == "csv":
        return _csv(
            ["root", "grade", "mult"],
            [[" ".join(map(str, v.root)), v.grade, v.mult] for v in fan],
        )
    lines = [f"fan {spec.label}, cutoff {fan.cutoff}, {len(fan)} vectors"]
    for v in fan:
        lines.append(f"  ({', '.join(map(str, v.root))}; {v.grade})  {v.mult:+d}")
    return "\n".join(lines) + "\n"


def _class_data(args):
    spec = load_algebra(args.algebra)
    return spec, _labels(args.mu, spec)


def cmd_folded_fan(args) -> str:
    spec, mu = _class_data(args)
    base, _ = module_class(spec, mu, args.level)
    folded, _ = build_folded_fans(spec, base, args.cutoff)
    if args.format == "json":
        return _dumps([f.to_json() for f in folded])
    if args.format == "csv":
        rows = [
            [j, s, n, eta]
            for j, f in enumerate(folded)
            for (s, n), eta in sorted(f.entries.items())
        ]
        return _csv(["base", "target", "grade", "eta"], rows)
    lines = [
        f"folded fans, {spec.label} level {args.level}, "
        f"class of mu={list(mu)}, offsets 0..{args.cutoff}"
    ]
    for j, (xi, f) in enumerate(zip(base.weights, folded)):
        lines.append(f"base {j}: xi = {_wfmt(spec, xi)}")
        for (s, n), eta in sorted(f.entries.items()):
            lines.append(f"  -> target {s} offset {n}: {eta:+d}")
    return "\n".join(lines) + "\n"


def cmd_strings(args) -> str:
    spec, mu = _class_data(args)
    table = string_table(spec, mu, args.level, -args.cutoff)
    if args.verify:
        # Imported here: no other command certifies a table.
        from .oracle import certify

        gate, mismatches = certify(table)
        if not gate:
            raise ConsistencyError(f"denominator identity fails on the fan: {gate.mismatch}")
        if mismatches:
            s, d, folded, unfolded = mismatches[0]
            raise ConsistencyError(
                f"unfolded recursion gives {unfolded} at string {s} depth {d}, "
                f"folded table has {folded}"
            )
    if args.format == "json":
        return _dumps(table.to_json())
    if args.format == "csv":
        rows = [
            [s, " ".join(str(int(x)) for x in w.labels), n, table.coefficients[s][n]]
            for s, w in enumerate(table.base.weights)
            for n in range(table.depth + 1)
        ]
        return _csv(["string", "xi", "n", "coefficient"], rows)
    lines = [
        f"string functions, {spec.label} level {args.level}, "
        f"mu = {_wfmt(spec, table.mu)}, depth {table.depth}"
    ]
    for s, w in enumerate(table.base.weights):
        head = "*" if s == table.mu_index else " "
        lines.append(
            f" {head}sigma_{s} through {_wfmt(spec, w)}: "
            + ", ".join(str(c) for c in table.coefficients[s])
        )
    return "\n".join(lines) + "\n"


def cmd_mult(args) -> str:
    spec, mu = _class_data(args)
    labels = _labels(args.weight, spec)
    lam = spec.weight(labels, args.level, args.grade)
    table = string_table(spec, mu, args.level, -args.cutoff)
    value = weight_multiplicity(spec, table, lam)
    if args.format == "json":
        return _dumps(
            {
                "mu": list(mu),
                "level": args.level,
                "weight": [int(x) for x in lam.labels],
                "grade": args.grade,
                "multiplicity": value,
            }
        )
    if args.format == "csv":
        return _csv(["weight", "grade", "multiplicity"],
                    [[" ".join(map(str, labels)), args.grade, value]])
    return f"multiplicity of {_wfmt(spec, lam)} in L^{list(mu)} at level {args.level}: {value}\n"


def cmd_character(args) -> str:
    spec, mu = _class_data(args)
    table = string_table(spec, mu, args.level, -args.cutoff)
    pairs = character(spec, table, args.cutoff)
    if args.format == "json":
        return _dumps(
            [
                {
                    "labels": [int(x) for x in w.labels],
                    "grade": int(w.grade),
                    "mult": m,
                }
                for w, m in pairs
            ]
        )
    if args.format == "csv":
        rows = [[" ".join(str(int(x)) for x in w.labels), int(w.grade), m] for w, m in pairs]
        return _csv(["labels", "grade", "mult"], rows)
    totals: dict = {}
    for w, m in pairs:
        totals[w.grade] = totals.get(w.grade, 0) + m
    # Many weights share a classical part: convert each one once.
    classical: dict = {}
    lines = [f"character of L^{list(mu)}, {spec.label} level {args.level}, "
             f"grades 0..-{args.cutoff}"]
    current = None
    for w, m in pairs:
        if w.grade != current:
            current = w.grade
            lines.append(f" grade {current} (total multiplicity {totals[current]}):")
        text = classical.get(w.labels)
        if text is None:
            text = classical[w.labels] = _classical_text(spec, w)
        lines.append(f"   {text}; level {w.level}; grade {w.grade})  x{m}")
    return "\n".join(lines) + "\n"


def cmd_verify(args) -> str:
    # Imported here: no other command needs the fixture harness.
    from . import verify

    results = verify.run_all(args.fixtures)
    lines = [r.line() for r in results]
    failed = sum(not r.ok for r in results)
    lines.append(f"{len(results) - failed} of {len(results)} checks passed")
    args.exit_code = EXIT_OK if failed == 0 else EXIT_MATH
    return "\n".join(lines) + "\n"


def _wfmt(spec, w) -> str:
    return f"{_classical_text(spec, w)}; level {w.level}; grade {w.grade})"


def _classical_text(spec, w) -> str:
    """The part of `_wfmt` that depends on the classical labels only."""
    root_text = ",".join(str(c) for c in to_root_basis(spec, w))
    labels = ",".join(str(x) for x in w.labels)
    return f"[{labels}] (root basis {root_text}"


def _dumps(data) -> str:
    return json.dumps(data, indent=1, sort_keys=True) + "\n"


def _csv(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


if __name__ == "__main__":
    sys.exit(main())
