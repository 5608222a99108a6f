#!/usr/bin/env python3
"""Every check of the repository, as one ordered table of named steps.

Run from anywhere:  python scripts/check.py

Each step runs in order, on the interpreter that runs this script, with
the repository's `src` prepended to PYTHONPATH for every process it
starts.  One line per step gives PASS or FAIL, the wall time and the
step's name, with the reason under a failure; the last line is
`N of M steps passed`, and the exit code is 1 if any step failed.  The CI
workflow runs this command and nothing else, so a local run checks what
CI checks.  It needs pytest and hypothesis, and git for the fixture step.

A step takes the shell-quoted paths of the algebra configs, which are
written once, to one temporary directory; it returns when its check
holds and raises otherwise.  The CLI steps compare exit codes, output
suffixes, row counts and sha256 digests of the exact output; a command
that may hang runs under a timeout.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import re
import shlex
import subprocess
import sys
import tempfile
import time
import traceback

ROOT = pathlib.Path(__file__).resolve().parents[1]
ENV = dict(
    os.environ,
    PYTHONPATH=os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH")))),
)

# Cartan matrices in Kac's convention A_ij = <alpha_i^vee, alpha_j>: D4 is
# the first rank-4 algebra off the A series; B3 and C3 have derived
# symmetrizers of ratio 2 (G2 covers ratio 3), and B3's short simple root
# is the last one; F4 and E6 take the evaluated gate to rank 4 and 6.  A
# config that names its symmetrizer is refused.
CONFIGS = {
    "D4": {"label": "D4", "cartan": [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]]},
    "B3": {"label": "B3", "cartan": [[2, -1, 0], [-1, 2, -1], [0, -2, 2]]},
    "C3": {"label": "C3", "cartan": [[2, -1, 0], [-1, 2, -2], [0, -1, 2]]},
    "F4": {"label": "F4", "cartan": [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -2, 2, -1], [0, 0, -1, 2]]},
    "E6": {
        "label": "E6",
        "cartan": [
            [2, 0, -1, 0, 0, 0], [0, 2, 0, -1, 0, 0], [-1, 0, 2, -1, 0, 0],
            [0, -1, -1, 2, -1, 0], [0, 0, 0, -1, 2, -1], [0, 0, 0, 0, -1, 2],
        ],
    },
    "B3-symmetrizer": {
        "label": "B3", "cartan": [[2, -1, 0], [-1, 2, -1], [0, -2, 2]], "symmetrizer": [1, 1, 0.5],
    },
}

G2 = "perfbench/configs/G2.json"
A4 = "perfbench/configs/A4.json"

# (name, CSV command, data rows, sha256 of the whole output): every table,
# fold and window the benchmark asks for, none of which a tier-1 fixture
# reaches.  The digest pins the rows and their order, not only their number.
PINS = (
    # high_rank's largest A3 window; perfbench/references.json holds its 2669 weights
    ("pin-character-a3", "character --algebra A3 --level 4 --mu 2,1,0 --cutoff 6", 2669,
     "a3c8c6dd1027f7deee6741dc583d2189887cd7e37ed04ab7646cb5513afaf24f"),
    # the orbit walk on a non-symmetric affine Cartan matrix, whose -3 entry
    # enters every s_1 child's labels
    ("pin-character-g2", f"character --algebra {G2} --level 3 --mu 1,0 --cutoff 12", 2731,
     "8ab0fb218e63ca9321dd8cbc507891aeb2474634619ac8aff6dd704637d52c09"),
    # deep_solve's A2 level-10 class: p = 22 base weights, the largest
    # grade-0 block the solve back-substitutes through
    ("pin-strings-a2-l10", "strings --algebra A2 --level 10 --mu 4,1 --cutoff 40", 902,
     "c9faa74256382dd3d96a862d1106cbf646e05cdda5c5d756dabddded436e0d16"),
    # deep_solve's A1 level-8 classes to depth 200, the deepest solve
    ("pin-strings-a1-mu3", "strings --algebra A1 --level 8 --mu 3 --cutoff 200", 804,
     "04ba6ba32b997fb20693daf27f36777bb0b7434099a0d8d17342b6001d3fa09b"),
    ("pin-strings-a1-mu2", "strings --algebra A1 --level 8 --mu 2 --cutoff 200", 1005,
     "213b720ee23d499cba750744e476f8bc354612e0ecb6821530e2c1183fccda48"),
    ("pin-strings-g2", f"strings --algebra {G2} --level 3 --mu 1,0 --cutoff 20", 126,
     "b6a26b29d2898bddad92c3fe3cbc4e8bbfdc9e48e6e9a3b1cdbd04753692a739"),
    ("pin-strings-a3", "strings --algebra A3 --level 4 --mu 2,1,0 --cutoff 15", 160,
     "0e2dad608864458400ad9ae90e7cfe3e9188ec5a62f7145df424fc170a761110"),
    # the largest folds, every folded entry of every base weight
    ("pin-folded-fan-a3", "folded-fan --algebra A3 --level 4 --mu 2,1,0 --cutoff 15", 1177,
     "2ef0e8286b5433bafaa660cdcf2aa9e913536ef89db4d5fec4ce49c393b3d531"),
    ("pin-folded-fan-a2", "folded-fan --algebra A2 --level 10 --mu 4,1 --cutoff 40", 4332,
     "7526d78ac4733dba0ed005a76fced7168d08846ad69b894aba64affca4810273"),
)

VERIFY_LINES = 48
VERIFY_DIGEST = "4a0f5b703e3a9501a363c6a24025b39389fce46420bc21c60bef47f06fc565a1"


class Failed(Exception):
    """A step's check does not hold."""


def run(argv: list, code: int = 0, timeout: float | None = None) -> subprocess.CompletedProcess:
    """argv, run from the repository root with no input, its output captured.

    It must exit with `code` within `timeout` seconds.
    """
    try:
        done = subprocess.run(
            argv, cwd=ROOT, env=ENV, stdin=subprocess.DEVNULL, capture_output=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise Failed(f"{shown(argv)}: no exit within {timeout} s") from None
    if done.returncode != code:
        tail = (done.stdout + done.stderr).decode().strip().splitlines()[-20:]
        raise Failed("\n".join([f"{shown(argv)}: exit {done.returncode}, not {code}", *tail]))
    return done


def shown(argv: list) -> str:
    return " ".join("python" if arg == sys.executable else arg for arg in argv)


def python(*args, **kwargs) -> subprocess.CompletedProcess:
    return run([sys.executable, *args], **kwargs)


def affstr(args: str, **kwargs) -> str:
    """The output of `python -m affstr` with args split as a shell would."""
    return python("-m", "affstr", *shlex.split(args), **kwargs).stdout.decode()


def sha256(out: str) -> str:
    return hashlib.sha256(out.encode()).hexdigest()


def ends_with(out: str, suffix: str) -> None:
    if not out.rstrip("\n").endswith(suffix):
        raise Failed(f"output {out.strip()[-80:]!r} does not end with {suffix!r}")


def tier1(configs):
    python("-m", "pytest", "-q", "--continue-on-collection-errors")


def tier1_reversed(configs):
    # algebras are shared for the whole process, so a memo one test leaves
    # behind must not decide whether another test passes
    files = sorted((str(p.relative_to(ROOT)) for p in ROOT.glob("tests/test_*.py")), reverse=True)
    python("-m", "pytest", "-q", *files)


def readme_doctest(configs):
    python("-m", "doctest", "README.md")


def readme_cli(configs):
    # every `affstr ...` line of the README's CLI block must run, so a
    # removed option cannot leave the documentation stale
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("\n## CLI\n")[1]
    blocks = re.findall(r"^```sh\n(.*?)^```$", section.split("\n## ")[0], re.M | re.S)
    lines = [line for block in blocks for line in block.splitlines() if line.startswith("affstr ")]
    if not lines:
        raise Failed("the README's CLI block has no affstr line")
    for line in lines:
        affstr(line.removeprefix("affstr "))


def gate(configs):
    affstr("fan --algebra A2 --cutoff 40 --check --format json")
    affstr(f"fan --algebra {G2} --cutoff 20 --check --format json")
    affstr(f"fan --algebra {A4} --cutoff 12 --check --format json")
    # the evaluated gate at rank 4 and 6: F4 at cutoff 6 (10,367 vectors)
    # in well under 10 s, E6 at cutoff 4 (311,039) at all
    affstr(f"fan --algebra {configs['F4']} --cutoff 6 --check", timeout=10)
    affstr(f"fan --algebra {configs['E6']} --cutoff 4 --check", timeout=120)


def two_path_g2(configs):
    # a non-simply-laced algebra
    affstr(f"strings --algebra {G2} --level 3 --mu 1,0 --cutoff 12 --verify")


def two_path_a4(configs):
    # rank 4 through the priced fold
    affstr(f"strings --algebra {A4} --level 2 --mu 1,0,0,1 --cutoff 5 --verify")


def two_path_a3(configs):
    # through the priced oracle
    affstr("strings --algebra A3 --level 2 --mu 0,0,0 --cutoff 30 --verify")


def d4(configs):
    # walk-built labels and norms through the gate, the priced fold and
    # the priced oracle
    affstr(f"fan --algebra {configs['D4']} --cutoff 8 --check")
    affstr(f"strings --algebra {configs['D4']} --level 2 --mu 1,0,0,0 --cutoff 5 --verify")


def b3_c3(configs):
    for name in ("B3", "C3"):
        affstr(f"fan --algebra {configs[name]} --cutoff 8 --check")
        affstr(f"strings --algebra {configs[name]} --level 2 --mu 1,0,0 --cutoff 12 --verify")
    # the symmetrizer is derived: a config that names one exits 2
    affstr(f"fan --algebra {configs['B3-symmetrizer']} --cutoff 0", code=2)


def read_a4(configs):
    args = f"--algebra {A4} --level 2 --mu 1,0,0,1 --cutoff 3"
    affstr(f"character {args}")
    affstr(f"character {args} --format csv")
    # s_1 moves the weight off the dominant chamber; its multiplicity stays 10
    ends_with(affstr(f"mult {args} --weight=-1,1,0,1 --grade -1"), ": 10")


def read_g2(configs):
    args = f"--algebra {G2} --level 3 --mu 1,0 --cutoff 6"
    # comarks (2, 1) weigh the zeroth label: 3,0 reduces by s_0, -1,3 by s_1
    ends_with(affstr(f"mult {args} --weight 3,0 --grade -5"), ": 79")
    ends_with(affstr(f"mult {args} --weight=-1,3 --grade -2"), ": 47")


def far_reads(configs):
    # a weight far above the module is priced after a few reflections; the
    # whole step budget would not even reach its dominant point
    far = "--algebra A2 --level 1 --mu 0,0 --cutoff 4 --weight 1000000000000,0 --grade -1"
    ends_with(affstr(f"mult {far}", timeout=10), ": 0")
    # the compiled kernel on a branched diagram: the word (3,2,0,1,4,2)
    # moves the string point (0,0,1,1) at depth 3 to 2,-3,3,1 at grade -4,
    # which reads the table's coefficient
    args = f"--algebra {configs['D4']} --level 2 --mu 1,0,0,0 --cutoff 4"
    table = affstr(f"strings {args} --format csv").splitlines()
    rows = [row for row in table if row.startswith("1,0 0 1 1,3,")]
    if [row.split(",")[3] for row in rows] != ["136"]:
        raise Failed(f"string point (0,0,1,1) at depth 3 reads {rows}, not 136")
    ends_with(affstr(f"mult {args} --weight 2,-3,3,1 --grade -4"), ": 136")


def pin(args: str, rows: int, digest: str):
    def check(configs):
        out = affstr(f"{args} --format csv")
        if (found := len(out.splitlines()) - 1) != rows:
            raise Failed(f"{found} rows, not {rows}")
        if sha256(out) != digest:
            raise Failed(f"sha256 {sha256(out)}, not {digest}")

    return check


def start_up(configs):
    # a command other than verify imports neither dataclasses, the fixture
    # harness nor the unfolded recursion; only a command that certifies a
    # table (verify, strings --verify) loads certify and the gate memo, and
    # fan --check runs the gate itself
    for args, banned in (
        ("mult --algebra A2 --level 1 --mu 0,0 --cutoff 4 --weight 1,0 --grade -1",
         r"dataclasses|affstr\.verify|affstr\.oracle"),
        ("strings --algebra A2 --level 2 --mu 1,0 --cutoff 4", r"affstr\.verify|affstr\.oracle"),
        ("fan --algebra A2 --cutoff 4 --check", r"affstr\.verify|affstr\.oracle"),
    ):
        log = python("-X", "importtime", "-m", "affstr", *shlex.split(args)).stderr.decode()
        imported = re.findall(rf"(?<!\w)(?:{banned})(?!\w)", log)
        if imported:
            raise Failed(f"affstr {args} imports {sorted(set(imported))}")


def verify(configs):
    # the benchmark's two_path workload counts failures against these lines;
    # the digest pins every line of the report, not only the count, so a
    # new verify line changes it together with the count
    report = affstr("verify")
    lines = report.splitlines()
    passed = sum(line.startswith("PASS") for line in lines)
    if passed != VERIFY_LINES or lines[-1] != f"{VERIFY_LINES} of {VERIFY_LINES} checks passed":
        raise Failed(f"{passed} PASS lines, last line {lines[-1]!r}")
    if sha256(report) != VERIFY_DIGEST:
        raise Failed(f"report sha256 {sha256(report)}, not {VERIFY_DIGEST}")


def fixtures(configs):
    python("scripts/make_fixtures.py")
    run(["git", "diff", "--exit-code", "src/affstr/fixtures"])


def benchmark_self_tests(configs):
    python("-m", "pytest", "-q", "perfbench/test_perfbench.py")


STEPS = (
    ("tier-1", tier1),
    ("tier-1-reversed", tier1_reversed),
    ("readme-doctest", readme_doctest),
    ("readme-cli", readme_cli),
    ("gate", gate),
    ("two-path-g2", two_path_g2),
    ("two-path-a4", two_path_a4),
    ("two-path-a3", two_path_a3),
    ("d4", d4),
    ("b3-c3", b3_c3),
    ("read-a4", read_a4),
    ("read-g2", read_g2),
    ("far-reads", far_reads),
    *((name, pin(args, rows, digest)) for name, args, rows, digest in PINS),
    ("start-up", start_up),
    ("verify", verify),
    ("fixtures", fixtures),
    ("benchmark-self-tests", benchmark_self_tests),
)


def main() -> int:
    passed = 0
    with tempfile.TemporaryDirectory() as tmp:
        configs = {}
        for name, config in CONFIGS.items():
            path = os.path.join(tmp, f"{name}.json")
            with open(path, "w", encoding="utf-8") as f:
                json.dump(config, f)
            configs[name] = shlex.quote(path)
        for name, step in STEPS:
            start = time.perf_counter()
            try:
                step(configs)
                failure = None
            except Failed as error:
                failure = str(error)
            except Exception:  # a step that crashes fails, and the run goes on
                failure = traceback.format_exc().strip()
            seconds = time.perf_counter() - start
            print(f"{'FAIL' if failure else 'PASS'} {name} ({seconds:.1f} s)", flush=True)
            if failure:
                print("    " + failure.replace("\n", "\n    "), flush=True)
            passed += failure is None
    print(f"{passed} of {len(STEPS)} steps passed")
    return 0 if passed == len(STEPS) else 1


if __name__ == "__main__":
    sys.exit(main())
