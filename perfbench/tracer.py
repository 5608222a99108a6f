"""Spans and counts around the calls into each affstr module.

The tracer replaces public functions at every module binding the
pipeline calls them through (for example `build_folded_fans` in both
`affstr.strings` and `affstr.verify`), so nothing inside the program is
edited.  A span records name, start, end, parent span and job id; spans
are kept in memory and handed back at the end.  `to_dominant` is called
about 10^5 times per job, so it gets counts only, without spans.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# Inclusive time is reported for these spans (they orchestrate the
# pipeline); self time for every other layer.
INCLUSIVE = ("op.", "verify.")
# The check functions of affstr.verify, each spanned as verify.<name>.
CHECK_NAMES = (
    "check_fan", "check_level1", "check_level2", "check_level4",
    "check_oracle_equivalence", "check_structure", "check_counting",
)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: dict = defaultdict(int)
        self.job = None
        self._stack: list[int] = []
        self._patched: list = []
        self._folded: set = set()
        self._margin = 0

    # -- recording ---------------------------------------------------------

    def _enter(self):
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(index)
        return index, parent, time.perf_counter()

    def _leave(self, name, index, parent, start):
        end = time.perf_counter()
        self._stack.pop()
        self.spans[index] = (name, start, end, parent, self.job)

    def run_op(self, job, name, fn):
        """Run one job operation under a root span."""
        self.job = job
        index, parent, start = self._enter()
        try:
            return fn()
        finally:
            self._leave(name, index, parent, start)

    def _spanned(self, name, original, after):
        def wrapper(*args, **kwargs):
            index, parent, start = self._enter()
            try:
                result = original(*args, **kwargs)
            finally:
                self._leave(name, index, parent, start)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _counted(self, original, after):
        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            after(args, kwargs, result)
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _patch_bindings(self, original, make):
        """Replace `original` at every affstr module attribute bound to it."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "affstr" or mod_name.startswith("affstr.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, make(original))

    def install(self):
        from affstr import algebra, fan, folding, oracle, strings, verify, weyl

        def span(name, after=None):
            return lambda original: self._spanned(name, original, after)

        self._patch(
            algebra.AlgebraSpec, "__init__",
            span("algebra.spec")(algebra.AlgebraSpec.__init__),
        )
        self._patch_bindings(fan.build_fan, span("fan.build", self._after_fan))
        self._patch_bindings(
            fan.verify_denominator, span("fan.denominator", self._after_denominator)
        )
        self._patch_bindings(folding.build_folded_fans, span("folding.build", self._after_fold))
        self._patch_bindings(strings.string_table, span("strings.table"))
        self._patch_bindings(strings.enumerate_class_weights, span("strings.classes"))
        self._patch_bindings(strings.assemble_system, span("strings.assemble"))
        self._patch_bindings(strings.solve_strings, span("strings.solve", self._after_solve))
        self._patch_bindings(
            strings.weight_multiplicity, span("strings.mult", self._count("strings.mult_calls"))
        )
        self._patch_bindings(strings.character, span("strings.character", self._after_character))
        self._patch(
            oracle.RacahOracle, "multiplicity",
            span("oracle.query", self._count("oracle.queries"))(oracle.RacahOracle.multiplicity),
        )
        self._patch_bindings(verify.run_all, span("verify.run"))
        for name in CHECK_NAMES:
            self._patch_bindings(getattr(verify, name), span(f"verify.{name}", self._after_check))
        self._patch_bindings(
            weyl.to_dominant, lambda original: self._counted(original, self._after_reduction)
        )

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- counters ----------------------------------------------------------

    def _count(self, key):
        def after(args, kwargs, result):
            self.counts[key] += 1

        return after

    def _after_fan(self, args, kwargs, fan):
        self.counts["fan.vectors"] += len(fan)

    def _after_denominator(self, args, kwargs, report):
        self.counts["fan.denominator_terms"] += report.checked_terms

    def _after_fold(self, args, kwargs, result):
        spec, base = args[0], args[1]
        cutoff = args[2] if len(args) > 2 else kwargs["cutoff"]
        folded, fan = result
        c = self.counts
        c["folding.calls"] += 1
        key = (spec.label, spec.cartan, base.level, tuple(w.labels for w in base), cutoff)
        if key in self._folded:
            c["folding.repeat_calls"] += 1
        self._folded.add(key)
        c["folding.folds"] += len(fan) * len(base)
        c["folding.useful_folds"] += sum(v.grade <= cutoff for v in fan) * len(base)
        c["folding.entries"] += sum(len(ff.entries) for ff in folded)
        self._margin = max(self._margin, fan.cutoff - cutoff)
        c["folding.fan_margin"] = self._margin

    def _after_solve(self, args, kwargs, table):
        system = args[0]
        p = len(system.base)
        self.counts["strings.solve_cells"] += p * (system.depth + 1)
        self.counts["strings.grade0_size"] = max(self.counts["strings.grade0_size"], p)

    def _after_character(self, args, kwargs, pairs):
        self.counts["strings.character_weights"] += len(pairs)

    def _after_check(self, args, kwargs, results):
        self.counts["verify.checks"] += len(results)
        self.counts["verify.failed"] += sum(not r.ok for r in results)

    def _after_reduction(self, args, kwargs, outcome):
        self.counts["weyl.reductions"] += 1
        self.counts["weyl.reflections"] += len(outcome.word)

    # -- summary -----------------------------------------------------------

    def summary(self) -> dict:
        """Per-name time (self, or inclusive for INCLUSIVE names), counts, spans."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, job in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        times: dict = defaultdict(float)
        for i, (name, start, end, parent, job) in enumerate(self.spans):
            duration = end - start
            times[name] += duration if name.startswith(INCLUSIVE) else duration - child_time[i]
        return {
            "times": dict(times),
            "counts": dict(self.counts),
            "spans": [list(s) for s in self.spans],
        }
