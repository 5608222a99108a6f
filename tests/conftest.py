import sys

import pytest

from affstr import fan as fan_module
from affstr import preset, weyl


@pytest.fixture(scope="session")
def a1():
    return preset("A1")


@pytest.fixture(scope="session")
def a2():
    return preset("A2")


@pytest.fixture(scope="session")
def a3():
    return preset("A3")


@pytest.fixture
def kernel_steps(monkeypatch):
    """count(spec): the reflections each reduction call of spec's kernel runs from now on."""

    def count(spec):
        kernel = weyl._kernel(spec)
        steps = []

        def counted(walk):
            def run(*args):
                word = args[-2]
                before = len(word)
                try:
                    return walk(*args)
                finally:
                    steps.append(len(word) - before)

            return run

        for name in ("dominant", "reduce"):
            monkeypatch.setattr(kernel, name, counted(getattr(kernel, name)))
        return steps

    return count


@pytest.fixture
def drop_fan_vectors(monkeypatch):
    """drop(cutoffs): from now on every affstr binding of build_fan serves the
    fans at those cutoffs (all of them for None) without the A2 vectors of
    grade >= 2 and root[0] > 2, one Fan object per fan, so that the fold and
    the oracle read the same wrong fan.  Patched the way perfbench's tracer
    patches: at every affstr module attribute bound to build_fan."""

    def drop(cutoffs):
        original = fan_module.build_fan
        served = {}

        def build_fan(spec, cutoff, /):
            fan = original(spec, cutoff)
            if cutoffs is not None and cutoff not in cutoffs:
                return fan
            if fan not in served:
                kept = [v for v in fan if v.grade < 2 or v.root[0] <= 2]
                served[fan] = fan_module.Fan(spec, fan.cutoff, kept)
            return served[fan]

        for name, module in list(sys.modules.items()):
            if module is not None and (name == "affstr" or name.startswith("affstr.")):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, build_fan)

    return drop
