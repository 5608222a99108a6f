import pytest

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
