import importlib
import pkgutil
from fractions import Fraction

import pytest

import derlie
from derlie.gradedlie import ModelSpec

# Every memoized function of the engine, collected once at import, so that a
# spy a test installs over one of them does not hide the memo behind it.
MEMOS = tuple({
    id(fn): fn
    for info in pkgutil.iter_modules(derlie.__path__)
    for fn in vars(importlib.import_module(f"derlie.{info.name}")).values()
    if hasattr(fn, "cache_clear")}.values())


def forget_memos():
    """Clear every memo: generator sets, omega, slices, matrices, homology,
    actions and irreducible characters."""
    for fn in MEMOS:
        fn.cache_clear()


@pytest.fixture
def cold_caches():
    """Forget every memo before and after the test, so that a spy meets no
    old entry and a patched layer leaves none behind."""
    forget_memos()
    yield
    forget_memos()


@pytest.fixture
def sphere2():
    return ModelSpec("sphere2", [("x", 1)])


@pytest.fixture
def sphere3():
    return ModelSpec("sphere3", [("y", 2)])


@pytest.fixture
def sphere4():
    return ModelSpec("sphere4", [("z", 3)])


@pytest.fixture
def s2xs2():
    return ModelSpec("s2xs2", [("a", 1), ("b", 1)],
                     pairing=[("a", "b", Fraction(1))], ambient_dim=4)


@pytest.fixture
def cp2():
    return ModelSpec("cp2", [("a", 1)],
                     pairing=[("a", "a", Fraction(1))], ambient_dim=4)


@pytest.fixture
def s3xs3():
    return ModelSpec("s3xs3", [("a", 2), ("b", 2)],
                     pairing=[("a", "b", Fraction(1))], ambient_dim=6)


@pytest.fixture
def product_model():
    # the two-cell product space: a, b in degree 2, c in degree 5, dc = [a,b]
    return ModelSpec("s3xs3-product", [("a", 2), ("b", 2), ("c", 5)],
                     differential={"c": ("a", "b")})


@pytest.fixture
def cp3():
    # nonzero differential together with a pairing: db = (1/2)[a,a]
    return ModelSpec("cp3", [("a", 1), ("b", 3)],
                     differential={"b": [(Fraction(1, 2), ("a", "a"))]},
                     pairing=[("a", "b", Fraction(1))], ambient_dim=6)
