"""Injections between summand sets, the maps they induce on derivation
slices and homology, symmetric-group actions, characters, and the
consistency check for stabilized images.  Characters act on the blocks
of ``dermodel`` only, and only for a nonzero differential: a zero
differential's character is ``dermodel.der_trace`` at each cycle type, so
its ``--decompose`` jobs do not import this module.  The full cells serve
the consistency check and the FI maps.

An injection acts on a derivation by extension by zero: the relabeled
derivation takes the conjugated value on summands in the image and vanishes
on the rest.  Permutations are the bijective special case, acting by
sigma . theta = sigma o theta o sigma^{-1}.  Both act on pointed
coordinates, one memoized column per coordinate:
(g -> e) goes to (sigma g -> sigma . e), where sigma . e is one basis
element when sigma is increasing on the summands of e's word.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from collections.abc import Callable, Mapping
from fractions import Fraction
from functools import cache
from math import comb, prod

from . import reptheory
from .dermodel import (DerSlice, Mode, _flag, derivation_basis, homology,
                       push_local, support_bound)
from .gradedlie import ModelSpec, relabel_basis_element
from .ratlinalg import CheckFailure, SparseMatrix, Vector


class NotAChainMap(CheckFailure):
    """A homology representative mapped to a non-cycle."""


class Injection(namedtuple("Injection", ["source", "target", "image"])):
    """An injective map of summand index sets, zero-based: source and
    target are sizes, and image (a tuple[int, ...]) lists one target index
    per source index."""
    __slots__ = ()

    def __new__(cls, source: int, target: int, image: tuple[int, ...]):
        if source < 0 or target < source:
            raise ValueError("need 0 <= source <= target")
        if len(image) != source:
            raise ValueError("image must list one target per source index")
        if len(set(image)) != source:
            raise ValueError("map is not injective")
        for t in image:
            if not (0 <= t < target):
                raise ValueError(f"target index {t} out of range")
        return super().__new__(cls, source, target, image)

    @classmethod
    def standard(cls, n: int, m: int) -> "Injection":
        return cls(n, m, tuple(range(n)))

    @classmethod
    def from_permutation(cls, sigma: tuple[int, ...]) -> "Injection":
        n = len(sigma)
        return cls(n, n, tuple(sigma))


def _pushforward(inj: Injection, src: DerSlice, tgt: DerSlice
                 ) -> Callable[[Mapping[int, Fraction]], Vector]:
    """Extension by zero from src's local coordinates to tgt's.  The image
    of each pointed coordinate (g -> e), namely (inj g -> inj . e), is
    memoized for the life of the returned map."""
    sg, tg = src.genset, tgt.genset

    @cache
    def pointed_column(j: int) -> Vector:
        g, e = src.coords[j]
        h = tg.gen_id(sg.base_index(g), inj.image[sg.summand(g)])
        return {tgt.coord_index[(h, x)]: c for x, c in
                relabel_basis_element(sg, tg, inj.image, e).items()}

    name = f"extension by zero along {inj.image}"

    def push(local: Mapping[int, Fraction]) -> Vector:
        return push_local(src, tgt, pointed_column, local, name)

    return push


@cache
def homology_map(inj: Injection, model: ModelSpec, k: int,
                 mode: Mode = Mode.POINTED, block: bool = False
                 ) -> SparseMatrix:
    """The induced map on homology, via representatives; with block, on the
    blocks, which only a permutation keeps."""
    flag = _flag(block)
    src_h = homology(model, inj.source, k, mode, **flag)
    tgt_h = homology(model, inj.target, k, mode, **flag)
    push = _pushforward(inj,
                        derivation_basis(model, inj.source, k, mode, **flag),
                        derivation_basis(model, inj.target, k, mode, **flag))
    columns: list[Vector] = []
    for rep in src_h.representatives:
        cls = tgt_h.reduce(push(rep))
        if cls is None:
            raise NotAChainMap(
                f"image of a representative is not a cycle at "
                f"(n={inj.source}->{inj.target}, k={k})")
        columns.append(cls)
    return SparseMatrix.from_columns(columns, tgt_h.dim)


@cache
def sigma_action(sigma: tuple[int, ...], model: ModelSpec, k: int,
                 mode: Mode = Mode.POINTED, block: bool = False
                 ) -> SparseMatrix:
    """Action matrix of a permutation on homology coordinates."""
    return homology_map(Injection.from_permutation(sigma), model, k, mode,
                        **_flag(block))


def stabilizer_generators(n: int, m: int) -> list[tuple[int, ...]]:
    """Adjacent transpositions of the complement of the first n points;
    they generate the pointwise stabilizer of {1..n} inside Sigma_m."""
    gens = []
    for j in range(n, m - 1):
        sigma = list(range(m))
        sigma[j], sigma[j + 1] = sigma[j + 1], sigma[j]
        gens.append(tuple(sigma))
    return gens


def consistency_check(model: ModelSpec, n: int, m: int, k: int,
                      mode: Mode = Mode.POINTED) -> bool:
    """Whether every stabilizer generator fixes the image of the
    stabilization map from arity n to arity m, elementwise."""
    if m <= n:
        raise ValueError("need m > n")
    image = homology_map(Injection.standard(n, m), model, k, mode).columns()
    for sigma in stabilizer_generators(n, m):
        act = sigma_action(sigma, model, k, mode)
        for col in image:
            if act.apply(col) != col:
                return False
    return True


def cycle_type_representative(mu: reptheory.Partition) -> tuple[int, ...]:
    """Canonical permutation of cycle type mu: cycles on consecutive blocks,
    largest parts on the smallest points."""
    n = sum(mu)
    sigma = list(range(n))
    pos = 0
    for part in mu:
        block = list(range(pos, pos + part))
        for idx in range(part):
            sigma[block[idx]] = block[(idx + 1) % part]
        pos += part
    return tuple(sigma)


def character(model: ModelSpec, n: int, k: int, mode: Mode = Mode.POINTED
              ) -> dict[reptheory.Partition, Fraction]:
    """Trace of the homology action at one representative per cycle type.
    sigma maps W_S to W_{sigma S}, so only S made of cycles of sigma count:
    chi_n(mu) is the sum over sub-multisets nu of mu's cycles of
    prod_l C(m_l(mu), m_l(nu)) chi_{W_|nu|}(nu), a block action's diagonal."""
    blocks = []  # (multiplicities of nu, chi_{W_|nu|}(nu))
    for s in range(1, min(n, support_bound(model, k)) + 1):
        dim = homology(model, s, k, mode, block=True).dim
        if not dim:
            continue
        for nu in reptheory.partitions(s):
            act = sigma_action(cycle_type_representative(nu), model, k,
                               mode, block=True)
            trace = sum(act.entry(i, i) for i in range(act.rows))
            if nu == (1,) * s and trace != dim:
                raise reptheory.NotARepresentation(
                    f"the identity has trace {trace} on a block of "
                    f"dimension {dim} at (s={s}, k={k}, {mode})")
            blocks.append((Counter(nu).items(), trace))
    values = {}
    for mu in reptheory.partitions(n):
        m = Counter(mu)
        values[mu] = sum(prod(comb(m[part], c) for part, c in nu) * chi
                         for nu, chi in blocks)
    return values
