"""Injections between summand sets, the maps they induce on derivation
slices and homology, symmetric-group actions, characters, and the
consistency check for stabilized images.

An injection acts on a derivation by extension by zero: the relabeled
derivation takes the conjugated value on summands in the image and vanishes
on the rest.  Permutations are the bijective special case, acting by
sigma . theta = sigma o theta o sigma^{-1}.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from . import reptheory
from .dermodel import (
    ClosureViolation,
    Derivation,
    DerSlice,
    Mode,
    derivation_basis,
    homology,
)
from .gradedlie import LieElement, ModelSpec, relabel_element
from .ratlinalg import SparseMatrix, Vector


class NotAChainMap(Exception):
    """A homology representative mapped to a non-cycle."""


@dataclass(frozen=True)
class Injection:
    """An injective map of summand index sets, zero-based."""
    source: int
    target: int
    image: tuple[int, ...]

    def __post_init__(self):
        if self.source < 0 or self.target < self.source:
            raise ValueError("need 0 <= source <= target")
        if len(self.image) != self.source:
            raise ValueError("image must list one target per source index")
        if len(set(self.image)) != self.source:
            raise ValueError("map is not injective")
        for t in self.image:
            if not (0 <= t < self.target):
                raise ValueError(f"target index {t} out of range")

    @classmethod
    def standard(cls, n: int, m: int) -> "Injection":
        return cls(n, m, tuple(range(n)))

    @classmethod
    def from_permutation(cls, sigma: tuple[int, ...]) -> "Injection":
        n = len(sigma)
        return cls(n, n, tuple(sigma))

    def compose(self, inner: "Injection") -> "Injection":
        """self after inner."""
        if inner.target != self.source:
            raise ValueError("injections are not composable")
        return Injection(inner.source, self.target,
                         tuple(self.image[j] for j in inner.image))

    def summand_map(self) -> dict[int, int]:
        return {j: self.image[j] for j in range(self.source)}


def relabel_derivation(theta: Derivation, inj: Injection,
                       target_slice: DerSlice) -> Derivation:
    """Extension by zero along an injection."""
    src = theta.genset
    dst = target_slice.genset
    mapping = inj.summand_map()
    values: dict[int, LieElement] = {}
    for gid, val in theta.values.items():
        base = src.base_index(gid)
        j = src.summand(gid)
        new_gid = dst.gen_id(base, mapping[j])
        values[new_gid] = relabel_element(src, dst, mapping, val)
    return Derivation(dst, theta.degree, values)


def induced_slice_map(inj: Injection, model: ModelSpec, k: int,
                      mode: Mode = Mode.POINTED) -> SparseMatrix:
    """Matrix of the extension-by-zero map in local slice coordinates."""
    src = derivation_basis(model, inj.source, k, mode)
    tgt = derivation_basis(model, inj.target, k, mode)
    columns: list[Vector] = []
    for i in range(src.dim):
        theta = relabel_derivation(src.basis_derivation(i), inj, tgt)
        pointed = tgt.derivation_to_pointed(theta)
        local = tgt.pointed_to_local(pointed)
        if local is None:
            raise ClosureViolation(
                "extension by zero left the boundary subcomplex")
        columns.append(local)
    return SparseMatrix.from_columns(columns, tgt.dim)


def homology_map(inj: Injection, model: ModelSpec, k: int,
                 mode: Mode = Mode.POINTED) -> SparseMatrix:
    """The induced map on homology, via representatives."""
    src_h = homology(model, inj.source, k, mode)
    tgt_h = homology(model, inj.target, k, mode)
    src_slice = derivation_basis(model, inj.source, k, mode)
    tgt_slice = derivation_basis(model, inj.target, k, mode)
    columns: list[Vector] = []
    for rep in src_h.representatives:
        theta = src_slice.pointed_to_derivation(src_slice.local_to_pointed(rep))
        image = relabel_derivation(theta, inj, tgt_slice)
        pointed = tgt_slice.derivation_to_pointed(image)
        local = tgt_slice.pointed_to_local(pointed)
        if local is None:
            raise ClosureViolation(
                "extension by zero left the boundary subcomplex")
        if not tgt_h.is_cycle(local):
            raise NotAChainMap(
                f"image of a representative is not a cycle at "
                f"(n={inj.source}->{inj.target}, k={k})")
        columns.append(tgt_h.reduce(local))
    return SparseMatrix.from_columns(columns, tgt_h.dimension)


@cache
def sigma_action(sigma: tuple[int, ...], model: ModelSpec, k: int,
                 mode: Mode = Mode.POINTED) -> SparseMatrix:
    """Action matrix of a permutation on homology coordinates."""
    return homology_map(Injection.from_permutation(sigma), model, k, mode)


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


def character(model: ModelSpec, n: int, k: int,
              mode: Mode = Mode.POINTED) -> reptheory.ClassFunction:
    """Trace of the homology action at one representative per cycle type."""
    values: dict[reptheory.Partition, Fraction] = {}
    for mu in reptheory.partitions(n):
        act = sigma_action(cycle_type_representative(mu), model, k, mode)
        trace = sum((act.entry(i, i) for i in range(act.rows)), Fraction(0))
        values[mu] = trace
    return reptheory.ClassFunction(n, values)
