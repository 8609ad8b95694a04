"""Derivation complexes of free graded Lie algebras and their homology.

A degree-k derivation is a vector in pointed coordinates: the coordinate
(g -> e) sends the generator g to the Lie basis element e, of degree
|g| + k, and every other generator to 0.  No derivation object is built;
delta and theta -> theta(omega) act on a coordinate through the tensor
expansion of e (``apply_values_tensor``).  Two complexes are supported,
selected by ``Mode``:

* pointed: all derivations, with basis indexed by pairs (generator, Lie
  basis element of the matching degree);
* boundary: the subcomplex of derivations annihilating the intersection
  element omega_n, the kernel of theta -> theta(omega) inside the pointed
  slice.  That map is onto L_{d-2+k}, so the slice's dimension is counted;
  the kernel basis is built on first use and checked against the count.

The differential is theta -> d o theta - (-1)^k theta o d.  Homology in
degree k is ker(delta_k)/im(delta_{k+1}); for k = 1 the kernel is taken
into the materialized degree-0 slice, which implements the positive
truncation.  When the model's differential is zero, delta = 0 and H_k is
the degree-k slice, and when that slice is empty H_k = 0: in both cases
the degree-(k+1) slice is never built.

The support of a pointed coordinate (g -> e), the summands of g and of e's
letters, is kept by delta and by theta -> theta(omega) = c [e, g^#].  So a
complex is the sum over nonempty S of its support-S part, which the
increasing relabeling identifies with the block (support all of [|S|]) at
arity |S|.  Hence dim H_k(n) is the sum over s of C(n, s) dim W_s(k), with
W_s(k) the homology of the block at arity s, which is 0 above
``support_bound``.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from enum import Enum
from fractions import Fraction
from functools import cache, cached_property
from math import comb

from . import ratlinalg
from .gradedlie import (
    GeneratorSet,
    LieBasisElement,
    ModelSpec,
    apply_values_tensor,
    free_product_generators,
    lie_dim,
    lyndon_basis,
    omega,
)
from .ratlinalg import SparseMatrix, SubspaceBasis, Vector, add_scaled


class ClosureViolation(ratlinalg.CheckFailure):
    """An image left the boundary subcomplex (would contradict d(omega)=0),
    or its kernel basis disagrees with the counted dimension."""


class Mode(Enum):
    POINTED = "pointed"
    BOUNDARY = "boundary"

    def __str__(self) -> str:
        return self.value


class DerSlice:
    """One homological degree of a derivation complex, with an ordered basis
    and exact coordinates.  A boundary slice is the kernel of
    theta -> theta(omega): theta = (g -> e) sends omega to [e, g^#] up to a
    nonzero scalar, so the image is [L, V] = L_{d-2+k} (every generator has
    degree <= d-3) and the kernel has dimension pointed_dim - dim L_{d-2+k};
    a block subtracts the part of L_{d-2+k} that uses every summand."""

    def __init__(self, model: ModelSpec, n: int, k: int, mode: Mode,
                 genset: GeneratorSet,
                 coords: list[tuple[int, LieBasisElement]], block: bool):
        self.model = model
        self.n = n
        self.k = k
        self.mode = mode
        self.genset = genset
        self.coords = coords
        self.coord_index = {c: i for i, c in enumerate(coords)}
        self.dim = len(coords)
        if mode is Mode.BOUNDARY:
            degree = model.ambient_dim - 2 + k
            self.dim -= support_sum(n, lambda j: lie_dim(
                free_product_generators(model, j), degree), block)

    @property
    def pointed_dim(self) -> int:
        return len(self.coords)

    @cached_property
    def basis(self) -> SubspaceBasis:
        """Kernel of theta -> theta(omega) in pointed coordinates (boundary
        mode only), checked against the counted dimension."""
        genset, k = self.genset, self.k
        # theta(c omega) = 0 iff theta(omega) = 0: use omega's int multiple
        w_tensor = ratlinalg._to_int_row(
            genset.to_tensor(omega(self.model, self.n)))
        target_slice = genset.slice(self.model.ambient_dim - 2 + k)
        columns: list[Vector] = []
        for gid, elem in self.coords:
            img = apply_values_tensor(genset, k, {gid: genset.expansion(elem)},
                                      w_tensor)
            col: Vector = {}
            if img:
                expressed = target_slice.solver.express(img)
                if expressed is None:
                    raise ClosureViolation(
                        "derivation image of omega left the Lyndon span")
                col = expressed
            columns.append(col)
        constraint = SparseMatrix.from_columns(columns, target_slice.dim)
        basis = ratlinalg.kernel_basis(constraint)
        if basis.dim != self.dim:
            raise ClosureViolation(
                f"omega constraint kernel has dimension {basis.dim}, the "
                f"count gives {self.dim} at (n={self.n}, k={k})")
        return basis

    def pointed_to_local(self, vec: Mapping[int, Fraction]
                         ) -> Vector | None:
        if self.mode is Mode.POINTED:
            return dict(vec)
        return ratlinalg.coordinates_in_span(self.basis, vec)

    def local_to_pointed(self, local: Mapping[int, Fraction]) -> Vector:
        if self.mode is Mode.POINTED:
            return dict(local)
        out: Vector = {}
        for i, c in local.items():
            add_scaled(out, c, self.basis.vectors[i])
        return out

    def __repr__(self) -> str:
        return (f"DerSlice({self.model.name}, n={self.n}, k={self.k}, "
                f"{self.mode}, dim={self.dim})")


def _require_boundary_data(model: ModelSpec, mode: Mode) -> None:
    if mode is Mode.BOUNDARY and (not model.has_pairing
                                  or model.ambient_dim is None):
        raise ValueError(
            "boundary mode requires a model with pairing and ambient_dim")


def _flag(block: bool) -> dict:
    """Passes block on; a full cell omits it, to share the memo entry."""
    return {"block": True} if block else {}


def support_sum(n: int, dim_at: Callable[[int], int], block: bool) -> int:
    """dim_at(n), or with block its full-support part, by inclusion-exclusion
    (the support-S part at arity n is the block at arity |S|)."""
    return sum((-1) ** (n - j) * comb(n, j) * dim_at(j)
               for j in (range(1, n + 1) if block else (n,)))


def support_bound(model: ModelSpec, k: int) -> int:
    """Largest support of a degree-k coordinate (g -> e): e has at most
    (|g| + k) / (least generator degree) letters."""
    least = min(d for _, d in model.generators)
    return max(1 + (d + k) // least for _, d in model.generators)


def push_local(src: DerSlice, tgt: DerSlice,
               pointed_column: Callable[[int], Vector],
               local: Mapping[int, Fraction], name: str) -> Vector:
    """Image of a vector in src's local coordinates under the linear map
    whose pointed columns are given, in tgt's local coordinates; an image
    outside tgt raises ClosureViolation naming the map and the cells."""
    pointed: Vector = {}
    for j, c in src.local_to_pointed(local).items():
        add_scaled(pointed, c, pointed_column(j))
    if not pointed:
        return {}
    out = tgt.pointed_to_local(pointed)
    if out is None:
        raise ClosureViolation(
            f"{name} image left the boundary subcomplex at "
            f"(n={src.n}, k={src.k}) -> (n={tgt.n}, k={tgt.k})")
    return out


@cache
def derivation_basis(model: ModelSpec, n: int, k: int,
                     mode: Mode = Mode.POINTED, block: bool = False
                     ) -> DerSlice:
    """The slice of degree-k derivations; k = 0 exists only as the
    truncation target.  With block, only the coordinates whose support is
    all of [n]."""
    if n < 1:
        raise ValueError("arity must be at least 1")
    if k < 0:
        raise ValueError("homological degree must be at least 0")
    _require_boundary_data(model, mode)

    genset = free_product_generators(model, n)
    m, full = genset.base_count, (1 << n) - 1
    masks: dict[int, list] = {}  # degree -> (summand bitmask, element)
    coords: list[tuple[int, LieBasisElement]] = []
    for gid in range(genset.count):
        degree = genset.degrees[gid] + k
        if not block:
            coords += [(gid, e) for e in lyndon_basis(genset, degree)]
            continue
        if degree not in masks:
            masks[degree] = [(sum({1 << g // m for g in e.word}), e)
                             for e in lyndon_basis(genset, degree)]
        bit = 1 << gid // m
        coords += [(gid, e) for mask, e in masks[degree] if mask | bit == full]

    if mode is Mode.BOUNDARY:
        omega(model, n)  # its cycle and pairing checks run at arity 1
    return DerSlice(model, n, k, mode, genset, coords, block)


@cache
def differential_matrix(model: ModelSpec, n: int, k: int,
                        mode: Mode = Mode.POINTED, block: bool = False
                        ) -> SparseMatrix:
    """Matrix of theta -> d o theta - (-1)^k theta o d from the degree-k
    slice to the degree-(k-1) slice, in local slice coordinates."""
    if k < 1:
        raise ValueError("the differential starts at degree 1")
    src = derivation_basis(model, n, k, mode, **_flag(block))
    tgt = derivation_basis(model, n, k - 1, mode, **_flag(block))
    genset = src.genset
    # a boundary target counted as 0 with pointed coordinates checks closure
    if genset.has_zero_differential or not src.dim or not tgt.pointed_dim:
        return SparseMatrix(tgt.dim, src.dim)
    sign = -1 if k % 2 else 1
    users: dict[int, list[int]] = {}  # letter g -> generators whose d holds g
    for gid, dvec in genset._diff_tensor.items():
        for g in {g for w in dvec for g in w}:
            users.setdefault(g, []).append(gid)
    diff_letters = genset._diff_tensor.keys()

    @cache
    def pointed_column(j: int) -> Vector:
        """delta of the pointed coordinate j = (g -> e), in pointed target
        coordinates: d(e) on g, and -(-1)^k theta(dh) on each h; zero when
        no letter of e has a d and g is a letter of no dh."""
        g, e = src.coords[j]
        if g not in users and diff_letters.isdisjoint(e.word):
            return {}
        col = {tgt.coord_index[(g, x)]: c
               for x, c in genset.differential(e).items()}
        for h in users.get(g, ()):
            img = apply_values_tensor(genset, k, {g: genset.expansion(e)},
                                      genset._diff_tensor[h])
            value = genset.from_tensor(genset.degrees[h] + k - 1, img)
            add_scaled(col, -sign, {tgt.coord_index[(h, x)]: c
                                    for x, c in value.items()})
        return col

    columns = [push_local(src, tgt, pointed_column, {i: 1}, "differential")
               for i in range(src.dim)]
    return SparseMatrix.from_columns(columns, tgt.dim)


class HomologySlice:
    """Computed homology of one derivation-complex degree: representatives
    in local coordinates of the degree-k slice, and the differential out of
    it (None for a zero differential)."""

    def __init__(self, model: ModelSpec, n: int, k: int, mode: Mode,
                 dimension: int, representatives: list[Vector],
                 quotient: ratlinalg.Quotient, delta: SparseMatrix | None):
        self.model, self.n, self.k, self.mode = model, n, k, mode
        self.dimension, self.representatives = dimension, representatives
        self._quotient, self._delta = quotient, delta

    def reduce(self, local_vec: Mapping[int, Fraction]) -> Vector:
        """Class coordinates of a cycle given in slice coordinates."""
        return self._quotient.reduce(local_vec)

    def is_cycle(self, local_vec: Mapping[int, Fraction]) -> bool:
        return self._delta is None or not self._delta.apply(local_vec)


@cache
def homology(model: ModelSpec, n: int, k: int,
             mode: Mode = Mode.POINTED, block: bool = False
             ) -> HomologySlice:
    """H_k of the positively truncated complex, k >= 1; with block, of the
    full-support block."""
    if k < 1:
        raise ValueError("homology is reported for degrees k >= 1")
    sl = derivation_basis(model, n, k, mode, **_flag(block))
    delta_k = None
    if sl.genset.has_zero_differential or not sl.dim:
        # delta = 0 or an empty slice: every vector is a cycle and none is a
        # boundary, so no elimination runs and no degree-(k-1) or (k+1)
        # slice is built
        cycles = SubspaceBasis(sl.dim, [{i: 1} for i in range(sl.dim)],
                               list(range(sl.dim)))
        boundaries = SubspaceBasis(sl.dim, [], [])
    else:
        delta_k = differential_matrix(model, n, k, mode, **_flag(block))
        cycles = ratlinalg.kernel_basis(delta_k)
        boundaries = ratlinalg.image_basis(
            differential_matrix(model, n, k + 1, mode, **_flag(block)))
    quotient = ratlinalg.quotient_basis(cycles, boundaries)
    return HomologySlice(model, n, k, mode, quotient.dim,
                         list(quotient.representatives), quotient, delta_k)
