"""Engine-level helpers that only the tests use: composition of injections
and matrices, rank, brackets of Lie elements, generator elements and their
differentials, and the matrix of an injection on derivation slices.

Unlike the independent oracles (``bruteforce``, ``lie_character``), these
are built from derlie's own layers."""

from derlie.dermodel import Mode, derivation_basis
from derlie.fistab import Injection, _pushforward
from derlie.gradedlie import (GeneratorSet, LieBasisElement, LieElement,
                              tensor_commutator)
from derlie.ratlinalg import SparseMatrix, _echelon


def compose_injections(outer: Injection, inner: Injection) -> Injection:
    """outer after inner."""
    if inner.target != outer.source:
        raise ValueError("injections are not composable")
    return Injection(inner.source, outer.target,
                     tuple(outer.image[j] for j in inner.image))


def compose(a: SparseMatrix, b: SparseMatrix) -> SparseMatrix:
    """a @ b."""
    if a.cols != b.rows:
        raise ValueError("dimension mismatch in composition")
    return SparseMatrix.from_columns([a.apply(col) for col in b.columns()],
                                     a.rows)


def rank(m: SparseMatrix) -> int:
    """Rank over Q by fraction-free elimination."""
    return len(_echelon(m._rows))


def bracket(genset: GeneratorSet, u: LieElement, v: LieElement) -> LieElement:
    """Graded commutator computed in tensor coordinates."""
    if u.is_zero() or v.is_zero():
        return LieElement(u.degree + v.degree)
    vec = tensor_commutator(genset.to_tensor(u), genset.to_tensor(v),
                            u.degree, v.degree)
    return genset.from_tensor(u.degree + v.degree, vec)


def generator_element(genset: GeneratorSet, gid: int) -> LieElement:
    return LieElement(genset.degrees[gid],
                      {LieBasisElement(False, (gid,)): 1})


def differential_of(genset: GeneratorSet, gid: int) -> LieElement:
    return LieElement(genset.degrees[gid] - 1,
                      genset.differential(LieBasisElement(False, (gid,))))


def induced_slice_map(inj: Injection, model, k: int,
                      mode: Mode = Mode.POINTED) -> SparseMatrix:
    """Matrix of the extension-by-zero map in local slice coordinates."""
    src = derivation_basis(model, inj.source, k, mode)
    tgt = derivation_basis(model, inj.target, k, mode)
    push = _pushforward(inj, src, tgt)
    return SparseMatrix.from_columns([push({i: 1}) for i in range(src.dim)],
                                     tgt.dim)
