"""Symmetric-group representation theory: partitions, irreducible characters
by border-strip recursion, decomposition of class functions, and the
report's stability entries, built from the padded rows of the cells.
Nothing here imports the derivation engine."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

from .ratlinalg import CheckFailure

Partition = tuple[int, ...]


class NotARepresentation(CheckFailure):
    """A decomposition produced a negative or non-integral multiplicity."""


def partitions(n: int) -> list[Partition]:
    """All partitions of n in reverse-lexicographic order, (n) first."""
    if n < 0:
        raise ValueError("n must be nonnegative")

    def gen(total: int, maxpart: int):
        if total == 0:
            yield ()
            return
        for p in range(min(total, maxpart), 0, -1):
            for rest in gen(total - p, p):
                yield (p,) + rest

    return list(gen(n, n))


def partition_count(n: int) -> int:
    """len(partitions(n)), without listing them."""
    counts = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            counts[total] += counts[total - part]
    return counts[n]


def conjugate(lam: Partition) -> Partition:
    if not lam:
        return ()
    out = [0] * lam[0]
    for part in lam:
        for i in range(part):
            out[i] += 1
    return tuple(out)


def _beta_set(lam: Partition) -> tuple[int, ...]:
    l = len(lam)
    return tuple(lam[i] + (l - 1 - i) for i in range(l))


def _shape_from_beta(beta: tuple[int, ...]) -> Partition:
    b = sorted(beta, reverse=True)
    l = len(b)
    return tuple(x for x in (b[i] - (l - 1 - i) for i in range(l)) if x > 0)


@lru_cache(maxsize=None)
def irr_character(lam: Partition, mu: Partition) -> int:
    """Character of the irreducible indexed by lam at cycle type mu, by
    recursive border-strip removal in the beta-set picture."""
    if sum(lam) != sum(mu):
        raise ValueError("lam and mu must have equal weight")
    if not mu:
        return 1
    t = mu[0]
    rest = mu[1:]
    beta = set(_beta_set(lam))
    total = 0
    for b in sorted(beta, reverse=True):
        nb = b - t
        if nb < 0 or nb in beta:
            continue
        height = sum(1 for x in beta if nb < x < b)
        new_beta = tuple(sorted((beta - {b}) | {nb}, reverse=True))
        total += (-1) ** height * irr_character(_shape_from_beta(new_beta),
                                                rest)
    return total


def irr_dim(lam: Partition) -> int:
    """Dimension by hook lengths, cross-checked against the character at the
    identity class."""
    n = sum(lam)
    conj = conjugate(lam)
    dim = factorial(n)
    for i, row in enumerate(lam):
        for j in range(row):
            dim //= row - j + conj[j] - i - 1
    assert dim == irr_character(lam, (1,) * n)
    return dim


def z_order(mu: Partition) -> int:
    """Order of the centralizer of a permutation of cycle type mu."""
    z = 1
    run_val, run_len = None, 0
    for part in list(mu) + [0]:
        if part == run_val:
            run_len += 1
        else:
            if run_val is not None and run_val > 0:
                z *= run_val ** run_len * factorial(run_len)
            run_val, run_len = part, 1
    return z


def class_size(mu: Partition) -> int:
    return factorial(sum(mu)) // z_order(mu)


def decompose(chi: dict[Partition, Fraction]) -> dict[Partition, int]:
    """Multiplicities of the irreducibles in the class function chi, a value
    at every cycle type of n, by inner products with their characters.  A
    negative or fractional multiplicity, or a dimension other than chi's
    value at the identity, certifies a corrupted upstream computation."""
    n = sum(next(iter(chi)))
    # <chi, chi_lam> = sum over mu of |class mu| chi(mu) chi_lam(mu) / n!
    weighted = [(mu, class_size(mu) * chi[mu]) for mu in partitions(n)]
    order = factorial(n)
    mult: dict[Partition, int] = {}
    for lam, _ in weighted:
        inner = sum(w * irr_character(lam, mu) for mu, w in weighted)
        total, rest = divmod(inner, order)
        if rest or total < 0:
            raise NotARepresentation(
                f"multiplicity of {lam} is {Fraction(inner, order)}; the "
                "class function is not the character of a representation")
        if total:
            mult[lam] = total
    dim = sum(m * irr_dim(lam) for lam, m in mult.items())
    if dim != chi[(1,) * n]:
        raise NotARepresentation(
            f"decomposition dimension {dim} differs from {chi[(1,) * n]}")
    return mult


def stabilization_onset(n_values, rows) -> int | None:
    """Least n0 whose terminal window (at least two rows) has constant padded
    multiplicities, a zero multiplicity counting as absent; None when the
    last two rows already differ."""
    ns = list(n_values)
    nonzero = [{x: m for x, m in rows[n].items() if m} for n in ns]
    i = len(ns) - 1
    while i > 0 and nonzero[i - 1] == nonzero[-1]:
        i -= 1
    return ns[i] if i < len(ns) - 1 else None


def stability_report(k: int, n_values, rows) -> dict:
    """A report's stability entry for degree k: the onset of the padded rows
    (one dict per arity in n_values, keyed by padded partition in one
    canonical form) and the report's wording of it.  The verdict is evidence
    about the computed window, never a proof."""
    ns = sorted(n_values)
    if not ns:
        raise ValueError("empty arity range")
    onset = stabilization_onset(ns, rows)
    verdict = "not stabilized in range" if onset is None else (
        f"stabilized within range at n0={onset} (window {onset}..{ns[-1]})")
    return {"k": k, "stabilized_at": onset, "verdict": verdict}
