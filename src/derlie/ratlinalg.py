"""Exact sparse linear algebra over the rationals.

Everything here is deterministic: reduced row echelon form is unique for a
given row space, so all bases, coordinates and quotients are canonical and
bit-identical across runs.  Elimination works fraction-free on
arbitrary-precision integer rows (cross-multiplication with content
stripping).  A rational stays a Python int until a division is inexact
(an RREF row whose pivot entry is not 1, an uneven back-substitution step).

One sparse convention holds for every vector that crosses a function
boundary here and in the layers above: a ``Vector`` (or a tensor vector, or
a Lie element in Lyndon coordinates) is a dict from coordinate keys to
nonzero rationals (int or Fraction); a missing key means zero and no zero
is ever stored.  ``add_scaled`` is the one accumulation step that keeps it.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Mapping, Sequence
from fractions import Fraction
from math import gcd

Vector = dict[int, int | Fraction]  # sparse; int until a division is inexact


def add_scaled(acc: dict, c, vec: Mapping) -> dict:
    """acc += c * vec in place, removing keys that cancel to zero."""
    for k, x in vec.items():
        nv = acc.get(k, 0) + c * x
        if nv:
            acc[k] = nv
        else:
            acc.pop(k, None)
    return acc


class CheckFailure(Exception):
    """A computed object contradicts an identity the theory guarantees; the
    base of every error that a job reports as a check failure."""


class ContainmentViolation(CheckFailure):
    """Boundaries are not contained in cycles (a d^2 != 0 signal upstream)."""


def _strip_content(row: dict) -> dict:
    """Divide an integer row by the gcd of its entries, leading entry > 0."""
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            break
    lead = row[min(row)]
    if lead < 0:
        g = -g
    if g not in (0, 1):
        return {c: v // g for c, v in row.items()}
    return row


def _to_int_row(row: Mapping[Hashable, Fraction]) -> dict:
    """Clear denominators and strip content; returns integer row."""
    out = {c: v for c, v in row.items() if v}
    if any(type(v) is not int for v in out.values()):
        den = 1
        for v in out.values():
            den = den * v.denominator // gcd(den, v.denominator)
        out = {c: int(v * den) for c, v in out.items()}
    return _strip_content(out) if out else out


def _eliminate(row: dict, pivot_row: dict, pivot: Hashable) -> dict:
    """Fraction-free step: pivot_row[pivot]*row - row[pivot]*pivot_row."""
    a = pivot_row[pivot]
    b = row[pivot]
    out = {c: a * v for c, v in row.items()}
    for c, v in pivot_row.items():
        nv = out.get(c, 0) - b * v
        if nv:
            out[c] = nv
        else:
            out.pop(c, None)
    return _strip_content(out) if out else out


def extend_echelon(echelon: dict, row: Mapping[Hashable, Fraction]) -> bool:
    """Reduce row against {pivot key: integer row} and store the rest under
    its least key; False when row was already in the span."""
    if not row:
        return False
    r = _to_int_row(row)
    while r:
        p = min(r)
        e = echelon.get(p)
        if e is None:
            echelon[p] = r
            return True
        r = _eliminate(r, e, p)
    return False


def _echelon(rows: Iterable[Mapping[Hashable, Fraction]]) -> dict:
    """Forward elimination; returns {pivot key: integer row}."""
    echelon: dict = {}
    for row in rows:
        extend_echelon(echelon, row)
    return echelon


def _reduced_echelon(
    rows: Iterable[Mapping[Hashable, Fraction]],
) -> tuple[list[dict], list]:
    """Canonical RREF: rows with pivot entry 1, sorted by pivot key."""
    echelon = _echelon(rows)
    pivots = sorted(echelon)
    # Back-substitute in descending pivot order so each used row is final:
    # it is zero at every other pivot, so eliminating one pivot entry adds
    # no other, and only the pivots the row holds are visited.
    for p in reversed(pivots):
        row = echelon[p]
        for q in [q for q in row if q != p and q in echelon]:
            row = _eliminate(row, echelon[q], q)
        echelon[p] = row
    final = [echelon[p] for p in pivots]  # pivot entry 1: already normalized
    return [row if row[p] == 1 else {c: Fraction(v, row[p])
                                     for c, v in row.items()}
            for p, row in zip(pivots, final)], pivots


class SparseMatrix:
    """Immutable sparse matrix over Q, row-major; stores entries as given."""

    __slots__ = ("rows", "cols", "_rows", "_cols_cached")

    def __init__(self, rows: int, cols: int,
                 entries: Mapping[tuple[int, int], Fraction] | None = None):
        self.rows = rows
        self.cols = cols
        self._rows: list[dict[int, Fraction]] = [dict() for _ in range(rows)]
        if entries:
            for (r, c), v in entries.items():
                if not (0 <= r < rows and 0 <= c < cols):
                    raise IndexError(f"entry ({r},{c}) out of bounds")
                if v:
                    self._rows[r][c] = v

    @classmethod
    def from_columns(cls, columns: Sequence[Vector], rows: int) -> "SparseMatrix":
        m = cls(rows, len(columns))
        for c, col in enumerate(columns):
            for r, v in col.items():
                if v:
                    m._rows[r][c] = v
        return m

    @classmethod
    def from_rows(cls, rows: Sequence[Vector], cols: int) -> "SparseMatrix":
        m = cls(len(rows), cols)
        for r, row in enumerate(rows):
            for c, v in row.items():
                if v:
                    m._rows[r][c] = v
        return m

    def entry(self, r: int, c: int) -> Fraction | int:
        """The stored entry, or the int 0 when none is stored."""
        return self._rows[r].get(c, 0)

    def column(self, c: int) -> Vector:
        return {r: row[c] for r, row in enumerate(self._rows) if c in row}

    def columns(self) -> list[Vector]:
        """Every column, built in one pass over the rows."""
        cols: list[Vector] = [{} for _ in range(self.cols)]
        for r, row in enumerate(self._rows):
            for c, v in row.items():
                cols[c][r] = v
        return cols

    def nnz(self) -> int:
        return sum(len(r) for r in self._rows)

    def is_zero(self) -> bool:
        return all(not r for r in self._rows)

    def apply(self, v: Mapping[int, Fraction]) -> Vector:
        """Matrix-vector product for a sparse coordinate vector."""
        out: Vector = {}
        for c, x in v.items():
            if not (0 <= c < self.cols):
                raise IndexError(f"coordinate {c} out of bounds")
            add_scaled(out, x, self._column_cache()[c])
        return out

    def _column_cache(self) -> list[dict[int, Fraction]]:
        cache = getattr(self, "_cols_cached", None)
        if cache is None:
            cache = self._cols_cached = self.columns()
        return cache

    def __eq__(self, other) -> bool:
        return (isinstance(other, SparseMatrix) and self.rows == other.rows
                and self.cols == other.cols and self._rows == other._rows)

    def __repr__(self) -> str:
        return f"SparseMatrix({self.rows}x{self.cols}, nnz={self.nnz()})"


class SubspaceBasis:
    """Canonical (reduced echelon) basis of a subspace of Q^ambient_dim."""

    def __init__(self, ambient_dim: int, vectors: list[Vector], pivots: list[int]):
        self.ambient_dim = ambient_dim
        self.vectors = vectors
        self.pivots = pivots
        self.pivot_index = {p: i for i, p in enumerate(pivots)}

    @classmethod
    def from_vectors(cls, vectors: Iterable[Mapping[int, Fraction]],
                     ambient_dim: int) -> "SubspaceBasis":
        rows, pivots = _reduced_echelon(vectors)
        return cls(ambient_dim, rows, pivots)

    @property
    def dim(self) -> int:
        return len(self.vectors)

    def __eq__(self, other) -> bool:
        return (isinstance(other, SubspaceBasis)
                and self.ambient_dim == other.ambient_dim
                and self.vectors == other.vectors)

    def __repr__(self) -> str:
        return f"SubspaceBasis(dim={self.dim}, ambient={self.ambient_dim})"


def kernel_basis(m: SparseMatrix) -> SubspaceBasis:
    """Canonical echelon basis of the null space of m."""
    rows, pivots = _reduced_echelon(m._rows)
    pivot_set = set(pivots)
    kernel = {f: {f: 1} for f in range(m.cols) if f not in pivot_set}
    # an RREF row is zero at the other pivots, so each entry x off its own
    # pivot p sits in a free column f: kernel vector f has -x at p
    for p, row in zip(pivots, rows):
        for f, x in row.items():
            if f != p:
                kernel[f][p] = -x
    return SubspaceBasis.from_vectors(kernel.values(), m.cols)


def image_basis(m: SparseMatrix) -> SubspaceBasis:
    """Canonical basis of the column space of m."""
    return SubspaceBasis.from_vectors(m.columns(), m.rows)


def inverse(m: SparseMatrix) -> SparseMatrix | None:
    """Inverse of a square matrix, read off the reduced echelon form of
    [m | I]; None when m is singular."""
    n = m.rows
    if m.cols != n:
        raise ValueError("only a square matrix has an inverse")
    rows, pivots = _reduced_echelon(
        {**row, n + i: 1} for i, row in enumerate(m._rows))
    if pivots != list(range(n)):
        return None
    return SparseMatrix.from_rows(
        [{c - n: v for c, v in row.items() if c >= n} for row in rows], n)


def coordinates_in_span(
    b: SubspaceBasis, v: Mapping[int, Fraction]
) -> Vector | None:
    """Exact coordinates of v in the basis b, or None if v is not in span(b).

    Coordinates are v's entries at the pivot columns (valid because each
    vector of the reduced echelon basis b is zero at the other pivots); the
    residual is then verified exactly.
    """
    for c in v:
        if not (0 <= c < b.ambient_dim):
            raise ValueError(f"coordinate {c} outside ambient dimension")
    index = b.pivot_index
    coords: Vector = {index[p]: x for p, x in v.items() if p in index}
    residual = dict(v)
    for i, x in coords.items():
        add_scaled(residual, -x, b.vectors[i])
    if residual:
        return None
    return coords


class Quotient:
    """A quotient cycles/boundaries with canonical representatives."""

    def __init__(self, cycles: SubspaceBasis, boundary: dict[int, Vector],
                 free_positions: list[int]):
        self._cycles = cycles
        self._boundary = boundary  # RREF rows in cycle coordinates, by pivot
        self._free_index = {f: j for j, f in enumerate(free_positions)}
        self.representatives = [cycles.vectors[f] for f in free_positions]

    @property
    def dim(self) -> int:
        return len(self._free_index)

    def reduce(self, v: Mapping[int, Fraction]) -> Vector | None:
        """Class coordinates of a cycle v, or None if v is not a cycle."""
        c = coordinates_in_span(self._cycles, v)
        if c is None:
            return None
        # RREF rows are zero at each other's pivots: c's pivot entries stay
        for p in [p for p in c if p in self._boundary]:
            add_scaled(c, -c[p], self._boundary[p])
        return {self._free_index[f]: x for f, x in c.items()}


def quotient_basis(cycles: SubspaceBasis, boundaries: SubspaceBasis) -> Quotient:
    """Quotient of cycles by boundaries; boundaries must lie inside cycles."""
    if cycles.ambient_dim != boundaries.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    in_coords = []
    for b in boundaries.vectors:
        coords = coordinates_in_span(cycles, b)
        if coords is None:
            raise ContainmentViolation(
                "boundary vector not contained in cycle space")
        in_coords.append(coords)
    rows, pivots = _reduced_echelon(in_coords)
    boundary = dict(zip(pivots, rows))
    free = [i for i in range(cycles.dim) if i not in boundary]
    return Quotient(cycles, boundary, free)


class SpanSolver:
    """Vectors with distinct least keys, stored as given, so expressing a
    vector over them is back-substitution, not elimination.  The Lyndon
    expansions of one degree are such vectors (Chen-Fox-Lyndon): each one's
    least word is its own word w with coefficient 1, or ww with 2 for [w,w].
    """

    def __init__(self):
        self._rows: dict = {}  # least key -> (insertion index, vector)

    def add(self, vec: Mapping) -> bool:
        """Store vec under its least key; False when vec is zero or another
        stored vector already has that least key."""
        if not vec:
            return False
        p = min(vec)
        if p in self._rows:
            return False
        self._rows[p] = (len(self._rows), vec)
        return True

    def express(self, vec: Mapping) -> dict | None:
        """Coordinates of vec over the added vectors, or None; each step
        raises the least key, so each row is used at most once."""
        v = dict(vec)
        coords: dict = {}
        while v:
            p = min(v)
            if p not in self._rows:
                return None
            i, row = self._rows[p]
            c, lead = v[p], row[p]
            if lead != 1:
                c = c // lead if c % lead == 0 else Fraction(c, lead)
            add_scaled(v, -c, row)
            coords[i] = c
        return coords
