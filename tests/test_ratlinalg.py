import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from helpers import compose, rank
from derlie import ratlinalg
from derlie.ratlinalg import (
    ContainmentViolation,
    SparseMatrix,
    SpanSolver,
    SubspaceBasis,
    add_scaled,
    coordinates_in_span,
    image_basis,
    inverse,
    kernel_basis,
    quotient_basis,
)

F = Fraction


def mat(rows, cols, data):
    return SparseMatrix(rows, cols, {k: F(v) for k, v in data.items()})


def identity(n):
    return mat(n, n, {(i, i): 1 for i in range(n)})


def test_rank_identity():
    assert rank(identity(2)) == 2


def test_rank_zero_matrix():
    assert rank(SparseMatrix(3, 5)) == 0


def test_rank_dependent_rows():
    m = mat(2, 2, {(0, 0): 1, (0, 1): 2, (1, 0): 2, (1, 1): 4})
    assert rank(m) == 1


def test_kernel_of_identity_is_empty():
    b = kernel_basis(identity(3))
    assert b.dim == 0 and b.ambient_dim == 3


def test_kernel_of_zero_matrix_is_everything():
    b = kernel_basis(SparseMatrix(2, 3))
    assert b.dim == 3
    assert b.vectors == [{0: F(1)}, {1: F(1)}, {2: F(1)}]


def test_kernel_of_sum_constraint():
    b = kernel_basis(mat(1, 2, {(0, 0): 1, (0, 1): 1}))
    assert b.dim == 1
    assert b.vectors == [{0: F(1), 1: F(-1)}]


def test_image_of_identity_is_everything():
    b = image_basis(identity(3))
    assert b.dim == 3


def test_image_of_zero_matrix_is_empty():
    assert image_basis(SparseMatrix(3, 5)).dim == 0


def test_image_of_dependent_columns():
    m = mat(2, 2, {(0, 0): 1, (0, 1): 2, (1, 0): 2, (1, 1): 4})
    b = image_basis(m)
    assert b.dim == 1
    assert b.vectors == [{0: F(1), 1: F(2)}]


def test_coordinates_standard_basis():
    b = SubspaceBasis.from_vectors([{0: F(1)}, {1: F(1)}], 2)
    assert coordinates_in_span(b, {0: F(1)}) == {0: F(1)}
    assert coordinates_in_span(b, {1: F(3)}) == {1: F(3)}


def test_coordinates_empty_basis():
    b = SubspaceBasis.from_vectors([], 2)
    assert coordinates_in_span(b, {0: F(1)}) is None
    assert coordinates_in_span(b, {}) == {}


def test_coordinates_scalar_multiple():
    b = SubspaceBasis.from_vectors([{0: F(1), 1: F(1)}], 2)
    assert coordinates_in_span(b, {0: F(2), 1: F(2)}) == {0: F(2)}
    assert coordinates_in_span(b, {0: F(2), 1: F(3)}) is None


def test_coordinates_reject_an_extra_off_pivot_entry():
    b = SubspaceBasis.from_vectors([{0: F(1), 2: F(1)}, {1: F(1), 2: F(2)}],
                                   4)
    member = {0: F(3), 1: F(-1), 2: F(1)}
    assert coordinates_in_span(b, member) == {0: F(3), 1: F(-1)}
    assert coordinates_in_span(b, {**member, 3: F(5)}) is None
    assert coordinates_in_span(b, {**member, 2: F(2)}) is None


def _pivot_scan_coordinates(b, v):
    """Reference: subtract basis vectors in pivot order."""
    coords, residual = {}, dict(v)
    for i, (p, row) in enumerate(zip(b.pivots, b.vectors)):
        coeff = residual.get(p)
        if coeff:
            coords[i] = coeff
            add_scaled(residual, -coeff, row)
    return None if residual else coords


@given(st.lists(st.lists(st.integers(-3, 3), min_size=5, max_size=5),
                min_size=1, max_size=5),
       st.lists(st.integers(-2, 2), min_size=5, max_size=5))
@settings(max_examples=80, deadline=None)
def test_coordinates_match_the_pivot_scan(rows, probe):
    m = mat(len(rows), 5, {(r, c): x for r, row in enumerate(rows)
                           for c, x in enumerate(row) if x})
    b = image_basis(m)
    vectors = m.columns()
    assert vectors == [m.column(c) for c in range(m.cols)]
    vectors.append({r: F(x) for r, x in enumerate(probe[:m.rows]) if x})
    for v in vectors:
        assert coordinates_in_span(b, v) == _pivot_scan_coordinates(b, v)


def _pivot_scan_reduced_echelon(rows):
    """Reference: back-substitution that scans every later pivot."""
    echelon = ratlinalg._echelon(rows)
    pivots = sorted(echelon)
    for i in range(len(pivots) - 1, -1, -1):
        p = pivots[i]
        row = echelon[p]
        for q in pivots[i + 1:]:
            if q in row:
                row = ratlinalg._eliminate(row, echelon[q], q)
        echelon[p] = row
    out = []
    for p in pivots:
        row = echelon[p]
        out.append({c: F(v) / F(row[p]) for c, v in row.items()})
    return out, pivots


@given(st.lists(st.lists(st.integers(-4, 4), min_size=7, max_size=7),
                min_size=1, max_size=8))
@settings(max_examples=120, deadline=None)
def test_reduced_echelon_matches_the_pivot_scan(rows):
    sparse = [{c: F(x) for c, x in enumerate(row) if x} for row in rows]
    assert ratlinalg._reduced_echelon(sparse) == \
        _pivot_scan_reduced_echelon(sparse)


def test_coordinates_dimension_mismatch():
    b = SubspaceBasis.from_vectors([{0: F(1)}], 1)
    with pytest.raises(ValueError):
        coordinates_in_span(b, {5: F(1)})


def test_quotient_trivial_when_equal():
    cycles = SubspaceBasis.from_vectors([{0: F(1)}, {1: F(1)}], 2)
    q = quotient_basis(cycles, cycles)
    assert q.dim == 0
    assert q.reduce({0: F(1), 1: F(7)}) == {}


def test_quotient_by_zero_is_identity():
    cycles = SubspaceBasis.from_vectors([{0: F(1), 2: F(1)}], 3)
    q = quotient_basis(cycles, SubspaceBasis.from_vectors([], 3))
    assert q.dim == 1
    assert q.representatives == cycles.vectors
    assert q.reduce({0: F(3), 2: F(3)}) == {0: F(3)}
    assert q.reduce({0: F(1)}) is None  # not a cycle


def test_quotient_of_plane_by_diagonal():
    cycles = SubspaceBasis.from_vectors([{0: F(1)}, {1: F(1)}], 2)
    boundaries = SubspaceBasis.from_vectors([{0: F(1), 1: F(1)}], 2)
    q = quotient_basis(cycles, boundaries)
    assert q.dim == 1
    assert q.reduce({0: F(1)}) != {}
    assert q.reduce({0: F(1), 1: F(1)}) == {}


def test_quotient_rejects_noncontained_boundaries():
    cycles = SubspaceBasis.from_vectors([{0: F(1)}], 2)
    boundaries = SubspaceBasis.from_vectors([{1: F(1)}], 2)
    with pytest.raises(ContainmentViolation):
        quotient_basis(cycles, boundaries)


def _random_matrix(rng, rows, cols, density=0.4):
    data = {}
    for r in range(rows):
        for c in range(cols):
            if rng.random() < density:
                data[(r, c)] = F(rng.randint(-4, 4), rng.randint(1, 3))
    return SparseMatrix(rows, cols, data)


def test_rank_nullity_on_random_matrices():
    rng = random.Random(20260809)
    for _ in range(40):
        rows = rng.randint(1, 7)
        cols = rng.randint(1, 7)
        m = _random_matrix(rng, rows, cols)
        assert rank(m) + kernel_basis(m).dim == cols


def test_kernel_vectors_annihilate():
    rng = random.Random(11)
    for _ in range(20):
        m = _random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        for v in kernel_basis(m).vectors:
            assert m.apply(v) == {}


def test_coordinates_reconstruct_exactly():
    rng = random.Random(7)
    for _ in range(20):
        m = _random_matrix(rng, 5, 6)
        b = image_basis(m)
        for c in range(m.cols):
            col = m.column(c)
            coords = coordinates_in_span(b, col)
            assert coords is not None
            recon = {}
            for j, x in coords.items():
                for i, y in b.vectors[j].items():
                    recon[i] = recon.get(i, F(0)) + x * y
            assert {i: v for i, v in recon.items() if v != 0} == col


def test_reduce_is_zero_on_boundaries_and_surjective():
    rng = random.Random(3)
    cycles = SubspaceBasis.from_vectors(
        [{0: F(1)}, {1: F(1)}, {2: F(1)}, {3: F(1)}], 4)
    boundaries = SubspaceBasis.from_vectors(
        [{0: F(1), 1: F(2)}, {2: F(1), 3: F(-1)}], 4)
    q = quotient_basis(cycles, boundaries)
    assert q.dim == 2
    for b in boundaries.vectors:
        assert q.reduce(b) == {}
    for rep in q.representatives:
        assert q.reduce(rep) != {}


def test_reduce_keys_are_class_indices_without_zeros():
    rng = random.Random(17)
    for _ in range(20):
        m = _random_matrix(rng, 4, 7)
        cycles = kernel_basis(m)
        boundaries = SubspaceBasis.from_vectors(
            [add_scaled(dict(u), F(rng.randint(-2, 2)), w)
             for u, w in zip(cycles.vectors, cycles.vectors[1:2])], m.cols)
        q = quotient_basis(cycles, boundaries)
        for _ in range(5):
            v: dict = {}
            for u in cycles.vectors:
                add_scaled(v, F(rng.randint(-2, 2)), u)
            cls = q.reduce(v)
            assert set(cls) <= set(range(q.dim))
            assert 0 not in cls.values()


def test_returned_coordinates_store_no_zeros():
    rng = random.Random(5)
    for _ in range(20):
        m = _random_matrix(rng, 5, 6)
        images = image_basis(m)
        for c in range(m.cols):
            assert 0 not in coordinates_in_span(images, m.column(c)).values()
        cycles = kernel_basis(m)
        q = quotient_basis(cycles, SubspaceBasis.from_vectors(
            cycles.vectors[:1], m.cols))
        for v in cycles.vectors:
            # coefficient -1 on the last vector cancels it against itself
            combo = add_scaled(dict(v), F(rng.randint(-2, 2)),
                               cycles.vectors[-1])
            assert 0 not in coordinates_in_span(cycles, combo).values()
            assert 0 not in q.reduce(combo).values()
        assert 0 not in m.apply({c: F(1) for c in range(m.cols)}).values()


def test_determinism_bit_identical():
    data = {(0, 0): F(2), (0, 2): F(4), (1, 1): F(1, 3), (2, 0): F(1)}
    m1 = SparseMatrix(3, 3, data)
    m2 = SparseMatrix(3, 3, dict(reversed(list(data.items()))))
    assert kernel_basis(m1).vectors == kernel_basis(m2).vectors
    assert image_basis(m1).vectors == image_basis(m2).vectors


# small integer entries make singular squares common
@given(st.lists(st.lists(st.fractions(max_denominator=6), min_size=4,
                          max_size=4), min_size=1, max_size=5),
       st.lists(st.lists(st.integers(-2, 2), min_size=3, max_size=3),
                min_size=3, max_size=3))
@settings(max_examples=60, deadline=None)
def test_rank_nullity_hypothesis(rows, square):
    entries = {}
    for r, row in enumerate(rows):
        for c, v in enumerate(row):
            if v != 0:
                entries[(r, c)] = v
    m = SparseMatrix(len(rows), 4, entries)
    assert rank(m) + kernel_basis(m).dim == 4
    s = mat(3, 3, {(r, c): v for r, row in enumerate(square)
                   for c, v in enumerate(row) if v != 0})
    assert rank(s) + kernel_basis(s).dim == 3
    inv = inverse(s)
    if rank(s) == 3:
        assert compose(s, inv) == identity(3)
        assert compose(inv, s) == identity(3)
    else:
        assert inv is None


def test_span_solver_tracks_original_coordinates():
    s = SpanSolver()
    assert s.add({0: F(1), 1: F(1)})
    assert s.add({1: F(1), 2: F(1)})
    assert not s.add({0: F(1), 2: F(-1)})  # dependent
    coords = s.express({0: F(2), 1: F(3), 2: F(1)})
    assert coords == {0: F(2), 1: F(1)}
    assert s.express({2: F(1)}) is None


def test_span_solver_on_word_keys():
    s = SpanSolver()
    assert s.add({(0, 1): F(1), (1, 0): F(1)})
    assert s.add({(0, 0): F(2)})
    got = s.express({(0, 0): F(1), (0, 1): F(5), (1, 0): F(5)})
    assert got == {0: F(5), 1: F(1, 2)}


@st.composite
def triangular_rows(draw):
    """Integer rows with distinct least keys, inserted in random order."""
    width = draw(st.integers(1, 7))
    leads = draw(st.lists(st.integers(0, width - 1), min_size=1,
                          max_size=width, unique=True))
    rows = []
    for p in leads:
        row = {p: draw(st.sampled_from([1, 2, -3]))}
        for c in range(p + 1, width):
            x = draw(st.integers(-3, 3))
            if x:
                row[c] = x
        rows.append(row)
    return width, rows


@given(triangular_rows(), st.data())
@settings(max_examples=100, deadline=None)
def test_span_solver_back_substitutes_triangular_rows(basis, data):
    width, rows = basis
    s = SpanSolver()
    assert all(s.add(row) for row in rows)
    coeffs = data.draw(st.lists(
        st.fractions(min_value=-3, max_value=3, max_denominator=3),
        min_size=len(rows), max_size=len(rows)))
    combo: dict = {}
    for c, row in zip(coeffs, rows):
        add_scaled(combo, c, row)
    assert s.express(combo) == {i: c for i, c in enumerate(coeffs) if c}
    v = data.draw(st.lists(st.integers(-2, 2), min_size=width,
                           max_size=width))
    v = {c: x for c, x in enumerate(v) if x}
    inside = rank(SparseMatrix.from_rows(rows + [v], width)) == len(rows)
    coords = s.express(v)
    assert (coords is not None) == inside
    if inside:
        back: dict = {}
        for i, c in coords.items():
            add_scaled(back, c, rows[i])
        assert back == v
    # an independent vector whose least key is taken, and zero, are refused
    taken = min(data.draw(st.sampled_from(rows)))
    assert not s.add({taken: 1, width: 1})
    assert not s.add({})


def test_matrix_compose_and_apply():
    a = mat(2, 3, {(0, 0): 1, (1, 2): 2})
    b = mat(3, 2, {(0, 1): 1, (2, 0): 3})
    ab = compose(a, b)
    assert ab.entry(0, 1) == 1
    assert ab.entry(1, 0) == 6
    assert a.apply({0: F(1), 2: F(1)}) == {0: F(1), 1: F(2)}


# ---- integer-first values -----------------------------------------------------

def _pivot_loop_kernel_basis(m):
    """Reference: test every pivot row for every free column, O(cols x
    rank), then take the canonical basis of those vectors."""
    rows, pivots = ratlinalg._reduced_echelon(m._rows)
    pivot_set = set(pivots)
    vectors = []
    for f in range(m.cols):
        if f in pivot_set:
            continue
        v = {f: F(1)}
        for p, row in zip(pivots, rows):
            if f in row:
                v[p] = -row[f]
        vectors.append(v)
    return SubspaceBasis.from_vectors(vectors, m.cols)


rationals = st.one_of(st.integers(-3, 3),
                      st.fractions(min_value=-3, max_value=3,
                                   max_denominator=4))


@given(st.integers(1, 7), st.data())
@settings(max_examples=150, deadline=None)
def test_kernel_basis_matches_the_pivot_loop(cols, data):
    rows = data.draw(st.lists(st.lists(rationals, min_size=cols,
                                       max_size=cols), max_size=6))
    m = SparseMatrix(len(rows), cols, {(r, c): x
                                       for r, row in enumerate(rows)
                                       for c, x in enumerate(row)})
    kernel = kernel_basis(m)
    assert kernel == _pivot_loop_kernel_basis(m)
    assert kernel.pivots == _pivot_loop_kernel_basis(m).pivots
    assert all(not m.apply(v) for v in kernel.vectors)


@given(st.dictionaries(st.integers(0, 9), st.integers(-60, 60)))
@settings(max_examples=100, deadline=None)
def test_int_rows_skip_the_fraction_round_trip(row):
    got = ratlinalg._to_int_row(row)
    assert got == ratlinalg._to_int_row({c: F(v) for c, v in row.items()})
    assert all(type(v) is int for v in got.values())
    assert 0 not in got.values()


def test_rref_keeps_unit_pivot_rows_integral():
    rows, pivots = ratlinalg._reduced_echelon([{0: 1, 1: 2}, {1: 3, 2: 1}])
    assert pivots == [0, 1]
    assert rows == [{0: 1, 2: F(-2, 3)}, {1: 1, 2: F(1, 3)}]
    rows, _ = ratlinalg._reduced_echelon([{0: 2, 1: 4}, {1: F(1, 2)}])
    assert rows == [{0: 1}, {1: 1}]
    assert all(type(v) is int for row in rows for v in row.values())


@given(triangular_rows(), st.data())
@settings(max_examples=100, deadline=None)
def test_express_over_unit_pivots_returns_ints(basis, data):
    width, rows = basis
    rows = [{**row, min(row): 1} for row in rows]
    s = SpanSolver()
    assert all(s.add(row) for row in rows)
    coeffs = data.draw(st.lists(st.integers(-4, 4), min_size=len(rows),
                                max_size=len(rows)))
    combo: dict = {}
    for c, row in zip(coeffs, rows):
        add_scaled(combo, c, row)
    coords = s.express(combo)
    assert coords == {i: c for i, c in enumerate(coeffs) if c}
    assert all(type(c) is int for c in coords.values())


def test_express_divides_by_a_leading_two_only_when_inexact():
    s = SpanSolver()
    assert s.add({(0, 0): 2})
    exact = s.express({(0, 0): 6})
    assert exact == {0: 3} and type(exact[0]) is int
    assert s.express({(0, 0): 3}) == {0: F(3, 2)}
