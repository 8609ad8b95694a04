import itertools
import random
from fractions import Fraction

import pytest

import bruteforce
from helpers import (Derivation, apply_derivation, basis_derivation, bracket,
                     compose, derivation_bracket, differential_of,
                     generator_element, listed_cell_dim, plus,
                     pointed_to_derivation, rank)
from derlie import dermodel
from derlie.cli import _compute_cell, bundled_model_names, load_model
from derlie.dermodel import (
    Mode,
    der_dim,
    derivation_basis,
    differential_matrix,
    generation_flags,
    homology,
    push_local,
    support_bound,
)
from derlie.gradedlie import (
    ModelSpec,
    apply_differential,
    free_product_generators,
    lie_dim,
    lyndon_basis,
    omega,
)
from derlie.ratlinalg import SparseMatrix, extend_echelon, kernel_basis

F = Fraction


def random_element(rng, basis):
    """A random combination of basis elements, zeros dropped."""
    coeffs = {b: F(rng.randint(-2, 2)) for b in basis}
    return {b: c for b, c in coeffs.items() if c}


def single_value_derivation(genset, k, gid, element):
    return Derivation(genset, k, {gid: element})


def to_pointed(sl, theta):
    """A derivation's values as a vector in the slice's pointed coordinates."""
    return {sl.coord_index[(gid, elem)]: c
            for gid, val in theta.values.items()
            for elem, c in val.items()}


# ---- derivation_basis ----------------------------------------------------------

def test_sphere_pointed_slice_n1(sphere2):
    sl = derivation_basis(sphere2, 1, 1, Mode.POINTED)
    assert sl.dim == 1
    theta = basis_derivation(sl, 0)
    g = sl.genset
    assert theta.value(0) == bracket(g, generator_element(g, 0),
                                     generator_element(g, 0))


def test_sphere_pointed_slice_n2(sphere2):
    sl = derivation_basis(sphere2, 2, 1, Mode.POINTED)
    assert sl.dim == 6
    assert sl.dim == 2 * len(lyndon_basis(sl.genset, 2))
    brute = bruteforce.BruteComplex(bruteforce.sphere2_model(), 2, 3)
    assert brute.slice_dim(1) == 6


def test_boundary_slice_s2xs2(s2xs2):
    sl = derivation_basis(s2xs2, 1, 1, Mode.BOUNDARY)
    assert sl.pointed_dim == 6
    assert sl.dim == 4
    brute = bruteforce.BruteComplex(bruteforce.s2xs2_model(), 1, 4)
    assert brute.boundary_slice_dim(1) == 4
    # every basis derivation annihilates omega exactly
    w = omega(s2xs2, 1)
    for i in range(sl.dim):
        theta = basis_derivation(sl, i)
        assert apply_derivation(theta, w) == {}


def test_pointed_dimension_law(sphere2, s2xs2, product_model):
    for model, n, k in [(sphere2, 3, 1), (sphere2, 2, 2), (s2xs2, 2, 1),
                        (product_model, 1, 2), (product_model, 2, 1)]:
        sl = derivation_basis(model, n, k, Mode.POINTED)
        genset = sl.genset
        expected = sum(len(lyndon_basis(genset, genset.degrees[g] + k))
                       for g in range(genset.count))
        assert sl.dim == expected


def test_mode_monotonicity(s2xs2, cp2):
    from derlie.gradedlie import apply_values_tensor, omega
    for model in (s2xs2, cp2):
        for n in (1, 2):
            genset = free_product_generators(model, n)
            w_tensor = genset.to_tensor(omega(model, n))
            for k in (0, 1, 2):
                sl_p = derivation_basis(model, n, k, Mode.POINTED)
                b = derivation_basis(model, n, k, Mode.BOUNDARY).dim
                assert b <= sl_p.dim
                # equality holds exactly when theta -> theta(omega) vanishes
                constraint_is_zero = all(
                    not apply_values_tensor(genset, k,
                                            {gid: genset.expansion(elem)},
                                            w_tensor)
                    for gid, elem in sl_p.coords)
                assert (b == sl_p.dim) == constraint_is_zero


def test_boundary_requires_pairing(sphere2):
    with pytest.raises(ValueError):
        derivation_basis(sphere2, 1, 1, Mode.BOUNDARY)


def test_arity_zero_rejected(sphere2):
    with pytest.raises(ValueError):
        derivation_basis(sphere2, 0, 1, Mode.POINTED)


# ---- apply_derivation ----------------------------------------------------------

def test_zero_derivation(sphere2):
    g = free_product_generators(sphere2, 1)
    theta = Derivation(g, 1, {})
    e = generator_element(g, 0)
    assert apply_derivation(theta, e) == {}


def test_square_derivation_on_square_is_zero(sphere2):
    # theta: x -> [x,x] applied to [x,x] lands in the zero space L_3
    g = free_product_generators(sphere2, 1)
    x = generator_element(g, 0)
    sq = bracket(g, x, x)
    theta = single_value_derivation(g, 1, 0, sq)
    assert apply_derivation(theta, sq) == {}


def test_leibniz_consistency(product_model):
    g = free_product_generators(product_model, 2)
    rng = random.Random(41)
    for _ in range(10):
        k = rng.choice([1, 2])
        values = {}
        for gid in range(g.count):
            basis = lyndon_basis(g, g.degrees[gid] + k)
            values[gid] = random_element(rng, basis)
        theta = Derivation(g, k, values)
        du, dv = rng.choice([(2, 2), (2, 5)])
        u = random_element(rng, lyndon_basis(g, du))
        v = random_element(rng, lyndon_basis(g, dv))
        lhs = apply_derivation(theta, bracket(g, u, v))
        sign = F(-1) if (k * du) % 2 else F(1)
        rhs = plus(bracket(g, apply_derivation(theta, u), v),
                   bracket(g, u, apply_derivation(theta, v)), sign)
        assert lhs == rhs


# ---- differential_matrix -------------------------------------------------------

def test_zero_differential_gives_zero_matrix(sphere2):
    m = differential_matrix(sphere2, 2, 1, Mode.POINTED)
    assert m.is_zero()
    assert m.rows == derivation_basis(sphere2, 2, 0, Mode.POINTED).dim
    assert m.cols == 6


def test_degree_zero_derivation_picks_up_differential(product_model):
    # theta: c -> c has [d, theta](c) = d(c) - theta(dc) = [a,b] != 0
    g = free_product_generators(product_model, 1)
    c = generator_element(g, 2)
    theta = single_value_derivation(g, 0, 2, c)
    commuted = plus(apply_differential(g, theta.value(2)),
                    apply_derivation(theta, differential_of(g, 2)), -1)
    assert commuted == bracket(g, generator_element(g, 0),
                               generator_element(g, 1))
    assert commuted != {}


def test_delta_squared_zero_product_model(product_model):
    for n in (1, 2):
        for k in (1, 2):
            assert compose(
                differential_matrix(product_model, n, k, Mode.POINTED),
                differential_matrix(product_model, n, k + 1,
                                    Mode.POINTED)).is_zero()


def test_delta_nonzero_on_product_model(product_model):
    m = differential_matrix(product_model, 1, 2, Mode.POINTED)
    assert not m.is_zero()
    brute = bruteforce.BruteComplex(bruteforce.product_model(), 1, 8)
    cols = brute.delta_matrix(2)
    assert rank(m) == bruteforce.dense_rank(cols)


def _leibniz_delta(model, n, k, mode):
    """Reference delta_k, column by column: each basis derivation theta
    becomes d o theta - (-1)^k theta o d through its Lie values."""
    src = derivation_basis(model, n, k, mode)
    tgt = derivation_basis(model, n, k - 1, mode)
    genset = src.genset
    sign = -1 if k % 2 else 1
    columns = []
    for i in range(src.dim):
        theta = basis_derivation(src, i)
        values = {}
        for gid in range(genset.count):
            value = plus(apply_differential(genset, theta.value(gid)),
                         apply_derivation(theta, differential_of(genset, gid)),
                         -sign)
            if value:
                values[gid] = value
        pointed = to_pointed(tgt, Derivation(genset, k - 1, values))
        local = tgt.pointed_to_local(pointed)
        assert local is not None, "image left the boundary slice"
        columns.append(local)
    return SparseMatrix.from_columns(columns, tgt.dim)


def _dense_words(brute):
    return max(space.dim for space in brute.ctx.spaces.values())


@pytest.mark.parametrize("name,mode", [
    ("product_model", Mode.POINTED),
    ("cp3", Mode.POINTED),
    ("cp3", Mode.BOUNDARY),
])
def test_delta_matches_leibniz_route_and_dense_oracle(request, name, mode):
    model = request.getfixturevalue(name)
    brute_model = {"product_model": bruteforce.product_model,
                   "cp3": bruteforce.cp3_model}[name]()
    oracle_checked = 0
    for n in (1, 2, 3):
        deltas = {}
        for k in (1, 2, 3):
            m = differential_matrix(model, n, k, mode)
            assert m.columns() == _leibniz_delta(model, n, k, mode).columns(), \
                (n, k)
            deltas[k] = m
            top = max(model.degree_of(s) for s in model.symbols) + k
            if mode is Mode.BOUNDARY:
                top = max(top, model.ambient_dim - 2 + k)
            brute = bruteforce.BruteComplex(brute_model, n, top)
            if _dense_words(brute) > 300:
                continue
            if mode is Mode.POINTED:
                dense = brute.delta_matrix(k)
            else:
                dense = brute.boundary_delta_images(k)
            assert rank(m) == (bruteforce.dense_rank(dense) if dense else 0), \
                (n, k)
            oracle_checked += 1
        for k in (1, 2):
            assert compose(deltas[k], deltas[k + 1]).is_zero(), (n, k)
    assert oracle_checked >= 4


def test_pointed_slice_builds_no_expansion(product_model, cold_caches):
    for n, k in [(1, 1), (2, 2), (3, 3), (4, 2)]:
        sl = derivation_basis(product_model, n, k, Mode.POINTED)
        assert sl.dim > 0
        assert not sl.genset._expansion_cache, (n, k)


def test_delta_expands_only_the_slices_it_expresses_in(product_model,
                                                       cold_caches):
    homology(product_model, 4, 2, Mode.POINTED)
    genset = free_product_generators(product_model, 4)
    # degree 8 holds the values on c of degree-3 derivations: no such
    # value holds the letter c, so its d is zero, and c is a letter of no
    # d(g), so delta never expands them
    assert genset._slices[8].dim == 1008
    assert "solver" not in vars(genset._slices[8])
    # the slices of degrees 4, 6 and 7 and the four generators c
    assert len(genset._expansion_cache) <= 232


def test_boundary_differential_zero_for_s2xs2(s2xs2):
    m = differential_matrix(s2xs2, 1, 2, Mode.BOUNDARY)
    assert m.is_zero()


# ---- homology ------------------------------------------------------------------

def test_sphere_homology_matches_rational_homotopy(sphere2):
    # pi_k(Map_*(S^2,S^2); id) x Q = pi_{k+2}(S^2) x Q: dims 1, 0, 0
    dims = [homology(sphere2, 1, k, Mode.POINTED).dim for k in (1, 2, 3)]
    assert dims == [1, 0, 0]
    brute = bruteforce.BruteComplex(bruteforce.sphere2_model(), 1, 6)
    assert [brute.pointed_homology_dim(k) for k in (1, 2, 3)] == [1, 0, 0]


def test_sphere_wedge_homology(sphere2):
    h = homology(sphere2, 2, 1, Mode.POINTED)
    assert h.dim == 6
    brute = bruteforce.BruteComplex(bruteforce.sphere2_model(), 2, 4)
    assert brute.pointed_homology_dim(1) == 6


def test_boundary_homology_dim4(s2xs2):
    h = homology(s2xs2, 1, 1, Mode.BOUNDARY)
    assert h.dim == 4
    for rep in h.representatives:
        assert h.reduce(rep) is not None


def test_product_model_homology_against_oracle(product_model):
    brute = bruteforce.BruteComplex(bruteforce.product_model(), 1, 9)
    for k in (1, 2, 3):
        expected = brute.pointed_homology_dim(k)
        got = homology(product_model, 1, k, Mode.POINTED).dim
        assert got == expected, (k, got, expected)


@pytest.mark.parametrize("n, max_degree, expected", [
    (2, 8, {1: 12, 2: 4}), (3, 7, {1: 96})])
def test_product_model_homology_against_oracle_higher_arity(
        product_model, n, max_degree, expected):
    # from n = 2 on, theta o d is computed only for the theta that are
    # nonzero on a letter of some dc, and skipped for the rest
    brute = bruteforce.BruteComplex(bruteforce.product_model(), n, max_degree)
    for k, dim in expected.items():
        assert brute.pointed_homology_dim(k) == dim
        assert homology(product_model, n, k, Mode.POINTED).dim == dim


def spy_on_slices(monkeypatch) -> list:
    """Record (function name, k) of every derivation_basis and
    differential_matrix call made inside dermodel."""
    calls = []
    for name in ("derivation_basis", "differential_matrix"):
        def spy(model, n, k, mode=Mode.POINTED, block=False, _name=name,
                _real=getattr(dermodel, name)):
            calls.append((_name, k))
            return _real(model, n, k, mode, **dermodel._flag(block))
        monkeypatch.setattr(dermodel, name, spy)
    return calls


def test_zero_differential_homology_is_slice(sphere2, s2xs2, monkeypatch):
    calls = spy_on_slices(monkeypatch)
    for model, n, k, mode in [(sphere2, 2, 1, Mode.POINTED),
                              (sphere2, 3, 2, Mode.POINTED),
                              (s2xs2, 2, 1, Mode.BOUNDARY)]:
        calls.clear()
        h = homology.__wrapped__(model, n, k, mode)  # bypass the memo
        assert h.dim == derivation_basis(model, n, k, mode).dim
        assert ("differential_matrix", k) not in calls
        assert ("derivation_basis", k - 1) not in calls
        assert ("derivation_basis", k + 1) not in calls
        assert ("differential_matrix", k + 1) not in calls


def test_nonzero_differential_homology_builds_next_degree(
        product_model, cp3, monkeypatch):
    calls = spy_on_slices(monkeypatch)
    for model, n, k, mode in [(product_model, 2, 1, Mode.POINTED),
                              (cp3, 2, 1, Mode.BOUNDARY)]:
        calls.clear()
        homology.__wrapped__(model, n, k, mode)
        assert ("differential_matrix", k + 1) in calls


def test_empty_block_builds_no_neighbour_or_differential(product_model,
                                                         monkeypatch):
    # the (4, 2) block is empty while its degree-3 neighbour is not
    assert derivation_basis(product_model, 4, 2, block=True).pointed_dim == 0
    assert derivation_basis(product_model, 4, 3, block=True).pointed_dim > 0
    calls = spy_on_slices(monkeypatch)
    h = homology.__wrapped__(product_model, 4, 2, Mode.POINTED, block=True)
    assert h.dim == 0
    assert calls == [("derivation_basis", 2)]


def reference_column(src, tgt):
    """The pointed column of delta at j, from d o theta - (-1)^k theta o d on
    the basis derivation, dead or not."""
    genset, k = src.genset, src.k
    sign = -1 if k % 2 else 1

    def pointed_column(j):
        theta = pointed_to_derivation(src, {j: 1})
        values = {h: plus(apply_differential(genset, theta.value(h)),
                          apply_derivation(theta, differential_of(genset, h)),
                          -sign)
                  for h in range(genset.count)}
        return to_pointed(tgt, Derivation(genset, k - 1, values))

    return pointed_column


def test_differential_skips_dead_columns_exactly(cp3):
    # a pointed column (g -> e) is dead when no letter of e has a d and g is
    # a letter of no dh: in cp3, g a copy of b and e a word in the a's.  The
    # omega constraint keeps dead and live coordinates apart, so a vector
    # that mixes them is a combination of basis vectors.
    mixed = False
    for n in (1, 2, 3):
        for k in (1, 2, 3):
            src = derivation_basis(cp3, n, k, Mode.BOUNDARY)
            tgt = derivation_basis(cp3, n, k - 1, Mode.BOUNDARY)
            column = reference_column(src, tgt)
            reference = SparseMatrix.from_columns(
                [push_local(src, tgt, column, {i: 1}, "reference")
                 for i in range(src.dim)], tgt.dim)
            delta = differential_matrix(cp3, n, k, Mode.BOUNDARY)
            assert delta == reference, (n, k)
            local = {i: i + 1 for i in range(src.dim)}
            assert delta.apply(local) == \
                push_local(src, tgt, column, local, "reference"), (n, k)
            support = src.local_to_pointed(local).keys()
            dead = {j for j in support if src.coords[j][0] % 2 == 1
                    and all(x % 2 == 0 for x in src.coords[j][1].word)}
            mixed |= bool(dead) and dead != support
    assert mixed


def test_truncation_order_is_irrelevant(s2xs2, cp2, product_model):
    # restrict-then-truncate vs truncate-then-restrict at k = 1
    boundary_capable = [(s2xs2, 1), (s2xs2, 2), (cp2, 1), (cp2, 2)]
    for model, n in boundary_capable:
        d1_boundary = differential_matrix(model, n, 1, Mode.BOUNDARY)
        restricted_kernel = kernel_basis(d1_boundary).dim
        # intersect the pointed kernel with the boundary slice
        d1_pointed = differential_matrix(model, n, 1, Mode.POINTED)
        pointed_kernel = kernel_basis(d1_pointed)
        bnd = derivation_basis(model, n, 1, Mode.BOUNDARY)
        span: dict = {}
        dim_sum = 0
        for v in pointed_kernel.vectors:
            if extend_echelon(span, v):
                dim_sum += 1
        a_dim = dim_sum
        for v in bnd.basis.vectors:
            if extend_echelon(span, v):
                dim_sum += 1
        union_dim = dim_sum
        inter_dim = a_dim + bnd.dim - union_dim
        assert restricted_kernel == inter_dim, (model.name, n)


def test_boundary_slices_closed_under_bracket(s2xs2):
    rng = random.Random(2026)
    sl1 = derivation_basis(s2xs2, 2, 1, Mode.BOUNDARY)
    sl2 = derivation_basis(s2xs2, 2, 2, Mode.BOUNDARY)
    w = omega(s2xs2, 2)
    for _ in range(6):
        i = rng.randrange(sl1.dim)
        j = rng.randrange(sl1.dim)
        a = basis_derivation(sl1, i)
        b = basis_derivation(sl1, j)
        br = derivation_bracket(a, b)
        assert apply_derivation(br, w) == {}
        vec = to_pointed(sl2, br)
        assert sl2.pointed_to_local(vec) is not None


def test_derivation_value_degree_checked(sphere2):
    g = free_product_generators(sphere2, 1)
    x = generator_element(g, 0)
    with pytest.raises(ValueError):
        Derivation(g, 2, {0: x})  # degree 1 value on a k=2 derivation


def test_even_pairing_boundary_homology(s3xs3):
    # zero differential, so homology equals the annihilator slice
    for n, k in [(1, 2), (2, 2), (1, 3)]:
        brute = bruteforce.BruteComplex(bruteforce.s3xs3_model(), n,
                                        6 - 2 + k + 1)
        expected = brute.boundary_slice_dim(k)
        h = homology(s3xs3, n, k, Mode.BOUNDARY)
        assert h.dim == expected, (n, k)
    assert homology(s3xs3, 2, 1, Mode.BOUNDARY).dim == 0


def test_diagonal_pairing_boundary_homology(cp2):
    brute = bruteforce.BruteComplex(bruteforce.cp2_model(), 1, 4)
    assert brute.boundary_slice_dim(1) == 1
    assert homology(cp2, 1, 1, Mode.BOUNDARY).dim == 1
    brute2 = bruteforce.BruteComplex(bruteforce.cp2_model(), 2, 5)
    expected = brute2.boundary_slice_dim(2)
    assert homology(cp2, 2, 2, Mode.BOUNDARY).dim == expected


def test_boundary_mode_with_nonzero_differential(cp3):
    # the k=1 restricted differential vanishes at arity 1 (the annihilator
    # there is spanned by maps into omega itself), but at arity 2 the
    # restricted complex has genuinely nonzero differentials
    assert not differential_matrix(cp3, 1, 2, Mode.POINTED).is_zero()
    assert not differential_matrix(cp3, 2, 1, Mode.BOUNDARY).is_zero()
    assert not differential_matrix(cp3, 2, 2, Mode.BOUNDARY).is_zero()
    for n, k in [(1, 1), (1, 2), (2, 1)]:
        brute = bruteforce.BruteComplex(bruteforce.cp3_model(), n, k + 5)
        expected = brute.boundary_homology_dim(k)
        got = homology(cp3, n, k, Mode.BOUNDARY).dim
        assert got == expected, (n, k, got, expected)
    for n, k in [(1, 1), (1, 2), (2, 1)]:
        brute = bruteforce.BruteComplex(bruteforce.cp3_model(), n, k + 5)
        expected = brute.pointed_homology_dim(k)
        got = homology(cp3, n, k, Mode.POINTED).dim
        assert got == expected, (n, k, got, expected)


def test_boundary_window_squares_to_zero_nonzero_differential(cp3):
    for k in (1, 2):
        assert compose(
            differential_matrix(cp3, 1, k, Mode.BOUNDARY),
            differential_matrix(cp3, 1, k + 1, Mode.BOUNDARY)).is_zero()


def _fraction_omega_constraint(model, n, k):
    """Reference: the constraint theta -> theta(omega) on omega itself, with
    its Fraction coefficients."""
    from derlie.gradedlie import apply_values_tensor, omega
    from derlie.ratlinalg import SparseMatrix
    genset = free_product_generators(model, n)
    w_tensor = genset.to_tensor(omega(model, n))
    target = genset.slice(model.ambient_dim - 2 + k)
    columns = []
    for gid in range(genset.count):
        for elem in lyndon_basis(genset, genset.degrees[gid] + k):
            img = apply_values_tensor(genset, k, {gid: genset.expansion(elem)},
                                      w_tensor)
            columns.append(target.solver.express(img) if img else {})
    return SparseMatrix.from_columns(columns, target.dim)


@pytest.mark.parametrize("name", ["s2xs2", "s3xs3"])
def test_omega_constraint_columns_are_ints(request, monkeypatch, name):
    model = request.getfixturevalue(name)
    seen = []

    def spy(m):
        seen.append(m)
        return kernel_basis(m)

    monkeypatch.setattr(dermodel.ratlinalg, "kernel_basis", spy)
    for n in (1, 2, 3):
        for k in (1, 2):
            sl = derivation_basis.__wrapped__(model, n, k, Mode.BOUNDARY)
            assert sl.basis == kernel_basis(
                _fraction_omega_constraint(model, n, k)), (n, k)
    assert len(seen) == 6
    values = [v for m in seen for row in m._rows for v in row.values()]
    assert values and all(type(v) is int for v in values)


BOUNDARY_MODELS = ["s2xs2", "s3xs3", "cp2", "cp3"]


@pytest.mark.parametrize("name", BOUNDARY_MODELS)
def test_boundary_kernel_matches_the_count(request, name):
    # theta -> theta(omega) is onto L_{d-2+k}: its kernel has the
    # counted dimension, in every degree including the truncation target
    model = request.getfixturevalue(name)
    checked = 0
    for n in (1, 2, 3):
        for k in range(5):
            sl = derivation_basis(model, n, k, Mode.BOUNDARY)
            if sl.pointed_dim > 3000:
                continue
            omega_dim = lie_dim(sl.genset, model.ambient_dim - 2 + k)
            assert sl.basis.dim == sl.dim == sl.pointed_dim - omega_dim, \
                (n, k)
            checked += 1
    assert checked >= 14


def test_half_omega_keeps_its_kernel(cp2):
    assert F(1, 2) in omega(cp2, 2).values()
    for n in (1, 2, 3):
        for k in (1, 2):
            sl = derivation_basis(cp2, n, k, Mode.BOUNDARY)
            old = kernel_basis(_fraction_omega_constraint(cp2, n, k))
            assert sl.basis == old, (n, k)


# ---- the support split ----------------------------------------------------------

def support(genset, coord) -> frozenset:
    """Summands of g and of the letters of e, for the coordinate (g -> e)."""
    gid, elem = coord
    return frozenset(genset.summand(g) for g in (gid, *elem.word))


def local_supports(sl) -> list:
    """The one support of each local basis vector of a slice."""
    if sl.mode is Mode.POINTED:
        return [support(sl.genset, c) for c in sl.coords]
    out = []
    for v in sl.basis.vectors:
        supports = {support(sl.genset, sl.coords[j]) for j in v}
        assert len(supports) == 1, (sl, supports)
        out.append(supports.pop())
    return out


@pytest.mark.parametrize("name,mode", [("product_model", Mode.POINTED),
                                       ("cp3", Mode.POINTED),
                                       ("cp3", Mode.BOUNDARY)])
def test_delta_and_boundary_bases_keep_the_support(request, name, mode):
    # every boundary kernel vector lies in one support, and delta maps a
    # vector of support S to vectors of support S
    model = request.getfixturevalue(name)
    entries = 0
    for n in range(1, 5):
        for k in range(1, 4):
            delta = differential_matrix(model, n, k, mode)
            src = local_supports(derivation_basis(model, n, k, mode))
            tgt = local_supports(derivation_basis(model, n, k - 1, mode))
            for j, col in enumerate(delta.columns()):
                for i in col:
                    assert tgt[i] == src[j], (n, k, i, j)
                    entries += 1
    assert entries > 400


@pytest.mark.parametrize("name", BOUNDARY_MODELS)
def test_block_kernel_matches_the_count(request, name):
    # the count is the block's pointed dimension minus the elements of
    # L_{d-2+k} that use every summand, by inclusion-exclusion
    model = request.getfixturevalue(name)
    checked = 0
    for n in range(1, 5):
        for k in range(4):
            full = derivation_basis(model, n, k, Mode.POINTED)
            if full.pointed_dim > 3000:
                continue
            sl = derivation_basis(model, n, k, Mode.BOUNDARY, block=True)
            assert [c for c in full.coords
                    if len(support(full.genset, c)) == n] == sl.coords
            assert sl.basis.dim == sl.dim, (n, k)
            checked += 1
    assert checked >= 13


@pytest.mark.parametrize("name,mode", [
    ("product_model", Mode.POINTED), ("cp3", Mode.POINTED),
    ("cp3", Mode.BOUNDARY), ("s2xs2", Mode.BOUNDARY)])
def test_block_dimensions_sum_to_the_full_cell(request, name, mode):
    from derlie.cli import _compute_cell
    model = request.getfixturevalue(name)
    for n in range(1, 5):
        for k in (1, 2):
            assert _compute_cell(model, mode, n, k, False)["dim"] == \
                homology(model, n, k, mode).dim, (n, k)


@pytest.mark.parametrize("name,mode,ks", [
    ("sphere2", Mode.POINTED, (1, 2, 3)), ("sphere4", Mode.POINTED, (1, 2, 3)),
    ("product_model", Mode.POINTED, (1, 2)), ("cp3", Mode.POINTED, (1,)),
    ("s2xs2", Mode.BOUNDARY, (1, 2)), ("cp3", Mode.BOUNDARY, (1,))])
def test_blocks_vanish_above_the_support_bound(request, name, mode, ks):
    # a block lists the whole slice of its arity, so the degrees stay small
    model = request.getfixturevalue(name)
    for k in ks:
        bound = support_bound(model, k)
        above = derivation_basis(model, bound + 1, k, mode, block=True)
        assert above.pointed_dim == 0, k
        assert homology(model, bound + 1, k, mode, block=True).dim \
            == 0, k


# A zero differential whose (4, 2) block is empty although the support
# bound at k = 2 is 4: every value e has two letters (two a's, or a and b),
# so no support exceeds 3, and a generation flag read from the full cell
# instead of the block would differ at n = 4.
GAPPED = ModelSpec("gapped", [("a", 2), ("b", 5)])


@pytest.mark.parametrize("name", [*bundled_model_names(), GAPPED.name])
def test_counted_dimensions_match_the_listing(name):
    # der_dim, whole and split by support, against the listed
    # coordinates and, in boundary mode, the omega constraint kernel built
    # on them; a zero differential's cells and generation flags, which are
    # counted, against the block route they replaced
    model = GAPPED if name == GAPPED.name else load_model(name)
    ns, ks = range(1, 6), (1, 2, 3)
    for mode in [Mode.POINTED] + [Mode.BOUNDARY] * model.has_pairing:
        for k, n, block in itertools.product(ks, ns, (True, False)):
            sl = derivation_basis(model, n, k, mode, block=block)

            assert der_dim(model, n, k, Mode.POINTED, block) == \
                len(sl.coords), (mode, k, n, block)
            if mode is Mode.BOUNDARY:
                assert der_dim(model, n, k, mode, block) == \
                    len(sl.basis.vectors), (k, n, block)
        if not free_product_generators(model, 1).has_zero_differential:
            continue
        for k in ks:
            assert [_compute_cell(model, mode, n, k, False)["dim"]
                    for n in ns] == [listed_cell_dim(model, n, k, mode)
                                     for n in ns], (mode, k)
            assert generation_flags(model, mode, k, ns) == {
                m: m > 1 and (m > support_bound(model, k) or not homology(
                    model, m, k, mode, block=True).dim) for m in ns}, (mode, k)


def test_dimensions_build_no_full_differential(monkeypatch, cold_caches):
    from derlie.cli import EXIT_OK, JobSpec, run
    calls = []
    real = dermodel.differential_matrix

    def spy(*args, **kwargs):
        calls.append(kwargs.get("block", False))
        return real(*args, **kwargs)

    monkeypatch.setattr(dermodel, "differential_matrix", spy)
    slices = {}  # id -> every DerSlice built, each counted once
    real_basis = dermodel.derivation_basis

    def basis_spy(*args, **kwargs):
        sl = real_basis(*args, **kwargs)
        slices[id(sl)] = sl
        return sl

    monkeypatch.setattr(dermodel, "derivation_basis", basis_spy)
    report, code = run(JobSpec(model_path="s3xs3-product", mode=Mode.POINTED,
                               k_values=(1, 2), n_values=(1, 2, 3, 4)))
    assert code == EXIT_OK
    assert [c["dim"] for c in report["cells"]] == [0, 12, 96, 376,
                                                   0, 4, 12, 24]
    assert calls and all(calls)
    # an empty block lists no neighbour slice (1962 coordinates if it did)
    assert sum(sl.dim for sl in slices.values()) <= 1002
