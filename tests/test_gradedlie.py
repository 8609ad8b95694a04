import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import bruteforce
from helpers import (bracket, differential_of, generator_element,
                     omega_by_tensor, plus, scale, trace_character)
from derlie.cli import bundled_model_names, load_model
from derlie.gradedlie import (
    GeneratorSet,
    LieBasisElement,
    ModelSpec,
    SingularPairing,
    apply_differential,
    apply_values_tensor,
    dual_basis,
    free_product_generators,
    lie_dim,
    lyndon_basis,
    omega,
    pbw_series_check,
    relabel_basis_element,
    relabel_element,
    relabel_tensor,
    validate_model,
)

F = Fraction


def elem(genset, gid):
    return generator_element(genset, gid)


# ---- lyndon_basis ------------------------------------------------------------

def test_one_odd_generator_basis(sphere2):
    g = free_product_generators(sphere2, 1)
    assert [b.word for b in lyndon_basis(g, 1)] == [(0,)]
    basis2 = lyndon_basis(g, 2)
    assert len(basis2) == 1 and basis2[0].square
    assert lyndon_basis(g, 3) == []
    assert lyndon_basis(g, 4) == []
    # oracle: brute-force span of commutators in tensor coordinates
    ctx = bruteforce.TensorContext([1], 4)
    assert [ctx.lie_dim(m) for m in (1, 2, 3, 4)] == [1, 1, 0, 0]


def test_two_odd_generators_dims(sphere2):
    g = free_product_generators(sphere2, 2)
    dims = [len(lyndon_basis(g, m)) for m in (1, 2, 3, 4)]
    assert dims == [2, 3, 2, 3]
    ctx = bruteforce.TensorContext([1, 1], 4)
    assert [ctx.lie_dim(m) for m in (1, 2, 3, 4)] == dims


def test_even_generator_has_no_square(sphere3):
    g = free_product_generators(sphere3, 1)
    assert [b.word for b in lyndon_basis(g, 2)] == [(0,)]
    assert len(lyndon_basis(g, 4)) == 0  # [a,a] = 0 for even a
    ctx = bruteforce.TensorContext([2], 4)
    assert ctx.lie_dim(4) == 0


def test_lyndon_dims_match_brute_force_on_mixed_degrees(product_model):
    g = free_product_generators(product_model, 1)
    ctx = bruteforce.TensorContext([2, 2, 5], 8)
    for m in range(1, 9):
        assert len(lyndon_basis(g, m)) == ctx.lie_dim(m), m


def _mobius(n):
    out, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return -out if n > 1 else out


def lie_dims_from_operad_series(degrees, up_to):
    """Independent dimension formula through the arity-indexed description:
    the degree series of the arity-k layer is (1/k) sum_{d|k} mu(d) h_d^{k/d},
    where h_d twists the alphabet series by the sign of a d-cycle acting on
    d-fold tensors."""
    counts = {}
    for d in degrees:
        counts[d] = counts.get(d, 0) + 1
    total = [F(0)] * (up_to + 1)
    for k in range(1, up_to // min(degrees) + 1):
        for d in range(1, k + 1):
            mu = _mobius(d) if k % d == 0 else 0
            if not mu:
                continue
            hd = [F(0)] * (up_to + 1)
            for i, c in counts.items():
                if d * i <= up_to:
                    hd[d * i] += (-1 if ((d - 1) * i) % 2 else 1) * c
            power = [F(0)] * (up_to + 1)
            power[0] = F(1)
            for _ in range(k // d):
                nxt = [F(0)] * (up_to + 1)
                for i in range(up_to + 1):
                    for j in range(up_to + 1 - i):
                        nxt[i + j] += power[i] * hd[j]
                power = nxt
            for i in range(up_to + 1):
                total[i] += F(mu, k) * power[i]
    assert all(v.denominator == 1 for v in total)
    return [int(v) for v in total]


def test_lie_dim_matches_operad_series(sphere2, s2xs2, product_model):
    for model, n, up_to in [(sphere2, 3, 6), (s2xs2, 2, 6),
                            (product_model, 2, 8)]:
        g = free_product_generators(model, n)
        series = lie_dims_from_operad_series(g.degrees, up_to)
        for m in range(1, up_to + 1):
            assert lie_dim(g, m) == series[m], (model.name, n, m)


@given(st.lists(st.integers(1, 5), min_size=1, max_size=4),
       st.integers(1, 3), st.integers(1, 9))
@settings(max_examples=60, deadline=None)
def test_lie_dim_matches_operad_series_on_random_alphabets(degrees, arity,
                                                           up_to):
    # lie_dim reads the arity from the identity's cycle type (1,) * arity
    model = ModelSpec("alphabet", [(f"g{i}", d)
                                   for i, d in enumerate(degrees)])
    g = GeneratorSet(model, arity)
    series = lie_dims_from_operad_series(degrees * arity, up_to)
    assert [lie_dim(g, m) for m in range(1, up_to + 1)] == series[1:]


@pytest.mark.parametrize("name", bundled_model_names())
def test_lyndon_expansions_lead_with_their_own_word(name):
    # Chen-Fox-Lyndon: the least word of a standard bracketing P_w is w with
    # coefficient 1, and of a square [w,w] it is ww with coefficient 2, so
    # re-expression in the Lyndon basis is back-substitution
    model = load_model(name)
    seen = set()
    for n, top in [(1, 7), (2, 7), (3, 5)]:
        g = free_product_generators(model, n)
        for degree in range(1, top + 1):
            for e in g.slice(degree).elements:
                exp = g.expansion(e)
                lead = min(exp)
                expected = (e.word * 2, 2) if e.square else (e.word, 1)
                assert (lead, exp[lead]) == expected, (n, e)
                seen.add((degree % 2, e.square))
    # an odd letter gives odd degrees, and squares once [x,x] fits
    odd = [d for _, d in model.generators if d % 2]
    assert any(p for p, _ in seen) == bool(odd)
    assert any(sq for _, sq in seen) == any(2 * d <= 7 for d in odd)


@pytest.mark.parametrize("name", ["s2xs2", "cp3", "s3xs3-product"])
def test_each_lyndon_word_is_bracketed_once(name, monkeypatch):
    # the standard factors u, v of a Lyndon word are Lyndon, so its
    # expansion reuses theirs: one commutator per distinct word expanded,
    # even when the longest words come first
    from derlie import gradedlie
    g = GeneratorSet(load_model(name), 3)  # builds its differential here
    calls = []
    real = gradedlie.tensor_commutator

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(gradedlie, "tensor_commutator", spy)
    words = set()
    for degree in range(7, 0, -1):
        for e in g.slice(degree).elements:
            if not e.square:
                assert min(g.expansion(e)) == e.word
                words.add(e.word)
    assert len(calls) <= len([w for w in words if len(w) > 1])


@pytest.mark.parametrize("name", bundled_model_names())
def test_prenecklace_slices_match_generate_and_test(name):
    # the engine grows Lyndon words as prenecklaces; the oracle lists every
    # word and keeps the Lyndon ones, and the order must agree too
    model = load_model(name)
    for n in (1, 2, 3):
        g = GeneratorSet(model, n)  # not the shared one: its slices are big
        for degree in range(1, 9):
            assert g.slice(degree).elements == \
                bruteforce.super_lyndon_listing(g.degrees, degree), (n, degree)


@given(st.lists(st.integers(1, 4), min_size=1, max_size=5),
       st.integers(1, 6))
@settings(max_examples=60, deadline=None)
def test_prenecklace_slices_match_generate_and_test_on_random_alphabets(
        degrees, degree):
    model = ModelSpec("alphabet", [(f"g{i}", d)
                                   for i, d in enumerate(degrees)])
    g = GeneratorSet(model, 1)
    assert g.slice(degree).elements == \
        bruteforce.super_lyndon_listing(degrees, degree)


# ---- LieBasisElement ---------------------------------------------------------

def test_basis_element_hashes_and_sorts_like_its_tuple():
    elems = [LieBasisElement(True, (0,)), LieBasisElement(False, (0, 1)),
             LieBasisElement(False, (0,)), LieBasisElement(False, (1,)),
             LieBasisElement(True, (0, 0, 1))]
    for e in elems:
        assert hash(e) == hash((e.square, e.word))
    assert sorted(elems) == sorted(elems, key=lambda e: (e.square, e.word))


def test_basis_element_repr_and_immutability():
    assert repr(LieBasisElement(False, (0, 2, 1))) == "[0,2,1]"
    assert repr(LieBasisElement(True, (3,))) == "[[3]]"
    e = LieBasisElement(False, (0,))
    with pytest.raises(AttributeError):
        e.square = True
    with pytest.raises(TypeError):
        e[0] = True
    assert e == LieBasisElement(False, (0,)) and not e.square


# ---- bracket -----------------------------------------------------------------

def test_square_bracket_of_odd_generator(sphere2):
    g = free_product_generators(sphere2, 1)
    x = elem(g, 0)
    sq = bracket(g, x, x)
    assert sq == {LieBasisElement(True, (0,)): F(1)}


def test_even_self_bracket_vanishes(sphere3):
    g = free_product_generators(sphere3, 1)
    a = elem(g, 0)
    assert bracket(g, a, a) == {}


def _random_homogeneous(rng, genset, degree):
    basis = lyndon_basis(genset, degree)
    coeffs = {b: F(rng.randint(-3, 3)) for b in basis}
    return {b: c for b, c in coeffs.items() if c}


def test_graded_antisymmetry_and_jacobi(sphere2):
    g = free_product_generators(sphere2, 2)
    rng = random.Random(17)
    for _ in range(25):
        du, dv, dw = rng.randint(1, 2), rng.randint(1, 2), rng.randint(1, 2)
        if du + dv + dw > 6:
            continue
        u = _random_homogeneous(rng, g, du)
        v = _random_homogeneous(rng, g, dv)
        w = _random_homogeneous(rng, g, dw)
        # [u,v] = -(-1)^{|u||v|}[v,u]
        sign = F(-1) if (du * dv) % 2 == 0 else F(1)
        assert bracket(g, u, v) == scale(bracket(g, v, u), sign)
        # [u,[v,w]] = [[u,v],w] + (-1)^{|u||v|}[v,[u,w]]
        lhs = bracket(g, u, bracket(g, v, w))
        rhs = bracket(g, bracket(g, u, v), w)
        jac_sign = F(1) if (du * dv) % 2 == 0 else F(-1)
        rhs = plus(rhs, bracket(g, v, bracket(g, u, w)), jac_sign)
        assert lhs == rhs


# ---- free_product_generators ---------------------------------------------------

def test_arity_one_is_the_model(product_model):
    g = free_product_generators(product_model, 1)
    assert g.count == 3
    assert g.degrees == [2, 2, 5]


def test_sphere_relabeling(sphere2):
    g = free_product_generators(sphere2, 3)
    assert g.count == 3
    assert all(d == 1 for d in g.degrees)
    assert [g.symbol(i) for i in range(3)] == ["x^1", "x^2", "x^3"]


def test_summandwise_differential(product_model):
    g = free_product_generators(product_model, 2)
    # c in the second summand is generator id 5; a^2, b^2 are ids 3, 4
    dc2 = differential_of(g, 5)
    expected = bracket(g, elem(g, 3), elem(g, 4))
    assert dc2 == expected
    assert differential_of(g, 2) == bracket(g, elem(g, 0), elem(g, 1))


def test_rejects_arity_zero(sphere2):
    with pytest.raises(ValueError):
        free_product_generators(sphere2, 0)


# ---- apply_differential --------------------------------------------------------

def test_zero_differential_model(sphere2):
    g = free_product_generators(sphere2, 2)
    rng = random.Random(5)
    e = _random_homogeneous(rng, g, 3)
    assert apply_differential(g, e) == {}


def test_differential_of_relation_generator(product_model):
    g = free_product_generators(product_model, 1)
    dc = apply_differential(g, elem(g, 2))
    assert dc == bracket(g, elem(g, 0), elem(g, 1))


def test_differential_squares_to_zero(product_model):
    g = free_product_generators(product_model, 1)
    rng = random.Random(23)
    for degree in (2, 4, 5, 6, 7):
        e = _random_homogeneous(rng, g, degree)
        assert apply_differential(g, apply_differential(g, e)) == {}


def test_differential_squares_to_zero_on_every_basis_element(product_model):
    for n in (1, 2):
        g = free_product_generators(product_model, n)
        for degree in range(2, 8):
            for b in lyndon_basis(g, degree):
                e = {b: F(1)}
                assert apply_differential(g, apply_differential(g, e)) == {}


def test_memoized_differential_matches_tensor_path(product_model, cp3,
                                                  monkeypatch):
    calls = []
    real_expansion = GeneratorSet.expansion

    def spy(self, e):
        calls.append(e)
        return real_expansion(self, e)

    for model, n in [(product_model, 1), (product_model, 2), (cp3, 1)]:
        g = GeneratorSet(model, n)  # a fresh, uncached differential memo
        elements = [e for degree in range(1, 9)
                    for e in lyndon_basis(g, degree)]
        with_d = {e for e in elements
                  if any(x in g._diff_tensor for x in e.word)}
        assert with_d and len(with_d) < len(elements)
        monkeypatch.setattr(GeneratorSet, "expansion", spy)
        for e in elements:
            if e not in with_d:
                assert g.differential(e) == {}
        assert calls == []
        monkeypatch.setattr(GeneratorSet, "expansion", real_expansion)
        for e in with_d:
            vec = apply_values_tensor(g, -1, g._diff_tensor, g.expansion(e))
            degree = g.word_degree(e.word) * (2 if e.square else 1)
            assert g.differential(e) == g.from_tensor(degree - 1, vec)


def test_leibniz_rule(product_model):
    g = free_product_generators(product_model, 1)
    rng = random.Random(31)
    for du, dv in [(2, 2), (2, 5), (5, 2), (4, 2)]:
        u = _random_homogeneous(rng, g, du)
        v = _random_homogeneous(rng, g, dv)
        lhs = apply_differential(g, bracket(g, u, v))
        sign = F(-1) if du % 2 else F(1)
        rhs = plus(bracket(g, apply_differential(g, u), v),
                   bracket(g, u, apply_differential(g, v)), sign)
        assert lhs == rhs


# ---- dual_basis ----------------------------------------------------------------

def test_hyperbolic_dual_pair(s2xs2):
    duals = dual_basis(s2xs2)
    g = free_product_generators(s2xs2, 1)
    assert duals["a"] == elem(g, 1)  # a-dual is b
    assert duals["b"] == elem(g, 0)  # b-dual is a


def test_diagonal_pairing_selfdual(cp2):
    duals = dual_basis(cp2)
    g = free_product_generators(cp2, 1)
    assert duals["a"] == elem(g, 0)


def test_permuted_pairing_permutes_duals():
    model = ModelSpec("perm", [("a", 1), ("b", 1), ("c", 1), ("d", 1)],
                      pairing=[("a", "d", F(1)), ("b", "c", F(1))],
                      ambient_dim=4)
    duals = dual_basis(model)
    g = free_product_generators(model, 1)
    assert duals["a"] == elem(g, 3)
    assert duals["d"] == elem(g, 0)
    assert duals["b"] == elem(g, 2)
    assert duals["c"] == elem(g, 1)


def test_singular_pairing_rejected():
    model = ModelSpec("sing", [("a", 1), ("b", 1)],
                      pairing=[("a", "a", F(1))], ambient_dim=4)
    with pytest.raises(SingularPairing):
        dual_basis(model)


def test_dual_pairing_property_exact(s3xs3):
    # <a_i, a_j^#> = delta_ij for the even-degree symplectic-style pairing
    duals = dual_basis(s3xs3)
    mat = s3xs3.pairing_matrix()
    syms = s3xs3.symbols
    g = free_product_generators(s3xs3, 1)
    for j, sym in enumerate(syms):
        dual = duals[sym]
        for i in range(len(syms)):
            val = sum((mat[i][k] * dual.get(
                LieBasisElement(False, (k,)), F(0)))
                for k in range(len(syms)))
            assert val == (F(1) if i == j else F(0))


# ---- omega ---------------------------------------------------------------------

def test_omega_of_hyperbolic_plane(s2xs2):
    g = free_product_generators(s2xs2, 1)
    w = omega(s2xs2, 1)
    assert w == bracket(g, elem(g, 0), elem(g, 1))
    # oracle: raw tensor computation
    brute = bruteforce.BruteComplex(bruteforce.s2xs2_model(), 1, 3)
    vec = brute.omega_vector()
    words = brute.ctx.spaces[2].words
    expected = {words[i]: c for i, c in enumerate(vec) if c != 0}
    assert g.to_tensor(w) == expected


def test_omega_is_summandwise(s2xs2):
    g2 = free_product_generators(s2xs2, 2)
    w2 = omega(s2xs2, 2)
    expected = plus(bracket(g2, elem(g2, 0), elem(g2, 1)),
                    bracket(g2, elem(g2, 2), elem(g2, 3)))
    assert w2 == expected


def test_omega_basis_independence(s2xs2):
    # change of basis a -> a + b transforms the pairing matrix accordingly
    changed = ModelSpec("s2xs2-changed", [("a", 1), ("b", 1)],
                        pairing=[("a", "a", F(2)), ("a", "b", F(1)),
                                 ("b", "a", F(1))],
                        ambient_dim=4)
    w = omega(changed, 1)
    g = free_product_generators(changed, 1)
    vec = g.to_tensor(w)
    # substitute a -> a + b, b -> b and compare with the standard omega
    subs = {}
    for word, c in vec.items():
        expanded = [((), c)]
        for letter in word:
            nxt = []
            for w2, coeff in expanded:
                if letter == 0:
                    nxt.append((w2 + (0,), coeff))
                    nxt.append((w2 + (1,), coeff))
                else:
                    nxt.append((w2 + (1,), coeff))
            expanded = nxt
        for w2, coeff in expanded:
            subs[w2] = subs.get(w2, F(0)) + coeff
    subs = {w2: c for w2, c in subs.items() if c != 0}
    std = free_product_generators(ModelSpec("s2xs2", [("a", 1), ("b", 1)],
                                            pairing=[("a", "b", F(1))],
                                            ambient_dim=4), 1)
    assert subs == std.to_tensor(omega(std.model, 1))


def test_omega_even_degree_model(s3xs3):
    g = free_product_generators(s3xs3, 1)
    w = omega(s3xs3, 1)
    # sign normalization pins the coefficient of the least bracket to +1
    assert w == bracket(g, elem(g, 0), elem(g, 1))


def test_omega_diagonal_pairing(cp2):
    g = free_product_generators(cp2, 1)
    w = omega(cp2, 1)
    assert w == scale(bracket(g, elem(g, 0), elem(g, 0)), F(1, 2))


def test_omega_invariance_up_to_arity_4(s2xs2, cp2):
    import itertools
    for model in (s2xs2, cp2):
        for n in range(1, 5):
            w = omega(model, n)
            g = free_product_generators(model, n)
            assert apply_differential(g, w) == {}
            for sigma in itertools.permutations(range(n)):
                mapping = {j: sigma[j] for j in range(n)}
                assert relabel_element(g, g, mapping, w) == w


@pytest.mark.parametrize("name", ["s2xs2", "s3xs3", "cp2", "cp3"])
def test_omega_copies_match_the_tensor_route(request, name):
    # omega_n is omega_1 on each summand; the oracle sums all n*m brackets,
    # solves in the arity-n slice and checks every adjacent transposition
    model = request.getfixturevalue(name)
    for n in range(1, 6):
        w, expected = omega(model, n), omega_by_tensor(model, n)
        assert w == expected, n
        assert list(w.items()) == list(expected.items()), n


@pytest.mark.parametrize("name", ["s2xs2", "cp3"])
def test_omega_builds_no_slice_solver_above_arity_one(request, cold_caches,
                                                      name):
    model = request.getfixturevalue(name)
    omega(model, 4)
    sl = free_product_generators(model, 4)._slices.get(model.ambient_dim - 2)
    assert sl is None or "solver" not in vars(sl)
    assert "solver" in vars(free_product_generators(model, 1).slice(
        model.ambient_dim - 2))


@pytest.mark.parametrize("name", ["sphere2", "s2xs2", "cp3"])
def test_relabel_basis_element_matches_the_tensor_route(request, name):
    import itertools
    model = request.getfixturevalue(name)
    g2 = free_product_generators(model, 2)
    g3 = free_product_generators(model, 3)
    maps = [(g3, sigma) for sigma in itertools.permutations(range(3))] + \
        [(g2, image) for image in itertools.permutations(range(3), 2)]
    seen_square = seen_mixed = 0
    for src, summand_map in maps:
        for degree in range(1, 6):
            for e in lyndon_basis(src, degree):
                vec = relabel_tensor(src, summand_map, src.expansion(e))
                expected = g3.from_tensor(degree, vec)
                assert relabel_basis_element(src, g3, summand_map, e) == \
                    expected, (summand_map, e)
                seen_square += e.square
                seen_mixed += len({src.summand(x) for x in e.word}) > 1
    assert seen_square and seen_mixed


# ---- pbw_series_check ----------------------------------------------------------

def test_pbw_one_odd_generator(sphere2):
    g = free_product_generators(sphere2, 1)
    assert pbw_series_check(g, 8) is None


def test_pbw_two_odd_generators(sphere2):
    g = free_product_generators(sphere2, 2)
    assert pbw_series_check(g, 8) is None


def test_pbw_trivial_for_no_generators():
    model = ModelSpec("empty", [])
    g = free_product_generators(model, 1)
    assert pbw_series_check(g, 5) is None




# ---- validation ----------------------------------------------------------------

def test_validate_good_models(sphere2, s2xs2, product_model, cp2, s3xs3):
    for m in (sphere2, s2xs2, product_model, cp2, s3xs3):
        assert validate_model(m) == []


def test_validate_degree_zero_generator():
    model = ModelSpec("bad", [("a", 0)])
    assert any("simple-connectivity" in p for p in validate_model(model))


def test_validate_d_squared():
    # d(c) = [a, b] with d(b) = 0 is fine; force d^2 != 0 via d(e) = c
    model = ModelSpec(
        "bad-d2", [("a", 2), ("b", 2), ("c", 5), ("e", 5)],
        differential={"c": ("a", "b"), "e": [(F(1), ("a", "a"))]},
        minimal=True)
    # [a,a] = 0 for even a, so d(e) = 0: fine.  Now a genuinely broken one:
    # |e| = 8 makes d(e) = [a,c] homogeneous, and d(d(e)) = [a,[a,b]] != 0.
    model2 = ModelSpec("bad-d2b", [("a", 2), ("b", 2), ("c", 5), ("e", 8)],
                       differential={"c": ("a", "b"), "e": ("a", "c")})
    probs = validate_model(model2)
    assert any("d o d" in p for p in probs)
    assert validate_model(model) == []
    # a term's degree is checked before it is expanded, so [a,a] of degree
    # 4 is refused as d(e) for |e| = 6 although it vanishes
    model3 = ModelSpec(
        "bad-degree", [("a", 2), ("b", 2), ("c", 5), ("e", 6)],
        differential={"c": ("a", "b"), "e": [(F(1), ("a", "a"))]})
    assert validate_model(model3) == [
        "differential of 'e' is not homogeneous of degree 5"]


def test_validate_minimality_flag():
    model = ModelSpec("lin", [("a", 2), ("c", 3)], differential={"c": "a"},
                      minimal=True)
    assert any("minimality" in p for p in validate_model(model))
    model2 = ModelSpec("lin2", [("a", 2), ("c", 3)], differential={"c": "a"},
                       minimal=False)
    assert validate_model(model2) == []


def test_validate_pairing_rules():
    model = ModelSpec("bad-pair", [("a", 1), ("b", 2)],
                      pairing=[("a", "b", F(1))], ambient_dim=4)
    assert any("d-2" in p for p in validate_model(model))
    model2 = ModelSpec("no-ambient", [("a", 1), ("b", 1)],
                       pairing=[("a", "b", F(1))])
    assert any("ambient_dim" in p for p in validate_model(model2))
    model3 = ModelSpec("degenerate", [("a", 1), ("b", 1), ("c", 1), ("d", 1)],
                       pairing=[("a", "b", F(1))], ambient_dim=4)
    assert any("degenerate" in p for p in validate_model(model3))


def test_sign_flip_of_omega_does_not_change_kernels(s2xs2):
    # scaling omega by -1 leaves the annihilator subspace unchanged
    from derlie.gradedlie import apply_values_tensor
    g = free_product_generators(s2xs2, 1)
    w = omega(s2xs2, 1)
    for factor in (F(1), F(-1), F(7)):
        vec = g.to_tensor(scale(w, factor))
        basis3 = lyndon_basis(g, 2)
        kernels = []
        for gid in range(g.count):
            for b in lyndon_basis(g, g.degrees[gid] + 1):
                img = apply_values_tensor(g, 1, {gid: g.expansion(b)}, vec)
                kernels.append(frozenset(img.items()) == frozenset())
        if factor == F(1):
            reference = kernels
        else:
            assert kernels == reference


def test_lie_traces_run_once_per_alphabet_cycle_type_and_degree(
        monkeypatch, cold_caches):
    from derlie import dermodel, gradedlie
    asked = []
    real = gradedlie.lie_trace

    def spy(degrees, mu, m):  # sees every call, the recursive ones too
        asked.append((degrees, mu, m))
        return real(degrees, mu, m)

    for module in (gradedlie, dermodel):  # dermodel.der_trace calls it
        monkeypatch.setattr(module, "lie_trace", spy)
    model = ModelSpec("two", [("a", 1), ("b", 2)])
    twin = ModelSpec("twin", [("c", 1), ("d", 2)])  # the same degrees
    gensets = [GeneratorSet(m, n) for m in (model, twin) for n in (1, 2, 3)]
    for _ in range(3):
        for g in gensets:
            dims = [lie_dim(g, d) for d in range(1, 7)]
            assert pbw_series_check(g, 6) is None
            assert dims == [lie_dim(g, d) for d in range(1, 7)]
    # the identity's powers are the identity: degrees 0..6 at arities 1..3
    assert len(set(asked)) == 3 * 7 < len(asked)
    assert real.cache_info().misses == 3 * 7
    for _ in range(2):
        for m in (model, twin):
            trace_character(m, 4, 2)
    assert real.cache_info().misses == len(set(asked)) > 3 * 7
    # the coefficients [q^m] h^r depend on the degrees and m only: one
    # alphabet, degrees 0..6, whatever the arity and cycle type
    powers = gradedlie._power_coefficients.cache_info()
    assert powers.misses == 7 < powers.hits
