import importlib
import itertools
import pkgutil
import random
import re
from fractions import Fraction

import pytest

import bruteforce
from helpers import (Derivation, apply_derivation, basis_derivation, bracket,
                     compose, compose_injections, generator_element,
                     induced_slice_map, pointed_to_derivation, rank,
                     trace_character)
from derlie import dermodel, fistab
from derlie.cli import (EXIT_CHECK_FAILURE, EXIT_OK, JobSpec, _compute_cell,
                        load_model, run)
from derlie.dermodel import (
    Mode,
    derivation_basis,
    differential_matrix,
    homology,
)
from derlie.fistab import (
    Injection,
    character,
    consistency_check,
    cycle_type_representative,
    homology_map,
    sigma_action,
    stabilizer_generators,
)
from derlie.gradedlie import free_product_generators, omega, relabel_tensor
from derlie.ratlinalg import SparseMatrix, add_scaled, kernel_basis
from derlie.reptheory import decompose, irr_dim, partitions

F = Fraction


def identity_matrix(n):
    return SparseMatrix(n, n, {(i, i): F(1) for i in range(n)})


def all_injections(n, m):
    for image in itertools.permutations(range(m), n):
        yield Injection(n, m, image)


def tensor_route_relabel(theta, inj, dst):
    """Extension by zero of a Derivation, each value relabeled in tensor
    coordinates and re-expressed in dst, with no order-preserving
    shortcut."""
    src = theta.genset
    values = {}
    for gid, val in theta.values.items():
        new_gid = dst.gen_id(src.base_index(gid), inj.image[src.summand(gid)])
        vec = relabel_tensor(src, dst, inj.image, src.to_tensor(val))
        values[new_gid] = dst.from_tensor(src.degrees[gid] + theta.degree,
                                          vec)
    return Derivation(dst, theta.degree, values)


def tensor_route_slice_map(inj, model, k, mode=Mode.POINTED):
    """Reference for induced_slice_map through Derivation values: basis
    derivation, tensor_route_relabel, then back to local coordinates."""
    src = derivation_basis(model, inj.source, k, mode)
    tgt = derivation_basis(model, inj.target, k, mode)
    columns = []
    for i in range(src.dim):
        theta = tensor_route_relabel(basis_derivation(src, i), inj,
                                     tgt.genset)
        local = tgt.pointed_to_local({
            tgt.coord_index[(gid, elem)]: c
            for gid, val in theta.values.items()
            for elem, c in val.items()})
        assert local is not None, "image left the boundary slice"
        columns.append(local)
    return SparseMatrix.from_columns(columns, tgt.dim)


# ---- Injection -----------------------------------------------------------------

def test_injection_validation():
    with pytest.raises(ValueError):
        Injection(2, 3, (0, 0))
    with pytest.raises(ValueError):
        Injection(2, 1, (0, 1))
    assert Injection.standard(2, 4).image == (0, 1)


def test_injection_compose():
    i = Injection(1, 2, (1,))
    j = Injection(2, 3, (2, 0))
    assert compose_injections(j, i).image == (0,)


# ---- induced_slice_map ---------------------------------------------------------

def test_identity_injection_is_identity(sphere2):
    m = induced_slice_map(Injection.standard(2, 2), sphere2, 1, Mode.POINTED)
    assert m == identity_matrix(6)


def test_sphere_inclusion_unrolled(sphere2):
    sl1 = derivation_basis(sphere2, 1, 1, Mode.POINTED)
    sl2 = derivation_basis(sphere2, 2, 1, Mode.POINTED)
    m = induced_slice_map(Injection.standard(1, 2), sphere2, 1, Mode.POINTED)
    assert m.rows == 6 and m.cols == 1
    image = pointed_to_derivation(sl2, sl2.local_to_pointed(m.column(0)))
    g2 = sl2.genset
    x1 = generator_element(g2, 0)
    assert image.value(0) == bracket(g2, x1, x1)
    assert image.value(1) == {}


def test_composite_equals_direct(sphere2):
    i = Injection(1, 2, (1,))
    j = Injection(2, 3, (0, 2))
    composite = compose_injections(j, i)
    for k in (1, 2):
        a = compose(induced_slice_map(j, sphere2, k),
                    induced_slice_map(i, sphere2, k))
        b = induced_slice_map(composite, sphere2, k)
        assert a == b


def test_functoriality_exhaustive_small(sphere2, s2xs2):
    cases = [(sphere2, Mode.POINTED), (s2xs2, Mode.BOUNDARY)]
    for model, mode in cases:
        for n, m, p in [(1, 2, 3), (1, 1, 2), (2, 2, 3), (1, 3, 3), (2, 3, 3)]:
            for i in all_injections(n, m):
                for j in all_injections(m, p):
                    lhs = compose(induced_slice_map(j, model, 1, mode),
                                  induced_slice_map(i, model, 1, mode))
                    rhs = induced_slice_map(compose_injections(j, i), model, 1,
                                            mode)
                    assert lhs == rhs, (model.name, i, j)


def test_functoriality_exhaustive_m4(sphere2):
    # every composable pair with the larger set of size 4
    for n, m in [(1, 2), (1, 3), (2, 3), (3, 3), (1, 4), (2, 4), (3, 4)]:
        for i in all_injections(n, m):
            for j in all_injections(m, 4):
                lhs = compose(induced_slice_map(j, sphere2, 1),
                              induced_slice_map(i, sphere2, 1))
                assert lhs == induced_slice_map(compose_injections(j, i),
                                                sphere2, 1)


def test_functoriality_sampled_size5(sphere2):
    rng = random.Random(99)
    injections_45 = list(all_injections(4, 5))
    injections_34 = list(all_injections(3, 4))
    for _ in range(4):
        j = rng.choice(injections_45)
        i = rng.choice(injections_34)
        lhs = compose(induced_slice_map(j, sphere2, 1),
                      induced_slice_map(i, sphere2, 1))
        assert lhs == induced_slice_map(compose_injections(j, i), sphere2, 1)


def test_equivariance(sphere2):
    # sigma o i as injections equals the matrix product of the actions
    for sigma in itertools.permutations(range(3)):
        s = Injection.from_permutation(sigma)
        for i in all_injections(2, 3):
            lhs = compose(induced_slice_map(s, sphere2, 1),
                          induced_slice_map(i, sphere2, 1))
            rhs = induced_slice_map(compose_injections(s, i), sphere2, 1)
            assert lhs == rhs


def test_slice_maps_commute_with_differential(product_model):
    # chain-map property on a model with a nonzero differential
    for inj in [Injection.standard(1, 2), Injection(1, 2, (1,)),
                Injection.from_permutation((1, 0))]:
        for k in (1, 2):
            src_delta = differential_matrix(product_model, inj.source, k)
            tgt_delta = differential_matrix(product_model, inj.target, k)
            fk = induced_slice_map(inj, product_model, k)
            fk1 = induced_slice_map(inj, product_model, k - 1)
            assert compose(tgt_delta, fk) == compose(fk1, src_delta)


@pytest.mark.parametrize("name,mode", [("product_model", Mode.POINTED),
                                       ("cp3", Mode.POINTED),
                                       ("cp3", Mode.BOUNDARY),
                                       ("s2xs2", Mode.BOUNDARY)])
def test_slice_map_matches_the_tensor_route(request, name, mode):
    model = request.getfixturevalue(name)
    maps = list(all_injections(2, 3)) + [
        Injection.from_permutation(sigma)
        for sigma in itertools.permutations(range(3))]
    for k in (1, 2):
        for inj in maps:
            assert induced_slice_map(inj, model, k, mode) == \
                tensor_route_slice_map(inj, model, k, mode), (inj, k)


# ---- homology_map --------------------------------------------------------------

def test_homology_identity_map(sphere2):
    m = homology_map(Injection.standard(2, 2), sphere2, 1)
    assert m == identity_matrix(6)


def test_sphere_homology_map_rank(sphere2):
    m = homology_map(Injection.standard(1, 2), sphere2, 1)
    assert m.rows == 6 and m.cols == 1
    assert rank(m) == 1


def test_boundary_homology_map_lands_in_kernel(s2xs2):
    m = homology_map(Injection.standard(1, 2), s2xs2, 1, Mode.BOUNDARY)
    assert m.cols == 4
    assert rank(m) == 4  # stabilization is injective here


def test_boundary_lift_annihilates_bigger_omega(s2xs2):
    # extension by zero of an omega_n-annihilating derivation kills omega_{n+1}
    src = derivation_basis(s2xs2, 1, 1, Mode.BOUNDARY)
    g2 = free_product_generators(s2xs2, 2)
    w2 = omega(s2xs2, 2)
    for i in range(src.dim):
        theta = tensor_route_relabel(basis_derivation(src, i),
                                     Injection.standard(1, 2), g2)
        assert not theta.is_zero()
        assert apply_derivation(theta, w2) == {}


# ---- sigma_action --------------------------------------------------------------

def test_identity_action(sphere2):
    act = sigma_action((0, 1), sphere2, 1)
    assert act == identity_matrix(6)


def test_swap_action_trace(sphere2):
    act = sigma_action((1, 0), sphere2, 1)
    act2 = compose(act, act)
    assert act2 == identity_matrix(6)  # involution
    trace = sum((act.entry(i, i) for i in range(6)), F(0))
    assert trace == 0  # no basis derivation is fixed by the swap
    ident_trace = F(6)
    assert (trace + ident_trace) % 2 == 0  # integral multiplicities


def test_boundary_action_preserves_subcomplex(s2xs2):
    # construction would raise ClosureViolation otherwise
    dim = homology(s2xs2, 2, 1, Mode.BOUNDARY).dim
    assert dim == 20
    for sigma in itertools.permutations(range(2)):
        act = sigma_action(sigma, s2xs2, 1, Mode.BOUNDARY)
        assert act.rows == act.cols == dim


def test_action_homomorphism(sphere2, s2xs2):
    perms = list(itertools.permutations(range(3)))
    all_pairs = [(s, t) for s in perms for t in perms]
    cases = [(sphere2, 3, Mode.POINTED, all_pairs),
             (s2xs2, 2, Mode.BOUNDARY, [((1, 0), (1, 0)), ((0, 1), (1, 0))])]
    for model, n, mode, pairs in cases:
        for sigma, tau in pairs:
            composed = tuple(sigma[t] for t in tau)
            assert compose(sigma_action(sigma, model, 1, mode),
                           sigma_action(tau, model, 1, mode)) == \
                sigma_action(composed, model, 1, mode)
        dim = homology(model, n, 1, mode).dim
        assert sigma_action(tuple(range(n)), model, 1, mode) == \
            identity_matrix(dim)


DERIVATION_ROUTE = ("Derivation", "apply_derivation", "derivation_bracket",
                    "pointed_to_derivation", "basis_derivation", "LieElement")


def test_engine_defines_no_derivation_route():
    # delta, the actions and the checks work on pointed coordinates; the
    # derivation-object route is only the tests' reference in helpers.py
    import derlie
    modules = [derlie] + [importlib.import_module(f"derlie.{info.name}")
                          for info in pkgutil.iter_modules(derlie.__path__)]
    assert {m.__name__ for m in modules} >= {"derlie.dermodel",
                                             "derlie.gradedlie"}
    for module in modules:
        owners = [module] + [obj for obj in vars(module).values()
                             if isinstance(obj, type)]
        for owner, name in itertools.product(owners, DERIVATION_ROUTE):
            assert not hasattr(owner, name), (module.__name__, owner, name)


# ---- consistency_check ---------------------------------------------------------

def test_consistency_sphere(sphere2):
    for (n, m) in [(1, 2), (2, 3), (1, 3)]:
        for k in (1, 2):
            assert consistency_check(sphere2, n, m, k, Mode.POINTED)


def test_consistency_boundary(s2xs2):
    assert consistency_check(s2xs2, 1, 3, 1, Mode.BOUNDARY)


def test_stabilizer_generators():
    assert stabilizer_generators(1, 3) == [(0, 2, 1)]
    assert stabilizer_generators(2, 3) == []
    assert len(stabilizer_generators(1, 4)) == 2


# ---- character -----------------------------------------------------------------

def test_zero_homology_character(sphere2):
    chi = character(sphere2, 1, 2, Mode.POINTED)  # H_2(1) = 0
    assert not any(chi.values())


def test_sphere_wedge_character(sphere2):
    chi = character(sphere2, 2, 1)
    assert chi[(1, 1)] == 6
    assert chi[(2,)] == 0
    dec = decompose(chi)
    assert dec == {(2,): 3, (1, 1): 3}


def test_character_matches_fixed_point_oracle(sphere2):
    # independent: the slice basis is permuted, so traces count fixed pairs
    for n in (2, 3, 4):
        chi = character(sphere2, n, 1)
        for mu in partitions(n):
            f1 = sum(1 for p in mu if p == 1)
            t2 = sum(1 for p in mu if p == 2)
            fix_pairs = f1 + f1 * (f1 - 1) // 2 + t2
            assert chi[mu] == f1 * fix_pairs, (n, mu)


def test_character_k2_matches_tensor_trace_oracle(sphere2):
    # trace on the degree-3 slice computed densely, no Lyndon machinery
    for n in (2, 3):
        ctx = bruteforce.TensorContext([1] * n, 3)
        rows, pivots = ctx.lie_slice(3)
        chi = character(sphere2, n, 2)
        for mu in partitions(n):
            sigma = cycle_type_representative(mu)
            f1 = sum(1 for p in mu if p == 1)
            space = ctx.spaces[3]
            trace = F(0)
            for bi, b in enumerate(rows):
                img = space.zero()
                for wi, c in enumerate(b):
                    if c != 0:
                        w = tuple(sigma[x] for x in space.words[wi])
                        img[space.index[w]] += c
                coords = bruteforce.express_in(rows, pivots, img)
                trace += coords[bi]
            assert chi[mu] == f1 * trace, (n, mu)


@pytest.mark.parametrize("name", ["product_model", "cp3"])
def test_nonzero_differential_character_matches_dense_oracle(request, name):
    model = request.getfixturevalue(name)
    brute_model = {"product_model": bruteforce.product_model,
                   "cp3": bruteforce.cp3_model}[name]()
    top_generator = max(d for _, d in model.generators)
    checked = []
    for n in (1, 2, 3):
        for k in (1, 2):
            brute = bruteforce.BruteComplex(brute_model, n,
                                            top_generator + k + 1)
            if max(s.dim for s in brute.ctx.spaces.values()) > 300:
                continue
            chi = character(model, n, k)
            for mu in partitions(n):
                sigma = cycle_type_representative(mu)
                assert chi[mu] == brute.homology_trace(sigma, k), (n, k, mu)
            checked.append((n, k))
    assert [c for c in checked if c[0] >= 2] == {
        "product_model": [(2, 1), (2, 2), (3, 1)],
        "cp3": [(2, 1), (2, 2)]}[name]


def test_even_pairing_boundary_decomposition(s3xs3):
    chi = character(s3xs3, 2, 2, Mode.BOUNDARY)
    dec = decompose(chi)
    assert sum(m * irr_dim(lam) for lam, m in dec.items()) == \
        homology(s3xs3, 2, 2, Mode.BOUNDARY).dim
    assert all(m >= 0 for m in dec.values())


def test_regular_representation_sanity(sphere2):
    # slice-level character of Sigma_2 decomposes integrally
    traces = {}
    for mu in partitions(2):
        act = induced_slice_map(
            Injection.from_permutation(cycle_type_representative(mu)),
            sphere2, 1)
        traces[mu] = sum((act.entry(i, i) for i in range(act.rows)), F(0))
    dec = decompose(traces)
    assert all(m >= 0 for m in dec.values())


# ---- characters from the full-support blocks -------------------------------------

CHARACTER_CELLS = [
    ("sphere2", Mode.POINTED, 5), ("sphere3", Mode.POINTED, 5),
    ("sphere4", Mode.POINTED, 5), ("s2xs2", Mode.POINTED, 4),
    ("cp2", Mode.POINTED, 4), ("s2xs2", Mode.BOUNDARY, 4),
    ("s3xs3", Mode.BOUNDARY, 4), ("cp2", Mode.BOUNDARY, 4),
    ("product_model", Mode.POINTED, 4), ("cp3", Mode.POINTED, 4),
    ("cp3", Mode.BOUNDARY, 4),
]


def matrix_character(model, n, k, mode):
    """Reference: the diagonal of the action matrix on the full cell's
    homology."""
    out = {}
    for mu in partitions(n):
        act = sigma_action(cycle_type_representative(mu), model, k, mode)
        out[mu] = sum((act.entry(i, i) for i in range(act.rows)), F(0))
    return out


def spy_on_actions(monkeypatch):
    """Record (function name, block flag) of every action computed."""
    calls = []
    for name in ("sigma_action", "homology_map"):
        original = getattr(fistab, name)

        def spy(*args, _name=name, _original=original, **kwargs):
            calls.append((_name, kwargs.get("block", False)))
            return _original(*args, **kwargs)

        monkeypatch.setattr(fistab, name, spy)
    return calls


@pytest.mark.parametrize("name,mode,n_max", CHARACTER_CELLS)
def test_trace_character_matches_action_diagonal(request, monkeypatch, name,
                                                 mode, n_max):
    model = request.getfixturevalue(name)
    calls = spy_on_actions(monkeypatch)
    traced = {(n, k): character(model, n, k, mode)
              for n in range(1, n_max + 1) for k in (1, 2)}
    assert all(block for _, block in calls)  # no full cell is acted on
    for (n, k), values in traced.items():
        assert values == matrix_character(model, n, k, mode), (n, k)


@pytest.mark.parametrize("name,mode", [("product_model", Mode.POINTED),
                                       ("cp3", Mode.POINTED),
                                       ("cp3", Mode.BOUNDARY)])
def test_nonzero_differential_uses_the_action_matrix(request, monkeypatch,
                                                     cold_caches, name, mode):
    # cold_caches: a memo hit would not reach homology_map
    model = request.getfixturevalue(name)
    calls = spy_on_actions(monkeypatch)
    chi = character(model, 2, 1, mode)
    assert ("sigma_action", True) in calls
    assert ("homology_map", True) in calls
    assert chi[(1, 1)] == homology(model, 2, 1, mode).dim


def test_differential_that_vanishes_matches_the_plain_model(tmp_path):
    # a odd: [a, [a, a]] = 0 by Jacobi, so d(b) = 0 in the Lie algebra
    text = "name: vanishing\ngenerators:\n  a: 1\n  b: 4\n"
    plain = tmp_path / "plain.model"
    plain.write_text(text)
    vanishing = tmp_path / "vanishing.model"
    vanishing.write_text(text + "differential:\n  b: [a, [a, a]]\n")
    model = load_model(str(vanishing))
    assert model.differential  # the line is parsed, not dropped
    for n in (1, 2, 3):
        assert free_product_generators(model, n).has_zero_differential
    traced = {(n, k): character(model, n, k)
              for n in (1, 2, 3) for k in (1, 2)}
    for (n, k), values in traced.items():
        assert values == matrix_character(model, n, k, Mode.POINTED), (n, k)
        assert values == trace_character(model, n, k), (n, k)
    reports = []
    for path in (vanishing, plain):
        report, code = run(JobSpec(model_path=str(path), mode=Mode.POINTED,
                                   k_values=(1, 2), n_values=(1, 2, 3)))
        assert code == EXIT_OK
        reports.append([(c["n"], c["k"], c["dim"]) for c in report["cells"]])
    assert reports[0] == reports[1]
    assert any(dim for _, _, dim in reports[0])


def test_zero_differential_boundary_builds_no_kernel(s2xs2, monkeypatch,
                                                     cold_caches):
    # dimensions are counts; a character builds the kernels of its blocks
    calls = []

    def spy(m):
        calls.append(m.cols)
        return kernel_basis(m)

    monkeypatch.setattr(dermodel.ratlinalg, "kernel_basis", spy)
    for n in range(1, 6):
        for k in (1, 2):
            assert _compute_cell(s2xs2, Mode.BOUNDARY, n, k, False)["dim"] \
                == homology(s2xs2, n, k, Mode.BOUNDARY).dim
    assert calls == []
    for n in range(1, 6):
        for k in (1, 2):
            character(s2xs2, n, k, Mode.BOUNDARY)
    blocks = [derivation_basis(s2xs2, s, k, Mode.BOUNDARY, block=True)
              for s in range(1, 6) for k in (1, 2)]
    assert sorted(calls) == sorted(sl.pointed_dim for sl in blocks
                                   if sl.dim)
    full = derivation_basis(s2xs2, 2, 1, Mode.BOUNDARY)
    full.basis
    assert calls[-1] == full.pointed_dim  # the spy sees a full kernel too


def test_each_injection_is_computed_once(monkeypatch, cold_caches):
    pushed = []
    original = fistab._pushforward

    def spy(inj, src, tgt):
        pushed.append((inj, src.k))
        return original(inj, src, tgt)

    monkeypatch.setattr(fistab, "_pushforward", spy)
    report, code = run(JobSpec(model_path="s3xs3-product", mode=Mode.POINTED,
                               k_values=(1, 2), n_values=(1, 2, 3, 4),
                               check_consistency=True,
                               check_generation=True))
    assert code == EXIT_OK
    assert [c["outcome"] for c in report["checks"]
            if c["name"] == "consistency"] == ["pass"]
    repeated = [key for key in set(pushed) if pushed.count(key) > 1]
    assert repeated == []
    # both checks ask for each standard inclusion m - 1 -> m
    for k in (1, 2):
        for m in (2, 3, 4):
            assert (Injection.standard(m - 1, m), k) in pushed


def test_corrupted_trace_is_a_check_failure(monkeypatch):
    # the block actions' identity check; a zero differential's character and
    # dimension are both der_trace, so its identity check cannot fail
    original = fistab.sigma_action

    def corrupted(sigma, model, k, mode=Mode.POINTED, block=False):
        # one more on the identity's diagonal of every block; W_2 is the
        # first nonzero block the character meets
        act = original(sigma, model, k, mode, **dermodel._flag(block))
        if sigma != tuple(range(len(sigma))):
            return act
        return SparseMatrix(act.rows, act.cols,
                            {(i, i): 1 + (i == 0) for i in range(act.rows)})

    monkeypatch.setattr(fistab, "sigma_action", corrupted)
    report, code = run(JobSpec(model_path="s3xs3-product",
                               mode=Mode.POINTED, k_values=(1,),
                               n_values=(3,), decompose=True))
    assert code == EXIT_CHECK_FAILURE
    assert report["status"] == "check-failure"
    assert "the identity has trace 13 on a block of dimension 12 at (s=2, " \
        "k=1, pointed)" in report["error"]


@pytest.mark.parametrize("model_path", ["cp3", "s3xs3-product"])
def test_non_cycle_image_is_a_check_failure(monkeypatch, cold_caches,
                                            model_path):
    # each block image gains a coordinate whose delta_k column is nonzero
    original = fistab._pushforward

    def corrupted(inj, src, tgt):
        push = original(inj, src, tgt)
        delta = differential_matrix(tgt.model, tgt.n, tgt.k, tgt.mode,
                                    block=True)
        j = next((j for j, col in enumerate(delta.columns()) if col), None)
        if j is None:
            return push
        return lambda local: add_scaled(push(local), 1, {j: 1})

    monkeypatch.setattr(fistab, "_pushforward", corrupted)
    report, code = run(JobSpec(model_path=model_path, mode=Mode.POINTED,
                               k_values=(1, 2), n_values=(1, 2, 3),
                               decompose=True))
    assert code == EXIT_CHECK_FAILURE
    assert report["status"] == "check-failure"
    assert re.fullmatch(r"NotAChainMap: image of a representative is not a "
                        r"cycle at \(n=2->2, k=[12]\)", report["error"])


def test_zero_differential_characters_act_on_nothing(monkeypatch,
                                                     cold_caches):
    # cold_caches: a memo hit would not reach homology_map
    calls = spy_on_actions(monkeypatch)
    report, code = run(JobSpec(model_path="sphere2", mode=Mode.POINTED,
                               k_values=(1, 2), n_values=(1, 2, 3, 4, 5),
                               decompose=True))
    assert code == EXIT_OK and calls == []
    report, code = run(JobSpec(model_path="s3xs3-product",
                               mode=Mode.POINTED, k_values=(1, 2),
                               n_values=(1, 2, 3, 4), decompose=True))
    assert code == EXIT_OK
    assert {name for name, _ in calls} == {"sigma_action", "homology_map"}
