"""Engine-level helpers that only the tests use: composition of injections
and matrices, rank, sums and brackets of Lie elements, generator elements
and their differentials, the matrix of an injection on derivation slices,
the derivation-object route, the orbit-span route to the generation flags,
the character route to the padded rows, the tensor route to omega_n, the
closed-form character of a zero differential, and the block route to the
dimensions of its cells.

Lie elements are dicts in Lyndon coordinates (``gradedlie.LieVector``).  The
derivation-object route (``Derivation``, ``apply_derivation``,
``derivation_bracket``, ``pointed_to_derivation``, ``basis_derivation``)
carries each derivation's degree explicitly and re-expresses every value in
the Lyndon basis; it is the reference for delta, the FI maps and the
bracket-closure sample, which work on pointed coordinates instead.

Unlike the independent oracles (``bruteforce``, ``lie_character``), these
are built from derlie's own layers."""

from fractions import Fraction

from math import comb

from derlie.dermodel import (DerSlice, Mode, der_trace, derivation_basis,
                             homology, support_bound)
from derlie.fistab import (Injection, _pushforward, character, homology_map,
                           sigma_action)
from derlie.gradedlie import (GeneratorSet, LieBasisElement, LieVector,
                              TensorVector, apply_differential,
                              apply_values_tensor, dual_basis,
                              free_product_generators, relabel_element,
                              tensor_commutator)
from derlie.ratlinalg import (SparseMatrix, _echelon, add_scaled,
                              extend_echelon)
from derlie.reptheory import decompose, irr_dim, partitions


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


def plus(u: LieVector, v: LieVector, c=1) -> LieVector:
    """u + c v, a new dict."""
    return add_scaled(dict(u), c, v)


def scale(u: LieVector, c) -> LieVector:
    return {b: c * x for b, x in u.items()} if c else {}


def lie_degree(genset: GeneratorSet, e: LieVector) -> int:
    """The degree of a nonzero homogeneous element."""
    degrees = {genset.element_degree(b) for b in e}
    assert len(degrees) == 1, degrees
    return degrees.pop()


def bracket(genset: GeneratorSet, u: LieVector, v: LieVector) -> LieVector:
    """Graded commutator computed in tensor coordinates."""
    if not u or not v:
        return {}
    du, dv = lie_degree(genset, u), lie_degree(genset, v)
    vec = tensor_commutator(genset.to_tensor(u), genset.to_tensor(v), du, dv)
    return genset.from_tensor(du + dv, vec)


def generator_element(genset: GeneratorSet, gid: int) -> LieVector:
    return {LieBasisElement(False, (gid,)): 1}


def differential_of(genset: GeneratorSet, gid: int) -> LieVector:
    return genset.differential(LieBasisElement(False, (gid,)))


class Derivation:
    """A derivation of L(H^(+n)) of homological degree k, determined by its
    generator values; the value on g has degree |g| + k."""

    __slots__ = ("genset", "degree", "values")

    def __init__(self, genset: GeneratorSet, degree: int,
                 values: dict[int, LieVector]):
        self.genset = genset
        self.degree = degree
        self.values: dict[int, LieVector] = {}
        for gid, val in values.items():
            if not val:
                continue
            expected = genset.degrees[gid] + degree
            if lie_degree(genset, val) != expected:
                raise ValueError(
                    f"value on generator {genset.symbol(gid)} has degree "
                    f"{lie_degree(genset, val)}, expected {expected}")
            self.values[gid] = val

    def value(self, gid: int) -> LieVector:
        return self.values.get(gid, {})

    def is_zero(self) -> bool:
        return not self.values


def apply_derivation(theta: Derivation, e: LieVector) -> LieVector:
    """theta(e), by the graded Leibniz rule."""
    genset = theta.genset
    if not e or theta.is_zero():
        return {}
    values = {gid: genset.to_tensor(val) for gid, val in theta.values.items()}
    vec = apply_values_tensor(genset, theta.degree, values,
                              genset.to_tensor(e))
    return genset.from_tensor(lie_degree(genset, e) + theta.degree, vec)


def derivation_bracket(a: Derivation, b: Derivation) -> Derivation:
    """[a,b] = a o b - (-1)^{|a||b|} b o a, again a derivation."""
    genset = a.genset
    sign = -1 if (a.degree * b.degree) % 2 else 1
    values = {gid: plus(apply_derivation(a, b.value(gid)),
                        apply_derivation(b, a.value(gid)), -sign)
              for gid in range(genset.count)}
    return Derivation(genset, a.degree + b.degree, values)


def pointed_to_derivation(sl: DerSlice, vec: dict) -> Derivation:
    """The derivation with the given pointed coordinates in sl."""
    per_gen: dict[int, LieVector] = {}
    for pos, c in vec.items():
        if c:
            gid, elem = sl.coords[pos]
            per_gen.setdefault(gid, {})[elem] = c
    return Derivation(sl.genset, sl.k, per_gen)


def basis_derivation(sl: DerSlice, i: int) -> Derivation:
    return pointed_to_derivation(sl, sl.local_to_pointed({i: 1}))


def induced_slice_map(inj: Injection, model, k: int,
                      mode: Mode = Mode.POINTED) -> SparseMatrix:
    """Matrix of the extension-by-zero map in local slice coordinates."""
    src = derivation_basis(model, inj.source, k, mode)
    tgt = derivation_basis(model, inj.target, k, mode)
    push = _pushforward(inj, src, tgt)
    return SparseMatrix.from_columns([push({i: 1}) for i in range(src.dim)],
                                     tgt.dim)


def generation_by_orbit(model, mode: Mode, k: int, n_range) -> dict[int, bool]:
    """``dermodel.generation_flags`` on full cells: for each arity m > 1,
    whether the orbit of the image of H_k(m-1) -> H_k(m) under two
    generators of Sigma_m spans H_k(m)."""
    out: dict[int, bool] = {}
    for m in n_range:
        if m == 1:
            out[m] = False  # nothing below to generate from, by convention
            continue
        hm = homology(model, m, k, mode)
        if hm.dim == 0:
            out[m] = True
            continue
        image = homology_map(Injection.standard(m - 1, m), model, k, mode)
        generators = [sigma_action(sigma, model, k, mode)
                      for sigma in _symmetric_group_generators(m)]
        span: dict = {}
        queue = [v for v in image.columns() if extend_echelon(span, v)]
        while queue and len(span) < hm.dim:
            v = queue.pop()
            queue += [w for w in (g.apply(v) for g in generators)
                      if extend_echelon(span, w)]
        out[m] = len(span) == hm.dim
    return out


def _symmetric_group_generators(m: int) -> list[tuple[int, ...]]:
    if m == 1:
        return [(0,)]
    swap = tuple([1, 0] + list(range(2, m)))
    cycle = tuple(list(range(1, m)) + [0])
    return [swap, cycle] if m > 2 else [swap]


def stability_by_characters(model, mode: Mode, k: int, n_values
                            ) -> tuple[dict, dict]:
    """The padded rows and the dimensions of H_k(n) for n in n_values, each
    recomputed from ``fistab.character`` and ``reptheory.decompose`` at
    arity n: the oracle for the rows a report's stability entry reads."""
    rows, dims = {}, {}
    for n in n_values:
        dec = decompose(character(model, n, k, mode))
        rows[n] = {lam[1:]: m for lam, m in dec.items()}
        dims[n] = sum(m * irr_dim(lam) for lam, m in dec.items())
    return rows, dims


def omega_by_tensor(model, n: int) -> LieVector:
    """``gradedlie.omega`` by the sum over all n*m generators: the tensor
    (1/2) sum [(a_i^j)^#, a_i^j], re-expressed in the arity-n Lyndon basis,
    sign-normalized, and checked to be a cycle invariant under each
    adjacent summand transposition."""
    duals = dual_basis(model)
    genset = free_product_generators(model, n)
    base = free_product_generators(model, 1)
    d = model.ambient_dim
    total: TensorVector = {}
    for j in range(n):
        for i, (sym, deg) in enumerate(model.generators):
            dual_vec = genset.to_tensor(
                relabel_element(base, genset, (j,), duals[sym]))
            term = tensor_commutator(dual_vec, {(genset.gen_id(i, j),): 1},
                                     d - 2 - deg, deg)
            add_scaled(total, Fraction(1, 2), term)
    elem = genset.from_tensor(d - 2, total)
    assert elem, "intersection element vanished"
    if elem[min(elem)] < 0:
        elem = {b: -c for b, c in elem.items()}
    assert not apply_differential(genset, elem), f"d(omega_{n}) != 0"
    for t in range(n - 1):
        swap = list(range(n))
        swap[t], swap[t + 1] = t + 1, t
        assert relabel_element(genset, genset, swap, elem) == elem, \
            f"omega_{n} not invariant under ({t + 1},{t + 2})"
    return elem


def trace_character(model, n: int, k: int, mode: Mode = Mode.POINTED
                    ) -> dict[tuple[int, ...], int]:
    """The character a report gives a zero-differential cell: ``der_trace``
    at each cycle type, with no slice, action or kernel."""
    return {mu: der_trace(model, mu, k, mode) for mu in partitions(n)}


def listed_cell_dim(model, n: int, k: int, mode: Mode = Mode.POINTED) -> int:
    """dim H_k(n) as the sum over s of C(n, s) dim W_s(k), each block's
    homology built from its listed slices: the route to a cell's dimension
    that a zero differential's count replaced."""
    return sum(comb(n, s) * homology(model, s, k, mode, block=True).dim
               for s in range(1, min(n, support_bound(model, k)) + 1))
