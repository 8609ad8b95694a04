"""Free graded Lie algebras on summed generator sets, realized inside the
tensor algebra.

The basis in each total degree is the super-Lyndon basis: standard
bracketings of Lyndon words, plus self-brackets [w,w] of Lyndon words of odd
total degree.  All bracket arithmetic happens in tensor coordinates, where
the only sign rule is the Koszul commutator [u,v] = uv - (-1)^{|u||v|}vu;
re-expression in the Lyndon basis is back-substitution on leading words,
since each basis expansion leads with its own word (or ww for [w,w]).  Lyndon
expansions carry int coefficients (standard bracketings are integral), and
every coefficient stays an int until a division is inexact.

A Lie element is a ``LieVector``, a plain dict from basis elements to
coefficients that follows ratlinalg's ``Vector`` convention: no zero is
stored, and the degree is not stored either, since every caller knows it
(``from_tensor`` takes it).

Generator order is summand-major: inside L(H^(+n)) the copy index is
compared first, the base generator index second.  This order defines which
words are Lyndon and is fixed once and for all.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Mapping, Sequence
from fractions import Fraction
from functools import cache, cached_property
from math import comb

from .ratlinalg import (CheckFailure, SparseMatrix, SpanSolver, add_scaled,
                        inverse)

Word = tuple[int, ...]
TensorVector = dict[Word, Fraction]

# A differential expression: sum of (coefficient, node) terms, where a node
# is a generator symbol or a nested pair of nodes.
ExprNode = str | tuple
ExprTerms = tuple[tuple[Fraction, ExprNode], ...]


class BasisExpressionFailure(CheckFailure):
    """A tensor element expected to lie in the Lyndon span did not."""


class SingularPairing(CheckFailure):
    """The pairing matrix is not invertible."""


class OmegaNotCycle(CheckFailure):
    """The intersection element is not annihilated by the differential."""


def _is_node(x) -> bool:
    if isinstance(x, str):
        return True
    return (isinstance(x, tuple) and len(x) == 2
            and _is_node(x[0]) and _is_node(x[1]))


def _expr_terms(value) -> ExprTerms:
    """Normalize a differential right-hand side to ((coeff, node), ...)."""
    if _is_node(value):
        return ((Fraction(1), value),)
    return tuple((Fraction(c), node) for c, node in value)


def _expr_text(terms: ExprTerms) -> str:
    def node_text(node):
        if isinstance(node, str):
            return node
        return f"[{node_text(node[0])},{node_text(node[1])}]"
    return " + ".join(f"{c}*{node_text(n)}" for c, n in terms)


class ModelSpec:
    """A quasi-free dg Lie model of a base space: graded generators, a
    differential on generators, and optionally a degree-(d-2) inner product
    together with the ambient dimension d."""

    def __init__(self, name: str,
                 generators: Sequence[tuple[str, int]],
                 differential: Mapping[str, object] | None = None,
                 pairing: Sequence[tuple[str, str, Fraction]] | None = None,
                 ambient_dim: int | None = None,
                 minimal: bool = True):
        self.name = name
        self.generators = tuple((str(s), int(d)) for s, d in generators)
        diff = differential or {}
        self.differential = {str(s): _expr_terms(v) for s, v in diff.items()}
        self.pairing = tuple((str(a), str(b), Fraction(c))
                             for a, b, c in (pairing or ()))
        self.ambient_dim = ambient_dim
        self.minimal = minimal
        self.key = (name, self.generators,
                    tuple(sorted((s, _expr_text(t))
                                 for s, t in self.differential.items())),
                    self.pairing, ambient_dim, minimal)

    @property
    def symbols(self) -> tuple[str, ...]:
        return tuple(s for s, _ in self.generators)

    def degree_of(self, symbol: str) -> int:
        for s, d in self.generators:
            if s == symbol:
                return d
        raise KeyError(symbol)

    @property
    def has_pairing(self) -> bool:
        return bool(self.pairing)

    def pairing_matrix(self) -> list[list[Fraction]]:
        """Full pairing matrix, completed by graded anti-symmetry.

        <x,y> = -(-1)^{|x||y|} <y,x>; declared entries win and conflicts
        raise ValueError.
        """
        syms = self.symbols
        index = {s: i for i, s in enumerate(syms)}
        m = len(syms)
        mat: list[list[Fraction | None]] = [[None] * m for _ in range(m)]
        for a, b, c in self.pairing:
            ia, ib = index[a], index[b]
            da, db = self.degree_of(a), self.degree_of(b)
            mirror = -c if (da * db) % 2 == 0 else c
            for (i, j, v) in ((ia, ib, c), (ib, ia, mirror)):
                if mat[i][j] is not None and mat[i][j] != v:
                    raise ValueError(
                        f"inconsistent pairing entries for ({syms[i]},{syms[j]})")
                mat[i][j] = v
        return [[v if v is not None else Fraction(0) for v in row]
                for row in mat]

    def __eq__(self, other) -> bool:
        return isinstance(other, ModelSpec) and self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)

    def __repr__(self) -> str:
        return f"ModelSpec({self.name!r}, {len(self.generators)} generators)"


class LieBasisElement(namedtuple("LieBasisElement", ["square", "word"])):
    """A Lyndon word (``word: Word``) with its standard bracketing, or the
    square [w,w] of a Lyndon word w of odd total degree (``square: bool``).
    A tuple, so that hashing and ordering (by square, then word) run in C."""
    __slots__ = ()

    def __repr__(self) -> str:
        body = ",".join(str(x) for x in self.word)
        return f"[[{body}]]" if self.square else f"[{body}]"


LieVector = dict[LieBasisElement, Fraction]


class _Slice:
    """Super-Lyndon basis of one total degree.  Its tensor expansions are
    built on first use of ``solver``, keyed by leading word, so that a
    tensor vector is re-expressed in this basis by back-substitution."""

    def __init__(self, genset: GeneratorSet, elements: list[LieBasisElement]):
        self.genset = genset
        self.elements = elements

    @property
    def dim(self) -> int:
        return len(self.elements)

    @cached_property
    def solver(self) -> SpanSolver:
        solver = SpanSolver()
        for i, elem in enumerate(self.elements):
            if not solver.add(self.genset.expansion(elem)):
                raise BasisExpressionFailure(
                    f"basis expansion at position {i} is zero or shares its "
                    f"leading word with an earlier one")
        return solver


class GeneratorSet:
    """Generators of L(H^(+n)): one copy of the model's generator list per
    summand, ordered summand-major.  Generator id = summand*m + base_index."""

    def __init__(self, model: ModelSpec, arity: int):
        if arity < 1:
            raise ValueError("arity must be at least 1")
        self.model = model
        self.arity = arity
        self.base_count = len(model.generators)
        self.count = self.base_count * arity
        self.degrees = [d for _ in range(arity) for _, d in model.generators]
        self._slices: dict[int, _Slice] = {}
        self._expansion_cache: dict[LieBasisElement, TensorVector] = {}
        self._d_cache: dict[LieBasisElement, dict] = {}  # d, Lyndon coords
        self._lyndon_cache: dict[int, dict[int, int]] = {}  # up_to -> counts
        self._diff_tensor = self._build_differential()

    # -- identity -----------------------------------------------------------

    def gen_id(self, base_index: int, summand: int) -> int:
        return summand * self.base_count + base_index

    def base_index(self, gid: int) -> int:
        return gid % self.base_count

    def summand(self, gid: int) -> int:
        return gid // self.base_count

    def symbol(self, gid: int) -> str:
        base = self.model.generators[self.base_index(gid)][0]
        if self.arity == 1:
            return base
        return f"{base}^{self.summand(gid) + 1}"

    def word_degree(self, word: Word) -> int:
        return sum(self.degrees[g] for g in word)

    def element_degree(self, elem: LieBasisElement) -> int:
        d = self.word_degree(elem.word)
        return 2 * d if elem.square else d

    # -- differential -------------------------------------------------------

    def _build_differential(self) -> dict[int, TensorVector]:
        out: dict[int, TensorVector] = {}
        base_tensors: dict[int, TensorVector] = {}
        for i, (sym, _) in enumerate(self.model.generators):
            terms = self.model.differential.get(sym)
            if terms:
                vec, _ = _evaluate_expr(self, terms, summand=0)
                if vec:  # an expression such as [a,[a,a]] can vanish
                    base_tensors[i] = vec
        for j in range(self.arity):
            for i, vec in base_tensors.items():
                shifted = {tuple(g + j * self.base_count for g in w): c
                           for w, c in vec.items()}
                out[self.gen_id(i, j)] = shifted
        return out

    @property
    def has_zero_differential(self) -> bool:
        return not self._diff_tensor

    def differential(self, elem: LieBasisElement) -> LieVector:
        """Shared, memoized d(elem) in Lyndon coordinates (do not mutate);
        zero without expanding elem when no letter of its word has a d."""
        out = self._d_cache.get(elem)
        if out is None:
            out = {}
            if not self._diff_tensor.keys().isdisjoint(elem.word):
                vec = apply_values_tensor(self, -1, self._diff_tensor,
                                          self.expansion(elem))
                out = self.from_tensor(self.element_degree(elem) - 1, vec)
            self._d_cache[elem] = out
        return out

    # -- basis --------------------------------------------------------------

    def slice(self, degree: int) -> _Slice:
        sl = self._slices.get(degree)
        if sl is None:
            sl = self._build_slice(degree)
            self._slices[degree] = sl
        return sl

    def _lyndon_words(self, degree: int) -> list[Word]:
        """Lyndon words of one total degree in lexicographic order, grown as
        prenecklaces (Fredricksen-Kessler-Maiorana): a letter may extend a
        prefix of period p only if it is >= the letter p places back, and a
        complete word is Lyndon when its period is its length."""
        out: list[Word] = []
        degrees, count = self.degrees, self.count
        word: list[int] = []

        def extend(remaining: int, period: int):
            t = len(word)
            least = word[t - period] if t else 0
            for g in range(least, count):
                d = degrees[g]
                if d > remaining:
                    continue
                word.append(g)
                p = period if t and g == least else t + 1
                if d < remaining:
                    extend(remaining - d, p)
                elif p == t + 1:
                    out.append(tuple(word))
                word.pop()

        if degree >= 1:
            extend(degree, 1)
        return out

    def _build_slice(self, degree: int) -> _Slice:
        elements = [LieBasisElement(False, w)
                    for w in self._lyndon_words(degree)]
        if degree % 4 == 2:  # squares [w,w] need w of odd total degree
            elements += [LieBasisElement(True, w)
                         for w in self._lyndon_words(degree // 2)]
        expected = lie_dim(self, degree)
        if len(elements) != expected:
            raise BasisExpressionFailure(
                f"basis count {len(elements)} in degree {degree} does not "
                f"match the dimension formula {expected}")
        return _Slice(self, elements)

    def expansion(self, elem: LieBasisElement) -> TensorVector:
        """Tensor expansion of a letter, of [w, w], or of the standard
        bracketing [u, v] of a longer Lyndon word w = uv; memoized above
        one letter, so each Lyndon factor u, v is expanded once."""
        word = elem.word
        if len(word) == 1 and not elem.square:
            return {word: 1}
        cached = self._expansion_cache.get(elem)
        if cached is None:
            u, v = (word, word) if elem.square else \
                _standard_factorization(word)
            cached = tensor_commutator(
                self.expansion(LieBasisElement(False, u)),
                self.expansion(LieBasisElement(False, v)),
                self.word_degree(u), self.word_degree(v))
            self._expansion_cache[elem] = cached
        return cached

    def lyndon_counts(self, up_to: int) -> dict[int, int]:
        """Memoized _lyndon_counts(self, up_to)."""
        if up_to not in self._lyndon_cache:
            self._lyndon_cache[up_to] = _lyndon_counts(self, up_to)
        return self._lyndon_cache[up_to]

    # -- conversions --------------------------------------------------------

    def to_tensor(self, e: LieVector) -> TensorVector:
        out: TensorVector = {}
        for elem, c in e.items():
            add_scaled(out, c, self.expansion(elem))
        return out

    def from_tensor(self, degree: int, vec: TensorVector) -> LieVector:
        """vec, homogeneous of the given degree, in Lyndon coordinates."""
        if not vec:
            return {}
        sl = self.slice(degree)
        coords = sl.solver.express(vec)
        if coords is None:
            raise BasisExpressionFailure(
                f"tensor element of degree {degree} is outside the Lyndon span")
        return {sl.elements[i]: c for i, c in coords.items()}

def _is_lyndon(word: Word) -> bool:
    n = len(word)
    for i in range(1, n):
        if word >= word[i:]:
            return False
    return True


def _standard_factorization(word: Word) -> tuple[Word, Word]:
    """Split a Lyndon word as u*v with v its longest proper Lyndon suffix."""
    for i in range(1, len(word)):
        if _is_lyndon(word[i:]):
            return word[:i], word[i:]
    raise ValueError(f"not factorizable: {word}")


def tensor_concat(u: TensorVector, v: TensorVector) -> TensorVector:
    out: TensorVector = {}
    for wu, cu in u.items():
        for wv, cv in v.items():
            w = wu + wv
            nv = out.get(w, 0) + cu * cv
            if nv:
                out[w] = nv
            else:
                out.pop(w, None)
    return out


def tensor_commutator(u: TensorVector, v: TensorVector,
                      deg_u: int, deg_v: int) -> TensorVector:
    """[u,v] = uv - (-1)^{|u||v|} vu in the tensor algebra."""
    sign = -1 if (deg_u * deg_v) % 2 else 1
    return add_scaled(tensor_concat(u, v), -sign, tensor_concat(v, u))


def apply_values_tensor(genset: GeneratorSet, op_degree: int,
                        values: Mapping[int, TensorVector],
                        vec: TensorVector) -> TensorVector:
    """Extend generator values to a degree-op_degree derivation of the tensor
    algebra and apply it: the letter in position p is replaced by its value,
    with Koszul sign (-1)^{op_degree * (degree of the prefix)}."""
    out: TensorVector = {}
    degrees = genset.degrees
    for word, c in vec.items():
        prefix_deg = 0
        for pos, letter in enumerate(word):
            val = values.get(letter)
            if val:
                sign = -1 if (op_degree * prefix_deg) % 2 else 1
                head, tail = word[:pos], word[pos + 1:]
                for w2, c2 in val.items():
                    nw = head + w2 + tail
                    nv = out.get(nw, 0) + sign * c * c2
                    if nv:
                        out[nw] = nv
                    else:
                        out.pop(nw, None)
            prefix_deg += degrees[letter]
    return out


def _evaluate_expr(genset: GeneratorSet, terms: ExprTerms,
                   summand: int) -> tuple[TensorVector, int]:
    """Evaluate a differential expression into tensor coordinates."""
    index = {s: i for i, (s, _) in enumerate(genset.model.generators)}

    def node(n) -> tuple[TensorVector, int]:
        if isinstance(n, str):
            if n not in index:
                raise KeyError(f"unknown generator symbol {n!r}")
            gid = genset.gen_id(index[n], summand)
            return {(gid,): 1}, genset.degrees[gid]
        lv, ld = node(n[0])
        rv, rd = node(n[1])
        return tensor_commutator(lv, rv, ld, rd), ld + rd

    total: TensorVector = {}
    degree = None
    for coeff, n in terms:
        vec, d = node(n)
        if degree is None:
            degree = d
        elif d != degree and vec:
            raise ValueError("inhomogeneous differential expression")
        add_scaled(total, coeff.numerator if coeff.denominator == 1
                   else coeff, vec)
    return total, (degree if degree is not None else 0)


# -- public operations -------------------------------------------------------

@cache
def free_product_generators(model: ModelSpec, n: int) -> GeneratorSet:
    """Generator set of L(H^(+n)); the differential acts summand-wise."""
    return GeneratorSet(model, n)


def lyndon_basis(genset: GeneratorSet, degree: int) -> list[LieBasisElement]:
    """Ordered super-Lyndon basis of the given total degree."""
    if degree < 1:
        return []
    return list(genset.slice(degree).elements)


def apply_differential(genset: GeneratorSet, e: LieVector) -> LieVector:
    """d(e), extended from generators by the graded Leibniz rule."""
    out: LieVector = {}
    for elem, c in e.items():
        add_scaled(out, c, genset.differential(elem))
    return out


def _pairing_inverse(model: ModelSpec) -> SparseMatrix | None:
    mat = model.pairing_matrix()
    n = len(mat)
    return inverse(SparseMatrix(n, n, {(i, j): v
                                       for i, row in enumerate(mat)
                                       for j, v in enumerate(row)}))


def dual_basis(model: ModelSpec) -> dict[str, LieVector]:
    """For each generator a_j, the element a_j^# with <a_i, a_j^#> = delta_ij.

    Values are linear combinations of generators of degree d-2-|a_j|,
    obtained by inverting the pairing matrix.
    """
    if not model.has_pairing:
        raise SingularPairing("model carries no pairing")
    inv = _pairing_inverse(model)
    if inv is None:
        raise SingularPairing("pairing matrix is singular")
    genset = free_product_generators(model, 1)
    d = model.ambient_dim
    out = {}
    for j, (sym, deg) in enumerate(model.generators):
        out[sym] = {}
        for k, c in inv.column(j).items():
            if genset.degrees[k] != d - 2 - deg:
                raise SingularPairing(
                    "pairing entries violate the degree constraint")
            out[sym][LieBasisElement(False, (k,))] = c
    return out


def relabel_tensor(src: GeneratorSet, dst: GeneratorSet,
                   summand_map: Sequence[int],
                   vec: TensorVector) -> TensorVector:
    m = src.base_count
    out: TensorVector = {}
    for w, c in vec.items():
        nw = tuple(summand_map[g // m] * m + (g % m) for g in w)
        out[nw] = out.get(nw, 0) + c
    return {w: c for w, c in out.items() if c != 0}


def relabel_basis_element(src: GeneratorSet, dst: GeneratorSet,
                          summand_map: Sequence[int],
                          elem: LieBasisElement) -> LieVector:
    """sigma . elem in dst's Lyndon coordinates, where summand j of src goes
    to summand summand_map[j] of dst.  When the map is increasing on the
    summands of elem's word, the relabeled word is Lyndon with the same
    standard bracketing, so the image is one basis element; otherwise the
    relabeled expansion is re-expressed in dst."""
    m = src.base_count
    summands = sorted({g // m for g in elem.word})
    if all(summand_map[a] < summand_map[b]
           for a, b in zip(summands, summands[1:])):
        word = tuple(summand_map[g // m] * m + g % m for g in elem.word)
        return {LieBasisElement(elem.square, word): 1}
    vec = relabel_tensor(src, dst, summand_map, src.expansion(elem))
    return dst.from_tensor(src.element_degree(elem), vec)


def relabel_element(src: GeneratorSet, dst: GeneratorSet,
                    summand_map: Sequence[int],
                    e: LieVector) -> LieVector:
    """Push e along a summand relabeling, one basis element at a time."""
    out: LieVector = {}
    for elem, c in e.items():
        add_scaled(out, c, relabel_basis_element(src, dst, summand_map, elem))
    return out


@cache
def omega(model: ModelSpec, n: int) -> LieVector:
    """The degree-(d-2) element (1/2) sum [(a_i^j)^#, a_i^j] over all n*m
    generators, normalized so the least basis bracket has positive
    coefficient.  omega_1 is checked to be a differential cycle.  The form
    of a connected sum is the orthogonal sum of its summands' forms, so
    omega_n is omega_1 copied onto each summand: a cycle, since d acts
    summand-wise, and invariant, since a summand permutation permutes the
    copies.  Shared and memoized: do not mutate."""
    if n < 1:
        raise ValueError("arity must be at least 1")
    genset = free_product_generators(model, n)
    if n > 1:  # the copies have disjoint supports
        base, w1 = free_product_generators(model, 1), omega(model, 1)
        return {b: c for j in range(n)
                for b, c in relabel_element(base, genset, (j,), w1).items()}
    duals = dual_basis(model)
    d = model.ambient_dim
    total: TensorVector = {}
    for i, (sym, deg) in enumerate(model.generators):
        term = tensor_commutator(genset.to_tensor(duals[sym]), {(i,): 1},
                                 d - 2 - deg, deg)
        add_scaled(total, Fraction(1, 2), term)
    elem = genset.from_tensor(d - 2, total)
    if not elem:
        raise SingularPairing("intersection element vanished")
    if elem[min(elem)] < 0:
        elem = {b: -c for b, c in elem.items()}
    if apply_differential(genset, elem):
        raise OmegaNotCycle(
            f"d(omega_1) != 0 for model {model.name}; inconsistent data")
    return elem


# -- dimension formulas -------------------------------------------------------


def _mobius(n: int) -> int:
    if n == 1:
        return 1
    res = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            res = -res
        p += 1
    if n > 1:
        res = -res
    return res


def _degree_counts(genset: GeneratorSet) -> dict[int, int]:
    counts: dict[int, int] = {}
    for d in genset.degrees:
        counts[d] = counts.get(d, 0) + 1
    return counts


def _lyndon_counts(genset: GeneratorSet, up_to: int) -> dict[int, int]:
    """Number of Lyndon words in each total degree <= up_to, keyed by the
    degrees reachable from the alphabet (every other degree has none).

    Uses the unique-factorization identity: if h(t) is the generating
    function of the alphabet by degree, then sum_m l_m * sum_e t^{me}/e
    equals -log(1 - h(t)).  The series are kept on reachable degrees only,
    so the cost does not grow with the size of a generator's degree.
    """
    h = {d: c for d, c in _degree_counts(genset).items() if 1 <= d <= up_to}
    # B[N] = N * [t^N](-log(1-h)) = sum_{m | N} m * l_m
    log_coeffs: dict[int, Fraction] = {}
    power = {0: 1}
    r = 0
    while power:
        r += 1
        nxt: dict[int, int] = {}
        for i, a in power.items():
            for j, b in h.items():
                if i + j <= up_to:
                    nxt[i + j] = nxt.get(i + j, 0) + a * b
        power = nxt
        for i, a in power.items():
            log_coeffs[i] = log_coeffs.get(i, 0) + Fraction(a, r)
    counts: dict[int, int] = {}
    for m in log_coeffs:
        total = 0
        for d, c in log_coeffs.items():
            if m % d == 0:
                mu = _mobius(m // d)
                if mu:
                    b = d * c
                    assert b.denominator == 1
                    total += mu * int(b)
        assert total % m == 0
        counts[m] = total // m
    return counts


def lie_dim(genset: GeneratorSet, degree: int) -> int:
    """dim of the free graded Lie algebra in one total degree: Lyndon words
    of that degree, plus squares of odd-degree Lyndon words."""
    if degree < 1:
        return 0
    counts = genset.lyndon_counts(degree)
    dim = counts.get(degree, 0)
    if degree % 2 == 0 and (degree // 2) % 2 == 1:
        dim += counts.get(degree // 2, 0)
    return dim


def tensor_hilbert_series(genset: GeneratorSet, up_to: int) -> list[int]:
    """Coefficients of 1/(1 - h(t)) for the alphabet series h."""
    h = [0] * (up_to + 1)
    for d, c in _degree_counts(genset).items():
        if d <= up_to:
            h[d] += c
    g = [0] * (up_to + 1)
    g[0] = 1
    for n in range(1, up_to + 1):
        g[n] = sum(h[i] * g[n - i] for i in range(1, n + 1))
    return g


class PbwReport(namedtuple("PbwReport", ["ok", "first_failure", "up_to"])):
    """ok: bool; first_failure: the least failing degree, or None;
    up_to: int."""
    __slots__ = ()


def pbw_series_check(genset: GeneratorSet, up_to: int) -> PbwReport:
    """Verify prod_m (1+t^m)^{o_m} (1-t^m)^{-e_m} against the tensor algebra
    Hilbert series, where o_m/e_m are the computed odd/even dimensions."""
    if up_to < 1:
        raise ValueError("up_to must be at least 1")
    dims = [lie_dim(genset, m) for m in range(up_to + 1)]
    lhs = [0] * (up_to + 1)
    lhs[0] = 1
    for m in range(1, up_to + 1):
        e = dims[m]
        if e == 0:
            continue
        factor = [0] * (up_to + 1)
        if m % 2 == 1:  # odd part: (1 + t^m)^e
            for r in range(0, up_to // m + 1):
                factor[r * m] = comb(e, r)
        else:  # even part: (1 - t^m)^{-e}
            for r in range(0, up_to // m + 1):
                factor[r * m] = comb(e + r - 1, r)
        nxt = [0] * (up_to + 1)
        for i in range(up_to + 1):
            if lhs[i]:
                for j in range(0, up_to + 1 - i, 1):
                    if factor[j]:
                        nxt[i + j] += lhs[i] * factor[j]
        lhs = nxt
    rhs = tensor_hilbert_series(genset, up_to)
    for m in range(up_to + 1):
        if lhs[m] != rhs[m]:
            return PbwReport(False, m, up_to)
    return PbwReport(True, None, up_to)


# -- model validation ---------------------------------------------------------


def validate_model(model: ModelSpec) -> list[str]:
    """All validation-rule violations, empty when the model is well formed."""
    problems: list[str] = []
    seen = set()
    for sym, deg in model.generators:
        if sym in seen:
            problems.append(f"duplicate generator symbol {sym!r}")
        seen.add(sym)
        if deg < 1:
            problems.append(
                f"simple-connectivity: generator {sym!r} has degree {deg} < 1")
    if problems:
        return problems

    symbols = set(model.symbols)
    for sym in model.differential:
        if sym not in symbols:
            problems.append(f"differential on unknown symbol {sym!r}")
    if problems:
        return problems

    try:
        genset = GeneratorSet(model, 1)
    except (KeyError, ValueError) as exc:
        return [f"differential expression error: {exc}"]

    index = {s: i for i, s in enumerate(model.symbols)}
    for sym, terms in model.differential.items():
        gid = index[sym]
        vec = genset._diff_tensor.get(gid)
        if not vec:
            continue
        target = model.degree_of(sym) - 1
        for w in vec:
            if genset.word_degree(w) != target:
                problems.append(
                    f"differential of {sym!r} is not homogeneous of "
                    f"degree {target}")
                break
        if model.minimal and any(len(w) < 2 for w in vec):
            problems.append(
                f"minimality: differential of {sym!r} has a linear part")
    if problems:
        return problems

    for gid in range(genset.count):
        vec = genset._diff_tensor.get(gid)
        if not vec:
            continue
        dd = apply_values_tensor(genset, -1, genset._diff_tensor, vec)
        if dd:
            problems.append(
                f"d o d != 0 on generator {genset.symbol(gid)!r}")

    if model.has_pairing:
        if model.ambient_dim is None:
            problems.append("pairing requires ambient_dim")
        elif model.ambient_dim < 3:
            problems.append(
                f"ambient_dim must be at least 3, got {model.ambient_dim}")
        else:
            d = model.ambient_dim
            for a, b, c in model.pairing:
                if a not in symbols or b not in symbols:
                    problems.append(f"pairing on unknown symbols ({a},{b})")
                    continue
                if model.degree_of(a) + model.degree_of(b) != d - 2:
                    problems.append(
                        f"pairing <{a},{b}> violates |a|+|b| = d-2")
            if not problems:
                try:
                    if _pairing_inverse(model) is None:
                        problems.append("pairing matrix is degenerate")
                except ValueError as exc:
                    problems.append(str(exc))
    elif model.ambient_dim is not None and model.ambient_dim < 3:
        problems.append(
            f"ambient_dim must be at least 3, got {model.ambient_dim}")
    return problems
