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
from math import comb, gcd

from .ratlinalg import (CheckFailure, SparseMatrix, SpanSolver, add_scaled,
                        inverse)

Word = tuple[int, ...]
TensorVector = dict[Word, Fraction]

# A differential expression: a generator symbol, a bracket (x, y) of two
# expressions, or a linear combination [(coefficient, x), ...]; a sum inside
# a bracket stays a sum until the expression is evaluated.
Expr = str | tuple | list


class BasisExpressionFailure(CheckFailure):
    """A tensor element expected to lie in the Lyndon span did not."""


class SingularPairing(CheckFailure):
    """The pairing matrix is not invertible."""


class OmegaNotCycle(CheckFailure):
    """The intersection element is not annihilated by the differential."""


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
        self.differential = {str(s): v if isinstance(v, list)
                             else [(Fraction(1), v)] for s, v in diff.items()}
        self.pairing = tuple((str(a), str(b), Fraction(c))
                             for a, b, c in (pairing or ()))
        self.ambient_dim = ambient_dim
        self.minimal = minimal
        self.key = (name, self.generators,
                    repr(sorted(self.differential.items())), self.pairing,
                    ambient_dim, minimal)

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
        """d on the generators in tensor coordinates: evaluated at arity 1,
        and copied onto each summand above it, since d acts summand-wise."""
        if self.arity == 1:
            out = {}
            for i, sym in enumerate(self.model.symbols):
                expr = self.model.differential.get(sym, [])
                vec = _evaluate_expr(self, expr)
                if vec:  # an expression such as [a,[a,a]] can vanish
                    out[i] = vec
            return out
        base = free_product_generators(self.model, 1)
        return {self.gen_id(i, j): relabel_tensor(base, (j,), vec)
                for j in range(self.arity)
                for i, vec in base._diff_tensor.items()}

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


def _evaluate_expr(genset: GeneratorSet, expr: Expr) -> TensorVector:
    """Evaluate a differential expression into the tensor coordinates of an
    arity-1 generator set, a sum by linearity; ``validate_model`` has checked
    that every sum in it is homogeneous before anything is expanded."""
    index = {s: i for i, s in enumerate(genset.model.symbols)}

    def value(x: Expr) -> tuple[TensorVector, int]:
        if isinstance(x, str):
            return {(index[x],): 1}, genset.degrees[index[x]]
        if isinstance(x, tuple):
            (lv, ld), (rv, rd) = value(x[0]), value(x[1])
            return tensor_commutator(lv, rv, ld, rd), ld + rd
        total, degree = {}, 0
        for c, term in x:
            vec, degree = value(term)
            add_scaled(total, c.numerator if c.denominator == 1 else c, vec)
        return total, degree

    return value(expr)[0]


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


def relabel_tensor(src: GeneratorSet, summand_map: Sequence[int],
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
    vec = relabel_tensor(src, summand_map, src.expansion(elem))
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


# -- Lie traces and dimensions -----------------------------------------------


def _power_cycle_type(mu: tuple[int, ...], r: int) -> tuple[int, ...]:
    """Cycle type of sigma^r for sigma of cycle type mu: a c-cycle splits
    into gcd(c, r) cycles of length c / gcd(c, r)."""
    return tuple(sorted((c // gcd(c, r) for c in mu for _ in range(gcd(c, r))),
                        reverse=True))


@cache
def _power_coefficients(degrees: tuple[int, ...], m: int) -> tuple[int, ...]:
    """[q^m] h(q)^r for r = 1, 2, ... while h^r has a term of degree <= m,
    with h the degree series of one copy of the generators."""
    coefficients = []
    power = {0: 1}
    while power:
        nxt: dict[int, int] = {}
        for i, a in power.items():
            for d in degrees:
                if i + d <= m:
                    nxt[i + d] = nxt.get(i + d, 0) + a
        power = nxt
        coefficients.append(power.get(m, 0))
    return tuple(coefficients)


@cache
def lie_trace(degrees: tuple[int, ...], mu: tuple[int, ...], m: int) -> int:
    """Trace of a summand permutation sigma of cycle type mu on the degree-m
    slice of the free graded Lie algebra on len(mu) copies of generators of
    the given degrees.  sigma has trace fix * h(q) on the generators, with
    fix its fixed summands and h the degree series of one copy; PBW,
    T = S(L_even) x Lambda(L_odd) as Sigma_n-modules, gives
    -log(1 - fix * h(q)) = sum_{N, r >= 1} eps(N, r)/r * l_N(sigma^r) q^{rN},
    with eps = 1 for even N and (-1)^(r-1) for odd N (Brandt, Trans. AMS 56,
    1944; Reutenauer, Free Lie Algebras, ch. 8).  Its r = 1 term is l_m."""
    fix = mu.count(1)
    # [q^m] -log(1 - fix h) = sum_r fix^r/r [q^m] h^r
    value = sum((Fraction(fix ** r * c, r) for r, c in
                 enumerate(_power_coefficients(degrees, m), 1)), Fraction(0))
    for r in range(2, m + 1):
        if m % r == 0:
            sign = -1 if (m // r) % 2 and r % 2 == 0 else 1
            value -= Fraction(sign, r) * lie_trace(
                degrees, _power_cycle_type(mu, r), m // r)
    assert value.denominator == 1
    return int(value)


def lie_dim(genset: GeneratorSet, degree: int) -> int:
    """dim of the free graded Lie algebra in one total degree: the trace of
    the identity."""
    return lie_trace(tuple(d for _, d in genset.model.generators),
                     (1,) * genset.arity, degree)


def tensor_hilbert_series(genset: GeneratorSet, up_to: int) -> list[int]:
    """Coefficients of 1/(1 - h(t)) for the alphabet series h."""
    h = [0] * (up_to + 1)
    for d in genset.degrees:
        if d <= up_to:
            h[d] += 1
    g = [0] * (up_to + 1)
    g[0] = 1
    for n in range(1, up_to + 1):
        g[n] = sum(h[i] * g[n - i] for i in range(1, n + 1))
    return g


def pbw_series_check(genset: GeneratorSet, up_to: int) -> int | None:
    """Verify prod_m (1+t^m)^{o_m} (1-t^m)^{-e_m} against the tensor algebra
    Hilbert series, where o_m/e_m are lie_dim's odd/even dimensions: the
    trace recursion at the identity against the PBW product it rests on.
    Returns the least degree where the two differ, or None."""
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
    return next((m for m in range(up_to + 1) if lhs[m] != rhs[m]), None)


# -- model validation ---------------------------------------------------------


# The largest number of tensor words into which validation expands one
# differential, or the d o d pass over it.  A bracket doubles the product of
# its sides' counts, so a line of a few dozen characters can expand to
# millions of words; at this limit a model file of under 200 characters is
# validated and priced in under 0.05 s of CPU (2-core Xeon, Python 3.11).
MAX_EXPANSION_WORDS = 2**12
# The bound that k and n have: _lyndon_words recurses once per letter, and a
# listed word then has at most about 200 letters.
MAX_DEGREE = 100


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
        elif deg > MAX_DEGREE:
            problems.append(f"generator {sym!r} has degree {deg} > {MAX_DEGREE}")
    if problems:
        return problems

    symbols = set(model.symbols)
    for sym in model.differential:
        if sym not in symbols:
            problems.append(f"differential on unknown symbol {sym!r}")
    if problems:
        return problems

    # read from the parse tree, before anything is expanded
    degree = dict(model.generators)
    d_words: dict[str, int] = {}

    def measure(x: Expr) -> tuple[int | None, int, int]:
        """x's degree (None when a sum in x mixes degrees), the tensor words
        of its expansion, and the words that d makes from those by the
        Leibniz rule, given d_words; cancellations are not counted."""
        if isinstance(x, str):
            if x not in degree:
                raise KeyError(f"unknown generator symbol {x!r}")
            return degree[x], 1, d_words.get(x, 0)
        if isinstance(x, tuple):
            (ld, lw, ldd), (rd, rw, rdd) = measure(x[0]), measure(x[1])
            return (None if None in (ld, rd) else ld + rd, 2 * lw * rw,
                    2 * (ldd * rw + lw * rdd))
        terms = [measure(term) for _, term in x]
        degrees = {d for d, _, _ in terms}
        return (degrees.pop() if len(degrees) == 1 else None,
                sum(t[1] for t in terms), sum(t[2] for t in terms))

    for sym, expr in model.differential.items():
        try:
            d, d_words[sym], _ = measure(expr)
        except KeyError as exc:
            return [f"differential expression error: {exc}"]
        if d != degree[sym] - 1:
            problems.append(f"differential of {sym!r} is not homogeneous "
                            f"of degree {degree[sym] - 1}")
    if problems:
        return problems
    for sym, expr in model.differential.items():
        words = max(d_words[sym], measure(expr)[2])  # d(sym), d o d on it
        if words > MAX_EXPANSION_WORDS:
            problems.append(f"differential of {sym!r} or d o d on it expands "
                            f"to {words} tensor words, more than "
                            f"{MAX_EXPANSION_WORDS}")
    if problems:
        return problems

    genset = free_product_generators(model, 1)
    for gid, vec in genset._diff_tensor.items():
        if model.minimal and any(len(w) < 2 for w in vec):
            problems.append(f"minimality: differential of "
                            f"{genset.symbol(gid)!r} has a linear part")
    if problems:
        return problems

    for gid, vec in genset._diff_tensor.items():
        if apply_values_tensor(genset, -1, genset._diff_tensor, vec):
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
