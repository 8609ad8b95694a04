"""Independent brute-force oracle used by the test suite.

Everything here works in raw tensor-algebra coordinates with dense exact
linear algebra: free Lie algebra slices are spans of iterated commutators,
derivation complexes are assembled generator by generator, and homology
dimensions come from textbook Gaussian elimination over Fraction.  No code
from the main package is used except model data containers, so agreement
with the engine is a genuine cross-check.
"""

from fractions import Fraction
from itertools import product

F = Fraction


# ---- dense linear algebra ----------------------------------------------------

def rref_dense(rows):
    """Reduced row echelon form of a list of Fraction lists."""
    rows = [list(r) for r in rows]
    basis, pivots = [], []
    for r in rows:
        for p, b in zip(pivots, basis):
            if r[p] != 0:
                c = r[p]
                r = [x - c * y for x, y in zip(r, b)]
        lead = next((i for i, x in enumerate(r) if x != 0), None)
        if lead is None:
            continue
        c = r[lead]
        r = [x / c for x in r]
        for i, b in enumerate(basis):
            if b[lead] != 0:
                cc = b[lead]
                basis[i] = [x - cc * y for x, y in zip(b, r)]
        basis.append(r)
        pivots.append(lead)
    order = sorted(range(len(pivots)), key=lambda i: pivots[i])
    return [basis[i] for i in order], [pivots[i] for i in order]


def dense_rank(rows):
    return len(rref_dense(rows)[0])


def dense_kernel(rows, ncols):
    """Kernel basis of the matrix with the given rows."""
    basis, pivots = rref_dense(rows)
    pivot_set = set(pivots)
    out = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        v = [F(0)] * ncols
        v[f] = F(1)
        for p, row in zip(pivots, basis):
            v[p] = -row[f]
        out.append(v)
    return out


def express_in(basis_rows, pivots, vec):
    """Coordinates of vec in an RREF basis, or None."""
    coords = [vec[p] for p in pivots]
    resid = list(vec)
    for c, row in zip(coords, basis_rows):
        if c != 0:
            resid = [x - c * y if y else x for x, y in zip(resid, row)]
    if any(x != 0 for x in resid):
        return None
    return coords


# ---- tensor algebra on weighted alphabets ------------------------------------

def words_of_degree(degrees, target, keep=None):
    """All words over range(len(degrees)) of the given total degree, in
    lexicographic order; with keep, only those it accepts."""
    out = []

    def extend(prefix, remaining):
        for g, d in enumerate(degrees):
            if d < remaining:
                extend(prefix + (g,), remaining - d)
            elif d == remaining:
                word = prefix + (g,)
                if keep is None or keep(word):
                    out.append(word)

    if target >= 1:
        extend((), target)
    return out


def is_lyndon(word):
    """Strictly smaller than each of its proper suffixes."""
    return min(word) == word[0] and all(word < word[i:]
                                        for i in range(1, len(word)))


def super_lyndon_listing(degrees, degree):
    """The super-Lyndon basis of one total degree by generate-and-test, as
    (square, word) pairs: every word of the degree that is Lyndon, then
    [w,w] for each Lyndon word w of the odd half degree."""
    out = [(False, w) for w in words_of_degree(degrees, degree, is_lyndon)]
    if degree % 4 == 2:
        out += [(True, w) for w in words_of_degree(degrees, degree // 2,
                                                   is_lyndon)]
    return out


class WordSpace:
    """Dense coordinates on the span of all words of one degree."""

    def __init__(self, degrees, degree):
        self.degrees = list(degrees)
        self.degree = degree
        self.words = words_of_degree(self.degrees, degree)
        self.index = {w: i for i, w in enumerate(self.words)}

    @property
    def dim(self):
        return len(self.words)

    def zero(self):
        return [F(0)] * self.dim


class TensorContext:
    """Word spaces for every degree plus commutator/derivation helpers."""

    def __init__(self, degrees, max_degree):
        self.degrees = list(degrees)
        self.spaces = {m: WordSpace(degrees, m)
                       for m in range(1, max_degree + 1)}

    def commutator(self, u, du, v, dv):
        """[u,v] as a dense vector in degree du+dv."""
        src_u = self.spaces[du].words
        src_v = self.spaces[dv].words
        tgt = self.spaces[du + dv]
        out = tgt.zero()
        sign = -1 if (du * dv) % 2 else 1
        for i, cu in enumerate(u):
            if cu == 0:
                continue
            for j, cv in enumerate(v):
                if cv == 0:
                    continue
                out[tgt.index[src_u[i] + src_v[j]]] += cu * cv
                out[tgt.index[src_v[j] + src_u[i]]] -= sign * cu * cv
        return out

    def lie_slice(self, degree):
        """RREF basis (rows, pivots) of the degree slice of the free graded
        Lie algebra, built by spanning iterated commutators."""
        key = ("lie", degree)
        cached = getattr(self, "_cache", None)
        if cached is None:
            self._cache = cached = {}
        if key in cached:
            return cached[key]
        if degree < 1:
            return [], []
        gens = []
        for g, d in enumerate(self.degrees):
            if d == degree:
                v = self.spaces[degree].zero()
                v[self.spaces[degree].index[(g,)]] = F(1)
                gens.append(v)
        vectors = list(gens)
        for p in range(1, degree):
            q = degree - p
            left, _ = self.lie_slice(p)
            right, _ = self.lie_slice(q)
            for u in left:
                for v in right:
                    vectors.append(self.commutator(u, p, v, q))
        rows, pivots = rref_dense(vectors)
        cached[key] = (rows, pivots)
        return rows, pivots

    def lie_dim(self, degree):
        return len(self.lie_slice(degree)[0])

    def apply_derivation(self, values, op_degree, vec, src_degree):
        """Apply the derivation with the given generator values (dense
        vectors keyed by generator, value degree = |g| + op_degree)."""
        src = self.spaces[src_degree]
        tgt = self.spaces[src_degree + op_degree]
        out = tgt.zero()
        for wi, c in enumerate(vec):
            if c == 0:
                continue
            word = src.words[wi]
            prefix = 0
            for pos, letter in enumerate(word):
                val = values.get(letter)
                if val is not None:
                    sign = -1 if (op_degree * prefix) % 2 else 1
                    vdeg = self.degrees[letter] + op_degree
                    vwords = self.spaces[vdeg].words
                    for k, cv in enumerate(val):
                        if cv == 0:
                            continue
                        nw = word[:pos] + vwords[k] + word[pos + 1:]
                        out[tgt.index[nw]] += sign * c * cv
                prefix += self.degrees[letter]
        return out


# ---- derivation complexes ----------------------------------------------------

class BruteModel:
    """Hard-coded model data: generator degrees for one summand, an optional
    differential (generator -> dense tensor vector at arity 1), an optional
    pairing matrix with ambient dimension."""

    def __init__(self, degrees, differential=None, pairing=None,
                 ambient_dim=None):
        self.base_degrees = list(degrees)
        self.base_differential = differential or {}
        self.pairing = pairing
        self.ambient_dim = ambient_dim


class BruteComplex:
    """Derivation complex of L(H^(+n)) in raw tensor coordinates."""

    def __init__(self, model, n, max_degree):
        self.model = model
        self.n = n
        self.m = len(model.base_degrees)
        self.degrees = model.base_degrees * n
        self.ctx = TensorContext(self.degrees, max_degree)
        self.diff_values = self._relabel_differential()
        self._cycles_boundaries = {}  # k -> RREF bases of ker, im (traces)

    def _relabel_differential(self):
        values = {}
        base = self.model.base_differential
        if not base:
            return values
        base_degrees = self.model.base_degrees
        base_ctx = TensorContext(base_degrees, max(base_degrees))
        for j in range(self.n):
            for i, vec in base.items():
                deg = base_degrees[i] - 1
                src_words = base_ctx.spaces[deg].words
                tgt = self.ctx.spaces[deg]
                out = tgt.zero()
                for k, c in enumerate(vec):
                    if c == 0:
                        continue
                    w = tuple(g + j * self.m for g in src_words[k])
                    out[tgt.index[w]] += c
                values[i + j * self.m] = out
        return values

    def slice_coords(self, k):
        """Pointed slice coordinates: (generator, Lie basis position)."""
        coords = []
        for g, d in enumerate(self.degrees):
            rows, _ = self.ctx.lie_slice(d + k)
            for b in range(len(rows)):
                coords.append((g, b))
        return coords

    def slice_dim(self, k):
        return len(self.slice_coords(k))

    def derivation_values(self, coords_vec, k):
        """Generator values (dense) of a derivation given in slice coords."""
        values = {}
        pos = 0
        for g, d in enumerate(self.degrees):
            rows, _ = self.ctx.lie_slice(d + k)
            for b, row in enumerate(rows):
                c = coords_vec[pos]
                pos += 1
                if c == 0:
                    continue
                acc = values.get(g)
                if acc is None:
                    acc = self.ctx.spaces[d + k].zero()
                    values[g] = acc
                for i, x in enumerate(row):
                    acc[i] += c * x
        return values

    def delta_matrix(self, k):
        """Matrix of theta -> d o theta - (-1)^k theta o d, slice k -> k-1,
        as a list of columns in slice-(k-1) coordinates."""
        cols = []
        for g, d in enumerate(self.degrees):
            rows, _ = self.ctx.lie_slice(d + k)
            for row in rows:
                values = {g: row}
                col = []
                sign = -1 if k % 2 else 1
                for g2, d2 in enumerate(self.degrees):
                    # (delta theta)(g2) = d(theta(g2)) - (-1)^k theta(d(g2))
                    tgt_deg = d2 + k - 1
                    acc = self.ctx.spaces[tgt_deg].zero()
                    if g2 == g:
                        img = self.ctx.apply_derivation(
                            self.diff_values, -1, row, d + k)
                        acc = [a + b for a, b in zip(acc, img)]
                    dval = self.diff_values.get(g2)
                    if dval is not None:
                        img = self.ctx.apply_derivation(
                            values, k, dval, d2 - 1)
                        acc = [a - sign * b for a, b in zip(acc, img)]
                    b_rows, b_piv = self.ctx.lie_slice(tgt_deg)
                    coords = express_in(b_rows, b_piv, acc)
                    assert coords is not None
                    col.extend(coords)
                cols.append(col)
        return cols

    def pointed_homology_dim(self, k):
        """dim ker(delta_k) - dim im(delta_{k+1}); k >= 1."""
        dk = self.delta_matrix(k)
        dk1 = self.delta_matrix(k + 1)
        ncols = len(dk)
        rows_k = [[col[i] for col in dk]
                  for i in range(len(dk[0]))] if dk and dk[0] else []
        ker = ncols - (dense_rank(rows_k) if rows_k else 0)
        im = dense_rank(dk1) if dk1 else 0
        return ker - im

    def sigma_matrix(self, sigma, k):
        """Columns of the summand permutation sigma (sigma[j] is the image
        of summand j) on pointed slice-k coordinates: the derivation
        (g -> row b) goes to (sigma g -> sigma . row b), where sigma relabels
        the letters of each word."""
        coords = self.slice_coords(k)
        index = {c: i for i, c in enumerate(coords)}
        mm = self.m

        def move(letter):
            return sigma[letter // mm] * mm + letter % mm

        cols = []
        for g, b in coords:
            degree = self.degrees[g] + k
            rows, pivots = self.ctx.lie_slice(degree)
            space = self.ctx.spaces[degree]
            img = space.zero()
            for wi, c in enumerate(rows[b]):
                if c != 0:
                    word = tuple(move(x) for x in space.words[wi])
                    img[space.index[word]] += c
            coeffs = express_in(rows, pivots, img)
            assert coeffs is not None, "relabeled element left the Lie slice"
            col = [F(0)] * len(coords)
            for b2, c in enumerate(coeffs):
                col[index[(move(g), b2)]] = c
            cols.append(col)
        return cols

    def homology_trace(self, sigma, k):
        """tr(sigma | H_k) = tr(sigma | ker delta_k) - tr(sigma | im
        delta_{k+1}) in the pointed complex, k >= 1; both subspaces are
        sigma-invariant because sigma commutes with delta."""
        if k not in self._cycles_boundaries:
            dk = self.delta_matrix(k)
            rows_k = [[col[i] for col in dk]
                      for i in range(self.slice_dim(k - 1))]
            self._cycles_boundaries[k] = (
                rref_dense(dense_kernel(rows_k, len(dk))),
                rref_dense(self.delta_matrix(k + 1)))
        cycles, boundaries = self._cycles_boundaries[k]
        act = self.sigma_matrix(sigma, k)
        return _subspace_trace(act, *cycles) - _subspace_trace(act, *boundaries)

    # -- boundary mode ---------------------------------------------------------

    def omega_vector(self):
        """Dense tensor vector of the intersection element at arity n."""
        pmat = self.model.pairing
        mm = self.m
        inv = dense_inverse(pmat)
        d = self.model.ambient_dim
        tgt = self.ctx.spaces[d - 2]
        out = tgt.zero()
        for j in range(self.n):
            for i in range(mm):
                # dual of generator i = sum_k inv[k][i] * gen k
                for kk in range(mm):
                    c = inv[kk][i]
                    if c == 0:
                        continue
                    u = (kk + j * mm,)
                    v = (i + j * mm,)
                    du = self.degrees[kk + j * mm]
                    dv = self.degrees[i + j * mm]
                    sign = -1 if (du * dv) % 2 else 1
                    out[tgt.index[u + v]] += c / 2
                    out[tgt.index[v + u]] -= sign * c / 2
        return out

    def omega_constraint_matrix(self, k):
        """Rows of theta -> theta(omega) over pointed slice coordinates."""
        omega = self.omega_vector()
        d = self.model.ambient_dim
        rows_out = None
        cols = []
        for g, dg in enumerate(self.degrees):
            rows, _ = self.ctx.lie_slice(dg + k)
            for row in rows:
                img = self.ctx.apply_derivation({g: row}, k, omega, d - 2)
                cols.append(img)
        if not cols:
            return []
        nrows = len(cols[0])
        return [[col[i] for col in cols] for i in range(nrows)]

    def boundary_slice_dim(self, k):
        mat = self.omega_constraint_matrix(k)
        ncols = self.slice_dim(k)
        r = dense_rank(mat) if mat else 0
        return ncols - r

    def boundary_basis(self, k):
        """Kernel of the constraint map, as dense slice-coordinate vectors."""
        mat = self.omega_constraint_matrix(k)
        ncols = self.slice_dim(k)
        if not mat:
            mat = [[F(0)] * ncols]
        return dense_kernel(mat, ncols)

    def boundary_delta_images(self, k):
        """Differential images of the degree-k boundary basis, as dense
        vectors in slice-(k-1) coordinates.  Asserts the images stay inside
        the boundary subspace."""
        src = self.boundary_basis(k)
        delta_cols = self.delta_matrix(k)
        tgt = self.boundary_basis(k - 1)
        tgt_rref, tgt_piv = rref_dense(tgt) if tgt else ([], [])
        images = []
        for v in src:
            img = [F(0)] * (len(delta_cols[0]) if delta_cols else 0)
            for c, col in zip(v, delta_cols):
                if c != 0:
                    img = [a + c * b for a, b in zip(img, col)]
            if any(img):
                assert express_in(tgt_rref, tgt_piv, img) is not None, \
                    "image left the subcomplex"
            images.append(img)
        return images

    def boundary_homology_dim(self, k):
        """dim ker - dim im of the restricted complex; ranks only, so no
        choice of target coordinates is needed."""
        imgs_k = self.boundary_delta_images(k)
        imgs_k1 = self.boundary_delta_images(k + 1)
        ker = len(imgs_k) - dense_rank(imgs_k)
        return ker - dense_rank(imgs_k1)


def _subspace_trace(cols, rows, pivots):
    """Trace of the map with the given dense columns on the invariant
    subspace with the RREF basis (rows, pivots)."""
    total = F(0)
    for i, r in enumerate(rows):
        img = [F(0)] * len(r)
        for c, col in zip(r, cols):
            if c != 0:
                img = [a + c * x if x else a for a, x in zip(img, col)]
        coords = express_in(rows, pivots, img)
        assert coords is not None, "subspace is not invariant"
        total += coords[i]
    return total


def dense_inverse(mat):
    n = len(mat)
    aug = [[F(x) for x in row] + [F(int(i == j)) for j in range(n)]
           for i, row in enumerate(mat)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        lead = aug[col][col]
        aug[col] = [x / lead for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


# ---- ready-made model data ---------------------------------------------------

def sphere2_model():
    # one generator of degree 1, no differential
    return BruteModel([1])


def s2xs2_model():
    # two generators of degree 1, pairing <a,b> = 1 = <b,a>, ambient 4
    return BruteModel([1, 1], pairing=[[F(0), F(1)], [F(1), F(0)]],
                      ambient_dim=4)


def cp2_model():
    # one generator of degree 1, pairing <a,a> = 1, ambient 4
    return BruteModel([1], pairing=[[F(1)]], ambient_dim=4)


def s3xs3_model():
    # two generators of degree 2; graded anti-symmetry makes the even-degree
    # pairing classically antisymmetric: <a,b> = 1, <b,a> = -1
    return BruteModel([2, 2], pairing=[[F(0), F(1)], [F(-1), F(0)]],
                      ambient_dim=6)


def cp3_model():
    # generators a (degree 1) and b (degree 3), db = (1/2)[a,a] = aa,
    # hyperbolic pairing <a,b> = <b,a> = 1, ambient dimension 6
    ctx = TensorContext([1, 3], 3)
    space = ctx.spaces[2]
    db = space.zero()
    db[space.index[(0, 0)]] = F(1)
    return BruteModel([1, 3], differential={1: db},
                      pairing=[[F(0), F(1)], [F(1), F(0)]], ambient_dim=6)


def product_model():
    # a, b of degree 2 and c of degree 5 with dc = [a, b] = ab - ba
    ctx = TensorContext([2, 2, 5], 4)
    space = ctx.spaces[4]
    dc = space.zero()
    dc[space.index[(0, 1)]] = F(1)
    dc[space.index[(1, 0)]] = F(-1)
    return BruteModel([2, 2, 5], differential={2: dc})
