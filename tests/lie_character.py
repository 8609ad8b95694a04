"""Closed-form Sigma_n characters of zero-differential derivation homology,
computed without the engine: standard library only, with its own
partitions and cycle-type powers.

A summand permutation sigma with fix(sigma) fixed summands has trace
fix(sigma) * h(q) on V = H^(+n), where h(q) is the degree series of one
summand's generators, so its graded trace on the tensor algebra is
t(sigma; q) = 1 / (1 - fix(sigma) * h(q)).  PBW gives T(V) = S(L_even) x
Lambda(L_odd) as Sigma_n-modules, hence

    log t(sigma; q) = sum_{N, r >= 1} eps(N, r) / r * l_N(sigma^r) q^{rN},

with eps(N, r) = 1 for even N and (-1)^(r-1) for odd N (Brandt, Trans. AMS
56, 1944; Reutenauer, Free Lie Algebras, ch. 8).  Solving for the r = 1
term gives the trace l_M(sigma) of sigma on the Lie slice of degree M.

For a zero differential H_k = Der_k, the sum over generators g of
V_g^dual x L_{|g|+k}, so chi(sigma) = sum_g fix(sigma) * l_{|g|+k}(sigma).
In boundary mode H_k is the kernel of theta -> theta(omega), an
equivariant map onto L_{d-2+k}, whose trace is subtracted.
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd


def partitions(n, largest=None):
    """Partitions of n as non-increasing tuples."""
    if n == 0:
        return [()]
    largest = n if largest is None else largest
    return [(p,) + rest for p in range(min(n, largest), 0, -1)
            for rest in partitions(n - p, p)]


def power_cycle_type(mu, r):
    """Cycle type of sigma^r for sigma of cycle type mu: a c-cycle splits
    into gcd(c, r) cycles of length c / gcd(c, r)."""
    parts = []
    for c in mu:
        g = gcd(c, r)
        parts += [c // g] * g
    return tuple(sorted(parts, reverse=True))


def _log_coefficient(fix, degrees, m):
    """[q^m] of -log(1 - fix * h(q)) = sum_r fix^r / r * [q^m] h(q)^r."""
    total = Fraction(0)
    power = {0: 1}
    r = 0
    while power:
        r += 1
        nxt = {}
        for i, a in power.items():
            for d in degrees:
                if i + d <= m:
                    nxt[i + d] = nxt.get(i + d, 0) + a
        power = nxt
        total += Fraction(fix ** r * power.get(m, 0), r)
    return total


@lru_cache(maxsize=None)
def lie_trace(degrees, mu, m):
    """Trace of a summand permutation of cycle type mu on the degree-m
    slice of the free graded Lie algebra on n copies of the generators of
    the given degrees (a tuple)."""
    value = _log_coefficient(mu.count(1), degrees, m)
    for r in range(2, m + 1):
        if m % r == 0:
            base = m // r
            eps = 1 if base % 2 == 0 else (-1) ** (r - 1)
            value -= Fraction(eps, r) * lie_trace(
                degrees, power_cycle_type(mu, r), base)
    assert value.denominator == 1
    return int(value)


def character(degrees, n, k, omega_degree=None):
    """chi(mu) of H_k at arity n for each cycle type mu; omega_degree is
    d - 2 + k in boundary mode and None in pointed mode."""
    degrees = tuple(degrees)
    out = {}
    for mu in partitions(n):
        value = sum(mu.count(1) * lie_trace(degrees, mu, e + k)
                    for e in degrees)
        if omega_degree is not None:
            value -= lie_trace(degrees, mu, omega_degree)
        out[mu] = value
    return out
