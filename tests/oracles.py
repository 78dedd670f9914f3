"""Reference implementations that the tests compare the library against."""

from fractions import Fraction
from math import lcm

from k3stab.lattice import LatticeVector, pair


def solve_rational(a, b):
    """Gauss-Jordan solve of a x = b for a nonsingular rational matrix."""
    n = len(a)
    m = [row[:] + [b[i]] for i, row in enumerate(a)]
    for col in range(n):
        piv = next(i for i in range(col, n) if m[i][col])
        m[col], m[piv] = m[piv], m[col]
        inv = m[col][col]
        m[col] = [x / inv for x in m[col]]
        for i in range(n):
            if i != col and m[i][col]:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[col])]
    return [m[i][n] for i in range(n)]


def dual_eta(lat, basis):
    """The integral class with eta . b_i = -d for every basis vector, d the
    least positive integer that makes it integral, by a Gauss-Jordan solve."""
    gram = [[Fraction(pair(lat, x, y).as_int()) for y in basis] for x in basis]
    coeffs = solve_rational(gram, [Fraction(-1)] * len(basis))
    denom = lcm(*(c.denominator for c in coeffs))
    eta = LatticeVector.zero(lat.rank)
    for c, b in zip(coeffs, basis):
        eta = eta + int(c * denom) * b
    return eta
