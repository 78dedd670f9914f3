"""Reference implementations that the tests compare the library against."""

from fractions import Fraction
from math import lcm

from k3stab.exact import QuadScalar
from k3stab.intmat import enumerate_quadric, kernel_basis, ldl_posdef, mat_vec_int, signature_of
from k3stab.lattice import LatticeVector, MukaiVector, pair
from k3stab.stability import mukai_pair


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


def solve_integer(a, b, ncols=None):
    """One integer solution of a x = b, or None, by unimodular column
    reduction of a (echelon columns, then back substitution)."""
    nrows = len(a)
    if ncols is None:
        ncols = len(a[0]) if a else 0
    cols = [[a[r][c] for r in range(nrows)] for c in range(ncols)]
    ucols = [[1 if i == c else 0 for i in range(ncols)] for c in range(ncols)]
    active = list(range(ncols))
    pivots = []
    for r in range(nrows):
        while True:
            live = sorted((c for c in active if cols[c][r]), key=lambda c: (abs(cols[c][r]), c))
            if len(live) <= 1:
                break
            for c in live[1:]:
                q = cols[c][r] // cols[live[0]][r]
                cols[c] = [x - q * y for x, y in zip(cols[c], cols[live[0]])]
                ucols[c] = [x - q * y for x, y in zip(ucols[c], ucols[live[0]])]
        if live:
            pivots.append((r, live[0]))
            active.remove(live[0])
    residual = list(b)
    x = [0] * ncols
    for r, c in pivots:
        if residual[r] % cols[c][r]:
            return None
        t = residual[r] // cols[c][r]
        residual = [x - t * y for x, y in zip(residual, cols[c])]
        x = [xi + t * ui for xi, ui in zip(x, ucols[c])]
    return None if any(residual) else x


def minus_two_coefficients(gram, bound, target=-2):
    """All integer x with |x_i| <= bound and x^T gram x == target, in
    lexicographic order, by a depth-first scan pruned with interval bounds
    on the remaining linear and quadratic contributions."""
    k = len(gram)
    abs_suffix = [0] * (k + 1)
    for d in range(k - 1, -1, -1):
        abs_suffix[d] = abs_suffix[d + 1] + abs(gram[d][d]) + 2 * sum(
            abs(gram[d][j]) for j in range(d + 1, k)
        )
    neg_semidef = [
        signature_of([row[d:] for row in gram[d:]])[0] == 0 for d in range(k)
    ] + [True]
    out = []
    coeffs = [0] * k
    lin = [0] * k  # lin[j] = sum_{i<d} coeffs[i] * gram[i][j]

    def descend(d, value):
        if d == k:
            if value == target:
                out.append(tuple(coeffs))
            return
        lin_span = 2 * bound * sum(abs(lin[j]) for j in range(d, k))
        quad_mag = bound * bound * abs_suffix[d]
        hi = value + lin_span + (0 if neg_semidef[d] else quad_mag)
        if not (value - lin_span - quad_mag <= target <= hi):
            return
        for t in range(-bound, bound + 1):
            new_value = value + 2 * t * lin[d] + t * t * gram[d][d]
            coeffs[d] = t
            for j in range(k):
                lin[j] += t * gram[d][j]
            descend(d + 1, new_value)
            for j in range(k):
                lin[j] -= t * gram[d][j]
        coeffs[d] = 0

    descend(0, 0)
    return out


def bounded_p0_violations(psi, ns, bound):
    """The bounded (r, s) coset walk that decided suite 6.3 before the
    complete root enumeration: every delta = (r, D, s) with delta^2 = -2,
    |r|, |s| <= bound, D in the coefficient box of the ns basis and
    (Psi, delta) = 0, ordered by (r, s, coefficients).

    (Psi, delta) = 0 splits into integer linear rows on the coefficients
    (rational and radical parts of the pairings with omega and B) with
    targets that depend on (r, s).  Each coset x0 + K y of the row kernel K
    is enumerated by Fincke-Pohst when K is negative definite, with a
    Gauss-Jordan solve for its centre; otherwise the box scan is filtered.
    """
    lat = ns.ambient
    gram = ns.gram()
    k = ns.rank
    functionals = [[pair(lat, v, b) for b in ns.basis] for v in (psi.omega, psi.B)]
    b_dot_w = pair(lat, psi.B, psi.omega)
    b_sq, w_sq = pair(lat, psi.B, psi.B), pair(lat, psi.omega, psi.omega)
    rows, parts = [], []
    for idx, coeffs in enumerate(functionals):
        for part in ("a", "b"):
            cs = [getattr(c, part) for c in coeffs]
            denom = lcm(*(x.denominator for x in cs))
            parts.append((idx, part, denom, any(cs)))
            if any(cs):
                rows.append([int(x * denom) for x in cs])
    kern = kernel_basis(rows, k)
    p = [[Fraction(-sum(u[i] * gram[i][j] * w[j] for i in range(k) for j in range(k)))
          for w in kern] for u in kern]
    try:
        factors = ldl_posdef(p)
    except ValueError:
        factors = None
    out = []
    for r in range(-bound, bound + 1):
        for s in range(-bound, bound + 1):
            targets = [r * b_dot_w, QuadScalar(Fraction(r, 2)) * (b_sq - w_sq) + s]
            scaled = [(getattr(targets[idx], part) * denom, active)
                      for idx, part, denom, active in parts]
            if any(v and not active for v, active in scaled):
                continue
            rhs = [v for v, active in scaled if active]
            if any(v.denominator != 1 for v in rhs):
                continue
            rhs = [int(v) for v in rhs]
            target = 2 * r * s - 2
            if factors is None:
                found = [x for x in minus_two_coefficients(gram, bound, target)
                         if mat_vec_int(rows, x) == rhs]
            else:
                x0 = solve_integer(rows, rhs, k)
                if x0 is None:
                    continue
                gx0 = mat_vec_int(gram, x0)
                lin = [Fraction(sum(v[i] * gx0[i] for i in range(k))) for v in kern]
                w = solve_rational(p, lin) if kern else []
                radius = sum(a * b for a, b in zip(w, lin)) + sum(a * b for a, b in zip(x0, gx0)) - target
                found = []
                for y in enumerate_quadric(factors, w, radius):
                    x = [x0[i] + sum(c * v[i] for c, v in zip(y, kern)) for i in range(k)]
                    if all(abs(c) <= bound for c in x):
                        found.append(tuple(x))
            for coeffs in sorted(found):
                delta = MukaiVector(r, ns.from_coefficients(coeffs), s)
                assert not mukai_pair(psi, delta, lat) and mukai_pair(delta, delta, lat) == -2
                out.append(delta)
    return out
