"""Reference polynomials: the oracle for ``kgl.vfields.PolyFunction``.

A reference polynomial is a plain dict from (t-exponent, exponents of x1..x3,
v1..v3) to its coefficient, with the t-exponent and the coefficient both
``Fraction``s.  It shares nothing with the library's integer numerators over
one denominator and integer t-exponents in units of 1/T_UNIT.  Every
operation is written from its definition, term by term, and drops the zero
coefficients.  The fields act along x_1 and v_1.
"""

from __future__ import annotations

from fractions import Fraction

DIM = 3


def _collect(pairs) -> dict:
    out: dict = {}
    for key, c in pairs:
        out[key] = out.get(key, Fraction(0)) + c
    return {k: c for k, c in out.items() if c != 0}


def _bump(e, slot, by):
    e = list(e)
    e[slot] += by
    return tuple(e)


def monomial(c, t, e) -> dict:
    return _collect([((Fraction(t), tuple(e)), Fraction(c))])


def add(p, q, sign=1):
    return _collect([*p.items(), *((k, sign * c) for k, c in q.items())])


def mul(p, q):
    return _collect(
        ((t1 + t2, tuple(a + b for a, b in zip(e1, e2))), c1 * c2)
        for (t1, e1), c1 in p.items()
        for (t2, e2), c2 in q.items()
    )


def scale(p, c):
    return _collect((k, v * Fraction(c)) for k, v in p.items())


def mul_t_power(p, q):
    return _collect(((t + Fraction(q), e), c) for (t, e), c in p.items())


def diff_t(p):
    return _collect(((t - 1, e), c * t) for (t, e), c in p.items())


def _diff(p, slot):
    return _collect(((t, _bump(e, slot, -1)), c * e[slot]) for (t, e), c in p.items() if e[slot])


def diff_x(p, j):
    return _diff(p, j - 1)


def diff_v(p, j):
    return _diff(p, DIM + j - 1)


def mul_v(p, j):
    return _collect(((t, _bump(e, DIM + j - 1, 1)), c) for (t, e), c in p.items())


def transport(p):
    """d/dt + v . d/dx."""
    out = diff_t(p)
    for j in range(1, DIM + 1):
        out = add(out, mul_v(diff_x(p, j), j))
    return out


def apply_H(p, delta):
    """(1/(delta+1)) t^(delta+1) d/dx_1 + t^delta d/dv_1."""
    delta = Fraction(delta)
    part_x = scale(mul_t_power(diff_x(p, 1), delta + 1), 1 / (delta + 1))
    return add(part_x, mul_t_power(diff_v(p, 1), delta))
