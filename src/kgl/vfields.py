"""Exact calculus for the time-weighted transport vector fields.

Polynomials in (t, x_1..x_3, v_1..v_3) are held exactly: integer
numerators over one positive denominator, with t-exponents on the lattice
(1/T_UNIT) Z, so the commutator and derivative-generation identities are
verified as exact polynomial cancellations, not numerically.  A t-power or
a field parameter delta off that lattice raises VFError.  Each check builds
its chains of H powers once, from f and from transport f (H_chain,
H_table), and reads the residual of every order off them.
The module also evaluates the factorial ledger weights (direct and log
domain, with their round trip) and the combinatorial convolution bound.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from kgl.params import AdmissibilityError, SoftPotentialParams

DIM = 3
DIRECTION = 1  # the index j of x_j and v_j every vector field differentiates along
# t-exponents are held as integers in units of 1/T_UNIT: 12 = lcm(2, 3, 4) covers
# every delta of the runs (1, 3/2, 2, 5/3, 7/4, 3) and its shifts by integers
T_UNIT = 12

# monomial key: (t-exponent in units of 1/T_UNIT, (x1, x2, x3, v1, v2, v3) integer exponents)
Key = tuple[int, tuple[int, ...]]


class VFError(ValueError):
    pass


def _ratio(q) -> tuple[int, int]:
    """Numerator and positive denominator of the rational q.

    An int or a Fraction is read as it is; anything else (a float, a numpy
    integer) is converted once.
    """
    if not isinstance(q, (int, Fraction)):
        q = Fraction(q)
    return q.numerator, q.denominator


def _t_units(q, name: str = "t-exponent") -> int:
    """The rational q as an integer count of 1/T_UNIT; VFError off that lattice.

    An int or a Fraction builds no new Fraction, so converting a field's
    delta on every apply_H and ladder call costs two attribute reads.
    """
    num, den = _ratio(q)
    if T_UNIT % den:
        raise VFError(f"{name} {Fraction(num, den)} is off the t-exponent lattice (1/{T_UNIT}) Z")
    return num * (T_UNIT // den)


def _bump(e: tuple[int, ...], slot: int, by: int) -> tuple[int, ...]:
    return e[:slot] + (e[slot] + by,) + e[slot + 1:]


class PolyFunction:
    """Multivariate polynomial with exact rational coefficients.

    Stored as content and primitive part: ``terms`` maps each monomial key
    to an integer numerator, all over the one positive integer ``den``.  The
    constructor copies the caller's dict, so the polynomial never shares it,
    and reduces those integers to the canonical form (gcd(den, numerators)
    = 1, no zero numerator), so equal polynomials have equal fields;
    ``monomial`` and ``constant`` take rational coefficients and
    t-exponents.  Exponents of x and v are nonnegative integers; the
    t-exponent is an integer count of 1/T_UNIT, which keeps powers like
    t^(delta1 - delta2) exact.
    """

    __slots__ = ("terms", "den")

    def __init__(self, terms: dict[Key, int] | None = None, den: int = 1):
        p = _poly(dict(terms) if terms else {}, den)
        self.terms, self.den = p.terms, p.den

    @staticmethod
    def constant(c) -> "PolyFunction":
        return PolyFunction.monomial(c)

    @staticmethod
    def monomial(c=1, t=0, x=(0, 0, 0), v=(0, 0, 0)) -> "PolyFunction":
        num, den = _ratio(c)
        e = (int(x[0]), int(x[1]), int(x[2]), int(v[0]), int(v[1]), int(v[2]))
        return _poly({(_t_units(t), e): num}, den)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return isinstance(other, PolyFunction) and self.den == other.den and self.terms == other.terms

    def __add__(self, other: "PolyFunction", sign: int = 1) -> "PolyFunction":
        den = math.lcm(self.den, other.den)
        a, b = den // self.den, sign * den // other.den
        out = self.terms.copy() if a == 1 else {k: c * a for k, c in self.terms.items()}
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) + c * b
        return _poly(out, den)

    def __sub__(self, other: "PolyFunction") -> "PolyFunction":
        return self.__add__(other, -1)

    def scale(self, c) -> "PolyFunction":
        num, den = _ratio(c)
        return _poly({k: v * num for k, v in self.terms.items()}, self.den * den)

    def __mul__(self, other: "PolyFunction") -> "PolyFunction":
        out: dict[Key, int] = {}
        for (t1, e1), c1 in self.terms.items():
            for (t2, e2), c2 in other.terms.items():
                key = (t1 + t2, tuple(a + b for a, b in zip(e1, e2)))
                out[key] = out.get(key, 0) + c1 * c2
        return _poly(out, self.den * other.den)

    def mul_t_power(self, q) -> "PolyFunction":
        u = _t_units(q)
        return _poly({(t + u, e): c for (t, e), c in self.terms.items()}, self.den)

    def diff_t(self) -> "PolyFunction":
        return _poly({(t - T_UNIT, e): c * t for (t, e), c in self.terms.items() if t}, self.den * T_UNIT)

    def diff_x(self, j: int) -> "PolyFunction":
        return self._diff(j - 1)

    def diff_v(self, j: int) -> "PolyFunction":
        return self._diff(DIM + j - 1)

    def _diff(self, slot: int, shift: int = 0, num: int = 1, den: int = 1) -> "PolyFunction":
        """(num/den) t^(shift/T_UNIT) times the derivative in variable ``slot``, in one pass."""
        terms = self.terms.items()
        out = {(t + shift, _bump(e, slot, -1)): c * e[slot] * num for (t, e), c in terms if e[slot]}
        return _poly(out, self.den * den)

    def mul_v(self, j: int) -> "PolyFunction":
        return _poly({(t, _bump(e, DIM + j - 1, 1)): c for (t, e), c in self.terms.items()}, self.den)

    def __repr__(self):
        if not self.terms:
            return "PolyFunction(0)"
        names = ["x1", "x2", "x3", "v1", "v2", "v3"]
        bits = []
        for (t, e), c in sorted(self.terms.items()):
            mono = [str(Fraction(c, self.den))]
            if t != 0:
                mono.append(f"t^{Fraction(t, T_UNIT)}")
            mono += [f"{names[i]}^{p}" for i, p in enumerate(e) if p]
            bits.append("*".join(mono))
        return "PolyFunction(" + " + ".join(bits) + ")"


def _poly(terms: dict[Key, int], den: int) -> PolyFunction:
    """``terms`` over ``den`` in canonical form, the dict adopted as it is.

    It is copied only when it holds a zero numerator or a factor common to
    den and every numerator.
    """
    if 0 in terms.values():
        terms = {k: c for k, c in terms.items() if c}
    g = math.gcd(den, *terms.values())
    if g > 1:
        terms = {k: c // g for k, c in terms.items()}
    p = object.__new__(PolyFunction)
    p.terms, p.den = terms, den // g
    return p


def transport(f: PolyFunction) -> PolyFunction:
    """d/dt + v . d/dx applied exactly, in one pass over the terms of f."""
    out: dict[Key, int] = {}
    for (t, e), c in f.terms.items():
        if t:  # d/dt t^q = q t^(q - 1) with q = t / T_UNIT
            key = (t - T_UNIT, e)
            out[key] = out.get(key, 0) + c * t
        for j in range(DIM):
            if e[j]:  # x_j^n -> n x_j^(n-1) v_j
                key = (t, e[:j] + (e[j] - 1,) + e[j + 1:DIM + j] + (e[DIM + j] + 1,) + e[DIM + j + 1:])
                out[key] = out.get(key, 0) + c * e[j] * T_UNIT
    return _poly(out, f.den * T_UNIT)


def apply_H(f: PolyFunction, delta) -> PolyFunction:
    """The field (1/(delta+1)) t^(delta+1) d/dx_j + t^delta d/dv_j, j = DIRECTION.

    With u = T_UNIT delta, 1/(delta+1) = T_UNIT/(u + T_UNIT), so both parts
    are integer numerators over den (u + T_UNIT).  They are built in one
    pass over the terms of f into one dict, where an x-part and a v-part
    landing on the same monomial add, and reduced by one gcd.
    """
    u = _t_units(delta, "delta")
    if u < T_UNIT:
        raise VFError(f"delta={Fraction(delta)} < 1")
    w = u + T_UNIT
    xs, vs = DIRECTION - 1, DIM + DIRECTION - 1
    out: dict[Key, int] = {}
    for (t, e), c in f.terms.items():
        if e[xs]:
            key = (t + w, _bump(e, xs, -1))
            out[key] = out.get(key, 0) + c * e[xs] * T_UNIT
        if e[vs]:
            key = (t + u, _bump(e, vs, -1))
            out[key] = out.get(key, 0) + c * e[vs] * w
    return _poly(out, f.den * w)


def H_chain(f: PolyFunction, delta, kmax: int) -> list[PolyFunction]:
    """[f, H f, ..., H^kmax f], each power applied once to the one before."""
    if kmax < 0:
        raise VFError("order must be nonnegative")
    chain = [f]
    for _ in range(kmax):
        chain.append(apply_H(chain[-1], delta))
    return chain


def H_table(f: PolyFunction, delta1, delta2, max_alpha: int) -> dict:
    """{(a1, a2): H1^a1 H2^a2 f for a1 + a2 <= max_alpha}, H2 applied first."""
    return {
        (a1, a2): h
        for a2, g in enumerate(H_chain(f, delta2, max_alpha))
        for a1, h in enumerate(H_chain(g, delta1, max_alpha - a2))
    }


def _ladder(g: PolyFunction, delta, k: int) -> PolyFunction:
    """delta k t^(delta-1) d/dv_j g, the term one more H adds to the commutator."""
    u = _t_units(delta, "delta")
    return g._diff(DIM + DIRECTION - 1, u - T_UNIT, u * k, T_UNIT)


def commutator_residuals(f: PolyFunction, delta, kmax: int) -> list[PolyFunction]:
    """[transport, H^k] f minus delta k t^(delta-1) d/dv_j H^(k-1) f, k = 0..kmax.

    Identically zero for every polynomial; a nonzero residual exposes the
    offending monomials.
    """
    h = H_chain(f, delta, kmax)
    th = H_chain(transport(f), delta, kmax)
    below = [PolyFunction()] + h  # H^(k-1) f; at k = 0 its coefficient delta k is 0
    return [transport(h[k]) - th[k] - _ladder(below[k], delta, k) for k in range(kmax + 1)]


def mixed_commutator_residuals(f: PolyFunction, delta1, delta2, max_alpha: int) -> dict:
    """Residuals of the two-field commutator expansion, |alpha| <= max_alpha.

    [transport, H1^a1 H2^a2] = a1 d1 t^(d1-1) d/dv H1^(a1-1) H2^a2
                             + a2 d2 t^(d2-1) d/dv H1^a1 H2^(a2-1),
    the two fields commuting with each other; keyed by alpha in order.  A term
    whose power would be H^(-1) has coefficient 0 and is taken as zero.
    """
    m = H_table(f, delta1, delta2, max_alpha)
    tm = H_table(transport(f), delta1, delta2, max_alpha)
    return {
        (a1, a2): transport(m[a1, a2]) - tm[a1, a2]
        - _ladder(m.get((a1 - 1, a2), PolyFunction()), delta1, a1)
        - _ladder(m.get((a1, a2 - 1), PolyFunction()), delta2, a2)
        for a1, a2 in sorted(m)
    }


@dataclass(frozen=True)
class VFParams:
    """Field-pair parameters: delta1 = lambda, delta2 set by the regime.

    (gamma, s) must be an admissible soft-potential pair, by the rules of
    ``SoftPotentialParams``; a pair outside them raises VFError.
    """

    gamma: Fraction
    s: Fraction
    lam: Fraction

    def __post_init__(self):
        for name in ("gamma", "s", "lam"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))
        try:
            SoftPotentialParams(gamma=self.gamma, s=self.s)
        except AdmissibilityError as exc:
            raise VFError(str(exc)) from exc
        if self.lam <= max(Fraction(1), 1 / (2 * self.tau)):
            raise VFError(
                f"lambda={self.lam} must exceed max(1, 1/(2 tau)) = "
                f"{max(Fraction(1), 1 / (2 * self.tau))}"
            )
        if not (self.delta1 > self.delta2 >= 1):
            raise VFError(f"need delta1 > delta2 >= 1, got {self.delta1}, {self.delta2}")
        for name in ("delta1", "delta2"):  # then delta1 - delta2 and lam + 1 are on the lattice too
            _t_units(getattr(self, name), name)

    @property
    def tau(self) -> Fraction:
        return 2 * self.s / (2 - self.gamma)

    @property
    def strong_singularity(self) -> bool:
        return self.gamma / 2 + 2 * self.s >= 1

    @property
    def delta1(self) -> Fraction:
        return self.lam

    @property
    def delta2(self) -> Fraction:
        if self.strong_singularity:
            return Fraction(1)
        return 1 + (1 - 2 * self.tau) * self.lam


def generation_coefficients(vp: VFParams) -> dict[str, Fraction]:
    """Exact coefficients expressing t^(lam+1) d/dx and t^lam d/dv.

    t^(lam+1) d/dx = cx1 H1 + cx2 t^(d1-d2) H2,
    t^lam d/dv     = cv1 H1 + cv2 t^(d1-d2) H2.
    """
    d1, d2 = vp.delta1, vp.delta2
    if d1 == d2:
        raise VFError("delta1 = delta2: generation coefficients undefined")
    c = (d2 + 1) * (d1 + 1) / (d2 - d1)
    return {
        "cx1": c,
        "cx2": -c,
        "cv1": -(d1 + 1) / (d2 - d1),
        "cv2": (d2 + 1) / (d2 - d1),
    }


def reconstruct_derivatives(
    f: PolyFunction, vp: VFParams
) -> tuple[PolyFunction, PolyFunction]:
    """Rebuild t^(lam+1) d/dx_j f and t^lam d/dv_j f from the two fields."""
    co = generation_coefficients(vp)
    d1, d2 = vp.delta1, vp.delta2
    h1 = apply_H(f, d1)
    h2 = apply_H(f, d2).mul_t_power(d1 - d2)
    gx = h1.scale(co["cx1"]) + h2.scale(co["cx2"])
    gv = h1.scale(co["cv1"]) + h2.scale(co["cv2"])
    return gx, gv


def reconstruction_residuals(
    f: PolyFunction, vp: VFParams
) -> tuple[PolyFunction, PolyFunction]:
    gx, gv = reconstruct_derivatives(f, vp)
    direct_x = f.diff_x(DIRECTION).mul_t_power(vp.lam + 1)
    direct_v = f.diff_v(DIRECTION).mul_t_power(vp.lam)
    return gx - direct_x, gv - direct_v


# --- factorial ledger --------------------------------------------------------


LEDGER_DIRECT_MAX = 20
# The log-domain sum rounds each of its three terms, so its error scales with
# their summed magnitudes, not with |ln L|: for some rho the terms (~85 at
# k = 20) cancel to ln L ~ 0.  Over rho in [1e-3, 1e3] and e in [0.5, 3] the
# two branches agree within 1.5 of these units.
LEDGER_TOLERANCE = 4.0


def _log_ledger_terms(rho: float, k: int, exponent: float) -> tuple[float, float, float]:
    """The three terms whose sum is ln L(k) for k >= 1."""
    return 3.0 * math.log(k + 1), -(k - 1) * math.log(rho), -exponent * math.lgamma(k + 1)


def log_ledger_value(rho: float, k: int, exponent: float) -> float:
    """ln of (k+1)^3 / (rho^(k-1) (k!)^e); k = 0 gives ln 1 = 0."""
    if k < 0:
        raise VFError("k must be nonnegative")
    if rho <= 0:
        raise VFError("rho must be positive")
    if k == 0:
        return 0.0
    return sum(_log_ledger_terms(rho, k, exponent))


def ledger_value(rho: float, k: int, exponent: float) -> float:
    """Ledger weight; direct product up to LEDGER_DIRECT_MAX, log domain beyond."""
    if k <= LEDGER_DIRECT_MAX:
        if k == 0:
            return 1.0
        return (k + 1) ** 3 / (rho ** (k - 1) * math.factorial(k) ** exponent)
    return math.exp(log_ledger_value(rho, k, exponent))


def ledger_round_trip_residual(rho: float, exponent: float) -> float:
    """Worst disagreement of the direct and log-domain ledger branches.

    For 1 <= k <= LEDGER_DIRECT_MAX the direct product is compared with
    exp(ln L); across the branch switch L(k+1) / L(k) is compared with the
    closed-form ratio ((k+2)/(k+1))^3 / (rho (k+1)^e).  Each relative error
    is divided by eps times the summed magnitudes of the terms of ln L, so
    the branches agree when the result is at most LEDGER_TOLERANCE.
    """
    errors = {
        k: ledger_value(rho, k, exponent) / math.exp(log_ledger_value(rho, k, exponent)) - 1.0
        for k in range(1, LEDGER_DIRECT_MAX + 1)
    }
    k = LEDGER_DIRECT_MAX
    closed = ((k + 2) / (k + 1)) ** 3 / (rho * (k + 1) ** exponent)
    errors[k + 1] = ledger_value(rho, k + 1, exponent) / ledger_value(rho, k, exponent) / closed - 1.0
    eps = sys.float_info.epsilon
    return max(
        abs(err) / (eps * max(1.0, sum(map(abs, _log_ledger_terms(rho, k, exponent)))))
        for k, err in errors.items()
    )


def convolution_bound(kmax: int) -> dict:
    """sup over k <= kmax of sum_{j=1}^{k-1} (k+1)^3 / ((j+1)^3 (k-j+1)^3).

    With a_0 = 0 and a_m = (m+1)^-3 the k-th sum is (k+1)^3 (a * a)_k, one
    direct convolution (an FFT one loses ~1e-4 absolute at k = 10^4).  The
    running sup stabilizes quickly (the summand is maximized near k = 6);
    the result records the sup at kmax and at kmax // 2.
    """
    import numpy as np

    if kmax < 2:
        raise VFError("kmax must be at least 2")
    k = np.arange(kmax + 1, dtype=float)
    a = np.where(k > 0, (k + 1.0) ** -3, 0.0)
    sums = (k + 1.0) ** 3 * np.convolve(a, a)[: kmax + 1]
    sup_arg = int(np.argmax(sums))  # the first maximum
    sup_val = float(sums[sup_arg])
    sup_at_half = float(np.max(sums[: kmax // 2 + 1])) if kmax // 2 >= 2 else 0.0
    return {
        "sup": sup_val,
        "arg_k": sup_arg,
        "sup_at_half_range": sup_at_half,
        "stabilization_gap": abs(sup_val - sup_at_half),
        "kmax": kmax,
    }


POLY_TERMS = 5  # monomials drawn per random polynomial
POLY_MAX_DEGREE = 6  # largest total degree of a drawn monomial, t included


def random_poly(rng) -> PolyFunction:
    """Deterministic random polynomial with small integer coefficients."""
    out = PolyFunction()
    for _ in range(POLY_TERMS):
        c = int(rng.integers(-4, 5))
        if c == 0:
            c = 1
        budget = int(rng.integers(0, POLY_MAX_DEGREE + 1))
        exps = [0] * (2 * DIM)
        t_exp = 0
        for _ in range(budget):
            slot = int(rng.integers(0, 2 * DIM + 1))
            if slot == 2 * DIM:
                t_exp += 1
            else:
                exps[slot] += 1
        out = out + PolyFunction.monomial(c, t=t_exp, x=exps[:3], v=exps[3:])
    return out
