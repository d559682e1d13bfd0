"""Exact calculus for the time-weighted transport vector fields.

Polynomials in (t, x_1..x_3, v_1..v_3) are held exactly: integer
numerators over one positive denominator, with t-exponents on the lattice
(1/T_UNIT) Z, so the commutator and derivative-generation identities are
verified as exact polynomial cancellations, not numerically.  A t-power or
a field parameter delta off that lattice raises VFError.  One builder,
identity_residuals, keeps one store of chains of H powers per polynomial,
from f, from transport f and from their H2 powers, for all three identity
families: each H power is built once per polynomial, every residual is read
off the chains, and a pure mixed row is the commutator residual it equals.
The per-family functions are calls into it.  A corpus is checked as one
polynomial: stack() tags member i's monomials with i in one more exponent
slot, MEMBER, that no rule reads or changes, so each residual of the stack
is the sum of its members' residuals, told apart by members().  Each
residual is built in one pass: its terms are added into one dict over the
lcm of their denominators and reduced by one gcd, which gives the canonical
polynomial, the one the operations composed term by term in
tests/ref_poly.py give.  The polynomial type itself only builds monomials,
adds and compares.  Four functions are the only statements of the rules the
checks test: apply_H (the fields), generation_coefficients (the
reconstruction coefficients), _add_ladder (the delta k t^(delta-1) d/dv term
of the commutator) and _add_transport (the transport rule, shared by
transport()).
The module also evaluates the factorial ledger weights (direct and log
domain, with their round trip) and the combinatorial convolution bound,
every sum of it at once by a partial-fraction closed form (convolution_sums).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from kgl.params import AdmissibilityError, SoftPotentialParams

DIM = 3
DIRECTION = 1  # the index j of x_j and v_j every vector field differentiates along
# t-exponents are held as integers in units of 1/T_UNIT: 12 = lcm(2, 3, 4) covers
# every delta of the runs (1, 3/2, 2, 5/3, 7/4, 3) and its shifts by integers
T_UNIT = 12

# monomial key: (t-exponent in units of 1/T_UNIT, (x1, x2, x3, v1, v2, v3) integer exponents),
# in a stacked polynomial followed by the member index
Key = tuple[int, tuple[int, ...]]
MEMBER = 2 * DIM  # the exponent slot of a stacked key's member index


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
    ``monomial`` takes a rational coefficient and t-exponent.  Exponents of
    x and v are nonnegative integers; the t-exponent is an integer count of
    1/T_UNIT, which keeps powers like t^(delta1 - delta2) exact.  A stacked
    polynomial (see ``stack``) carries its member index in the exponent slot
    MEMBER, after the six of x and v; the operations copy it unchanged.
    """

    __slots__ = ("terms", "den")

    def __init__(self, terms: dict[Key, int] | None = None, den: int = 1):
        p = _poly(dict(terms) if terms else {}, den)
        self.terms, self.den = p.terms, p.den

    @staticmethod
    def monomial(c=1, t=0, x=(0, 0, 0), v=(0, 0, 0)) -> "PolyFunction":
        num, den = _ratio(c)
        e = (int(x[0]), int(x[1]), int(x[2]), int(v[0]), int(v[1]), int(v[2]))
        return _poly({(_t_units(t), e): num}, den)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return isinstance(other, PolyFunction) and self.den == other.den and self.terms == other.terms

    def __add__(self, other: "PolyFunction") -> "PolyFunction":
        den = math.lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        out = self.terms.copy() if a == 1 else {k: c * a for k, c in self.terms.items()}
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) + c * b
        return _poly(out, den)

    def __repr__(self):
        if not self.terms:
            return "PolyFunction(0)"
        names = ["x1", "x2", "x3", "v1", "v2", "v3"]
        bits = []
        for (t, e), c in sorted(self.terms.items()):
            mono = [str(Fraction(c, self.den))]
            if t != 0:
                mono.append(f"t^{Fraction(t, T_UNIT)}")
            mono += [f"{names[i]}^{p}" for i, p in enumerate(e[:MEMBER]) if p]
            if len(e) > MEMBER:
                mono[-1] += f"@f{e[MEMBER]}"
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


def stack(polys) -> PolyFunction:
    """The polynomials as one over the lcm of their denominators, member i's
    monomials carrying i in the exponent slot MEMBER.

    Every rule acts on one monomial at a time and reads and writes only the
    slots of t, x and v, so a residual of the stack is the sum over i of
    member i's residual with its monomials tagged i.
    """
    den = math.lcm(*(p.den for p in polys))
    out: dict[Key, int] = {}
    for i, p in enumerate(polys):
        m = den // p.den
        for (t, e), c in p.terms.items():
            if len(e) != MEMBER:
                raise VFError("stack() takes unstacked polynomials")
            out[t, e + (i,)] = c * m
    return _poly(out, den)


def members(r: PolyFunction) -> set[int]:
    """The members of a stacked polynomial with a nonzero term in r."""
    try:
        return {e[MEMBER] for _, e in r.terms}
    except IndexError:
        raise VFError("members() takes a stacked polynomial: a key has no member slot") from None


def _add_transport(out: dict[Key, int], f: PolyFunction, m: int) -> None:
    """Add m times the numerators of transport f, over f.den T_UNIT, to ``out``.

    The one statement of the transport rule d/dt + v . d/dx, in one pass
    over the terms of f: transport() and the commutator residuals use it.
    """
    for (t, e), c in f.terms.items():
        c *= m
        if t:  # d/dt t^q = q t^(q - 1) with q = t / T_UNIT
            key = (t - T_UNIT, e)
            out[key] = out.get(key, 0) + c * t
        for j in range(DIM):
            if e[j]:  # x_j^n -> n x_j^(n-1) v_j
                key = (t, e[:j] + (e[j] - 1,) + e[j + 1:DIM + j] + (e[DIM + j] + 1,) + e[DIM + j + 1:])
                out[key] = out.get(key, 0) + c * e[j] * T_UNIT


def transport(f: PolyFunction) -> PolyFunction:
    """d/dt + v . d/dx applied exactly, in one pass over the terms of f."""
    out: dict[Key, int] = {}
    _add_transport(out, f, 1)
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


def _add_scaled(out: dict[Key, int], p: PolyFunction, m: int, shift: int = 0) -> None:
    """Add m times the numerators of t^(shift/T_UNIT) p, over p.den, to ``out``."""
    for (t, e), c in p.terms.items():
        key = (t + shift, e)
        out[key] = out.get(key, 0) + c * m


def _add_diff(out: dict[Key, int], p: PolyFunction, slot: int, shift: int, m: int) -> None:
    """Add m times the numerators of t^(shift/T_UNIT) times the derivative of p in
    variable ``slot``, over p.den, to ``out``."""
    for (t, e), c in p.terms.items():
        if e[slot]:
            key = (t + shift, _bump(e, slot, -1))
            out[key] = out.get(key, 0) + c * e[slot] * m


def _add_ladder(out: dict[Key, int], g: PolyFunction, delta, k: int, m: int) -> None:
    """Subtract m times the numerators of delta k t^(delta-1) d/dv_j g, over
    g.den T_UNIT, from ``out``: the term one more H adds to the commutator."""
    u = _t_units(delta, "delta")
    _add_diff(out, g, DIM + DIRECTION - 1, u - T_UNIT, -m * u * k)


def _commutator_sum(h: PolyFunction, th: PolyFunction, ladders) -> PolyFunction:
    """transport h - th - sum of delta k t^(delta-1) d/dv_j g over the triples
    (g, delta, k) of ``ladders``.

    Every term is added in one dict over the lcm of the denominators and the
    sum is reduced by one gcd; the canonical form is unique, so the result
    equals the polynomial the operations composed one by one give.
    """
    hd = h.den * T_UNIT
    den = math.lcm(hd, th.den, *(g.den * T_UNIT for g, _, _ in ladders))
    out: dict[Key, int] = {}
    _add_transport(out, h, den // hd)
    _add_scaled(out, th, -(den // th.den))
    for g, delta, k in ladders:
        _add_ladder(out, g, delta, k, den // (g.den * T_UNIT))
    return _poly(out, den)


@dataclass(frozen=True)
class VFParams:
    """Field-pair parameters: delta1 = lambda, delta2 set by the regime.

    (gamma, s) must be an admissible soft-potential pair, by the rules of
    ``SoftPotentialParams``; a pair outside them raises VFError.  tau is
    that pair's exact ``SoftPotentialParams.tau``; strong_singularity,
    delta1 and delta2 are computed once, on first read.
    """

    gamma: Fraction
    s: Fraction
    lam: Fraction
    tau: Fraction = field(init=False, repr=False)

    def __post_init__(self):
        for name in ("gamma", "s", "lam"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))
        try:
            object.__setattr__(self, "tau", SoftPotentialParams(gamma=self.gamma, s=self.s).tau)
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

    @cached_property
    def strong_singularity(self) -> bool:
        return self.gamma / 2 + 2 * self.s >= 1

    @cached_property
    def delta1(self) -> Fraction:
        return self.lam

    @cached_property
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


def _reconstruction_row(f, h1, h2, c1, c2, shift: int, slot: int, lift: int) -> PolyFunction:
    """c1 h1 + c2 t^(shift/T_UNIT) h2 - t^(lift/T_UNIT) times the derivative of f
    in variable ``slot``, in one dict over one lcm denominator, reduced by one gcd."""
    (n1, e1), (n2, e2) = _ratio(c1), _ratio(c2)
    d1, d2 = h1.den * e1, h2.den * e2
    den = math.lcm(d1, d2, f.den)
    out: dict[Key, int] = {}
    _add_scaled(out, h1, n1 * (den // d1))
    _add_scaled(out, h2, n2 * (den // d2), shift)
    _add_diff(out, f, slot, lift, -(den // f.den))
    return _poly(out, den)


def identity_residuals(f: PolyFunction, deltas, field_pairs, max_k: int, max_alpha: int):
    """Every residual of the three identity families for the one polynomial f.

    The commutator residuals of each delta of ``deltas``, k = 0..max_k; for
    each field pair (delta1, delta2, coefficients) the mixed residuals,
    |alpha| <= max_alpha, and, unless the generation coefficients are None,
    the two reconstruction rows.  One store of chains [b, H b, H^2 b, ...],
    keyed by the base b (f, transport f or an H2 power of either) and delta,
    is extended only through apply_H, so each H power is built once across
    the families.  A pure mixed row (a1 = 0 or a2 = 0) whose delta is one of
    ``deltas`` and whose order is at most max_k is that commutator residual.
    f may be a stack of polynomials (see ``stack``): the rules leave the
    member slot as it is, so the terms of a residual tagged i are member i's
    residual, and ``members`` names the members whose residual is nonzero.

    Returns (commutators, pairs, built): commutators[delta] the residuals by
    k; pairs, per field pair, its reconstruction rows (or None) and its mixed
    residuals keyed by alpha in order; built, the apply_H calls made.
    """
    if max_k < 0 or max_alpha < 0:
        raise VFError("order must be nonnegative")
    f_and_tf = (f, transport(f))
    chains: dict = {}  # (id(b), delta): [b, H b, H^2 b, ...]; every base b is held in its chain

    def chain(base: PolyFunction, delta, k: int) -> list[PolyFunction]:
        """The store's chain of delta from base, extended through H^k base."""
        c = chains.setdefault((id(base), delta), [base])
        while len(c) <= k:
            c.append(apply_H(c[-1], delta))
        return c

    commutators = {}
    for delta in deltas:
        h, th = (chain(g, delta, max_k) for g in f_and_tf)
        commutators[delta] = [
            _commutator_sum(h[k], th[k], [(h[k - 1], delta, k)] if k else []) for k in range(max_k + 1)
        ]
    pairs = []
    xs, vs = DIRECTION - 1, DIM + DIRECTION - 1
    for d1, d2, co in field_pairs:
        # m[a2][a1] = H1^a1 H2^a2 f, tm[a2][a1] the same of transport f
        m, tm = (
            [chain(b, d1, max_alpha - a2) for a2, b in enumerate(chain(g, d2, max_alpha)[:max_alpha + 1])]
            for g in f_and_tf
        )
        mixed = {}
        for a1 in range(max_alpha + 1):
            for a2 in range(max_alpha + 1 - a1):
                pure = None if a1 and a2 else commutators.get(d2 if a2 else d1)
                if pure is not None and a1 + a2 <= max_k:
                    mixed[a1, a2] = pure[a1 + a2]
                    continue
                ladders = [(m[a2][a1 - 1], d1, a1)] if a1 else []
                if a2:
                    ladders.append((m[a2 - 1][a1], d2, a2))
                mixed[a1, a2] = _commutator_sum(m[a2][a1], tm[a2][a1], ladders)
        rows = None
        if co is not None:
            h1, h2 = chain(f, d1, 1)[1], chain(f, d2, 1)[1]
            lam = _t_units(d1)  # delta1 = lambda
            shift = lam - _t_units(d2)
            rows = (
                _reconstruction_row(f, h1, h2, co["cx1"], co["cx2"], shift, xs, lam + T_UNIT),
                _reconstruction_row(f, h1, h2, co["cv1"], co["cv2"], shift, vs, lam),
            )
        pairs.append((rows, mixed))
    return commutators, pairs, sum(len(c) - 1 for c in chains.values())


def commutator_residuals(f: PolyFunction, delta, kmax: int) -> list[PolyFunction]:
    """[transport, H^k] f minus delta k t^(delta-1) d/dv_j H^(k-1) f, k = 0..kmax.

    Identically zero for every polynomial; a nonzero residual exposes the
    offending monomials.  At k = 0 the coefficient delta k is 0 and no
    ladder term is added.
    """
    return identity_residuals(f, (delta,), (), kmax, 0)[0][delta]


def mixed_commutator_residuals(f: PolyFunction, delta1, delta2, max_alpha: int) -> dict:
    """Residuals of the two-field commutator expansion, |alpha| <= max_alpha.

    [transport, H1^a1 H2^a2] = a1 d1 t^(d1-1) d/dv H1^(a1-1) H2^a2
                             + a2 d2 t^(d2-1) d/dv H1^a1 H2^(a2-1),
    the two fields commuting with each other; keyed by alpha in order.  A term
    whose power would be H^(-1) has coefficient 0 and is left out.
    """
    return identity_residuals(f, (), ((delta1, delta2, None),), 0, max_alpha)[1][0][1]


def reconstruction_residuals(
    f: PolyFunction, vp: VFParams
) -> tuple[PolyFunction, PolyFunction]:
    """The residuals of t^(lam+1) d/dx_j f and t^lam d/dv_j f against their
    reconstruction from the two fields, each row built in one pass."""
    pair = (vp.delta1, vp.delta2, generation_coefficients(vp))
    return identity_residuals(f, (), (pair,), 0, 0)[1][0][0]


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


def convolution_sums(kmax: int) -> np.ndarray:
    """S_k = sum_{j=1}^{k-1} (k+1)^3 / ((j+1)^3 (k-j+1)^3), k = 0..kmax, in O(kmax) work.

    With x = j+1 and n = k+2, partial fractions 1/(x(n-x)) = (1/x + 1/(n-x))/n
    give S_k = (k+1)^3 (2 H_3 + (6 H_2 + 12 H_1/n)/n) / n^3, H_m(k) the sum of
    x^-m over x = 2..k: three cumulative sums, with at most five float arrays
    of kmax + 1 alive at once.  Every term is positive, so nothing cancels:
    S_k is within 6 eps relative of the exact sums for k <= 300, 3e-15 of
    np.convolve for k <= 10^4.
    """
    x = np.arange(kmax + 1, dtype=float)
    x[:2] = np.inf  # x runs from 2, so no term at k = 0, 1
    x = 1.0 / x
    n = np.arange(2.0, kmax + 3.0)  # k + 2
    h = 2.0 * np.cumsum(x**3) + (6.0 * np.cumsum(x * x) + 12.0 * np.cumsum(x) / n) / n
    return (n - 1.0) ** 3 * h / n**3


# convolution-sup-stabilizes holds when the sups up to kmax and kmax // 2 agree within this
CONVOLUTION_GAP_TOL = 1e-6
# the sums peak at k = 6, so the sup up to kmax // 2 reaches the peak from kmax = 12 on
CONVOLUTION_KMAX_MIN = 12


def convolution_bound(kmax: int) -> dict:
    """sup over k <= kmax of the sums S_k of :func:`convolution_sums`.

    The running sup stabilizes quickly (the sum is largest at k = 6); the
    result records the sup at kmax and at kmax // 2.
    """
    if kmax < 2:
        raise VFError("kmax must be at least 2")
    sums = convolution_sums(kmax)
    sup_arg = int(sums.argmax())  # the first maximum
    sup_val = float(sums[sup_arg])
    sup_at_half = float(sums[: kmax // 2 + 1].max())  # S_0 = S_1 = 0
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
