"""Exact calculus for the time-weighted transport vector fields.

Polynomials in (t, x_1..x_3, v_1..v_3) carry Fraction coefficients and
rational t-exponents, so the commutator and derivative-generation
identities are verified as exact polynomial cancellations, not numerically.
The module also evaluates the factorial ledger weights, the combinatorial
convolution bound, and the ledger-weighted norm aggregates.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

DIM = 3

# monomial key: (t_exponent, (x1, x2, x3, v1, v2, v3) integer exponents)
Key = tuple[Fraction, tuple[int, ...]]


class VFError(ValueError):
    pass


class PolyFunction:
    """Multivariate polynomial with exact rational coefficients.

    Exponents of the space/velocity variables are nonnegative integers;
    the t-exponent may be any nonnegative rational, which keeps powers
    like t^(delta1 - delta2) exactly representable.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Key, Fraction] | None = None):
        self.terms: dict[Key, Fraction] = {}
        if terms:
            for key, c in terms.items():
                c = Fraction(c)
                if c != 0:
                    texp = Fraction(key[0])
                    self.terms[(texp, tuple(key[1]))] = (
                        self.terms.get((texp, tuple(key[1])), Fraction(0)) + c
                    )
            self._prune()

    def _prune(self):
        for key in [k for k, c in self.terms.items() if c == 0]:
            del self.terms[key]

    @staticmethod
    def zero() -> "PolyFunction":
        return PolyFunction()

    @staticmethod
    def constant(c) -> "PolyFunction":
        return PolyFunction({(Fraction(0), (0,) * (2 * DIM)): Fraction(c)})

    @staticmethod
    def monomial(c=1, t=0, x=(0, 0, 0), v=(0, 0, 0)) -> "PolyFunction":
        return PolyFunction(
            {(Fraction(t), (int(x[0]), int(x[1]), int(x[2]), int(v[0]), int(v[1]), int(v[2]))): Fraction(c)}
        )

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return isinstance(other, PolyFunction) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "PolyFunction") -> "PolyFunction":
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, Fraction(0)) + c
        res = PolyFunction()
        res.terms = {k: c for k, c in out.items() if c != 0}
        return res

    def __sub__(self, other: "PolyFunction") -> "PolyFunction":
        return self + other.scale(-1)

    def scale(self, c) -> "PolyFunction":
        c = Fraction(c)
        res = PolyFunction()
        if c != 0:
            res.terms = {k: v * c for k, v in self.terms.items()}
        return res

    def __mul__(self, other: "PolyFunction") -> "PolyFunction":
        out: dict[Key, Fraction] = {}
        for (t1, e1), c1 in self.terms.items():
            for (t2, e2), c2 in other.terms.items():
                key = (t1 + t2, tuple(a + b for a, b in zip(e1, e2)))
                out[key] = out.get(key, Fraction(0)) + c1 * c2
        res = PolyFunction()
        res.terms = {k: c for k, c in out.items() if c != 0}
        return res

    def mul_t_power(self, q) -> "PolyFunction":
        q = Fraction(q)
        res = PolyFunction()
        res.terms = {(t + q, e): c for (t, e), c in self.terms.items()}
        return res

    def diff_t(self) -> "PolyFunction":
        res = PolyFunction()
        for (t, e), c in self.terms.items():
            if t != 0:
                res.terms[(t - 1, e)] = res.terms.get((t - 1, e), Fraction(0)) + c * t
        res._prune()
        return res

    def diff_x(self, j: int) -> "PolyFunction":
        return self._diff_slot(j - 1)

    def diff_v(self, j: int) -> "PolyFunction":
        return self._diff_slot(DIM + j - 1)

    def _diff_slot(self, slot: int) -> "PolyFunction":
        res = PolyFunction()
        for (t, e), c in self.terms.items():
            if e[slot] > 0:
                ne = list(e)
                ne[slot] -= 1
                key = (t, tuple(ne))
                res.terms[key] = res.terms.get(key, Fraction(0)) + c * e[slot]
        res._prune()
        return res

    def mul_v(self, j: int) -> "PolyFunction":
        res = PolyFunction()
        for (t, e), c in self.terms.items():
            ne = list(e)
            ne[DIM + j - 1] += 1
            res.terms[(t, tuple(ne))] = c
        return res

    def __repr__(self):
        if not self.terms:
            return "PolyFunction(0)"
        names = ["x1", "x2", "x3", "v1", "v2", "v3"]
        bits = []
        for (t, e), c in sorted(self.terms.items()):
            mono = [str(c)]
            if t != 0:
                mono.append(f"t^{t}")
            mono += [f"{names[i]}^{p}" for i, p in enumerate(e) if p]
            bits.append("*".join(mono))
        return "PolyFunction(" + " + ".join(bits) + ")"


def transport(f: PolyFunction) -> PolyFunction:
    """d/dt + v . d/dx applied exactly."""
    out = f.diff_t()
    for j in range(1, DIM + 1):
        out = out + f.diff_x(j).mul_v(j)
    return out


def apply_H(f: PolyFunction, delta, j: int = 1) -> PolyFunction:
    """The field (1/(delta+1)) t^(delta+1) d/dx_j + t^delta d/dv_j."""
    delta = Fraction(delta)
    if delta < 1:
        raise VFError(f"delta={delta} < 1")
    if not (1 <= j <= DIM):
        raise VFError(f"direction {j} out of range")
    part_x = f.diff_x(j).mul_t_power(delta + 1).scale(Fraction(1, 1) / (delta + 1))
    part_v = f.diff_v(j).mul_t_power(delta)
    return part_x + part_v


def apply_H_power(f: PolyFunction, delta, k: int, j: int = 1) -> PolyFunction:
    for _ in range(k):
        f = apply_H(f, delta, j)
    return f


def commutator_residual(f: PolyFunction, delta, k: int, j: int = 1) -> PolyFunction:
    """[transport, H^k] f minus delta k t^(delta-1) d/dv_j H^(k-1) f.

    Identically zero for every polynomial; a nonzero residual exposes the
    offending monomials.
    """
    if k < 0:
        raise VFError("k must be nonnegative")
    delta = Fraction(delta)
    hk = apply_H_power(f, delta, k, j)
    lhs = transport(hk) - apply_H_power(transport(f), delta, k, j)
    if k == 0:
        return lhs
    rhs = apply_H_power(f, delta, k - 1, j).diff_v(j).mul_t_power(delta - 1).scale(
        delta * k
    )
    return lhs - rhs


def mixed_commutator_residual(
    f: PolyFunction, delta1, delta2, alpha: tuple[int, int], j: int = 1
) -> PolyFunction:
    """Residual of the two-field commutator expansion.

    [transport, H1^a1 H2^a2] = a1 d1 t^(d1-1) d/dv H1^(a1-1) H2^a2
                             + a2 d2 t^(d2-1) d/dv H1^a1 H2^(a2-1),
    the two fields commuting with each other.
    """
    a1, a2 = alpha
    d1, d2 = Fraction(delta1), Fraction(delta2)
    mixed = apply_H_power(apply_H_power(f, d2, a2, j), d1, a1, j)
    lhs = transport(mixed) - apply_H_power(
        apply_H_power(transport(f), d2, a2, j), d1, a1, j
    )
    rhs = PolyFunction.zero()
    if a1 > 0:
        rhs = rhs + apply_H_power(
            apply_H_power(f, d2, a2, j), d1, a1 - 1, j
        ).diff_v(j).mul_t_power(d1 - 1).scale(d1 * a1)
    if a2 > 0:
        rhs = rhs + apply_H_power(
            apply_H_power(f, d2, a2 - 1, j), d1, a1, j
        ).diff_v(j).mul_t_power(d2 - 1).scale(d2 * a2)
    return lhs - rhs


@dataclass(frozen=True)
class VFParams:
    """Field-pair parameters: delta1 = lambda, delta2 set by the regime."""

    gamma: Fraction
    s: Fraction
    lam: Fraction
    direction: int = 1

    def __post_init__(self):
        for name in ("gamma", "s", "lam"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))
        if not (1 <= self.direction <= DIM):
            raise VFError(f"direction {self.direction} out of range")
        if self.lam <= max(Fraction(1), 1 / (2 * self.tau)):
            raise VFError(
                f"lambda={self.lam} must exceed max(1, 1/(2 tau)) = "
                f"{max(Fraction(1), 1 / (2 * self.tau))}"
            )
        if not (self.delta1 > self.delta2 >= 1):
            raise VFError(
                f"need delta1 > delta2 >= 1, got {self.delta1}, {self.delta2}"
            )

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
    j = vp.direction
    d1, d2 = vp.delta1, vp.delta2
    h1 = apply_H(f, d1, j)
    h2 = apply_H(f, d2, j).mul_t_power(d1 - d2)
    gx = h1.scale(co["cx1"]) + h2.scale(co["cx2"])
    gv = h1.scale(co["cv1"]) + h2.scale(co["cv2"])
    return gx, gv


def reconstruction_residuals(
    f: PolyFunction, vp: VFParams
) -> tuple[PolyFunction, PolyFunction]:
    gx, gv = reconstruct_derivatives(f, vp)
    j = vp.direction
    direct_x = f.diff_x(j).mul_t_power(vp.lam + 1)
    direct_v = f.diff_v(j).mul_t_power(vp.lam)
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


# --- ledger-weighted norm aggregates ----------------------------------------


class MissingTableEntries(VFError):
    def __init__(self, missing):
        super().__init__(f"norm table missing entries: {sorted(missing)[:10]}")
        self.missing = missing


def xy_norms_single(
    table: dict[tuple[int, int, int], tuple[float, float]],
    rho: float,
    exponent: float,
    k_max: int,
    directions: int = 3,
    fields: int = 2,
) -> tuple[float, float]:
    """Aggregate for the single-field regime (gamma/2 + 2s >= 1).

    ``table[(i, j, k)]`` holds (sup-in-time norm, time-integrated norm) for
    field i in 1..fields, direction j in 1..directions, order k in 0..k_max.
    X sums over (i, j) the sup over k of ledger-weighted sup norms; Y the
    same with the time-integrated entries.
    """
    missing = {
        (i, j, k)
        for i in range(1, fields + 1)
        for j in range(1, directions + 1)
        for k in range(0, k_max + 1)
        if (i, j, k) not in table
    }
    if missing:
        raise MissingTableEntries(missing)
    x_total, y_total = 0.0, 0.0
    for i in range(1, fields + 1):
        for j in range(1, directions + 1):
            weights = [
                (ledger_value(rho, k, exponent), table[(i, j, k)])
                for k in range(0, k_max + 1)
            ]
            x_total += max(w * sup for w, (sup, _) in weights)
            y_total += max(w * integ for w, (_, integ) in weights)
    return x_total, y_total


def xy_norms_mixed(
    table: dict[tuple[int, tuple[int, int]], tuple[float, float]],
    rho: float,
    exponent: float,
    k_max: int,
    directions: int = 3,
) -> tuple[float, float]:
    """Aggregate for the mixed regime (gamma/2 + 2s < 1).

    ``table[(j, (a1, a2))]`` holds the norms for the composite field
    H1^a1 H2^a2 along direction j; for each order k the sup runs over all
    |alpha| = k.
    """
    missing = {
        (j, (a1, k - a1))
        for j in range(1, directions + 1)
        for k in range(0, k_max + 1)
        for a1 in range(0, k + 1)
        if (j, (a1, k - a1)) not in table
    }
    if missing:
        raise MissingTableEntries(missing)
    x_total, y_total = 0.0, 0.0
    for j in range(1, directions + 1):
        x_best, y_best = 0.0, 0.0
        for k in range(0, k_max + 1):
            w = ledger_value(rho, k, exponent)
            sup_x = max(table[(j, (a1, k - a1))][0] for a1 in range(0, k + 1))
            sup_y = max(table[(j, (a1, k - a1))][1] for a1 in range(0, k + 1))
            x_best = max(x_best, w * sup_x)
            y_best = max(y_best, w * sup_y)
        x_total += x_best
        y_total += y_best
    return x_total, y_total


def random_poly(rng, max_total_degree: int = 6, n_terms: int = 5) -> PolyFunction:
    """Deterministic random polynomial with small integer coefficients."""
    out = PolyFunction.zero()
    for _ in range(n_terms):
        c = int(rng.integers(-4, 5))
        if c == 0:
            c = 1
        budget = int(rng.integers(0, max_total_degree + 1))
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
