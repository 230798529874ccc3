"""Germ validation, Milnor number, cobasis, and miniversal unfoldings.

The Milnor number is the count of monomials under the staircase of the
Jacobian ideal's Groebner basis; the unfolding adds one parameter per
cobasis monomial other than 1, with the linear monomials first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from .errors import (IdentityViolation, NotCritical, NotIsolated,
                     OrderTooLow, VariableMismatch)
from .groebner import Budget, groebner_basis, normal_form, staircase_monomials
from .poly import GREVLEX, Polynomial
from .realroots import sign_changes
from .resultant import poly_determinant


@dataclass(frozen=True)
class GermAnalysis:
    """Milnor data of a polynomial germ with an isolated critical point."""

    f: Polynomial
    n: int
    order: int
    mu: int
    cobasis: tuple[Polynomial, ...]
    jac_gb: tuple[Polynomial, ...]
    signature: tuple[int, int]

    @property
    def variables(self) -> tuple[str, ...]:
        return self.f.variables


@dataclass(frozen=True)
class Unfolding:
    """Miniversal unfolding F = f + sum t_k g_k of a validated germ."""

    analysis: GermAnalysis
    deformation_monomials: tuple[Polynomial, ...]
    parameter_names: tuple[str, ...]
    F: Polynomial
    _by_z: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        """F.num as (e, f_e, ((k, c), ...)) for each (f_e + sum c t_k) z^e."""
        n, by_z = self.n, {}
        for e, c in self.F.num.items():
            group = by_z.setdefault(e[:n], [0, []])
            if not any(e[n:]):
                group[0] = c
            elif sum(e[n:]) == 1:
                group[1].append((e.index(1, n) - n, c))
            else:
                raise IdentityViolation(f"F = {self.F} is not linear in t")
        object.__setattr__(self, "_by_z", tuple(
            (e, c, tuple(linear)) for e, (c, linear) in by_z.items()))

    @property
    def n(self) -> int:
        return self.analysis.n

    @property
    def mu(self) -> int:
        return self.analysis.mu

    @property
    def z_names(self) -> tuple[str, ...]:
        return self.analysis.variables

    def specialize(self, t: tuple[Fraction, ...]) -> Polynomial:
        """F_t as a polynomial in the z variables only, on ints: F_t = (f_e q
        + sum c s_k) z^e / (F.den q) for t = s / q."""
        if len(t) != len(self.parameter_names):
            raise VariableMismatch(
                f"expected {len(self.parameter_names)} parameters, got {len(t)}")
        t = tuple(map(Fraction, t))
        q = lcm(*(x.denominator for x in t))
        s, num = [x.numerator * (q // x.denominator) for x in t], {}
        for e, c, linear in self._by_z:
            if c := c * q + sum(ck * s[k] for k, ck in linear):
                num[e] = c
        return Polynomial._of(self.z_names, num, self.F.den * q)


def _quadratic_signature(f: Polynomial) -> tuple[int, int]:
    """Signature (q+, q-) of the degree-2 part, by Descartes' rule of signs.

    The Hessian H of f at 0 is symmetric, so p(x) = det(xI - H) has only
    real roots: the sign changes of p's coefficients count its positive
    roots exactly, and those of p(-x) its negative ones."""
    names = f.variables
    x = Polynomial.variable("x", ("x",))
    char = poly_determinant(
        [[x * int(a == b) - f.diff(a).diff(b).constant_term() for b in names]
         for a in names])
    coeffs = char.univariate_coeffs()
    return (sign_changes(coeffs),
            sign_changes([c * (-1) ** k for k, c in enumerate(coeffs)]))


def _cobasis_key(exps):
    return (sum(exps), tuple(-e for e in exps))


def analyze_germ(f: Polynomial) -> GermAnalysis:
    """Validate an isolated critical germ and compute its Milnor data."""
    if f.is_zero():
        raise NotIsolated("the zero germ has no isolated critical point")
    if f.constant_term() != 0:
        raise NotCritical("germ has a nonzero constant term")
    names = f.variables
    n = len(names)
    partials = [f.diff(v) for v in names]
    for v, p in zip(names, partials):
        if p.constant_term() != 0:
            raise NotCritical(f"d/d{v} does not vanish at the origin")
    if all(p.is_zero() for p in partials):
        raise NotIsolated("all partials vanish identically")
    jac_gb = groebner_basis(partials, GREVLEX)
    staircase = staircase_monomials(jac_gb, GREVLEX)
    if staircase is None:
        raise NotIsolated("Jacobian ideal is not zero-dimensional (mu infinite)")
    staircase.sort(key=_cobasis_key)
    cobasis = tuple(Polynomial.monomial(e, 1, names) for e in staircase)
    return GermAnalysis(
        f=f,
        n=n,
        order=f.order(),
        mu=len(staircase),
        cobasis=cobasis,
        jac_gb=tuple(jac_gb),
        signature=_quadratic_signature(f),
    )


def miniversal_unfolding(a: GermAnalysis) -> Unfolding:
    """Assemble F = f + sum t_k g_k with g_i = z_i for i <= n.

    Morse germs (mu = 1) unfold trivially with no parameters; other germs
    of order <= 2 must have their quadratic part stripped by the caller.
    """
    names = a.variables
    if a.mu > 1 and a.order <= 2:
        raise OrderTooLow(
            f"order {a.order} germ with signature {a.signature}; "
            "strip the quadratic part first")
    linear = [Polynomial.variable(v, names) for v in names]
    rest = [g for g in a.cobasis
            if not g.is_constant() and g not in linear]
    # order >= 3 puts every z_i under the staircase, so this reindexing
    # is a permutation of cobasis minus the constant
    monomials = (linear + rest) if a.mu > 1 else []
    if len(monomials) + 1 != a.mu:
        raise IdentityViolation(
            f"{len(monomials)} deformation monomials for mu = {a.mu}")
    t_names = tuple(f"t{k}" for k in range(1, len(monomials) + 1))
    for t in t_names:
        if t in names:
            raise VariableMismatch(f"germ variable {t!r} collides with parameters")
    # mu terms of n + mu exponents each, a step per 1,000 entries
    Budget("miniversal_unfolding").step(a.mu * (a.n + a.mu) // 1000)
    # f's numerators, then t_k g_k (g_k a monic monomial), over f's den
    zeros, den = (0,) * len(t_names), a.f.den
    num = {e + zeros: c for e, c in a.f.num.items()}
    num.update((e + zeros[:k] + (1,) + zeros[k + 1:], den)
               for k, g in enumerate(monomials) for e in g.num)
    return Unfolding(
        analysis=a,
        deformation_monomials=tuple(monomials),
        parameter_names=t_names,
        F=Polynomial._of(names + t_names, num, den),
    )


def unfold_germ(f: Polynomial) -> Unfolding:
    """Convenience: analyze and unfold in one step."""
    return miniversal_unfolding(analyze_germ(f))
