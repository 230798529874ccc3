"""Germ validation, Milnor number, cobasis, and miniversal unfoldings.

The Milnor number is the count of monomials under the staircase of the
Jacobian ideal's Groebner basis; the unfolding adds one parameter per
cobasis monomial other than 1, with the linear monomials first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (IdentityViolation, NotCritical, NotIsolated,
                     OrderTooLow, VariableMismatch)
from .groebner import groebner_basis, normal_form, staircase_monomials
from .poly import GREVLEX, Polynomial


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
        """F_t as a polynomial in the z variables only."""
        if len(t) != len(self.parameter_names):
            raise VariableMismatch(
                f"expected {len(self.parameter_names)} parameters, got {len(t)}")
        values = dict(zip(self.parameter_names, t))
        return self.F.substitute(values)


def _quadratic_signature(f: Polynomial) -> tuple[int, int]:
    """Signature (q+, q-) of the degree-2 part, by exact diagonalization."""
    names = f.variables
    n = len(names)
    a = [[Fraction(0)] * n for _ in range(n)]
    for e, c in f.terms.items():
        if sum(e) != 2:
            continue
        idx = [i for i, k in enumerate(e) if k]
        if len(idx) == 1:
            a[idx[0]][idx[0]] = c
        else:
            i, j = idx
            a[i][j] = a[j][i] = c / 2
    pos = neg = 0
    live = list(range(n))
    while live:
        p = next((i for i in live if a[i][i] != 0), None)
        if p is None:
            pair = next(((i, j) for i in live for j in live
                         if i != j and a[i][j] != 0), None)
            if pair is None:
                break
            i, j = pair
            for k in range(n):
                a[i][k] += a[j][k]
            for k in range(n):
                a[k][i] += a[k][j]
            p = i
        if a[p][p] > 0:
            pos += 1
        else:
            neg += 1
        live.remove(p)
        for i in live:
            factor = a[i][p] / a[p][p]
            if factor == 0:
                continue
            for k in range(n):
                a[i][k] -= factor * a[p][k]
            for k in range(n):
                a[k][i] -= factor * a[k][p]
    return pos, neg


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
    ring = names + t_names
    F = a.f.extend(ring)
    for t, g in zip(t_names, monomials):
        F = F + Polynomial.variable(t, ring) * g.extend(ring)
    return Unfolding(
        analysis=a,
        deformation_monomials=tuple(monomials),
        parameter_names=t_names,
        F=F,
    )


def unfold_germ(f: Polynomial) -> Unfolding:
    """Convenience: analyze and unfold in one step."""
    return miniversal_unfolding(analyze_germ(f))
