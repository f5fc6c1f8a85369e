"""Continuous problem definition and the named problem catalog.

A ProblemSpec carries the full integro-parabolic problem

    u_t - (a u_xx + b u_x) = f(t,x,u) + int_0^t g0(t,x,s,u(t,x),u(s,x)) ds

on (0,T) x (x_left, x_right), with boundary operator
alpha0 du/dnu + beta0 u = h at both physical endpoints, initial data u0,
and a user-supplied sub/supersolution pair bracketing the solution.
All functional data enter as plain callables that must broadcast over
numpy arrays and be pure.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np


class CatalogError(ValueError):
    pass


@dataclass(frozen=True)
class SpaceTimeDomain:
    x_left: float
    x_right: float
    T: float

    def __post_init__(self):
        if not self.x_left < self.x_right:
            raise ValueError(f"x_left must be < x_right, got [{self.x_left}, {self.x_right}]")
        if not self.T > 0:
            raise ValueError(f"T must be positive, got {self.T}")


@dataclass(frozen=True)
class EllipticCoefficients:
    a: Callable  # diffusion, (t, x) -> real, must be > 0
    b: Callable  # advection, (t, x) -> real


@dataclass(frozen=True)
class Reaction:
    f: Callable  # (t, x, u) -> real
    f_u: Optional[Callable] = None  # analytic partial derivative, optional


@dataclass(frozen=True)
class ExponentialForm:
    """Structure of the kernel g0 = kappa * exp(-lam (t - s)) * psi(eta2)."""

    kappa: float
    lam: float
    psi: Callable  # eta2 -> real, nondecreasing, broadcasting over arrays


@dataclass(frozen=True)
class VolterraKernel:
    g0: Callable  # (t, x, s, eta1, eta2) -> real, nondecreasing in eta2
    dg0_deta1: Optional[Callable] = None
    lipschitz_K0: Optional[float] = None
    trivial: bool = False  # identically zero kernel; enables a fast path
    # Declared exponential structure; enables the O(nt nx) recursive quadrature.
    exp_form: Optional[ExponentialForm] = None

    @classmethod
    def zero(cls):
        return cls(g0=lambda t, x, s, e1, e2: 0.0 * e2, trivial=True)

    @classmethod
    def exponential(cls, kappa, lam, psi, lipschitz_psi=None):
        """Kernel kappa * exp(-lam (t - s)) * psi(eta2), independent of eta1.

        g0 and dg0_deta1 (identically zero) stay defined, so the generic
        trapezoid path remains available as an oracle; the memory quadrature
        and the stabilizer use the declared structure instead.  With a
        Lipschitz constant L of psi and lam >= 0 the kernel is Lipschitz
        with constant |kappa| L; otherwise lipschitz_K0 is left unknown.
        """
        kappa, lam = float(kappa), float(lam)
        lipschitz = None
        if lipschitz_psi is not None and lam >= 0.0:
            lipschitz = abs(kappa) * float(lipschitz_psi)
        return cls(
            g0=lambda t, x, s, e1, e2: kappa * np.exp(-lam * (t - s)) * psi(e2),
            dg0_deta1=lambda t, x, s, e1, e2: 0.0 * e1,
            lipschitz_K0=lipschitz,
            exp_form=ExponentialForm(kappa=kappa, lam=lam, psi=psi),
        )


@dataclass(frozen=True)
class BoundaryCondition:
    """Data of alpha0 du/dnu + beta0 u = h at one physical endpoint."""

    alpha0: Callable  # t -> real, >= 0
    beta0: Callable  # t -> real, >= 0
    h: Callable  # t -> real


@dataclass(frozen=True)
class Bracket:
    u_hat: Callable  # subsolution candidate, (t, x) -> real
    u_tilde: Callable  # supersolution candidate, (t, x) -> real


@dataclass(frozen=True)
class ProblemSpec:
    domain: SpaceTimeDomain
    coeffs: EllipticCoefficients
    reaction: Reaction
    kernel: VolterraKernel
    bc_left: BoundaryCondition
    bc_right: BoundaryCondition
    u0: Callable  # x -> real
    bracket: Bracket
    exact: Optional[Callable] = None  # known exact solution (t, x) -> real


# Sample points per axis (t, x, s, eta1, eta2) of validate_problem's checks,
# and its random draws of the Lipschitz check.
SAMPLING = 16


def _samples(fn, t, x):
    return np.broadcast_to(np.asarray(fn(t, x), dtype=float), np.broadcast(t, x).shape)


def validate_problem(spec):
    """Sample-check the problem hypotheses; returns a list of violations.

    Each violation is a string naming the failed invariant and a witnessing
    point.  An empty list means no violation was found at SAMPLING points
    per axis; nothing is proven.
    """
    report = []
    dom = spec.domain
    ts = np.linspace(0.0, dom.T, SAMPLING)
    xs = np.linspace(dom.x_left, dom.x_right, SAMPLING)
    tg = ts[:, None]
    xg = xs[None, :]

    a = _samples(spec.coeffs.a, tg, xg)
    if np.any(a <= 0):
        k, i = np.unravel_index(np.argmin(a), a.shape)
        report.append(f"diffusion not positive at (t={ts[k]:.6g}, x={xs[i]:.6g})")

    for end, bc, xe in (("left", spec.bc_left, dom.x_left), ("right", spec.bc_right, dom.x_right)):
        al = np.array([float(bc.alpha0(t)) for t in ts])
        be = np.array([float(bc.beta0(t)) for t in ts])
        if np.any(al < 0) or np.any(be < 0):
            k = int(np.argmin(np.minimum(al, be)))
            report.append(f"negative boundary coefficient at {end} end (t={ts[k]:.6g})")
        zero = al + be <= 0
        if np.any(zero):
            k = int(np.argmax(zero))
            report.append(f"boundary coefficients both zero at {end} end (t={ts[k]:.6g})")
        # Compatibility at a Dirichlet endpoint: beta0(0) u0(xe) = h(0).
        if float(bc.alpha0(0.0)) == 0.0:
            mismatch = float(bc.beta0(0.0)) * float(np.asarray(spec.u0(xe), dtype=float)) - float(bc.h(0.0))
            if abs(mismatch) > 1e-10:
                report.append(
                    f"incompatible initial/boundary data at {end} end (residual={mismatch:.3g})"
                )

    lo = _samples(spec.bracket.u_hat, tg, xg)
    hi = _samples(spec.bracket.u_tilde, tg, xg)
    if np.any(lo > hi):
        k, i = np.unravel_index(np.argmax(lo - hi), lo.shape)
        report.append(f"bracket out of order at (t={ts[k]:.6g}, x={xs[i]:.6g})")

    width = np.maximum(hi - lo, 0.0)

    # Monotonicity of g0 in eta2 over the bracket, sampled.
    theta = np.linspace(0.0, 1.0, SAMPLING)
    done = False
    for k, t in enumerate(ts):
        if t == 0.0 or done:
            continue
        for s in np.linspace(0.0, t, SAMPLING):
            ms = int(np.argmin(np.abs(ts - s)))
            # eta1 ranges over the bracket at (t, x), eta2 at (s, x);
            # axes are (eta1 sample, eta2 sample, node).
            e1 = (lo[k] + theta[:, None] * width[k])[:, None, :]
            e2 = (lo[ms] + theta[:, None] * width[ms])[None, :, :]
            vals = np.asarray(spec.kernel.g0(t, xs[None, None, :], s, e1, e2), dtype=float)
            vals = np.broadcast_to(vals, (SAMPLING, SAMPLING, SAMPLING))
            diffs = np.diff(vals, axis=1)  # theta ascending -> must be >= 0
            if np.any(diffs < -1e-12):
                j = np.unravel_index(np.argmin(diffs), diffs.shape)
                report.append(
                    f"kernel not nondecreasing in eta2 at (t={t:.6g}, s={s:.6g}, x={xs[j[2]]:.6g})"
                )
                done = True
                break

    # Analytic reaction derivative vs centered differences.
    if spec.reaction.f_u is not None and np.max(width) > 0:
        eps = 1e-6 * np.max(width)
        eta = lo + theta[:, None, None] * width
        fd = (
            np.asarray(spec.reaction.f(tg, xg, eta + eps), dtype=float)
            - np.asarray(spec.reaction.f(tg, xg, eta - eps), dtype=float)
        ) / (2 * eps)
        an = np.broadcast_to(np.asarray(spec.reaction.f_u(tg, xg, eta), dtype=float), eta.shape)
        err = np.abs(np.broadcast_to(fd, eta.shape) - an)
        if np.max(err) > 10 * eps:
            j = np.unravel_index(np.argmax(err), err.shape)
            report.append(
                f"reaction derivative mismatch at (t={ts[j[1]]:.6g}, x={xs[j[2]]:.6g}), |diff|={np.max(err):.3g}"
            )

    # Sampled Lipschitz bound for g0.
    if spec.kernel.lipschitz_K0 is not None and np.max(width) > 0:
        K0 = float(spec.kernel.lipschitz_K0)
        rng = np.random.default_rng(0)
        t = 0.5 * dom.T
        s = 0.25 * dom.T
        xm = xs[SAMPLING // 2]
        w = float(np.max(width))
        base = float(np.min(lo))
        for _ in range(SAMPLING):
            e1, e2, e1p, e2p = base + w * rng.random(4)
            d = abs(
                float(np.asarray(spec.kernel.g0(t, xm, s, e1, e2), dtype=float))
                - float(np.asarray(spec.kernel.g0(t, xm, s, e1p, e2p), dtype=float))
            )
            if d > K0 * (abs(e1 - e1p) + abs(e2 - e2p)) + 1e-9:
                report.append(
                    f"kernel Lipschitz bound violated at (t={t:.6g}, x={xm:.6g})"
                )
                break

    return report


def _identity(u):
    return u


def _sin_pi(x):
    return np.sin(np.pi * x)


def _dirichlet_zero():
    return BoundaryCondition(alpha0=lambda t: 0.0, beta0=lambda t: 1.0, h=lambda t: 0.0)


def _param(params, key, problem, default=None):
    """Pop a numeric parameter, naming it when it is missing or not a number."""
    if key not in params and default is None:
        raise CatalogError(f"{problem}: missing parameter {key!r}")
    value = params.pop(key, default)
    try:
        return float(value)
    except (TypeError, ValueError):
        raise CatalogError(f"{problem}: parameter {key!r} must be a number, got {value!r}") from None


def _linear_heat(params):
    T = _param(params, "T", "linear_heat", default=0.01)
    dom = SpaceTimeDomain(0.0, 1.0, T)
    return ProblemSpec(
        domain=dom,
        coeffs=EllipticCoefficients(a=lambda t, x: 1.0 + 0.0 * x, b=lambda t, x: 0.0 * x),
        reaction=Reaction(f=lambda t, x, u: 0.0 * u, f_u=lambda t, x, u: 0.0 * u),
        kernel=VolterraKernel.zero(),
        bc_left=_dirichlet_zero(),
        bc_right=_dirichlet_zero(),
        u0=_sin_pi,
        bracket=Bracket(u_hat=lambda t, x: 0.0 * x, u_tilde=lambda t, x: 1.0 + 0.0 * x),
        exact=lambda t, x: np.exp(-np.pi**2 * t) * np.sin(np.pi * x),
    )


def _logistic_memory(params):
    lam, kappa, sigma = (_param(params, key, "logistic_memory") for key in ("lam", "kappa", "sigma"))
    if not lam > 0.0:
        raise CatalogError(f"logistic_memory: lam must be positive, got {lam}")
    rho = max(1.0 + kappa / lam, sigma)
    return ProblemSpec(
        domain=SpaceTimeDomain(0.0, 1.0, 1.0),
        coeffs=EllipticCoefficients(a=lambda t, x: 1.0 + 0.0 * x, b=lambda t, x: 0.0 * x),
        reaction=Reaction(
            f=lambda t, x, u: lam * u * (1.0 - u),
            f_u=lambda t, x, u: lam * (1.0 - 2.0 * u),
        ),
        kernel=VolterraKernel.exponential(kappa, 1.0, _identity, lipschitz_psi=1.0),
        bc_left=_dirichlet_zero(),
        bc_right=_dirichlet_zero(),
        u0=lambda x: sigma * np.sin(np.pi * x),
        bracket=Bracket(u_hat=lambda t, x: 0.0 * x, u_tilde=lambda t, x: rho + 0.0 * x),
    )


def _mms_forcing(t, x):
    # Forcing that makes e^{-t} sin(pi x) the exact solution: the memory
    # integral of the exponential kernel evaluates to t e^{-t} sin(pi x).
    e = np.exp(-t) * np.sin(np.pi * x)
    return e * (np.pi**2 - 1.0 - t) + e * e


def _manufactured_1(params):
    return ProblemSpec(
        domain=SpaceTimeDomain(0.0, 1.0, 1.0),
        coeffs=EllipticCoefficients(a=lambda t, x: 1.0 + 0.0 * x, b=lambda t, x: 0.0 * x),
        reaction=Reaction(
            f=lambda t, x, u: -u * u + _mms_forcing(t, x),
            f_u=lambda t, x, u: -2.0 * u,
        ),
        kernel=VolterraKernel.exponential(1.0, 1.0, _identity, lipschitz_psi=1.0),
        bc_left=_dirichlet_zero(),
        bc_right=_dirichlet_zero(),
        u0=_sin_pi,
        bracket=Bracket(u_hat=lambda t, x: 0.0 * x, u_tilde=lambda t, x: 4.0 + 0.0 * x),
        exact=lambda t, x: np.exp(-t) * np.sin(np.pi * x),
    )


_CATALOG = {
    "linear_heat": _linear_heat,
    "logistic_memory": _logistic_memory,
    "manufactured_1": _manufactured_1,
}


def catalog_names():
    return sorted(_CATALOG)


def catalog_lookup(name, params=None):
    """Assemble a named ProblemSpec from the catalog."""
    if name not in _CATALOG:
        raise CatalogError(f"unknown problem {name!r}; known: {', '.join(catalog_names())}")
    params = dict(params or {})
    for key, value in params.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise CatalogError(f"{name}: parameter {key!r} must be finite, got {value}")
    try:
        spec = _CATALOG[name](params)
    except CatalogError:
        raise
    except (TypeError, ValueError) as exc:  # a parameter of the wrong type or range
        raise CatalogError(f"{name}: {exc}") from None
    if params:
        raise CatalogError(f"{name}: unexpected parameters {sorted(params)}")
    return spec
