import dataclasses

import numpy as np

from monodd import (
    Bracket,
    BoundaryCondition,
    EllipticCoefficients,
    ProblemSpec,
    Reaction,
    SpaceTimeDomain,
    VolterraKernel,
)


def make_zero_problem():
    """All-zero data: a=1, b=0, f=0, no memory, homogeneous Dirichlet."""
    bc = BoundaryCondition(alpha0=lambda t: 0.0, beta0=lambda t: 1.0, h=lambda t: 0.0)
    return ProblemSpec(
        domain=SpaceTimeDomain(0.0, 1.0, 1.0),
        coeffs=EllipticCoefficients(a=lambda t, x: 1.0 + 0.0 * x, b=lambda t, x: 0.0 * x),
        reaction=Reaction(f=lambda t, x, u: 0.0 * u, f_u=lambda t, x, u: 0.0 * u),
        kernel=VolterraKernel.zero(),
        bc_left=bc,
        bc_right=bc,
        u0=lambda x: 0.0 * x,
        bracket=Bracket(u_hat=lambda t, x: 0.0 * x, u_tilde=lambda t, x: 0.0 * x),
    )


def desk_logistic():
    from monodd import catalog_lookup

    return catalog_lookup("logistic_memory", {"lam": 1.0, "kappa": 0.5, "sigma": 0.5})


def kpp(lam, b, amp):
    """Memory-free Fisher-KPP problem with advection, variable diffusion, a
    Robin left end and a Dirichlet right end; [0, 1] brackets it."""
    return ProblemSpec(
        domain=SpaceTimeDomain(0.0, 1.0, 1.0),
        coeffs=EllipticCoefficients(a=lambda t, x: 0.05 + 0.05 * x, b=lambda t, x: b + 0.0 * x),
        reaction=Reaction(
            f=lambda t, x, u: lam * u * (1.0 - u),
            f_u=lambda t, x, u: lam * (1.0 - 2.0 * u),
        ),
        kernel=VolterraKernel.zero(),
        bc_left=BoundaryCondition(alpha0=lambda t: 1.0, beta0=lambda t: 1.0, h=lambda t: 0.0),
        bc_right=BoundaryCondition(alpha0=lambda t: 0.0, beta0=lambda t: 1.0, h=lambda t: 0.0),
        u0=lambda x: amp * np.sin(np.pi * x),
        bracket=Bracket(u_hat=lambda t, x: 0.0 * x, u_tilde=lambda t, x: 1.0 + 0.0 * x),
    )


def kpp_a_of_t():
    """kpp(8, 0.5, 0.5) with the diffusion 0.05 + 0.05 x + 0.01 t: no two
    steps share their data."""
    spec = kpp(8.0, 0.5, 0.5)
    return dataclasses.replace(spec, coeffs=dataclasses.replace(
        spec.coeffs, a=lambda t, x: 0.05 + 0.05 * x + 0.01 * t))


def kpp_h_of_t():
    """kpp(8, 0.5, 0.5) with the left end's h = 0.01 t: no two steps share
    their data."""
    spec = kpp(8.0, 0.5, 0.5)
    return dataclasses.replace(spec, bc_left=dataclasses.replace(spec.bc_left, h=lambda t: 0.01 * t))
