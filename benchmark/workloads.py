"""The three benchmark workloads and their seeded inputs.

Seed 0 (DEFAULT_SEED) reproduces the named workloads exactly.  Any other
seed perturbs only physical parameters, each by at most PERTURBATION
relative, inside ranges where the workload's bracket still certifies and
the sweep count moves by at most one.  manufactured_1 has no parameters, so memory_dd
is the same problem under every seed.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from monodd import (
    BoundaryCondition,
    Bracket,
    Decomposition,
    EllipticCoefficients,
    ProblemSpec,
    Reaction,
    SpaceTimeDomain,
    VolterraKernel,
    catalog_lookup,
)

DEFAULT_SEED = 0
PERTURBATION = 0.02
TOL = 1e-8
MAX_SWEEPS = 200
# A solution within this distance of exact e^{-t} sin(pi x) on the 128x256
# grid; the seed's discretization error there is 1.7e-4.
EXACT_ERR_BOUND = 5e-4


def kpp_spec(lam, b, amp):
    """Memory-free Fisher-KPP problem: variable diffusion, advection, a Robin
    left end and a Dirichlet right end; [0, 1] brackets it for amp in [0, 1]."""
    return ProblemSpec(
        domain=SpaceTimeDomain(0.0, 1.0, 1.0),
        coeffs=EllipticCoefficients(
            a=lambda t, x: 0.05 + 0.05 * x,
            b=lambda t, x: b + 0.0 * x,
        ),
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


@dataclass(frozen=True)
class Workload:
    """A decomposed solve through the library, or, with through_cli, an
    undecomposed `monodd --audit-mmatrix run` of the catalog problem."""

    name: str
    nx: int
    nt: int
    problem: Callable  # params -> ProblemSpec
    params: dict  # physical parameters after seeding
    default_params: dict  # the parameters seed 0 gives
    through_cli: bool

    @property
    def is_default(self):
        """Inputs equal the seed inputs, so the stored reference applies."""
        return self.params == self.default_params

    @property
    def oracle_check(self):
        """Checked against the single-domain oracle: every decomposed run,
        and the undecomposed one when its inputs have no stored reference."""
        return not self.through_cli or not self.is_default

    def spec(self):
        return self.problem(**self.params)

    def decomposition(self):
        return Decomposition(i1_hi=5 * self.nx // 8, i2_lo=3 * self.nx // 8)

    def cli_config(self, solution_csv, history_csv):
        return {
            "problem": {"name": "logistic_memory", "params": self.params},
            "grid": {"nx": self.nx, "nt": self.nt},
            "decomposition": "single_domain",
            "solver": {"tol": TOL, "max_sweeps": MAX_SWEEPS},
            "output": {"solution_csv": solution_csv, "history_csv": history_csv},
        }


def _logistic_memory(**params):
    return catalog_lookup("logistic_memory", params)


_DEFAULTS = {
    "memory_dd": (128, 256, lambda: catalog_lookup("manufactured_1"), {}, False),
    "kpp_dd": (256, 256, kpp_spec, {"lam": 8.0, "b": 0.5, "amp": 0.5}, False),
    "cli_single": (512, 64, _logistic_memory, {"lam": 1.0, "kappa": 0.5, "sigma": 0.5}, True),
}

NAMES = tuple(_DEFAULTS)


def build(name, seed=DEFAULT_SEED):
    """The workload `name` with its inputs drawn from `seed`."""
    if name not in _DEFAULTS:
        raise ValueError(f"unknown workload {name!r}; known: {', '.join(NAMES)}")
    nx, nt, problem, defaults, cli = _DEFAULTS[name]
    params = dict(defaults)
    if seed != DEFAULT_SEED:
        rng = np.random.default_rng([seed, NAMES.index(name)])
        for key in sorted(params):
            params[key] = float(params[key] * (1.0 + rng.uniform(-PERTURBATION, PERTURBATION)))
    return Workload(name, nx, nt, problem, params, dict(defaults), cli)
