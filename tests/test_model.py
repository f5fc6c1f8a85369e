import numpy as np
import pytest

from monodd import (
    BoundaryCondition,
    Bracket,
    CatalogError,
    EllipticCoefficients,
    ProblemSpec,
    Reaction,
    SpaceTimeDomain,
    VolterraKernel,
    build_grid,
    catalog_lookup,
    catalog_names,
    check_bracket,
    sample_field,
    validate_problem,
)
from monodd.volterra import eval_g_row


def simple_spec(**overrides):
    bc = BoundaryCondition(alpha0=lambda t: 0.0, beta0=lambda t: 1.0, h=lambda t: 0.0)
    fields = dict(
        domain=SpaceTimeDomain(0.0, 1.0, 1.0),
        coeffs=EllipticCoefficients(a=lambda t, x: 1.0 + 0.0 * x, b=lambda t, x: 0.0 * x),
        reaction=Reaction(f=lambda t, x, u: 0.0 * u, f_u=lambda t, x, u: 0.0 * u),
        kernel=VolterraKernel.zero(),
        bc_left=bc,
        bc_right=bc,
        u0=lambda x: 0.0 * x,
        bracket=Bracket(u_hat=lambda t, x: 0.0 * x, u_tilde=lambda t, x: 1.0 + 0.0 * x),
    )
    fields.update(overrides)
    return ProblemSpec(**fields)


class TestValidateProblem:
    def test_both_boundary_coefficients_zero(self):
        bad = BoundaryCondition(alpha0=lambda t: 0.0, beta0=lambda t: 0.0, h=lambda t: 0.0)
        report = validate_problem(simple_spec(bc_left=bad))
        assert any("boundary coefficients both zero" in v for v in report)

    def test_clean_dirichlet_problem(self):
        assert validate_problem(simple_spec()) == []

    def test_negative_diffusion(self):
        bad = EllipticCoefficients(a=lambda t, x: -1.0 + 0.0 * x, b=lambda t, x: 0.0 * x)
        report = validate_problem(simple_spec(coeffs=bad))
        assert any("diffusion not positive" in v for v in report)

    def test_bracket_out_of_order(self):
        br = Bracket(u_hat=lambda t, x: 1.0 + 0.0 * x, u_tilde=lambda t, x: 0.0 * x)
        report = validate_problem(simple_spec(bracket=br))
        assert any("bracket out of order" in v for v in report)

    def test_kernel_not_monotone(self):
        k = VolterraKernel(g0=lambda t, x, s, e1, e2: -e2)
        report = validate_problem(simple_spec(kernel=k))
        assert any("not nondecreasing in eta2" in v for v in report)

    def test_incompatible_dirichlet_data(self):
        report = validate_problem(simple_spec(u0=lambda x: 1.0 + 0.0 * x))
        assert any("incompatible initial/boundary data" in v for v in report)

    def test_wrong_analytic_derivative(self):
        r = Reaction(f=lambda t, x, u: u * u, f_u=lambda t, x, u: 0.0 * u)
        report = validate_problem(simple_spec(reaction=r))
        assert any("reaction derivative mismatch" in v for v in report)

    def test_lipschitz_violation(self):
        # quadratic kernel grows faster than the claimed constant
        k = VolterraKernel(
            g0=lambda t, x, s, e1, e2: 100.0 * e2 * np.abs(e2), lipschitz_K0=0.1
        )
        report = validate_problem(simple_spec(kernel=k))
        assert any("Lipschitz" in v for v in report)


class TestCatalog:
    def test_names(self):
        assert catalog_names() == ["linear_heat", "logistic_memory", "manufactured_1"]

    def test_logistic_supersolution_level(self):
        spec = catalog_lookup("logistic_memory", {"lam": 1.0, "kappa": 0.5, "sigma": 0.5})
        val = np.asarray(spec.bracket.u_tilde(0.3, np.array([0.2, 0.7])), dtype=float)
        np.testing.assert_allclose(val, 1.5)

    def test_linear_heat_is_linear(self):
        spec = catalog_lookup("linear_heat")
        assert spec.kernel.trivial
        x = np.linspace(0, 1, 5)
        np.testing.assert_array_equal(np.asarray(spec.reaction.f(0.5, x, x), dtype=float), 0.0)

    @pytest.mark.parametrize("name,params,kappa", [
        ("logistic_memory", {"lam": 1.0, "kappa": 0.5, "sigma": 0.5}, 0.5),
        ("manufactured_1", {}, 1.0),
    ])
    def test_memory_problems_use_exponential_kernel(self, name, params, kappa):
        kernel = catalog_lookup(name, params).kernel
        form = kernel.exp_form
        assert form is not None and (form.kappa, form.lam) == (kappa, 1.0)
        assert kernel.lipschitz_K0 == kappa
        rng = np.random.default_rng(4)
        t, s, e1, e2 = 0.9, rng.random(6), rng.random(6), rng.random(6)
        np.testing.assert_array_equal(
            kernel.g0(t, 0.3, s, e1, e2), kappa * np.exp(-(t - s)) * e2
        )
        np.testing.assert_array_equal(kernel.dg0_deta1(t, 0.3, s, e1, e2), 0.0)

    def test_exponential_lipschitz_only_when_known(self):
        exponential = VolterraKernel.exponential
        assert exponential(-2.0, 0.5, np.tanh, lipschitz_psi=3.0).lipschitz_K0 == 6.0
        assert exponential(2.0, 0.5, np.tanh).lipschitz_K0 is None
        # e^{-lam (t-s)} grows with t - s when lam < 0: no bound without the horizon
        assert exponential(2.0, -0.5, np.tanh, lipschitz_psi=1.0).lipschitz_K0 is None

    def test_manufactured_bracket_certifies(self):
        spec = catalog_lookup("manufactured_1")
        grid = build_grid(spec.domain, 16, 16)
        assert check_bracket(spec, grid, spec.bracket.u_hat, "sub").passed
        assert check_bracket(spec, grid, spec.bracket.u_tilde, "super").passed

    def test_unknown_name(self):
        with pytest.raises(CatalogError, match="unknown problem"):
            catalog_lookup("no_such_problem")

    def test_missing_parameter(self):
        with pytest.raises(CatalogError, match="missing parameter"):
            catalog_lookup("logistic_memory", {"lam": 1.0})

    def test_unexpected_parameter(self):
        with pytest.raises(CatalogError, match="unexpected"):
            catalog_lookup("manufactured_1", {"nope": 1.0})

    @pytest.mark.parametrize("name,params", [
        ("linear_heat", {}),
        ("logistic_memory", {"lam": 1.0, "kappa": 0.5, "sigma": 0.5}),
        ("manufactured_1", {}),
    ])
    def test_catalog_entries_validate_clean(self, name, params):
        assert validate_problem(catalog_lookup(name, params)) == []


class TestManufacturedResidual:
    def residual_max(self, nt):
        # Along the exact solution the memory integrand e^{-(t-s)} e^{-s}
        # is constant in s, so the trapezoid rule reproduces the closed
        # form t e^{-t} sin(pi x) exactly (up to rounding).
        spec = catalog_lookup("manufactured_1")
        grid = build_grid(spec.domain, 64, nt)
        U = sample_field(spec.exact, grid)
        worst = 0.0
        for k in range(1, nt + 1):
            t = grid.ts[k]
            exact_mem = t * np.exp(-t) * np.sin(np.pi * grid.xs)
            res = exact_mem - eval_g_row(spec.kernel, U, k, grid)
            worst = max(worst, float(np.max(np.abs(res))))
        return worst

    def test_quadrature_exact_on_constant_integrand(self):
        assert self.residual_max(64) < 1e-12
        assert self.residual_max(128) < 1e-12
