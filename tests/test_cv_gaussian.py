import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.fft import irfft2, next_fast_len, rfft2
from scipy.integrate import quad

from qidsim import cv_gaussian
from qidsim.cv_gaussian import (
    GaussianState,
    Lattice,
    WignerGrid,
    apply_symplectic,
    cloner_program_gaussian,
    coherent_cloner,
    convolve_with_kernel,
    cv_fidelity,
    cv_fidelity_asymptotic,
    epr_wavefunction,
    gaussian_fidelity,
    k3_total_weight,
    kernel_characteristic,
    kernel_eval,
    kernel_norm_expected,
    output_overlaps,
    output_wigner,
    p0_wavefunction,
    qid_position_matrix,
    qid_symplectic,
    regularized_epr,
    solve_cv_beta,
    suggested_half_width,
    symplectic_form,
    tensor_gaussian,
    transpose_gaussian,
    x0_wavefunction,
)

from helpers import (
    cosine_sum_by_matrix,
    gaussian_wigner_at,
    grid_mass,
    grid_moments,
    kernel_wigner_by_cosine_transform,
    kernel_wigner_value,
    meshgrid,
    regularized_p0,
    regularized_x0,
    thermal_reduction,
)

VACUUM = GaussianState.vacuum()


# ---------------------------------------------------------------------------
# quadrature oracles: everything is rebuilt from the wavefunctions alone
# ---------------------------------------------------------------------------


def program_wavefunction(xi, alpha, beta, x2, x3):
    return alpha * epr_wavefunction(xi, x2, x3) + beta * x0_wavefunction(xi, x2) * p0_wavefunction(xi, x3)


def kernel_by_quadrature(xi, alpha, beta, xbar, eta):
    """Reduction kernel of output 1 straight from its defining chi-integral."""

    def integrand(chi):
        return program_wavefunction(
            xi, alpha, beta, (chi - eta) / 2 - xbar, (chi + eta) / 2 - xbar
        ) * program_wavefunction(xi, alpha, beta, (chi - eta) / 2, (chi + eta) / 2)

    # the integrand mixes e^{xi}-wide and e^{-xi}-narrow features: size the
    # interval for the widest one and hand quad the loci where each
    # wavefunction argument crosses zero so it finds the spikes
    bound = 12 * math.exp(xi) + 20
    peaks = sorted({eta + 2 * xbar, 2 * xbar - eta, eta, -eta})
    val = quad(integrand, -bound, bound, limit=800, points=peaks)[0]
    return val / (2 * math.sqrt(2 * np.pi))


def kernel2_by_quadrature(xi, alpha, beta, xbar, eta):
    """Reduction kernel of output 2: overlap of the program wavefunction with
    itself shifted by the matrix-element difference along its second slot."""

    def integrand(w):
        return program_wavefunction(xi, alpha, beta, eta, w) * program_wavefunction(
            xi, alpha, beta, eta, w + xbar
        )

    return quad(integrand, -80, 80, limit=600)[0] / math.sqrt(2 * np.pi)


def cross_kernel_by_quadrature(which_quad, xi, xbar, eta):
    full = which_quad(xi, 1.0, 1.0, xbar, eta)
    return (
        full
        - which_quad(xi, 1.0, 0.0, xbar, eta)
        - which_quad(xi, 0.0, 1.0, xbar, eta)
    )


def output_fidelity_by_quadrature(xi, alpha, beta, output, n=301, span=10.0, ny=121):
    """Vacuum-input output fidelity from the three-mode wavefunction, with no
    kernels and no grids shared with the implementation."""
    grid = np.linspace(-span, span, n)
    step = grid[1] - grid[0]
    ys = np.linspace(-5.0, 5.0, ny)
    dy = ys[1] - ys[0]
    za, zb = np.meshgrid(grid, grid, indexing="ij")

    def vacuum(x):
        return 2**0.25 * np.exp(-np.asarray(x) ** 2 / 2)

    def joint_amplitude(z1, z2, z3):
        x1 = z1 + z2 - z3
        x2 = z3 - z1
        x3 = -z1 - z2 + 2 * z3
        return vacuum(x1) * program_wavefunction(xi, alpha, beta, x2, x3)

    if output == 1:
        rows = np.array([joint_amplitude(y, za, zb).ravel() for y in ys])
    else:
        rows = np.array([joint_amplitude(za, y, zb).ravel() for y in ys])
    rho = rows @ rows.T * step * step / (2 * np.pi)
    phi = vacuum(ys)
    return float(phi @ rho @ phi * dy * dy / (2 * np.pi))


# ---------------------------------------------------------------------------
# states
# ---------------------------------------------------------------------------


class TestRegularizedStates:
    def test_zero_squeezing_is_vacuum(self):
        for state in (regularized_x0(0.0), regularized_p0(0.0)):
            assert np.abs(state.cov - 0.5 * np.eye(2)).max() < 1e-15

    def test_position_variance(self):
        state = regularized_x0(1.0)
        assert abs(state.cov[0, 0] - math.exp(-2) / 2) < 1e-15
        assert abs(state.cov[1, 1] - math.exp(2) / 2) < 1e-15
        # minimum-uncertainty at every squeezing
        assert abs(state.cov[0, 0] * state.cov[1, 1] - 0.25) < 1e-15

    def test_epr_squeezed_combinations(self):
        for xi in (0.3, 1.0, 2.0):
            cov = regularized_epr(xi).cov
            var_minus = cov[0, 0] + cov[2, 2] - 2 * cov[0, 2]
            var_plus = cov[1, 1] + cov[3, 3] + 2 * cov[1, 3]
            assert abs(var_minus - math.exp(-2 * xi)) < 1e-12
            assert abs(var_plus - math.exp(-2 * xi)) < 1e-12

    def test_epr_moments_by_grid_integration(self):
        xi = 0.6
        state = regularized_epr(xi)
        axis = np.linspace(-6.0, 6.0, 41)
        step = axis[1] - axis[0]
        pts = np.stack(np.meshgrid(axis, axis, axis, axis, indexing="ij"), axis=-1)
        flat = pts.reshape(-1, 4)
        inv = np.linalg.inv(state.cov)
        w = np.exp(-0.5 * np.einsum("ni,ij,nj->n", flat, inv, flat))
        w /= math.sqrt(np.linalg.det(state.cov))
        mass = w.sum() * step**4 / (2 * np.pi) ** 2
        assert abs(mass - 1) < 1e-3
        var_minus = (w * (flat[:, 0] - flat[:, 2]) ** 2).sum() * step**4 / (2 * np.pi) ** 2 / mass
        assert abs(var_minus - math.exp(-2 * xi)) < 1e-3

    def test_epr_wigner_closed_form(self):
        xi = 0.8
        state = regularized_epr(xi)
        a, b = math.exp(2 * xi), math.exp(-2 * xi)
        for point in ((0.1, 0.2, -0.3, 0.4), (0.0,) * 4, (0.5, -0.2, 0.1, 0.3)):
            x1, p1, x2, p2 = point
            closed = 4 * math.exp(
                -(a / 2) * ((x1 - x2) ** 2 + (p1 + p2) ** 2)
                - (b / 2) * ((x1 + x2) ** 2 + (p1 - p2) ** 2)
            )
            assert abs(gaussian_wigner_at(state, np.array(point)) - closed) < 1e-8

    def test_single_mode_wigner_grids_match_closed_forms(self):
        xi = 0.7
        a, b = math.exp(2 * xi), math.exp(-2 * xi)
        grid = WignerGrid.centered(5.0, 161)
        xg, pg = meshgrid(grid)
        sampled = regularized_x0(xi).wigner_grid(grid)
        assert np.abs(sampled.values - 2 * np.exp(-a * xg**2 - b * pg**2)).max() < 1e-8
        sampled_p = regularized_p0(xi).wigner_grid(grid)
        assert np.abs(sampled_p.values - 2 * np.exp(-b * xg**2 - a * pg**2)).max() < 1e-8

    def test_thermal_reduction_matches_mean_excitation(self):
        assert np.abs(thermal_reduction(0.0).cov - 0.5 * np.eye(2)).max() < 1e-15
        th = thermal_reduction(1.0)
        expected = 1 + 2 * math.sinh(1.0) ** 2
        assert abs(2 * th.cov[0, 0] - expected) < 1e-12
        assert abs(expected - 3.7622) < 5e-5

    def test_thermal_reduction_by_grid_quadrature(self):
        # integrating the two-mode Wigner function over one mode must land on
        # the closed thermal form pointwise
        xi = 0.9
        state = regularized_epr(xi)
        nbar = math.sinh(xi) ** 2
        axis = np.linspace(-8.0, 8.0, 201)
        step = axis[1] - axis[0]
        x2g, p2g = np.meshgrid(axis, axis, indexing="ij")
        inv = np.linalg.inv(state.cov)
        for x1, p1 in ((0.0, 0.0), (0.5, -0.3), (1.2, 0.8)):
            pts = np.stack(
                [np.full_like(x2g, x1), np.full_like(p2g, p1), x2g, p2g], axis=-1
            ).reshape(-1, 4)
            w = np.exp(-0.5 * np.einsum("ni,ij,nj->n", pts, inv, pts)) / math.sqrt(
                np.linalg.det(state.cov)
            )
            reduced = w.sum() * step * step / (2 * np.pi)
            closed = (2 / (1 + 2 * nbar)) * math.exp(-(x1**2 + p1**2) / (1 + 2 * nbar))
            assert abs(reduced - closed) < 1e-6

    def test_wavefunction_normalisation(self):
        for wf in (lambda x: x0_wavefunction(0.8, x), lambda x: p0_wavefunction(0.8, x)):
            norm = quad(lambda x: wf(x) ** 2, -40, 40, limit=200)[0]
            assert abs(norm - math.sqrt(2 * np.pi)) < 1e-9

    def test_rejects_bad_squeezing(self):
        for xi in (-0.1, math.nan, math.inf):
            with pytest.raises(ValueError):
                regularized_x0(xi)
            with pytest.raises(ValueError):
                kernel_eval(1, xi, 0.0, 0.0)


def cv_norm_residual(alpha, beta, xi):
    """alpha^2 + beta^2 + alpha beta g - 1, g = 4 / sqrt(4 + 2 sinh^2 2 xi):
    zero when (alpha, beta) normalise the superposed program state."""
    return alpha**2 + beta**2 + alpha * beta * k3_total_weight(xi) - 1.0


class TestNormalisationConstraint:
    def test_zero_squeezing_reduces_to_sum_one(self):
        for alpha in (0.0, 0.3, 1.0):
            assert abs(cv_norm_residual(alpha, 1 - alpha, 0.0)) < 1e-12
            assert abs(solve_cv_beta(alpha, 0.0) - (1 - alpha)) < 1e-12

    def test_endpoint(self):
        for xi in (0.0, 1.0, 4.0):
            assert abs(cv_norm_residual(1.0, 0.0, xi)) < 1e-12
            assert solve_cv_beta(1.0, xi) == 0.0

    def test_cross_term_vanishes_at_large_squeezing(self):
        val = cv_norm_residual(math.sqrt(0.5), math.sqrt(0.5), 20.0)
        assert abs(val) < 1e-12
        assert abs(solve_cv_beta(math.sqrt(0.5), 20.0) - math.sqrt(0.5)) < 1e-12

    def test_solver(self):
        for xi in (0.0, 0.5, 2.0):
            for alpha in (0.0, 0.4, 0.9, 1.0):
                beta = solve_cv_beta(alpha, xi)
                assert beta >= 0
                assert abs(cv_norm_residual(alpha, beta, xi)) < 1e-12

    def test_cross_weight_value(self):
        assert abs(k3_total_weight(0.0) - 2.0) < 1e-15

    @pytest.mark.parametrize("xi", (20.0, 177.65, 300.0))
    def test_cross_weight_at_large_squeezing(self, xi):
        # 2 sinh^2 2xi overflows past xi = 177.6; the weight must not drop to 0
        tail = 4 * math.sqrt(2) * math.exp(-2 * xi)
        assert abs(k3_total_weight(xi) / tail - 1) < 1e-12


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


class TestKernels:
    def test_values_at_origin(self):
        for xi in (0.0, 0.5, 1.5):
            assert abs(kernel_eval(1, xi, 0.0, 0.0) - math.exp(xi)) < 1e-12
            assert abs(kernel_eval(2, xi, 0.0, 0.0) - 1 / math.sqrt(math.cosh(2 * xi))) < 1e-12

    @pytest.mark.parametrize("xi", (0.0, 0.5, 1.0, 2.0))
    def test_closed_forms_match_defining_integral(self, xi):
        points = ((0.0, 0.0), (0.3, -0.4), (1.1, 0.7), (0.05, 0.2))
        for xbar, eta in points:
            assert abs(kernel_by_quadrature(xi, 1, 0, xbar, eta) - kernel_eval(1, xi, xbar, eta)) < 1e-8
            assert abs(kernel_by_quadrature(xi, 0, 1, xbar, eta) - kernel_eval(2, xi, xbar, eta)) < 1e-8
            cross = cross_kernel_by_quadrature(kernel_by_quadrature, xi, xbar, eta)
            assert abs(cross - kernel_eval(3, xi, xbar, eta)) < 1e-8

    @pytest.mark.parametrize("xi", (0.0, 0.7, 1.5))
    def test_second_output_kernels_match_defining_integral(self, xi):
        for xbar, eta in ((0.0, 0.0), (0.4, -0.3), (0.9, 0.6)):
            got = kernel2_by_quadrature(xi, 1, 0, xbar, eta)
            assert abs(got - kernel_eval(1, xi, xbar, eta, output=2)) < 1e-8
            got = kernel2_by_quadrature(xi, 0, 1, xbar, eta)
            assert abs(got - kernel_eval(2, xi, xbar, eta, output=2)) < 1e-8
            cross = cross_kernel_by_quadrature(kernel2_by_quadrature, xi, xbar, eta)
            assert abs(cross - kernel_eval(3, xi, xbar, eta, output=2)) < 1e-8

    @pytest.mark.parametrize("xi", (0.0, 0.5, 1.0, 2.0))
    def test_normalisation_identities(self, xi):
        for which in (1, 2, 3):
            for output in (1, 2):
                val = quad(
                    lambda e: kernel_eval(which, xi, 0.0, e, output=output),
                    -np.inf,
                    np.inf,
                    limit=400,
                )[0] / math.sqrt(2 * np.pi)
                assert abs(val - kernel_norm_expected(which, xi)) < 1e-6

    def test_cross_norm_at_zero_squeezing(self):
        val = quad(lambda e: kernel_eval(3, 0.0, 0.0, e), -np.inf, np.inf)[0]
        assert abs(val / math.sqrt(2 * np.pi) - 2.0) < 1e-10

    def test_kernel_total_mass_matches_state_normalisation(self):
        # trace preservation: the weighted kernel norms must reproduce the
        # program normalisation constraint
        xi, alpha = 1.3, 0.6
        beta = solve_cv_beta(alpha, xi)
        total = (
            alpha**2 * kernel_norm_expected(1, xi)
            + beta**2 * kernel_norm_expected(2, xi)
            + alpha * beta * kernel_norm_expected(3, xi)
        )
        assert abs(total - 1) < 1e-12

    def test_cross_kernel_finite_at_large_squeezing(self):
        # e^{4 xi} overflows here; the kernel's peak is 4 e^{-xi} / sqrt(1 + 3 e^{-4 xi})
        xi = 177.6
        peak = 4 * math.exp(-xi) / math.sqrt(1 + 3 * math.exp(-4 * xi))
        assert abs(kernel_eval(3, xi, 0.0, 0.0) / peak - 1) < 1e-14

    @pytest.mark.parametrize("xi", (0.0, 0.5, 1.0, 3.0, 12.0, 150.0))
    @pytest.mark.parametrize("output", (1, 2))
    def test_characteristic_at_origin_is_the_kernel_weight(self, xi, output):
        # chi(0, 0) / 2pi is the kernel's total weight: a slip in any entry
        # of the (amp, var, twist) table shows here far above rounding
        for which in (1, 2, 3):
            got = float(kernel_characteristic(which, xi, 0.0, 0.0, output=output)) / (2 * np.pi)
            expected = kernel_norm_expected(which, xi)
            assert abs(got / expected - 1) < 1e-14

    def test_selector_validation(self):
        with pytest.raises(ValueError):
            kernel_eval(4, 0.5, 0.0, 0.0)
        with pytest.raises(ValueError):
            kernel_eval(1, 0.5, 0.0, 0.0, output=3)


class TestKernelWigner:
    def test_narrow_kernel_value_at_origin(self):
        assert abs(kernel_wigner_value(1, 2.0, 0.0, 0.0) - math.exp(4.0)) < 1e-9

    def test_thermal_kernel_normalisation_by_grid(self):
        xi = 1.0
        grid = WignerGrid.centered(8 * math.sqrt(math.cosh(2 * xi)), 401)
        sampled = grid.like(kernel_wigner_value(2, xi, *meshgrid(grid)))
        assert abs(grid_mass(sampled) - 1.0) < 1e-6

    def test_kernel_grids_match_cosine_transform(self):
        # the closed forms, output 2's derived ones included, against a
        # numerical transform of kernel_eval, which the defining-integral
        # tests pin for both outputs
        xi = 1.0
        grid = WignerGrid.centered(9.0, 241)
        for output in (1, 2):
            for which in (1, 2, 3):
                sampled = kernel_wigner_value(which, xi, *meshgrid(grid), output=output)
                numeric = kernel_wigner_by_cosine_transform(which, xi, grid, output=output).values
                assert np.abs(sampled - numeric).max() < 1e-12 * np.abs(numeric).max()

    def test_cross_kernel_total_weight(self):
        for xi in (0.0, 1.0, 2.0):
            sig = math.sqrt(
                2 * (1 + math.exp(-4 * xi)) / (math.exp(2 * xi) + 3 * math.exp(-2 * xi))
            )
            grid = WignerGrid.centered(8 * max(sig, 0.5), 321)
            sampled = grid.like(kernel_wigner_value(3, xi, *meshgrid(grid)))
            assert abs(grid_mass(sampled) - k3_total_weight(xi)) < 1e-6

    def test_cross_kernel_weight_decays_with_squeezing(self):
        # the asymptotic weight is 4*sqrt(2)*e^{-2 xi}
        xi = 3.0
        ratio = k3_total_weight(xi) / (4 * math.sqrt(2) * math.exp(-2 * xi))
        assert abs(ratio - 1) < 1e-4

    def test_asymptotic_closed_form(self):
        xi = 3.0
        xs = np.linspace(-0.2, 0.2, 7)
        exact = kernel_wigner_value(3, xi, xs, xs[::-1])
        # large-squeezing form 2*sqrt(2) * exp(-e^{2 xi} (x^2 + p^2) / 4)
        asym = 2 * math.sqrt(2) * np.exp(-math.exp(2 * xi) * (xs**2 + xs[::-1] ** 2) / 4)
        assert np.abs(exact - asym).max() < 2e-3 * np.abs(exact).max()

    def test_characteristic_functions_match_numeric_transform(self):
        xi = 1.3
        axis = np.linspace(-20, 20, 1601)
        step = axis[1] - axis[0]
        xg, pg = np.meshgrid(axis, axis, indexing="ij")
        for which in (1, 2, 3):
            for output in (1, 2):
                w = kernel_wigner_value(which, xi, xg, pg, output=output)
                for kx, kp in ((0.0, 0.0), (0.7, -0.3), (1.2, 0.8)):
                    numeric = (w * np.exp(-1j * (kx * xg + kp * pg))).sum().real * step * step
                    closed = kernel_characteristic(which, xi, kx, kp, output=output)
                    assert abs(numeric - closed) < 1e-6


# ---------------------------------------------------------------------------
# output pipeline
# ---------------------------------------------------------------------------


def direct_convolution(grid: WignerGrid, which: int, xi: float, output: int = 1) -> np.ndarray:
    """O(n^4) real-space summation against the closed-form kernel Wigner
    function; the oracle for the Fourier-space path."""
    xg, pg = meshgrid(grid)
    out = np.zeros_like(grid.values)
    for i, x in enumerate(grid.x):
        for j, p in enumerate(grid.x):
            kern = kernel_wigner_value(which, xi, x - xg, p - pg, output=output)
            out[i, j] = (grid.values * kern).sum() * grid.dx**2 / (2 * np.pi)
    return out


class TestOutputWigner:
    def test_fourier_convolution_matches_direct_summation(self):
        xi = 0.5
        grid = VACUUM.wigner_grid(WignerGrid.centered(7.0, 49))
        for which in (1, 2, 3):
            via_fft = convolve_with_kernel(grid, which, xi).values
            via_sum = direct_convolution(grid, which, xi)
            assert np.abs(via_fft - via_sum).max() < 1e-9

    @pytest.mark.parametrize("output", (1, 2))
    @pytest.mark.parametrize("xi", (0.5, 1.0, 3.0))
    def test_weighted_mapping_equals_sum_of_single_kernels(self, xi, output):
        # each single-kernel call pads to its own width, the mapping pads
        # once to the widest one
        alpha = math.sqrt(0.5)
        beta = solve_cv_beta(alpha, xi)
        weights = {1: alpha * alpha, 2: beta * beta, 3: alpha * beta}
        grid = VACUUM.wigner_grid(WignerGrid.centered(suggested_half_width(xi), 512))
        fused = convolve_with_kernel(grid, weights, xi, output=output).values
        summed = sum(
            w * convolve_with_kernel(grid, k, xi, output=output).values for k, w in weights.items()
        )
        assert np.abs(fused - summed).max() < 1e-12
        assert np.array_equal(output_wigner(grid, xi, alpha, beta, output=output).values, fused)

    @pytest.mark.parametrize("output", (1, 2))
    def test_mixed_weights_match_direct_summation(self, output):
        xi = 0.5
        weights = {1: 0.3, 2: -0.7, 3: 1.9}
        grid = VACUUM.wigner_grid(WignerGrid.centered(7.0, 49))
        via_fft = convolve_with_kernel(grid, weights, xi, output=output).values
        via_sum = sum(w * direct_convolution(grid, k, xi, output) for k, w in weights.items())
        assert np.abs(via_fft - via_sum).max() < 1e-9

    def test_zero_weight_kernel_is_not_range_checked(self):
        xi = 2.0
        grid = VACUUM.wigner_grid(WignerGrid.centered(4.0, 128))  # too small for kernel 2
        out = convolve_with_kernel(grid, {1: 1.0, 2: 0.0, 3: 0.5}, xi)
        want = convolve_with_kernel(grid, {1: 1.0, 3: 0.5}, xi)
        assert np.array_equal(out.values, want.values)
        with pytest.raises(ValueError, match="half-range"):
            convolve_with_kernel(grid, {1: 1.0, 2: 1e-3}, xi)

    @settings(max_examples=10, deadline=None)
    @given(xi=st.floats(0.0, 3.0), alpha=st.floats(0.0, 1.0))
    def test_fused_output_keeps_unit_mass(self, xi, alpha):
        # 512 points per axis: at 256 the vacuum input alone is 1.7e-5 short
        # of unit mass at xi = 3
        beta = solve_cv_beta(alpha, xi)
        grid = VACUUM.wigner_grid(WignerGrid.centered(suggested_half_width(xi), 512))
        for output in (1, 2):
            out = output_wigner(grid, xi, alpha, beta, output=output)
            assert abs(grid_mass(out) - 1.0) < 1e-9

    def test_gaussian_kernels_reproduce_gaussian_convolution(self):
        xi = 1.0
        grid = VACUUM.wigner_grid(WignerGrid.centered(suggested_half_width(xi), 513))
        for which, sig2 in ((1, math.exp(-2 * xi)), (2, math.cosh(2 * xi))):
            got = convolve_with_kernel(grid, which, xi)
            want = GaussianState(np.zeros(2), (0.5 + sig2) * np.eye(2)).wigner_grid(grid)
            assert np.abs(got.values - want.values).max() < 1e-12

    def test_pure_passthrough_at_large_squeezing(self):
        # kernel 1 alone, far narrower than the grid step, is applied exactly
        # through its characteristic function: variance e^{-2 xi} is added
        xi = 5.0
        grid = VACUUM.wigner_grid(WignerGrid.centered(6.0, 257))
        out = output_wigner(grid, xi, 1.0, 0.0)
        want = GaussianState(np.zeros(2), (0.5 + math.exp(-2 * xi)) * np.eye(2)).wigner_grid(grid)
        assert np.abs(out.values - want.values).max() < 1e-12

    def test_pure_smearing_channel(self):
        # program weight entirely on the product branch: output is the input
        # convolved with the broad thermal-like kernel
        xi = 1.0
        grid = VACUUM.wigner_grid(WignerGrid.centered(suggested_half_width(xi), 512))
        out = output_wigner(grid, xi, 0.0, 1.0)
        mean, cov = grid_moments(out)
        assert np.abs(mean).max() < 1e-9
        assert abs(cov[0, 0] - (0.5 + math.cosh(2 * xi))) < 1e-6
        assert abs(cov[1, 1] - (0.5 + math.cosh(2 * xi))) < 1e-6

    def test_normalisation_preserved_under_constraint(self):
        xi, alpha = 1.0, 0.55
        beta = solve_cv_beta(alpha, xi)
        grid = VACUUM.wigner_grid(WignerGrid.centered(suggested_half_width(xi), 512))
        for output in (1, 2):
            out = output_wigner(grid, xi, alpha, beta, output=output)
            assert abs(grid_mass(out) - 1.0) < 1e-4

    def test_output_fidelities_match_three_mode_quadrature(self):
        # frozen oracle values from output_fidelity_by_quadrature at
        # (xi, alpha) = (0.5, sqrt(1/2)); the oracle runs here as well
        xi, alpha = 0.5, math.sqrt(0.5)
        beta = solve_cv_beta(alpha, xi)
        grid = VACUUM.wigner_grid(WignerGrid.centered(suggested_half_width(xi), 512))
        f1 = cv_fidelity(grid, output_wigner(grid, xi, alpha, beta, output=1))
        f2 = cv_fidelity(grid, output_wigner(grid, xi, alpha, beta, output=2))
        assert abs(f1 - 0.65438684) < 1e-6
        assert abs(f2 - 0.67958647) < 1e-6
        assert abs(output_fidelity_by_quadrature(xi, alpha, beta, 1) - f1) < 1e-6
        assert abs(output_fidelity_by_quadrature(xi, alpha, beta, 2) - f2) < 1e-6

    def test_fidelity_of_identical_pure_grids(self):
        grid = VACUUM.wigner_grid(WignerGrid.centered(6.0, 257))
        assert abs(cv_fidelity(grid, grid) - 1.0) < 1e-9

    def test_fidelity_requires_matching_lattice(self):
        a = VACUUM.wigner_grid(WignerGrid.centered(6.0, 257))
        b = VACUUM.wigner_grid(WignerGrid.centered(6.0, 255))
        with pytest.raises(ValueError):
            cv_fidelity(a, b)

    @pytest.mark.parametrize("xi", (0.0, 0.5, 1.0, 2.0, 3.0))
    def test_closed_form_equals_grid_fidelity(self, xi):
        grid = VACUUM.wigner_grid(WignerGrid.centered(suggested_half_width(xi), 512))
        for alpha in (0.3, math.sqrt(0.5), 0.95):
            beta = solve_cv_beta(alpha, xi)
            for output in (1, 2):
                on_grid = cv_fidelity(grid, output_wigner(grid, xi, alpha, beta, output=output))
                closed = cv_fidelity_asymptotic(xi, alpha, beta, output=output)
                assert abs(on_grid - closed) < 1e-9

    def test_asymptotic_agrees_with_grid_at_boundary(self):
        xi, alpha = 3.0, math.sqrt(0.5)
        beta = solve_cv_beta(alpha, xi)
        grid = VACUUM.wigner_grid(WignerGrid.centered(suggested_half_width(xi), 768))
        for output in (1, 2):
            on_grid = cv_fidelity(grid, output_wigner(grid, xi, alpha, beta, output=output))
            closed = cv_fidelity_asymptotic(xi, alpha, beta, output=output)
            assert abs(on_grid - closed) < 1e-12

    def test_limit_fidelities(self):
        alpha = 0.8
        beta = solve_cv_beta(alpha, 30.0)
        assert abs(cv_fidelity_asymptotic(30.0, alpha, beta, 1) - alpha**2) < 1e-9
        assert abs(cv_fidelity_asymptotic(30.0, alpha, beta, 2) - beta**2) < 1e-9

    @pytest.mark.parametrize("xi", (2.0, 2.5, 3.0))
    def test_deviation_from_passthrough_bounded_by_smearing(self, xi):
        alpha = math.sqrt(0.5)
        beta = solve_cv_beta(alpha, xi)
        grid = VACUUM.wigner_grid(WignerGrid.centered(suggested_half_width(xi), 768))
        f1 = cv_fidelity(grid, output_wigner(grid, xi, alpha, beta))
        assert abs(f1 - alpha**2) < 5 / (2 * math.sinh(xi) ** 2)

    def test_guard_when_thermal_output_does_not_fit(self):
        grid = VACUUM.wigner_grid(WignerGrid.centered(4.0, 128))
        with pytest.raises(ValueError, match="half-range"):
            output_wigner(grid, 2.0, 0.5, solve_cv_beta(0.5, 2.0))


def overlaps_in_real_space(grid, xi, alpha, beta):
    """((F1, mass1), (F2, mass2)) from the output grids themselves."""
    outs = [output_wigner(grid, xi, alpha, beta, output=k) for k in (1, 2)]
    return tuple((cv_fidelity(grid, out), grid_mass(out)) for out in outs)


def sampled_factors(state, lattice):
    """The state's 1-D Wigner factors on ``lattice`` and their 2-D grid."""
    u, v = state.wigner_factors(lattice)
    return u, v, lattice.like(np.outer(u, v))


class TestOutputOverlaps:
    """Fidelities and masses of a product input as spectral inner products,
    against the output grids of the real-space path."""

    @pytest.mark.parametrize("xi", (0.0, 0.5, 1.0, 2.0, 3.0))
    def test_vacuum_matches_output_grids(self, xi):
        # alpha = 0 and 1 leave two of the three kernels at zero weight.
        # The masses get 2e-13: at xi = 3, alpha = 1 output 1 is the
        # e^{-3}-narrow kernel alone, which output_wigner pads by two points
        # (540 per axis, against 800 here).  The kernel's spectrum is cut at
        # the Nyquist frequency, and the ringing this leaves wraps around the
        # short padding: that mass is 1.3e-13 from its value at 4096 points,
        # and this one is 1.6e-14 from it.
        lattice = Lattice(suggested_half_width(xi), 512)
        u, v, grid = sampled_factors(VACUUM, lattice)
        for alpha in (0.0, 0.3, math.sqrt(0.5), 0.95, 1.0):
            beta = solve_cv_beta(alpha, xi)
            got = np.array(output_overlaps(lattice, u, v, xi, alpha, beta))
            want = np.array(overlaps_in_real_space(grid, xi, alpha, beta))
            assert np.abs(got[:, 0] - want[:, 0]).max() < 1e-13
            assert np.abs(got[:, 1] - want[:, 1]).max() < 2e-13

    @pytest.mark.parametrize("lattice, odd", (((9.0, 301), 0), ((9.0, 271), 1)))
    def test_off_centre_coherent_input_on_odd_padding(self, lattice, odd):
        # an input off the lattice's centre, on padded lengths of either
        # parity: an odd length leaves the half spectrum no Nyquist column
        xi, alpha = 1.0, 0.6
        beta = solve_cv_beta(alpha, xi)
        lattice = Lattice(*lattice)
        u, v, grid = sampled_factors(GaussianState.coherent(0.7 + 0.4j), lattice)
        weights = {1: alpha * alpha, 2: beta * beta, 3: alpha * beta}
        assert cv_gaussian._padded_length(lattice, weights, xi, (1, 2)) % 2 == odd
        got = output_overlaps(lattice, u, v, xi, alpha, beta)
        want = overlaps_in_real_space(grid, xi, alpha, beta)
        assert np.abs(np.subtract(got, want)).max() < 1e-13

    @pytest.mark.parametrize("n, odd_width", ((30, False), (31, True)))
    def test_rough_input_weighs_every_column(self, n, odd_width):
        # Parseval holds for any real product grid: random factors put weight
        # on the Nyquist column (even padded width) that a smooth input leaves
        # empty.
        # Such an input also feels where the narrow kernels' spectra are cut
        # at the Nyquist frequency, and the result then depends on the padded
        # length (by up to 5e-5 at n = 30), so the output grids are convolved
        # at the length output_overlaps pads to
        xi, alpha = 0.5, 0.6
        beta = solve_cv_beta(alpha, xi)
        rng = np.random.default_rng(8)
        u, v = rng.standard_normal(n), rng.standard_normal(n)
        lattice = Lattice(5.5, n)
        grid = lattice.like(np.outer(u, v))
        weights = {1: alpha * alpha, 2: beta * beta, 3: alpha * beta}
        length = cv_gaussian._padded_length(lattice, weights, xi, (1, 2))
        assert length % 2 == odd_width
        kx = 2 * np.pi * np.fft.fftfreq(length, d=grid.dx)
        kp = 2 * np.pi * np.fft.rfftfreq(length, d=grid.dx)
        spectrum = rfft2(grid.values, s=(length, length))
        want = []
        for output in (1, 2):
            chi = sum(
                w * kernel_characteristic(k, xi, kx[:, None], kp[None, :], output=output)
                for k, w in weights.items()
            )
            out = irfft2(spectrum * chi, s=(length, length))[:n, :n] / (2 * np.pi)
            want.append((cv_fidelity(grid, grid.like(out)), grid_mass(grid.like(out))))
        got = output_overlaps(lattice, u, v, xi, alpha, beta)
        assert np.abs(np.subtract(got, want)).max() < 1e-13

    def test_mass_is_cropped_to_the_input_lattice(self):
        # a half-range just over 4 sigma: the outputs spill past the lattice,
        # so the cropped mass is short of 1 while the padded spectrum's total
        # (its zero-frequency term) is not
        xi, alpha = 0.0, math.sqrt(0.5)
        beta = solve_cv_beta(alpha, xi)
        lattice = Lattice(4.05, 128)
        u, v, grid = sampled_factors(VACUUM, lattice)
        got = output_overlaps(lattice, u, v, xi, alpha, beta)
        want = overlaps_in_real_space(grid, xi, alpha, beta)
        assert all(mass < 1.0 - 5e-5 for _, mass in want)
        assert np.abs(np.subtract(got, want)).max() < 1e-13

    @pytest.mark.parametrize("alpha, failing", ((0.5, 1), (1.0, 2)))
    def test_guard_per_output(self, alpha, failing):
        # the same ValueError as the real-space path, output 1
        # first; at alpha = 1 only output 2 holds the wide kernel
        xi = 2.0
        beta = solve_cv_beta(alpha, xi)
        lattice = Lattice(4.0, 128)
        u, v, grid = sampled_factors(VACUUM, lattice)
        for output in range(1, failing):
            output_wigner(grid, xi, alpha, beta, output=output)
        with pytest.raises(ValueError, match="half-range") as real_space:
            output_wigner(grid, xi, alpha, beta, output=failing)
        with pytest.raises(ValueError, match="half-range") as spectral:
            output_overlaps(lattice, u, v, xi, alpha, beta)
        assert str(spectral.value) == str(real_space.value)

    def test_square_lattice_takes_one_transform_for_both_axes(self, monkeypatch):
        # both axes sample the same points, so one rfft of the stacked
        # (u, v, indicator) rows serves them
        xi, alpha = 0.5, math.sqrt(0.5)
        beta = solve_cv_beta(alpha, xi)
        lattice = Lattice(suggested_half_width(xi), 256)
        u, v = VACUUM.wigner_factors(lattice)
        stacked, rfft = [], cv_gaussian.rfft

        def counted(rows):
            stacked.append(len(rows))
            return rfft(rows)

        monkeypatch.setattr(cv_gaussian, "rfft", counted)
        output_overlaps(lattice, u, v, xi, alpha, beta)
        assert stacked == [3]

    @pytest.mark.parametrize("shapes", (((128,), (127,)), ((127,), (128,)), ((128, 128), (128,))))
    def test_rejects_factors_off_the_lattice(self, shapes):
        lattice = Lattice(8.0, 128)
        u, v = (np.ones(shape) for shape in shapes)
        with pytest.raises(ValueError, match="factor shapes"):
            output_overlaps(lattice, u, v, 0.5, 0.6, solve_cv_beta(0.6, 0.5))


    @pytest.mark.parametrize("xi", (0.5, 3.0))
    def test_no_rows_by_cols_array(self, xi):
        # the cross kernel's sum is a chirp-z convolution of 1-D rows: the
        # call's peak allocation stays below one (rows x cols) float array
        lattice = Lattice(suggested_half_width(xi), 512)
        u, v = VACUUM.wigner_factors(lattice)
        alpha = math.sqrt(0.5)
        beta = solve_cv_beta(alpha, xi)
        weights = {1: alpha * alpha, 2: beta * beta, 3: alpha * beta}
        length = cv_gaussian._padded_length(lattice, weights, xi, (1, 2))
        output_overlaps(lattice, u, v, xi, alpha, beta)  # warm the FFT plans
        tracemalloc.start()
        try:
            output_overlaps(lattice, u, v, xi, alpha, beta)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * (length // 2 + 1) ** 2


class TestCosineSum:
    """The cross kernel's sum_ij left[r, i] cos(theta i j) right[r, j] by a
    chirp-z convolution, against the dense cosine matrix, relative to
    sum_ij |left[r, i]| |right[r, j]|."""

    @staticmethod
    def check(rows, cols, theta, seed=0):
        rng = np.random.default_rng(seed)
        left, right = rng.standard_normal((2, rows)), rng.standard_normal((2, cols))
        scale = np.abs(left).sum(axis=1) * np.abs(right).sum(axis=1)
        got = cv_gaussian._cosine_sum(left, right, theta)
        assert got.shape == (2,)
        assert (np.abs(got - cosine_sum_by_matrix(left, right, theta)) / scale).max() < 1e-13

    @pytest.mark.parametrize(
        "rows, cols", ((37, 31), (32, 32), (31, 40), (64, 17), (1, 6), (5, 1), (1, 1))
    )
    @pytest.mark.parametrize("theta", (0.0, 3e-3, 0.37, 2.5))
    def test_odd_and_even_lengths(self, rows, cols, theta):
        self.check(rows, cols, theta)

    @pytest.mark.parametrize("rows, cols", ((37, 31), (433, 433), (451, 300)))
    def test_large_phase(self, rows, cols):
        # the largest phase theta (rows - 1) (cols - 1) passes 10^3 rad; the
        # chirps' phases theta n^2 / 2 reach about as far
        theta = 1.7e3 / ((rows - 1) * (cols - 1))
        self.check(rows, cols, theta, seed=2)
        self.check(rows, cols, 7.3, seed=3)


class TestBatchedCosineSum:
    """One call over a leading batch axis, one theta per entry: each entry
    against the dense cosine matrix, relative to its own
    sum_ij |left[b, r, i]| |right[b, r, j]|."""

    @pytest.mark.parametrize("rows, cols", ((37, 31), (433, 433), (451, 300)))
    def test_each_entry_has_its_own_phase(self, rows, cols):
        # test_large_phase's theta: the largest phase passes 10^3 rad
        thetas = np.array([0.0, 3e-3, 2.5, 1.7e3 / ((rows - 1) * (cols - 1))])
        rng = np.random.default_rng(4)
        left = rng.standard_normal((thetas.size, 2, rows))
        right = rng.standard_normal((thetas.size, 2, cols))
        got = cv_gaussian._cosine_sum(left, right, thetas)
        assert got.shape == (thetas.size, 2)
        for b, theta in enumerate(thetas):
            scale = np.abs(left[b]).sum(axis=1) * np.abs(right[b]).sum(axis=1)
            want = cosine_sum_by_matrix(left[b], right[b], theta)
            assert (np.abs(got[b] - want) / scale).max() < 1e-13

    def test_batch_matches_one_call_per_entry(self):
        # the shared buffer keeps the entries apart: a batch gives what one
        # scalar-theta call per entry gives
        rng = np.random.default_rng(5)
        left, right = rng.standard_normal((3, 2, 40)), rng.standard_normal((3, 2, 25))
        thetas = np.array([0.3, 1e-2, 4.0])
        got = cv_gaussian._cosine_sum(left, right, thetas)
        for b, theta in enumerate(thetas):
            want = cv_gaussian._cosine_sum(left[b], right[b], theta)
            assert np.abs(got[b] - want).max() < 1e-12 * np.abs(want).max()


class TestKernelTable:
    """The one (amp, var, twist) table every kernel quantity reads."""

    XIS = (0.0, 0.5, 3.0, 177.6, 352.75)

    @pytest.mark.parametrize("xi", XIS)
    def test_output_two_is_output_one_swapped_and_stretched(self, xi):
        table = cv_gaussian._kernel_table(xi)
        assert table.shape == (2, 3, 3)
        (amp, var, twist) = table[0, [1, 0, 2]].T
        assert np.array_equal(table[1], np.stack([2 * amp, var / 2, 2 * twist], axis=-1))

    def test_read_only_and_cached(self):
        table = cv_gaussian._kernel_table(0.5)
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0, 0] = 1.0
        assert cv_gaussian._kernel_table(0.5) is table

    @pytest.mark.parametrize("xi", XIS)
    def test_kernel_form_returns_its_rows(self, xi):
        table = cv_gaussian._kernel_table(xi)
        for output in (1, 2):
            for which in (1, 2, 3):
                form = cv_gaussian._kernel_form(which, xi, output)
                assert all(type(x) is float for x in form)
                assert form == tuple(table[output - 1, which - 1])

    @pytest.mark.parametrize(
        "which, xi, output, match",
        (
            (0, 0.5, 1, "kernel selector"),
            (4, 0.5, 2, "kernel selector"),
            (1, 0.5, 0, "output must be 1 or 2"),
            (3, 0.5, 3, "output must be 1 or 2"),
            (1, -0.1, 1, "squeezing"),
            (2, math.nan, 1, "squeezing"),
            (3, math.inf, 2, "squeezing"),
        ),
    )
    def test_kernel_form_rejects_bad_arguments(self, which, xi, output, match):
        with pytest.raises(ValueError, match=match):
            cv_gaussian._kernel_form(which, xi, output)

    @pytest.mark.parametrize("output", (0, 3))
    def test_asymptotic_fidelity_rejects_a_bad_output(self, output):
        # output 0 would otherwise read output 2's row
        with pytest.raises(ValueError, match="output must be 1 or 2"):
            cv_fidelity_asymptotic(0.5, 0.6, 0.5, output=output)


class TestNextFastLen:
    @pytest.mark.parametrize("real", (True, False))
    def test_matches_scipy(self, real):
        # scipy is the oracle only: the padded shapes, and so every printed
        # digit, stay those of the scipy.fft backend the library used before
        got = [cv_gaussian._next_fast_len(n, real) for n in range(1, 20001)]
        assert got == [next_fast_len(n, real=real) for n in range(1, 20001)]


class TestWignerGrid:
    def test_vacuum_mass(self):
        grid = VACUUM.wigner_grid(WignerGrid.centered(6.0, 301))
        assert abs(grid_mass(grid) - 1.0) < 1e-9

    def test_correlated_state_has_no_grid(self):
        # a state with x-p correlation has no product Wigner function, and
        # both ways of sampling it say so
        state = GaussianState(np.array([0.3, -0.2]), np.array([[0.9, 0.35], [0.35, 0.6]]))
        lattice = Lattice(4.0, 31)
        for sample in (state.wigner_factors, state.wigner_grid):
            with pytest.raises(ValueError, match="x-p correlation"):
                sample(lattice)

    def test_factors_of_an_uncorrelated_state(self):
        state = GaussianState(np.array([1.0, -0.5]), np.diag([0.7, 0.9]))
        lattice = Lattice(5.0, 23)
        u, v = state.wigner_factors(lattice)
        assert u.shape == v.shape == (23,)
        want = [[gaussian_wigner_at(state, (x, p)) for p in lattice.x] for x in lattice.x]
        assert np.abs(np.outer(u, v) - np.array(want)).max() < 1e-12
        assert np.array_equal(state.wigner_grid(lattice).values, np.outer(u, v))
        with pytest.raises(ValueError, match="single-mode"):
            tensor_gaussian(VACUUM, VACUUM).wigner_factors(lattice)

    def test_lattice_is_geometry_only(self):
        lattice = Lattice(3.0, 7)
        assert not hasattr(lattice, "values")
        grid = lattice.like(np.ones((7, 7)))
        assert isinstance(grid, WignerGrid)
        assert (grid.half_width, grid.n) == (lattice.half_width, lattice.n)
        assert grid.dx == lattice.dx == 1.0
        assert np.array_equal(lattice.x, [-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="two points"):
            Lattice(1.0, 1)

    @pytest.mark.parametrize("half_width", (math.inf, math.nan, 0.0, -1.0))
    def test_half_width_must_be_finite_and_positive(self, half_width):
        with pytest.raises(ValueError, match="half-width"):
            Lattice(half_width, 5)
        with pytest.raises(ValueError, match="half-width"):
            WignerGrid.centered(half_width, 5)

    def test_moments_of_displaced_gaussian(self):
        state = GaussianState(np.array([1.0, -0.5]), np.diag([0.7, 0.9]))
        grid = state.wigner_grid(WignerGrid.centered(9.0, 301))
        mean, cov = grid_moments(grid)
        assert np.abs(mean - state.mean).max() < 1e-8
        assert np.abs(cov - state.cov).max() < 1e-6

    def test_serialisation_roundtrip(self, tmp_path):
        import csv
        import json

        grid = VACUUM.wigner_grid(WignerGrid.centered(2.0, 5))
        csv_path = tmp_path / "grid.csv"
        with open(csv_path, "w") as fh:
            grid.to_csv(fh)
        with open(csv_path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 25
        assert abs(float(rows[12]["value"]) - grid.values[2, 2]) < 1e-15

        json_path = tmp_path / "grid.json"
        with open(json_path, "w") as fh:
            grid.to_json(fh)
        doc = json.loads(json_path.read_text())
        assert doc["nx"] == 5 and doc["np"] == 5
        assert abs(doc["values"][12] - grid.values[2, 2]) < 1e-15

    def test_json_values_keep_their_rounded_bytes(self):
        # tolist() writes the bytes that rounding every value through 17
        # significant digits wrote, signed zero, subnormals and NaN included
        import io
        import json

        values = np.array(
            [[-0.0, 5e-324, 1e308], [math.nan, -1.7976931348623157e308, 0.1], [math.inf, 1.0, 2.5]]
        )
        grid = WignerGrid(1.5, 3, values)
        written = io.StringIO()
        grid.to_json(written)
        rounded = {
            "x_min": -1.5, "x_max": 1.5, "p_min": -1.5, "p_max": 1.5, "nx": 3, "np": 3,
            "values": [float(f"{v:.17g}") for v in values.ravel()],
        }
        assert written.getvalue() == json.dumps(rounded)

    def test_validation(self):
        with pytest.raises(ValueError):
            WignerGrid(0.0, 4, np.zeros((4, 4)))
        with pytest.raises(ValueError):
            WignerGrid(1.0, 4, np.zeros((3, 4)))


# ---------------------------------------------------------------------------
# symplectic pipeline and the coherent-state cloner
# ---------------------------------------------------------------------------


class TestSymplectic:
    def test_position_block_determinant(self):
        a = qid_position_matrix()
        # cofactor expansion along the first row, kept explicit on purpose
        det = (
            a[0, 0] * (a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1])
            - a[0, 1] * (a[1, 0] * a[2, 2] - a[1, 2] * a[2, 0])
            + a[0, 2] * (a[1, 0] * a[2, 1] - a[1, 1] * a[2, 0])
        )
        assert det == 1.0

    def test_preserves_canonical_form(self):
        s = qid_symplectic()
        j = symplectic_form(3)
        assert np.abs(s @ j @ s.T - j).max() < 1e-14

    def test_displacement_pattern(self):
        s = qid_symplectic()
        position_kick = s @ np.array([1.0, 0, 0, 0, 0, 0])
        assert np.allclose(position_kick[0::2], [1, 1, 1])
        momentum_kick = s @ np.array([0, 1.0, 0, 0, 0, 0])
        assert np.allclose(momentum_kick[1::2], [1, 1, -1])

    def test_matrix_must_match_the_state_size(self):
        with pytest.raises(ValueError, match="symplectic matrix does not match the state size"):
            apply_symplectic(np.eye(4), VACUUM)

    def test_uncertainty_preserved(self):
        state = tensor_gaussian(VACUUM, cloner_program_gaussian())
        out = apply_symplectic(qid_symplectic(), state)
        j = symplectic_form(3)
        assert np.linalg.eigvalsh(out.cov + 0.5j * j).min() > -1e-9


class TestGaussianFidelity:
    def test_identical_coherent(self):
        z = 1.1 - 0.4j
        assert gaussian_fidelity(GaussianState.coherent(z), GaussianState.coherent(z)) == 1.0

    def test_displaced_vacuum_overlap(self):
        # |<0|z>|^2 = exp(-|z|^2) = exp(-|d|^2/2) for quadrature displacement d
        z = 0.8 - 0.3j
        got = gaussian_fidelity(VACUUM, GaussianState.coherent(z))
        assert abs(got - math.exp(-abs(z) ** 2)) < 1e-12
        d = math.sqrt(2) * abs(z)
        assert abs(got - math.exp(-(d**2) / 2)) < 1e-12

    def test_unit_noise_anchor(self):
        # coherent state against the same-mean state with one added vacuum
        # unit of noise: 1/sqrt(det(2x(3/4 + ...))) hits 2/3
        noisy = GaussianState(np.zeros(2), np.eye(2))
        assert abs(gaussian_fidelity(VACUUM, noisy) - 2 / 3) < 1e-12

    def test_symmetric_and_identical_mixed(self):
        # thermal states with mean excitation 1: covariance (1 + 2 nbar)/2 * 1
        a = GaussianState(np.zeros(2), 1.5 * np.eye(2))
        b = GaussianState(np.array([0.3, 0.1]), 0.8 * np.eye(2))
        assert abs(gaussian_fidelity(a, b) - gaussian_fidelity(b, a)) < 1e-12
        same = GaussianState(np.zeros(2), 1.5 * np.eye(2))
        assert abs(gaussian_fidelity(a, same) - 1.0) < 1e-12

    def test_multimode_rejected(self):
        with pytest.raises(ValueError):
            gaussian_fidelity(regularized_epr(0.5), regularized_epr(0.5))

    def test_non_finite_mean_rejected(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                GaussianState(np.array([bad, 0.0]), 0.5 * np.eye(2))

    def test_non_finite_covariance_rejected(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                GaussianState(np.zeros(2), np.array([[bad, 0.0], [0.0, 0.5]]))

    def test_odd_length_mean_rejected(self):
        with pytest.raises(ValueError, match="mean must have even length matching the covariance"):
            GaussianState(np.zeros(3), 0.5 * np.eye(3))

    def test_asymmetric_covariance_rejected(self):
        # the lower triangle alone is the vacuum's, so only the symmetry
        # check sees the upper one; its tolerance scales with the entries
        # by 4 eps, so an asymmetry of 1e-6 relative is still rejected
        for cov in (np.array([[0.5, 0.1], [0.0, 0.5]]), 1e5 * np.array([[1.0, 1e-6], [0.0, 1.0]])):
            with pytest.raises(ValueError, match="covariance must be symmetric"):
                GaussianState(np.zeros(2), cov)

    def test_symplectic_compositions_accepted(self):
        # two squeezers leave an asymmetry of 2.9e-11 on max|cov| = 3.9e5,
        # a third of eps relative, far above an absolute 1e-12
        state = apply_symplectic(_squeezer(1e3, 0.4), apply_symplectic(_squeezer(1e3, 0.3), VACUUM))
        assert np.abs(state.cov - state.cov.T).max() > 1e-12
        # seeded: one mode, two squeezers; two modes, a squeezer on each
        # mode, a third on mode 0, then a beamsplitter; s log-uniform in
        # [10, 1e6]
        rng = np.random.default_rng(37)
        two_vacua = tensor_gaussian(VACUUM, VACUUM)
        for _ in range(200):
            s, theta = 10.0 ** rng.uniform(1.0, 6.0, 3), rng.uniform(0.0, math.pi, 4)
            apply_symplectic(_squeezer(s[1], theta[1]), apply_symplectic(_squeezer(s[0], theta[0]), VACUUM))
            modes = np.zeros((4, 4))
            modes[:2, :2], modes[2:, 2:] = _squeezer(s[0], theta[0]), _squeezer(s[1], theta[1])
            third = np.eye(4)
            third[:2, :2] = _squeezer(s[2], theta[2])
            c, t = math.cos(theta[3]), math.sin(theta[3])
            beamsplitter = np.kron(np.array([[c, t], [-t, c]]), np.eye(2))
            apply_symplectic(beamsplitter, apply_symplectic(third, apply_symplectic(modes, two_vacua)))

    @pytest.mark.parametrize("mode", (-1, 1))
    def test_reduce_rejects_a_mode_out_of_range(self, mode):
        with pytest.raises(ValueError, match=f"mode {mode} out of range"):
            VACUUM.reduce(mode)


def _squeezer(s: float, theta: float) -> np.ndarray:
    """One-mode symplectic map R(theta) diag(sqrt(s), 1/sqrt(s))."""
    c, t = math.cos(theta), math.sin(theta)
    return np.array([[c, -t], [t, c]]) @ np.diag([math.sqrt(s), 1 / math.sqrt(s)])


def _accepted(cov: np.ndarray) -> bool:
    try:
        GaussianState(np.zeros(len(cov)), cov)
    except ValueError as exc:
        assert "violates the uncertainty relation" in str(exc)
        return False
    return True


def _one_mode_covariances(rng: np.random.Generator, count: int):
    """Seeded one-mode covariances, valid and not: independent entries at
    unit scale and at scales 1e-3 to 1e6, and rotated squeezed states near
    purity, squeezed up to r = 6."""
    for i in range(count):
        kind = i % 3
        if kind == 0:
            (a, b), c = rng.uniform(-1.0, 3.0, 2), rng.uniform(-2.0, 2.0)
        elif kind == 1:
            scale = 10.0 ** rng.uniform(-3.0, 6.0)
            (a, b), c = scale * rng.uniform(0.0, 1.0, 2), scale * rng.uniform(-0.5, 0.5)
        else:
            r, theta = rng.uniform(0.0, 6.0), rng.uniform(0.0, math.pi)
            rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
            cov = rng.uniform(0.99, 1.01) * rot @ np.diag([math.exp(-2 * r), math.exp(2 * r)]) @ rot.T / 2
            (a, c), (_, b) = cov.tolist()
        yield np.array([[a, c], [c, b]])


class TestUncertaintyRelation:
    @pytest.mark.parametrize(
        "cov, by",
        (
            (0.4 * np.eye(2), r"-1\.000e-01"),
            (np.diag([1.0, 0.2]), r"-4\.031e-02"),
            (0.4 * np.eye(4), r"-1\.000e-01"),
            # m + r = 0: the eigenvalues are 0 and -1
            (-0.5 * np.eye(2), r"-1\.000e\+00"),
            # ab and c^2 overflow; the smallest eigenvalue is about -1e185
            (1e200 * np.array([[1.0, 1 + 1e-15], [1 + 1e-15, 1.0]]), r"-1\.\d{3}e\+185"),
        ),
    )
    def test_violating_covariance_rejected(self, cov, by):
        with pytest.raises(ValueError, match=f"violates the uncertainty relation by {by}$"):
            GaussianState(np.zeros(len(cov)), cov)

    @pytest.mark.parametrize(
        "cov",
        (
            0.5 * np.eye(2),
            np.array([[0.9, 0.35], [0.35, 0.6]]),
            *(np.diag([math.exp(-2 * xi) / 2, math.exp(2 * xi) / 2]) for xi in (1, 5, 10)),
            # ab and c^2 overflow; the smallest eigenvalue is -1/(8e200)
            np.full((2, 2), 1e200),
        ),
    )
    def test_physical_covariance_accepted(self, cov):
        assert _accepted(cov)

    def test_one_mode_closed_form_is_eigvalshs_smallest_eigenvalue(self):
        # the check's smallest eigenvalue is probed by shifting the covariance
        # by t * 1, which shifts every eigenvalue by t: the state just above
        # the -1e-9 tolerance by eigvalsh's value is accepted and the one just
        # below is rejected, so the two values agree within the margin, a
        # few hundred roundings at the entries' scale
        j = symplectic_form(1)
        for cov in _one_mode_covariances(np.random.default_rng(31), 3000):
            ref = float(np.linalg.eigvalsh(cov + 0.5j * j).min())
            margin = 1e-13 * (1.0 + np.abs(cov).sum())
            if abs(ref + 1e-9) > margin:
                assert _accepted(cov) == (ref >= -1e-9), cov
            shift = -1e-9 - ref
            assert _accepted(cov + (shift + margin) * np.eye(2)), cov
            assert not _accepted(cov + (shift - margin) * np.eye(2)), cov

    def test_pure_states_with_large_variances_accepted(self):
        # ab - c^2 = 1/4 up to b's rounding: the smallest eigenvalue is
        # within 5e-11 of 0, but m and r agree only to rounding at their
        # scale, up to 1e14, so the difference m - r would reject 37 of these
        rng = np.random.default_rng(3131)
        for _ in range(500):
            a, c = 10.0 ** rng.uniform(-6.0, 6.0), rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(0.0, 7.0)
            cov = np.array([[a, c], [c, (c * c + 0.25) / a]])
            assert _accepted(cov), cov

    @staticmethod
    def _rotated_pure_states(s: float):
        """The pure state diag(s/2, 1/(2s)) rotated through 400 angles in
        [0, pi], symmetrised."""
        for theta in np.linspace(0.0, math.pi, 400):
            rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
            cov = rot @ np.diag([s / 2, 1 / (2 * s)]) @ rot.T
            yield (cov + cov.T) / 2

    @pytest.mark.parametrize("s", (1e6, 1e7, 1e8))
    def test_rotated_pure_states_accepted_in_both_paths(self, s):
        # at s = 1e8 rounding puts the smallest eigenvalue of some of these
        # states below -1e-9 (44 in the closed form, by up to -1.3e-9), where
        # an absolute tolerance rejected them; the tolerance grows with the norm of cov + (i/2) J,
        # about s/2, in the closed form and in eigvalsh alike.  The
        # two-mode state adds the vacuum, so it goes through eigvalsh
        j = symplectic_form(1)
        below = 0
        for cov in self._rotated_pure_states(s):
            below += np.linalg.eigvalsh(cov + 0.5j * j)[0] < -1e-9
            two_modes = np.zeros((4, 4))
            two_modes[:2, :2], two_modes[2:, 2:] = cov, VACUUM.cov
            assert _accepted(cov), cov
            assert _accepted(two_modes), cov
        assert below > 0 or s < 1e8

    @pytest.mark.parametrize("modes", (1, 2))
    def test_violation_at_unit_scale_rejected_in_both_paths(self, modes):
        # the tolerance grows with the covariance only by rounding's share:
        # at unit scale a violation of 1e-6 is still rejected
        cov = (0.5 - 1e-6) * np.eye(2 * modes)
        with pytest.raises(ValueError, match=r"violates the uncertainty relation by -1\.000e-06$"):
            GaussianState(np.zeros(2 * modes), cov)

    def test_eigvalsh_checks_two_or_more_modes_only(self, monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counted(mat):
            calls.append(mat.shape)
            return eigvalsh(mat)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        GaussianState.vacuum()
        GaussianState(np.zeros(2), np.array([[0.9, 0.35], [0.35, 0.6]]))
        assert calls == []
        regularized_epr(0.5)
        tensor_gaussian(VACUUM, VACUUM, VACUUM)
        assert calls == [(4, 4), (6, 6)]


class TestCoherentCloner:
    def test_program_covariance_is_half_the_position_form_and_its_inverse(self):
        # the program's wavefunction exp(-x^T M x / 2) has position covariance
        # M^-1 / 2 and momentum covariance M / 2, interleaved (x2, p2, x3, p3)
        m = np.array([[2.0, -1.0], [-1.0, 1.0]])
        want = np.zeros((4, 4))
        want[0::2, 0::2] = 0.5 * np.linalg.inv(m)
        want[1::2, 1::2] = 0.5 * m
        program = cloner_program_gaussian()
        assert np.array_equal(program.mean, np.zeros(4))
        assert program.cov.tobytes() == want.tobytes()
        assert np.linalg.det(program.cov) == pytest.approx(1 / 16, abs=1e-15)

    def test_program_state_is_pure(self):
        program = cloner_program_gaussian()
        j = symplectic_form(2)
        sympl_eigs = np.abs(np.linalg.eigvals(1j * j @ program.cov))
        assert np.abs(np.sort(sympl_eigs) - 0.5).max() < 1e-12

    def test_clone_fidelity_two_thirds(self):
        for z in (0j, 1 + 1j, 3 + 4j):
            out1, out2, _ = coherent_cloner(GaussianState.coherent(z))
            target = GaussianState.coherent(z)
            assert abs(gaussian_fidelity(out1, target) - 2 / 3) < 1e-12
            assert abs(gaussian_fidelity(out2, target) - 2 / 3) < 1e-12

    def test_clone_covariance_gains_one_vacuum_unit(self):
        out1, out2, out3 = coherent_cloner(GaussianState.coherent(0.5 + 0.2j))
        assert np.abs(out1.cov - np.eye(2)).max() < 1e-12
        assert np.abs(out2.cov - np.eye(2)).max() < 1e-12
        assert np.abs(out3.cov - 1.5 * np.eye(2)).max() < 1e-12

    def test_third_output_concentrates_on_conjugate(self):
        z = 3 + 4j
        _, _, out3 = coherent_cloner(GaussianState.coherent(z))
        conj_mean = math.sqrt(2) * np.array([z.real, -z.imag])
        assert np.abs(out3.mean - conj_mean).max() < 1e-12

    def test_anticlone_fidelity_is_one_half(self):
        # the covariance pipeline gives exactly 1/2 against the conjugate
        # coherent state; cross-checked below by direct wavefunction
        # quadrature of the traced three-mode output
        for z in (0j, 3 + 4j):
            _, _, out3 = coherent_cloner(GaussianState.coherent(z))
            target = transpose_gaussian(GaussianState.coherent(z))
            assert abs(gaussian_fidelity(out3, target) - 0.5) < 1e-12

    def test_anticlone_fidelity_by_quadrature(self):
        grid = np.linspace(-9.0, 9.0, 301)
        step = grid[1] - grid[0]
        ys = np.linspace(-5.0, 5.0, 121)
        dy = ys[1] - ys[0]
        z1, z2 = np.meshgrid(grid, grid, indexing="ij")

        def vacuum(x):
            return 2**0.25 * np.exp(-np.asarray(x) ** 2 / 2)

        def program_wf(u, v):
            return math.sqrt(2) * np.exp(-(u**2 + (v - u) ** 2) / 2)

        def joint_amplitude(v):
            x1 = z1 + z2 - v
            x2 = v - z1
            x3 = -z1 - z2 + 2 * v
            return vacuum(x1) * program_wf(x2, x3)

        rows = np.array([joint_amplitude(v).ravel() for v in ys])
        rho3 = rows @ rows.T * step * step / (2 * np.pi)
        phi = vacuum(ys)
        fid = phi @ rho3 @ phi * dy * dy / (2 * np.pi)
        trace = np.sum(np.diag(rho3)) * dy / math.sqrt(2 * np.pi)
        assert abs(trace - 1.0) < 1e-4
        assert abs(fid - 0.5) < 1e-4

    def test_displacement_invariance(self):
        values = []
        for z in (0j, 3 + 4j, -2 + 0.5j):
            out1, _, out3 = coherent_cloner(GaussianState.coherent(z))
            values.append(
                (
                    gaussian_fidelity(out1, GaussianState.coherent(z)),
                    gaussian_fidelity(out3, transpose_gaussian(GaussianState.coherent(z))),
                )
            )
        for a, b in zip(values, values[1:]):
            assert abs(a[0] - b[0]) < 1e-12
            assert abs(a[1] - b[1]) < 1e-12

    def test_rejects_non_coherent_input(self):
        with pytest.raises(ValueError):
            coherent_cloner(GaussianState(np.zeros(2), 1.5 * np.eye(2)))
        with pytest.raises(ValueError):
            coherent_cloner(regularized_epr(0.5))

    def test_transpose_gaussian_is_momentum_reflection(self):
        state = GaussianState(np.array([0.4, -0.7]), np.array([[0.6, 0.1], [0.1, 0.9]]))
        flipped = transpose_gaussian(state)
        assert np.allclose(flipped.mean, [0.4, 0.7])
        assert abs(flipped.cov[0, 1] + 0.1) < 1e-15
        back = transpose_gaussian(flipped)
        assert np.abs(back.cov - state.cov).max() < 1e-15
        assert np.abs(back.mean - state.mean).max() < 1e-15
