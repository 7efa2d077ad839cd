"""Test-only helpers: basis states, the phase-blind state distance,
operators, index maps, squeezed program states, lattice meshgrids, the
Riemann mass of a Wigner grid and entanglement and moment measures the
library itself does not need, the closed-form kernel Wigner functions, and
numerical oracles for the third output's kernels, the kernel Wigner
functions, the cross kernel's cosine sum and pointwise Gaussian Wigner
functions."""

import math

import numpy as np

from qidsim.cv_gaussian import (
    GaussianState,
    Lattice,
    WignerGrid,
    _kernel_form,
    kernel_eval,
    regularized_epr,
)
from qidsim.qid_network import PermutationGate
from qidsim.qudit_core import (
    DensityOperator,
    Operator,
    PureState,
    fourier_operator,
    partial_trace,
    validate_dim,
)


def basis_state(dims: tuple[int, ...], labels: tuple[int, ...]) -> PureState:
    """Computational basis state |labels[0], labels[1], ...>."""
    dims = tuple(dims)
    if len(labels) != len(dims):
        raise ValueError("one label per register required")
    for lab, d in zip(labels, dims):
        if not 0 <= lab < d:
            raise ValueError(f"label {lab} out of range for dimension {d}")
    amps = np.zeros(int(np.prod(dims)), dtype=complex)
    amps[int(np.ravel_multi_index(tuple(labels), dims))] = 1.0
    return PureState(dims, amps)


def distance_up_to_phase(a: PureState, b: PureState) -> float:
    """Euclidean distance of two states after aligning the optimal global phase."""
    ov = a.overlap(b)
    phase = ov / abs(ov) if abs(ov) > 0 else 1.0
    return float(np.linalg.norm(a.amplitudes - b.amplitudes / phase))


def x_operator(dim: int) -> Operator:
    """Position label operator, diag(0, 1, ..., N-1)."""
    d = validate_dim(dim)
    return Operator((d,), np.diag(np.arange(d).astype(complex)))


def p_operator(dim: int) -> Operator:
    """Momentum label operator F X F^dag."""
    f = fourier_operator(dim).matrix
    return Operator((dim,), f @ x_operator(dim).matrix @ f.conj().T)


def transpose_op(rho: DensityOperator) -> DensityOperator:
    """Matrix transpose in the x-basis (equals complex conjugation)."""
    return DensityOperator(rho.dims, rho.matrix.T.copy())


def negativity(rho: DensityOperator, sys: int = 1) -> float:
    """Entanglement negativity of a two-register density operator.

    Sum of |negative eigenvalues| of the partial transpose on register
    ``sys``; zero for separable states.
    """
    if len(rho.dims) != 2:
        raise ValueError("negativity requires a two-register density operator")
    if sys not in (0, 1):
        raise ValueError("sys must be 0 or 1")
    da, db = rho.dims
    tensor = rho.matrix.reshape(da, db, da, db)
    if sys == 0:
        tensor = tensor.transpose(2, 1, 0, 3)
    else:
        tensor = tensor.transpose(0, 3, 2, 1)
    eigs = np.linalg.eigvalsh(tensor.reshape(da * db, da * db))
    return float(-eigs[eigs < 0].sum())


def output_negativity(joint: PureState, pair: tuple[int, int] = (0, 1)) -> float:
    """Negativity between two output registers of a joint distributor state."""
    return negativity(partial_trace(joint, pair), sys=1)


def meshgrid(lattice: Lattice) -> tuple[np.ndarray, np.ndarray]:
    """(x, p) coordinates of every point of ``lattice``, each of shape (n_x, n_p)."""
    return np.meshgrid(lattice.x, lattice.p, indexing="ij")


def grid_mass(grid: WignerGrid) -> float:
    """(1/2pi) * iint W dx dp by Riemann sum: the reference for the masses
    that ``output_overlaps`` reads off the spectrum."""
    return float(grid.values.sum() * grid.dx * grid.dp / (2 * np.pi))


def grid_moments(grid: WignerGrid) -> tuple[np.ndarray, np.ndarray]:
    """(mean, covariance) of a Wigner grid treated as a distribution."""
    xg, pg = meshgrid(grid)
    w = grid.values / grid.values.sum()
    mean = np.array([(xg * w).sum(), (pg * w).sum()])
    dxg, dpg = xg - mean[0], pg - mean[1]
    cov = np.array(
        [
            [(dxg * dxg * w).sum(), (dxg * dpg * w).sum()],
            [(dxg * dpg * w).sum(), (dpg * dpg * w).sum()],
        ]
    )
    return mean, cov


def map_triple(gate: PermutationGate, n: int, m: int, k: int) -> tuple[int, int, int]:
    """Image of the basis triple (n, m, k) under a permutation gate."""
    d = gate.dim
    dest = int(gate.perm[(n * d + m) * d + k])
    return (dest // (d * d), (dest // d) % d, dest % d)


def third_output_kernels_by_loop(coeffs: np.ndarray) -> np.ndarray:
    """K[d, v] = sum_w C[w, v] * conj(C[w - d, v - 2d]) summed directly, one
    shift d at a time: O(N^3) time, O(N^2) memory."""
    dim = coeffs.shape[0]
    # periodic copy, so that every shifted conj(C) is a slice
    tiled = np.tile(coeffs.conj(), (2, 3))
    kernels = np.empty_like(coeffs)
    for d in range(dim):
        kernels[d] = (coeffs * tiled[dim - d:2 * dim - d, 2 * (dim - d):3 * dim - 2 * d]).sum(axis=0)
    return kernels


def _squeezed_variances(xi: float) -> tuple[float, float]:
    """(e^{-2 xi}/2, e^{2 xi}/2), the narrow and wide quadrature variances
    of the vacuum squeezed by a finite xi >= 0."""
    xi = float(xi)
    if not (math.isfinite(xi) and xi >= 0):
        raise ValueError(f"squeezing must be finite and nonnegative, got {xi}")
    return math.exp(-2 * xi) / 2, math.exp(2 * xi) / 2


def regularized_x0(xi: float) -> GaussianState:
    """Squeezed surrogate of the zero-position eigenstate.

    Variances: Var(x) = e^{-2 xi}/2, Var(p) = e^{2 xi}/2.
    """
    narrow, wide = _squeezed_variances(xi)
    return GaussianState(np.zeros(2), np.diag([narrow, wide]))


def regularized_p0(xi: float) -> GaussianState:
    """Squeezed surrogate of the zero-momentum eigenstate."""
    narrow, wide = _squeezed_variances(xi)
    return GaussianState(np.zeros(2), np.diag([wide, narrow]))


def thermal_reduction(xi: float) -> GaussianState:
    """One mode of the two-mode squeezed vacuum: thermal with nbar = sinh^2 xi."""
    return regularized_epr(xi).reduce(0)


def kernel_wigner_value(
    which: int, xi: float, x: np.ndarray, p: np.ndarray, output: int = 1
) -> np.ndarray:
    """Closed-form Wigner functions of the reduction kernels,
    amp * exp(-(x^2 + p^2) / (2 var)) * cos(twist * x * p), on the kernel's
    row of the library's (amp, var, twist) table.

    The Gaussian kernels (twist 0) are isotropic Gaussians; the cross
    kernel's cosine may dip negative.
    """
    amp, var, twist = _kernel_form(which, xi, output)
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    return amp * np.exp(-(x**2 + p**2) / (2 * var)) * np.cos(twist * x * p)


def kernel_wigner_by_cosine_transform(
    which: int, xi: float, grid: WignerGrid, output: int = 1
) -> WignerGrid:
    """Kernel Wigner function on ``grid``'s lattice by a numerical cosine
    transform of :func:`kernel_eval` over the difference slot,

        W(x, p) = (1/sqrt(2 pi)) * integral K(z; x) cos(p z) dz.

    Every kernel is even in z, so the integral is twice a Riemann sum over
    z >= 0 with half weight at z = 0.  Over both outputs the kernels' widths
    in z lie between e^{-xi} and sqrt(2) * e^{xi}.
    """
    p_max = max(abs(grid.p_min), abs(grid.p_max))
    dz = min(math.exp(-xi) / 6, np.pi / (4 * p_max))
    z = np.arange(0.0, 10 * math.sqrt(2) * math.exp(xi), dz)
    weights = np.full(z.size, 2.0 * dz)
    weights[0] = dz
    kmat = kernel_eval(which, xi, z[None, :], grid.x[:, None], output=output)
    cosmat = np.cos(np.outer(z, grid.p))
    return grid.like((kmat * weights[None, :]) @ cosmat / math.sqrt(2 * np.pi))


def cosine_sum_by_matrix(left: np.ndarray, right: np.ndarray, theta: float) -> np.ndarray:
    """sum_ij left[r, i] cos(theta i j) right[r, j] for each row r, through
    the dense (rows x cols) cosine matrix."""
    i, j = np.arange(left.shape[-1]), np.arange(right.shape[-1])
    return ((left @ np.cos(theta * np.outer(i, j))) * right).sum(axis=-1)


def gaussian_wigner_at(state: GaussianState, point: np.ndarray) -> float:
    """W(r) = exp(-(r-mu)^T S^-1 (r-mu)/2) / sqrt(det S) of a Gaussian state
    at one phase-space point."""
    d = np.asarray(point, dtype=float).ravel() - state.mean
    return float(
        np.exp(-0.5 * d @ np.linalg.solve(state.cov, d)) / np.sqrt(np.linalg.det(state.cov))
    )
