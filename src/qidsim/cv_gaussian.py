"""Continuous-variable limit of the distributor: Gaussian states, reduction
kernels, Wigner-function numerics and the coherent-state cloner.

Conventions (fixed throughout, they differ from the common delta
normalisation):

* hbar = 1, vacuum quadrature variance 1/2;
* position kets obey <x|y> = sqrt(2*pi) * delta(x - y), so a single-mode
  wavefunction satisfies  integral |phi(x)|^2 dx = sqrt(2*pi);
* phase-space integrals carry the invariant measure dx dp / (2*pi), and a
  Wigner function is normalised as (1/2pi) * iint W dx dp = 1;
* a Gaussian state with covariance S and mean mu has
  W(r) = exp(-(r-mu)^T S^-1 (r-mu) / 2) / sqrt(det S).

Gaussian states are covariance matrices with quadratures interleaved as
(x1, p1, x2, p2, ...).  The non-Gaussian squeezed-program analysis computes
each quantity one way, at every squeezing: an output Wigner grid is the
sampled input convolved once, in Fourier space, with the weighted
closed-form kernel characteristic functions (:func:`output_wigner`), and a
vacuum-input output fidelity is an exact closed form
(:func:`cv_fidelity_asymptotic`).  The grid fidelities and output masses
that cross-check that closed form need neither an output grid nor a 2-D
input grid.  A state without x-p correlation, as every sampled input is,
has the product Wigner function u(x) v(p) (:meth:`GaussianState.wigner_factors`),
and the Gaussian kernels' characteristic functions factor into kx and kp
parts; only the cross kernel's cos(twist kx kp / det) does not.
:func:`output_overlaps` therefore is given only the factors and the
lattice's geometry (a :class:`Lattice`: the centred square that every
command samples, so both axes share their points).  It takes one padded
real FFT of the stacked factors and the lattice's indicator, shared by
both outputs and both axes.  It reads each output as a Parseval inner
product: a product of 1-D sums per Gaussian kernel, all of them from one
matrix product per axis, and for the cross kernel a double sum with the
phase c kx kp on the uniform frequency grid, which is a chirp-z transform
done as an FFT convolution (:func:`_cosine_sum`), one forward and one
inverse FFT for both outputs.  A grid row so takes three FFT calls.  No
(kx x kp) array is built for a grid row; a 2-D grid is built only to be
convolved and written out.  Every transform is ``numpy.fft``'s, zero
padded to a length whose prime factors are all small
(:func:`_next_fast_len`), so the library needs no scipy.  A squeezing strength
``xi`` is a plain float; every entry point rejects one that is negative or
not finite.

Every reduction kernel of either output has the Wigner function

    W(x, p) = amp * exp(-(x^2 + p^2) / (2 var)) * cos(twist * x * p),

with twist = 0 for the two Gaussian kernels (the Gaussian Heisenberg-Weyl
cloner structure of N. J. Cerf, J. Mod. Opt. 47, 187 (2000)).  The
read-only (amp, var, twist) table of :func:`_kernel_table`, cached per xi,
is the only place that knows the kernels: output 2's rows are output 1's
with kernels 1 and 2 swapped and phase space stretched by s = sqrt(2),
i.e. (2 amp, var / 2, 2 twist).  The kernel K, W's Fourier transform chi,
its width sigma = sqrt(var) and its vacuum overlap are each one expression
on a row, and :func:`_kernel_form` looks one up.
"""

from __future__ import annotations

import functools
import json
import math
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np
from numpy.fft import fft, ifft, irfft2, rfft, rfft2

from .qid_network import two_branch_beta

__all__ = [
    "XI_GRID_MAX",
    "Lattice",
    "WignerGrid",
    "GaussianState",
    "symplectic_form",
    "tensor_gaussian",
    "apply_symplectic",
    "transpose_gaussian",
    "gaussian_fidelity",
    "regularized_epr",
    "x0_wavefunction",
    "p0_wavefunction",
    "epr_wavefunction",
    "solve_cv_beta",
    "k3_total_weight",
    "kernel_eval",
    "kernel_norm_expected",
    "kernel_characteristic",
    "convolve_with_kernel",
    "output_wigner",
    "output_overlaps",
    "cv_fidelity",
    "cv_fidelity_asymptotic",
    "suggested_half_width",
    "qid_position_matrix",
    "qid_symplectic",
    "cloner_program_gaussian",
    "coherent_cloner",
]

# Squeezing up to which the CLI samples output grids; above it only the
# closed-form fidelities are printed.  A lattice wide enough to hold the
# e^{xi}-wide kernel cannot then resolve the vacuum input: at xi = 5 the
# sampled input's mass is off by 0.1 on a 1024^2 grid.
XI_GRID_MAX = 3.0


def _as_xi(value: float) -> float:
    """Validate a squeezing strength: a finite float xi >= 0."""
    xi = float(value)
    if not (math.isfinite(xi) and xi >= 0):
        raise ValueError(f"squeezing must be finite and nonnegative, got {xi}")
    return xi


def _ab(xi: float) -> tuple[float, float]:
    return math.exp(2 * xi), math.exp(-2 * xi)


# ---------------------------------------------------------------------------
# Wigner grids
# ---------------------------------------------------------------------------


@dataclass
class Lattice:
    """Square (x, p) sampling lattice over [-half_width, half_width]^2 with
    ``n`` points per axis, both ends included: the geometry of a
    :class:`WignerGrid` without its values."""

    half_width: float
    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("grids need at least two points per axis")
        if not (math.isfinite(self.half_width) and self.half_width > 0):
            raise ValueError(f"half-width must be finite and positive, got {self.half_width}")

    @property
    def dx(self) -> float:
        """Step of both axes."""
        return 2 * self.half_width / (self.n - 1)

    @property
    def x(self) -> np.ndarray:
        """Sample points of both axes."""
        return np.linspace(-self.half_width, self.half_width, self.n)

    def like(self, values: np.ndarray) -> "WignerGrid":
        """A :class:`WignerGrid` of ``values`` on this lattice."""
        return WignerGrid(self.half_width, self.n, values)


@dataclass
class WignerGrid(Lattice):
    """Real-valued quasi-probability sampled on a square (x, p) lattice.

    ``values[i, j]`` is W(x[i], x[j]): the x axis first, then the p axis,
    which samples the same points.  Integrals are plain Riemann sums with
    the dx dp / 2pi measure; ranges are meant to be generous enough
    (several sigma) that tail truncation is negligible.
    """

    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        super().__post_init__()
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.n, self.n):
            raise ValueError(f"values shape {vals.shape} != ({self.n}, {self.n})")
        self.values = vals

    @classmethod
    def centered(cls, half_width: float, n: int) -> "WignerGrid":
        """Square lattice over [-half_width, half_width]^2, all zeros."""
        return Lattice(half_width, n).like(np.zeros((n, n)))

    def to_csv(self, stream) -> None:
        """(x, p, value) triples, comma separated, 17 significant digits."""
        stream.write("x,p,value\n")
        xs = self.x
        for i in range(self.n):
            for j in range(self.n):
                stream.write(f"{xs[i]:.17g},{xs[j]:.17g},{self.values[i, j]:.17g}\n")

    def to_json(self, stream) -> None:
        """Metadata, each axis's range and size, plus row-major values."""
        h, n = self.half_width, self.n
        doc = {
            "x_min": -h,
            "x_max": h,
            "p_min": -h,
            "p_max": h,
            "nx": n,
            "np": n,
            "values": self.values.ravel().tolist(),
        }
        json.dump(doc, stream)


def suggested_half_width(xi: float) -> float:
    """Half-width covering 8 standard deviations of the broadest state present
    in an output-distribution pipeline (vacuum input convolved with the
    thermal-like kernel)."""
    # cosh(2 xi) is the variance of output 1's thermal-like kernel 2
    return 8.0 * math.sqrt(math.sqrt(0.5) ** 2 + _kernel_table(xi)[0, 1, 1])


# ---------------------------------------------------------------------------
# Gaussian states
# ---------------------------------------------------------------------------


def symplectic_form(modes: int) -> np.ndarray:
    """Canonical form J for interleaved (x1, p1, x2, p2, ...) ordering."""
    j2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
    out = np.zeros((2 * modes, 2 * modes))
    for i in range(modes):
        out[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = j2
    return out


@dataclass
class GaussianState:
    """Gaussian state: mean vector and covariance over interleaved quadratures.

    A covariance is accepted when the smallest eigenvalue of cov + (i/2) J
    is at least -1e-9 (the uncertainty relation).  For one mode, with
    variances a, b and x-p covariance c, that matrix's eigenvalues are
    m +- r with m = (a + b)/2 and r = hypot((a - b)/2, c, 1/2), and the
    smaller is taken in closed form: det / (m + r) = (ab - c^2 - 1/4) / (m + r)
    when m > 0, which does not cancel for a strongly squeezed pure state,
    else m - r.  So a one-mode state, the only kind the ``cv`` command
    builds, needs no LAPACK; two or more modes use ``eigvalsh``.
    """

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float).ravel()
        cov = np.asarray(self.cov, dtype=float)
        if mean.size % 2 != 0 or cov.shape != (mean.size, mean.size):
            raise ValueError("mean must have even length matching the covariance")
        if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
            raise ValueError("mean and covariance must be finite")
        if np.abs(cov - cov.T).max() > 1e-12:
            raise ValueError("covariance must be symmetric")
        if mean.size == 2:
            # c from the lower triangle, as eigvalsh reads it; the product
            # terms are divided by m + r >= max(a, b, |c|) first, so none overflows
            (a, _), (c, b) = cov.tolist()
            mid, radius = a / 2 + b / 2, math.hypot(a / 2 - b / 2, c, 0.5)
            top = mid + radius
            min_eig = (a / top) * b - (c / top) * c - 0.25 / top if mid > 0 else mid - radius
        else:
            j = symplectic_form(mean.size // 2)
            min_eig = float(np.linalg.eigvalsh(cov + 0.5j * j).min())
        if min_eig < -1e-9:
            raise ValueError(f"covariance violates the uncertainty relation by {min_eig:.3e}")
        self.mean, self.cov = mean, cov

    @property
    def modes(self) -> int:
        return self.mean.size // 2

    @classmethod
    def vacuum(cls) -> "GaussianState":
        return cls(np.zeros(2), 0.5 * np.eye(2))

    @classmethod
    def coherent(cls, z: complex) -> "GaussianState":
        """Coherent state of amplitude z; mean quadratures sqrt(2)*(Re z, Im z)."""
        return cls(np.sqrt(2.0) * np.array([z.real, z.imag]), 0.5 * np.eye(2))

    def reduce(self, mode: int) -> "GaussianState":
        """Single-mode reduction (discard the other modes)."""
        if not 0 <= mode < self.modes:
            raise ValueError(f"mode {mode} out of range")
        s = slice(2 * mode, 2 * mode + 2)
        return GaussianState(self.mean[s].copy(), self.cov[s, s].copy())

    def wigner_factors(self, lattice: Lattice) -> tuple[np.ndarray, np.ndarray]:
        """1-D factors (u, v) of a single-mode state's Wigner function on
        ``lattice``: W(x[i], x[j]) = u[i] * v[j], with u along x and v along
        p.  Only a state without x-p correlation (covariance entry
        S_01 = 0) factors; any other raises :class:`ValueError`.  The
        lattice's points are sampled once, for both axes."""
        if self.modes != 1:
            raise ValueError("grid sampling is for single-mode states")
        (s_xx, s_xp), (_, s_pp) = self.cov.tolist()
        if s_xp != 0.0:
            raise ValueError("a state with x-p correlation has no product Wigner function")
        det = s_xx * s_pp
        x = lattice.x
        rx, rp = x - self.mean[0], x - self.mean[1]
        qx, qp = -0.5 * (s_pp / det) * rx**2, -0.5 * (s_xx / det) * rp**2
        return np.exp(qx) / math.sqrt(det), np.exp(qp)

    def wigner_grid(self, grid: Lattice) -> WignerGrid:
        """Sample a single-mode state's Wigner function on ``grid``'s lattice:
        the outer product of its :meth:`wigner_factors`, which raises the
        same :class:`ValueError` for a state with x-p correlation."""
        return grid.like(np.outer(*self.wigner_factors(grid)))


def tensor_gaussian(*states: GaussianState) -> GaussianState:
    """Product state: stack means, direct-sum covariances."""
    mean = np.concatenate([s.mean for s in states])
    cov = np.zeros((mean.size, mean.size))
    at = 0
    for s in states:
        n = s.mean.size
        cov[at : at + n, at : at + n] = s.cov
        at += n
    return GaussianState(mean, cov)


def apply_symplectic(s: np.ndarray, state: GaussianState) -> GaussianState:
    """Transport mean and covariance through a symplectic map."""
    s = np.asarray(s, dtype=float)
    if s.shape != (state.mean.size, state.mean.size):
        raise ValueError("symplectic matrix does not match the state size")
    return GaussianState(s @ state.mean, s @ state.cov @ s.T)


def transpose_gaussian(state: GaussianState) -> GaussianState:
    """Transpose in the x-basis = momentum reflection p -> -p."""
    r = np.eye(state.mean.size)
    r[1::2, 1::2] *= -1
    # r is diagonal +-1, conjugation is r @ cov @ r
    return GaussianState(r @ state.mean, r @ state.cov @ r)


def gaussian_fidelity(a: GaussianState, b: GaussianState) -> float:
    """Uhlmann fidelity of two single-mode Gaussian states.

    Reduces to the trace overlap <psi|rho|psi> when either state is pure;
    symmetric and equal to 1 iff the states coincide.
    """
    if a.modes != 1 or b.modes != 1:
        raise ValueError("only single-mode states are supported")
    s = a.cov + b.cov
    delta = b.mean - a.mean
    det_s = float(np.linalg.det(s))
    t = (4 * np.linalg.det(a.cov) - 1) * (4 * np.linalg.det(b.cov) - 1)
    t = max(float(t), 0.0)
    denom = math.sqrt(4 * det_s + t) - math.sqrt(t)
    val = 2.0 * math.exp(-0.5 * delta @ np.linalg.solve(s, delta)) / denom
    return float(np.clip(val, 0.0, 1.0))


# ---------------------------------------------------------------------------
# Regularised program states
# ---------------------------------------------------------------------------


def regularized_epr(xi: float) -> GaussianState:
    """Two-mode squeezed vacuum: Var(x1 - x2) = Var(p1 + p2) = e^{-2 xi}."""
    xi = _as_xi(xi)
    c, s = math.cosh(2 * xi), math.sinh(2 * xi)
    cov = 0.5 * np.array(
        [
            [c, 0, s, 0],
            [0, c, 0, -s],
            [s, 0, c, 0],
            [0, -s, 0, c],
        ]
    )
    return GaussianState(np.zeros(4), cov)


def x0_wavefunction(xi: float, x: np.ndarray) -> np.ndarray:
    """Wavefunction of the x-squeezed vacuum, Var(x) = e^{-2 xi}/2
    (integral |phi|^2 dx = sqrt(2 pi))."""
    xi = _as_xi(xi)
    return 2**0.25 * np.exp(xi / 2) * np.exp(-math.exp(2 * xi) * np.asarray(x) ** 2 / 2)


def p0_wavefunction(xi: float, x: np.ndarray) -> np.ndarray:
    """Wavefunction of the p-squeezed vacuum, Var(x) = e^{2 xi}/2."""
    xi = _as_xi(xi)
    return 2**0.25 * np.exp(-xi / 2) * np.exp(-math.exp(-2 * xi) * np.asarray(x) ** 2 / 2)


def epr_wavefunction(xi: float, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """Two-mode wavefunction of :func:`regularized_epr`."""
    a, b = _ab(_as_xi(xi))
    x1, x2 = np.asarray(x1), np.asarray(x2)
    return math.sqrt(2) * np.exp(-(a / 4) * (x1 - x2) ** 2 - (b / 4) * (x1 + x2) ** 2)


def solve_cv_beta(alpha: float, xi: float) -> float:
    """Nonnegative beta completing ``alpha`` under the normalisation
    constraint: the branches overlap by k3_total_weight(xi) / 2."""
    return two_branch_beta(alpha, k3_total_weight(xi) / 2)


def k3_total_weight(xi: float) -> float:
    """4 / sqrt(4 + 2 sinh^2 2 xi): the cross-kernel weight, equal to twice
    the overlap of the entangled and product program branches.  The root is
    taken by :func:`math.hypot`, as the square overflows once xi passes 177."""
    xi = _as_xi(xi)
    return 4 / math.hypot(2, math.sqrt(2) * math.sinh(2 * xi))


# ---------------------------------------------------------------------------
# Reduction kernels
#
# Tracing two modes of the distributed three-mode state leaves a density
# operator of the form
#     rho(y, y') = (1/sqrt(2 pi)) * integral K(y - y'; eta) psi(y - eta)
#                  psi*(y' - eta) d eta
# with K = alpha^2 K1 + beta^2 K2 + alpha beta K3; slot conventions are
# always (xbar, eta) = (matrix-element difference, displacement).  Every
# form below is one expression on the kernel's (amp, var, twist), a row of
# :func:`_kernel_table`.
# ---------------------------------------------------------------------------


def _check_which(which: int) -> int:
    if which not in (1, 2, 3):
        raise ValueError(f"kernel selector must be 1, 2 or 3, got {which!r}")
    return which


def _check_output(output: int) -> int:
    if output not in (1, 2):
        raise ValueError(f"output must be 1 or 2, got {output!r}")
    return output


@functools.lru_cache(maxsize=16)
def _kernel_table(xi: float) -> np.ndarray:
    """Read-only (2, 3, 3) table of every reduction kernel's (amp, var, twist):
    row ``[output - 1, which - 1]`` is kernel ``which`` of ``output``, whose
    Wigner function is amp * exp(-(x^2 + p^2) / (2 var)) * cos(twist * x * p).

    Output 2 swaps kernels 1 and 2 and stretches phase space by s = sqrt(2),
    W(2)_k(x, p) = s^2 W(1)_pi(k)(s x, s p), so its rows are
    (2 amp, var / 2, 2 twist) of the swapped output-1 rows.  Cached per xi.
    """
    xi = _as_xi(xi)
    a, b = _ab(xi)
    c = math.cosh(2 * xi)
    one_b2 = 1 + b * b
    first = np.array([
        (a, b, 0.0),
        (1 / c, c, 0.0),
        (4 / math.sqrt(2 * one_b2), 2 * one_b2 / (a + 3 * b), b * (a - b) / (2 * one_b2)),
    ])
    table = np.stack([first, first[[1, 0, 2]] * [2.0, 0.5, 2.0]])
    table.flags.writeable = False
    return table


def _kernel_form(which: int, xi: float, output: int) -> tuple[float, float, float]:
    """(amp, var, twist) of kernel ``which`` of ``output``: its row of
    :func:`_kernel_table`."""
    which = _check_which(which)
    output = _check_output(output)
    return tuple(_kernel_table(xi)[output - 1, which - 1].tolist())


def kernel_eval(
    which: int, xi: float, xbar: np.ndarray, eta: np.ndarray, output: int = 1
) -> np.ndarray:
    """Closed-form reduction kernels K1, K2, K3 of either output,

        K = amp sqrt(var) exp(-var xbar^2 / 2 - (1/var + var twist^2) eta^2 / 2)
            * cosh(var twist xbar eta)

    on the kernel's (amp, var, twist).  The cross kernel's cosh, the even
    part of exp(+-var twist xbar eta), is what direct quadrature of the
    defining integral yields.
    """
    amp, var, twist = _kernel_form(which, xi, output)
    xbar = np.asarray(xbar, dtype=float)
    eta = np.asarray(eta, dtype=float)
    return (
        amp * math.sqrt(var)
        * np.exp(-var * xbar**2 / 2 - (1 / var + var * twist * twist) * eta**2 / 2)
        * np.cosh(var * twist * xbar * eta)
    )


def kernel_norm_expected(which: int, xi: float) -> float:
    """Expected value of (1/sqrt(2 pi)) * integral K(0; eta) d eta."""
    which = _check_which(which)
    return 1.0 if which in (1, 2) else k3_total_weight(xi)


def _kernel_factors(
    forms: np.ndarray, kx: np.ndarray, kp: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Separable factors (fx, fp, c) of the characteristic functions of the
    kernels whose (amp, var, twist) are the rows of ``forms``, an array of
    shape (..., 3): chi(kx, kp) = fx(kx) * fp(kp) * cos(c * kx * kp).

    With det = 1/var^2 + twist^2, chi = (2 pi amp / sqrt(det)) *
    exp(-(kx^2 + kp^2) / (2 var det)) * cos(twist kx kp / det).  It is
    evaluated through q = var^2 det = 1 + (var twist)^2, which stays O(1)
    where det overflows.  ``fx`` is evaluated on ``kx`` alone and ``fp`` on
    ``kp`` alone, each with a leading axis per kernel; the cosine's
    coefficient c = twist / det has one entry per kernel, so no caller
    needs a (kx x kp) array to hold it.  The Gaussian kernels (twist 0) have
    c = 0.
    """
    amp, var, twist = forms[..., 0], forms[..., 1], forms[..., 2]
    q = 1 + (var * twist) ** 2
    g = var / q  # 1 / (var det)
    scale = 2 * np.pi * amp * var / np.sqrt(q)
    # one exp per axis for all kernels, one for both when ``kp is kx``
    fp = np.exp(np.multiply.outer(-g / 2, kp**2))
    fx = fp.copy() if kp is kx else np.exp(np.multiply.outer(-g / 2, kx**2))
    fx *= np.reshape(scale, scale.shape + (1,) * np.ndim(kx))
    return fx, fp, twist * var * g


def kernel_characteristic(
    which: int, xi: float, kx: np.ndarray, kp: np.ndarray, output: int = 1
) -> np.ndarray:
    """Fourier transform iint W(x, p) exp(-i(kx x + kp p)) dx dp of the
    kernel Wigner functions, in closed form (used by the convolution path so
    narrow kernels never need real-space sampling).

    Built from :func:`_kernel_factors`: passing a column of ``kx`` and a row
    of ``kp`` costs one 2-D product (and one 2-D cosine for the cross
    kernel).
    """
    kx = np.asarray(kx, dtype=float)
    kp = np.asarray(kp, dtype=float)
    fx, fp, c = _kernel_factors(np.array(_kernel_form(which, xi, output)), kx, kp)
    chi = fx * fp
    return chi if c == 0 else chi * np.cos(c * kx * kp)


def _cosine_sum(left: np.ndarray, right: np.ndarray, theta: float | np.ndarray) -> np.ndarray:
    """sum_ij left[..., i] cos(theta i j) right[..., j] for each row of two
    real (..., rows) and (..., cols) arrays, without a (rows x cols) array.
    ``theta`` is a scalar, or one phase per entry of a leading batch axis:
    shape (b,) for (b, k, rows) and (b, k, cols) rows.

    Bluestein's identity i j = (i^2 + j^2 - (j - i)^2) / 2 splits the phase
    into chirps e(n) = exp(i theta n^2 / 2) of i, of j and of the lag
    m = j - i: the sum is Re sum_m conj(e(m)) corr[m], where
    corr[m] = sum_i a_i b_(i+m) correlates the chirped rows a_i = left_i e(i)
    and b_j = right_j e(j) (a chirp-z transform, Rabiner, Schafer & Rader,
    Bell Syst. Tech. J. 48, 1249 (1969)).  The correlation is an FFT
    convolution of the reversed a with b, zero padded to at least
    rows + cols - 1 points so that no lag wraps around.  Every row of a call
    shares one complex buffer, which one forward FFT, the product and one
    inverse FFT transform in place.
    """
    rows, cols = left.shape[-1], right.shape[-1]
    size = rows + cols - 1
    n = _next_fast_len(size, real=False)
    theta = np.asarray(theta, dtype=float)
    # e(n) is even in n, so one chirp serves i, j and the lag |m|
    phase = (theta[..., None] / 2) * np.arange(max(rows, cols)) ** 2
    chirp = np.empty(phase.shape, dtype=complex)
    np.cos(phase, out=chirp.real)
    np.sin(phase, out=chirp.imag)
    buf = np.zeros((2, *np.broadcast_shapes(left.shape[:-1], right.shape[:-1]), n), dtype=complex)
    a, b = buf
    a[..., :rows] = left[..., ::-1]
    b[..., :cols] = right
    # the chirps act entry by entry, on 2-D views: numpy buffers a 3-D
    # strided product, which would double the call's peak memory
    nb = theta.size
    entries = chirp.reshape(nb, -1), a.reshape(nb, -1, n), b.reshape(nb, -1, n)
    for e, a_e, b_e in zip(*entries):
        a_e[:, :rows] *= e[rows - 1 :: -1]
        b_e[:, :cols] *= e[:cols]
    fft(buf, axis=-1, out=buf)
    np.multiply(a, b, out=a)
    ifft(a, axis=-1, out=a)
    # entry rows - 1 + m of the convolution is corr[m], m = 1 - rows .. cols - 1,
    # and is weighed by conj(e(|m|))
    np.conjugate(chirp, out=chirp)
    for e, a_e, _ in zip(*entries):
        a_e[:, : rows - 1] *= e[rows - 1 : 0 : -1]
        a_e[:, rows - 1 : size] *= e[:cols]
    return a[..., :size].real.sum(axis=-1)


@functools.cache
def _next_fast_len(target: int, real: bool) -> int:
    """Smallest n >= ``target`` whose prime factors are all 2, 3 and 5
    (``real``) or 2, 3, 5, 7 and 11 (complex), lengths that pocketfft,
    numpy's FFT, transforms fast; the same rule as ``scipy.fft.next_fast_len``."""
    primes = (2, 3, 5) if real else (2, 3, 5, 7, 11)
    n = target
    while True:
        rest = n
        for p in primes:
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return n
        n += 1


# ---------------------------------------------------------------------------
# Output Wigner functions
# ---------------------------------------------------------------------------


def _nonzero_weights(which: int | Mapping[int, float]) -> dict[int, float]:
    """``{kernel: weight}`` from one kernel (weight 1) or a mapping, with
    zero-weight kernels dropped."""
    pairs = which.items() if isinstance(which, Mapping) else ((which, 1.0),)
    weights = {_check_which(k): w for k, w in pairs}
    return {k: w for k, w in weights.items() if w != 0.0}


def _output_weights(alpha: float, beta: float) -> dict[int, float]:
    # kernel 1 always carries the alpha^2 weight, kernel 2 the beta^2 weight;
    # the output-2 triple already encodes the role reversal of the two modes
    return _nonzero_weights({1: alpha * alpha, 2: beta * beta, 3: alpha * beta})


def _widest_kernel(
    grid: Lattice, weights: Mapping[int, float], xi: float, output: int
) -> float:
    """Spread of the widest weighted kernel of ``output``; raises
    :class:`ValueError` when the grid's half-range cannot hold it."""
    forms = _kernel_table(xi)[_check_output(output) - 1]
    sigma = math.sqrt(max((forms[k - 1, 1] for k in weights), default=0.0))
    half = grid.half_width
    if half < 4 * sigma:
        raise ValueError(
            f"kernel spread {sigma:.3g} needs a grid half-range of at least "
            f"{4 * sigma:.3g}, have {half:.3g}"
        )
    return sigma


def _padded_length(grid: Lattice, sigma: float) -> int:
    """FFT length of each axis of the input zero padded for a kernel of
    spread ``sigma``.

    The 12 sigma of padding bound the wrap-around of a kernel wider than the
    grid step only.  A kernel narrower than the step has a characteristic
    function that is still O(1) at the Nyquist frequency, where the
    spectrum is cut; the ringing this leaves reaches past 12 sigma and wraps
    around, so the result then depends on the padded length.  For the smooth
    inputs ``qidsim cv`` samples that moves F by at most 3.3e-16, but a rough
    input feels it (up to 5e-5 in F on a random 30 x 30 grid at xi = 0.5).
    """
    # 12 sigma of zero padding after the data: a wrapped-around contribution
    # comes from at least 12 sigma away, where every kernel has vanished
    m = math.ceil(6 * sigma / grid.dx) + 1
    return _next_fast_len(grid.n + 2 * m, real=True)


def convolve_with_kernel(
    grid: WignerGrid, which: int | Mapping[int, float], xi: float, output: int = 1
) -> WignerGrid:
    """(1/2pi) * (W conv sum_k w_k W^kernel_k) on the input lattice.

    ``which`` is one kernel (weight 1) or a ``{kernel: weight}`` mapping;
    zero-weight kernels are dropped and neither checked nor evaluated.  The
    weighted sum is one convolution: the input is zero padded once, to the
    spread of the widest remaining kernel, transformed with one real FFT,
    multiplied by the weighted closed-form kernel characteristic functions
    on the half spectrum and transformed back once.  Narrow kernels cost
    nothing, and wide ones only require the lattice to be large enough to
    hold the broadened output.
    """
    weights = _nonzero_weights(which)
    xi = _as_xi(xi)
    length = _padded_length(grid, _widest_kernel(grid, weights, xi, output))
    shape = (length, length)
    kx = 2 * np.pi * np.fft.fftfreq(length, d=grid.dx)
    kp = 2 * np.pi * np.fft.rfftfreq(length, d=grid.dx)
    spectrum = sum(
        w * kernel_characteristic(k, xi, kx[:, None], kp[None, :], output=output)
        for k, w in weights.items()
    )
    out = irfft2(rfft2(grid.values, s=shape) * spectrum, s=shape)[: grid.n, : grid.n]
    return grid.like(out / (2 * np.pi))


def output_wigner(
    input_grid: WignerGrid, xi: float, alpha: float, beta: float, output: int = 1
) -> WignerGrid:
    """Wigner function of a distributor output for a sampled input,
    W_out = (1/2pi) W conv (alpha^2 W1 + beta^2 W2 + alpha beta W3),
    computed as one fused convolution by :func:`convolve_with_kernel`.

    Normalisation is preserved whenever (alpha, beta) satisfy the continuous
    normalisation constraint.
    """
    output = _check_output(output)
    return convolve_with_kernel(input_grid, _output_weights(alpha, beta), xi, output=output)


def output_overlaps(
    lattice: Lattice,
    u: np.ndarray,
    v: np.ndarray,
    xi: float,
    alpha: float,
    beta: float,
) -> tuple[tuple[float, float], tuple[float, float]]:
    """((F1, mass1), (F2, mass2)) for the product input W[i, j] = u[i] v[j]
    on ``lattice``, a geometry only: each output's grid
    fidelity ``cv_fidelity(W, W_out)`` and its Riemann mass
    (1/2pi) * sum W_out dx dp on the lattice, with W_out as
    :func:`output_wigner` computes it, but without an output grid and
    without a 2-D FFT.

    The input is zero padded once, to the widest weighted kernel of either
    output, to one length L on both axes.  Since W vanishes outside the
    lattice, Parseval turns both Riemann sums into inner products on the
    half spectrum,

        F    = dx^2 / (2pi)^2 / L^2 * sum_k w_k |A_k|^2 H_k
        mass = dx^2 / (2pi)^2 / L^2 * sum_k w_k Re(conj(I_k) A_k) H_k

    where A = rfft(u) (x) rfft(v) is the input's transform on kx, kp >= 0,
    H the output's weighted kernel characteristic function, I the
    transform of the lattice's indicator and w the Hermitian weight, a
    product of one per axis: 1 for frequency 0 and an even Nyquist
    frequency, 2 otherwise.  u and v are real and every H is even in kx and
    in kp, so the weight stands for the frequencies -kx and -kp.  Both
    spectra are products of an x and a p factor (the indicator is separable
    too), and both axes sample the same points, so one real FFT of the
    stacked (u, v, indicator) rows serves both, on one set of frequencies
    (:func:`_axis_parts`).  Every weighted (output, kernel) pair's factors
    fx and fp come from one exp for both axes (:func:`_kernel_factors` on
    rows of :func:`_kernel_table`).  A Gaussian kernel's H is fx(kx) fp(kp),
    and its sums are products of 1-D sums, one matrix product per axis for
    all of them.  The cross kernel's H is fx(kx) fp(kp) cos(c kx kp) on the
    uniform grid kx = i dk, kp = j dk, so its sums are
    sum_ij left_i cos(theta i j) right_j with theta = c dk^2, a chirp-z
    transform; both outputs' sums, with a theta each, are one batched
    :func:`_cosine_sum` call, one forward and one inverse FFT on one
    in-place buffer.  No (rows x cols) array is built.
    A half-range too small for either output's widest kernel raises
    :class:`ValueError`, as :func:`output_wigner` does; so do factors whose
    shapes are not (n,).
    """
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    if u.shape != (lattice.n,) or v.shape != (lattice.n,):
        raise ValueError(
            f"factor shapes {u.shape} and {v.shape} do not match the lattice's ({lattice.n},)"
        )
    xi = _as_xi(xi)
    weights = _output_weights(alpha, beta)
    sigma = max(_widest_kernel(lattice, weights, xi, output) for output in (1, 2))
    length = _padded_length(lattice, sigma)
    freqs = 2 * np.pi * np.fft.rfftfreq(length, d=lattice.dx)
    x_parts, p_parts = _axis_parts(u, v, length)
    # every weighted kernel of both outputs, (output, kernel) along the
    # leading axes
    kernels = list(weights)
    w = np.array([weights[k] for k in kernels])
    fx, fp, c = _kernel_factors(_kernel_table(xi)[:, [k - 1 for k in kernels]], freqs, freqs)
    # a kernel without a cosine has sums that are products of 1-D sums, one
    # matrix product per axis for all of them; a cross kernel's are chirp-z
    # sums, one call for both outputs.  The products are einsum's, not BLAS
    # calls: the first dgemm of a process pages in 0.25 MB more
    flat = ~c.any(axis=0)
    x_sums = np.einsum("pi,oki->opk", x_parts, fx[:, flat])
    p_sums = np.einsum("pi,oki->opk", p_parts, fp[:, flat])
    total = (w[flat] * x_sums * p_sums).sum(axis=-1)
    for i in np.flatnonzero(~flat):
        left, right = x_parts * fx[:, i, None], p_parts * fp[:, i, None]
        total += w[i] * _cosine_sum(left, right, c[:, i] * freqs[1] * freqs[1])
    scale = lattice.dx * lattice.dx / (2 * np.pi) ** 2 / (length * length)
    (f1, m1), (f2, m2) = (scale * total).tolist()
    return (f1, m1), (f2, m2)


def _axis_parts(u: np.ndarray, v: np.ndarray, length: int) -> np.ndarray:
    """The parts |A|^2 and Re(conj(I) A) of the factor ``u`` along x and of
    ``v`` along p, a (2, 2, length // 2 + 1) array: A is the transform of
    the real factor and I that of the lattice's indicator, all zero padded
    to ``length``, on the frequencies k >= 0 that both axes share.  Each
    column carries its Hermitian weight, 1 for column 0 and an even Nyquist
    column and 2 otherwise, which stands for the column of -k.  One rfft of
    the stacked (u, v, indicator) rows."""
    size = u.size
    rows = np.zeros((3, length))
    rows[:2, :size] = u, v
    rows[2, :size] = 1.0
    spectra = rfft(rows)
    a, ind = spectra[:2], spectra[2]
    parts = np.empty((2, 2, ind.size))
    parts[:, 0] = a.real**2 + a.imag**2
    parts[:, 1] = ind.real * a.real + ind.imag * a.imag
    parts[..., 1 : (length + 1) // 2] *= 2.0
    return parts


def cv_fidelity(w_in: WignerGrid, w_out: WignerGrid) -> float:
    """(1/2pi) * iint W_in W_out dx dp by grid quadrature.

    Equals <psi|rho_out|psi> when the input grid samples a pure state."""
    if (w_in.half_width, w_in.n) != (w_out.half_width, w_out.n):
        raise ValueError("grids are not sampled on the same lattice")
    return float((w_in.values * w_out.values).sum() * w_in.dx * w_in.dx / (2 * np.pi))


def cv_fidelity_asymptotic(xi: float, alpha: float, beta: float, output: int = 1) -> float:
    """Closed-form output fidelity for a vacuum (or any coherent) input,
    exact at every squeezing.

    The vacuum's autocorrelation is exp(-(x^2 + p^2) / 2), so a kernel of
    form (amp, var, twist) leaves the vacuum overlap

        O = (1/2pi) iint W_kernel exp(-(x^2 + p^2) / 2) dx dp
          = amp / sqrt((1 + 1/var)^2 + twist^2),

    1 / (1 + sigma^2) for the Gaussian kernels.  The root is taken by
    :func:`math.hypot`, as its square overflows once xi passes 177.  The
    cross kernel's O tends to its weight 4 sqrt(2) e^{-2 xi} as xi grows.
    """
    forms = _kernel_table(xi)[_check_output(output) - 1].tolist()
    overlap = [amp / math.hypot(1 + 1 / var, twist) for amp, var, twist in forms]
    return alpha**2 * overlap[0] + beta**2 * overlap[1] + alpha * beta * overlap[2]


# ---------------------------------------------------------------------------
# Coherent-state cloner
# ---------------------------------------------------------------------------


def qid_position_matrix() -> np.ndarray:
    """Position action of the distributor: (x1, x2, x3) -> A (x1, x2, x3)."""
    return np.array([[1.0, -1.0, 1.0], [1.0, 1.0, 0.0], [1.0, 0.0, 1.0]])


def qid_symplectic() -> np.ndarray:
    """6x6 symplectic matrix of the distributor in interleaved ordering.

    Positions transform with A, momenta with A^-T, so S J S^T = J exactly
    and a momentum kick on the input moves outputs 1 and 2 along and
    output 3 against.
    """
    a = qid_position_matrix()
    a_inv_t = np.linalg.inv(a).T
    s = np.zeros((6, 6))
    s[0::2, 0::2] = a
    s[1::2, 1::2] = np.round(a_inv_t)  # integer entries, no roundoff
    return s


def cloner_program_gaussian() -> GaussianState:
    """Two-mode program state optimising the cloner for coherent inputs.

    Pure Gaussian with the real wavefunction
    exp(-(x2^2 + (x3 - x2)^2)/2) = exp(-x^T M x / 2) over the program
    registers, M = [[2, -1], [-1, 1]].  Such a state has position
    covariance M^-1 / 2 = [[1, 1], [1, 2]] / 2, momentum covariance M / 2
    and no x-p terms.  det M = 1, so the covariance's determinant is 1/16:
    the state is pure.
    """
    # interleaved (x2, p2, x3, p3): M^-1 / 2 on the positions, M / 2 on the momenta
    cov = [[0.5, 0, 0.5, 0], [0, 1, 0, -0.5], [0.5, 0, 1, 0], [0, -0.5, 0, 0.5]]
    return GaussianState(np.zeros(4), cov)


def coherent_cloner(
    input_state: GaussianState,
) -> tuple[GaussianState, GaussianState, GaussianState]:
    """Clone a coherent state through the Gaussian distributor pipeline.

    Outputs 1 and 2 are identical clones (covariance grows by one vacuum
    unit); output 3 concentrates on the phase conjugate of the input.
    """
    if input_state.modes != 1:
        raise ValueError("input must be a single mode")
    if np.abs(input_state.cov - 0.5 * np.eye(2)).max() > 1e-9:
        raise ValueError("input must be coherent (covariance = identity/2)")
    joint = tensor_gaussian(input_state, cloner_program_gaussian())
    out = apply_symplectic(qid_symplectic(), joint)
    return out.reduce(0), out.reduce(1), out.reduce(2)
