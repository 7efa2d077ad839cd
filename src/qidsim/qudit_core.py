"""Dense linear algebra for registers of N-level systems (qudits).

The computational basis throughout is the position-like ``x``-basis.
Multi-register amplitude vectors are stored register-major: the basis
label ``(k1, k2, ..., kr)`` sits at flat index
``k1*(N2*...*Nr) + k2*(N3*...*Nr) + ... + kr``, i.e. C-order of a
reshape to ``dims``.  Global phases are never stripped.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence

import numpy as np

__all__ = [
    "ATOL_EXACT",
    "ATOL_CHAIN",
    "MAX_TRIPARTITE_DIM",
    "PureState",
    "DensityOperator",
    "Operator",
    "validate_dim",
    "fourier_operator",
    "shift_x",
    "shift_p",
    "entangled_state",
    "partial_trace",
    "fidelity",
    "haar_random_state",
]

# Exact algebraic identities (unitarity, norms, permutations).
ATOL_EXACT = 1e-12
# Chained floating-point pipelines (partial traces, eigenvalues).
ATOL_CHAIN = 1e-10
# Tripartite pure-state simulation stores N^3 amplitudes; keep it sane.
MAX_TRIPARTITE_DIM = 64


def validate_dim(dim: int) -> int:
    """Check that ``dim`` is an integer Hilbert-space dimension >= 2."""
    if int(dim) != dim or dim < 2:
        raise ValueError(f"dimension must be an integer >= 2, got {dim!r}")
    return int(dim)


class PureState:
    """Normalised pure state over one or more qudit registers.

    Args:
        dims: per-register dimensions, e.g. ``(3, 3)`` for two qutrits.
        amplitudes: complex vector of length ``prod(dims)``, register-major.
    """

    __slots__ = ("dims", "amplitudes")

    def __init__(self, dims: Sequence[int], amplitudes: np.ndarray):
        self.dims = tuple(validate_dim(d) for d in dims)
        amps = np.asarray(amplitudes, dtype=complex).ravel()
        expected = math.prod(self.dims)
        if amps.size != expected:
            raise ValueError(
                f"amplitude vector has length {amps.size}, expected {expected}"
            )
        # numpy's pairwise sum of the squared parts, whose rounding grows with
        # log(size): np.vdot's running sum drifts past ATOL_EXACT on a
        # near-uniform ket of 1500^2 amplitudes
        norm = math.sqrt(np.square(amps.view(float)).sum())
        # NaN-safe: a NaN or inf amplitude makes the norm NaN or inf
        if not (abs(norm - 1.0) <= ATOL_EXACT):
            if not np.isfinite(amps).all():
                raise ValueError("amplitude vector has non-finite entries")
            raise ValueError(f"state is not normalised: |norm - 1| = {abs(norm - 1):.3e}")
        self.amplitudes = amps

    @property
    def num_registers(self) -> int:
        return len(self.dims)

    @property
    def dim(self) -> int:
        """Dimension of a single-register state."""
        if len(self.dims) != 1:
            raise ValueError("state spans more than one register")
        return self.dims[0]

    def as_tensor(self) -> np.ndarray:
        """Amplitudes reshaped to one axis per register."""
        return self.amplitudes.reshape(self.dims)

    def tensor(self, other: "PureState") -> "PureState":
        """Tensor product, ``self`` registers first."""
        return PureState(self.dims + other.dims, np.kron(self.amplitudes, other.amplitudes))

    def overlap(self, other: "PureState") -> complex:
        """Inner product <self|other>."""
        if self.dims != other.dims:
            raise ValueError(f"register mismatch: {self.dims} vs {other.dims}")
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def __repr__(self) -> str:  # pragma: no cover
        return f"PureState(dims={self.dims})"


def haar_random_state(dims: Sequence[int], rng: np.random.Generator) -> PureState:
    """Haar-random pure state: normalised standard complex normal vector."""
    n = math.prod(dims)
    vec = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return PureState(dims, vec / np.linalg.norm(vec))


def _check_densities(
    stack: np.ndarray,
    positive: Sequence[int],
    names: Sequence[str] = ("matrix",),
    scratch: np.ndarray | None = None,
) -> None:
    """Check each (N, N) slot of ``stack`` as a density matrix, in order.

    Every slot must be finite, Hermitian to ``ATOL_CHAIN`` and of unit
    trace.  The slots listed in ``positive`` must also have no eigenvalue
    below ``-ATOL_CHAIN``: a Cholesky factorisation of the slot with
    ``ATOL_CHAIN`` added to its diagonal exists when every eigenvalue is
    above ``-ATOL_CHAIN``, and only when it fails does the smallest
    eigenvalue from ``eigvalsh`` decide.  Both read only the lower triangle.
    A non-finite entry fails the Hermitian comparison, so finiteness is
    looked up only to name the failure.  One N x N complex ``scratch``
    array serves every slot: the caller's, overwritten, or a new one when
    it is None.  ``stack`` is never written.  A failure raises ValueError
    naming the slot, by ``names[slot]``, and the check.
    """
    d = stack.shape[-1]
    if scratch is None:
        scratch = np.empty((d, d), dtype=complex)
    for slot, (mat, name) in enumerate(zip(stack, names, strict=True)):
        np.conjugate(mat.T, out=scratch)
        with np.errstate(invalid="ignore"):  # inf - inf is NaN, which fails below
            np.subtract(mat, scratch, out=scratch)
        if not (np.abs(scratch).max() <= ATOL_CHAIN):
            if not np.isfinite(mat).all():
                raise ValueError(f"{name} has non-finite entries")
            raise ValueError(f"{name} is not Hermitian")
        tr = np.trace(mat)
        if not (abs(tr - 1.0) <= ATOL_CHAIN):
            raise ValueError(f"{name} has trace {tr}, expected 1")
        if slot not in positive:
            continue
        np.copyto(scratch, mat)
        scratch.flat[:: d + 1] += ATOL_CHAIN
        try:
            np.linalg.cholesky(scratch)
        except np.linalg.LinAlgError:
            # not factorable: the smallest eigenvalue is at or below -ATOL_CHAIN,
            # or within roundoff of it
            min_eig = float(np.linalg.eigvalsh(mat).min())
            if not (min_eig >= -ATOL_CHAIN):
                raise ValueError(f"{name} has negative eigenvalue {min_eig:.3e}") from None


class DensityOperator:
    """Hermitian, positive, unit-trace operator over qudit registers.

    Every construction checks the shape, then runs :func:`_check_densities`
    on the matrix as a stack of one: finite entries, Hermitian to
    ``ATOL_CHAIN``, unit trace, and no eigenvalue below ``-ATOL_CHAIN`` by a
    Cholesky factorisation with ``eigvalsh`` as the fallback.  The caller's
    array is never written.  :meth:`_checked` wraps a matrix that a caller
    has already put through that checker, or certified positive another way.
    """

    __slots__ = ("dims", "matrix")

    def __init__(self, dims: Sequence[int], matrix: np.ndarray):
        self.dims = tuple(validate_dim(d) for d in dims)
        mat = np.asarray(matrix, dtype=complex)
        d = math.prod(self.dims)
        if mat.shape != (d, d):
            raise ValueError(f"matrix shape {mat.shape} does not match dimension {d}")
        _check_densities(mat[None], positive=(0,))
        self.matrix = mat

    @classmethod
    def _checked(cls, dims: tuple[int, ...], matrix: np.ndarray) -> "DensityOperator":
        """Wrap a complex matrix of shape ``(prod(dims),) * 2`` that is already
        checked, without repeating the checks."""
        rho = cls.__new__(cls)
        rho.dims = dims
        rho.matrix = matrix
        return rho

    def __repr__(self) -> str:  # pragma: no cover
        return f"DensityOperator(dims={self.dims})"


class Operator:
    """Dense unitary operator on one or more qudit registers; a matrix that
    is not unitary to ``ATOL_EXACT`` is rejected."""

    __slots__ = ("dims", "matrix")

    def __init__(self, dims: Sequence[int], matrix: np.ndarray):
        self.dims = tuple(validate_dim(d) for d in dims)
        mat = np.asarray(matrix, dtype=complex)
        d = math.prod(self.dims)
        if mat.shape != (d, d):
            raise ValueError(f"matrix shape {mat.shape} does not match dimension {d}")
        err = np.abs(mat.conj().T @ mat - np.eye(d)).max()
        if not (err <= ATOL_EXACT):
            raise ValueError(f"operator is not unitary: |U^dag U - 1| = {err:.3e}")
        self.matrix = mat


def fourier_operator(dim: int) -> Operator:
    """Discrete Fourier operator F[k, l] = exp(2*pi*i*k*l/N)/sqrt(N).

    Columns are the momentum-like basis states written in the x-basis, so
    F maps p-basis coordinates to x-basis coordinates and F X F^dag is the
    momentum label operator.
    """
    n = validate_dim(dim)
    k = np.arange(n)
    mat = np.exp(2j * np.pi * np.outer(k, k) / n) / np.sqrt(n)
    return Operator((n,), mat)


def shift_x(dim: int, n: int) -> Operator:
    """Cyclic position shift: |x_k> -> |x_(k+n) mod N>."""
    d = validate_dim(dim)
    mat = np.roll(np.eye(d, dtype=complex), int(n) % d, axis=0)
    return Operator((d,), mat)


def shift_p(dim: int, m: int) -> Operator:
    """Momentum shift, diagonal in the x-basis: exp(2*pi*i*m*l/N) on |x_l>.

    Together with :func:`shift_x` their matrices satisfy the Weyl commutation
    relation ``Z^m X^n = exp(2*pi*i*m*n/N) * X^n Z^m``, with Z^m =
    ``shift_p(m)`` and X^n = ``shift_x(n)``.
    """
    d = validate_dim(dim)
    mat = np.diag(np.exp(2j * np.pi * int(m) * np.arange(d) / d))
    return Operator((d,), mat)


def entangled_state(dim: int, m: int, n: int) -> PureState:
    """Maximally entangled two-register state with phase index m, shift index n.

    Amplitude exp(2*pi*i*m*k/N)/sqrt(N) on the basis pair (k, (k-n) mod N),
    zero elsewhere.  The N^2 states for 0 <= m, n < N form an orthonormal
    basis of the two-register space.
    """
    d = validate_dim(dim)
    if not (0 <= m < d and 0 <= n < d):
        raise ValueError(f"indices (m={m}, n={n}) out of range for N={d}")
    amps = np.zeros(d * d, dtype=complex)
    k = np.arange(d)
    amps[k * d + (k - n) % d] = np.exp(2j * np.pi * m * k / d) / np.sqrt(d)
    return PureState((d, d), amps)


def partial_trace(state: PureState, keep: Iterable[int]) -> DensityOperator:
    """Reduced density operator of a pure state over the registers in
    ``keep`` (0-based).

    ``keep`` is treated as a set; kept registers stay in ascending order.
    """
    if not isinstance(state, PureState):
        raise TypeError(f"unsupported state type {type(state)!r}")
    kept = tuple(sorted(set(int(i) for i in keep)))
    if not kept:
        raise ValueError("keep set is empty")
    if any(i < 0 or i >= state.num_registers for i in kept):
        raise ValueError(f"register index out of range in {kept}")
    if len(kept) == state.num_registers:
        raise ValueError("keep set must be a proper subset of the registers")
    tensor = np.moveaxis(state.as_tensor(), kept, range(len(kept)))
    d_keep = int(np.prod([state.dims[i] for i in kept]))
    flat = tensor.reshape(d_keep, -1)
    mat = flat @ flat.conj().T
    return DensityOperator(tuple(state.dims[i] for i in kept), mat)


def fidelity(rho: DensityOperator, psi: PureState) -> float:
    """Pure-state fidelity <psi|rho|psi>, clipped to [0, 1]; NaN stays NaN."""
    if rho.dims != psi.dims:
        raise ValueError(f"dimension mismatch: {rho.dims} vs {psi.dims}")
    val = np.vdot(psi.amplitudes, rho.matrix @ psi.amplitudes)
    if abs(val.imag) > ATOL_EXACT:
        raise ValueError(f"fidelity has imaginary part {val.imag:.3e}")
    return float(min(max(val.real, 0.0), 1.0))
