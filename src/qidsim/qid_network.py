"""The quantum information distributor (QID) network for qudits.

A fixed four-gate circuit of conditional adders acts on an input register
plus a two-register program state.  The program alone decides how much of
the input's quantum information flows to each output: it interpolates
between "leave the input alone" and "swap it into register 2", with the
symmetric point acting as a universal cloner.

Each output register is a channel on the input that commutes with the
shift operators, so :func:`distribute` computes the three reduced outputs
straight from rho = |psi><psi| and the program amplitude matrix
C[m, k] (registers 2 and 3 of the program), never forming the N^3 joint
state.  All indices are mod N.  In the x-basis the circuit sends the basis
triple (n, m, k) to (n - m + k, m + n, k + n), so the joint output is

    J[a, b, c] = psi[a + b - c] * C[c - a, 2c - a - b]

and its reductions are

    rho1[a, a'] = sum_j rho[a + j, a' + j] * G_j(a - a'),
        G_j(d) = sum_u C[u, u - j] * conj(C[u + d, u + d - j])
    rho2[b, b'] = sum_j rho[b + j, b' + j] * H_j(b - b'),
        H_j(d) = sum_u C[-j, u] * conj(C[-j, u + d])
    rho3[c, c'] = sum_n rho[n, n + d] * K_d(c - n),   d = c - c',
        K_d(v) = sum_w C[w, v] * conj(C[w - d, v - 2d]).

Each output is a Weyl multiplier: it multiplies the input's Weyl
characteristic function by a function of the program alone (for output 3,
after a transposition).  In the x-basis the characteristic function is the
Fourier transform along x of rho's cyclic diagonals D_delta(x) =
rho[x, x + delta], and each output is

    rho_out[x, x + delta] = IFFT_k[mu[k, delta] * FFT_x[D_delta](k)](x),

conjugated for output 3, with the multipliers

    mu1[k, delta] = sum_j G_j(-delta) * exp(2 pi i j k / N),
    mu2[k, delta] = sum_j H_j(-delta) * exp(2 pi i j k / N),
    mu3[k, delta] = sum_v K_delta(v + delta) * exp(-2 pi i k v / N).

Output 3's form uses that rho is Hermitian and that conj(K_{-d}(v)) =
K_d(v + 2d).  So all three outputs take one pass of O(N^2 log N) FFTs
inside the (3, N, N) stack that is returned and one (N, N) spare slot, the
only N x N-sized arrays a call allocates.  Output 3's kernels K are
entries of Gram products of sheared columns of C (N^3 multiply-adds in
BLAS matrix products: one N x N/parts product for each of the
parts = gcd(2, N) column parities), built in those same two arrays and
gathered from the products straight into the [v, delta] layout that
mu3's transform over v reads.

Outputs 1 and 2 are Weyl channels, rho -> sum_ab p_ab W_ab rho W_ab^dag over
the shifts W_ab = X^a Z^b, with weights p = |S|^2 / N whose Fourier
transforms are mu1 and mu2; output 3 is rho -> Psi(rho^T) with
Psi(X^a Z^b) = w^{ab} K^_a(b) X^a Z^b, w = exp(2 pi i / N) (the
Heisenberg-Weyl cloners of Cerf, J. Mod. Opt. 47, 187 (2000)).  So
weights that are nonnegative and sum to 1 certify outputs 1 and 2
positive, and only output 3, whose map has no such certificate, is
factorised.

The joint state is built on demand, as an oracle, by the x-basis index
permutation of :func:`build_qid_unitary` (never as an N^3 x N^3 matrix);
the dense gate-by-gate product :func:`qid_by_gate_sequence` is the oracle
for that permutation at small N.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .qudit_core import (
    ATOL_CHAIN,
    MAX_TRIPARTITE_DIM,
    DensityOperator,
    Operator,
    PureState,
    _check_densities,
    partial_trace,  # noqa: F401 - bound here for qidbench, whose tracer tests rebind it
    validate_dim,
)

__all__ = [
    "PermutationGate",
    "DistributorOutput",
    "conditional_add",
    "conditional_sub",
    "build_qid_unitary",
    "apply_two_register_gate",
    "qid_by_gate_sequence",
    "two_branch_beta",
    "solve_beta",
    "program_state",
    "cloner_program",
    "distribute",
    "predicted_outputs",
    "scaling_factor",
    "clone_fidelity",
    "covariance_deviation",
    "covariance_check",
    "classical_distributor_fidelity",
]


def _conditional_shift(dim: int, sign: int) -> Operator:
    """|k>|m> -> |k>|(m + sign*k) mod N>, as a permutation matrix."""
    d = validate_dim(dim)
    mat = np.zeros((d * d, d * d), dtype=complex)
    k, m = np.divmod(np.arange(d * d), d)
    mat[k * d + (m + sign * k) % d, k * d + m] = 1.0
    return Operator((d, d), mat)


def conditional_add(dim: int) -> Operator:
    """Conditional adder |k>|m> -> |k>|(k+m) mod N> (generalised C-NOT)."""
    return _conditional_shift(dim, 1)


def conditional_sub(dim: int) -> Operator:
    """Inverse conditional adder |k>|m> -> |k>|(m-k) mod N>.

    Coincides with :func:`conditional_add` only for N = 2.
    """
    return _conditional_shift(dim, -1)


class PermutationGate:
    """Phase-free unitary relabelling x-basis triples of a 3-register space.

    ``perm`` must hold each of 0, ..., N^3 - 1 once, as integers or as
    integral floats; anything else raises ValueError.  The gate keeps a
    read-only intp copy, so it can be shared between callers.
    """

    __slots__ = ("dim", "perm")

    def __init__(self, dim: int, perm: np.ndarray):
        self.dim = validate_dim(dim)
        entries = np.asarray(perm)
        size = self.dim**3
        if entries.shape != (size,):
            raise ValueError(f"permutation has shape {entries.shape}, expected ({size},)")
        # NaN fails the comparison with its own truncation, inf the range test
        if entries.dtype.kind not in "iu" and not (
            entries.dtype.kind == "f" and np.array_equal(entries, np.trunc(entries))
        ):
            raise ValueError("index map has non-integral entries")
        if not ((entries >= 0).all() and (entries < size).all()):
            raise ValueError(f"index map has entries outside [0, {size})")
        perm = entries.astype(np.intp)
        if np.bincount(perm, minlength=size).max() != 1:
            raise ValueError("index map is not a bijection")
        perm.flags.writeable = False
        self.perm = perm

    def apply(self, state: PureState) -> PureState:
        if state.dims != (self.dim,) * 3:
            raise ValueError(f"state dims {state.dims} do not match gate dimension {self.dim}")
        out = np.empty_like(state.amplitudes)
        out[self.perm] = state.amplitudes
        return PureState(state.dims, out)


def build_qid_unitary(dim: int) -> PermutationGate:
    """Distributor unitary as a basis permutation.

    Sends (n, m, k) to ((n - m + k) mod N, (m + n) mod N, (k + n) mod N),
    which is what the four conditional shifts D31 D21^dag D13 D12 do on
    basis triples (registers ordered 1, 2, 3).  Each call builds and
    bijection-checks the N^3 permutation; no command builds it, only the
    joint-state oracle :attr:`DistributorOutput.joint` and the tests.
    """
    d = validate_dim(dim)
    idx = np.arange(d**3)
    n, rem = np.divmod(idx, d * d)
    m, k = np.divmod(rem, d)
    dest = ((n - m + k) % d) * d * d + ((m + n) % d) * d + (k + n) % d
    return PermutationGate(d, dest)


def apply_two_register_gate(gate: Operator, state: PureState, control: int, target: int) -> PureState:
    """Apply a two-register gate to registers (control, target) of ``state``."""
    if control == target:
        raise ValueError("control and target must differ")
    dc, dt = state.dims[control], state.dims[target]
    if gate.dims != (dc, dt):
        raise ValueError(f"gate dims {gate.dims} do not fit registers ({dc}, {dt})")
    tensor = np.moveaxis(state.as_tensor(), (control, target), (0, 1))
    shape = tensor.shape
    out = gate.matrix @ tensor.reshape(dc * dt, -1)
    out = np.moveaxis(out.reshape(shape), (0, 1), (control, target))
    return PureState(state.dims, out.ravel())


def qid_by_gate_sequence(state: PureState) -> PureState:
    """Distributor applied as the explicit gate sequence D12, D13, D21^dag, D31.

    Slow dense oracle for :func:`build_qid_unitary`; registers are 0-based
    (0, 1, 2) = (1, 2, 3).
    """
    if state.num_registers != 3 or len(set(state.dims)) != 1:
        raise ValueError("expected three registers of equal dimension")
    d = state.dims[0]
    add, sub = conditional_add(d), conditional_sub(d)
    state = apply_two_register_gate(add, state, control=0, target=1)
    state = apply_two_register_gate(add, state, control=0, target=2)
    state = apply_two_register_gate(sub, state, control=1, target=0)
    state = apply_two_register_gate(add, state, control=2, target=0)
    return state


def two_branch_beta(alpha: float, overlap: float) -> float:
    """Nonnegative beta normalising alpha*|E> + beta*|F> for unit branches
    of real overlap <E|F>: the root of alpha^2 + beta^2 + 2*overlap*alpha*beta = 1.

    The overlap is 1/N for |Xi_00> and |x_0>|p_0>, and
    k3_total_weight(xi)/2 for their squeezed continuous-variable surrogates.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    if not 0.0 <= overlap <= 1.0:
        raise ValueError(f"branch overlap must lie in [0, 1], got {overlap}")
    # sqrt(S) - alpha*overlap, S = 1 - alpha^2 (1 - overlap^2), taken as
    # (1 - alpha^2) / (sqrt(S) + alpha*overlap): no cancellation as alpha -> 1
    gap = (1.0 - alpha) * (1.0 + alpha)
    cross = alpha * overlap
    beta = gap / (cross + math.hypot(cross, math.sqrt(gap))) if gap else 0.0
    _check_normalisation(alpha, beta, overlap)
    return beta


def solve_beta(dim: int, alpha: float) -> float:
    """Nonnegative root of beta^2 + (2*alpha/N)*beta + alpha^2 - 1 = 0."""
    return two_branch_beta(alpha, 1.0 / validate_dim(dim))


@dataclass
class DistributorOutput:
    """The three single-register reductions, and the joint output state on
    demand.

    ``inputs`` holds the input and program kets the joint state is built
    from; it is None for closed-form results, whose ``joint`` is None.
    """

    rho1: DensityOperator
    rho2: DensityOperator
    rho3: DensityOperator
    inputs: tuple[PureState, PureState] | None = None

    @functools.cached_property
    def joint(self) -> PureState | None:
        """Joint N^3 output state, built by the permutation oracle on first
        read.  Raises ValueError above ``MAX_TRIPARTITE_DIM``."""
        if self.inputs is None:
            return None
        psi, ket = self.inputs
        if psi.dim > MAX_TRIPARTITE_DIM:
            raise ValueError(f"dimension {psi.dim} exceeds the tripartite cap {MAX_TRIPARTITE_DIM}")
        return build_qid_unitary(psi.dim).apply(psi.tensor(ket))


def _check_normalisation(alpha: float, beta: float, overlap: float) -> None:
    """(alpha, beta) must satisfy alpha^2 + beta^2 + 2*overlap*alpha*beta = 1,
    the cross term coming from the overlap of the two branches.  NaN fails."""
    residual = alpha * alpha + beta * beta + 2 * alpha * beta * overlap - 1.0
    if not (abs(residual) <= ATOL_CHAIN):
        raise ValueError(f"(alpha, beta) violate the normalisation condition by {residual:.3e}")


def program_state(dim: int, alpha: float, beta: float) -> PureState:
    """The two-register program ket alpha*|Xi_00> + beta*|x_0>|p_0>."""
    d = validate_dim(dim)
    _check_normalisation(alpha, beta, 1.0 / d)
    # |Xi_00> is 1/sqrt(N) on the diagonal of the N x N amplitude matrix, and
    # |x_0>|p_0> is 1/sqrt(N) on row 0 (|p_0> is the Fourier operator's
    # column 0)
    amp = 1 / math.sqrt(d)
    amps = np.zeros(d * d, dtype=complex)
    amps[:: d + 1] = alpha * amp
    amps[:d] += beta * amp
    amps /= np.linalg.norm(amps)
    return PureState((d, d), amps)


def cloner_program(dim: int) -> PureState:
    """Symmetric (alpha = beta) program: the universal cloner setting."""
    d = validate_dim(dim)
    alpha = math.sqrt(d / (2.0 * (d + 1)))
    return program_state(d, alpha, alpha)


class _ChannelTables(NamedTuple):
    """Read-only ``take`` indices that depend on N alone.

    ``diagonals`` reads the flattened program matrix C into output 1's rows;
    ``shear`` reads the flattened C into the Gram products' factors, and
    ``third`` reads the flattened Gram products straight into output 3's
    kernels in the multiplier's layout, K[delta, v + delta] at [v, delta].
    ``back`` reads one flattened (N, N) plane of :func:`distribute`, stored
    [x, delta], back into a matrix.
    """

    diagonals: np.ndarray
    shear: np.ndarray
    third: np.ndarray
    back: np.ndarray


@functools.lru_cache(maxsize=1)
def _channel_tables(dim: int) -> _ChannelTables:
    """Index tables of :func:`distribute` and :func:`_third_output_kernels`.

    The tables of the last dimension asked for are cached and stay held
    after :func:`distribute` returns: int64 indices of 40 bytes per N²
    entry for even N and 32 for odd N, which is 42 MB at N = 1024 and
    0.67 GB at N = 4096.
    """
    d = validate_dim(dim)
    x = np.arange(d)
    delta = x[:, None]
    # Output 3's sheared columns y_v[w] = C[w + s(v), v] are gathered per
    # column parity p into parts = gcd(2, N) left factors Z_p: the N/parts
    # columns y_p, y_{p+parts}, ..., then, for even N, the same rolled by
    # N/2.  Each Gram product's right factor is Z_p's first N/parts columns.
    # ``third`` reads K[delta, u] = <y_{u'}, y_u> into [v, delta], where
    # u = v + delta and u' = u - 2 delta = v - delta, from the rolled
    # columns where s(u) - s(u') - delta = N/2 (never for odd N); its rows v
    # are ``delta`` below and its columns delta are ``x``.
    parts = 2 - d % 2
    columns = d // parts
    u, u_prime = (delta + x) % d, (delta - x) % d
    shift = x * ((d + 1) // 2) % d if d % 2 else x // 2
    col = parts * (x % columns) + np.arange(parts)[:, None, None]
    offset = shift[col] + columns * (x >= columns)
    rolled = (shift[u] - x - shift[u_prime]) % d != 0
    third = (u % parts) * d * columns + (u_prime // parts + columns * rolled) * columns + u // parts
    tables = _ChannelTables(
        diagonals=x * d + (x - delta) % d,  # C[x, x - j]
        shear=((delta + offset) % d) * d + col,
        third=third,
        back=delta * d + (x - delta) % d,  # out[a, b] reads [a, b - a]
    )
    for table in tables:
        table.flags.writeable = False
    return tables


def _third_output_kernels(coeffs: np.ndarray, out: np.ndarray, spare: np.ndarray) -> np.ndarray:
    """K[d, v] = sum_w C[w, v] * conj(C[w - d, v - 2d]), as entries of Gram
    products of sheared columns of C, built in place: ``out`` is a (3, N, N)
    and ``spare`` an (N, N) complex array, both overwritten.  Returns the
    view ``out[0]``, holding K in output 3's multiplier layout: K[d, v + d]
    at [v, d].

    With y_v[w] = C[w + s(v), v] and v' = v - 2d, K[d, v] = <y_{v'}, y_v>
    whenever s(v) - s(v') = d.  v' has v's parity, so the products are
    taken per column parity: parts = gcd(2, N) products of N x N/parts,
    N^3 multiply-adds together at every N.  s halves v: s(v) =
    v (N+1)/2 mod N for odd N, where s(v) - s(v') = d always holds, and
    s(v) = floor(v/2) for even N, where s(v) - s(v') - d is 0 or N/2 and
    the N/2 case reads the product with the columns y_{v'} rolled by N/2.

    The conjugated left factors fill the first ``parts`` slots, the right
    factors slot 2 and the Gram products ``spare``; one gather reads K
    from the products into slot 0.
    """
    tables = _channel_tables(coeffs.shape[0])
    parts, d = tables.shear.shape[0], coeffs.shape[0]
    columns = d // parts
    left, right = out[:parts], out[2].reshape(parts, d, columns)
    np.take(coeffs, tables.shear, out=left, mode="clip")
    np.copyto(right, left[:, :, :columns])
    np.conjugate(left, out=left)
    np.matmul(left.swapaxes(1, 2), right, out=spare.reshape(parts, d, columns))
    return np.take(spare, tables.third, out=out[0], mode="clip")


def _check_weyl_weights(squares: np.ndarray) -> None:
    """The Weyl weights p = |S|^2 / N of outputs 1 and 2, given ``squares``
    = |S|^2 stacked (2, N, N), must each be finite and nonnegative and sum
    to 1 within ``ATOL_CHAIN``.  NaN fails.  A failure raises ValueError
    naming the output."""
    d = squares.shape[-1]
    lowest = squares.min(axis=(1, 2)) / d
    totals = squares.sum(axis=(1, 2)) / d
    for output, (low, total) in enumerate(zip(lowest.tolist(), totals.tolist()), 1):
        if not (low >= 0.0 and abs(total - 1.0) <= ATOL_CHAIN):
            raise ValueError(
                f"output {output} Weyl weights are not a probability distribution: "
                f"smallest {low:.3e}, sum {total!r}"
            )


def distribute(psi: PureState, program: PureState) -> DistributorOutput:
    """Run the distributor on input ``psi`` and a two-register program.

    Accepts arbitrary program kets, not only the two-parameter family, and
    any dimension: the reduced outputs come from the channel formulas in
    the module docstring.  The joint state is built only when
    ``.joint`` is read.

    The three outputs are Weyl multipliers, applied in one pass inside two
    arrays, the only N x N-sized ones a call allocates: the (3, N, N) stack
    that holds the outputs, and one (N, N) spare slot.  Output 3's kernels
    are built in both and gathered into slot 0 in the multiplier's [v, delta]
    layout, its multiplier sits in the spare, and the transform of rho's
    diagonals and outputs 1 and 2's multipliers in the stack.  rho's
    diagonals are copied from a strided window on conj(psi) written twice,
    a 2N-entry buffer, so they need no cached index table.
    Each output is gathered into the stack slot before it, output 3 from
    the spare.  The returned operators are views of the stack, and the
    spare is the density checker's scratch.

    Outputs 1 and 2 are certified positive by their Weyl weights: each is
    sum_ab p_ab W_ab rho W_ab^dag over the shifts W_ab = X^a Z^b, so weights
    that are nonnegative and sum to 1 make it a density matrix, and no
    factorisation is needed.  Output 3's map is not completely positive for
    every program, so it alone is factorised.  All three are then checked
    finite, Hermitian and of unit trace, in one :func:`_check_densities`
    call.  A failed check raises ValueError naming the output.
    """
    if program.num_registers != 2 or program.dims[0] != program.dims[1]:
        raise ValueError("program must span two registers of equal dimension")
    if psi.num_registers != 1:
        raise ValueError("input must be a single register")
    d = psi.dim
    if program.dims[0] != d:
        raise ValueError(f"dimension mismatch: input {d}, program {program.dims[0]}")
    tables = _channel_tables(d)
    coeffs = program.amplitudes.reshape(d, d)
    out = np.empty((3, d, d), dtype=complex)
    spare = np.empty((d, d), dtype=complex)
    # Output 3's kernels K are built in both arrays and left in slot 0,
    # stored [v, delta].  The spare then holds output 3's multiplier
    # sum_v K_delta(v + delta) * exp(-2 pi i k v / N), stored [k, delta].
    kernels = _third_output_kernels(coeffs, out, spare)
    np.fft.fft(kernels, axis=0, out=spare)
    # Slot 0 holds rho's diagonals D[delta, x] = rho[x, x + delta] =
    # psi[x] * conj(psi[x + delta]): the window's row delta starts at entry
    # delta of conj(psi) written twice.  Slots 1 and 2 hold the rows whose
    # circular autocorrelations are G_j (the diagonals C[x, x - j]) and H_j
    # (the rows C[-j, u]).  One FFT along x takes all three.
    conj = psi.amplitudes.conj()
    twice = np.concatenate((conj, conj))
    np.copyto(out[0], np.ndarray((d, d), complex, buffer=twice, strides=twice.strides * 2))
    out[0] *= psi.amplitudes
    np.take(coeffs, tables.diagonals, out=out[1], mode="clip")
    out[2, 0] = coeffs[0]
    out[2, 1:] = coeffs[:0:-1]
    np.fft.fft(out, axis=2, out=out)
    # |S|^2 / N are the weights of the shift operators in outputs 1 and 2;
    # as a probability distribution they certify both outputs positive.
    # An inverse 2-D FFT, over j and the frequency, turns them into the
    # multipliers sum_j R_j(-delta) * exp(2 pi i j k / N), R = G, H, stored
    # [k, delta].
    power = out[1:]
    re, im = power.real, power.imag
    np.square(re, out=re)
    np.square(im, out=im)
    re += im
    im.fill(0.0)
    _check_weyl_weights(re)
    np.fft.ifftn(power, axes=(1, 2), norm="ortho", out=power)
    # Every multiplier, stored [k, delta], meets slot 0's transform of
    # diagonal delta at frequency k; the inverse FFT over k leaves each
    # output's diagonals stored [x, delta], gathered back into the slot
    # before it.  Output 3 comes out conjugated.
    out[1:] *= out[0].T
    spare *= out[0].T
    np.fft.ifft(out[1:], axis=1, out=out[1:])
    np.fft.ifft(spare, axis=0, out=spare)
    for k, plane in enumerate((out[1], out[2], spare)):
        np.take(plane, tables.back, out=out[k], mode="clip")
    np.conjugate(out[2], out=out[2])
    # finite, Hermitian and unit trace all three, and output 3 factorised
    _check_densities(
        out, positive=(2,), names=("output 1", "output 2", "output 3"), scratch=spare
    )
    return DistributorOutput(
        *(DensityOperator._checked((d,), rho) for rho in out), inputs=(psi, program)
    )


def _closed_form_coefficients(
    dim: int, alpha: float, beta: float
) -> tuple[tuple[float, float], ...]:
    """(s_k, e_k) per output of :func:`predicted_outputs`: rho_k = s_k rho_in
    + e_k 1, with rho_in transposed for output 3."""
    d = validate_dim(dim)
    _check_normalisation(alpha, beta, 1.0 / d)
    ab = alpha * beta
    return (
        (alpha**2 + 2 * ab / d, beta**2 / d),
        (beta**2 + 2 * ab / d, alpha**2 / d),
        (2 * ab / d, (d - 2 * ab) / d**2),
    )


def predicted_outputs(dim: int, alpha: float, beta: float, psi: PureState) -> DistributorOutput:
    """Closed-form reduced outputs for the two-parameter program family.

    rho1 = (a^2 + 2ab/N) rho_in + (b^2/N) 1
    rho2 = (b^2 + 2ab/N) rho_in + (a^2/N) 1
    rho3 = (2ab/N) rho_in^T + ((N - 2ab)/N^2) 1
    """
    coefficients = _closed_form_coefficients(dim, alpha, beta)
    if psi.dims != (dim,):
        raise ValueError("psi must be a single register of the given dimension")
    rho_in = np.outer(psi.amplitudes, psi.amplitudes.conj())
    eye = np.eye(dim)
    rhos = (s * rho + e * eye for rho, (s, e) in zip((rho_in, rho_in, rho_in.T), coefficients))
    return DistributorOutput(*(DensityOperator((dim,), rho) for rho in rhos))


def scaling_factor(dim: int) -> float:
    """Input-projector weight of each clone output: (N+2)/(2(N+1))."""
    d = validate_dim(dim)
    return (d + 2) / (2.0 * (d + 1))


def clone_fidelity(dim: int) -> float:
    """Universal-cloner fidelity s + (1-s)/N = (N+3)/(2(N+1))."""
    d = validate_dim(dim)
    return (d + 3) / (2.0 * (d + 1))


def covariance_deviation(psi: PureState, program: PureState, shifts) -> float:
    """Max deviation between shifting the input and shifting the outputs,
    over every pair (n, m) in ``shifts``.

    Displacing the input by X^n Z^m (shift_x(n)*shift_p(m)) must displace
    the reduced outputs 1 and 2 by the same operator and output 3 by
    X^n Z^-m.  Both act by index: Z^m multiplies x-basis entry x by
    z[x] = exp(2 pi i m x / N), and X^n rolls the entries by n, so
    X^n Z^m rho Z^-m X^-n is ``np.roll(rho * outer(z, conj(z)), (n, n))``.
    Output 3 is compared conjugated, which turns its X^n Z^-m into X^n Z^m,
    and the unshifted outputs are computed once for all pairs.  Returns the
    largest elementwise deviation, NaN if any is NaN, and 0.0 for no pairs.
    """
    d = psi.dim

    def outputs(state: PureState) -> np.ndarray:
        out = distribute(state, program)
        return np.array([out.rho1.matrix, out.rho2.matrix, out.rho3.matrix.conj()])

    base = outputs(psi)
    deviations = []
    for n, m in shifts:
        z = np.exp(2j * np.pi * m * np.arange(d) / d)
        moved = outputs(PureState((d,), np.roll(z * psi.amplitudes, n)))
        expected = np.roll(base * np.outer(z, z.conj()), (n, n), (1, 2))
        deviations.append(np.abs(moved - expected).max())
    return float(np.max(deviations, initial=0.0))


def covariance_check(psi: PureState, program: PureState, n: int, m: int) -> float:
    """Max deviation between shifting the input and shifting the outputs.

    Displacing the input by shift_x(n)*shift_p(m) must displace the reduced
    outputs 1 and 2 by the same operator and output 3 by
    shift_x(n)*shift_p(-m).  Returns the largest elementwise deviation.
    """
    return covariance_deviation(psi, program, [(n, m)])


def classical_distributor_fidelity(m_in: int, m_out: int, overlap: float) -> float:
    """Coin-flip routing distributor: m_in inputs scattered over m_out outputs.

    Each output receives an input with probability m_in/m_out and otherwise
    a random state of mean fidelity ``overlap``.
    """
    if m_in < 1 or int(m_in) != m_in or int(m_out) != m_out:
        raise ValueError("m_in and m_out must be positive integers")
    if m_out < m_in:
        raise ValueError(f"m_out = {m_out} must be >= m_in = {m_in}")
    if not 0.0 <= overlap <= 1.0:
        raise ValueError("overlap must lie in [0, 1]")
    ratio = m_in / m_out
    return ratio + (1.0 - ratio) * overlap
