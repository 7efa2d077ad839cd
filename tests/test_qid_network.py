import decimal
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qidsim import qid_network
from qidsim.qid_network import (
    PermutationGate,
    _channel_tables,
    _check_weyl_weights,
    _third_output_kernels,
    apply_two_register_gate,
    build_qid_unitary,
    classical_distributor_fidelity,
    clone_fidelity,
    cloner_program,
    conditional_add,
    conditional_sub,
    covariance_check,
    covariance_deviation,
    distribute,
    predicted_outputs,
    program_state,
    qid_by_gate_sequence,
    scaling_factor,
    solve_beta,
    two_branch_beta,
)
from qidsim.cv_gaussian import (
    XI_MAX,
    GaussianState,
    cloner_program_gaussian,
    cv_fidelity_asymptotic,
    epr_wavefunction,
    k3_total_weight,
    p0_wavefunction,
    solve_cv_beta,
    x0_wavefunction,
)
from qidsim.qudit_core import (
    MAX_TRIPARTITE_DIM,
    DensityOperator,
    PureState,
    entangled_state,
    fidelity,
    fourier_operator,
    haar_random_state,
    partial_trace,
    shift_p,
    shift_x,
)

from helpers import (
    basis_state,
    distance_up_to_phase,
    map_triple,
    output_negativity,
    third_output_kernels_by_loop,
)


def swap_target_state(psi: PureState) -> PureState:
    """|Psi>_2 |Xi_00>_13 written in register order (1, 2, 3)."""
    d = psi.dim
    amps = np.zeros((d, d, d), dtype=complex)
    for z1 in range(d):
        amps[z1, :, z1] = psi.amplitudes / math.sqrt(d)
    return PureState((d, d, d), amps.ravel())


class TestConditionalShifts:
    def test_add_wraps(self):
        state = basis_state((3, 3), (2, 2))
        out = PureState(state.dims, conditional_add(3).matrix @ state.amplitudes)
        assert distance_up_to_phase(out, basis_state((3, 3), (2, 1))) < 1e-12

    def test_qubit_add_equals_sub(self):
        assert np.abs(conditional_add(2).matrix - conditional_sub(2).matrix).max() == 0

    def test_qutrit_add_differs_from_sub(self):
        assert np.abs(conditional_add(3).matrix - conditional_sub(3).matrix).max() == 1

    @pytest.mark.parametrize("dim", (2, 3, 5))
    def test_sub_inverts_add(self, dim):
        prod = conditional_sub(dim).matrix @ conditional_add(dim).matrix
        assert np.abs(prod - np.eye(dim * dim)).max() == 0


class TestDistributorUnitary:
    def test_triple_map_example(self):
        assert map_triple(build_qid_unitary(3), 1, 0, 2) == (0, 1, 0)

    def test_zero_control_row(self):
        gate = build_qid_unitary(4)
        for m in range(4):
            for k in range(4):
                assert map_triple(gate, 0, m, k) == ((k - m) % 4, m, k)

    @pytest.mark.parametrize("dim", (2, 3, 4, 5, 6))
    def test_matches_gate_sequence(self, dim):
        gate = build_qid_unitary(dim)
        rng = np.random.default_rng(dim)
        for _ in range(5):
            state = haar_random_state((dim,) * 3, rng)
            delta = gate.apply(state).amplitudes - qid_by_gate_sequence(state).amplitudes
            assert np.abs(delta).max() < 1e-12

    def test_amplitudes_preserved_exactly(self):
        # a permutation relabels amplitudes without touching their values
        state = haar_random_state((5,) * 3, np.random.default_rng(1))
        out = build_qid_unitary(5).apply(state)
        assert sorted(out.amplitudes.tolist(), key=lambda c: (c.real, c.imag)) == sorted(
            state.amplitudes.tolist(), key=lambda c: (c.real, c.imag)
        )

    def test_gate_index_map_is_read_only(self):
        gate = build_qid_unitary(5)
        with pytest.raises(ValueError):
            gate.perm[0] = gate.perm[1]

    @pytest.mark.parametrize(
        ("last", "match"),
        (
            (9, r"outside \[0, 8\)"),  # past N^3: apply would index out of bounds
            (-1, r"outside \[0, 8\)"),
            (7.5, "non-integral"),  # truncated to 7, a bijection, by an intp cast
            (math.nan, "non-integral"),
            (math.inf, r"outside \[0, 8\)"),
            (0, "not a bijection"),  # 0 twice, 7 never
        ),
    )
    def test_gate_rejects_maps_that_are_not_permutations(self, last, match):
        with pytest.raises(ValueError, match=match):
            PermutationGate(2, np.r_[np.arange(7), last])

    def test_gate_rejects_a_map_of_another_size(self):
        # 0..6 is a bijection of its own range, but not of the N^3 = 8 triples
        with pytest.raises(ValueError, match=r"has shape \(7,\), expected \(8,\)"):
            PermutationGate(2, np.arange(7))

    def test_gate_applies_only_to_its_three_registers(self):
        # one register of 8 amplitudes has as many entries as the gate's
        # 2 x 2 x 2 space, so only the dims tell them apart
        state = haar_random_state((8,), np.random.default_rng(0))
        with pytest.raises(ValueError, match=r"state dims \(8,\) do not match gate dimension 2"):
            build_qid_unitary(2).apply(state)

    def test_gate_accepts_integral_floats_and_keeps_a_copy(self):
        entries = np.arange(8.0)[::-1].copy()
        gate = PermutationGate(2, entries)
        entries[0] = 0.0
        assert gate.perm.dtype == np.intp
        assert gate.perm.tolist() == list(range(7, -1, -1))

    @pytest.mark.parametrize("dim", (2, 3, 4, 5, 6, 7, 16, 64))
    def test_circuit_is_weyl_covariant(self, dim):
        # the paper's covariance, as integer identities on the permutation:
        # (a, b, c)[n, m, k] is the image of the basis triple (n, m, k)
        a, b, c = np.unravel_index(build_qid_unitary(dim).perm, (dim,) * 3)
        a, b, c = (r.reshape((dim,) * 3) for r in (a, b, c))
        n = np.arange(dim)[:, None, None]
        # n -> n + 1 moves the image by (1, 1, 1): X(x)1(x)1 becomes X(x)X(x)X
        for r in (a, b, c):
            assert np.array_equal(np.roll(r, -1, axis=0), (r + 1) % dim)
        # a + b - c = n on every triple: Z(x)1(x)1 becomes Z(x)Z(x)Z^-1
        assert np.array_equal((a + b - c) % dim, np.broadcast_to(n, a.shape))

    def test_gate_embedding_validates_registers(self):
        state = haar_random_state((3, 3, 3), np.random.default_rng(0))
        with pytest.raises(ValueError):
            apply_two_register_gate(conditional_add(3), state, control=1, target=1)
        with pytest.raises(ValueError, match=r"gate dims \(2, 2\) do not fit registers \(3, 3\)"):
            apply_two_register_gate(conditional_add(2), state, control=0, target=1)

    @pytest.mark.parametrize("dims", ((3, 3), (2, 3, 2), (2, 2, 2, 2)))
    def test_gate_sequence_needs_three_equal_registers(self, dims):
        state = haar_random_state(dims, np.random.default_rng(0))
        with pytest.raises(ValueError, match="expected three registers of equal dimension"):
            qid_by_gate_sequence(state)


class TestProgramStates:
    def test_solve_beta_endpoints(self):
        for dim in (2, 3, 8):
            assert abs(solve_beta(dim, 0.0) - 1.0) < 1e-12
            assert abs(solve_beta(dim, 1.0)) < 1e-12

    def test_symmetric_point_qubit(self):
        # alpha = beta requires 2 alpha^2 (1 + 1/N) = 1
        alpha = math.sqrt(1.0 / 3.0)
        assert abs(solve_beta(2, alpha) - alpha) < 1e-12

    @pytest.mark.parametrize("dim", (2, 3, 5, 8))
    def test_solve_beta_satisfies_constraint(self, dim):
        for alpha in np.linspace(0.0, 1.0, 17):
            beta = solve_beta(dim, alpha)
            assert beta >= 0
            assert abs(alpha**2 + beta**2 + 2 * alpha * beta / dim - 1) < 1e-12

    def test_solve_beta_domain(self):
        with pytest.raises(ValueError):
            solve_beta(3, 1.5)

    def test_endpoint_kets(self):
        d = 3
        assert distance_up_to_phase(program_state(d, 1.0, 0.0), entangled_state(d, 0, 0)) < 1e-12
        p0 = PureState((d,), fourier_operator(d).matrix[:, 0])
        x0 = basis_state((d,), (0,))
        assert distance_up_to_phase(program_state(d, 0.0, 1.0), x0.tensor(p0)) < 1e-12

    @pytest.mark.parametrize("dim", (2, 3, 6))
    def test_cloner_program_form(self, dim):
        # symmetric program is sum_m (|x_0> + |x_m>) |x_m> / sqrt(2 (N+1))
        expected = np.zeros((dim, dim), dtype=complex)
        for m in range(dim):
            expected[0, m] += 1
            expected[m, m] += 1
        expected = expected.ravel() / math.sqrt(2 * (dim + 1))
        ket = cloner_program(dim)
        assert distance_up_to_phase(ket, PureState((dim, dim), expected)) < 1e-12

    @pytest.mark.parametrize("dim", (2, 3, 4, 5, 6, 7, 8, 9, 64))
    def test_ket_is_bit_identical_to_fourier_column_form(self, dim):
        x0p0 = np.kron(np.eye(dim, dtype=complex)[0], fourier_operator(dim).matrix[:, 0])
        for alpha in (0.0, 0.1, 0.3, 0.5, math.sqrt(dim / (2.0 * (dim + 1))), 0.9, 1.0):
            beta = solve_beta(dim, alpha)
            amps = alpha * entangled_state(dim, 0, 0).amplitudes + beta * x0p0
            amps /= np.linalg.norm(amps)
            assert np.array_equal(program_state(dim, alpha, beta).amplitudes, amps)

    def test_constraint_enforced(self):
        with pytest.raises(ValueError):
            program_state(3, 0.9, 0.9)

    def test_constraint_fails_on_nan(self):
        # NaN compares false with any tolerance, so the gate must reject it
        with pytest.raises(ValueError, match="normalisation condition by nan"):
            program_state(3, math.nan, 0.5)


EPS = float(np.finfo(float).eps)
# alpha anywhere in [0, 1], and within 2^-13 of 1, where beta -> 0 at a small overlap
ALPHAS = st.one_of(
    st.floats(0.0, 1.0), st.integers(0, 2**40).map(lambda k: 1.0 - k * 2.0**-53)
)


def exact_beta(alpha: float, overlap: float) -> float:
    """-alpha*overlap + sqrt(1 - alpha^2 (1 - overlap^2)) for the float
    inputs, in decimal arithmetic precise enough to hold 1 - overlap^2 for
    the smallest subnormal overlap."""
    with decimal.localcontext() as ctx:
        ctx.prec = 800
        a, o = decimal.Decimal(alpha), decimal.Decimal(overlap)
        return float(-a * o + (1 - a * a * (1 - o * o)).sqrt())


def assert_near_superseded(beta: float, old: float, alpha: float, overlap: float) -> None:
    """beta is within 1e-15 of a superseded root formula, widened where that
    formula loses digits.  Those formulas round S = 1 - alpha^2 (1 - overlap^2)
    to about eps, and sqrt(S) turns that into about eps / (2 sqrt(S)): up to
    4e-14 at alpha = 1 - 1e-7 and N = 1000."""
    root = math.hypot(alpha * overlap, math.sqrt((1.0 - alpha) * (1.0 + alpha)))
    assert abs(beta - old) * root <= 1e-15 * root + EPS


class TestTwoBranchBeta:
    @settings(max_examples=300, deadline=None)
    @given(alpha=ALPHAS, overlap=st.floats(0.0, 1.0))
    def test_root(self, alpha, overlap):
        beta = two_branch_beta(alpha, overlap)
        assert beta >= 0
        assert abs(alpha**2 + beta**2 + 2 * overlap * alpha * beta - 1) <= 1e-12
        # a few roundings, with no cancellation: relative error of a few eps
        assert abs(beta - exact_beta(alpha, overlap)) <= 4 * EPS * beta

    @settings(max_examples=300, deadline=None)
    @given(alpha=ALPHAS, dim=st.integers(2, 10**6))
    def test_solve_beta_keeps_the_qudit_root(self, alpha, dim):
        beta = solve_beta(dim, alpha)
        assert beta >= 0
        assert abs(alpha**2 + beta**2 + 2 * alpha * beta / dim - 1) <= 1e-12
        old = max(-alpha / dim + math.sqrt(1 - alpha**2 * (1 - 1 / dim**2)), 0.0)
        assert_near_superseded(beta, old, alpha, 1 / dim)

    @settings(max_examples=300, deadline=None)
    @given(alpha=ALPHAS, xi=st.floats(0.0, XI_MAX))
    def test_solve_cv_beta_keeps_the_cv_root(self, alpha, xi):
        beta = solve_cv_beta(alpha, xi)
        g = k3_total_weight(xi)
        assert beta >= 0
        assert abs(alpha**2 + beta**2 + g * alpha * beta - 1) <= 1e-12
        old = max((-g * alpha + math.sqrt(g * g * alpha * alpha + 4 * (1 - alpha**2))) / 2, 0.0)
        assert_near_superseded(beta, old, alpha, g / 2)

    @pytest.mark.parametrize("alpha, overlap", (
        (math.nan, 0.5), (0.5, math.nan), (-0.1, 0.5), (0.5, -1e-300),
        (math.nextafter(1.0, 2.0), 0.5), (0.5, 1.5), (math.inf, 0.5), (0.5, math.inf),
    ))
    def test_rejects_outside_the_unit_interval(self, alpha, overlap):
        with pytest.raises(ValueError, match="must lie in"):
            two_branch_beta(alpha, overlap)

    def test_superseded_formula_loses_digits_near_alpha_one(self):
        alpha, dim = 0.9999999, 1000
        exact = exact_beta(alpha, 1 / dim)
        old = -alpha / dim + math.sqrt(1 - alpha**2 * (1 - 1 / dim**2))
        assert abs(old - exact) > 1e-14
        assert abs(solve_beta(dim, alpha) - exact) <= EPS * exact


class TestDistribution:
    def test_entangled_program_leaves_state_unchanged(self):
        for dim in (2, 3, 5):
            psi = haar_random_state((dim,), np.random.default_rng(dim))
            out = distribute(psi, program_state(dim, 1.0, 0.0))
            joint_in = psi.tensor(entangled_state(dim, 0, 0))
            assert abs(abs(out.joint.overlap(joint_in)) - 1) < 1e-12

    def test_product_program_swaps(self):
        for dim in (2, 3, 5):
            psi = haar_random_state((dim,), np.random.default_rng(10 + dim))
            out = distribute(psi, program_state(dim, 0.0, 1.0))
            assert abs(abs(out.joint.overlap(swap_target_state(psi))) - 1) < 1e-12

    def test_generic_program_superposes_both_branches(self):
        dim, alpha = 4, 0.6
        beta = solve_beta(dim, alpha)
        psi = haar_random_state((dim,), np.random.default_rng(2))
        out = distribute(psi, program_state(dim, alpha, beta))
        expected = (
            alpha * psi.tensor(entangled_state(dim, 0, 0)).amplitudes
            + beta * swap_target_state(psi).amplitudes
        )
        assert np.abs(out.joint.amplitudes - expected).max() < 1e-12

    def test_output_traces(self):
        out = distribute(haar_random_state((3,), np.random.default_rng(0)), cloner_program(3))
        for rho in (out.rho1, out.rho2, out.rho3):
            assert abs(np.trace(rho.matrix) - 1) < 1e-12

    def test_accepts_raw_program_kets(self):
        dim = 3
        psi = haar_random_state((dim,), np.random.default_rng(1))
        ket = haar_random_state((dim, dim), np.random.default_rng(2))
        out = distribute(psi, ket)
        assert abs(np.trace(out.rho1.matrix) - 1) < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(dim=st.integers(2, 7), seed=st.integers(0, 2**32 - 1))
    def test_channel_equals_joint_oracle(self, dim, seed):
        # random program kets lie outside the two-parameter family
        rng = np.random.default_rng(seed)
        psi = haar_random_state((dim,), rng)
        ket = haar_random_state((dim, dim), rng)
        out = distribute(psi, ket)
        for register, rho in enumerate((out.rho1, out.rho2, out.rho3)):
            oracle = partial_trace(out.joint, (register,)).matrix
            mat = rho.matrix
            assert np.abs(mat - oracle).max() <= 1e-12
            assert np.abs(mat - mat.conj().T).max() <= 1e-12
            assert abs(np.trace(mat) - 1) <= 1e-12
            assert np.linalg.eigvalsh(mat).min() >= -1e-12

    @pytest.mark.parametrize("dim", (*range(2, 10), 15, 16, 27, 64, 65, 66, 127, 128))
    def test_third_output_kernels_match_loop(self, dim):
        # one construction at every N: one parity block for odd N (prime and
        # composite), two for even N, where N = 0 and N = 2 mod 4 place the
        # N/2 roll differently; a non-normalised complex C exercises every entry
        rng = np.random.default_rng(dim)
        coeffs = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        oracle = third_output_kernels_by_loop(coeffs)
        out = np.full((3, dim, dim), np.nan, dtype=complex)
        spare = np.full((dim, dim), np.nan, dtype=complex)
        kernels = _third_output_kernels(coeffs, out, spare)
        # K is built in the caller's arrays, and returned as slot 0 in the
        # multiplier's layout: K[delta, v + delta] at [v, delta]
        assert np.shares_memory(kernels, out[0])
        v, delta = np.indices((dim, dim))
        expected = oracle[delta, (v + delta) % dim]
        gap = np.abs(kernels - expected).max()
        assert gap <= 1e-13 * np.abs(oracle).max()

    @pytest.mark.parametrize("dim", (64, 65))
    def test_outputs_are_views_of_one_stack(self, dim):
        # the (3, N, N) complex stack and nothing more: 48 N^2 bytes
        rng = np.random.default_rng(dim)
        out = distribute(haar_random_state((dim,), rng), haar_random_state((dim, dim), rng))
        bases = {id(rho.matrix.base) for rho in (out.rho1, out.rho2, out.rho3)}
        assert len(bases) == 1
        assert out.rho1.matrix.base.nbytes == 48 * dim**2

    def test_warm_call_allocates_two_arrays(self):
        # a warm call at N = 65 (index tables cached) allocates the (3, N, N)
        # stack and one (N, N) spare slot; numpy's Cholesky adds one N x N
        # result, and the read-only index tables a half-size copy per gather
        dim = 65
        rng = np.random.default_rng(dim)
        psi, ket = haar_random_state((dim,), rng), haar_random_state((dim, dim), rng)
        distribute(psi, ket)
        unit = 16 * dim**2
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = distribute(psi, ket)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (peak - before) / unit <= 5.5
        assert (held - before) / unit <= 3.1
        assert out.rho3.matrix.shape == (dim, dim)

    def test_inputs_left_unchanged(self):
        for dim in (4, 5):
            rng = np.random.default_rng(dim)
            psi = haar_random_state((dim,), rng)
            ket = haar_random_state((dim, dim), rng)
            before = psi.amplitudes.copy(), ket.amplitudes.copy()
            distribute(psi, ket)
            assert np.array_equal(psi.amplitudes, before[0])
            assert np.array_equal(ket.amplitudes, before[1])

    def test_repeated_dimension_gives_identical_outputs(self):
        # N = 5 in between replaces the cached index tables of N = 4
        rng = np.random.default_rng(6)
        pairs = {dim: (haar_random_state((dim,), rng), haar_random_state((dim, dim), rng))
                 for dim in (4, 5)}
        outs = [distribute(*pairs[dim]) for dim in (4, 5, 4)]
        for first, again in zip(
            (outs[0].rho1, outs[0].rho2, outs[0].rho3), (outs[2].rho1, outs[2].rho2, outs[2].rho3)
        ):
            assert np.array_equal(first.matrix, again.matrix)

    @pytest.mark.parametrize("dim", (4, 5))
    def test_index_tables_are_cached_and_read_only(self, dim):
        tables = _channel_tables(dim)
        assert _channel_tables(dim) is tables
        for table in tables:
            with pytest.raises(ValueError, match="read-only"):
                table.flat[0] = 0

    @pytest.mark.parametrize("dim, width", ((64, 40), (65, 32)))
    def test_index_tables_hold_width_bytes_per_entry(self, dim, width):
        # int64 tables: diagonals, third and back of N^2 entries each, and
        # shear of 2 N^2 for even N and N^2 for odd N; output 3's kernels are
        # read straight from the Gram products, and rho's diagonals through a
        # strided window on conj(psi), with no table
        tables = _channel_tables(dim)
        nbytes = sum(t.nbytes for t in tables)
        assert nbytes == width * dim**2

    @pytest.mark.parametrize("dim", (63, 64, 65))
    def test_channel_equals_joint_oracle_at_large_n(self, dim):
        # built with the permutation itself, since .joint stops at N = 64
        rng = np.random.default_rng(dim)
        psi = haar_random_state((dim,), rng)
        ket = haar_random_state((dim, dim), rng)
        out = distribute(psi, ket)
        joint = build_qid_unitary(dim).apply(psi.tensor(ket))
        for register, rho in enumerate((out.rho1, out.rho2, out.rho3)):
            oracle = partial_trace(joint, (register,)).matrix
            assert np.abs(rho.matrix - oracle).max() <= 1e-12

    def test_joint_is_built_only_when_read(self, monkeypatch):
        def refuse(self, state):
            raise AssertionError("joint state built")

        monkeypatch.setattr(PermutationGate, "apply", refuse)
        psi = haar_random_state((5,), np.random.default_rng(3))
        out = distribute(psi, cloner_program(5))
        assert abs(fidelity(out.rho1, psi) - clone_fidelity(5)) < 1e-12
        with pytest.raises(AssertionError, match="joint state built"):
            out.joint

    def test_joint_above_cap_raises(self):
        dim = MAX_TRIPARTITE_DIM + 1
        psi = haar_random_state((dim,), np.random.default_rng(4))
        out = distribute(psi, cloner_program(dim))
        assert abs(fidelity(out.rho1, psi) - clone_fidelity(dim)) < 1e-12
        with pytest.raises(ValueError, match="tripartite cap"):
            out.joint

    def test_closed_form_outputs_have_no_joint(self):
        psi = haar_random_state((3,), np.random.default_rng(5))
        assert predicted_outputs(3, 1.0, 0.0, psi).joint is None

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            distribute(
                haar_random_state((2,), np.random.default_rng(0)),
                haar_random_state((3, 3), np.random.default_rng(1)),
            )

    @pytest.mark.parametrize("dims", ((4,), (2, 3), (2, 2, 2)))
    def test_program_must_span_two_equal_registers(self, dims):
        psi = haar_random_state((2,), np.random.default_rng(0))
        program = haar_random_state(dims, np.random.default_rng(1))
        with pytest.raises(ValueError, match="program must span two registers of equal dimension"):
            distribute(psi, program)

    def test_input_must_be_one_register(self):
        psi = haar_random_state((2, 2), np.random.default_rng(0))
        with pytest.raises(ValueError, match="input must be a single register"):
            distribute(psi, cloner_program(2))


def weyl_squares(dim: int, seed: int) -> np.ndarray:
    """|S|^2 = N p for two random weight tables p, stacked (2, N, N)."""
    p = np.random.default_rng(seed).uniform(0.0, 1.0, (2, dim, dim))
    p /= p.sum(axis=(1, 2), keepdims=True)
    return dim * p


class TestOutputCertificates:
    def test_weights_of_a_distribution_pass(self):
        squares = weyl_squares(5, 0)
        squares[1, 0, 0] += 5 * 1e-11  # within ATOL_CHAIN of a unit sum
        _check_weyl_weights(squares)

    @pytest.mark.parametrize("output", (1, 2))
    def test_negative_weight(self, output):
        squares = weyl_squares(4, output)
        # weight (0, 1) moves to (1, 0) and 1e-3 more with it: the sum stays 1
        table = squares[output - 1]
        table[1, 0] += table[0, 1] + 4e-3
        table[0, 1] = -4e-3
        with pytest.raises(ValueError, match=f"^output {output} Weyl weights .* smallest -1.000e-03"):
            _check_weyl_weights(squares)

    @pytest.mark.parametrize("output", (1, 2))
    @pytest.mark.parametrize("offset", (1e-9, -1e-9))
    def test_weights_that_miss_a_unit_sum(self, output, offset):
        squares = weyl_squares(4, output)
        squares[output - 1, 2, 3] += 4 * offset
        with pytest.raises(ValueError, match=f"^output {output} Weyl weights are not a probability"):
            _check_weyl_weights(squares)

    @pytest.mark.parametrize("output", (1, 2))
    @pytest.mark.parametrize("bad", (math.nan, math.inf))
    def test_non_finite_weight(self, output, bad):
        squares = weyl_squares(4, output)
        squares[output - 1, 3, 0] = bad
        with pytest.raises(ValueError, match=f"^output {output} Weyl weights are not a probability"):
            _check_weyl_weights(squares)

    def test_distribute_rejects_a_nan_program(self):
        ket = cloner_program(3)
        ket.amplitudes[4] = math.nan
        psi = haar_random_state((3,), np.random.default_rng(0))
        with pytest.raises(ValueError, match="^output 1 Weyl weights are not a probability"):
            distribute(psi, ket)

    def test_distribute_factorises_output_3(self, monkeypatch):
        # K_0 = (1.5, -0.5, 0, ...) sends the basis input |0> to the Hermitian,
        # unit-trace diag(1.5, -0.5, 0, ...), which only the factorisation
        # catches; K_0(v) sits at [v, 0]
        def kernels(coeffs, out, spare):
            out[0] = 0.0
            out[0, :2, 0] = 1.5, -0.5
            return out[0]

        monkeypatch.setattr(qid_network, "_third_output_kernels", kernels)
        basis = PureState((4,), np.eye(4)[0])
        with pytest.raises(ValueError, match="^output 3 has negative eigenvalue -5.000e-01$"):
            distribute(basis, cloner_program(4))

    @pytest.mark.parametrize("dim", (4, 5, 64))
    def test_distribute_takes_five_ffts(self, monkeypatch, dim):
        # one FFT of output 3's kernels, one of rho's diagonals and the
        # program rows, one 2-D inverse FFT of the Weyl weights, and two
        # inverse FFTs that apply the multipliers: one for outputs 1 and 2 in
        # the stack, one for output 3 in the spare slot
        rng = np.random.default_rng(dim)
        psi, ket = haar_random_state((dim,), rng), haar_random_state((dim, dim), rng)
        calls = []

        def counted(name):
            fft = getattr(np.fft, name)

            def call(*args, **kwargs):
                calls.append(name)
                return fft(*args, **kwargs)

            return call

        for name in ("fft", "ifft", "ifftn"):
            monkeypatch.setattr(np.fft, name, counted(name))
        distribute(psi, ket)
        assert sorted(calls) == ["fft", "fft", "ifft", "ifft", "ifftn"]

    @pytest.mark.parametrize("dim", (4, 5, 64))
    def test_distribute_takes_six_gathers(self, monkeypatch, dim):
        # the sheared columns of C, output 3's kernels from the Gram
        # products, output 1's program rows, and one gather back into each
        # of the three output slots; rho's diagonals are copied from a
        # strided window, with no gather
        rng = np.random.default_rng(dim)
        psi, ket = haar_random_state((dim,), rng), haar_random_state((dim, dim), rng)
        distribute(psi, ket)
        calls = []
        take = np.take

        def counted(*args, **kwargs):
            calls.append("take")
            return take(*args, **kwargs)

        monkeypatch.setattr(np, "take", counted)
        distribute(psi, ket)
        assert len(calls) == 6

    @pytest.mark.parametrize("dim", (*range(2, 9), 64))
    def test_weights_certify_outputs_1_and_2(self, dim):
        # skipping the factorisation of outputs 1 and 2 drops no failure that
        # can happen: for Haar-random program kets and inputs both are positive
        rng = np.random.default_rng(1000 + dim)
        for _ in range(25 if dim <= 8 else 4):
            psi = haar_random_state((dim,), rng)
            out = distribute(psi, haar_random_state((dim, dim), rng))
            for rho in (out.rho1, out.rho2):
                assert np.linalg.eigvalsh(rho.matrix).min() >= -1e-12


class TestClosedFormOutputs:
    @pytest.mark.parametrize("dim", (2, 3, 5, 8))
    def test_simulation_matches_closed_form(self, dim):
        rng = np.random.default_rng(100 + dim)
        states = [haar_random_state((dim,), rng) for _ in range(50)]
        pairs = [(a, solve_beta(dim, a)) for a in rng.uniform(0.0, 1.0, size=10)]
        worst = 0.0
        for alpha, beta in pairs:
            program = program_state(dim, alpha, beta)
            for psi in states:
                sim = distribute(psi, program)
                closed = predicted_outputs(dim, alpha, beta, psi)
                for got, want in (
                    (sim.rho1, closed.rho1),
                    (sim.rho2, closed.rho2),
                    (sim.rho3, closed.rho3),
                ):
                    worst = max(worst, float(np.abs(got.matrix - want.matrix).max()))
        assert worst < 1e-10

    def test_constraint_fails_on_nan(self):
        # NaN compares false with any tolerance, so the gate must reject it
        psi = haar_random_state((3,), np.random.default_rng(0))
        with pytest.raises(ValueError, match="normalisation condition by nan"):
            predicted_outputs(3, math.nan, 0.5, psi)

    @pytest.mark.parametrize("dims", ((2,), (3, 3)))
    def test_psi_must_be_one_register_of_the_dimension(self, dims):
        psi = haar_random_state(dims, np.random.default_rng(0))
        with pytest.raises(ValueError, match="psi must be a single register of the given dimension"):
            predicted_outputs(3, 1.0, 0.0, psi)

    def test_no_transfer_endpoint(self):
        dim = 3
        psi = haar_random_state((dim,), np.random.default_rng(0))
        closed = predicted_outputs(dim, 1.0, 0.0, psi)
        assert np.abs(closed.rho1.matrix - np.outer(psi.amplitudes, psi.amplitudes.conj())).max() < 1e-12
        assert np.abs(closed.rho2.matrix - np.eye(dim) / dim).max() < 1e-12

    def test_anticlone_transpose_fidelity(self):
        # <psi*|rho3|psi*> = 2 a b / N + (N - 2 a b)/N^2 since rho_in^T is
        # the projector onto the conjugated state
        dim, alpha = 5, 0.3
        beta = solve_beta(dim, alpha)
        psi = haar_random_state((dim,), np.random.default_rng(3))
        out = distribute(psi, program_state(dim, alpha, beta))
        conj = PureState((dim,), psi.amplitudes.conj())
        expected = 2 * alpha * beta / dim + (dim - 2 * alpha * beta) / dim**2
        assert abs(fidelity(out.rho3, conj) - expected) < 1e-12


class TestCloner:
    def test_qubit_fidelity(self):
        psi = haar_random_state((2,), np.random.default_rng(17))
        out = distribute(psi, cloner_program(2))
        assert abs(fidelity(out.rho1, psi) - 5 / 6) < 1e-12
        assert abs(fidelity(out.rho2, psi) - 5 / 6) < 1e-12
        assert abs(clone_fidelity(2) - 5 / 6) < 1e-15

    def test_qutrit_fidelity(self):
        psi = haar_random_state((3,), np.random.default_rng(18))
        out = distribute(psi, cloner_program(3))
        assert abs(fidelity(out.rho1, psi) - 0.75) < 1e-12
        assert abs(clone_fidelity(3) - 0.75) < 1e-15

    @pytest.mark.parametrize("dim", (2, 3, 4, 7))
    def test_symmetric_outputs_scale_with_input_projector(self, dim):
        psi = haar_random_state((dim,), np.random.default_rng(dim))
        out = distribute(psi, cloner_program(dim))
        s = scaling_factor(dim)
        rho_in = np.outer(psi.amplitudes, psi.amplitudes.conj())
        expected = s * rho_in + (1 - s) / dim * np.eye(dim)
        assert np.abs(out.rho1.matrix - expected).max() < 1e-12
        assert np.abs(out.rho2.matrix - expected).max() < 1e-12
        # third output: transposed input over (N+1) plus white noise
        expected3 = rho_in.T / (dim + 1) + np.eye(dim) / (dim + 1)
        assert np.abs(out.rho3.matrix - expected3).max() < 1e-12

    def test_fidelity_is_input_independent(self):
        dim = 3
        rng = np.random.default_rng(55)
        program = cloner_program(dim)
        fids = []
        for _ in range(50):
            psi = haar_random_state((dim,), rng)
            fids.append(fidelity(distribute(psi, program).rho1, psi))
        assert max(fids) - min(fids) < 1e-10

    def test_monotone_decrease_to_half(self):
        values = [clone_fidelity(n) for n in range(2, 200)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert all(v > 0.5 for v in values)
        assert abs(clone_fidelity(64) - 67 / 130) < 1e-15
        assert clone_fidelity(64) - 0.5 < 0.02


class TestCovariance:
    def test_identity_shift_has_zero_deviation(self):
        psi = haar_random_state((3,), np.random.default_rng(4))
        assert covariance_check(psi, cloner_program(3), 0, 0) == 0.0

    @pytest.mark.parametrize("dim", (2, 3, 5))
    def test_all_shift_pairs(self, dim):
        rng = np.random.default_rng(dim * 7)
        psi = haar_random_state((dim,), rng)
        alpha = float(rng.uniform(0, 1))
        program = program_state(dim, alpha, solve_beta(dim, alpha))
        worst = max(
            covariance_check(psi, program, n, m) for n in range(dim) for m in range(dim)
        )
        assert worst < 1e-10

    @settings(max_examples=40, deadline=None)
    @given(dim=st.integers(2, 7), seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_random_program_ket_is_covariant(self, dim, seed, data):
        # shifting the input by X^n Z^m shifts outputs 1 and 2 by X^n Z^m and
        # output 3 by X^n Z^-m, for program kets outside the two-parameter
        # family too; the shifted input's outputs also match the joint oracle,
        # and covariance_deviation's index shifts match the dense operators
        n = data.draw(st.integers(0, dim - 1), label="n")
        m = data.draw(st.integers(0, dim - 1), label="m")
        rng = np.random.default_rng(seed)
        psi = haar_random_state((dim,), rng)
        ket = haar_random_state((dim, dim), rng)
        s12 = shift_x(dim, n).matrix @ shift_p(dim, m).matrix
        s3 = shift_x(dim, n).matrix @ shift_p(dim, -m).matrix
        base = distribute(psi, ket)
        moved = distribute(PureState((dim,), s12 @ psi.amplitudes), ket)
        outputs = zip((moved.rho1, moved.rho2, moved.rho3), (base.rho1, base.rho2, base.rho3))
        dense = []
        for register, ((rho, rho_base), s) in enumerate(zip(outputs, (s12, s12, s3))):
            oracle = partial_trace(moved.joint, (register,)).matrix
            dense.append(np.abs(rho.matrix - s @ rho_base.matrix @ s.conj().T).max())
            assert dense[-1] <= 1e-12
            assert np.abs(rho.matrix - oracle).max() <= 1e-12
        assert abs(covariance_deviation(psi, ket, [(n, m)]) - max(dense)) <= 1e-15

    @pytest.mark.parametrize("output", (0, 1, 2))
    def test_a_broken_output_is_caught(self, monkeypatch, output):
        # mixing |0><0| into one output breaks covariance by exactly eps for
        # every pair with n != 0, and by nothing for the identity shift
        eps, dim = 1e-6, 5
        exact = qid_network.distribute
        ground = np.zeros((dim, dim), dtype=complex)
        ground[0, 0] = 1.0

        def broken(psi, program):
            out = exact(psi, program)
            rhos = [out.rho1, out.rho2, out.rho3]
            mixed = (1 - eps) * rhos[output].matrix + eps * ground
            rhos[output] = DensityOperator((dim,), mixed)
            return qid_network.DistributorOutput(*rhos)

        monkeypatch.setattr(qid_network, "distribute", broken)
        rng = np.random.default_rng(11)
        psi = haar_random_state((dim,), rng)
        ket = haar_random_state((dim, dim), rng)
        shifts = [(n, m) for n in range(dim) for m in range(dim)]
        assert covariance_deviation(psi, ket, shifts) == pytest.approx(eps, rel=1e-9, abs=0)
        assert covariance_check(psi, ket, 0, 0) == 0.0

    def test_nan_deviation_is_not_dropped(self, monkeypatch):
        # a NaN output for one pair makes the whole deviation NaN, wherever
        # the pair sits among the shifts
        exact = qid_network.distribute
        psi = haar_random_state((3,), np.random.default_rng(12))
        poisoned = PureState((3,), np.roll(psi.amplitudes, 1))

        def nan_for_one_input(state, program):
            out = exact(state, program)
            if np.array_equal(state.amplitudes, poisoned.amplitudes):
                nan = DensityOperator._checked((3,), np.full((3, 3), np.nan + 0j))
                return qid_network.DistributorOutput(out.rho1, out.rho2, nan)
            return out

        monkeypatch.setattr(qid_network, "distribute", nan_for_one_input)
        program = cloner_program(3)
        for shifts in ([(1, 0), (2, 1)], [(2, 1), (1, 0)]):
            assert math.isnan(covariance_deviation(psi, program, shifts))
        assert covariance_deviation(psi, program, []) == 0.0

    def test_clone_fidelity_invariant_under_shifts(self):
        dim = 3
        psi = haar_random_state((dim,), np.random.default_rng(6))
        program = cloner_program(dim)
        base = fidelity(distribute(psi, program).rho1, psi)
        for n in range(dim):
            for m in range(dim):
                op = shift_x(dim, n).matrix @ shift_p(dim, m).matrix
                moved = PureState((dim,), op @ psi.amplitudes)
                val = fidelity(distribute(moved, program).rho1, moved)
                assert abs(val - base) < 1e-12


class TestEntanglementProbe:
    def test_entangled_program_gives_separable_clone_pair(self):
        psi = haar_random_state((3,), np.random.default_rng(8))
        out = distribute(psi, program_state(3, 1.0, 0.0))
        assert output_negativity(out.joint) < 1e-10

    def test_qubit_cloner_outputs_are_entangled(self):
        psi = haar_random_state((2,), np.random.default_rng(9))
        out = distribute(psi, cloner_program(2))
        assert output_negativity(out.joint) > 1e-3


class TestClassicalDistributor:
    def test_values(self):
        assert classical_distributor_fidelity(1, 2, 0.0) == 0.5
        assert classical_distributor_fidelity(2, 4, 0.0) == 0.5
        assert classical_distributor_fidelity(3, 3, 0.0) == 1.0
        assert classical_distributor_fidelity(5, 5, 0.37) == 1.0
        assert abs(classical_distributor_fidelity(1, 4, 0.2) - (0.25 + 0.75 * 0.2)) < 1e-15

    def test_validation(self):
        with pytest.raises(ValueError):
            classical_distributor_fidelity(3, 2, 0.0)
        with pytest.raises(ValueError):
            classical_distributor_fidelity(0, 2, 0.0)
        with pytest.raises(ValueError):
            classical_distributor_fidelity(1, 2, 1.5)


def _trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.abs(np.linalg.eigvalsh(a - b)).sum() / 2)


class TestClassicalLimit:
    """The symmetric cloner against the coin-flip router rho -> (rho x 1/N +
    1/N x rho) / 2: each clone is the router's up to O(1/N), the clone pair
    stays (N - 1) / (2N) away, the router's own antisymmetric weight."""

    @pytest.mark.parametrize("dim", range(2, 9))
    def test_classical_clone_by_clone_not_jointly(self, dim):
        psi = haar_random_state((dim,), np.random.default_rng(300 + dim))
        out = distribute(psi, cloner_program(dim))
        rho12 = partial_trace(out.joint, (0, 1)).matrix
        rho = np.outer(psi.amplitudes, psi.amplitudes.conj())
        mixed = np.eye(dim) / dim
        router = (np.kron(rho, mixed) + np.kron(mixed, rho)) / 2
        # swap |a b> -> |b a>, and the projector onto the antisymmetric space
        swap = np.eye(dim * dim).reshape((dim,) * 4).transpose(0, 1, 3, 2).reshape(rho12.shape)
        anti = (np.eye(dim * dim) - swap) / 2
        clone_gap = (dim - 1) / (2 * dim * (dim + 1))
        assert abs(_trace_distance(out.rho1.matrix, (rho + mixed) / 2) - clone_gap) <= 1e-12
        assert abs(_trace_distance(rho12, router) - (dim - 1) / (2 * dim)) <= 1e-12
        assert abs(np.trace(anti @ rho12)) <= 1e-12


def _swap(dim: int) -> np.ndarray:
    """S|a b> = |b a> on two registers of dimension ``dim``."""
    return np.eye(dim * dim).reshape((dim,) * 4).transpose(0, 1, 3, 2).reshape(dim * dim, -1)


class TestClonePairClosedForm:
    """The (alpha, beta) family's clone pair on a pure input rho, in closed
    form: rho12 = (1/N)[a^2 rho x 1 + b^2 1 x rho + ab (S(rho x 1) + (rho x 1)S)],
    S the swap, and what follows from it, its trace distance to the router
    R_p = p rho x 1/N + (1 - p) 1/N x rho and its antisymmetric weight."""

    @staticmethod
    def _pair(dim: int, alpha: float):
        beta = solve_beta(dim, alpha)
        psi = haar_random_state((dim,), np.random.default_rng(3100 + dim))
        out = distribute(psi, program_state(dim, alpha, beta))
        rho = np.outer(psi.amplitudes, psi.amplitudes.conj())
        return beta, rho, partial_trace(out.joint, (0, 1)).matrix

    @pytest.mark.parametrize("alpha", (0.3, 0.6, 0.8))
    @pytest.mark.parametrize("dim", (2, 3, 4, 5, 8))
    def test_joint_state(self, dim, alpha):
        beta, rho, rho12 = self._pair(dim, alpha)
        eye, swap = np.eye(dim), _swap(dim)
        first = np.kron(rho, eye)
        closed = (
            alpha**2 * first
            + beta**2 * np.kron(eye, rho)
            + alpha * beta * (swap @ first + first @ swap)
        ) / dim
        assert np.abs(rho12 - closed).max() <= 1e-12

    @pytest.mark.parametrize("alpha", (0.3, 0.6, 0.8))
    @pytest.mark.parametrize("dim", (2, 3, 4, 5, 8))
    def test_distance_to_the_router(self, dim, alpha):
        beta, rho, rho12 = self._pair(dim, alpha)
        mixed = np.eye(dim) / dim
        for p in (alpha**2, 1 - beta**2, 0.5):
            router = p * np.kron(rho, mixed) + (1 - p) * np.kron(mixed, rho)
            block = np.array([[alpha**2 - p, alpha * beta], [alpha * beta, beta**2 - 1 + p]])
            closed = alpha * beta * (dim - 1) / dim**2 + (dim - 1) / (2 * dim) * np.abs(
                np.linalg.eigvalsh(block)
            ).sum()
            assert abs(_trace_distance(rho12, router) - closed) <= 1e-12

    @pytest.mark.parametrize("alpha", (0.3, 0.6, 0.8))
    @pytest.mark.parametrize("dim", (2, 3, 4, 5, 8))
    def test_antisymmetric_weight(self, dim, alpha):
        beta, _, rho12 = self._pair(dim, alpha)
        anti = (np.eye(dim * dim) - _swap(dim)) / 2
        closed = (1 - (alpha**2 + beta**2) / dim - 2 * alpha * beta) / 2
        assert abs(np.trace(anti @ rho12).real - closed) <= 1e-12


def _weyl_weights(program: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Outputs 1 and 2's Weyl weights, indexed [shift a, phase b], from the
    program's amplitude matrix C alone:
    p1[a, b] = |sum_u C[u, u - a] w^-bu|^2 / N and
    p2[a, b] = |sum_u C[-a, u] w^-bu|^2 / N, with w = exp(2 pi i / N)."""
    dim = len(program)
    u = np.arange(dim)
    phase = np.exp(-2j * np.pi * np.outer(u, u) / dim)  # [u, b]
    # rows [a, u] of C[u, u - a] and of C[-a, u]
    p1 = np.abs(program[u, (u - u[:, None]) % dim] @ phase) ** 2 / dim
    p2 = np.abs(program[-u % dim] @ phase) ** 2 / dim
    return p1, p2


def _output3_multiplier(program: np.ndarray) -> np.ndarray:
    """Output 3's Weyl multiplier, indexed [shift a, phase b], from the
    program's amplitude matrix C alone: with K_a(v) = sum_w C[w, v]
    conj(C[w - a, v - 2a]), m3[a, b] = w^ab sum_v K_a(v) w^-bv, with
    w = exp(2 pi i / N)."""
    dim = len(program)
    u = np.arange(dim)
    # rows [a, v] of K_a(v); C[(u - a) % N][:, (u - 2a) % N] is C[w - a, v - 2a]
    kernels = np.array(
        [(program * program[(u - a) % dim][:, (u - 2 * a) % dim].conj()).sum(axis=0) for a in range(dim)]
    )
    phase = np.exp(2j * np.pi * np.outer(u, u) / dim)  # w^ab, and w^bv
    return phase * (kernels @ phase.conj())


class TestInputFreeFidelities:
    """Each clone's fidelity is a Weyl mixture's: F_i(phi) = sum_ab
    p_i[a, b] |<phi|X^a Z^b|phi>|^2, with weights that depend on the program
    alone, and its Haar average is (N p_i[0, 0] + 1)/(N + 1).  Output 3
    multiplies each Weyl operator of the transposed input, so its fidelity
    with phi* is (1/N) sum_ab m3[a, b] |<phi*|X^a Z^b|phi*>|^2."""

    @staticmethod
    def _overlaps(phi: PureState) -> np.ndarray:
        """|<phi|X^a Z^b|phi>|^2, indexed [a, b]."""
        dim = phi.dim
        return np.array(
            [
                [abs(np.vdot(phi.amplitudes, shift_x(dim, a).matrix @ shift_p(dim, b).matrix @ phi.amplitudes)) ** 2
                 for b in range(dim)]
                for a in range(dim)
            ]
        )

    @pytest.mark.parametrize("dim", (3, 5, 6))
    def test_fidelity_is_a_weyl_mixture(self, dim):
        rng = np.random.default_rng(3200 + dim)
        matrix = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        program = PureState((dim, dim), (matrix / np.linalg.norm(matrix)).ravel())
        phi = haar_random_state((dim,), rng)
        out = distribute(phi, program)
        overlaps = self._overlaps(phi)
        for weights, rho in zip(_weyl_weights(program.amplitudes.reshape(dim, dim)), (out.rho1, out.rho2)):
            assert abs(weights.sum() - 1) <= 1e-12
            assert abs(fidelity(rho, phi) - (weights * overlaps).sum()) <= 1e-12

    @pytest.mark.parametrize("dim", (2, 3, 7, 64))
    def test_haar_average_is_the_cloner_fidelity(self, dim):
        p1, _ = _weyl_weights(cloner_program(dim).amplitudes.reshape(dim, dim))
        assert abs((dim * p1[0, 0] + 1) / (dim + 1) - clone_fidelity(dim)) <= 1e-14

    @pytest.mark.parametrize("dim", (3, 4, 5, 6))
    def test_output3_fidelity_is_a_weyl_multiplier(self, dim):
        # odd and even N take different Gram paths in distribute
        rng = np.random.default_rng(3300 + dim)
        matrix = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        matrix /= np.linalg.norm(matrix)
        phi = haar_random_state((dim,), rng)
        conjugate = PureState((dim,), phi.amplitudes.conj())
        rho3 = distribute(phi, PureState((dim, dim), matrix.ravel())).rho3
        m3 = _output3_multiplier(matrix)
        assert abs(m3[0, 0] - 1) <= 1e-12
        assert abs(fidelity(rho3, conjugate) - (m3 * self._overlaps(conjugate)).sum() / dim) <= 1e-12

    @pytest.mark.parametrize("alpha", (0.3, 0.8))
    @pytest.mark.parametrize("dim", (2, 3, 5, 8, 16))
    def test_output3_haar_average(self, dim, alpha):
        # the Haar average of |<phi|W_ab|phi>|^2 is 1 at (0, 0) and 1/(N + 1)
        # elsewhere; the closed form is s3 + e3 of rho3 = s3 rho_in^T + e3 1
        beta = solve_beta(dim, alpha)
        m3 = _output3_multiplier(program_state(dim, alpha, beta).amplitudes.reshape(dim, dim))
        average = (m3[0, 0] + (m3.sum() - m3[0, 0]) / (dim + 1)) / dim
        closed = 2 * alpha * beta / dim + (dim - 2 * alpha * beta) / dim**2
        assert abs(average - closed) <= 1e-14


def _lattice_positions(dim: int) -> np.ndarray:
    """x_k = h k with h = sqrt(2 pi / N) and cyclic labels, k - N for k >= N/2:
    X and Z then displace by h, and the circuit's index arithmetic mod N is
    position arithmetic."""
    k = np.arange(dim)
    return math.sqrt(2 * math.pi / dim) * np.where(k >= dim / 2, k - dim, k)


def _unit(amplitudes) -> np.ndarray:
    amplitudes = np.asarray(amplitudes, dtype=complex).ravel()
    return amplitudes / np.linalg.norm(amplitudes)


class TestContinuousLimitOnTheLattice:
    """Continuous-variable programs sampled on the lattice run through the
    unmodified qudit circuit and give the continuous closed forms."""

    @pytest.mark.parametrize("dim", (64, 65, 256))
    @pytest.mark.parametrize("z", (0j, 3 + 4j))
    def test_gaussian_cloner_program(self, dim, z):
        # C[m, k] ~ exp(-(x_m, x_k) M (x_m, x_k)^T / 2), M the inverse of
        # twice the program's position covariance: exp(-(x_m^2 + (x_k - x_m)^2) / 2)
        x = _lattice_positions(dim)
        m = np.linalg.inv(2 * cloner_program_gaussian().cov[0::2, 0::2])
        pair = np.stack(np.meshgrid(x, x, indexing="ij"))
        form = np.einsum("iab,ij,jab->ab", pair, m, pair)
        program = PureState((dim, dim), _unit(np.exp(-form / 2)))
        x0, p0 = GaussianState.coherent(z).mean
        psi = PureState((dim,), _unit(np.exp(-((x - x0) ** 2) / 2 + 1j * p0 * x)))
        out = distribute(psi, program)
        conjugate = PureState((dim,), psi.amplitudes.conj())
        assert abs(fidelity(out.rho1, psi) - 2 / 3) <= 1e-13
        assert abs(fidelity(out.rho2, psi) - 2 / 3) <= 1e-13
        # the anticlone value of the coherent-state pipeline (c10's 1/2)
        assert abs(fidelity(out.rho3, conjugate) - 1 / 2) <= 1e-13

    @pytest.mark.parametrize("xi, dim", ((0.25, 64), (0.5, 64), (1.0, 256)))
    def test_two_branch_program(self, xi, dim):
        # xi = 0 is left out: its branches coincide, and their lattice
        # overlap rounds above 1
        alpha = 0.7
        x = _lattice_positions(dim)
        xm, xk = np.meshgrid(x, x, indexing="ij")
        entangled = _unit(epr_wavefunction(xi, xm, xk))
        product = _unit(x0_wavefunction(xi, xm) * p0_wavefunction(xi, xk))
        beta = two_branch_beta(alpha, np.vdot(entangled, product).real)
        program = PureState((dim, dim), alpha * entangled + beta * product)
        psi = PureState((dim,), _unit(np.exp(-(x**2) / 2)))
        out = distribute(psi, program)
        closed = [cv_fidelity_asymptotic(xi, alpha, solve_cv_beta(alpha, xi), k) for k in (1, 2)]
        assert abs(fidelity(out.rho1, psi) - closed[0]) <= 1e-13
        assert abs(fidelity(out.rho2, psi) - closed[1]) <= 1e-13
