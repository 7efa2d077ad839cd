import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qidsim.qid_network import (
    PermutationGate,
    _third_output_kernels,
    apply_two_register_gate,
    build_qid_unitary,
    classical_distributor_fidelity,
    clone_fidelity,
    cloner_program,
    conditional_add,
    conditional_sub,
    covariance_check,
    distribute,
    output_negativity,
    predicted_outputs,
    program_state,
    qid_by_gate_sequence,
    scaling_factor,
    solve_beta,
)
from qidsim.qudit_core import (
    MAX_TRIPARTITE_DIM,
    PureState,
    entangled_state,
    fidelity,
    fourier_operator,
    haar_random_state,
    partial_trace,
    shift_p,
    shift_x,
)

from helpers import map_triple, third_output_kernels_by_loop


def swap_target_state(psi: PureState) -> PureState:
    """|Psi>_2 |Xi_00>_13 written in register order (1, 2, 3)."""
    d = psi.dim
    amps = np.zeros((d, d, d), dtype=complex)
    for z1 in range(d):
        amps[z1, :, z1] = psi.amplitudes / math.sqrt(d)
    return PureState((d, d, d), amps.ravel())


class TestConditionalShifts:
    def test_add_wraps(self):
        state = PureState.basis((3, 3), (2, 2))
        out = conditional_add(3).apply(state)
        assert out.distance_up_to_phase(PureState.basis((3, 3), (2, 1))) < 1e-12

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

    def test_gate_is_cached_per_dimension_and_read_only(self):
        gate = build_qid_unitary(5)
        assert build_qid_unitary(5) is gate
        assert build_qid_unitary(4) is not gate
        with pytest.raises(ValueError):
            gate.perm[0] = gate.perm[1]

    def test_gate_embedding_validates_registers(self):
        state = haar_random_state((3, 3, 3), np.random.default_rng(0))
        with pytest.raises(ValueError):
            apply_two_register_gate(conditional_add(3), state, control=1, target=1)


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
        assert program_state(d, 1.0, 0.0).ket.distance_up_to_phase(entangled_state(d, 0, 0)) < 1e-12
        p0 = PureState((d,), fourier_operator(d).matrix[:, 0])
        x0 = PureState.basis((d,), (0,))
        assert program_state(d, 0.0, 1.0).ket.distance_up_to_phase(x0.tensor(p0)) < 1e-12

    @pytest.mark.parametrize("dim", (2, 3, 6))
    def test_cloner_program_form(self, dim):
        # symmetric program is sum_m (|x_0> + |x_m>) |x_m> / sqrt(2 (N+1))
        expected = np.zeros((dim, dim), dtype=complex)
        for m in range(dim):
            expected[0, m] += 1
            expected[m, m] += 1
        expected = expected.ravel() / math.sqrt(2 * (dim + 1))
        ket = cloner_program(dim).ket
        assert ket.distance_up_to_phase(PureState((dim, dim), expected)) < 1e-12

    @pytest.mark.parametrize("dim", (2, 3, 8, 64))
    def test_ket_is_bit_identical_to_fourier_column_form(self, dim):
        alpha = 0.3
        beta = solve_beta(dim, alpha)
        amps = alpha * entangled_state(dim, 0, 0).amplitudes + beta * np.kron(
            np.eye(dim, dtype=complex)[0], fourier_operator(dim).matrix[:, 0]
        )
        amps /= np.linalg.norm(amps)
        assert np.array_equal(program_state(dim, alpha, beta).ket.amplitudes, amps)

    def test_constraint_enforced(self):
        with pytest.raises(ValueError):
            program_state(3, 0.9, 0.9)


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

    @pytest.mark.parametrize("dim", (*range(2, 10), 16, 64, 65, 128))
    def test_third_output_kernels_match_loop(self, dim):
        # odd N, N = 0 mod 4 and N = 2 mod 4 read the Gram product differently;
        # a non-normalised complex C exercises every entry
        rng = np.random.default_rng(dim)
        coeffs = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        oracle = third_output_kernels_by_loop(coeffs)
        gap = np.abs(_third_output_kernels(coeffs) - oracle).max()
        assert gap <= 1e-13 * np.abs(oracle).max()

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
        # family too; the shifted input's outputs also match the joint oracle
        n = data.draw(st.integers(0, dim - 1), label="n")
        m = data.draw(st.integers(0, dim - 1), label="m")
        rng = np.random.default_rng(seed)
        psi = haar_random_state((dim,), rng)
        ket = haar_random_state((dim, dim), rng)
        s12 = (shift_x(dim, n) @ shift_p(dim, m)).matrix
        s3 = (shift_x(dim, n) @ shift_p(dim, -m)).matrix
        base = distribute(psi, ket)
        moved = distribute(PureState((dim,), s12 @ psi.amplitudes), ket)
        outputs = zip((moved.rho1, moved.rho2, moved.rho3), (base.rho1, base.rho2, base.rho3))
        for register, ((rho, rho_base), s) in enumerate(zip(outputs, (s12, s12, s3))):
            oracle = partial_trace(moved.joint, (register,)).matrix
            assert np.abs(rho.matrix - s @ rho_base.matrix @ s.conj().T).max() <= 1e-12
            assert np.abs(rho.matrix - oracle).max() <= 1e-12

    def test_clone_fidelity_invariant_under_shifts(self):
        dim = 3
        psi = haar_random_state((dim,), np.random.default_rng(6))
        program = cloner_program(dim)
        base = fidelity(distribute(psi, program).rho1, psi)
        for n in range(dim):
            for m in range(dim):
                op = (shift_x(dim, n) @ shift_p(dim, m)).matrix
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
