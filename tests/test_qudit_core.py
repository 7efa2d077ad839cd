import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qidsim.qudit_core import (
    ATOL_CHAIN,
    ATOL_EXACT,
    DensityOperator,
    Operator,
    PureState,
    _check_densities,
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
    negativity,
    p_operator,
    transpose_op,
    x_operator,
)


def brute_force_reduction(state: PureState, keep) -> np.ndarray:
    """Outer product plus explicit index contraction; independent of the
    einsum/moveaxis path used by partial_trace."""
    dims = state.dims
    keep = tuple(sorted(keep))
    traced = [i for i in range(len(dims)) if i not in keep]
    kdims = [dims[i] for i in keep]
    rho_full = np.outer(state.amplitudes, state.amplitudes.conj())
    out = np.zeros((int(np.prod(kdims)), int(np.prod(kdims))), dtype=complex)
    for a in range(rho_full.shape[0]):
        la = np.unravel_index(a, dims)
        for b in range(rho_full.shape[1]):
            lb = np.unravel_index(b, dims)
            if all(la[t] == lb[t] for t in traced):
                ia = np.ravel_multi_index([la[i] for i in keep], kdims)
                ib = np.ravel_multi_index([lb[i] for i in keep], kdims)
                out[ia, ib] += rho_full[a, b]
    return out


def unit_trace_with_min_eigenvalue(lowest: float, dim: int, rng: np.random.Generator) -> np.ndarray:
    """U diag(lowest, ...) U^dag for a random unitary U: Hermitian, unit
    trace, smallest eigenvalue ``lowest``."""
    rest = rng.uniform(0.1, 1.0, dim - 1)
    rest *= (1.0 - lowest) / rest.sum()
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    mat = (q * np.concatenate([[lowest], rest])) @ q.conj().T
    return (mat + mat.conj().T) / 2


class TestFourier:
    def test_qubit_entries(self):
        f = fourier_operator(2).matrix
        assert abs(f[1, 1] - (-1 / np.sqrt(2))) < 1e-12
        assert np.abs(f - np.array([[1, 1], [1, -1]]) / np.sqrt(2)).max() < 1e-12

    def test_qutrit_entry(self):
        f = fourier_operator(3).matrix
        assert abs(f[1, 2] - np.exp(4j * np.pi / 3) / np.sqrt(3)) < 1e-12

    @pytest.mark.parametrize("dim", range(2, 10))
    def test_unitary(self, dim):
        f = fourier_operator(dim).matrix
        assert np.abs(f.conj().T @ f - np.eye(dim)).max() < 1e-12

    def test_momentum_shift_is_cyclic_in_momentum_basis(self):
        # F^dag shift_p(m) F permutes the momentum labels upward by m
        for dim, m in ((3, 1), (5, 2)):
            f = fourier_operator(dim).matrix
            conjugated = f.conj().T @ shift_p(dim, m).matrix @ f
            assert np.abs(conjugated - shift_x(dim, m).matrix).max() < 1e-12


class TestShifts:
    def test_cyclic_wrap(self):
        state = basis_state((3,), (2,))
        shifted = PureState(state.dims, shift_x(3, 1).matrix @ state.amplitudes)
        assert distance_up_to_phase(shifted, basis_state((3,), (0,))) < 1e-12

    def test_full_cycle_is_identity(self):
        for dim in (2, 3, 5, 7):
            assert np.abs(shift_x(dim, dim).matrix - np.eye(dim)).max() < 1e-12
            assert np.abs(shift_p(dim, dim).matrix - np.eye(dim)).max() < 1e-12

    def test_powers(self):
        for dim in (3, 5):
            single = shift_x(dim, 1).matrix
            for n in range(dim):
                assert np.abs(shift_x(dim, n).matrix - np.linalg.matrix_power(single, n)).max() < 1e-12

    def test_qubit_anticommutation(self):
        rx, rp = shift_x(2, 1).matrix, shift_p(2, 1).matrix
        assert np.abs(rx @ rp + rp @ rx).max() < 1e-12

    @pytest.mark.parametrize("dim", range(2, 9))
    def test_weyl_commutation(self, dim):
        # R_p(m) R_x(n) = exp(2 pi i m n / N) R_x(n) R_p(m) for these
        # operator definitions (equivalently R_x R_p carries the conjugate
        # phase); checked elementwise for every shift pair
        for n in range(dim):
            rx = shift_x(dim, n).matrix
            for m in range(dim):
                rp = shift_p(dim, m).matrix
                phase = np.exp(2j * np.pi * m * n / dim)
                assert np.abs(rp @ rx - phase * rx @ rp).max() < 1e-12
                assert np.abs(rx @ rp - np.conj(phase) * rp @ rx).max() < 1e-12

    def test_diagonal_form(self):
        d = 5
        expected = np.diag(np.exp(2j * np.pi * 2 * np.arange(d) / d))
        assert np.abs(shift_p(d, 2).matrix - expected).max() < 1e-12


class TestEntangledBasis:
    def test_qubit_bell_state(self):
        state = entangled_state(2, 0, 0)
        expected = np.array([1, 0, 0, 1]) / np.sqrt(2)
        assert np.abs(state.amplitudes - expected).max() < 1e-12

    def test_orthonormal(self):
        state_a = entangled_state(3, 1, 2)
        state_b = entangled_state(3, 0, 0)
        assert abs(state_a.overlap(state_a) - 1) < 1e-12
        assert abs(state_b.overlap(state_a)) < 1e-12

    @pytest.mark.parametrize("dim", range(2, 9))
    def test_gram_matrix_and_completeness(self, dim):
        states = [entangled_state(dim, m, n) for m in range(dim) for n in range(dim)]
        vecs = np.array([s.amplitudes for s in states])
        gram = vecs.conj() @ vecs.T
        assert np.abs(gram - np.eye(dim * dim)).max() < 1e-12
        projector_sum = vecs.T @ vecs.conj()
        assert np.abs(projector_sum - np.eye(dim * dim)).max() < 1e-12

    def test_generated_by_local_shifts(self):
        # Xi_mn = (1 (x) R_x(n)^dag R_p(m)) Xi_00: the shift acts with the
        # inverse x-displacement on the second register
        for dim in (2, 3, 5):
            base = entangled_state(dim, 0, 0).as_tensor()
            for m in range(dim):
                for n in range(dim):
                    local = shift_x(dim, n).matrix.conj().T @ shift_p(dim, m).matrix
                    generated = PureState((dim, dim), (base @ local.T).ravel())
                    assert distance_up_to_phase(generated, entangled_state(dim, m, n)) < 1e-12

    @pytest.mark.parametrize("dim", (2, 3, 4, 5))
    def test_difference_and_sum_label_support(self, dim):
        # x-basis support sits on (k2 - k3) mod N = n and momentum-basis
        # support on (l2 + l3) mod N = m; the projective form of the
        # simultaneous eigenstate property
        f = fourier_operator(dim).matrix
        for m in range(dim):
            for n in range(dim):
                state = entangled_state(dim, m, n)
                tensor = state.as_tensor()
                k2, k3 = np.meshgrid(np.arange(dim), np.arange(dim), indexing="ij")
                off_support = np.abs(tensor)[(k2 - k3) % dim != n]
                assert off_support.max() < 1e-10
                momentum = f.conj().T @ tensor @ f.conj()
                off_support_p = np.abs(momentum)[(k2 + k3) % dim != m]
                assert off_support_p.max() < 1e-10

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            entangled_state(3, 3, 0)
        with pytest.raises(ValueError):
            entangled_state(3, 0, -1)

    def test_label_operators_exist(self):
        # diag(0..N-1) in each basis: the Fourier operator maps the x-basis
        # labels onto the momentum-like ones
        d = 4
        assert np.abs(x_operator(d) - np.diag(np.arange(d))).max() < 1e-12
        pop = p_operator(d)
        f = fourier_operator(d).matrix
        assert np.abs(f.conj().T @ pop @ f - np.diag(np.arange(d))).max() < 1e-10


class TestPartialTrace:
    def test_entangled_reduces_to_maximally_mixed(self):
        for dim in (2, 3, 5):
            state = entangled_state(dim, 0, 0)
            for reg in (0, 1):
                rho = partial_trace(state, (reg,))
                assert np.abs(rho.matrix - np.eye(dim) / dim).max() < 1e-12

    def test_product_state_factorises(self):
        rng = np.random.default_rng(11)
        a = haar_random_state((3,), rng)
        b = haar_random_state((3,), rng)
        rho = partial_trace(a.tensor(b), (0,))
        assert np.abs(rho.matrix - np.outer(a.amplitudes, a.amplitudes.conj())).max() < 1e-12

    def test_plus_superposition_example(self):
        state = PureState((2, 2), np.array([1, 1, 0, 0]) / np.sqrt(2))
        rho = partial_trace(state, (0,))
        oracle = brute_force_reduction(state, (0,))
        assert np.abs(rho.matrix - np.array([[1, 0], [0, 0]])).max() < 1e-12
        assert np.abs(rho.matrix - oracle).max() < 1e-12

    @pytest.mark.parametrize("dim", (2, 3, 4))
    def test_against_brute_force_on_random_states(self, dim):
        rng = np.random.default_rng(dim)
        for _ in range(4):
            state = haar_random_state((dim,) * 3, rng)
            for keep in ((0,), (1,), (2,), (0, 1), (0, 2), (1, 2)):
                rho = partial_trace(state, keep)
                assert abs(np.trace(rho.matrix) - 1) < 1e-12
                assert np.abs(rho.matrix - brute_force_reduction(state, keep)).max() < 1e-11

    def test_density_operator_input_rejected(self):
        a = haar_random_state((2, 3), np.random.default_rng(5)).amplitudes
        with pytest.raises(TypeError):
            partial_trace(DensityOperator((2, 3), np.outer(a, a.conj())), (0,))

    def test_keep_set_validation(self):
        state = entangled_state(2, 0, 0)
        with pytest.raises(ValueError):
            partial_trace(state, ())
        with pytest.raises(ValueError):
            partial_trace(state, (0, 1))
        with pytest.raises(ValueError):
            partial_trace(state, (2,))


class TestFidelityAndTranspose:
    @pytest.mark.parametrize("scale, expected", ((2.0, 1.0), (-1.0, 0.0), (math.nan, math.nan)))
    def test_fidelity_is_clipped_and_keeps_nan(self, scale, expected):
        # <0|rho|0> = scale for rho = scale |0><0|, wrapped without checks
        rho = DensityOperator._checked((2,), np.diag([scale, 0.0]).astype(complex))
        got = fidelity(rho, basis_state((2,), (0,)))
        assert type(got) is float
        assert got == expected or (math.isnan(got) and math.isnan(expected))

    def test_self_fidelity(self):
        psi = haar_random_state((4,), np.random.default_rng(0))
        rho = DensityOperator((4,), np.outer(psi.amplitudes, psi.amplitudes.conj()))
        assert abs(fidelity(rho, psi) - 1) < 1e-12

    def test_maximally_mixed(self):
        for dim in (2, 3, 7):
            rho = DensityOperator((dim,), np.eye(dim) / dim)
            psi = haar_random_state((dim,), np.random.default_rng(dim))
            assert abs(fidelity(rho, psi) - 1 / dim) < 1e-12

    def test_dimension_mismatch(self):
        rho = DensityOperator((2,), np.eye(2) / 2)
        with pytest.raises(ValueError):
            fidelity(rho, haar_random_state((3,), np.random.default_rng(1)))

    def test_imaginary_part_above_tolerance_is_rejected(self):
        # for the non-Hermitian [[1/2, t], [0, 1/2]], wrapped without checks,
        # and psi = (|0> + i|1>)/sqrt(2), <psi|M|psi> = 1/2 + i t/2
        psi = PureState((2,), np.array([1.0, 1.0j]) / math.sqrt(2))

        def skewed(t):
            return DensityOperator._checked((2,), np.array([[0.5, t], [0.0, 0.5]], dtype=complex))

        assert abs(fidelity(skewed(ATOL_EXACT), psi) - 0.5) < 1e-15
        with pytest.raises(ValueError, match="^fidelity has imaginary part 2.000e-12$"):
            fidelity(skewed(4 * ATOL_EXACT), psi)

    def test_transpose_moves_entries(self):
        mat = np.array([[0.5, 0.5j], [-0.5j, 0.5]])
        rho_t = transpose_op(DensityOperator((2,), mat))
        assert rho_t.matrix[1, 0] == 0.5j
        assert np.abs(transpose_op(rho_t).matrix - mat).max() == 0

    def test_real_density_unchanged(self):
        mat = np.array([[0.75, 0.25], [0.25, 0.25]])
        assert np.abs(transpose_op(DensityOperator((2,), mat)).matrix - mat).max() == 0


class TestStateAndOperatorValidation:
    def test_norm_enforced(self):
        with pytest.raises(ValueError):
            PureState((2,), np.array([1.0, 1.0]))

    def test_non_finite_entries_rejected(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="non-finite"):
                PureState((2,), np.array([bad, 1.0]))
            with pytest.raises(ValueError, match="non-finite"):
                DensityOperator((2,), np.array([[bad, 0.0], [0.0, 0.5]]))

    @pytest.mark.parametrize("n", (1500, 3000))
    def test_uniform_ket_accepted_at_large_n(self, n):
        # n^2 amplitudes of exactly 1/n: np.vdot's running sum of the squares
        # read 1.1e-12 off 1 at n = 1500 and 2.5e-12 at n = 3000
        PureState((n, n), np.full(n * n, 1 / n))

    @pytest.mark.parametrize("n", (64, 1500, 3000))
    def test_ket_off_by_1e_9_rejected_at_every_size(self, n):
        with pytest.raises(ValueError, match=r"not normalised: \|norm - 1\| = 1\.000e-09$"):
            PureState((n, n), np.full(n * n, (1 + 1e-9) / n))

    def test_amplitude_count_must_match_the_registers(self):
        with pytest.raises(ValueError, match="amplitude vector has length 3, expected 4"):
            PureState((2, 2), np.full(3, 1 / math.sqrt(3)))

    def test_dim_is_for_one_register(self):
        psi = haar_random_state((2, 2), np.random.default_rng(0))
        with pytest.raises(ValueError, match="state spans more than one register"):
            psi.dim

    def test_overlap_needs_the_same_registers(self):
        # (4,) and (2, 2) hold as many amplitudes, so only the dims differ
        one = haar_random_state((4,), np.random.default_rng(0))
        two = haar_random_state((2, 2), np.random.default_rng(1))
        with pytest.raises(ValueError, match=r"register mismatch: \(4,\) vs \(2, 2\)"):
            one.overlap(two)

    @pytest.mark.parametrize("cls, matrix", ((DensityOperator, np.eye(2) / 2), (Operator, np.eye(2))))
    def test_matrix_shape_must_match_the_registers(self, cls, matrix):
        # a valid one-qubit matrix, declared over two qubits
        with pytest.raises(ValueError, match=r"matrix shape \(2, 2\) does not match dimension 4"):
            cls((2, 2), matrix)

    def test_phase_invariant_distance(self):
        psi = haar_random_state((3,), np.random.default_rng(3))
        rotated = PureState((3,), np.exp(0.7j) * psi.amplitudes)
        assert distance_up_to_phase(psi, rotated) < 1e-12

    def test_density_validation(self):
        with pytest.raises(ValueError):
            DensityOperator((2,), np.array([[1.0, 0.5], [0.0, 0.0]]))
        with pytest.raises(ValueError):
            DensityOperator((2,), np.eye(2))
        with pytest.raises(ValueError, match="negative eigenvalue"):
            DensityOperator((2,), np.diag([1.5, -0.5]))

    def test_positivity_boundary(self):
        # the tolerance is ATOL_CHAIN = 1e-10 on the smallest eigenvalue
        rng = np.random.default_rng(11)
        DensityOperator((4,), unit_trace_with_min_eigenvalue(-1e-11, 4, rng))
        with pytest.raises(ValueError, match="negative eigenvalue -1.000e-09"):
            DensityOperator((4,), unit_trace_with_min_eigenvalue(-1e-9, 4, rng))
        # exactly at the tolerance the shifted matrix is singular, so the
        # factorisation fails and eigvalsh accepts
        DensityOperator((2,), np.diag([1 + ATOL_CHAIN, -ATOL_CHAIN]))

    def test_non_finite_rejected_before_factorisation(self, monkeypatch):
        def refuse(mat):
            raise AssertionError("cholesky ran")

        monkeypatch.setattr(np.linalg, "cholesky", refuse)
        with pytest.raises(ValueError, match="non-finite"):
            DensityOperator((2,), np.array([[np.nan, 0.0], [0.0, 0.5]]))

    @pytest.mark.parametrize("dim", (2, 5, 64))
    def test_construction_leaves_the_input_alone(self, dim):
        # a complex array is taken without a copy, so a positivity check
        # that shifted its diagonal in place would write the caller's array
        psi = haar_random_state((dim, dim), np.random.default_rng(dim))
        mat = partial_trace(psi, (0,)).matrix.copy()
        before = mat.copy()
        rho = DensityOperator((dim,), mat)
        assert np.array_equal(mat, before)
        assert np.array_equal(rho.matrix, before)

    @settings(max_examples=200, deadline=None)
    @given(
        dim=st.integers(2, 8),
        lowest=st.one_of(
            st.floats(-1.2e-10, -0.8e-10), st.floats(-1e-9, 1e-9), st.floats(-0.5, 0.5)
        ).filter(lambda x: abs(x + ATOL_CHAIN) >= 1e-12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_positivity_rule_matches_smallest_eigenvalue(self, dim, lowest, seed):
        # off the boundary by more than roundoff, the Cholesky-first rule
        # accepts exactly the matrices whose smallest eigenvalue is >= -ATOL_CHAIN
        mat = unit_trace_with_min_eigenvalue(lowest, dim, np.random.default_rng(seed))
        try:
            DensityOperator((dim,), mat)
            accepted = True
        except ValueError as exc:
            assert "negative eigenvalue" in str(exc)
            accepted = False
        assert accepted == (np.linalg.eigvalsh(mat).min() >= -ATOL_CHAIN)

    def test_unitary_check(self):
        with pytest.raises(ValueError):
            Operator((2,), np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_unitary_check_fails_on_nan(self):
        with pytest.raises(ValueError, match="not unitary"):
            Operator((2,), np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_random_states_normalised(self):
        psi = haar_random_state((5, 5), np.random.default_rng(9))
        assert abs(np.linalg.norm(psi.amplitudes) - 1) < 1e-12


NAMES = ("output 1", "output 2", "output 3")


def density_stack(dim: int, seed: int) -> np.ndarray:
    """Three random full-rank density matrices, stacked (3, dim, dim)."""
    rng = np.random.default_rng(seed)
    return np.stack([unit_trace_with_min_eigenvalue(0.05, dim, rng) for _ in range(3)])


class TestCheckDensities:
    def test_accepts_density_matrices_and_writes_nothing(self):
        stack = density_stack(5, 0)
        before = stack.copy()
        _check_densities(stack, positive=(0, 1, 2), names=NAMES)
        assert np.array_equal(stack, before)

    @pytest.mark.parametrize("slot", (0, 1, 2))
    @pytest.mark.parametrize("entry", ((1, 2), (3, 3)))
    @pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf, complex(0, math.inf)))
    def test_non_finite_entry_in_each_slot(self, slot, entry, bad):
        stack = density_stack(4, slot)
        stack[(slot, *entry)] = bad
        with pytest.raises(ValueError, match=f"^output {slot + 1} has non-finite entries$"):
            _check_densities(stack, positive=(2,), names=NAMES)

    @pytest.mark.parametrize("slot", (0, 1, 2))
    def test_non_hermitian_slot(self, slot):
        stack = density_stack(4, slot)
        stack[slot, 0, 1] += 2 * ATOL_CHAIN
        with pytest.raises(ValueError, match=f"^output {slot + 1} is not Hermitian$"):
            _check_densities(stack, positive=(), names=NAMES)

    @pytest.mark.parametrize("slot", (0, 1, 2))
    def test_trace_off(self, slot):
        stack = density_stack(4, slot)
        stack[slot, 2, 2] += 2 * ATOL_CHAIN
        with pytest.raises(ValueError, match=f"^output {slot + 1} has trace .*, expected 1$"):
            _check_densities(stack, positive=(), names=NAMES)

    def test_negative_eigenvalue_fails_only_a_factorised_slot(self):
        stack = density_stack(4, 7)
        stack[1] = unit_trace_with_min_eigenvalue(-1e-3, 4, np.random.default_rng(7))
        # positivity is asked of the listed slots alone
        _check_densities(stack, positive=(0, 2), names=NAMES)
        with pytest.raises(ValueError, match="^output 2 has negative eigenvalue -1.000e-03$"):
            _check_densities(stack, positive=(1,), names=NAMES)

    def test_factorises_the_listed_slots_only(self, monkeypatch):
        factorised = []
        cholesky = np.linalg.cholesky

        def counted(mat):
            factorised.append(mat.copy())
            return cholesky(mat)

        monkeypatch.setattr(np.linalg, "cholesky", counted)
        stack = density_stack(4, 3)
        _check_densities(stack, positive=(2,), names=NAMES)
        assert len(factorised) == 1
        assert np.array_equal(factorised[0], stack[2] + ATOL_CHAIN * np.eye(4))

    def test_one_name_per_slot(self):
        with pytest.raises(ValueError):
            _check_densities(density_stack(3, 0), positive=(), names=NAMES[:2])


class TestNegativity:
    def test_maximally_entangled(self):
        for dim in (2, 3, 4):
            a = entangled_state(dim, 0, 0).amplitudes
            rho = DensityOperator((dim, dim), np.outer(a, a.conj()))
            assert abs(negativity(rho) - (dim - 1) / 2) < 1e-10

    def test_product_state(self):
        rng = np.random.default_rng(2)
        a = haar_random_state((3,), rng).tensor(haar_random_state((3,), rng)).amplitudes
        rho = DensityOperator((3, 3), np.outer(a, a.conj()))
        assert negativity(rho) < 1e-10
