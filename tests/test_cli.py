import argparse
import contextlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qidsim import cli, cv_gaussian, qid_network
from qidsim.cli import DUMP_GRID_MAX, GRID_MAX, XI_MAX, _finish, build_parser, main
from qidsim.qudit_core import DensityOperator, Operator


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = [ln for ln in text.strip().splitlines() if ln]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


class TestClone:
    def test_qubit_row(self, capsys):
        code, out, _ = run_cli(capsys, "clone", "--dim-range", "2:2")
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 1
        assert abs(float(rows[0]["s_closed"]) - 2 / 3) < 1e-12
        assert abs(float(rows[0]["F_closed"]) - 5 / 6) < 1e-12
        assert abs(float(rows[0]["F_simulated"]) - 5 / 6) < 1e-10

    def test_default_is_the_qubit_row(self, capsys):
        assert run_cli(capsys, "clone") == run_cli(capsys, "clone", "--dim-range", "2:2")

    def test_dim_range_table(self, capsys):
        code, out, _ = run_cli(capsys, "clone", "--dim-range", "2:6")
        assert code == 0
        rows = parse_csv(out)
        assert [int(r["N"]) for r in rows] == [2, 3, 4, 5, 6]
        assert abs(float(rows[1]["s_closed"]) - 0.625) < 1e-12
        assert abs(float(rows[1]["F_closed"]) - 0.75) < 1e-12
        fids = [float(r["F_closed"]) for r in rows]
        assert all(a > b > 0.5 for a, b in zip(fids, fids[1:]))

    def test_simulation_columns_filled_past_the_joint_cap(self, capsys):
        # the channel path needs no N^3 joint state, so N = 127, 128 simulate
        code, out, _ = run_cli(capsys, "clone", "--dim-range", "127:128")
        assert code == 0
        rows = parse_csv(out)
        assert [int(r["N"]) for r in rows] == [127, 128]
        for row in rows:
            assert abs(float(row["s_simulated"]) - float(row["s_closed"])) < 1e-10
            assert abs(float(row["F_simulated"]) - float(row["F_closed"])) < 1e-10
            assert float(row["F_closed"]) > 0.5

    def test_deterministic_output_files(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            code, _, _ = run_cli(
                capsys, "clone", "--dim-range", "2:5", "--seed", "42", "--out", str(path)
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "clone", "--dim-range", "3:3", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema_version"] == 1
        assert doc["rows"][0]["N"] == 3


class TestDistribute:
    def test_no_transfer_endpoint(self, capsys):
        code, out, _ = run_cli(capsys, "distribute", "--dim", "3", "--alpha", "1.0")
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["rho1_fidelity"] - 1.0) < 1e-12
        assert doc["max_deviation"] < 1e-10

    def test_full_swap_endpoint(self, capsys):
        code, out, _ = run_cli(capsys, "distribute", "--dim", "3", "--alpha", "0.0")
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["rho2_fidelity"] - 1.0) < 1e-12

    def test_symmetric_point_matches_clone_table(self, capsys):
        alpha = math.sqrt(1.0 / 3.0)
        code, out, _ = run_cli(capsys, "distribute", "--dim", "2", "--alpha", f"{alpha!r}")
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["rho1_fidelity"] - 5 / 6) < 1e-10
        assert abs(doc["rho2_fidelity"] - 5 / 6) < 1e-10

    @pytest.mark.parametrize("dim, alpha", ((2, 0.5), (3, 1.0), (5, 0.0), (7, 0.3), (64, 0.8)))
    def test_predicted_fidelities_are_the_closed_form_scalars(self, capsys, dim, alpha):
        # a pure input's fidelity with s_k rho_in + e_k 1 is s_k + e_k
        code, out, _ = run_cli(capsys, "distribute", "--dim", str(dim), "--alpha", repr(alpha))
        assert code == 0
        predicted = json.loads(out)["predicted"]
        beta = qid_network.solve_beta(dim, alpha)
        coefficients = qid_network._closed_form_coefficients(dim, alpha, beta)
        former = (1.0 - beta**2 * (1.0 - 1.0 / dim), 1.0 - alpha**2 * (1.0 - 1.0 / dim))
        for output, (s, e) in enumerate(coefficients[:2], 1):
            assert predicted[f"rho{output}_fidelity"] == s + e
            assert abs(s + e - former[output - 1]) <= 1e-15

    def test_explicit_amplitudes(self, capsys):
        code, out, _ = run_cli(
            capsys, "distribute", "--dim", "2", "--alpha", "0.5", "--input", "1,0"
        )
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["rho1_fidelity"] - doc["predicted"]["rho1_fidelity"]) < 1e-10

    @pytest.mark.parametrize("spec", ("1e308,1e308,0,0", "1e-320,0,0,0", "0,1.7e308j,-1.7e308,0"))
    def test_extreme_finite_amplitudes(self, capsys, spec):
        # the norm would overflow or underflow without scaling by the
        # largest part first
        code, out, err = run_cli(
            capsys, "distribute", "--dim", "4", "--alpha", "0.5", "--input", spec
        )
        assert code == 0, err
        doc = json.loads(out)
        assert abs(doc["rho1_fidelity"] - doc["predicted"]["rho1_fidelity"]) < 1e-10

    def test_zero_amplitudes(self, capsys):
        code, out, err = run_cli(
            capsys, "distribute", "--dim", "2", "--alpha", "0.5", "--input", "0,-0j"
        )
        assert code == 1
        assert out == ""
        assert err == "error: input spec has zero norm\n"

    def test_malformed_input_spec(self, capsys):
        code, _, err = run_cli(
            capsys, "distribute", "--dim", "2", "--alpha", "0.5", "--input", "1,oops"
        )
        assert code == 1
        assert "malformed" in err

    def test_runs_past_the_tripartite_cap(self, capsys):
        code, out, _ = run_cli(capsys, "distribute", "--dim", "128", "--alpha", "0.4")
        assert code == 0
        doc = json.loads(out)
        assert doc["max_deviation"] <= 1e-10

    @pytest.mark.parametrize("dim", ("255", "256"))
    def test_large_odd_and_even_dimensions(self, capsys, dim):
        # odd and even N read output 3's Gram product differently
        code, out, _ = run_cli(capsys, "distribute", "--dim", dim, "--alpha", "0.4")
        assert code == 0
        assert json.loads(out)["max_deviation"] <= 1e-10


    def test_gate_builds_no_reference_density_operators(self, monkeypatch, capsys):
        # the three simulated outputs are checked in one stack, output 3 alone
        # factorised, and the gate builds no reference operator
        checked, built = [], []
        check = qid_network._check_densities
        validate = DensityOperator.__init__

        def counted_check(stack, positive, names, scratch=None):
            checked.append((stack.shape, tuple(positive), getattr(scratch, "shape", None)))
            check(stack, positive, names, scratch)

        def counted(self, *args, **kwargs):
            built.append(args[0])
            validate(self, *args, **kwargs)

        monkeypatch.setattr(qid_network, "_check_densities", counted_check)
        monkeypatch.setattr(DensityOperator, "__init__", counted)
        code, _, _ = run_cli(capsys, "distribute", "--dim", "8", "--alpha", "0.4")
        assert code == 0
        assert checked == [((3, 8, 8), (2,), (8, 8))]
        assert built == []

    @pytest.mark.parametrize("output", (0, 1, 2))
    def test_gate_catches_a_deviating_output(self, monkeypatch, capsys, output):
        # the identity's coefficient e_k off by 1e-9 moves every diagonal entry
        # of the reference by exactly that much
        exact = qid_network._closed_form_coefficients

        def shifted(*args):
            coefficients = list(exact(*args))
            s, e = coefficients[output]
            coefficients[output] = (s, e + 1e-9)
            return tuple(coefficients)

        monkeypatch.setattr(qid_network, "_closed_form_coefficients", shifted)
        code, out, err = run_cli(capsys, "distribute", "--dim", "8", "--alpha", "0.4")
        assert code == 1
        assert json.loads(out)["max_deviation"] > 1e-10
        assert err.startswith("error: simulation deviates from the closed form by 1.0")


    def test_uncertified_weights_end_in_one_error_line(self, monkeypatch, capsys):
        build = qid_network.program_state

        def corrupted(*args):
            ket = build(*args)
            ket.amplitudes[0] = math.nan
            return ket

        monkeypatch.setattr(qid_network, "program_state", corrupted)
        code, out, err = run_cli(capsys, "distribute", "--dim", "4", "--alpha", "0.4")
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("error: output 1 Weyl weights are not a probability distribution")

    def test_non_positive_output_3_ends_in_one_error_line(self, monkeypatch, capsys):
        # the kernel K_0 = (1.5, -0.5, 0, 0), at [v, 0], sends |0> to
        # diag(1.5, -0.5, 0, 0)
        def kernels(coeffs, out, spare):
            out[0] = 0.0
            out[0, :2, 0] = 1.5, -0.5
            return out[0]

        monkeypatch.setattr(qid_network, "_third_output_kernels", kernels)
        code, out, err = run_cli(
            capsys, "distribute", "--dim", "4", "--alpha", "0.4", "--input", "1,0,0,0"
        )
        assert code == 1
        assert out == ""
        assert err == "error: output 3 has negative eigenvalue -5.000e-01\n"


class TestCovariance:
    def test_qubit(self, capsys):
        code, out, _ = run_cli(capsys, "covariance", "--dim", "2", "--trials", "10")
        assert code == 0
        doc = json.loads(out)
        assert doc["max_deviation"] < 1e-10

    def test_dim_five(self, capsys):
        code, out, _ = run_cli(capsys, "covariance", "--dim", "5", "--trials", "5")
        assert code == 0
        assert json.loads(out)["max_deviation"] < 1e-10

    def test_one_unshifted_run_per_trial_and_no_dense_products(self, capsys, monkeypatch):
        # a trial runs the distributor once unshifted and once per (n, m)
        # pair, and shifts by index: it builds no dense Operator at all
        exact, calls = qid_network.distribute, []

        def counted(psi, program):
            calls.append(psi.dim)
            return exact(psi, program)

        def no_operators(self, *args, **kwargs):
            raise AssertionError("dense Operator built")

        monkeypatch.setattr(qid_network, "distribute", counted)
        monkeypatch.setattr(Operator, "__init__", no_operators)
        code, out, err = run_cli(capsys, "covariance", "--dim", "3", "--trials", "2")
        assert (code, err) == (0, "")
        assert json.loads(out)["max_deviation"] <= 1e-15
        assert calls == [3] * 2 * (9 + 1)


class TestCv:
    def test_kernel_norm_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "cv", "--xi", "0,1", "--grid", "256", "--format", "csv"
        )
        assert code == 0
        rows = parse_csv(out)
        zero_row = rows[0]
        assert abs(float(zero_row["k3_norm"]) - 2.0) < 1e-6
        for row in rows:
            assert abs(float(row["k1_residual"])) < 1e-6
            assert abs(float(row["k2_residual"])) < 1e-6
            assert abs(float(row["k3_residual"])) < 1e-6
        assert rows[0]["method"] == "grid"

    def test_asymptotic_rows_trend_to_alpha_squared(self, capsys):
        code, out, _ = run_cli(capsys, "cv", "--xi", "4,6,8", "--alpha", "0.6")
        assert code == 0
        rows = parse_csv(out)
        assert all(r["method"] == "asymptotic" for r in rows)
        gaps = [abs(float(r["F1"]) - 0.36) for r in rows]
        assert gaps == sorted(gaps, reverse=True)
        assert gaps[-1] < 1e-4

    def test_grid_fidelities_pinned(self, capsys):
        # values printed by the per-kernel three-convolution path this
        # fused one replaced
        code, out, _ = run_cli(capsys, "cv", "--xi", "0.5,3", "--grid", "512")
        assert code == 0
        rows = parse_csv(out)
        pinned = {
            "0.5": (0.65438684215842147, 0.67958647036622333),
            "3": (0.50812337319640166, 0.50428128630708646),
        }
        assert [r["xi"] for r in rows] == list(pinned)
        for row in rows:
            f1, f2 = pinned[row["xi"]]
            assert abs(float(row["F1"]) - f1) < 1e-12
            assert abs(float(row["F2"]) - f2) < 1e-12

    def test_wigner_dump(self, tmp_path, capsys):
        stem = tmp_path / "wig"
        code, _, _ = run_cli(
            capsys,
            "cv", "--xi", "0.5", "--grid", "128",
            "--dump-wigner", str(stem), "--format", "json",
        )
        assert code == 0
        dumped = json.loads((tmp_path / "wig_xi0.5.json").read_text())
        assert dumped["nx"] == 128
        assert len(dumped["values"]) == 128 * 128
        # the dumped function integrates to the program normalisation
        total = (
            sum(dumped["values"])
            * ((dumped["x_max"] - dumped["x_min"]) / (dumped["nx"] - 1)) ** 2
            / (2 * math.pi)
        )
        assert abs(total - 1.0) < 1e-3

    @pytest.mark.parametrize("dump, forward, inverse", ((False, 0, 0), (True, 2, 2)))
    def test_grid_rows_take_no_2d_fft(self, tmp_path, monkeypatch, capsys, dump, forward, inverse):
        # F1, F2 and the output masses come from 1-D transforms of the
        # input's two factors; only --dump-wigner builds the output-1 grid,
        # by one rfft2/irfft2 pair per grid xi (xi = 4 is closed form)
        calls = {"rfft2": 0, "irfft2": 0}

        def counted(name):
            fft = getattr(cv_gaussian, name)

            def call(*args, **kwargs):
                calls[name] += 1
                return fft(*args, **kwargs)

            return call

        for name in calls:
            monkeypatch.setattr(cv_gaussian, name, counted(name))
        argv = ["cv", "--xi", "0.5,1,4", "--grid", "256"]
        if dump:
            argv += ["--dump-wigner", str(tmp_path / "w")]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert [r["method"] for r in parse_csv(out)] == ["grid", "grid", "asymptotic"]
        assert calls == {"rfft2": forward, "irfft2": inverse}

    @staticmethod
    def _ffts_per_grid_row(monkeypatch, capsys):
        """FFT calls made inside each grid row of ``cv --xi 0.5,1,4 --grid
        256``, and all FFT calls of the command."""
        calls = {"fft": 0, "ifft": 0, "rfft": 0}
        per_row = []

        def counted(name):
            fft = getattr(cv_gaussian, name)

            def call(*args, **kwargs):
                calls[name] += 1
                return fft(*args, **kwargs)

            return call

        def row(*args, **kwargs):
            before = sum(calls.values())
            result = overlaps(*args, **kwargs)
            per_row.append(sum(calls.values()) - before)
            return result

        for name in calls:
            monkeypatch.setattr(cv_gaussian, name, counted(name))
        overlaps = cv_gaussian.output_overlaps
        monkeypatch.setattr(cv_gaussian, "output_overlaps", row)
        code, out, _ = run_cli(capsys, "cv", "--xi", "0.5,1,4", "--grid", "256")
        assert code == 0
        assert [r["method"] for r in parse_csv(out)] == ["grid", "grid", "asymptotic"]
        return per_row, sum(calls.values())

    def test_grid_rows_take_at_most_four_ffts(self, monkeypatch, capsys):
        # a grid row is one rfft for both axes and one forward and one inverse
        # FFT for both outputs' chirp-z sums; the closed-form row (xi = 4)
        # takes none, so every call falls inside a grid row
        per_row, total = self._ffts_per_grid_row(monkeypatch, capsys)
        assert len(per_row) == 2 and max(per_row) <= 4
        assert total == sum(per_row)

    def test_square_grid_rows_take_three_ffts(self, monkeypatch, capsys):
        # cv's lattice is square, so one rfft of the stacked (u, v,
        # indicator) rows serves both axes, beside the chirp-z pair
        per_row, total = self._ffts_per_grid_row(monkeypatch, capsys)
        assert per_row == [3, 3]
        assert total == sum(per_row) == 6

    def test_vacuum_is_built_once_per_process(self, monkeypatch, capsys):
        # the input is built and validated once, not per command or row, and
        # its arrays are read-only, so no command changes it for the next
        built = []
        init = cv_gaussian.GaussianState.__post_init__

        def counted(state):
            built.append(state)
            init(state)

        monkeypatch.setattr(cv_gaussian.GaussianState, "__post_init__", counted)
        cli._vacuum.cache_clear()
        for xis in ("0.5,1", "3"):
            assert run_cli(capsys, "cv", "--xi", xis)[0] == 0
        (state,) = built
        assert not (state.mean.flags.writeable or state.cov.flags.writeable)
        with pytest.raises(ValueError, match="read-only"):
            state.cov[0, 0] = 1.0

    def test_calls_no_linalg_function(self, monkeypatch, capsys):
        # the one-mode vacuum is validated in closed form, so a cv run pages
        # in no LAPACK; every numpy.linalg solver the library could reach raises
        def refuse(*args, **kwargs):
            raise AssertionError("numpy.linalg called")

        for name in ("eigvalsh", "eigh", "eig", "eigvals", "cholesky", "solve", "inv",
                     "det", "slogdet", "svd", "qr", "lstsq", "pinv", "norm"):
            monkeypatch.setattr(np.linalg, name, refuse)
        cli._vacuum.cache_clear()
        code, out, err = run_cli(capsys, "cv", "--xi", "0.5,3", "--grid", "512")
        assert (code, err) == (0, "")
        assert len(parse_csv(out)) == 2

    @pytest.mark.parametrize("xi", (0.0, 0.5, 3.0, 177.6, XI_MAX))
    def test_kernel_norms_match_each_kernels_rule(self, capsys, xi):
        # each printed norm equals the trapezoid rule on its kernel alone,
        # over +-12 sigma of that kernel, bit for bit
        code, out, err = run_cli(capsys, "cv", "--xi", str(xi))
        assert (code, err) == (0, "")
        (row,) = parse_csv(out)
        half = cli.KERNEL_NORM_HALF_NODES
        nodes = np.arange(-half, half + 1)
        for which in (1, 2, 3):
            h = 12 * math.sqrt(cv_gaussian._kernel_form(which, xi, 1)[1]) / half
            k = cv_gaussian.kernel_eval(which, xi, 0.0, h * nodes)
            expected = float(h * (k.sum() - (k[0] + k[-1]) / 2) / math.sqrt(2 * np.pi))
            assert float(row[f"k{which}_norm"]) == expected

    def test_warm_op_peak_memory(self, capsys):
        # the chirp-z sums of both outputs share one in-place buffer; a
        # second buffer per transform, or numpy buffering a 3-D strided
        # product, lifts the peak past the bound
        argv = ["cv", "--xi", "0.5,3", "--grid", "512"]
        assert run_cli(capsys, *argv)[0] == 0
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert code == 0
        assert peak < 300_000

    def test_kernel_norm_gate_catches_a_wide_kernel(self, monkeypatch, capsys):
        # a kernel 1% too wide integrates to 1.01 times its weight
        exact = cv_gaussian.kernel_eval

        def too_wide(which, xi, xbar, eta, output=1):
            return exact(which, xi, xbar, np.asarray(eta) / 1.01, output=output)

        monkeypatch.setattr(cv_gaussian, "kernel_eval", too_wide)
        code, out, err = run_cli(capsys, "cv", "--xi", "0.5", "--grid", "128")
        assert code == 1
        assert err.startswith("error: kernel normalisation residual")
        (row,) = parse_csv(out)
        assert all(abs(float(row[f"k{k}_residual"])) > 1e-6 for k in (1, 2, 3))

    def test_kernel_norm_gate_catches_a_nan_kernel(self, monkeypatch, capsys):
        # a cross kernel that is NaN at its peak eta = 0; the rule always
        # samples that node
        exact = cv_gaussian.kernel_eval

        def nan_at_peak(which, xi, xbar, eta, output=1):
            k = exact(which, xi, xbar, eta, output=output)
            return np.where(np.asarray(eta) == 0, np.nan, k) if which == 3 else k

        monkeypatch.setattr(cv_gaussian, "kernel_eval", nan_at_peak)
        code, out, err = run_cli(capsys, "cv", "--xi", "0.5", "--grid", "128")
        assert code == 1
        assert err == "error: kernel normalisation residual at xi=0.5 is nan (tolerance 1e-06)\n"
        (row,) = parse_csv(out)
        assert row["k3_norm"] == "nan"

    def test_far_squeezing_row_passes(self, capsys):
        # e^{4 xi} overflows at xi = 177.6, but no kernel form squares e^{2 xi}
        code, out, err = run_cli(capsys, "cv", "--xi", "177.6")
        assert (code, err) == (0, "")
        (row,) = parse_csv(out)
        assert row["method"] == "asymptotic"
        assert all(abs(float(row[f"k{k}_residual"])) < 1e-15 for k in (1, 2, 3))
        assert abs(float(row["F1"]) - 0.5) < 1e-15 and abs(float(row["F2"]) - 0.5) < 1e-15

    def test_largest_sampled_squeezing_passes(self, capsys):
        # the kernel-norm rule's outermost node, squared, is still finite
        code, out, err = run_cli(capsys, "cv", "--xi", str(XI_MAX))
        assert (code, err) == (0, "")
        (row,) = parse_csv(out)
        assert all(abs(float(row[f"k{k}_residual"])) < 1e-15 for k in (1, 2, 3))
        assert abs(float(row["F1"]) - 0.5) < 1e-15 and abs(float(row["F2"]) - 0.5) < 1e-15

    @pytest.mark.parametrize("xi", ("352.76", "353", "354.8"))
    def test_squeezing_past_the_kernel_norm_rule(self, capsys, xi):
        # 353 overflowed the rule's square, 354.8 printed F2 = nan: both end
        # in one error line naming xi, before any row is computed
        code, out, err = run_cli(capsys, "cv", "--xi", f"0.5,{xi}")
        assert (code, out) == (1, "")
        assert err == (
            f"error: squeezing xi={float(xi)} overflows the kernel-norm rule, "
            f"which samples xi <= {XI_MAX}\n"
        )

@pytest.mark.parametrize(
    "argv",
    (
        ["cv", "--xi", "0.5", "--grid", "128"],
        ["distribute", "--dim", "8", "--alpha", "0.4"],
        ["clone", "--dim-range", "2:4"],
    ),
    ids=lambda argv: argv[0],
)
def test_cold_start_imports_no_scipy(argv):
    # the library runs on numpy alone; scipy is a test-side oracle
    src = Path(__file__).resolve().parents[1] / "src"
    script = (
        "import sys\n"
        "from qidsim.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "scipy = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "sys.exit(code or (scipy and f'imported {len(scipy)} scipy modules, {scipy[:3]} first') or 0)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", script, *argv], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


class TestCoherentClone:
    def test_reports_values_and_flags_target_mismatch(self, capsys):
        # the clone value is 2/3 on the nose; the 1/8 anticlone target is
        # unreachable for this pipeline (true value 1/2), so the command
        # reports and exits nonzero
        code, out, err = run_cli(capsys, "coherent-clone")
        assert code == 1
        doc = json.loads(out)
        assert abs(doc["clone_fidelity"] - 2 / 3) < 1e-12
        assert abs(doc["anticlone_fidelity"] - 0.5) < 1e-12
        assert "anticlone" in err

    def test_names_the_clone_that_missed(self, monkeypatch, capsys):
        # only clone 2's fidelity is off 2/3; the error line names clone 2
        # and its distance from 2/3, not clone 1's fidelity
        exact, calls = cv_gaussian.gaussian_fidelity, []

        def second_off(state, target):
            calls.append(state)
            return exact(state, target) + (0.01 if len(calls) == 2 else 0.0)

        monkeypatch.setattr(cv_gaussian, "gaussian_fidelity", second_off)
        code, out, err = run_cli(capsys, "coherent-clone")
        assert code == 1
        doc = json.loads(out)
        assert abs(doc["clone_fidelity"] - 2 / 3) < 1e-12
        assert abs(doc["clone2_fidelity"] - 2 / 3 - 0.01) < 1e-12
        assert err == "error: clone 2 fidelity differs from 2/3 by 1.000e-02 (tolerance 1e-09)\n"

    def test_displacement_invariance(self, capsys):
        _, out_zero, _ = run_cli(capsys, "coherent-clone")
        _, out_disp, _ = run_cli(capsys, "coherent-clone", "--displacement", "3+4j")
        a, b = json.loads(out_zero), json.loads(out_disp)
        assert abs(a["clone_fidelity"] - b["clone_fidelity"]) < 1e-9
        assert abs(a["anticlone_fidelity"] - b["anticlone_fidelity"]) < 1e-9


class TestOutputHandling:
    def test_env_var_output_dir(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("QIDSIM_OUTPUT_DIR", str(tmp_path))
        code, out, _ = run_cli(capsys, "clone", "--dim-range", "2:2", "--out", "result.csv")
        assert code == 0
        assert out == ""
        assert (tmp_path / "result.csv").exists()

    def test_absolute_path_ignores_env(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("QIDSIM_OUTPUT_DIR", str(tmp_path / "unused"))
        target = tmp_path / "direct.json"
        code, _, _ = run_cli(
            capsys, "clone", "--dim-range", "2:2", "--format", "json", "--out", str(target)
        )
        assert code == 0
        assert json.loads(target.read_text())["schema_version"] == 1

    def test_out_naming_a_directory(self, tmp_path, capsys):
        code, out, err = run_cli(capsys, "clone", "--dim-range", "2:2", "--out", str(tmp_path))
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: cannot write {tmp_path}: ")
        assert err.count("\n") == 1

    def test_wigner_dump_below_a_regular_file(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code, out, err = run_cli(
            capsys, "cv", "--xi", "0.5", "--grid", "64", "--dump-wigner", str(blocker / "w")
        )
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: cannot write {blocker / 'w_xi0.5.csv'}: ")
        assert err.count("\n") == 1

    def test_unknown_dimension_errors(self, capsys):
        code, _, err = run_cli(capsys, "clone", "--dim-range", "1:1")
        assert code == 1
        assert "dimension" in err


def _cli_configs():
    seeds = st.integers(0, 2**32 - 1).map(str)
    alphas = st.floats(0.0, 1.0).map(repr)
    clone = st.builds(
        lambda dim, seed: ("clone", "--dim-range", f"{dim}:{dim}", "--seed", seed),
        st.integers(2, 16), seeds,
    )
    distribute = st.builds(
        lambda dim, alpha, seed: (
            "distribute", "--dim", str(dim), "--alpha", alpha, "--input", f"random:{seed}"
        ),
        st.integers(2, 16), alphas, seeds,
    )
    cv = st.builds(
        lambda xis, alpha, grid, fmt: (
            "cv", "--xi", ",".join(map(repr, xis)), "--alpha", alpha,
            "--grid", str(grid), "--format", fmt,
        ),
        st.lists(st.floats(0.0, 3.0), min_size=1, max_size=2), alphas,
        st.integers(2, 128), st.sampled_from(("csv", "json")),
    )
    return st.one_of(clone, distribute, cv)


@settings(max_examples=20, deadline=None)
@given(_cli_configs())
def test_identical_config_gives_identical_stdout(argv):
    runs = []
    for _ in range(2):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
        runs.append((code, out.getvalue(), err.getvalue()))
    assert runs[0] == runs[1]
    assert runs[0][1]


class TestBadInput:
    """Bad input is rejected where it enters: an error line and exit 1."""

    def test_non_finite_squeezing(self, capsys):
        for xi in ("nan", "inf"):
            code, out, err = run_cli(capsys, "cv", "--xi", xi)
            assert code == 1
            assert out == ""
            assert err.startswith("error:") and "squeezing" in err

    @pytest.mark.parametrize("xis", ("0.5,nan", "0.5,inf", "0.5,-1"))
    def test_bad_squeezing_writes_nothing(self, tmp_path, monkeypatch, capsys, xis):
        # every xi is checked before the first row: a grid-safe xi before the
        # bad one dumps no Wigner grid and prints no row
        monkeypatch.setenv("QIDSIM_OUTPUT_DIR", str(tmp_path))
        code, out, err = run_cli(capsys, "cv", "--xi", xis, "--grid", "64", "--dump-wigner", "w")
        assert (code, out) == (1, "")
        assert err.startswith("error: squeezing must be finite and nonnegative")
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_empty_dump_stem(self, tmp_path, monkeypatch, capsys):
        # an empty stem is not an absent --dump-wigner: it is rejected before
        # any row is printed or any grid written
        monkeypatch.setenv("QIDSIM_OUTPUT_DIR", str(tmp_path))
        code, out, err = run_cli(capsys, "cv", "--xi", "1", "--grid", "256", "--dump-wigner", "")
        assert (code, out) == (1, "")
        assert err == "error: --dump-wigner expects a non-empty file stem, got ''\n"
        assert list(tmp_path.iterdir()) == []

    def test_overflowing_squeezing(self, capsys):
        code, out, err = run_cli(capsys, "cv", "--xi", "400")
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "overflow" in err

    def test_covariance_needs_a_trial(self, capsys):
        for trials in ("0", "-1"):
            code, out, err = run_cli(capsys, "covariance", "--dim", "2", "--trials", trials)
            assert code == 1
            assert out == ""
            assert err.startswith("error:") and "--trials" in err

    def test_non_finite_displacement(self, capsys):
        for z in ("nan", "inf", "1+nanj"):
            code, out, err = run_cli(capsys, "coherent-clone", "--displacement", z)
            assert code == 1
            assert out == ""
            assert err.startswith("error:") and "displacement" in err

    @pytest.mark.parametrize(
        "extra, cap", (([], GRID_MAX), (["--dump-wigner", "w"], DUMP_GRID_MAX))
    )
    def test_grid_above_its_cap(self, monkeypatch, tmp_path, capsys, extra, cap):
        # the cap is checked before any grid is sampled: sampling raises
        # here, so a missing check fails the test instead of allocating
        class Sampled(Exception):
            pass

        def sampled(*args, **kwargs):
            raise Sampled

        monkeypatch.setattr(cv_gaussian.GaussianState, "wigner_factors", sampled)
        monkeypatch.setattr(cv_gaussian, "output_wigner", sampled)
        monkeypatch.setenv("QIDSIM_OUTPUT_DIR", str(tmp_path))
        for grid in (cap + 1, 100_000_000):
            code, out, err = run_cli(capsys, "cv", "--xi", "0.5", "--grid", str(grid), *extra)
            assert (code, out) == (1, "")
            also = " with --dump-wigner" if extra else ""
            assert err == f"error: --grid must be at most {cap}{also}, got {grid}\n"
        # the cap itself passes the check and reaches the sampling
        with pytest.raises(Sampled):
            main(["cv", "--xi", "0.5", "--grid", str(cap), *extra])
        assert list(tmp_path.iterdir()) == []

    def test_unresolving_grid(self, capsys):
        # the rows are still written, but a grid that loses Riemann mass
        # gives wrong fidelities (true F1 is 0.654 at xi 0.5, 0.508 at xi 3)
        for xi, grid in (("0.5", "8"), ("3", "64"), ("3", "256")):
            code, out, err = run_cli(capsys, "cv", "--xi", xi, "--grid", grid)
            assert code == 1
            assert len(parse_csv(out)) == 1
            assert err.startswith("error:")
            assert f"--grid {grid}" in err and f"xi={float(xi)}" in err and "mass" in err

    def test_grid_below_two_points(self, capsys):
        for grid in ("-4", "0", "1"):
            code, out, err = run_cli(capsys, "cv", "--xi", "0.5", "--grid", grid)
            assert code == 1
            assert out == ""
            assert err.startswith("error:") and err.count("\n") == 1
            assert "--grid" in err

    def test_grid_fidelity_off_the_closed_form(self, capsys):
        # the mass gate passes here (mass error 5.5e-9), but the step is
        # about the vacuum input's width and F1 sits 7.3e-5 below the
        # closed form
        code, out, err = run_cli(capsys, "cv", "--xi", "2.75", "--grid", "256")
        assert code == 1
        assert len(parse_csv(out)) == 1
        assert err.startswith("error:")
        assert "--grid 256" in err and "xi=2.75" in err and "closed form" in err

    @pytest.mark.parametrize("xis, grid, kind", (
        (("0.5", "1"), "16", "mass"),
        (("2.75", "3"), "256", "closed form"),
    ))
    def test_first_failing_row_names_the_failure(self, capsys, xis, grid, kind):
        # each row fails on its own (xi 3 at --grid 256 by its mass); run
        # together, both rows are written and the first one's failure is named
        singles = []
        for xi in xis:
            code, out, _ = run_cli(capsys, "cv", "--xi", xi, "--grid", grid)
            assert code == 1
            singles += parse_csv(out)
        code, out, err = run_cli(capsys, "cv", "--xi", ",".join(xis), "--grid", grid)
        assert code == 1
        assert parse_csv(out) == singles
        assert err.startswith("error:") and err.count("\n") == 1
        assert f"xi={float(xis[0])}" in err and kind in err
        assert f"xi={float(xis[1])}" not in err

    @pytest.mark.parametrize("argv", (
        ("distribute", "--dim", "3000000", "--alpha", "0.3"),
        ("clone", "--dim-range", "3000000:3000000"),
        ("covariance", "--dim", "3000000", "--trials", "1"),
    ))
    def test_out_of_memory_sizes(self, monkeypatch, capsys, argv):
        # the N^2 program ket asks for 131 TiB, beyond a 47-bit address
        # space, so numpy refuses it at once; it is built before the
        # N-amplitude input, which is never drawn
        def refuse(*args):
            raise AssertionError("input drawn")

        monkeypatch.setattr(cli, "haar_random_state", refuse)
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: out of memory:") and err.count("\n") == 1
        assert "TiB" in err

    def test_non_finite_input_amplitudes(self, capsys):
        for spec in ("nan,1", "inf,1"):
            code, out, err = run_cli(
                capsys, "distribute", "--dim", "2", "--alpha", "0.5", "--input", spec
            )
            assert code == 1
            assert out == ""
            assert err.startswith("error:") and err.count("\n") == 1
            assert repr(spec) in err and "non-finite" in err

    @pytest.mark.parametrize(
        "argv, option, value",
        (
            (("cv", "--xi", ","), "--xi", ","),
            (("clone", "--dim-range", "a:b"), "--dim-range", "a:b"),
            (("clone", "--dim-range", "3"), "--dim-range", "3"),
            (("clone", "--dim-range", "5:2"), "--dim-range", "5:2"),
            (("distribute", "--dim", "3", "--alpha", "0.5", "--input", "random:x"),
             "--input", "random:x"),
            (("distribute", "--dim", "3", "--alpha", "0.5", "--input", "random:-1"),
             "--input", "random:-1"),
            (("clone", "--seed", "-1"), "--seed", "-1"),
            (("distribute", "--dim", "3", "--alpha", "0.5", "--input", "random7"),
             "--input", "random7"),
            (("distribute", "--dim", "3", "--alpha", "0.5", "--input", "randomly"),
             "--input", "randomly"),
            (("distribute", "--dim", "3", "--alpha", "0.5", "--input", "random:"),
             "--input", "random:"),
            # the default is random:0; a bare random is not a second spelling of it
            (("distribute", "--dim", "3", "--alpha", "0.5", "--input", "random"),
             "--input", "random"),
        ),
    )
    def test_parse_errors_name_the_option(self, capsys, argv, option, value):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {option} expects") and err.count("\n") == 1
        assert repr(value) in err

    @pytest.mark.parametrize(
        "argv, option",
        (
            (("clone", "--seed", "{}"), "--seed"),
            (("covariance", "--dim", "3", "--trials", "1", "--seed", "{}"), "--seed"),
            (("distribute", "--dim", "3", "--alpha", "0.5", "--input", "random:{}"), "--input"),
            (("cv", "--grid", "{}"), "--grid"),
            (("clone", "--dim-range", "2:{}"), "--dim-range"),
            (("distribute", "--dim", "{}", "--alpha", "0.5"), "--dim"),
            (("covariance", "--dim", "3", "--trials", "{}"), "--trials"),
        ),
    )
    def test_integers_past_the_digit_limit_name_the_option(self, capsys, argv, option):
        # int() refuses more than 4300 digits by default; such a value is
        # rejected like any other bad integer, by the line naming its option
        digits = "1" + "0" * 4999
        code, out, err = run_cli(capsys, *(arg.format(digits) for arg in argv))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {option} expects") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        (
            ("distribute", "--dim", "3", "--alpha", "0.5", "--format", "csv"),
            ("covariance", "--dim", "2", "--format", "json"),
            ("coherent-clone", "--format", "json"),
            ("cv", "--seed", "1"),
            ("coherent-clone", "--seed", "1"),
            ("distribute", "--dim", "x", "--alpha", "0.5"),
            ("distribute", "--dim", "3"),
            ("cv", "--format", "xml"),
            # clone has no --dim: one N is --dim-range N:N
            ("clone", "--dim", "3"),
            # --trials is covariance's
            ("clone", "--trials", "5"),
            ("teleport",),
            (),
            # distribute's seed is the one in --input random:<seed>
            ("distribute", "--dim", "3", "--alpha", "0.5", "--seed", "5"),
            # abbreviations of --dim-range, --input, --grid and --dump-wigner
            ("clone", "--dim", "3:3"),
            ("distribute", "--dim", "3", "--alpha", "0.5", "--in", "random:3"),
            ("cv", "--xi", "1", "--g", "256", "--dump", "w"),
        ),
    )
    def test_argparse_rejections_take_the_error_line(self, capsys, argv):
        # options a command does not read, abbreviated options, unparsable
        # values, missing arguments and unknown commands leave like every
        # other bad input
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1



class TestFinish:
    """Every command ends in _finish: write the payload, then check its gates."""

    @staticmethod
    def finish(capsys, gates, **options):
        args = argparse.Namespace(command="covariance", out=None, **options)
        code = _finish(args, {"max_deviation": 0.25}, gates)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_nan_inf_and_excess_fail_in_one_line(self, capsys):
        for value, shown in ((math.nan, "nan"), (math.inf, "inf"), (1e-8, "1.000e-08")):
            code, out, err = self.finish(capsys, [("covariance deviation", value, 1e-9)])
            assert code == 1
            assert json.loads(out)["max_deviation"] == 0.25
            assert err == f"error: covariance deviation {shown} (tolerance 1e-09)\n"

    def test_values_at_or_below_tolerance_pass(self, capsys):
        for value in (1e-9, 1e-10, 0.0, -math.inf):
            code, out, err = self.finish(capsys, [("covariance deviation", value, 1e-9)])
            assert (code, err) == (0, "")
            assert json.loads(out)["command"] == "covariance"

    def test_first_failing_gate_is_named(self, capsys):
        gates = [("first check", 0.0, 1e-9), ("second check", 2.0, 1.0), ("third check", 3.0, 1.0)]
        code, _, err = self.finish(capsys, gates)
        assert code == 1
        assert err == "error: second check 2.000e+00 (tolerance 1)\n"

    @pytest.mark.parametrize("fmt", ("csv", "json"))
    def test_failing_rows_are_written_to_out(self, tmp_path, capsys, fmt):
        path = tmp_path / "rows"
        args = argparse.Namespace(command="cv", out=str(path), format=fmt)
        rows = [{"xi": 0.5, "F1": math.nan}, {"xi": 1.0, "F1": np.float64(0.5)}]
        code = _finish(args, rows, [("F1", math.nan, 1.0)], ["xi", "F1"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err == "error: F1 nan (tolerance 1)\n"
        if fmt == "csv":
            assert path.read_text() == "xi,F1\n0.5,nan\n1,0.5\n"
        else:
            doc = json.loads(path.read_text())
            assert doc["rows"][1] == {"xi": 1.0, "F1": 0.5}
            assert math.isnan(doc["rows"][0]["F1"])


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.floats(), st.sampled_from((math.nan, math.inf, -math.inf, -0.0, 5e-324))))
def test_json_floats_need_no_rounding(x):
    # json.dumps writes a float's shortest round-trip repr, so rounding it
    # through 17 significant digits first would change no byte of any output
    assert json.dumps(x) == json.dumps(float(f"{x:.17g}"))


_WORST_ENTRIES = st.one_of(
    st.floats(),
    st.sampled_from((math.nan, math.inf, -math.inf, -0.0, 0.0)),
    st.floats(allow_nan=True).map(np.float64),
)


@settings(max_examples=500, deadline=None)
@given(st.lists(_WORST_ENTRIES, max_size=8), st.data())
def test_worst_keeps_its_rule(values, data):
    # NaN if any entry is NaN, wherever it sits, else the largest entry with
    # a floor of 0.0: the rule of np.max with initial=0.0
    if values and data.draw(st.booleans()):
        values.insert(data.draw(st.integers(0, len(values))), math.nan)
    got, expected = cli._worst(iter(values)), float(np.max(list(values), initial=0.0))
    assert type(got) is float
    assert got == expected or (math.isnan(got) and math.isnan(expected))


@pytest.mark.parametrize(
    "command, options",
    (
        ("clone", ["--dim-range", "--seed", "--out", "--format"]),
        ("distribute", ["--dim", "--alpha", "--input", "--out"]),
        ("covariance", ["--dim", "--trials", "--seed", "--out"]),
        ("cv", ["--xi", "--alpha", "--grid", "--dump-wigner", "--out", "--format"]),
        ("coherent-clone", ["--displacement", "--out"]),
    ),
)
def test_each_command_takes_only_the_options_it_reads(capsys, command, options):
    with pytest.raises(SystemExit) as done:
        main([command, "--help"])
    assert done.value.code == 0
    listed = [ln.split()[0].rstrip(",") for ln in capsys.readouterr().out.splitlines()
              if ln.startswith("  -")]
    assert listed == ["-h"] + options


def _long_options():
    """Each command's long options but --help, in the order of its --help,
    read from build_parser()."""
    (commands,) = [
        action.choices
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return {
        command: [
            option
            for action in parser._actions
            for option in action.option_strings
            if option.startswith("--") and option != "--help"
        ]
        for command, parser in commands.items()
    }


# a value each option accepts, whichever command it belongs to
_VALID_VALUES = {
    "--dim-range": "2:3",
    "--seed": "1",
    "--out": "result",
    "--format": "json",
    "--dim": "3",
    "--alpha": "0.5",
    "--input": "random:3",
    "--trials": "2",
    "--xi": "0.5",
    "--grid": "64",
    "--dump-wigner": "w",
    "--displacement": "3+4j",
}


def _full_argv(command):
    """The command with each of its long options and the option's value
    from _VALID_VALUES, in the order of its --help."""
    argv = [command]
    for option in _long_options()[command]:
        argv += [option, _VALID_VALUES[option]]
    return argv


@pytest.mark.parametrize("command", sorted(_long_options()))
def test_every_abbreviated_option_takes_the_error_line(tmp_path, monkeypatch, capsys, command):
    # options match by their full names only: each proper prefix of each long
    # option, in an argv that parses with every option spelled in full, is
    # rejected like an unknown option
    monkeypatch.setenv("QIDSIM_OUTPUT_DIR", str(tmp_path))
    options = _long_options()[command]
    argv = _full_argv(command)
    assert build_parser().parse_args(argv).command == command
    for option in options:
        for end in range(3, len(option)):
            prefix = option[:end]
            if prefix in options:
                continue
            abbreviated = [prefix if token == option else token for token in argv]
            code, out, err = run_cli(capsys, *abbreviated)
            assert code == 1, abbreviated
            assert out == "", abbreviated
            assert err.startswith("error: ") and err.count("\n") == 1, abbreviated
    assert list(tmp_path.iterdir()) == []


# spellings of an integer that int() reads but str() never writes
_OTHER_SPELLINGS = ("+3", "03", " 3", "3 ", "1_0", "\u0663", "\uff13", "-0")


def _integer_slots(argv):
    """(index, part) of each integer among argv's option values: a value of
    ASCII digits, or such a part of a value split at ':', as in --dim-range
    A:B and --input random:<seed>."""
    return [
        (at, j)
        for at in range(2, len(argv), 2)
        for j, part in enumerate(argv[at].split(":"))
        if part.isascii() and part.isdigit()
    ]


@pytest.mark.parametrize(
    "command", sorted(c for c in _long_options() if _integer_slots(_full_argv(c)))
)
def test_every_integer_value_has_one_spelling(tmp_path, monkeypatch, capsys, command):
    # an integer value is read only as str(n) writes it: in an argv that
    # runs, each other spelling of one integer, a whole value, a --dim-range
    # bound or the --input seed, is rejected by one error line naming its option
    argv = _full_argv(command)
    monkeypatch.setenv("QIDSIM_OUTPUT_DIR", str(tmp_path / "valid"))
    assert run_cli(capsys, *argv)[0] == 0
    monkeypatch.setenv("QIDSIM_OUTPUT_DIR", str(tmp_path / "respelled"))
    for at, j in _integer_slots(argv):
        parts = argv[at].split(":")
        for text in _OTHER_SPELLINGS:
            parts[j] = text
            respelled = argv[:at] + [":".join(parts)] + argv[at + 1:]
            code, out, err = run_cli(capsys, *respelled)
            assert (code, out) == (1, ""), respelled
            assert err.startswith("error: ") and err.count("\n") == 1, respelled
            assert argv[at - 1] in err, respelled
    assert not (tmp_path / "respelled").exists()


def test_readme_cli_table_lists_each_commands_options():
    # the table and --help together are the whole accepted interface: each
    # command's row names exactly the long options its parser takes
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## CLI", 1)[1].split("```", 1)[0]
    rows = re.findall(r"^\| `([a-z-]+)` \| (.*) \|$", section, flags=re.MULTILINE)
    assert len(rows) == len({command for command, _ in rows})
    table = {command: re.findall(r"`(--[a-z-]+)", options) for command, options in rows}
    assert table == _long_options()


def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys):
    # every documented command runs as written; coherent-clone reports its
    # unreachable 1/8 anticlone target by exiting 1
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [ln for ln in block.splitlines() if ln.startswith("qidsim ")]
    assert len(lines) == 6
    monkeypatch.setenv("QIDSIM_OUTPUT_DIR", str(tmp_path))
    for line in lines:
        argv = shlex.split(line)[1:]
        code, out, err = run_cli(capsys, *argv)
        assert code == (1 if argv[0] == "coherent-clone" else 0), (line, err)
        assert out
