"""Command-line experiment runner.

Subcommands reproduce the library's headline numbers (cloning fidelities,
covariance deviations, kernel normalisations, the coherent-state cloner)
and emit machine-readable CSV or JSON.  Identical configuration and seed
produce byte-identical output: all floats are rendered with 17 significant
digits and random inputs are drawn from a seeded generator recorded in the
output.  Every command exits nonzero when an internal consistency check
fails, so the CLI doubles as a CI gate.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import cv_gaussian as cv
from . import qid_network as net
from .qudit_core import PureState, fidelity, haar_random_state

SCHEMA_VERSION = 1
OUTPUT_DIR_ENV = "QIDSIM_OUTPUT_DIR"
# trapezoid nodes of the kernel-norm check on each side of eta = 0: a spacing
# of sigma / 33 over +-12 sigma
KERNEL_NORM_HALF_NODES = 400


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _json_ready(obj):
    """Round floats through 17 significant digits for stable serialisation."""
    if isinstance(obj, float):
        return float(f"{obj:.17g}")
    if isinstance(obj, dict):
        return {k: _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _json_ready(obj.tolist())
    if isinstance(obj, (np.floating, np.integer)):
        return _json_ready(obj.item())
    return obj


def _resolve_out(path: str | None):
    if path is None:
        return None
    p = Path(path)
    base = os.environ.get(OUTPUT_DIR_ENV)
    if base and not p.is_absolute():
        p = Path(base) / p
    return p


def _write(text: str, args) -> None:
    """Send ``text`` to ``--out`` if given, else to stdout."""
    out = _resolve_out(args.out)
    if out is None:
        sys.stdout.write(text)
    else:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text)


def _emit_rows(rows: list[dict], columns: list[str], args) -> None:
    if args.format == "json":
        _emit_doc({"rows": rows}, args)
        return
    lines = [",".join(columns)]
    lines += [",".join(_fmt(row.get(c)) for c in columns) for row in rows]
    _write("\n".join(lines) + "\n", args)


def _emit_doc(doc: dict, args) -> None:
    doc = {"schema_version": SCHEMA_VERSION, "command": args.command, **doc}
    _write(json.dumps(_json_ready(doc), indent=2) + "\n", args)


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def _worst(deviations) -> float:
    """Largest deviation, NaN if any is NaN (the built-in max can drop it)."""
    return float(np.max(list(deviations), initial=0.0))


def _exceeds(value: float, tol: float) -> bool:
    """Gate test: true when ``value`` is above ``tol`` or is NaN."""
    return not (value <= tol)


def _bad_option(option: str, value: str, expected: str) -> ValueError:
    return ValueError(f"{option} expects {expected}, got {value!r}")


def _parse_dims(args) -> list[int]:
    if args.dim_range:
        lo, _, hi = args.dim_range.partition(":")
        try:
            dims = list(range(int(lo), int(hi) + 1))
        except ValueError:
            dims = []  # unparsable bounds get the same error as an empty range
        if not dims:
            raise _bad_option("--dim-range", args.dim_range, "A:B with integers A <= B")
        return dims
    return [args.dim]


def _parse_input_spec(spec: str, dim: int, default_seed: int) -> tuple[PureState, int | None]:
    """`random`, `random:<seed>` or an explicit comma-separated amplitude list."""
    if spec.startswith("random"):
        name, colon, seed_text = spec.partition(":")
        if name != "random" or (colon and not seed_text.isdecimal()):
            raise _bad_option(
                "--input", spec, "random or random:<seed> with a non-negative integer seed"
            )
        seed = int(seed_text) if colon else default_seed
        return haar_random_state((dim,), np.random.default_rng(seed)), seed
    try:
        amps = np.array([complex(tok) for tok in spec.split(",")])
    except ValueError as exc:
        raise ValueError(f"malformed input spec {spec!r}: {exc}") from None
    if amps.size != dim:
        raise ValueError(f"input spec has {amps.size} amplitudes, expected {dim}")
    if not np.isfinite(amps).all():
        raise ValueError(f"input spec {spec!r} has non-finite amplitudes")
    # scale the interleaved real and imaginary parts by the largest one
    # first, so that the norm neither overflows nor underflows for any
    # finite nonzero spec (a complex division by a subnormal would overflow)
    parts = amps.view(float)
    largest = np.abs(parts).max()
    if largest == 0:
        raise ValueError("input spec has zero norm")
    amps = (parts / largest).view(complex)
    return PureState((dim,), amps / np.linalg.norm(amps)), None


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_clone(args) -> int:
    rng = np.random.default_rng(args.seed)
    rows, deviations = [], []
    for dim in _parse_dims(args):
        psi = haar_random_state((dim,), rng)
        f_sim = fidelity(net.distribute(psi, net.cloner_program(dim)).rho1, psi)
        row = {
            "N": dim,
            "s_closed": net.scaling_factor(dim),
            "F_closed": net.clone_fidelity(dim),
            "s_simulated": (f_sim - 1.0 / dim) / (1.0 - 1.0 / dim),
            "F_simulated": f_sim,
        }
        deviations += [
            abs(row["s_simulated"] - row["s_closed"]),
            abs(row["F_simulated"] - row["F_closed"]),
        ]
        rows.append(row)
    _emit_rows(rows, ["N", "s_closed", "s_simulated", "F_closed", "F_simulated"], args)
    worst = _worst(deviations)
    if _exceeds(worst, 1e-10):
        return _fail(f"simulated and closed-form columns disagree by {worst:.3e}")
    return 0


def cmd_distribute(args) -> int:
    dim = args.dim
    psi, seed = _parse_input_spec(args.input, dim, args.seed)
    beta = net.solve_beta(dim, args.alpha)
    program = net.program_state(dim, args.alpha, beta)
    sim = net.distribute(psi, program)
    closed = net.predicted_outputs(dim, args.alpha, beta, psi)
    deviation = _worst(
        float(np.abs(a.matrix - b.matrix).max())
        for a, b in ((sim.rho1, closed.rho1), (sim.rho2, closed.rho2), (sim.rho3, closed.rho3))
    )
    psi_conj = PureState((dim,), psi.amplitudes.conj())
    doc = {
        "dim": dim,
        "alpha": args.alpha,
        "beta": beta,
        "seed": seed,
        "rho1_fidelity": fidelity(sim.rho1, psi),
        "rho2_fidelity": fidelity(sim.rho2, psi),
        "rho3_transpose_fidelity": fidelity(sim.rho3, psi_conj),
        "predicted": {
            "rho1_fidelity": 1.0 - beta**2 * (1.0 - 1.0 / dim),
            "rho2_fidelity": 1.0 - args.alpha**2 * (1.0 - 1.0 / dim),
        },
        "max_deviation": deviation,
    }
    _emit_doc(doc, args)
    if _exceeds(deviation, 1e-10):
        return _fail(f"simulation deviates from the closed form by {deviation:.3e}")
    return 0


def cmd_covariance(args) -> int:
    dim = args.dim
    if args.trials < 1:
        raise ValueError(f"--trials must be at least 1, got {args.trials}")
    rng = np.random.default_rng(args.seed)
    deviations = []
    for _ in range(args.trials):
        psi = haar_random_state((dim,), rng)
        program = net.program_state(dim, *_random_alpha_beta(dim, rng))
        for n in range(dim):
            for m in range(dim):
                deviations.append(net.covariance_check(psi, program, n, m))
    worst = _worst(deviations)
    _emit_doc({"dim": dim, "trials": args.trials, "seed": args.seed, "max_deviation": worst}, args)
    if _exceeds(worst, 1e-8):
        return _fail(f"covariance deviation {worst:.3e} exceeds 1e-8")
    return 0


def _random_alpha_beta(dim: int, rng: np.random.Generator) -> tuple[float, float]:
    alpha = float(rng.uniform(0.0, 1.0))
    return alpha, net.solve_beta(dim, alpha)


def _dump_wigner_grid(grid, xi: float, args) -> None:
    """Write an output Wigner grid next to the requested stem, one file per
    squeezing value."""
    stem = _resolve_out(args.dump_wigner)
    suffix = ".csv" if args.format == "csv" else ".json"
    path = stem.parent / f"{stem.name}_xi{xi:g}{suffix}"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        if args.format == "csv":
            grid.to_csv(fh)
        else:
            grid.to_json(fh)


def _kernel_norm(which: int, xi: float) -> float:
    """(1/sqrt(2 pi)) * integral K(0; eta) d eta of an output-1 kernel by the
    trapezoid rule on 2 KERNEL_NORM_HALF_NODES + 1 nodes over +-12 sigma.

    The bounds scale with the kernel, which can be e^{-xi}-narrow.  The
    integrand is a Gaussian of width at most sigma, so the rule's error,
    exp(-2 pi^2 (sigma / h)^2) at node spacing h = sigma / 33, and the
    truncated tails, exp(-72), are both far below rounding.  The nodes are
    integer multiples of h, so the peak eta = 0 is always one of them and a
    kernel that is NaN there fails the check.
    """
    h = 12 * cv._kernel_sigma(which, xi, 1) / KERNEL_NORM_HALF_NODES
    eta = h * np.arange(-KERNEL_NORM_HALF_NODES, KERNEL_NORM_HALF_NODES + 1)
    k = cv.kernel_eval(which, xi, 0.0, eta)
    return float(h * (k.sum() - (k[0] + k[-1]) / 2) / math.sqrt(2 * np.pi))


def cmd_cv(args) -> int:
    if args.grid < 2:
        raise ValueError(f"--grid must be at least 2, got {args.grid}")
    try:
        xis = [float(tok) for tok in args.xi.split(",")]
    except ValueError:
        raise _bad_option("--xi", args.xi, "comma-separated numbers") from None
    rows = []
    failed = None
    for xi in sorted(xis):
        alpha = args.alpha
        beta = cv.solve_cv_beta(alpha, xi)
        row = {"xi": xi, "alpha": alpha, "beta": beta}
        for which in (1, 2, 3):
            val = _kernel_norm(which, xi)
            row[f"k{which}_norm"] = val
            row[f"k{which}_residual"] = val - cv.kernel_norm_expected(which, xi)
        closed = [cv.cv_fidelity_asymptotic(xi, alpha, beta, output=k) for k in (1, 2)]
        if xi <= cv.XI_GRID_MAX:
            # the vacuum input is u(x) v(p) on the lattice; a 2-D grid is
            # sampled only to be convolved and written out
            lattice = cv.Lattice.centered(cv.suggested_half_width(xi), args.grid)
            u, v = cv.GaussianState.vacuum().wigner_factors(lattice)
            (row["F1"], mass1), (row["F2"], mass2) = cv.output_overlaps(
                lattice, u, v, xi, alpha, beta
            )
            row["method"] = "grid"
            if args.dump_wigner:
                grid = lattice.like(np.outer(u, v))
                _dump_wigner_grid(cv.output_wigner(grid, xi, alpha, beta, output=1), xi, args)
            # the grid is cross-checked against the exact closed form: a step
            # near the input's width aliases the fidelity's Riemann sum
            gap = _worst(abs(f - c) for f, c in zip((row["F1"], row["F2"]), closed))
            if _exceeds(gap, 1e-9):
                failed = (
                    f"--grid {args.grid} cannot resolve xi={xi}: grid fidelities are "
                    f"{gap:.3e} from the closed form (tolerance 1e-9)"
                )
            # a lattice too coarse or too small for the input or the
            # broadened outputs loses mass, and its fidelities are wrong
            mass_in = float(u.sum() * v.sum() * lattice.dx * lattice.dp / (2 * np.pi))
            masses = [mass_in, mass1, mass2]
            mass_error = _worst(abs(m - 1.0) for m in masses)
            if _exceeds(mass_error, 1e-6):
                failed = (
                    f"--grid {args.grid} cannot resolve xi={xi}: Riemann mass of input, "
                    f"output 1, output 2 = {', '.join(f'{m:.6g}' for m in masses)}, not 1"
                )
        else:
            row["F1"], row["F2"] = closed
            row["method"] = "asymptotic"
        resid = _worst(abs(row[f"k{which}_residual"]) for which in (1, 2, 3))
        if _exceeds(resid, 1e-6):
            failed = f"kernel normalisation residual {resid:.3e} at xi={xi}"
        rows.append(row)
    _emit_rows(
        rows,
        ["xi", "alpha", "beta", "k1_norm", "k2_norm", "k3_norm",
         "k1_residual", "k2_residual", "k3_residual", "F1", "F2", "method"],
        args,
    )
    return _fail(failed) if failed else 0


def cmd_coherent_clone(args) -> int:
    z = complex(args.displacement)
    if not cmath.isfinite(z):
        raise ValueError(f"displacement must be finite, got {args.displacement!r}")
    out1, out2, out3 = cv.coherent_cloner(cv.GaussianState.coherent(z))
    target = cv.GaussianState.coherent(z)
    anticlone_target = cv.transpose_gaussian(target)
    f_clone1 = cv.gaussian_fidelity(out1, target)
    f_clone2 = cv.gaussian_fidelity(out2, target)
    f_anti = cv.gaussian_fidelity(out3, anticlone_target)
    doc = {
        "displacement": {"re": z.real, "im": z.imag},
        "clone_fidelity": f_clone1,
        "clone2_fidelity": f_clone2,
        "anticlone_fidelity": f_anti,
        "output_covariances": [out1.cov, out2.cov, out3.cov],
        "output_means": [out1.mean, out2.mean, out3.mean],
    }
    _emit_doc(doc, args)
    if _exceeds(abs(f_clone1 - 2.0 / 3.0), 1e-9) or _exceeds(abs(f_clone2 - 2.0 / 3.0), 1e-9):
        return _fail(f"clone fidelity {f_clone1!r} differs from 2/3")
    if _exceeds(abs(f_anti - 0.125), 1e-9):
        return _fail(
            f"anticlone fidelity {f_anti!r} differs from the 1/8 target "
            "(this pipeline yields exactly 1/2; see the test suite)"
        )
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qidsim", description="Quantum information distributor experiments."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, grid=False):
        p.add_argument("--seed", type=int, default=0, help="64-bit RNG seed")
        p.add_argument("--out", default=None, help=f"output path (joined to ${OUTPUT_DIR_ENV} if relative)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        if grid:
            p.add_argument("--grid", type=int, default=512, help="grid points per axis")

    p = sub.add_parser("clone", help="scaling factor and fidelity of the universal cloner per N")
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--dim-range", default=None, metavar="A:B")
    common(p)
    p.set_defaults(func=cmd_clone)

    p = sub.add_parser("distribute", help="full simulation vs closed-form reduced outputs")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--input", default="random:0", help="'random:<seed>' or amplitude list")
    common(p)
    p.set_defaults(func=cmd_distribute, format="json")

    p = sub.add_parser("covariance", help="displacement covariance of the distributor")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--trials", type=int, default=10)
    common(p)
    p.set_defaults(func=cmd_covariance, format="json")

    p = sub.add_parser("cv", help="continuous-variable kernel norms and output fidelities")
    p.add_argument("--xi", default="0,0.5,1,2", help="comma-separated squeezing values")
    p.add_argument("--alpha", type=float, default=math.sqrt(0.5))
    p.add_argument(
        "--dump-wigner",
        default=None,
        metavar="STEM",
        help="also write the first-output Wigner grid per grid-safe xi to STEM_xi<value>",
    )
    common(p, grid=True)
    p.set_defaults(func=cmd_cv)

    p = sub.add_parser("coherent-clone", help="Gaussian coherent-state cloner")
    p.add_argument("--displacement", default="0", help="input amplitude, e.g. '3+4j'")
    common(p)
    p.set_defaults(func=cmd_coherent_clone, format="json")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.seed < 0:
            raise _bad_option("--seed", str(args.seed), "a non-negative integer")
        return args.func(args)
    except (ValueError, cv.GridResolutionError) as exc:
        return _fail(str(exc))
    except OverflowError as exc:
        return _fail(f"numeric overflow: {exc}")


if __name__ == "__main__":
    raise SystemExit(main())
