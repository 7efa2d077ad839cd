"""Command-line experiment runner.

Subcommands reproduce the library's headline numbers (cloning fidelities,
covariance deviations, kernel normalisations, the coherent-state cloner)
and emit machine-readable CSV or JSON.  Identical configuration and seed
produce byte-identical output: CSV floats are rendered with 17 significant
digits, JSON floats as their shortest round-trip repr, and random inputs are
drawn from a seeded generator recorded in the output.  Every command ends in
``_finish``, which writes its output and then exits nonzero, with one
``error:`` line, when an internal consistency check fails, so the CLI doubles
as a CI gate.
"""

from __future__ import annotations

import argparse
import cmath
import functools
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
# largest --grid: a grid row holds O(grid) numbers, 72 MB peak RSS and 0.13 s
# for two rows at 65536 points; --dump-wigner builds grid^2 arrays, 0.41 GB
# and 15 s for one xi at 2048 points
GRID_MAX = 65536
DUMP_GRID_MAX = 2048


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _resolve_out(option: str, text: str | None, stem: bool = False) -> Path | None:
    """The path an output option names, joined to ``$QIDSIM_OUTPUT_DIR`` if
    relative; None if the option is absent.  Text that does not end in a file
    name (empty, ``.``, ``..``, or a trailing ``/``) would name a directory,
    or drop out of the join, so it is rejected, and so is a path that names
    an existing directory, unless it is a ``stem``, whose files are written
    beside it."""
    if text is None:
        return None
    if os.path.basename(text) in ("", ".", ".."):
        raise _bad_option(option, text, "a path that ends in a file name")
    # an absolute text replaces the base in the join; no base leaves it as is
    path = Path(os.environ.get(OUTPUT_DIR_ENV, ""), text)
    if not stem and path.is_dir():
        raise ValueError(f"cannot write {path}: {option} names a directory")
    return path


def _write_file(path: Path, write) -> None:
    """Create ``path``'s directory and call ``write`` on the open file.  An
    OSError becomes a ValueError that names the path."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            write(fh)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc}") from None


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def _finish(args, payload, gates, columns=None) -> int:
    """Write a command's output, then check its gates: every command ends here.

    With ``columns``, ``payload`` is a list of rows, written as CSV or, with
    ``--format json``, as a JSON document of rows; without, it is one JSON
    document.  The output goes to ``args.out``, the path ``main`` resolved
    from ``--out``, if given, else to stdout, and is written whether or not
    a gate fails.  ``gates`` are ``(check, value, tolerance)`` triples, in
    the order they are to be named; a value passes only when
    ``value <= tolerance``, so NaN fails.  The first failing gate ends in one
    ``error:`` line naming its check, value and tolerance, and exit code 1.
    """
    if columns is not None and args.format == "csv":
        lines = [",".join(columns)]
        lines += [",".join(_fmt(row[c]) for c in columns) for row in payload]
        text = "\n".join(lines) + "\n"
    else:
        doc = {"rows": payload} if columns is not None else payload
        doc = {"schema_version": SCHEMA_VERSION, "command": args.command, **doc}
        # numpy arrays and integer scalars become the lists and numbers they
        # hold; floats (numpy's too) are written as their shortest repr
        text = json.dumps(doc, indent=2, default=lambda obj: obj.tolist()) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        _write_file(Path(args.out), lambda fh: fh.write(text))
    for check, value, tol in gates:
        if not (value <= tol):
            return _fail(f"{check} {value:.3e} (tolerance {tol:g})")
    return 0


def _worst(deviations) -> float:
    """Largest deviation with a floor of 0.0, NaN if any is NaN (the
    built-in max can drop it)."""
    worst = 0.0
    for value in deviations:
        if value != value:  # NaN
            return math.nan
        if value > worst:
            worst = value
    return float(worst)


def _bad_option(option: str, value: str, expected: str) -> ValueError:
    return ValueError(f"{option} expects {expected}, got {value!r}")


def _decimal(text: str) -> int | None:
    """The n >= 0 that ``str(n)`` writes as ``text``, else None: ASCII digits
    with no sign, ``_``, blank or leading zero, so each integer value has one
    spelling.  Also None past int()'s digit limit (4300 by default), so the
    caller's error names its option."""
    if text.isascii() and text.isdigit() and (text == "0" or text[0] != "0"):
        try:
            return int(text)
        except ValueError:
            return None
    return None


def _count(option: str, text: str, least: int) -> int:
    """The integer value of ``option``, spelled as ``_decimal`` reads it and
    at least ``least``."""
    n = _decimal(text)
    if n is None or n < least:
        raise _bad_option(option, text, f"an integer >= {least}")
    return n


def _parse_dims(args) -> list[int]:
    # with no ':', hi is empty, and _decimal rejects it like any bad bound
    lo, _, hi = map(_decimal, args.dim_range.partition(":"))
    if lo is None or hi is None or lo > hi:
        raise _bad_option("--dim-range", args.dim_range, "A:B with integers A <= B")
    return list(range(lo, hi + 1))


def _parse_input_spec(spec: str, dim: int) -> tuple[PureState, int | None]:
    """`random:<seed>` or an explicit comma-separated amplitude list."""
    if spec.startswith("random"):
        seed = _decimal(spec.removeprefix("random:"))
        if seed is None:
            raise _bad_option("--input", spec, "random:<seed> with a non-negative integer seed")
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
    rng = np.random.default_rng(_count("--seed", args.seed, 0))
    rows, deviations = [], []
    for dim in _parse_dims(args):
        # the N^2 program draws nothing, so building it first fails an
        # impossible N before the input is drawn, with the same stream
        program = net.cloner_program(dim)
        psi = haar_random_state((dim,), rng)
        f_sim = fidelity(net.distribute(psi, program).rho1, psi)
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
    gate = ("simulated and closed-form columns disagree by", _worst(deviations), 1e-10)
    return _finish(
        args, rows, [gate], ["N", "s_closed", "s_simulated", "F_closed", "F_simulated"]
    )


def _closed_form_deviation(outputs, psi: PureState, coefficients) -> float:
    """Largest elementwise distance of the outputs from the closed form
    rho_k = s_k rho_in + e_k 1 (rho_in transposed for output 3), NaN if any
    is NaN.  Each reference is written into one scratch array, with e_k
    added to its scaled diagonal before it is subtracted."""
    rho_in = np.outer(psi.amplitudes, psi.amplitudes.conj())
    scratch = np.empty_like(rho_in)
    diagonal = scratch.reshape(-1)[:: psi.dim + 1]
    deviations = []
    for rho, ref, (s, e) in zip(outputs, (rho_in, rho_in, rho_in.T), coefficients):
        np.multiply(ref, s, out=scratch)
        diagonal += e
        np.subtract(rho.matrix, scratch, out=scratch)
        deviations.append(np.abs(scratch).max())
    return _worst(deviations)


def cmd_distribute(args) -> int:
    dim = _count("--dim", args.dim, 2)
    beta = net.solve_beta(dim, args.alpha)
    # the N^2 program draws nothing, so building it first fails an
    # impossible N before the input is drawn
    program = net.program_state(dim, args.alpha, beta)
    psi, seed = _parse_input_spec(args.input, dim)
    sim = net.distribute(psi, program)
    # the simulated outputs are validated already, so the closed form is
    # compared by its two scalars per output, with no reference operator
    coefficients = net._closed_form_coefficients(dim, args.alpha, beta)
    deviation = _closed_form_deviation((sim.rho1, sim.rho2, sim.rho3), psi, coefficients)
    psi_conj = PureState((dim,), psi.amplitudes.conj())
    doc = {
        "dim": dim,
        "alpha": args.alpha,
        "beta": beta,
        "seed": seed,
        "rho1_fidelity": fidelity(sim.rho1, psi),
        "rho2_fidelity": fidelity(sim.rho2, psi),
        "rho3_transpose_fidelity": fidelity(sim.rho3, psi_conj),
        # a pure input's fidelity with s rho_in + e 1 is s + e
        "predicted": {
            "rho1_fidelity": sum(coefficients[0]),
            "rho2_fidelity": sum(coefficients[1]),
        },
        "max_deviation": deviation,
    }
    return _finish(args, doc, [("simulation deviates from the closed form by", deviation, 1e-10)])


def cmd_covariance(args) -> int:
    dim = _count("--dim", args.dim, 2)
    trials = _count("--trials", args.trials, 1)
    seed = _count("--seed", args.seed, 0)
    # the N^2 program is the first allocation an impossible N fails; meet it
    # before the first input is drawn, leaving the random stream as it is
    net.cloner_program(dim)
    rng = np.random.default_rng(seed)
    shifts = [(n, m) for n in range(dim) for m in range(dim)]
    deviations = []
    for _ in range(trials):
        psi = haar_random_state((dim,), rng)
        program = net.program_state(dim, *_random_alpha_beta(dim, rng))
        deviations.append(net.covariance_deviation(psi, program, shifts))
    worst = _worst(deviations)
    doc = {"dim": dim, "trials": trials, "seed": seed, "max_deviation": worst}
    return _finish(args, doc, [("covariance deviation", worst, 1e-8)])


def _random_alpha_beta(dim: int, rng: np.random.Generator) -> tuple[float, float]:
    alpha = float(rng.uniform(0.0, 1.0))
    return alpha, net.solve_beta(dim, alpha)


@functools.cache
def _vacuum() -> cv.GaussianState:
    """The cv command's input, built and validated once per process, like
    the parser; its arrays are read-only, so no command changes it for the
    next."""
    state = cv.GaussianState.vacuum()
    state.mean.flags.writeable = False
    state.cov.flags.writeable = False
    return state


def cmd_cv(args) -> int:
    points = _count("--grid", args.grid, 2)
    cap = DUMP_GRID_MAX if args.dump_wigner else GRID_MAX
    if points > cap:
        also = " with --dump-wigner" if args.dump_wigner else ""
        raise ValueError(f"--grid must be at most {cap}{also}, got {points}")
    try:
        xis = [float(tok) for tok in args.xi.split(",")]
    except ValueError:
        raise _bad_option("--xi", args.xi, "comma-separated numbers") from None
    for xi in xis:
        cv._as_xi(xi)
        if xi > cv.XI_MAX:
            raise ValueError(
                f"squeezing xi={xi} overflows the kernel-norm rule, which samples "
                f"xi <= {cv.XI_MAX}"
            )
    vacuum = _vacuum()
    # gates in row order and, within a row, the kernel residual, then the
    # grid's mass, then its fidelity gap: the first that fails is named
    rows, gates = [], []
    for xi in sorted(xis):
        alpha = args.alpha
        beta = cv.solve_cv_beta(alpha, xi)
        row = {"xi": xi, "alpha": alpha, "beta": beta}
        for which in (1, 2, 3):
            val = cv.kernel_norm(which, xi)
            row[f"k{which}_norm"] = val
            row[f"k{which}_residual"] = val - cv.kernel_norm_expected(which, xi)
        resid = _worst(abs(row[f"k{which}_residual"]) for which in (1, 2, 3))
        gates.append((f"kernel normalisation residual at xi={xi} is", resid, 1e-6))
        closed = [cv.cv_fidelity_asymptotic(xi, alpha, beta, output=k) for k in (1, 2)]
        if xi <= cv.XI_GRID_MAX:
            # the vacuum input is u(x) v(p) on the lattice; a 2-D grid is
            # sampled only to be convolved and written out
            lattice = cv.Lattice(cv.suggested_half_width(xi), points)
            u, v = vacuum.wigner_factors(lattice)
            (row["F1"], mass1), (row["F2"], mass2) = cv.output_overlaps(
                lattice, u, v, xi, alpha, beta
            )
            row["method"] = "grid"
            if args.dump_wigner:
                # one file per grid-safe xi, beside the stem main resolved
                stem = args.dump_wigner
                grid = cv.output_wigner(vacuum.wigner_grid(lattice), xi, alpha, beta, output=1)
                path = stem.with_name(f"{stem.name}_xi{xi:g}.{args.format}")
                _write_file(path, grid.to_csv if args.format == "csv" else grid.to_json)
            # a lattice too coarse or too small for the input or the
            # broadened outputs loses mass, and its fidelities are wrong
            mass_in = float(u.sum() * v.sum() * lattice.dx**2 / (2 * np.pi))
            mass_error = _worst(abs(m - 1.0) for m in (mass_in, mass1, mass2))
            unresolved = f"--grid {points} cannot resolve xi={xi}:"
            gates.append(
                (f"{unresolved} Riemann mass of the input or an output is off 1 by", mass_error, 1e-6)
            )
            # the grid is cross-checked against the exact closed form: a step
            # near the input's width aliases the fidelity's Riemann sum
            gap = _worst(abs(f - c) for f, c in zip((row["F1"], row["F2"]), closed))
            gates.append((f"{unresolved} grid fidelities differ from the closed form by", gap, 1e-9))
        else:
            row["F1"], row["F2"] = closed
            row["method"] = "asymptotic"
        rows.append(row)
    return _finish(
        args,
        rows,
        gates,
        ["xi", "alpha", "beta", "k1_norm", "k2_norm", "k3_norm",
         "k1_residual", "k2_residual", "k3_residual", "F1", "F2", "method"],
    )


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
    gates = [
        ("clone 1 fidelity differs from 2/3 by", abs(f_clone1 - 2.0 / 3.0), 1e-9),
        ("clone 2 fidelity differs from 2/3 by", abs(f_clone2 - 2.0 / 3.0), 1e-9),
        (
            "anticlone fidelity, exactly 1/2 in this pipeline (see the test suite), "
            "differs from the 1/8 target by",
            abs(f_anti - 0.125),
            1e-9,
        ),
    ]
    return _finish(args, doc, gates)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Argument parser whose rejections leave by main's one ``error:`` line.

    Options match by their full names only, so an abbreviation is rejected
    like an unknown option; ``add_subparsers`` builds each command's parser
    from this class too.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise ValueError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: it reads no environment."""
    parser = _Parser(prog="qidsim", description="Quantum information distributor experiments.")
    sub = parser.add_subparsers(dest="command", required=True)
    seed = {"default": "0", "help": "non-negative integer RNG seed"}
    out = {"default": None, "help": f"output path (joined to ${OUTPUT_DIR_ENV} if relative)"}
    fmt = {"choices": ("csv", "json"), "default": "csv"}

    p = sub.add_parser("clone", help="scaling factor and fidelity of the universal cloner per N")
    p.add_argument("--dim-range", default="2:2", metavar="A:B", help="dimensions A to B (default 2:2)")
    p.add_argument("--seed", **seed)
    p.add_argument("--out", **out)
    p.add_argument("--format", **fmt)
    p.set_defaults(func=cmd_clone)

    p = sub.add_parser("distribute", help="full simulation vs closed-form reduced outputs")
    p.add_argument("--dim", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument(
        "--input", default="random:0", help="'random:<seed>' or a comma-separated amplitude list"
    )
    p.add_argument("--out", **out)
    p.set_defaults(func=cmd_distribute)

    p = sub.add_parser("covariance", help="displacement covariance of the distributor")
    p.add_argument("--dim", required=True)
    p.add_argument("--trials", default="10")
    p.add_argument("--seed", **seed)
    p.add_argument("--out", **out)
    p.set_defaults(func=cmd_covariance)

    p = sub.add_parser("cv", help="continuous-variable kernel norms and output fidelities")
    p.add_argument("--xi", default="0,0.5,1,2", help="comma-separated squeezing values")
    p.add_argument("--alpha", type=float, default=math.sqrt(0.5))
    p.add_argument("--grid", default="512", help="grid points per axis")
    p.add_argument(
        "--dump-wigner",
        default=None,
        metavar="STEM",
        help="also write the first-output Wigner grid per grid-safe xi to STEM_xi<value>",
    )
    p.add_argument("--out", **out)
    p.add_argument("--format", **fmt)
    p.set_defaults(func=cmd_cv)

    p = sub.add_parser("coherent-clone", help="Gaussian coherent-state cloner")
    p.add_argument("--displacement", default="0", help="input amplitude, e.g. '3+4j'")
    p.add_argument("--out", **out)
    p.set_defaults(func=cmd_coherent_clone)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # every output path is resolved and checked here, before any work
        args.out = _resolve_out("--out", args.out)
        if args.command == "cv":
            args.dump_wigner = _resolve_out("--dump-wigner", args.dump_wigner, stem=True)
        return args.func(args)
    except ValueError as exc:
        return _fail(str(exc))
    except OverflowError as exc:
        return _fail(f"numeric overflow: {exc}")
    except MemoryError as exc:
        return _fail(f"out of memory: {str(exc) or 'allocation failed'}")


if __name__ == "__main__":
    raise SystemExit(main())
