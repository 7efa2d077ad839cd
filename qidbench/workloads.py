"""Workloads of the qidsim benchmark: argv generated from the seed, and the
benchmark's own output checks.

Every check is written as ``not (x <= tol)`` so that NaN and inf fail it.
The program's own gates are written as ``x > tol``, which NaN passes, so
the benchmark does not rely on the exit code alone.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# First- and second-output grid fidelities at (xi, alpha) = (0.5, sqrt(1/2)),
# frozen from a three-mode wavefunction quadrature (see tests/test_cv_gaussian.py).
CV_ORACLE_XI = 0.5
CV_ORACLE_F = (0.65438684, 0.67958647)
CV_ALPHA = math.sqrt(0.5)
# Largest squeezing the cv command runs on a grid (and dumps); beyond it the
# command switches to closed forms.
CV_XI_GRID_MAX = 3.0


@dataclass(frozen=True)
class Workload:
    """One set of inputs: how to make an op's argv and how to check its output."""

    name: str
    template: str
    make_argv: Callable[[np.random.Generator, Path], list[str]]
    check: Callable[[list[str], str], str | None]


def argv_value(argv: list[str], flag: str) -> str:
    return argv[argv.index(flag) + 1]


def off_by_more(value: float, target: float, tol: float) -> bool:
    """True when ``value`` is not within ``tol`` of ``target``; NaN is never within."""
    return not (abs(value - target) <= tol)


def dump_files(argv: list[str]) -> list[Path]:
    """Wigner-grid files the ``cv --dump-wigner STEM`` op writes, one per grid-safe xi."""
    if "--dump-wigner" not in argv:
        return []
    stem = Path(argv_value(argv, "--dump-wigner"))
    xis = [float(tok) for tok in argv_value(argv, "--xi").split(",")]
    suffix = ".csv" if argv_value(argv, "--format") == "csv" else ".json"
    return [stem.parent / f"{stem.name}_xi{xi:g}{suffix}" for xi in xis if xi <= CV_XI_GRID_MAX]


def cv_asymptotic_fidelities(xi: float, alpha: float) -> tuple[float, float]:
    """Closed-form large-squeezing fidelities of outputs 1 and 2 for a vacuum
    input, with beta solved from the continuous normalisation constraint."""
    g = 4.0 / math.sqrt(4.0 + 2.0 * math.sinh(2 * xi) ** 2)
    beta = (-g * alpha + math.sqrt(g * g * alpha * alpha + 4 * (1 - alpha * alpha))) / 2
    b, c = math.exp(-2 * xi), math.cosh(2 * xi)
    f1 = alpha**2 / (1 + b) + beta**2 / (1 + c) + alpha * beta * g
    f2 = beta**2 / (1 + b / 2) + alpha**2 * 2 / (2 + c) + alpha * beta * g
    return f1, f2


# ---------------------------------------------------------------------------
# argv generators
# ---------------------------------------------------------------------------


def _qudit_large_argv(rng: np.random.Generator, work: Path) -> list[str]:
    alpha = float(rng.uniform(0.0, 1.0))
    return ["distribute", "--dim", "64", "--alpha", f"{alpha:.6f}",
            "--input", f"random:{int(rng.integers(2**31))}"]


def _qudit_small_argv(rng: np.random.Generator, work: Path) -> list[str]:
    return ["covariance", "--dim", "4", "--trials", "20", "--seed", str(int(rng.integers(2**31)))]


def _cv_grid_argv(rng: np.random.Generator, work: Path) -> list[str]:
    return ["cv", "--xi", "0.5,3", "--grid", "512"]


def _cv_dump_argv(rng: np.random.Generator, work: Path) -> list[str]:
    return ["cv", "--xi", "1", "--grid", "256", "--dump-wigner", str(work / "w"), "--format", "csv"]


# ---------------------------------------------------------------------------
# output checks: each returns a failure message, or None when the output holds
# ---------------------------------------------------------------------------


def _check_qudit_large(argv: list[str], stdout: str) -> str | None:
    doc = json.loads(stdout)
    n, alpha = int(argv_value(argv, "--dim")), float(argv_value(argv, "--alpha"))
    beta = -alpha / n + math.sqrt(1.0 - alpha * alpha * (1.0 - 1.0 / n**2))
    for key, target in (
        ("rho1_fidelity", 1.0 - beta**2 * (1.0 - 1.0 / n)),
        ("rho2_fidelity", 1.0 - alpha**2 * (1.0 - 1.0 / n)),
    ):
        if off_by_more(doc[key], target, 1e-10):
            return f"{key} = {doc[key]!r}, expected {target!r} to 1e-10"
    return None


def _check_qudit_small(argv: list[str], stdout: str) -> str | None:
    dev = json.loads(stdout)["max_deviation"]
    if not (dev <= 1e-8):
        return f"max_deviation = {dev!r} exceeds 1e-8"
    return None


def _check_cv_grid(argv: list[str], stdout: str) -> str | None:
    rows = list(csv.DictReader(io.StringIO(stdout)))
    xis = sorted(float(tok) for tok in argv_value(argv, "--xi").split(","))
    if [float(r["xi"]) for r in rows] != xis:
        return f"rows cover xi {[r['xi'] for r in rows]}, expected {xis}"
    for row in rows:
        xi = float(row["xi"])
        for k in (1, 2, 3):
            resid = float(row[f"k{k}_residual"])
            if not (abs(resid) <= 1e-6):
                return f"k{k}_residual = {resid!r} at xi={xi} exceeds 1e-6"
        if xi == CV_ORACLE_XI:
            targets, tol = CV_ORACLE_F, 1e-6
        else:
            targets, tol = cv_asymptotic_fidelities(xi, CV_ALPHA), 1e-3
        for key, target in zip(("F1", "F2"), targets):
            if off_by_more(float(row[key]), target, tol):
                return f"{key} = {row[key]} at xi={xi}, expected {target!r} to {tol:g}"
    return None


def _check_cv_dump(argv: list[str], stdout: str) -> str | None:
    n = int(argv_value(argv, "--grid"))
    for path in dump_files(argv):
        text = path.read_text()
        lines = text.count("\n")
        if lines != n * n + 1:
            return f"{path.name} has {lines} lines, expected {n * n + 1}"
        data = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1)
        xs, ps = np.unique(data[:, 0]), np.unique(data[:, 1])
        dx = (xs[-1] - xs[0]) / (n - 1)
        dp = (ps[-1] - ps[0]) / (n - 1)
        mass = float(data[:, 2].sum() * dx * dp / (2 * np.pi))
        if off_by_more(mass, 1.0, 1e-4):
            return f"{path.name} has Riemann mass {mass!r}, expected 1 to 1e-4"
    return None


# Why each workload was chosen, and which commands are left out and why, is
# recorded in BENCHMARK.json.  qudit-small and cv-dump run by name here but
# are not listed there: their ops are bound by Python-level work (per-call
# overhead; CSV formatting), whose speed on a shared 2-vCPU host drifts by up
# to 2x over minutes, so ten runs of the same code spread past the 25% bound
# that BENCHMARK.json allows.  The memory-bound numpy ops of qudit-large and
# cv-grid drift about half as much.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("qudit-large", "distribute --dim 64 --alpha <a> --input random:<s>",
                 _qudit_large_argv, _check_qudit_large),
        Workload("qudit-small", "covariance --dim 4 --trials 20 --seed <s>",
                 _qudit_small_argv, _check_qudit_small),
        Workload("cv-grid", "cv --xi 0.5,3 --grid 512", _cv_grid_argv, _check_cv_grid),
        Workload("cv-dump", "cv --xi 1 --grid 256 --dump-wigner <work>/w --format csv",
                 _cv_dump_argv, _check_cv_dump),
    )
}
