"""qidsim benchmark: closed-loop CLI ops, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 qidbench/run.py --workload qudit-large --seed 1 --seconds 20 --trace 0
    python3 qidbench/run.py --workload all   # each workload in turn

Each op is one ``qidsim.cli.main(argv)`` call on an argv generated from
``--seed``; one client in this process starts the next op when the previous
one returns.  Every output is checked by the benchmark itself.  With
``--trace 0`` the run reports the end-to-end metrics, including the cold
start of fresh interpreters; with ``--trace 1`` it alternates traced and
untraced ops and reports per-layer self times and counts.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# One BLAS thread: at or below nproc on any machine, and timings on small
# shared machines do not depend on a second core being free.  Set before numpy
# is imported, here and in every cold-start interpreter.
BLAS_THREADS = 1
BLAS_ENV = {v: str(BLAS_THREADS) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import compileall  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from tracer import COUNTS, ROOT as ROOT_SPAN, Tracer, layer_metric_names, layer_unit  # noqa: E402
from workloads import WORKLOADS, dump_files  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".qidbench"

COLD_STARTS = 3
COLD_START_TIMEOUT_S = 150
COLD_START = "import sys; from qidsim.cli import main; sys.exit(main(sys.argv[1:]))"
TAIL_BEYOND = 10
TAIL_BLOCK = 100
END_TO_END_UNITS = {
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass
class Tally:
    """Attempted and failed ops, with the first few failure messages."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def record(self, op_id: int, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"op {op_id}: {error}")


def run_op(main, argv: list[str]) -> tuple[float, str, str | None]:
    """One in-process CLI call: (wall seconds, stdout, error or None)."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    t0 = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = main(argv)
    except SystemExit as exc:  # argparse rejected the argv
        rc = exc.code
    except Exception as exc:  # the op fails; the closed loop keeps running
        rc, error = None, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    if error is None and rc != 0:
        error = f"exit {rc}: {err.getvalue().strip()[-300:]}"
    return seconds, out.getvalue(), error


def checked(workload, argv: list[str], stdout: str, error: str | None) -> str | None:
    """The op's error, or the benchmark's own output check's verdict."""
    if error is not None:
        return error
    try:
        return workload.check(argv, stdout)
    except Exception as exc:  # malformed output is a failed op, not a crash
        return f"output check raised {type(exc).__name__}: {exc}"


def cold_start(workload, argv: list[str]) -> tuple[float, str | None]:
    """Wall time for a fresh interpreter to import qidsim.cli and finish one op."""
    env = {**os.environ, **BLAS_ENV, "PYTHONPATH": str(SRC)}
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-c", COLD_START, *argv],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=COLD_START_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return time.perf_counter() - t0, f"cold start exceeded {COLD_START_TIMEOUT_S} s"
    seconds = time.perf_counter() - t0
    error = None if proc.returncode == 0 else f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
    return seconds, checked(workload, argv, proc.stdout, error)


def block_tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least TAIL_BEYOND
    samples beyond it; the maximum when there are too few samples."""
    xs = sorted(samples)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile): the block tail of each TAIL_BLOCK consecutive
    samples, median over the blocks; with fewer samples, the block tail of all.

    Over a whole run of about a thousand ops, the op with TAIL_BEYOND beyond it
    lands in the host's preemption bursts (wall time several times CPU time),
    whose number per run varies, so that figure spread 39-67% between runs of
    the same code.  The median over blocks discards the blocks a burst hit.
    Samples after the last whole block count in the median op time only.
    """
    if len(samples) < TAIL_BLOCK:
        return block_tail(samples)
    blocks = [block_tail(samples[i:i + TAIL_BLOCK])
              for i in range(0, len(samples) - TAIL_BLOCK + 1, TAIL_BLOCK)]
    return median([v for v, _ in blocks]), blocks[0][1]


def median(xs: list[float]) -> float:
    s = sorted(xs)
    mid = len(s) // 2
    return s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "machine": platform.machine(),
    }


def run_workload(workload, seed: int, seconds: float, trace: bool, main=None) -> dict:
    """Run one workload for ``seconds`` of timed ops; return its record."""
    if main is None:
        from qidsim.cli import main
    WORK.mkdir(exist_ok=True)

    def argv_for(op_id: int) -> list[str]:
        return workload.make_argv(np.random.default_rng([seed, op_id]), WORK)

    tally = Tally()
    record = {"workload": workload.name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "template": workload.template, "env": environment()}

    op_id = 0
    cold = []
    if not trace:
        # a real CLI call pays imports, lazy imports and cold caches every time;
        # compile bytecode first so that no cold start pays for that alone
        compileall.compile_dir(SRC / "qidsim", quiet=1)
        for _ in range(COLD_STARTS):
            secs, error = cold_start(workload, argv_for(op_id))
            tally.record(op_id, error)
            cold.append(secs)
            op_id += 1

    # warm-up op: lazy imports and caches fill before timing starts
    argv = argv_for(op_id)
    _, out, error = run_op(main, argv)
    tally.record(op_id, checked(workload, argv, out, error))
    op_id += 1

    # closed loop, one client; with tracing on, odd ops are traced and even
    # ops are not, so both medians come from the same stretch of time
    tracer = Tracer() if trace else None
    traced_main = tracer.wrap(ROOT_SPAN, main) if trace else None
    plain, traced = [], []
    first_traced, first_out_bytes = None, 0
    check_time = 0.0
    t_start = time.perf_counter()
    deadline = t_start + seconds
    while True:
        argv = argv_for(op_id)
        use_trace = trace and op_id % 2 == 1
        if use_trace:
            tracer.op_id = op_id
            tracer.install()
        secs, out, error = run_op(traced_main if use_trace else main, argv)
        if use_trace:
            tracer.uninstall()
        t_check = time.perf_counter()
        error = checked(workload, argv, out, error)
        tally.record(op_id, error)
        if error is None:
            (traced if use_trace else plain).append(secs)
            if use_trace and first_traced is None:
                first_traced = op_id
                first_out_bytes = len(out.encode()) + sum(p.stat().st_size for p in dump_files(argv))
        op_id += 1
        now = time.perf_counter()
        check_time += now - t_check
        if now >= deadline:
            break
    wall = time.perf_counter() - t_start - check_time

    record.update(attempted=tally.attempted, failed=tally.failed, errors=tally.errors,
                  timed_ops=len(plain), traced_ops=len(traced))
    metrics = {}
    if not trace:
        value, pct = tail(plain) if plain else (float("nan"), 0.0)
        metrics = {
            "op_p50_s": median(plain) if plain else float("nan"),
            "op_tail_s": value,
            "ops_per_s": len(plain) / wall,
            "setup_s": median(cold),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
        record.update(tail_percentile=pct, tail_samples=len(plain), cold_starts=cold,
                      failed_ratio=tally.failed / tally.attempted)
    else:
        per_op = tracer.self_times()
        first = tracer.calls(first_traced) if first_traced is not None else {}
        counts = tracer.counts.get(first_traced, {})
        values = {}
        for name in layer_metric_names():
            group, _, kind = name.rpartition(".")
            if kind == "self_s":
                values[name] = median([per_op[o][group] for o in per_op]) if per_op else 0.0
            elif kind == "calls":
                values[name] = first.get(group, 0)
        values["cli.out_bytes"] = first_out_bytes
        for key in ("qid_network.joint_bytes", "cv_gaussian.fft_points", "cv_gaussian.grid_write.bytes"):
            values[key] = counts.get(key, 0)
        overhead = median(traced) - median(plain) if traced and plain else float("nan")
        values["trace.overhead_s"] = overhead
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}
        record.update(count_sources=COUNTS, counts_from_op=first_traced,
                      untraced_p50_s=median(plain) if plain else None,
                      traced_p50_s=median(traced) if traced else None)
        tracer.write(WORK / f"spans-{workload.name}.npz")
    record["metrics"] = metrics
    return record


def report(record: dict) -> None:
    """Human-readable table of one workload's record."""
    print(f"# {record['workload']}  seed={record['seed']}  seconds={record['seconds']}  "
          f"trace={record['trace']}  argv: {record['template']}")
    print(f"# env {json.dumps(record['env'], sort_keys=True)}")
    notes = {}
    if not record["trace"]:
        notes["op_p50_s"] = f"n={record['timed_ops']}"
        n = record["tail_samples"]
        beyond = TAIL_BEYOND if n > TAIL_BEYOND else 0
        blocks = max(1, n // TAIL_BLOCK)
        notes["op_tail_s"] = (f"p{record['tail_percentile']:.2f}, {beyond} beyond in each of {blocks} "
                              f"block(s) of {min(n, TAIL_BLOCK)} ops, median; n={n}")
        notes["setup_s"] = f"median of {COLD_STARTS} cold starts"
    else:
        notes.update(record["count_sources"])
        notes["trace.overhead_s"] = (f"traced p50 {record['traced_p50_s']} - untraced p50 "
                                     f"{record['untraced_p50_s']}")
    for name, m in record["metrics"].items():
        print(f"{name:40s} {m['value']:>16.6g} {m['unit']:7s} {notes.get(name, '')}")
    if not record["trace"]:
        print(f"{'failed_ratio':40s} {record['failed_ratio']:>16.6g} {'ratio':7s} "
              f"{record['failed']}/{record['attempted']}")
    for err in record["errors"]:
        print(f"# failed {err}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    if not (SRC / "qidsim" / "cli.py").is_file():
        print(f"error: no qidsim sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload == "all":
        # each workload in its own process, so that peak RSS and caches are its own
        rcs = [
            subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                            "--seconds", str(args.seconds), "--trace", str(args.trace)]).returncode
            for name in WORKLOADS
        ]
        return max(rcs)
    record = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    (WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    report(record)
    print(json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
