"""Span tracer for the traced benchmark run.

Wraps the public functions of each qidsim module from outside the program:
every binding of a traced function in a ``qidsim.*`` module namespace, or
the method on its class, is replaced while the tracer is installed and
restored afterwards.  Spans (name, start, end, parent, op id) are kept in
memory in flat arrays and written out when the run ends.  A layer's self
time is its span time minus the time of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

# Span groups: the layer metric name and the functions it covers, as
# "<module>.<attribute>[.<method>]" under the qidsim package.  The flag says
# whether the group reports a call count next to its self time.
GROUPS = (
    ("qid_network.distribute", ("qid_network.distribute",), True),
    ("qid_network.build_qid_unitary", ("qid_network.build_qid_unitary",), True),
    ("qid_network.permutation_apply", ("qid_network.PermutationGate.apply",), False),
    ("qid_network.program_state", ("qid_network.program_state",), False),
    ("qid_network.predicted_outputs", ("qid_network.predicted_outputs",), False),
    ("qid_network.covariance_check", ("qid_network.covariance_check",), True),
    ("qudit_core.partial_trace", ("qudit_core.partial_trace",), True),
    ("qudit_core.validate",
     ("qudit_core.PureState.__init__", "qudit_core.DensityOperator.__init__"), True),
    ("qudit_core.operator_build",
     ("qudit_core.shift_x", "qudit_core.shift_p", "qudit_core.fourier_operator",
      "qudit_core.entangled_state"), True),
    ("qudit_core.fidelity", ("qudit_core.fidelity",), False),
    ("cv_gaussian.output_wigner", ("cv_gaussian.output_wigner",), True),
    ("cv_gaussian.convolve_with_kernel", ("cv_gaussian.convolve_with_kernel",), True),
    ("cv_gaussian.kernel_characteristic", ("cv_gaussian.kernel_characteristic",), True),
    ("cv_gaussian.kernel_eval", ("cv_gaussian.kernel_eval",), True),
    ("cv_gaussian.wigner_grid", ("cv_gaussian.GaussianState.wigner_grid",), False),
    ("cv_gaussian.cv_fidelity", ("cv_gaussian.cv_fidelity",), False),
    ("cv_gaussian.grid_write",
     ("cv_gaussian.WignerGrid.to_csv", "cv_gaussian.WignerGrid.to_json"), False),
)
ROOT = "cli.main"

# Counts taken at span boundaries.  "computed" ones come from array shapes.
COUNTS = {
    "cli.out_bytes": "counted",
    "qid_network.joint_bytes": "computed",
    "cv_gaussian.fft_points": "computed",
    "cv_gaussian.grid_write.bytes": "counted",
}


def _count_joint_bytes(tracer: "Tracer", args, pos) -> None:
    # the joint vector is N^3 complex128 amplitudes
    tracer.count("qid_network.joint_bytes", 16 * args[0].dim ** 3)


def _count_fft_points(tracer: "Tracer", args, pos) -> None:
    # only the call made by convolve_with_kernel sees the padded frequency grid;
    # the output-2 cross kernel calls kernel_characteristic again on the same grid
    if tracer.names[tracer.name[tracer.stack[-1]]] == "cv_gaussian.convolve_with_kernel":
        tracer.count("cv_gaussian.fft_points", np.broadcast(args[2], args[3]).size)


def _count_grid_bytes(tracer: "Tracer", args, pos) -> None:
    tracer.count("cv_gaussian.grid_write.bytes", args[1].tell() - pos)


# group -> (before the call: args -> state, after the call: count hook)
HOOKS = {
    "qid_network.permutation_apply": (None, _count_joint_bytes),
    "cv_gaussian.kernel_characteristic": (None, _count_fft_points),
    "cv_gaussian.grid_write": (lambda args: args[1].tell(), _count_grid_bytes),
}


def layer_metric_names() -> list[str]:
    """Every per-layer metric the traced run reports, in report order."""
    names = [f"{ROOT}.self_s", "cli.out_bytes"]
    for group, _, calls in GROUPS:
        if calls:
            names.append(f"{group}.calls")
        names.append(f"{group}.self_s")
    names += ["qid_network.joint_bytes", "cv_gaussian.fft_points", "cv_gaussian.grid_write.bytes"]
    return names + ["trace.overhead_s"]


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes"):
        return "B"
    if name.endswith("_points"):
        return "points"
    return "count"


class Tracer:
    """In-memory span recorder with install/uninstall of function wrappers."""

    def __init__(self):
        self.names: list[str] = [ROOT] + [g for g, _, _ in GROUPS]
        self._ids = {n: i for i, n in enumerate(self.names)}
        self.name, self.parent, self.op = array("q"), array("q"), array("q")
        self.start, self.end = array("d"), array("d")
        self.stack: list[int] = []
        self.op_id = -1
        self.counts: dict[int, Counter] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def count(self, key: str, amount: int) -> None:
        self.counts.setdefault(self.op_id, Counter())[key] += amount

    def wrap(self, group: str, fn):
        """``fn`` recorded as a span of ``group``, with the group's count hook."""
        name_id = self._ids[group]
        before, after = HOOKS.get(group, (None, None))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            pos = before(args) if before else None
            idx = self._open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
                if after:
                    after(self, args, pos)

        return traced

    # -- installing wrappers -------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function wherever a qidsim module binds it."""
        modules = [m for n, m in list(sys.modules.items()) if n == "qidsim" or n.startswith("qidsim.")]
        for group, targets, _ in GROUPS:
            for target in targets:
                mod_name, *path = target.split(".")
                owner = importlib.import_module(f"qidsim.{mod_name}")
                for attr in path[:-1]:
                    owner = getattr(owner, attr)
                original = getattr(owner, path[-1])
                wrapper = self.wrap(group, original)
                if isinstance(owner, type):
                    self._patch(owner, path[-1], original, wrapper)
                    continue
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, original, wrapper)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ------------------------------------------------------------

    def self_times(self) -> dict[int, dict[str, float]]:
        """Per op id: summed self time of each span group."""
        if not self.start:
            return {}
        start, end = np.frombuffer(self.start), np.frombuffer(self.end)
        parent, name, op = (np.frombuffer(a, dtype=np.int64) for a in (self.parent, self.name, self.op))
        dur = end - start
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        own = dur - child
        ops, op_index = np.unique(op, return_inverse=True)
        table = np.zeros((ops.size, len(self.names)))
        np.add.at(table, (op_index, name), own)
        return {int(o): dict(zip(self.names, row)) for o, row in zip(ops, table)}

    def calls(self, op_id: int) -> Counter:
        """Spans per group in one op."""
        name, op = np.frombuffer(self.name, dtype=np.int64), np.frombuffer(self.op, dtype=np.int64)
        per_group = np.bincount(name[op == op_id], minlength=len(self.names))
        return Counter(dict(zip(self.names, per_group.tolist())))

    def write(self, path: Path) -> None:
        """Write every span as columns of an ``.npz`` archive."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int64),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            op=np.frombuffer(self.op, dtype=np.int64),
        )
