"""In-memory spans around calls into cromflow's modules, and their aggregation.

The tracer wraps module attributes at each layer boundary, where the calling
module looks them up, so no code under ``src/`` changes.  Every span keeps
its name, start, end, parent and case id; self time is a span's duration
minus the time of its direct children.  Nothing is written until the run
ends.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import time
from dataclasses import dataclass, field
from typing import Optional

@dataclass
class Span:
    name: str
    start: float
    parent: Optional[int]
    case: str
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.case = ""

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        s = Span(name, time.perf_counter(), parent, self.case)
        self.spans.append(s)
        self._stack.append(len(self.spans) - 1)
        try:
            yield s
        finally:
            self._stack.pop()
            s.end = time.perf_counter()

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.duration
        return [s.duration - c for s, c in zip(self.spans, child)]

    def to_json(self) -> list:
        return [
            {
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "case": s.case,
                **({"counts": s.counts} if s.counts else {}),
            }
            for s in self.spans
        ]


class _TimedLU:
    """Proxy for a SuperLU object that times its back-solves."""

    def __init__(self, lu, tracer: Tracer, name: str):
        self._lu = lu
        self._tracer = tracer
        self._name = name

    def solve(self, *args, **kwargs):
        with self._tracer.span(self._name):
            return self._lu.solve(*args, **kwargs)

    def __getattr__(self, attr):
        return getattr(self._lu, attr)


def _lu_hook(layer):
    def after(tracer, span, args, result):
        span.counts["saddle_nnz"] = int(args[0].nnz)
        # L and U are copied out of SuperLU on access; the hook runs after
        # the factorization span closes, and its own span keeps the copy off
        # the caller's self time.
        with tracer.span("trace.fill_read"):
            span.counts["fill_nnz"] = int(result.L.nnz + result.U.nnz)
        return _TimedLU(result, tracer, f"{layer}.backsolve")

    return after


def _newton_hook(tracer, span, args, result):
    report = result[2]
    span.counts["iters"] = int(report.newton_iterations)
    span.counts["converged"] = int(bool(report.converged))


def _snapshots_hook(tracer, span, args, result):
    span.counts["samples_skipped"] = int(result[1])
    span.counts["samples"] = int(args[0].train_samples)


def _rule_hook(tracer, span, args, result):
    span.counts["points"] = int(result.n_points)


def _wrap(tracer, owner, attr, name, after=None):
    original = getattr(owner, attr)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as s:
            result = original(*args, **kwargs)
        if after is not None:
            replaced = after(tracer, s, args, result)
            if replaced is not None:
                result = replaced
        return result

    setattr(owner, attr, wrapper)
    return owner, attr, original


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap the layer boundaries of cromflow for the duration of the block.

    Names are wrapped in the module that looks them up: ``harness`` and
    ``cli`` bind some functions at import time, ``cli`` imports others at
    call time from their defining module.
    """
    from cromflow import cli, eqp, fom, harness, reduction, rom

    targets = [
        # weakforms / femspace / geometry: the component set
        (harness, "build_component_set", "weakforms.component_set", None),
        # harness: the training pipeline
        (harness, "generate_snapshots", "harness.snapshots", _snapshots_hook),
        (harness, "train_model", "harness.train", None),
        # fom
        (fom, "assemble_global", "fom.assemble", None),
        (harness, "assemble_global", "fom.assemble", None),
        (fom, "solve_newton", "fom.newton", _newton_hook),
        (harness, "solve_newton", "fom.newton", _newton_hook),
        (fom, "saddle_lu", "fom.lu", _lu_hook("fom")),
        (fom.GlobalFomSystem, "advection_jacobian", "fom.advection_jacobian", None),
        (fom.GlobalFomSystem, "advection_value", "fom.advection_value", None),
        # reduction
        (harness, "build_pod_basis", "reduction.pod", None),
        (harness, "project_linear", "reduction.project", None),
        (reduction, "project_linear", "reduction.project", None),
        (harness, "build_advection_tensor", "reduction.tensor_build", None),
        (rom, "tensor_jacobian", "reduction.tensor_jacobian", None),
        (rom, "tensor_contract", "reduction.tensor_contract", None),
        # eqp
        (harness, "build_manifest", "eqp.manifest", None),
        (eqp, "build_manifest", "eqp.manifest", None),
        (harness, "train_rule", "eqp.nnls", _rule_hook),
        (eqp, "train_rule", "eqp.nnls", _rule_hook),
        (rom, "eqp_advection_jacobian", "eqp.jacobian", None),
        (rom, "eqp_advection_value", "eqp.value", None),
        (eqp, "attach_basis_data", "eqp.attach", None),
        # rom
        (rom, "assemble_global_rom", "rom.assemble", None),
        (rom, "solve_rom_newton", "rom.newton", _newton_hook),
        (rom, "saddle_lu", "rom.lu", _lu_hook("rom")),
        (rom.GlobalRomSystem, "advection_jacobian", "rom.advection_jacobian", None),
        (rom.GlobalRomSystem, "advection_value", "rom.advection_value", None),
        (rom, "lift", "rom.lift", None),
        (rom, "relative_errors", "rom.errors", None),
        # cli / _binio
        (cli, "cmd_train", "cli.train", None),
        (cli, "cmd_train_eqp", "cli.train_eqp", None),
        (cli, "cmd_predict_rom", "cli.predict", None),
        (reduction, "load_basis", "binio.read", None),
        (reduction, "load_tensor", "binio.read", None),
        (eqp, "load_rule", "eqp.load_rule", None),
        (fom, "load_solution", "binio.read", None),
        (rom, "load_rom_solution", "binio.read", None),
        (cli, "save_basis", "binio.write", None),
        (cli, "save_tensor", "binio.write", None),
        (cli, "save_rule", "binio.write", None),
        (fom, "save_solution", "binio.write", None),
        (rom, "save_rom_solution", "binio.write", None),
    ]
    restore = []
    try:
        for owner, attr, name, after in targets:
            restore.append(_wrap(tracer, owner, attr, name, after))
        yield tracer
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)


# --- per-layer metrics ------------------------------------------------------

# (metric suffix, unit, span names, statistic).  Statistics per op span:
# "time" sums durations, "self" sums self times, "calls" counts spans, and
# "count:<key>" / "mean:<key>" sum / average a recorded count.
_ROM_COMMON = [
    ("rom.assemble_s", "s", ("rom.assemble",), "time"),
    ("rom.advection_jacobian_s", "s", ("rom.advection_jacobian",), "time"),
    ("rom.advection_value_s", "s", ("rom.advection_value",), "time"),
    ("rom.lu_s", "s", ("rom.lu",), "time"),
    ("rom.lu_calls", "count", ("rom.lu",), "calls"),
    ("rom.lu_fill_nnz", "count", ("rom.lu",), "mean:fill_nnz"),
    ("rom.saddle_nnz", "count", ("rom.lu",), "mean:saddle_nnz"),
    ("rom.backsolve_s", "s", ("rom.backsolve",), "time"),
    ("rom.newton_self_s", "s", ("rom.newton",), "self"),
    ("rom.newton_iters", "count", ("rom.newton",), "count:iters"),
    ("rom.lift_s", "s", ("rom.lift",), "time"),
]
_COLD_COMMON = [
    ("weakforms.component_set_s", "s", ("weakforms.component_set",), "time"),
    ("reduction.project_s", "s", ("reduction.project",), "time"),
    ("binio.read_s", "s", ("binio.read", "eqp.load_rule"), "time"),
    ("binio.write_s", "s", ("binio.write",), "time"),
    ("rom.lu_s", "s", ("rom.lu",), "time"),
    ("rom.newton_self_s", "s", ("rom.newton",), "self"),
    ("cli.predict_self_s", "s", ("cli.predict",), "self"),
]
LAYER_METRICS = {
    "setup": [
        ("weakforms.component_set_s", "s", ("weakforms.component_set",), "time"),
        ("harness.snapshots_s", "s", ("harness.snapshots",), "time"),
        ("fom.lu_s", "s", ("fom.lu",), "time"),
        ("fom.backsolve_s", "s", ("fom.backsolve",), "time"),
        ("reduction.pod_s", "s", ("reduction.pod",), "time"),
        ("reduction.project_s", "s", ("reduction.project",), "time"),
        ("reduction.tensor_build_s", "s", ("reduction.tensor_build",), "time"),
        ("eqp.manifest_s", "s", ("eqp.manifest",), "time"),
        ("eqp.nnls_s", "s", ("eqp.nnls",), "time"),
        ("binio.read_s", "s", ("binio.read",), "time"),
        ("binio.write_s", "s", ("binio.write",), "time"),
        ("cli.self_s", "s", ("cli.train", "cli.train_eqp"), "self"),
    ],
    "fom_predict": [
        ("fom.assemble_s", "s", ("fom.assemble",), "time"),
        ("fom.lu_s", "s", ("fom.lu",), "time"),
        ("fom.lu_calls", "count", ("fom.lu",), "calls"),
        ("fom.lu_fill_nnz", "count", ("fom.lu",), "mean:fill_nnz"),
        ("fom.backsolve_s", "s", ("fom.backsolve",), "time"),
        ("fom.advection_jacobian_s", "s", ("fom.advection_jacobian",), "time"),
        ("fom.advection_value_s", "s", ("fom.advection_value",), "time"),
        ("fom.newton_self_s", "s", ("fom.newton",), "self"),
        ("fom.newton_iters", "count", ("fom.newton",), "count:iters"),
    ],
    "rom_tensorial_predict": _ROM_COMMON
    + [
        ("reduction.tensor_jacobian_s", "s", ("reduction.tensor_jacobian",), "time"),
        ("reduction.tensor_jacobian_calls", "count", ("reduction.tensor_jacobian",), "calls"),
        ("reduction.tensor_contract_s", "s", ("reduction.tensor_contract",), "time"),
        ("reduction.tensor_contract_calls", "count", ("reduction.tensor_contract",), "calls"),
    ],
    "rom_eqp_predict": _ROM_COMMON
    + [
        ("eqp.jacobian_s", "s", ("eqp.jacobian",), "time"),
        ("eqp.jacobian_calls", "count", ("eqp.jacobian",), "calls"),
        ("eqp.value_s", "s", ("eqp.value",), "time"),
        ("eqp.value_calls", "count", ("eqp.value",), "calls"),
    ],
    "check": [
        ("rom.errors_s", "s", ("rom.errors",), "time"),
    ],
    "cold_predict_tensorial": _COLD_COMMON,
    "cold_predict_eqp": _COLD_COMMON
    + [
        ("eqp.load_s", "s", ("eqp.load_rule", "eqp.attach"), "time"),
    ],
}

# Prefix of each op in per-layer metric names.
OP_PREFIX = {
    "setup": "setup",
    "fom_predict": "fom_predict",
    "rom_tensorial_predict": "rom_tensorial",
    "rom_eqp_predict": "rom_eqp",
    "check": "check",
    "cold_predict_tensorial": "cold_tensorial",
    "cold_predict_eqp": "cold_eqp",
}


def layer_metric_units() -> dict:
    """Every per-layer metric name with its unit, in a fixed order."""
    units = {}
    for op, specs in LAYER_METRICS.items():
        units[f"{OP_PREFIX[op]}.total_s"] = "s"
        for suffix, unit, _, _ in specs:
            units[f"{OP_PREFIX[op]}.{suffix}"] = unit
    return units


def _op_units(tracer: Tracer):
    """Group span indices by their top-level op span."""
    root = []
    units = {}
    for i, s in enumerate(tracer.spans):
        r = i if s.parent is None else root[s.parent]
        root.append(r)
        units.setdefault(r, []).append(i)
    return units


def _stat(spans, selfs, idx, names, stat):
    chosen = [i for i in idx if spans[i].name in names]
    if stat == "time":
        return sum(spans[i].duration for i in chosen)
    if stat == "self":
        return sum(selfs[i] for i in chosen)
    if stat == "calls":
        return len(chosen)
    kind, key = stat.split(":")
    values = [spans[i].counts[key] for i in chosen if key in spans[i].counts]
    if kind == "count":
        return sum(values)
    return sum(values) / len(values) if values else 0.0


def per_layer(tracer: Tracer) -> dict:
    """Median over op spans (cases or set-ups) of each per-layer metric."""
    spans = tracer.spans
    selfs = tracer.self_times()
    per_op = {op: {} for op in LAYER_METRICS}
    for r, idx in _op_units(tracer).items():
        op = spans[r].name
        if op not in LAYER_METRICS:
            continue
        rows = per_op[op]
        rows.setdefault("total_s", []).append(spans[r].duration)
        for suffix, _, names, stat in LAYER_METRICS[op]:
            rows.setdefault(suffix, []).append(_stat(spans, selfs, idx, names, stat))
    out = {}
    for op, rows in per_op.items():
        prefix = OP_PREFIX[op]
        for suffix, values in rows.items():
            out[f"{prefix}.{suffix}"] = statistics.median(values)
    return out


def span_summary(tracer: Tracer) -> dict:
    """Totals per (op, span name): calls, time, self time and summed counts."""
    spans = tracer.spans
    selfs = tracer.self_times()
    summary = {}
    for r, idx in _op_units(tracer).items():
        op = summary.setdefault(spans[r].name, {"units": 0, "spans": {}})
        op["units"] += 1
        for i in idx:
            s = spans[i]
            entry = op["spans"].setdefault(
                s.name, {"calls": 0, "time_s": 0.0, "self_s": 0.0, "counts": {}}
            )
            entry["calls"] += 1
            entry["time_s"] += s.duration
            entry["self_s"] += selfs[i]
            for key, value in s.counts.items():
                entry["counts"][key] = entry["counts"].get(key, 0) + value
    return summary
