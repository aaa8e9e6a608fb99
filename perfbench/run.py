"""Offline/online benchmark of cromflow.

One run sets up a model several times through the command line (``cromflow
train`` then ``cromflow train-eqp`` into a fresh directory), then solves
random LxL arrays back to back for about ``--seconds`` seconds.  Each case is
solved full-order, by both reduced backends in-process, and by a cold
``cromflow predict-rom`` call per backend that reads the trained artifacts.
Every output is checked; failures are counted, not raised.

    python3 perfbench/run.py --workload scaled-3x3 --seed 1 --seconds 18 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` the same loop runs
with every layer boundary wrapped in spans and the metrics are per layer.
Full records go to ``perfbench/out/``.
"""

from __future__ import annotations

import os

# BLAS reads these when numpy is first imported, so they are set before it.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import filecmp
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import cromflow  # noqa: E402
from cromflow import cli, fom, geometry, harness, reduction, rom  # noqa: E402
from cromflow.eqp import attach_basis_data, load_rule  # noqa: E402

import tracing  # noqa: E402

if not Path(cromflow.__file__).resolve().is_relative_to(SRC):
    raise ImportError(f"cromflow imported from {cromflow.__file__}, not from {SRC}")

# Criterion 6's tolerance on the mean velocity error over the cases, and
# criterion 5's floor on the tolerance between the backends.
VEL_ERR_TOL = 0.10
BACKEND_TOL_FLOOR = 0.005
# A cold predict-rom call must reproduce the in-process reduced solve.
COLD_MATCH_TOL = 1e-6
BACKENDS = (rom.TENSORIAL, rom.EQP)
# Checks whose failure the program itself reports.  Such an operation is
# counted as failed; any other failed check is a wrong answer and makes the
# run incorrect.
REPORTED = ("converged", "reports_converged")

# Timed op behind each timing metric.
TIMED_OPS = {
    "setup_s": "setup",
    "fom_predict_s": "fom_predict",
    "rom_tensorial_predict_s": "rom_tensorial_predict",
    "rom_eqp_predict_s": "rom_eqp_predict",
    "cold_predict_tensorial_s": "cold_predict_tensorial",
    "cold_predict_eqp_s": "cold_predict_eqp",
}
E2E_UNITS = {**{metric: "s" for metric in TIMED_OPS}, "peak_rss_mb": "MB"}


@dataclass(frozen=True)
class Workload:
    name: str
    grid_size: int
    why: str
    # Nominal cost of one case (its five solves and checks), which sizes the
    # run: ``--seconds / case_s`` cases.
    case_s: float = 1.0
    config: dict = field(default_factory=lambda: {"train_samples": 40})
    setups: int = 3

    def cases(self, seconds: float) -> int:
        """Cases in a run of ``seconds``: fixed, so a seed always gives the same work."""
        return max(1, round(seconds / self.case_s))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "scaled-3x3",
            3,
            "arrays larger than the 2x2 training arrays: sparse LU, per-subdomain "
            "advection kernels and assembly take most of each solve",
            case_s=2.0,
        ),
        Workload(
            "cold-2x2",
            2,
            "training-size arrays: each solve is cheap, so the cold call's "
            "component-set rebuild, re-projection and file I/O dominate",
            case_s=1.0,
        ),
    )
}


# --- run environment ----------------------------------------------------------


def _calibration_s() -> float:
    """Median time of a fixed 600x600 matmul, to show machine drift."""
    a = np.random.default_rng(0).standard_normal((600, 600))
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        a @ a
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
        capture_output=True,
        text=True,
        timeout=30,
    )
    return proc.stdout.strip() or None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "cromflow").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run_environment(seed: int) -> dict:
    return {
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


# --- one run ------------------------------------------------------------------


class Run:
    """Set-ups, model, measured loop and per-op records of one benchmark run."""

    def __init__(self, wl: Workload, seed: int, work: Path, tracer=None):
        self.wl = wl
        self.seed = seed
        self.work = work
        self.tracer = tracer
        self.cfg = harness.ExperimentConfig(**wl.config)
        self.cfg_path = work / "config.json"
        self.cfg.to_json(self.cfg_path)
        self.times = {op: [] for op in TIMED_OPS.values()}
        self.attempted = 0
        self.failures = []
        self.cases = []
        self.artifacts = None
        self.loop_s = 0.0

    @contextlib.contextmanager
    def op(self, name: str, case: str):
        """Time one operation; with tracing on it is also the top-level span."""
        if self.tracer is None:
            yield
            return
        self.tracer.case = case
        with self.tracer.span(name):
            yield

    def timed(self, name: str, case: str, fn):
        """Run and time one attempted operation; an exception is a failure."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            with self.op(name, case):
                result = fn()
        except Exception:  # counted, so the loop keeps running
            self.times[name].append(time.perf_counter() - t0)
            self.fail(name, case, traceback.format_exc(limit=3), wrong=False)
            return None
        self.times[name].append(time.perf_counter() - t0)
        return result

    def fail(self, name: str, case: str, reason: str, wrong: bool):
        """Record a failed operation; ``wrong`` marks an answer the program did not flag."""
        self.failures.append({"op": name, "case": case, "reason": reason, "wrong": wrong})

    def cli(self, *argv) -> str:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main([str(a) for a in argv])
        if code != 0:
            raise RuntimeError(f"cromflow {argv[0]} exited with {code}")
        return out.getvalue()

    def run(self, seconds: float):
        """Set-ups alternate with equal slices of the measured loop.

        Spreading the cases over the whole run, rather than after all
        set-ups, averages them over more of the machine's slow and fast
        phases.  The number of cases is fixed by ``seconds``, not by the
        clock, so the same seed gives the same cases, attempts and failures
        on a fast machine and a slow one.
        """
        rng = np.random.default_rng(self.seed)
        n, k_setups = self.wl.cases(seconds), self.wl.setups
        for k in range(k_setups):
            self.setup(k)
            t0 = time.perf_counter()
            self.loop(rng, n * (k + 1) // k_setups - n * k // k_setups)
            self.loop_s += time.perf_counter() - t0
        for name, acc in self.accuracy().items():
            if acc["cases"] and acc["mean"] > VEL_ERR_TOL:
                self.fail(name, "all", f"mean velocity error {acc['mean']:.4f}", wrong=True)

    # -- offline phase

    def setup(self, k: int):
        """One timed offline phase into a fresh directory.

        The first one's artifacts serve the whole run; later ones must
        write the same bytes, since training is seeded.
        """
        out = self.work / f"setup{k}"

        def train():
            self.cli("train", "--config", self.cfg_path, "--out-dir", out)
            self.cli("train-eqp", "--config", self.cfg_path, "--out-dir", out)

        failures = len(self.failures)
        self.timed("setup", f"setup-{k}", train)
        if len(self.failures) > failures:
            raise RuntimeError("set-up failed:\n" + self.failures[-1]["reason"])
        if self.artifacts is None:
            self.artifacts = out
            with self.op("load", "load"):
                self.load_model()
            return
        differ = [
            p.name for p in sorted(out.iterdir())
            if not filecmp.cmp(p, self.artifacts / p.name, shallow=False)
        ]
        if differ:
            self.fail("setup", f"setup-{k}", "artifacts differ from the first set-up: " + ", ".join(differ), wrong=True)
        shutil.rmtree(out)

    def load_model(self):
        """In-process reduced model, read from the artifacts as predict-rom reads them."""
        cfg, art = self.cfg, self.artifacts
        self.parts = harness.build_component_set(cfg)
        bases = {n: reduction.load_basis(art / f"basis_{n}.bin") for n in cfg.components}
        self.reduced, self.riface = reduction.project_linear(
            self.parts.operators, self.parts.interface_blocks, bases
        )
        eps = []
        for n in cfg.components:
            red = self.reduced[n]
            red.tensor = reduction.load_tensor(art / f"tensor_{n}.bin")
            rule = load_rule(art / f"eqp_{n}.bin")
            red.eqp_rule = attach_basis_data(rule, self.parts.operators[n], bases[n].phi_u)
            eps.append(rule.eps)
        self.backend_tol = max(2.0 * max(eps), BACKEND_TOL_FLOOR)

    # -- online phase

    def grid(self, case_seed: int, size: int | None = None):
        """The array ``cromflow predict-rom --seed case_seed`` draws."""
        L, cfg = size or self.wl.grid_size, self.cfg
        rng = np.random.default_rng(case_seed)
        cells = harness.random_cells(rng, L, L, cfg.components)
        sample = harness.sample_inflow(rng)
        return geometry.GridConfig(L, L, cells, cfg.viscosity, harness.bc_from_sample(sample))

    def solve_fom(self, grid):
        system = fom.assemble_global(grid, self.parts.operators, self.parts.interface_blocks)
        u, p, report = fom.solve_newton(
            system, tol_rel=self.cfg.newton_tol, max_iter=self.cfg.newton_max_iter
        )
        return system, u, p, report

    def solve_rom(self, grid, backend):
        system = rom.assemble_global_rom(grid, self.reduced, self.riface, backend)
        uh, ph, report = rom.solve_rom_newton(
            system, tol_rel=self.cfg.newton_tol, max_iter=self.cfg.newton_max_iter
        )
        return system, uh, ph, report, rom.lift(system, uh, ph)

    def cold_predict(self, case_seed, backend):
        (self.artifacts / "rom_solution.bin").unlink(missing_ok=True)
        return self.cli(
            "predict-rom", "--config", self.cfg_path, "--out-dir", self.artifacts,
            "--grid-size", self.wl.grid_size, "--seed", case_seed, "--backend", backend,
        )

    def run_case(self, index: int, case_seed: int):
        case = f"case-{index}"
        grid = self.grid(case_seed)
        f = self.timed("fom_predict", case, lambda: self.solve_fom(grid))
        r = {b: self.timed(f"rom_{b}_predict", case, lambda b=b: self.solve_rom(grid, b)) for b in BACKENDS}
        cold = {}
        for b in BACKENDS:
            cold[b] = self.timed(f"cold_predict_{b}", case, lambda b=b: self.cold_predict(case_seed, b))
            if cold[b] is not None:
                # set aside before the next call writes the same file
                (self.artifacts / "rom_solution.bin").replace(self.work / f"cold_{b}.bin")

        row = {"case": case, "seed": case_seed}
        try:
            with self.op("check", case):
                checks = self.check_case(row, f, r, cold)
        except Exception:  # a check that cannot run fails the case
            self.fail("check", case, traceback.format_exc(limit=3), wrong=True)
            checks = {}
        for name, results in checks.items():
            reported = [k for k in REPORTED if results.get(k) is False]
            bad = [k for k, ok in results.items() if not ok]
            if reported:
                self.fail(name, case, "not converged, as reported", wrong=False)
            elif bad:
                self.fail(name, case, "failed checks: " + ", ".join(bad), wrong=True)
        row["checks"] = checks
        self.cases.append(row)

    def check_case(self, row: dict, f, r: dict, cold: dict) -> dict:
        """Per-op pass/fail of one case's outputs; fills ``row`` with its figures."""
        checks = {}
        if f is not None:
            fsys, u, p, report = f
            row.update(fom_dofs=fsys.n_dof, fom_iters=report.newton_iterations)
            checks["fom_predict"] = {"converged": report.converged}
        for b in BACKENDS:
            if r[b] is None:
                continue
            rsys, _, _, report, lifted = r[b]
            row.update({"rom_dim": rsys.n_dof, f"rom_{b}_iters": report.newton_iterations})
            checks[f"rom_{b}_predict"] = {"converged": report.converged}
            if f is not None and f[3].converged and report.converged:
                row[f"vel_err_{b}"] = rom.relative_errors(fsys, u, p, lifted)["velocity_rel_l2"]
        if all(f"vel_err_{b}" in row for b in BACKENDS):
            diff = self.backend_diff(fsys, r[rom.TENSORIAL][-1], r[rom.EQP][-1])
            row["backend_vel_diff"] = diff
            checks[f"rom_{rom.EQP}_predict"]["backend_agreement"] = diff <= self.backend_tol

        lifted_cold = {}
        for b in BACKENDS:
            if cold[b] is None:
                continue
            c = checks[f"cold_predict_{b}"] = {"reports_converged": "converged=True" in cold[b]}
            if not c["reports_converged"]:
                continue
            sol = rom.load_rom_solution(self.work / f"cold_{b}.bin")
            uh, ph = sol["u_hat"], sol["p_hat"]
            c["finite"] = bool(np.isfinite(uh).all() and np.isfinite(ph).all())
            if r[b] is not None:
                rsys, uh_in = r[b][0], r[b][1]
                dev = float(np.linalg.norm(uh - uh_in) / max(np.linalg.norm(uh_in), 1e-300))
                row[f"cold_{b}_deviation"] = dev
                c["matches_in_process"] = dev <= COLD_MATCH_TOL
                lifted_cold[b] = rom.lift(rsys, uh, ph)
        if f is not None and len(lifted_cold) == len(BACKENDS):
            diff = self.backend_diff(fsys, lifted_cold[rom.TENSORIAL], lifted_cold[rom.EQP])
            row["cold_backend_vel_diff"] = diff
            checks[f"cold_predict_{rom.EQP}"]["backend_agreement"] = diff <= self.backend_tol
        return {op: {k: bool(v) for k, v in c.items()} for op, c in checks.items()}

    @staticmethod
    def backend_diff(fom_system, a, b) -> float:
        """Relative L2 velocity difference of two lifted solutions (criterion 5)."""
        return rom.relative_errors(fom_system, a.u, a.p, b)["velocity_rel_l2"]

    def loop(self, rng, cases: int):
        for _ in range(cases):
            self.run_case(len(self.cases), int(rng.integers(0, 2**31 - 1)))

    # -- results

    def e2e_metrics(self) -> dict:
        values = {}
        for metric, op in TIMED_OPS.items():
            values[metric] = statistics.median(self.times[op]) if self.times[op] else None
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return values

    def samples(self) -> dict:
        n = {metric: len(self.times[op]) for metric, op in TIMED_OPS.items()}
        n["peak_rss_mb"] = 1
        return n

    def accuracy(self) -> dict:
        """Velocity error of each backend against FOM over the converged cases."""
        out = {}
        for b in BACKENDS:
            errs = [c[f"vel_err_{b}"] for c in self.cases if f"vel_err_{b}" in c]
            out[f"rom_{b}_predict"] = {
                "mean": statistics.mean(errs) if errs else None,
                "max": max(errs) if errs else None,
                "cases": len(errs),
                "cases_over_tol": sum(e > VEL_ERR_TOL for e in errs),
            }
        return out

    @property
    def failed(self) -> int:
        return len({(f["op"], f["case"]) for f in self.failures})

    @property
    def correct(self) -> bool:
        return not any(f["wrong"] for f in self.failures)


def _speedups(values: dict) -> dict:
    out = {}
    for b in BACKENDS:
        fom_t, rom_t = values.get("fom_predict_s"), values.get(f"rom_{b}_predict_s")
        out[f"speedup_{b}"] = fom_t / rom_t if fom_t and rom_t else None
    return out


def _describe(values: dict, units: dict, samples: dict | None = None) -> list[str]:
    lines = []
    for name, unit in units.items():
        v = values.get(name)
        text = "n/a" if v is None else f"{v:.6g}"
        extra = f"  (n={samples[name]})" if samples and name in samples else ""
        lines.append(f"{name}: {text} {unit}{extra}")
    return lines


def _kernel_counts(run: Run) -> dict:
    """Operation counts computed from sizes, not measured."""
    comps = {}
    for name, red in run.reduced.items():
        r = red.tensor.shape[0]
        q = red.eqp_rule.n_points
        comps[name] = {
            "velocity_basis_size": r,
            "eqp_points": q,
            # tensor @ u and the einsum over the middle index: r^3 mult-adds each
            "tensor_jacobian_flops": 4 * r**3 + r**2,
            "tensor_contract_flops": 2 * r**3 + 2 * r**2,
            # u, grad u at points (2 and 4 components), u.grad u, weighted test
            "eqp_value_flops": 18 * q * r + 8 * q,
            # as above plus the two (q, 2, r) linearised terms and the r x r product
            "eqp_jacobian_flops": 4 * q * r * r + 30 * q * r,
        }
    return {
        "label": "computed from sizes, not measured",
        "per_component": comps,
        "lu_bytes_formula": "12 * fill_nnz (8-byte value + 4-byte row index per factor entry)",
    }


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool, out_dir: Path):
    """One benchmark run; returns the result line, the full record and its path."""
    out_dir.mkdir(parents=True, exist_ok=True)
    env = run_environment(seed)
    env["calibration_start_s"] = _calibration_s()
    work = Path(tempfile.mkdtemp(prefix=f"work-{wl.name}-", dir=out_dir))
    tracer = tracing.Tracer() if trace else None
    try:
        run = Run(wl, seed, work, tracer)
        with tracing.instrument(tracer) if trace else contextlib.nullcontext():
            run.run(seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env["calibration_end_s"] = _calibration_s()

    e2e = run.e2e_metrics()
    record = {
        "workload": wl.name,
        "why": wl.why,
        "grid_size": wl.grid_size,
        "config": asdict(run.cfg),
        "setups": wl.setups,
        "seconds": seconds,
        "loop_s": run.loop_s,
        "trace": bool(trace),
        "environment": env,
        "metrics": {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e.items()},
        "samples": run.samples(),
        "times": run.times,
        "derived": _speedups(e2e),
        "accuracy": run.accuracy(),
        "attempted": run.attempted,
        "failed": run.failed,
        "fail_ratio": run.failed / run.attempted,
        "failures": run.failures,
        "cases": run.cases,
    }
    if trace:
        units = tracing.layer_metric_units()
        layers = tracing.per_layer(tracer)
        metrics = {k: {"value": layers.get(k), "unit": u} for k, u in units.items()}
        record["per_layer"] = metrics
        record["span_summary"] = tracing.span_summary(tracer)
        record["kernel_counts"] = _kernel_counts(run)
        untraced = out_dir / f"e2e-{wl.name}-seed{seed}.json"
        if untraced.exists():
            base = json.loads(untraced.read_text())["metrics"]
            record["tracing_overhead_s"] = {
                k: e2e[k] - base[k]["value"]
                for k in TIMED_OPS
                if e2e.get(k) is not None and base.get(k, {}).get("value") is not None
            }
        record["spans"] = tracer.to_json()
        path = out_dir / f"trace-{wl.name}-seed{seed}.json"
    else:
        metrics = record["metrics"]
        path = out_dir / f"e2e-{wl.name}-seed{seed}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    result = {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    return result, record, path


def main(argv=None, workloads=WORKLOADS) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    wl = workloads[args.workload]
    result, record, path = run_workload(wl, args.seed, args.seconds, bool(args.trace), OUT_DIR)
    print(f"workload {wl.name}: {wl.why}")
    print(f"cases {len(record['cases'])}, set-ups {wl.setups}, loop {record['loop_s']:.1f} s, record {path}")
    print(f"attempted {record['attempted']}, failed {record['failed']}, fail_ratio {record['fail_ratio']:.4g}")
    for f in record["failures"]:
        label = "WRONG" if f["wrong"] else "FAILED"
        print(f"{label} {f['op']} {f['case']}: {f['reason'].strip().splitlines()[-1]}")
    e2e = {k: m["value"] for k, m in record["metrics"].items()}
    print("\n".join(_describe(e2e, E2E_UNITS, record["samples"])))
    for name, a in record["accuracy"].items():
        print(
            f"{name} velocity error: mean {a['mean']:.4g}, max {a['max']:.4g} over {a['cases']} cases "
            f"({a['cases_over_tol']} above {VEL_ERR_TOL}; the mean is checked)"
            if a["cases"] else f"{name}: n/a"
        )
    for name, v in record["derived"].items():
        print(f"{name} (derived, FOM/ROM median predict time): " + ("n/a" if v is None else f"{v:.3f}"))
    if args.trace:
        layers = {k: m["value"] for k, m in record["per_layer"].items()}
        print("\n".join(_describe(layers, tracing.layer_metric_units())))
        for k, v in record.get("tracing_overhead_s", {}).items():
            print(f"tracing overhead {k}: {v:+.4f} s")
    env = record["environment"]
    print(
        f"calibration 600x600 matmul: start {env['calibration_start_s']*1e3:.1f} ms, "
        f"end {env['calibration_end_s']*1e3:.1f} ms"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
