"""Table of FOM and ROM predict times per grid size, with each layer's share.

    python3 perfbench/reanchor.py --sizes 4 12 --cases 2 --out perfbench/trajectory/01-baseline

Sets up once through the command line, as run.py does, then solves
``--cases`` random arrays per size full-order and by both reduced backends
with tracing off.  One more array per size is solved with tracing on, to
give the share of each layer in the solve.  Writes ``reanchor.json`` and
``reanchor.md`` to ``--out``.  A 12x12 case takes about 75 s for its three
solves and about 1 GB of memory on one core.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import run  # sets the thread variables before numpy is imported
import tracing

import numpy as np  # noqa: E402

SHARES = {
    "fom_predict": ("fom.lu_s", "fom.advection_jacobian_s", "fom.newton_self_s", "fom.assemble_s"),
    "rom_tensorial": ("rom.lu_s", "reduction.tensor_jacobian_s", "rom.newton_self_s", "rom.assemble_s"),
    "rom_eqp": ("rom.lu_s", "eqp.jacobian_s", "rom.newton_self_s", "rom.assemble_s"),
}


def measure_size(r: run.Run, size: int, cases: int, seed: int) -> dict:
    rng = np.random.default_rng([seed, size])
    times = {"fom": [], **{b: [] for b in run.BACKENDS}}
    row = {"L": size, "cases": []}
    for _ in range(cases):
        grid = r.grid(int(rng.integers(0, 2**31 - 1)), size)
        t0 = time.perf_counter()
        system, u, p, report = r.solve_fom(grid)
        times["fom"].append(time.perf_counter() - t0)
        case = {"fom_dofs": system.n_dof, "fom_iters": report.newton_iterations}
        for b in run.BACKENDS:
            t0 = time.perf_counter()
            rsys, _, _, rrep, lifted = r.solve_rom(grid, b)
            times[b].append(time.perf_counter() - t0)
            err = run.rom.relative_errors(system, u, p, lifted)["velocity_rel_l2"]
            case.update({"rom_dim": rsys.n_dof, f"{b}_iters": rrep.newton_iterations, f"vel_err_{b}": err})
        row["cases"].append(case)
    row["fom_dofs"] = statistics.median(c["fom_dofs"] for c in row["cases"])
    row["rom_dim"] = row["cases"][0]["rom_dim"]
    row["fom_predict_s"] = statistics.median(times["fom"])
    for b in run.BACKENDS:
        row[f"rom_{b}_predict_s"] = statistics.median(times[b])
        row[f"speedup_{b}"] = row["fom_predict_s"] / row[f"rom_{b}_predict_s"]

    tracer = tracing.Tracer()
    r.tracer = tracer
    grid = r.grid(int(rng.integers(0, 2**31 - 1)), size)
    with tracing.instrument(tracer):
        with r.op("fom_predict", "traced"):
            r.solve_fom(grid)
        for b in run.BACKENDS:
            with r.op(f"rom_{b}_predict", "traced"):
                r.solve_rom(grid, b)
    r.tracer = None
    layers = tracing.per_layer(tracer)
    row["traced_layers"] = layers
    row["shares"] = {
        prefix: {m: layers[f"{prefix}.{m}"] / layers[f"{prefix}.total_s"] for m in names}
        for prefix, names in SHARES.items()
    }
    return row


def markdown(rows: list, setup_s: float, env: dict) -> str:
    lines = [
        f"Set-up (train + train-eqp, one run): {setup_s:.1f} s. "
        f"Medians over {len(rows[0]['cases'])} cases per size, tracing off; "
        "shares from one more traced case per size.",
        f"Machine: {env['cpu_model']}, nproc {env['nproc']}, one BLAS thread; "
        f"numpy {env['numpy']}, scipy {env['scipy']}.",
        "",
        "| L | FOM dofs | FOM predict | ROM dim | ROM predict (tensorial / EQP) | speedup (tensorial / EQP) "
        "| FOM LU share | ROM LU share (tensorial / EQP) | EQP Jacobian share |",
        "| --- | --- | --- | --- | --- | --- | --- | --- | --- |",
    ]
    for r in rows:
        s = r["shares"]
        lines.append(
            f"| {r['L']} | {r['fom_dofs']:,.0f} | {r['fom_predict_s']:.2f} s | {r['rom_dim']:,} "
            f"| {r['rom_tensorial_predict_s']:.2f} s / {r['rom_eqp_predict_s']:.2f} s "
            f"| {r['speedup_tensorial']:.2f} / {r['speedup_eqp']:.2f} "
            f"| {s['fom_predict']['fom.lu_s']:.0%} "
            f"| {s['rom_tensorial']['rom.lu_s']:.0%} / {s['rom_eqp']['rom.lu_s']:.0%} "
            f"| {s['rom_eqp']['eqp.jacobian_s']:.0%} |"
        )
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[4, 12])
    parser.add_argument("--cases", type=int, default=2)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    wl = dataclasses.replace(run.WORKLOADS["scaled-3x3"], name="reanchor", setups=1)
    env = run.run_environment(args.seed)
    run.OUT_DIR.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-reanchor-", dir=run.OUT_DIR))
    try:
        r = run.Run(wl, args.seed, work)
        r.setup(0)
        rows = [measure_size(r, L, args.cases, args.seed) for L in args.sizes]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setup_s = r.times["setup"][0]
    args.out.mkdir(parents=True, exist_ok=True)
    record = {"environment": env, "config": dataclasses.asdict(r.cfg), "setup_s": setup_s, "rows": rows}
    (args.out / "reanchor.json").write_text(json.dumps(record, indent=1) + "\n")
    table = markdown(rows, setup_s, env)
    (args.out / "reanchor.md").write_text(table)
    print(table)
    return 0


if __name__ == "__main__":
    sys.exit(main())
