"""Fast smoke test of the benchmark on a tiny configuration.

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json

import pytest

import run
import tracing

TINY = run.Workload(
    "smoke-2x2",
    2,
    "smoke test",
    config={
        "n_per_side": 4,
        "train_samples": 12,
        "basis_size": 6,
    },
    setups=2,
)
ARGS = ["--workload", TINY.name, "--seed", "3", "--seconds", "0"]


@pytest.fixture(autouse=True)
def _out_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    # Six modes on a 4-segment mesh reach about 0.4 velocity error; the
    # smoke test checks the machinery, not the accuracy of this tiny model.
    monkeypatch.setattr(run, "VEL_ERR_TOL", 0.5)


def _main(capsys, trace):
    assert run.main(ARGS + ["--trace", str(trace)], workloads={TINY.name: TINY}) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


def test_every_end_to_end_metric_prints_with_its_unit(capsys):
    lines, result = _main(capsys, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    # two set-ups plus five operations on the one case
    assert result["attempted"] == 2 + 5
    assert set(result["metrics"]) == set(run.E2E_UNITS)
    for name, unit in run.E2E_UNITS.items():
        metric = result["metrics"][name]
        assert metric["unit"] == unit and metric["value"] > 0
        assert any(line.startswith(f"{name}: ") and f" {unit}" in line for line in lines)


def test_a_seed_fixes_the_cases_whatever_the_clock(capsys, monkeypatch):
    args = ["--workload", TINY.name, "--seed", "5", "--seconds", "2", "--trace", "0"]
    records = []
    for _ in range(2):
        assert run.main(args, workloads={TINY.name: TINY}) == 0
        capsys.readouterr()
        records.append(json.loads((run.OUT_DIR / f"e2e-{TINY.name}-seed5.json").read_text()))
        # the second run sees a clock that races ahead
        clock = iter(range(0, 10**9, 1000))
        monkeypatch.setattr(run.time, "perf_counter", lambda: float(next(clock)))
    assert [c["seed"] for c in records[0]["cases"]] == [c["seed"] for c in records[1]["cases"]]
    assert len(records[0]["cases"]) == TINY.cases(2) == 2
    assert records[0]["attempted"] == records[1]["attempted"] == 2 + 5 * 2


def test_failures_are_counted_not_raised(capsys, monkeypatch):
    solve = run.rom.solve_rom_newton

    def never_converges(*args, **kwargs):
        u, p, report = solve(*args, **kwargs)
        report.converged = False
        return u, p, report

    monkeypatch.setattr(run.rom, "solve_rom_newton", never_converges)
    lines, result = _main(capsys, trace=0)
    assert result["attempted"] == 2 + 5
    # both in-process reduced solves and both cold calls; each says so, so
    # no answer is wrong
    assert result["failed"] == 4
    assert result["correct"]
    assert sum(line.startswith("FAILED ") for line in lines) == 4
    assert set(result["metrics"]) == set(run.E2E_UNITS)


def test_a_wrong_answer_makes_the_run_incorrect(capsys, monkeypatch):
    load = run.rom.load_rom_solution

    def perturbed(path):
        sol = load(path)
        sol["u_hat"] = sol["u_hat"] * 1.01
        return sol

    monkeypatch.setattr(run.rom, "load_rom_solution", perturbed)
    lines, result = _main(capsys, trace=0)
    assert not result["correct"]
    # each cold solution no longer matches the in-process solve
    assert result["failed"] == 2
    assert sum(line.startswith("WRONG cold_predict_") for line in lines) == 2


def test_traced_spans_nest_and_account_for_their_parent(capsys):
    lines, result = _main(capsys, trace=1)
    units = tracing.layer_metric_units()
    assert set(result["metrics"]) == set(units)
    for name, unit in units.items():
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] >= 0
        assert any(line.startswith(f"{name}: ") for line in lines)

    record = json.loads((run.OUT_DIR / f"trace-{TINY.name}-seed3.json").read_text())
    spans = record["spans"]
    children = {}
    for i, s in enumerate(spans):
        if s["parent"] is not None:
            parent = spans[s["parent"]]
            assert s["parent"] < i
            assert parent["start"] <= s["start"] <= s["end"] <= parent["end"]
            assert s["case"] == parent["case"]
            children.setdefault(s["parent"], []).append(s)
    for i, kids in children.items():
        duration = spans[i]["end"] - spans[i]["start"]
        assert sum(k["end"] - k["start"] for k in kids) <= duration + 1e-9
    # the benchmark's solve ops contain nothing but traced calls
    for i, s in enumerate(spans):
        if s["parent"] is None and s["name"] in ("fom_predict", "rom_tensorial_predict"):
            covered = sum(k["end"] - k["start"] for k in children[i])
            assert covered >= 0.9 * (s["end"] - s["start"])


def test_instrumentation_is_removed_afterwards():
    before = run.rom.saddle_lu, run.cli.cmd_predict_rom, run.fom.GlobalFomSystem.advection_value
    with tracing.instrument(tracing.Tracer()):
        assert run.rom.saddle_lu is not before[0]
    after = run.rom.saddle_lu, run.cli.cmd_predict_rom, run.fom.GlobalFomSystem.advection_value
    assert after == before


def test_registry_matches_the_code():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == tracing.layer_metric_units()
