"""Self-tests of the benchmark: python3 -m pytest perfbench -q (about a minute)."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import ops
import run
from spans import HOOKS, Tracer, _holder, layer_metrics

sys.path.insert(0, str(run.ROOT / "src"))
from shearlab import cli  # noqa: E402

ORIGINALS = [(spec, attr, getattr(_holder(spec), attr)) for spec, attr, _, _ in HOOKS]
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())

END_TO_END = ("setup_s", "pipelines_per_s", "pipeline_p50_s", "cpu_per_pipeline_s",
              "peak_rss_mb")
PER_LAYER = (
    "orbit.shoot_s", "orbit.shoot_calls", "orbit.retries", "orbit.samples", "orbit.nfev",
    "orbit.reparametrize_s", "localization.evaluate_s", "localization.evaluate_calls",
    "localization.band_s", "localization.band_evaluate_calls", "localization.residual_s",
    "profile.reconstruct_s", "profile.ode_residual_s", "profile.endpoint_s",
    "pdesim.run_s", "pdesim.integrate_s", "pdesim.nfev", "pdesim.njev", "pdesim.nlu",
    "pdesim.lsoda_runs", "pdesim.diagnostics_s", "csvio.write_s", "csvio.rows",
    "csvio.bytes", "csvio.manifest_s", "stability.energy_s", "stability.integrate_mode_s",
    "stability.nfev", "stability.rk45_modes", "stability.trapezoid_modes",
    "stability.spectrum_s", "material.uniform_shear_calls", "material.uniform_shear_s",
    "cli.self_s")
COUNTS = ("orbit.samples", "orbit.nfev", "pdesim.nfev", "pdesim.njev", "pdesim.nlu",
          "stability.nfev", "csvio.rows", "csvio.bytes")
# the count metrics of the layers each workload runs
RUNS = {"localize": ("orbit.samples", "orbit.nfev", "csvio.rows", "csvio.bytes"),
        "simulate": ("pdesim.nfev", "pdesim.njev", "pdesim.nlu", "csvio.rows", "csvio.bytes"),
        "stability": ("stability.nfev", "csvio.rows", "csvio.bytes")}


@pytest.fixture
def runner(monkeypatch, tmp_path):
    monkeypatch.chdir(run.ROOT)   # configs and goldens are read relative to the checkout
    return run.Runner(cli.main, tmp_path / "ops")


def _argv(workload, seed, count=3):
    stream = ops.passes(workload, seed)
    return [[op.argv for op in next(stream)] for _ in range(count)]


@pytest.mark.parametrize("workload", ops.WORKLOADS)
def test_same_seed_gives_identical_op_list(workload):
    assert _argv(workload, 7) == _argv(workload, 7)
    assert _argv(workload, 7) != _argv(workload, 8)


def test_spec_names_every_metric():
    assert {m["name"] for m in SPEC["end_to_end"]} == set(END_TO_END)
    assert set(PER_LAYER) <= {m["name"] for m in SPEC["per_layer"]}


@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_printed_with_its_unit(monkeypatch, capsys, trace):
    monkeypatch.chdir(run.ROOT)
    code = run.main(["--workload", "stability", "--seed", "3", "--seconds", "0",
                     "--trace", trace])
    assert code == 0
    details_line, last = capsys.readouterr().out.strip().splitlines()[-2:]
    result = json.loads(last)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 4
    wanted = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert result["metrics"] == {m["name"]: {"value": result["metrics"][m["name"]]["value"],
                                             "unit": m["unit"]} for m in wanted}
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    details = json.loads(details_line.partition(": ")[2])
    assert details["failed_ratio"] == {"value": 0.0, "unit": "ratio"}


def test_injected_failures_count_in_failed_ratio(runner):
    def wrong(out):
        raise ops.CheckFailed("injected")

    good = ops.Op(("spectrum", "--jmax", "8"), ())
    samples = [runner.run(good),
               runner.run(ops.Op(good.argv, (wrong,))),          # exits 0, check fails
               runner.run(ops.Op(("spectrum", "--jmax", "0"), ()))]  # usage error, exit 2
    assert [s.error is None for s in samples] == [True, False, False]
    assert "injected" in samples[1].error and "exit 2" in samples[2].error
    assert run.details(samples, samples, 1)["failed_ratio"]["value"] == pytest.approx(2 / 3)


def _one_traced_pass(runner, workload, seed):
    tracer = runner.tracer = Tracer()
    tracer.install()
    try:
        samples, passes = run.closed_loop(runner, workload, seed, 0.0)
    finally:
        tracer.uninstall()
        runner.tracer = None
    assert passes == 1
    assert [s.error for s in samples if s.error] == []
    assert not any(getattr(_holder(spec), attr) is not original    # program restored
                   for spec, attr, original in ORIGINALS)
    return layer_metrics(tracer.spans, passes, [s.scale for s in samples])


@pytest.mark.parametrize("workload", ops.WORKLOADS)
def test_counts_repeat_exactly_for_the_same_seed(runner, workload):
    first = _one_traced_pass(runner, workload, 5)
    second = _one_traced_pass(runner, workload, 5)
    assert {k: first.get(k, 0) for k in COUNTS} == {k: second.get(k, 0) for k in COUNTS}
    assert all(first[k] > 0 for k in RUNS[workload])
    assert first["trace.accounted_share"] == pytest.approx(1.0, rel=1e-9)


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(run.__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "simulate",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0 and proc.stdout == ""
