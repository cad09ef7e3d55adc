"""Fast self-check of the benchmark harness (about 10 s):

    python3 -m pytest -q bench

A perturbed result must count as failed without stopping the run, the
tracer must reproduce exact counts on fixed tiny inputs, the CLI output
parser must be strict, and the benchmark must refuse to run without the
sources.
"""

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import melaplace  # noqa: E402
import melaplace.cli  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads as W  # noqa: E402
from worker import Runner  # noqa: E402

m = melaplace


def _scaled_estimate(fn, factor):
    def bad(*args, **kwargs):
        est = fn(*args, **kwargs)
        return m.Estimate(est.value * factor, est.err_est, est.panels_used,
                          est.converged)
    return bad


def _scaled(fn, factor):
    return lambda *args, **kwargs: fn(*args, **kwargs) * factor


def _raises(*args, **kwargs):
    raise m.NonFiniteIntegrand("injected")


PERTURBATIONS = {
    "rect_grid-rel-1e-5": ("rect_grid", m, "inverse_eval",
                           _scaled(m.inverse_eval, 1 + 1e-5)),
    "rect_grid-nan": ("rect_grid", m, "inverse_eval",
                      _scaled(m.inverse_eval, math.nan)),
    "rect_grid-raises": ("rect_grid", m, "inverse_eval", _raises),
    "direct-rel-1e-8": ("direct", m, "transform_estimate",
                        _scaled_estimate(m.transform_estimate, 1 + 1e-8)),
    "rect_sweep-cli-exit-3": ("rect_sweep", melaplace.cli, "cli_main",
                              lambda argv: 3),
}


@pytest.mark.parametrize("case", sorted(PERTURBATIONS))
def test_perturbed_result_counts_as_failed(case, monkeypatch):
    name, module, attr, bad = PERTURBATIONS[case]
    ops = W.WORKLOADS[name](7).cycle()
    if name == "rect_sweep":
        ops = ops[1:]  # the CLI ops
    monkeypatch.setattr(module, attr, bad)
    runner = Runner()
    runner.run(ops)
    assert len(runner.latencies) == len(ops)
    assert runner.failed == len(ops)


@pytest.mark.parametrize("name", ["rect_grid", "rect_sweep", "direct"])
def test_unperturbed_cycle_passes(name):
    runner = Runner()
    runner.run(W.WORKLOADS[name](7).cycle())
    assert runner.failed == 0


def test_tracer_counts_sweep_exactly():
    t = m.analytic_transform(m.FunctionSpec.mixed_exp(1.0, 0.5),
                             m.TransformKind.LAPLACE)
    original = melaplace.contours.discretize
    with tracing.Tracer() as tr:
        assert melaplace.contours.discretize is not original
        m.invariance_sweep(t, W.LAP, 1.0, [0.1, 0.5, 1.0], [5.0, 10.0, 20.0])
    assert melaplace.contours.discretize is original
    got = tr.metrics()
    assert got["contours.discretize_calls"] == 9
    assert got["contours.nodes_built"] == 17920
    assert got["contours.discretize_useful_ratio"] == 1.0
    assert got["transforms.vector_points"] == 17920
    assert got["campaigns.calls"] == 1
    assert all(got[k] == 0 for k in got
               if k.startswith("quadrature.") and not k.endswith("_s"))


def test_tracer_counts_gamma_line_exactly():
    gamma = m.analytic_transform(m.FunctionSpec.exp_minus_x(),
                                 m.TransformKind.MELLIN)
    with tracing.Tracer() as tr:
        line = m.bromwich_for(gamma, 1.0, 10.0)
        value = m.inverse_eval(gamma, W.MEL, line, 1.0, W.LINE_Q)
    assert abs(value - math.exp(-1.0)) <= W.GAMMA_TOL
    got = tr.metrics()
    assert got["contours.nodes_built"] == 416
    assert got["transforms.point_evals"] == 416
    assert got["quadrature.finite_calls"] == 5824
    assert got["quadrature.panels"] == 8352
    assert got["quadrature.integrand_points"] == 400896
    # self times account for the whole traced call
    spans = tr.spans
    top = [s for s in spans if s[1] == -1]
    total = sum(s[5] - s[4] for s in top)
    assert sum(tr.layer_self_times().values()) == pytest.approx(total, rel=1e-9)


@pytest.mark.parametrize("text", ['{"a": NaN}', '{"a": Infinity}', '[-Infinity]'])
def test_strict_json_rejects_non_finite(text):
    with pytest.raises(ValueError):
        W.strict_json(text)


def test_tail_ladder():
    # nearest rank: p90 of 100 samples is the 90th, with 10 beyond it
    assert run.tail(list(range(99)))[0] == 50.0
    assert run.tail(list(range(100))) == (90.0, 89)
    assert run.tail(list(range(999)))[0] == 90.0
    assert run.tail(list(range(1000))) == (99.0, 989)


def test_metric_names_match_benchmark_json():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert set(run.WORKLOADS) == set(W.WORKLOADS)
    assert {e["name"]: e["unit"] for e in doc["end_to_end"]} == run.END_TO_END_UNITS
    traced = tracing.Tracer().metrics()
    traced["trace.overhead_frac"] = 0.0
    assert {e["name"]: e["unit"] for e in doc["per_layer"]} == {
        k: run.per_layer_unit(k) for k in traced
    }


def _last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_prints_one_result_line(trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "rect_sweep",
         "--seed", "3", "--seconds", "1", "--trace", trace],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    doc = _last_json(proc.stdout)
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1
    kind = "per_layer" if trace == "1" else "end_to_end"
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    assert set(doc["metrics"]) == {e["name"] for e in spec}
    if trace == "1":
        assert doc["metrics"]["cli.calls"]["value"] > 0
        assert doc["metrics"]["quadrature.panels"]["value"] == 0


def test_refuses_to_run_without_sources():
    # a directory holding only BENCHMARK.json and the benchmark, kept
    # inside the checkout
    (HERE / "out").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=HERE / "out"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__", "out"))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "direct", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, timeout=60, cwd=bare,
        )
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
