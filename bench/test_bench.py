"""Self-tests of the benchmark: every workload in its smoke configuration
(tiny dataset, a second or so each), the metric names against
``BENCHMARK.json``, the restore of the traced run's wrappers, the request
generator's shape, and the refusal to run without the program sources.

    PYTHONPATH=src python -m pytest bench -q
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (os.path.join(ROOT, "src"), HERE):
    if path not in sys.path:
        sys.path.insert(0, path)

import inputs  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def run_bench(workload: str, trace: int, cwd: str = ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "0.2",
         "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_emits_every_metric(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    table = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in table]
    for spec in table:
        got = result["metrics"][spec["name"]]
        assert got["unit"] == spec["unit"]
        assert math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0, spec["name"]


@pytest.fixture
def fresh_obs():
    """Leave the process-global telemetry runtime as other tests expect."""
    from repro.obs import OBS

    yield
    OBS.disable()
    OBS.reset()


def test_traced_run_restores_every_wrapper(fresh_obs):
    targets = layers.TARGETS + layers.SERVING_TARGETS
    tracer = layers.LayerTracer(targets)
    tracer.install()
    patched = list(tracer.installed)
    assert patched
    tracer.restore()
    for owner, attr, original in patched:
        current = (owner.__dict__[attr] if isinstance(owner, type)
                   else getattr(owner, attr))
        assert current is original, (owner, attr)

    snapshot = [(owner, attr, original) for owner, attr, original in patched]
    workloads.run_serve(workloads.SMOKE, 5, 0.1, traced=True)
    workloads.run_train(workloads.SMOKE, 5, 0.1, traced=True,
                        multiproc=False)
    for owner, attr, original in snapshot:
        current = (owner.__dict__[attr] if isinstance(owner, type)
                   else getattr(owner, attr))
        assert current is original, (owner, attr)


def test_reduce_spans_subtracts_nested_benchmark_spans():
    from repro.obs import SpanRecord

    def span(name, sid, parent, start, end):
        return SpanRecord(name=name, span_id=sid, parent_id=parent,
                          trace_id="t", lane="coordinator",
                          start_ns=start, end_ns=end)

    spans = [
        span("bench.epoch", 1, 0, 0, 100),
        span("engine.step", 2, 1, 5, 95),          # program span: skipped
        span("bench.nn.forward", 3, 2, 10, 60),
        span("bench.nn.backward", 4, 3, 30, 50),
        span("bench.sampling", 5, 2, 60, 80),
        span("bench.sampling", 6, 0, 200, 300),    # outside every root
    ]
    t = layers.reduce_spans(spans, [1])
    assert t.busy("nn.forward") == pytest.approx(30e-9)
    assert t.busy("nn.backward") == pytest.approx(20e-9)
    assert t.busy("sampling") == pytest.approx(20e-9)
    assert t.count("sampling") == 1
    assert t.self_s["bench.epoch"] == pytest.approx(30e-9)
    assert t.root_s == pytest.approx(100e-9)


def test_request_generator_keeps_poisson_requests_shape():
    rng = np.random.default_rng(7)
    reqs = inputs.poisson_requests(rng, 5000, 3000, 8, rate_rps=2000.0,
                                   hot_fraction=0.002, hot_mass=0.9,
                                   drift_interval=500)
    arrivals = np.array([r.arrival for r in reqs])
    assert (np.diff(arrivals) > 0).all()
    assert np.mean(np.diff(arrivals)) == pytest.approx(1 / 2000.0, rel=0.1)
    for r in reqs:
        assert len(r.seeds) == 8
        assert (np.diff(r.seeds) > 0).all()         # sorted and distinct
        assert 0 <= r.seeds[0] and r.seeds[-1] < 5000
    # About hot_mass of all seeds fall in a 10-vertex hot set per drift
    # window, and the hot set moves between windows.
    hot_sets = []
    for w in range(6):
        window = np.concatenate([r.seeds for r in reqs[w * 500:(w + 1) * 500]])
        ids, counts = np.unique(window, return_counts=True)
        top = ids[np.argsort(counts)[-10:]]
        assert counts[np.isin(ids, top)].sum() / len(window) > 0.8
        hot_sets.append(set(top.tolist()))
    assert hot_sets[0] != hot_sets[1]
    again = inputs.poisson_requests(np.random.default_rng(7), 5000, 3000, 8,
                                    rate_rps=2000.0, hot_fraction=0.002,
                                    hot_mass=0.9, drift_interval=500)
    assert all(np.array_equal(a.seeds, b.seeds) for a, b in zip(reqs, again))


def test_edge_churn_has_no_self_loops():
    batches = inputs.edge_churn(np.random.default_rng(1), 50, 3, 400, 0.1, 1.0)
    assert [t for t, _b in batches] == pytest.approx([0.1, 0.4, 0.7])
    for _t, batch in batches:
        assert len(batch.add_src) == 400
        assert (batch.add_src != batch.add_dst).all()
        assert batch.add_dst.max() < 50


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("train-inproc", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def _session_members(sid: int):
    members = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[3]) == sid:  # field 6 of stat: session id
            members.append((int(pid), fields[0]))
    return members


def test_multiproc_run_leaves_no_process_behind():
    """Workers and multiprocessing's resource tracker are all ended and
    reaped before the command exits."""
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "run.py"),
         "--workload", "train-multiproc", "--seed", "3", "--seconds", "0.2",
         "--trace", "0", "--smoke"],
        cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True)
    assert proc.wait(timeout=300) == 0
    assert _session_members(proc.pid) == []
