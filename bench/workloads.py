"""The benchmark's three workloads.

``train-inproc``
    The paper's main setting: 8 machines simulated in one process, ``bsp``
    engine, static ``vip`` cache at alpha = 0.1.  Sampling and
    forward/backward dominate; no process, wire or cache-write cost.
``train-multiproc``
    The same model and cache on the ``multiproc`` backend: 2 worker
    processes, ``pipelined`` engine at depth 6.  The only workload that
    pays worker spawn, shared-memory segments, the gradient plane and the
    wire.  The thread environment is left as found, so BLAS thread
    oversubscription shows in the epoch time.
``serve-churn``
    Online inference with writes: a ``vip-refresh`` cache, the deadline
    batcher and edge batches inserted during the run, so graph-overlay
    mutation and incremental VIP refreshes run beside the forward-only
    request path.

Every workload builds its inputs (dataset, requests, edge batches) before
any clock starts, checks its outputs outside the timed regions, and
returns an :class:`Outcome`.  Wall time is read from telemetry spans (see
:class:`Clock`).
"""

from __future__ import annotations

import dataclasses
import gc
import os
import statistics
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core import Planner, RunConfig, ServingConfig, StreamingConfig
from repro.graph import load_dataset
from repro.obs import OBS, Tracer
from repro.obs.exporters import save_chrome_trace

import inputs
from layers import PREFIX, SERVING_TARGETS, TARGETS, LayerTracer, reduce_spans

PLANNER_STAGES = ("partition", "vip", "reorder", "cache-select")


@dataclass(frozen=True)
class Sizes:
    """How big a run is.  :data:`FULL` is the benchmark; :data:`SMOKE` is
    the seconds-long configuration the self-tests run."""

    dataset: str
    train_machines: int
    #: Per-machine minibatch size; ``None`` takes the dataset's default.
    batch_size: Optional[int]
    #: Cold setups per run (each about 9 s on training, mostly METIS).
    #: Serving builds its first ``serve_setups`` services cold (fresh
    #: planner) and the rest from the last planner's cache.
    setups: int
    serve_setups: int
    #: Measured epochs per run at least (more while under ``--seconds``):
    #: in-process, multiproc, and each half of a traced run.  Multiproc
    #: epochs vary most (BLAS thread oversubscription), so they need the
    #: most samples for a steady median.
    min_epochs: int
    min_epochs_multiproc: int
    min_epochs_traced: int
    requests: int
    churn_batches: int
    churn_edges: int
    hot_fraction: float
    min_serve_runs: int


FULL = Sizes(dataset="papers-mini", train_machines=8, batch_size=None,
             setups=2, serve_setups=3, min_epochs=4, min_epochs_multiproc=6,
             min_epochs_traced=3,
             requests=400, churn_batches=2, churn_edges=500,
             hot_fraction=0.001, min_serve_runs=6)
SMOKE = Sizes(dataset="tiny", train_machines=2, batch_size=16,
              setups=2, serve_setups=1, min_epochs=1, min_epochs_multiproc=1,
              min_epochs_traced=1,
              requests=80, churn_batches=1, churn_edges=20,
              hot_fraction=0.05, min_serve_runs=1)

#: The dataset is the same for every run.  A per-seed graph would move
#: partition quality, and with it every communication figure, far more
#: than any change to the program does.
DATASET_SEED = 0
#: Every run partitions with this seed whatever ``--seed`` is.  The
#: partition moves every other figure more than the program's own noise
#: does: METIS quality varies by seed (remote rows per seed ranged 2.2 to
#: 4.7 over seeds 1-3 on train-multiproc), and a serving run's wall time
#: varied by 30% across random-partition seeds.  The partitioning work
#: itself is still done, cold, inside every setup.
PARTITION_SEED = 0

#: Open-loop arrival rate, below the modeled capacity (about 3.9k req/s).
SERVE_RATE_RPS = 2000.0
REQUEST_SEEDS = 8


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    #: End-to-end metrics: name -> (value, unit, samples).
    metrics: Dict[str, Tuple[float, str, int]] = field(default_factory=dict)
    #: Per-layer metrics of a traced run: name -> (value, unit).
    layers: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    #: Figures particular to this workload (printed, not gated).
    details: Dict[str, Tuple[float, str, int]] = field(default_factory=dict)
    checks: List[Tuple[str, bool, str]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    notes: Dict[str, object] = field(default_factory=dict)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    @property
    def correct(self) -> bool:
        return all(ok for _name, ok, _detail in self.checks)


# ----------------------------------------------------------------------
# clocks and process figures
# ----------------------------------------------------------------------

class Clock:
    """Timed regions as spans of a private tracer, so the program's own
    OBS-guarded instrumentation stays off while the benchmark reads the
    clock.  The traced phase records its root spans on ``OBS.tracer``
    instead (:func:`traced_region`), making them the roots of the layer
    trace."""

    def __init__(self) -> None:
        self.tracer = Tracer(lane="bench")
        self.tracer.enabled = True

    def region(self, name: str):
        return self.tracer.span(PREFIX + name)


def traced_region(name: str):
    return OBS.span(PREFIX + name)


def seconds(span) -> float:
    return (span.end_ns - span.start_ns) / 1e9


def _status_kb(pid: str, key: str) -> int:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith(key + ":"):
                return int(line.split()[1])
    raise KeyError(f"{key} not in /proc/{pid}/status")


def peak_rss_mb(pids=()) -> float:
    """Peak resident memory of this process plus ``pids`` (MB)."""
    kb = _status_kb("self", "VmHWM")
    kb += sum(_status_kb(str(pid), "VmHWM") for pid in pids)
    return kb / 1024.0


def cpu_seconds(pid: int) -> float:
    """User plus system CPU time of a live process, all its threads."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def median(values) -> float:
    return float(statistics.median(values))


# ----------------------------------------------------------------------
# setup
# ----------------------------------------------------------------------

def staged_setup(clock: Clock, build: Callable[[], object]
                 ) -> Tuple[object, Dict[str, float]]:
    """Run one cold ``build`` and split its wall time by preprocessing
    stage, read from the planner's own ``planner.<stage>`` spans (OBS is
    on for the build only); ``rest`` is everything else in the build."""
    OBS.reset()
    OBS.enable()
    try:
        with clock.region("setup") as span:
            built = build()
    finally:
        OBS.disable()
    stage_s = {stage: sum(s.duration_s for s in OBS.tracer.spans
                          if s.name == f"planner.{stage}")
               for stage in PLANNER_STAGES}
    stage_s["rest"] = seconds(span) - sum(stage_s.values())
    return built, stage_s


def planner_layers(out: Outcome, stage_s: Dict[str, float]) -> None:
    for stage, value in stage_s.items():
        name = "build_rest" if stage == "rest" else stage.replace("-", "_")
        out.layers[f"planner.{name}_s"] = (value, "s")


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------

#: Every end-to-end metric and its unit, in BENCHMARK.json order.
END_TO_END_UNITS = {
    "setup_s": "s", "seeds_per_s": "seeds/s", "comm_rows_per_seed": "rows",
    "modeled_ms": "ms", "peak_rss_mb": "MB",
}

#: Every per-layer metric and its unit, in BENCHMARK.json order.  A layer a
#: workload never enters reads 0.
LAYER_UNITS = {
    "planner.partition_s": "s", "planner.vip_s": "s",
    "planner.reorder_s": "s", "planner.cache_select_s": "s",
    "planner.build_rest_s": "s",
    "multiproc.start_s": "s", "multiproc.epoch_s": "s",
    "multiproc.worker_cpu_s": "s", "multiproc.wire_bytes": "bytes",
    "multiproc.wire_msgs": "count", "multiproc.speedup_vs_inprocess": "x",
    "multiproc.coord_wait_s": "s",
    "sampling.busy_s": "s", "sampling.calls": "count",
    "sampling.edges": "count",
    "store.plan_s": "s", "store.execute_s": "s", "store.rows": "count",
    "store.cache_hit_rate": "fraction", "store.coalesce_saved_frac": "fraction",
    "nn.forward_s": "s", "nn.backward_s": "s", "nn.optimizer_s": "s",
    "comm.allreduce_s": "s", "comm.allreduce_calls": "count",
    "pipeline.events_s": "s", "pipeline.simulate_s": "s",
    "vip.refresh_s": "s", "vip.refresh_calls": "count",
    "vip.incremental_s": "s",
    "graph.apply_s": "s", "graph.apply_ops": "count",
    "serving.flush_s": "s", "serving.forward_s": "s",
    "serving.windows": "count", "serving.requests_per_window": "count",
    "cache.refresh_rows_per_request": "rows",
    "trace.coverage": "fraction", "trace.overhead": "fraction",
    "other_s": "s",
}


def layer_metrics(out: Outcome, roots: List[int], units: int,
                  traced_wall: float, untraced_wall: float) -> None:
    """Reduce the recorded spans under ``roots`` into per-layer metrics,
    each per unit of work (one epoch, or one serving run)."""
    t = reduce_spans(OBS.tracer.spans, roots)
    per = 1.0 / units

    def put(name, value):
        out.layers[name] = (value * per, LAYER_UNITS[name])

    put("sampling.busy_s", t.busy("sampling"))
    put("sampling.calls", t.count("sampling"))
    put("sampling.edges", t.attr("sampling", "edges"))
    put("store.plan_s", t.busy("store.plan"))
    put("store.execute_s", t.busy("store.execute"))
    put("store.rows", t.attr("store.execute", "rows"))
    cached = t.attr("store.execute", "cached")
    remote = t.attr("store.execute", "remote")
    coalesced = t.attr("store.execute", "coalesced")
    nonlocal_rows = cached + remote + coalesced
    out.layers["store.cache_hit_rate"] = (
        (cached + coalesced) / nonlocal_rows if nonlocal_rows else 0.0,
        "fraction")
    out.layers["store.coalesce_saved_frac"] = (
        coalesced / (coalesced + remote) if coalesced + remote else 0.0,
        "fraction")
    put("nn.forward_s", t.busy("nn.forward"))
    put("nn.backward_s", t.busy("nn.backward"))
    put("nn.optimizer_s", t.busy("nn.optimizer"))
    put("comm.allreduce_s", t.busy("comm.allreduce"))
    put("comm.allreduce_calls", t.count("comm.allreduce"))
    put("pipeline.events_s", t.busy("pipeline.events"))
    put("pipeline.simulate_s", t.busy("pipeline.simulate"))
    put("vip.refresh_s", t.busy("vip.refresh"))
    put("vip.refresh_calls", t.count("vip.refresh"))
    put("vip.incremental_s", t.busy("vip.incremental"))
    put("graph.apply_s", t.busy("graph.apply"))
    put("graph.apply_ops", t.attr("graph.apply", "ops"))
    put("serving.flush_s", t.busy("serving.flush"))
    put("serving.forward_s", t.busy("serving.forward"))
    put("multiproc.epoch_s", t.busy("multiproc.epoch"))
    root_self = sum(t.self_s[n] for n in t.self_s
                    if n in (PREFIX + "epoch", PREFIX + "serve"))
    put("other_s", root_self)
    out.layers["trace.coverage"] = (
        1.0 - root_self / t.root_s if t.root_s else 0.0, "fraction")
    out.layers["trace.overhead"] = (traced_wall / untraced_wall - 1.0,
                                    "fraction")


def fill_layers(out: Outcome) -> None:
    for name, unit in LAYER_UNITS.items():
        out.layers.setdefault(name, (0.0, unit))


def export_trace(path: Optional[str]) -> None:
    if path:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        save_chrome_trace(path, OBS.tracer.spans, OBS.metrics)


# ----------------------------------------------------------------------
# training
# ----------------------------------------------------------------------

def train_config(sizes: Sizes, seed: int, multiproc: bool) -> RunConfig:
    if multiproc:
        return RunConfig(num_machines=2, replication_factor=0.1,
                         cache_policy="vip", batch_size=sizes.batch_size,
                         engine="pipelined", pipeline_depth=6,
                         backend="multiproc", seed=seed)
    return RunConfig(num_machines=sizes.train_machines, replication_factor=0.1,
                     cache_policy="vip", batch_size=sizes.batch_size,
                     engine="bsp", seed=seed)


def _epoch_figures(result) -> Tuple[int, int, List[float]]:
    """(seeds, comm rows, per-step losses) of one epoch's report."""
    recs = result.report.records
    seeds = sum(r.batch_size for r in recs)
    comm = sum(r.gather.remote_rows + r.gather.refresh_fetch_rows
               for r in recs)
    return seeds, comm, [r.loss for r in recs if r.loss is not None]


def _worker_pids(system) -> List[int]:
    return [p.pid for p in system.backend().processes]


def cold_build(ds, cfg: RunConfig, multiproc: bool):
    """A cold training setup: a fresh planner partitions (with
    :data:`PARTITION_SEED`) and builds the system, and on multiproc the
    backend starts its workers (unless ``multiproc`` is False)."""
    planner = Planner()
    partition = planner.artifact(
        ds, dataclasses.replace(cfg, seed=PARTITION_SEED), "partition")
    system = planner.build(ds, cfg, partition=partition)
    if multiproc:
        system.backend().start()
    return system, planner, partition


def run_train(sizes: Sizes, seed: int, budget_s: float, traced: bool,
              multiproc: bool, trace_path: Optional[str] = None) -> Outcome:
    out = Outcome()
    ds = load_dataset(sizes.dataset, seed=DATASET_SEED)
    cfg = train_config(sizes, seed, multiproc)
    clock = Clock()

    if traced:
        (system, planner, partition), stage_s = staged_setup(
            clock, lambda: cold_build(ds, cfg, multiproc=False))
        planner_layers(out, stage_s)
        if multiproc:
            with clock.region("setup.start") as span:
                system.backend().start()
            out.layers["multiproc.start_s"] = (seconds(span), "s")
    else:
        setup_walls = []
        system = None
        for _ in range(sizes.setups):
            if system is not None:
                system.shutdown()
                system = None
                gc.collect()
            with clock.region("setup") as span:
                system, planner, partition = cold_build(ds, cfg, multiproc)
            setup_walls.append(seconds(span))
        out.metrics["setup_s"] = (median(setup_walls), "s", len(setup_walls))
        out.notes["setup_walls_s"] = setup_walls

    try:
        run = _TrainRun(out, sizes, clock, system, multiproc)
        run.warm_up(planner, ds, cfg, partition)
        if traced:
            run.measure(budget_s / 2, sizes.min_epochs_traced)
            run.measure_traced(budget_s / 2)
        else:
            run.measure(budget_s, sizes.min_epochs_multiproc if multiproc
                        else sizes.min_epochs)
            run.report_end_to_end()
        run.report_details()
    finally:
        system.shutdown()
    if multiproc:
        _check_teardown(out, system)
    if traced:
        export_trace(trace_path)
        fill_layers(out)
    return out


class _TrainRun:
    """The epochs of one training run: warm-up, measured, traced."""

    def __init__(self, out: Outcome, sizes: Sizes, clock: Clock, system,
                 multiproc: bool) -> None:
        self.out = out
        self.sizes = sizes
        self.clock = clock
        self.system = system
        self.multiproc = multiproc
        self.epoch = 0
        self.steps = 0
        self.walls: List[float] = []
        self.results: List[Tuple[object, int, int]] = []

    def _run_epoch(self, region):
        """One epoch timed by ``region``, then its checks (untimed)."""
        with region as span:
            result = self.system.train_epoch(self.epoch)
        seeds, comm, losses = _epoch_figures(result)
        self.steps += len(result.report.records)
        bad = sum(1 for v in losses if not np.isfinite(v))
        self.out.failed += bad
        self.out.check(f"epoch {self.epoch}: every loss finite", bad == 0,
                       f"{bad} non-finite step losses")
        if not self.multiproc:
            self.out.check(f"epoch {self.epoch}: replicas in sync",
                           self.system.trainer.models_in_sync())
        self.epoch += 1
        return result, span, seeds, comm

    def warm_up(self, planner: Planner, ds, cfg: RunConfig,
                partition) -> None:
        """Epoch 0.  On multiproc it is also checked against the in-process
        backend on the same config (built from the warm planner)."""
        self.ref_wall = None
        if self.multiproc:
            reference = planner.build(ds, dataclasses.replace(
                cfg, backend="inprocess"), partition=partition)
            with self.clock.region("reference") as span:
                ref = reference.train_epoch(0)
            self.ref_wall = seconds(span)
            del reference
        self.warm, span, _s, _c = self._run_epoch(self.clock.region("warmup"))
        self.warm_wall = seconds(span)
        if self.multiproc:
            self.out.check(
                "epoch 0 loss bit-identical to the in-process backend",
                self.warm.loss == ref.loss,
                f"{self.warm.loss!r} vs {ref.loss!r}")

    def measure(self, budget_s: float, min_epochs: int) -> None:
        while len(self.walls) < min_epochs or sum(self.walls) < budget_s:
            result, span, seeds, comm = self._run_epoch(
                self.clock.region("epoch"))
            self.walls.append(seconds(span))
            self.results.append((result, seeds, comm))
        self.epoch_wall = median(self.walls)
        self.seeds_per_epoch = self.results[-1][1]
        self.comm_per_seed = median(c / s for _r, s, c in self.results)
        self.modeled_ms = median(r.epoch_time
                                 for r, _s, _c in self.results) * 1e3
        self.last_loss = self.results[-1][0].loss
        self.out.check("loss fell from the warm-up epoch",
                       self.last_loss < self.warm.loss,
                       f"{self.warm.loss:.4f} -> {self.last_loss:.4f}")

    def measure_traced(self, budget_s: float) -> None:
        """Epochs with the layer wrappers on; the untraced epochs just run
        give the overhead's base."""
        out = self.out
        backend = self.system.backend() if self.multiproc else None
        pids = _worker_pids(self.system) if self.multiproc else []
        wire0 = _wire_totals(backend) if self.multiproc else (0, 0)
        cpu0 = sum(cpu_seconds(p) for p in pids)
        OBS.reset()
        OBS.enable()
        roots, walls = [], []
        try:
            with LayerTracer(TARGETS):
                while (len(walls) < self.sizes.min_epochs_traced
                       or sum(walls) < budget_s):
                    _r, span, _s, _c = self._run_epoch(traced_region("epoch"))
                    roots.append(span.span_id)
                    walls.append(seconds(span))
        finally:
            OBS.disable()
        n = len(walls)
        layer_metrics(out, roots, n, median(walls), self.epoch_wall)
        if self.multiproc:
            wire1 = _wire_totals(backend)
            out.layers["multiproc.wire_bytes"] = (
                (wire1[0] - wire0[0]) / n, "bytes")
            out.layers["multiproc.wire_msgs"] = (
                (wire1[1] - wire0[1]) / n, "count")
            out.layers["multiproc.worker_cpu_s"] = (
                (sum(cpu_seconds(p) for p in pids) - cpu0) / n, "s")
            out.layers["multiproc.speedup_vs_inprocess"] = (
                self.ref_wall / self.epoch_wall, "x")
            out.layers["multiproc.coord_wait_s"] = (
                _coord_wait(OBS.tracer.spans, roots) / n, "s")

    def report_end_to_end(self) -> None:
        n = len(self.walls)
        m = self.out.metrics
        m["seeds_per_s"] = (self.seeds_per_epoch / self.epoch_wall,
                            "seeds/s", n)
        m["comm_rows_per_seed"] = (self.comm_per_seed, "rows", n)
        m["modeled_ms"] = (self.modeled_ms, "ms", n)
        pids = _worker_pids(self.system) if self.multiproc else ()
        m["peak_rss_mb"] = (peak_rss_mb(pids), "MB", 1)

    def report_details(self) -> None:
        out, n = self.out, len(self.walls)
        out.attempted = self.steps
        out.details.update({
            "train_seeds_per_s": (self.seeds_per_epoch / self.epoch_wall,
                                  "seeds/s", n),
            "train_loss": (self.last_loss, "nats", 1),
            "modeled_epoch_ms": (self.modeled_ms, "ms", n),
            "error_rate": (out.failed / max(self.steps, 1), "fraction",
                           self.steps),
            "epoch_wall_s": (self.epoch_wall, "s", n),
            "warmup_epoch_s": (self.warm_wall, "s", 1),
        })
        out.notes["epoch_walls_s"] = self.walls
        out.notes["seeds_per_epoch"] = self.seeds_per_epoch
        out.notes["last_loss_epoch"] = self.epoch - 1


def _wire_totals(backend) -> Tuple[int, int]:
    tables = (backend.wire_sent, backend.wire_received)
    return (sum(b for t in tables for _n, b in t.values()),
            sum(n for t in tables for n, _b in t.values()))


def _coord_wait(spans, roots) -> float:
    """Time of each coordinator epoch not covered by the average worker's
    step or window spans: the workers waiting on the coordinator's run
    broadcast and epoch-end assembly."""
    root_set = set(roots)
    root_s = sum(seconds(s) for s in spans
                 if s.lane == "coordinator" and s.span_id in root_set)
    busy: Dict[str, float] = {}
    for s in spans:
        if s.lane.startswith("worker-") and s.name in ("worker.step",
                                                       "worker.window"):
            busy[s.lane] = busy.get(s.lane, 0.0) + seconds(s)
    if not busy:
        return 0.0
    return root_s - sum(busy.values()) / len(busy)


def _check_teardown(out: Outcome, system) -> None:
    """No shared-memory segment and no worker process may outlive
    ``shutdown()`` plus ``WORKER_POOL.clear()``."""
    from repro.distributed.multiproc import WORKER_POOL

    WORKER_POOL.clear()
    backend = system.backend()
    left = [n for n in backend.segment_names
            if os.path.exists(os.path.join("/dev/shm", n))]
    out.check("no shared-memory segment left", not left, ", ".join(left))
    alive = [p.pid for p in backend.processes
             if p.is_alive() or os.path.exists(f"/proc/{p.pid}")]
    out.check("no worker process left", not alive,
              ", ".join(map(str, alive)))


# ----------------------------------------------------------------------
# serving
# ----------------------------------------------------------------------

def serve_config() -> RunConfig:
    """The perf harness's serving substrate (K=4, random partitioner,
    vip-refresh cache, deadline batcher) with refreshes that follow graph
    mutations.  The service is the same on every run (its seed is
    :data:`PARTITION_SEED`); ``--seed`` drives the requests and edge
    batches it receives."""
    return RunConfig(
        num_machines=4, partitioner="random", fanouts=(5, 4, 3),
        batch_size=32, replication_factor=0.05, cache_policy="vip-refresh",
        refresh_interval=8, cache_aging_interval=16, network_gbps=0.5,
        seed=PARTITION_SEED,
        serving=ServingConfig(batcher="deadline", max_batch=8,
                              max_wait_ms=15.0, max_in_flight=4),
        streaming=StreamingConfig(refresh_on_mutation=True),
    )


def serve_inputs(sizes: Sizes, seed: int, num_vertices: int, index: int,
                 requests: int):
    """Requests and edge batches of serving run ``index``.  The hot set
    drifts four times per run.  The edge batches land from a tenth of the
    run on: after the first one every cache refresh runs the incremental
    VIP recursion over the mutated graph, so almost every refresh of the
    run pays it (a later first batch leaves the number of such refreshes,
    and with it the run's wall time, to chance)."""
    rng = np.random.default_rng([seed, index])
    reqs = inputs.poisson_requests(
        rng, num_vertices, requests, REQUEST_SEEDS,
        rate_rps=SERVE_RATE_RPS, hot_fraction=sizes.hot_fraction,
        hot_mass=0.95, drift_interval=max(requests // 4, 1))
    horizon = reqs[-1].arrival
    return reqs, inputs.edge_churn(rng, num_vertices, sizes.churn_batches,
                                   sizes.churn_edges, 0.1 * horizon, horizon)


def run_serve(sizes: Sizes, seed: int, budget_s: float, traced: bool,
              trace_path: Optional[str] = None) -> Outcome:
    out = Outcome()
    ds = load_dataset(sizes.dataset, seed=DATASET_SEED)
    cfg = serve_config()
    clock = Clock()
    # Inputs for every run this process may make, built up front; the
    # last, a quarter the size, is the warm-up run's.
    max_runs = max(sizes.min_serve_runs, 8)
    with clock.region("generate") as span:
        workload = [serve_inputs(sizes, seed, ds.num_vertices, i,
                                 sizes.requests if i < max_runs
                                 else sizes.requests // 4)
                    for i in range(max_runs + 1)]
    out.notes["generator_s"] = seconds(span)
    features_finite = bool(np.isfinite(ds.features).all())

    def build(planner: Planner):
        return planner.build_service(ds, cfg)

    def serve(service, index: int, region):
        reqs, churn = workload[index]
        with region as span:
            report = service.run(reqs, mutations=churn)
        _check_serving(out, report, reqs, service, index, features_finite)
        return report, span

    if traced:
        service, stage_s = staged_setup(clock, lambda: build(Planner()))
        planner_layers(out, stage_s)
        # A first run pays the process's one-time costs; the overhead's
        # base is the second.
        warm_report, _span = serve(service, max_runs, clock.region("warmup"))
        service = build(Planner())
        base_report, base_span = serve(service, 0, clock.region("serve"))
        OBS.reset()
        OBS.enable()
        try:
            with LayerTracer(TARGETS + SERVING_TARGETS):
                service = build(Planner())
                report, span = serve(service, 0, traced_region("serve"))
        finally:
            OBS.disable()
        layer_metrics(out, [span.span_id], 1, seconds(span),
                      seconds(base_span))
        n_req = len(workload[0][0])
        out.layers["serving.windows"] = (report.num_windows, "count")
        out.layers["serving.requests_per_window"] = (
            n_req / max(report.num_windows, 1), "count")
        out.layers["cache.refresh_rows_per_request"] = (
            report.gather.refresh_rows / n_req, "rows")
        out.attempted, out.failed = _serve_counts(
            [warm_report, base_report, report])
        export_trace(trace_path)
        fill_layers(out)
        return out

    # A first run pays the process's one-time costs; it is checked, not
    # timed.
    warm_report, _span = serve(build(Planner()), max_runs,
                               clock.region("warmup"))
    setup_walls, walls, reports = [], [], []
    index = 0
    while index < max_runs and (index < sizes.min_serve_runs
                                or sum(walls) < budget_s):
        service = None
        gc.collect()
        if index < sizes.serve_setups:
            planner = Planner()
            with clock.region("setup") as span:
                service = build(planner)
            setup_walls.append(seconds(span))
        else:
            # Each run mutates its service's graph and caches, so every
            # run gets a fresh service; past the cold setups it comes
            # from the warm planner.
            service = build(planner)
        report, span = serve(service, index, clock.region("serve"))
        walls.append(seconds(span))
        reports.append(report)
        index += 1

    n = len(walls)
    answered_seeds = [sum(len(p) for p in r.predictions.values())
                      for r in reports]
    rps = median(len(r.records) / w for r, w in zip(reports, walls))
    latencies = np.concatenate([r.latencies() for r in reports])
    comm_per_seed = (sum(r.gather.comm_rows() for r in reports)
                     / sum(answered_seeds))
    p50, p99 = (float(v) * 1e3 for v in np.percentile(latencies, [50, 99]))
    out.metrics["setup_s"] = (median(setup_walls), "s", len(setup_walls))
    out.metrics["seeds_per_s"] = (
        median(s / w for s, w in zip(answered_seeds, walls)), "seeds/s", n)
    out.metrics["comm_rows_per_seed"] = (comm_per_seed, "rows", n)
    out.metrics["modeled_ms"] = (p99, "ms", len(latencies))
    out.metrics["peak_rss_mb"] = (peak_rss_mb(), "MB", 1)
    out.attempted, out.failed = _serve_counts([warm_report] + reports)
    out.details.update({
        "serve_rps": (rps, "req/s", n),
        "modeled_p50_ms": (p50, "ms", len(latencies)),
        "modeled_p99_ms": (p99, "ms", len(latencies)),
        "error_rate": (out.failed / max(out.attempted, 1), "fraction",
                       out.attempted),
        "run_wall_s": (median(walls), "s", n),
    })
    out.notes["run_walls_s"] = walls
    out.notes["setup_walls_s"] = setup_walls
    out.notes["requests_per_run"] = sizes.requests
    out.notes["churn_batches_per_run"] = sizes.churn_batches
    return out


def _serve_counts(reports) -> Tuple[int, int]:
    attempted = sum(r.availability.total for r in reports)
    failed = sum(r.availability.total - r.availability.served_ok
                 for r in reports)
    return attempted, failed


def _check_serving(out: Outcome, report, reqs, service, index: int,
                   features_finite: bool) -> None:
    """Every request answered with a finite prediction (a class id from
    finite weights over finite features); availability 1.0."""
    finite = features_finite and all(
        np.isfinite(p.data).all() for _n, p in service.model.named_parameters())
    classes = service.cost_model.dims.out_dim
    missing = bad = 0
    for req in reqs:
        pred = report.predictions.get(req.rid)
        if pred is None or len(pred) != req.num_seeds:
            missing += 1
        elif not ((pred >= 0) & (pred < classes)).all():
            bad += 1
    out.check(f"serve run {index}: every request answered", missing == 0,
              f"{missing} of {len(reqs)} unanswered")
    out.check(f"serve run {index}: predictions are finite class ids",
              bad == 0 and finite,
              f"{bad} out-of-range predictions; finite inputs: {finite}")
    out.check(f"serve run {index}: availability 1.0",
              report.availability.availability() == 1.0,
              f"{report.availability.availability():.4f}")
