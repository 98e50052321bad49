"""Outside-in layer timing for the traced benchmark run.

The program is not edited: :class:`LayerTracer` wraps public functions and
methods of ``src/repro`` modules in ``OBS.span`` calls for the duration of
the traced run and puts every original back afterwards.  Spans go through
the public telemetry runtime, so they sit in the same tracer as the
program's own spans and the existing exporters read them.

A module-level function is rebound in every loaded ``repro`` module that
imported it by name (``from repro.distributed.comm import
all_reduce_gradients`` makes a second binding in the engine module).
Functions imported lazily inside a function body are looked up at call
time and need only the defining module patched.

A layer's self time is the duration of its spans minus the time of the
benchmark spans nested directly inside them (the program's own spans are
not subtracted: they are part of whichever benchmark span encloses them).
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs import OBS, SpanRecord

#: Prefix of every span this module records, keeping them apart from the
#: program's own span names (``planner.vip`` and friends).
PREFIX = "bench."


def _stats_counts(result) -> dict:
    """Row counts of one ``execute`` result or a list of them."""
    pairs = result if isinstance(result, list) else [result]
    counts = {"rows": 0, "cached": 0, "remote": 0, "coalesced": 0}
    for _feats, stats in pairs:
        counts["rows"] += stats.total_rows
        counts["cached"] += stats.cached_rows
        counts["remote"] += stats.remote_rows
        counts["coalesced"] += stats.coalesced_rows
    return counts


#: ``(module, attribute path, span name, counts)`` for every wrapped
#: callable.  ``counts(result, args)`` returns span attributes (summed per
#: span name when the trace is reduced).
TARGETS: Sequence[Tuple[str, str, str, Optional[Callable]]] = (
    ("repro.sampling.neighbor", "NeighborSampler.sample", "sampling",
     lambda res, args: {"edges": res.num_edges}),
    ("repro.distributed.feature_store", "PartitionedFeatureStore.plan_gather",
     "store.plan", None),
    ("repro.distributed.feature_store", "FetchPlan.coalesce", "store.plan",
     None),
    ("repro.distributed.feature_store", "PartitionedFeatureStore.execute",
     "store.execute", lambda res, args: _stats_counts(res)),
    ("repro.distributed.feature_store",
     "PartitionedFeatureStore.execute_coalesced", "store.execute",
     lambda res, args: _stats_counts(res)),
    ("repro.distributed.engine", "train_batch", "nn.forward", None),
    ("repro.nn.autograd", "Tensor.backward", "nn.backward", None),
    ("repro.nn.optim", "Adam.step", "nn.optimizer", None),
    ("repro.distributed.comm", "all_reduce_gradients", "comm.allreduce",
     None),
    ("repro.pipeline.events", "emit_step_events", "pipeline.events", None),
    ("repro.pipeline.events", "emit_window_comm_events", "pipeline.events",
     None),
    ("repro.pipeline.simulator", "simulate_trace", "pipeline.simulate", None),
    ("repro.distributed.multiproc", "MultiprocBackend.start",
     "multiproc.start", None),
    ("repro.distributed.multiproc", "MultiprocBackend.run_epoch",
     "multiproc.epoch", None),
    ("repro.vip.incremental", "incremental_vip", "vip.incremental", None),
    ("repro.vip.incremental", "snapshot_vip", "vip.incremental", None),
    ("repro.graph.mutable", "MutableGraph.apply", "graph.apply",
     lambda res, args: {"ops": args[1].num_ops}),
)

#: Added on serving runs only: there the model forward is its own layer,
#: while in training it is part of ``train_batch`` (``nn.forward``).
SERVING_TARGETS: Sequence[Tuple[str, str, str, Optional[Callable]]] = (
    ("repro.nn.models", "MFGModel.forward", "serving.forward", None),
)


class LayerTracer:
    """Installs the layer wrappers and reduces the recorded spans.

    Use as a context manager around the traced part of a run; OBS must be
    enabled for the spans to be recorded.  :attr:`installed` lists
    ``(owner, attribute, original)`` so tests can check the restore.
    """

    def __init__(self, targets=TARGETS) -> None:
        self.targets = tuple(targets)
        self.installed: List[Tuple[object, str, object]] = []

    # -- install / restore ---------------------------------------------
    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc) -> bool:
        self.restore()
        return False

    def install(self) -> None:
        if self.installed:
            raise RuntimeError("layer wrappers are already installed")
        try:
            for module, path, name, counts in self.targets:
                self._wrap_target(module, path, PREFIX + name, counts)
            self._wrap_batcher_flushes()
            self._wrap_refresh_provider_hook()
        except BaseException:
            self.restore()
            raise

    def restore(self) -> None:
        while self.installed:
            owner, attr, original = self.installed.pop()
            setattr(owner, attr, original)

    def _set(self, owner, attr: str, value) -> None:
        self.installed.append((owner, attr, owner.__dict__[attr]
                               if isinstance(owner, type)
                               else getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap_target(self, module: str, path: str, name: str,
                     counts: Optional[Callable]) -> None:
        mod = importlib.import_module(module)
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(mod, cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, staticmethod):
                self._set(cls, attr, staticmethod(
                    _spanned(raw.__func__, name, counts)))
            else:
                self._set(cls, attr, _spanned(raw, name, counts))
            return
        original = getattr(mod, path)
        wrapper = _spanned(original, name, counts)
        for loaded in list(sys.modules.values()):
            if not getattr(loaded, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(loaded).items()):
                if value is original:
                    self._set(loaded, attr, wrapper)

    def _wrap_batcher_flushes(self) -> None:
        from repro.serving import batcher

        for cls in vars(batcher).values():
            if (isinstance(cls, type) and issubclass(cls, batcher.MicroBatcher)
                    and "flush" in cls.__dict__):
                self._set(cls, "flush", _spanned(cls.__dict__["flush"],
                                                 PREFIX + "serving.flush",
                                                 None))

    def _wrap_refresh_provider_hook(self) -> None:
        """Wrap every score provider handed to the public
        ``set_refresh_score_provider`` hook (training-set VIP at build time,
        request-traffic VIP when a service is constructed)."""
        from repro.distributed.feature_store import PartitionedFeatureStore

        original = PartitionedFeatureStore.__dict__["set_refresh_score_provider"]

        @functools.wraps(original)
        def hook(store, fn):
            if fn is not None:
                fn = _spanned(fn, PREFIX + "vip.refresh", None)
            return original(store, fn)

        self._set(PartitionedFeatureStore, "set_refresh_score_provider", hook)


def _spanned(fn: Callable, name: str, counts: Optional[Callable]) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with OBS.span(name) as span:
            result = fn(*args, **kwargs)
            if counts is not None and span:
                span.set(**counts(result, args))
            return result

    return wrapper


# ----------------------------------------------------------------------
# reduction
# ----------------------------------------------------------------------

class LayerTotals:
    """Self time, call count and summed attributes per span name."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.attrs: Dict[str, Dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        self.root_s = 0.0

    def busy(self, name: str) -> float:
        return self.self_s.get(PREFIX + name, 0.0)

    def count(self, name: str) -> int:
        return self.calls.get(PREFIX + name, 0)

    def attr(self, name: str, key: str) -> float:
        return self.attrs.get(PREFIX + name, {}).get(key, 0.0)


def reduce_spans(spans: Sequence[SpanRecord], roots: Sequence[int],
                 lane: str = "coordinator") -> LayerTotals:
    """Self times of the benchmark spans under the given root span ids.

    Only wall spans of ``lane`` are considered (span ids are unique per
    process, and worker lanes carry their own).  The roots' own self time
    is reported under their name as well; ``root_s`` is their total
    duration.
    """
    local = [s for s in spans if s.lane == lane and s.sim_start is None]
    by_id = {s.span_id: s for s in local}
    mine = {s.span_id: s for s in local if s.name.startswith(PREFIX)}

    def bench_parent(rec: SpanRecord) -> Optional[int]:
        pid = rec.parent_id
        while pid and pid not in mine:
            parent = by_id.get(pid)
            pid = parent.parent_id if parent is not None else 0
        return pid or None

    parent_of = {sid: bench_parent(rec) for sid, rec in mine.items()}

    def root_of(sid: int) -> int:
        while parent_of[sid] is not None:
            sid = parent_of[sid]
        return sid

    root_set = set(roots)
    kept = [rec for sid, rec in mine.items() if root_of(sid) in root_set]
    child_s: Dict[int, float] = defaultdict(float)
    for rec in kept:
        if parent_of[rec.span_id] is not None:
            child_s[parent_of[rec.span_id]] += rec.duration_s

    totals = LayerTotals()
    for rec in kept:
        totals.self_s[rec.name] += rec.duration_s - child_s[rec.span_id]
        totals.calls[rec.name] += 1
        for key, value in rec.attrs.items():
            if isinstance(value, (int, float)):
                totals.attrs[rec.name][key] += value
        if rec.span_id in root_set:
            totals.root_s += rec.duration_s
    return totals
