"""Multiproc cluster backend: one worker process per logical machine.

The in-process backend *simulates* K machines inside one interpreter; this
module runs them as K real worker processes, which is the gateway to every
wall-clock scale claim the repo makes.  The contract is strict functional
parity: a multiproc epoch produces bit-identical per-step losses, identical
:class:`StepRecord` volumes, an identical :class:`CommLedger`, and a stage-
event trace of identical shape to the in-process engines — the differential
test suite (``tests/distributed/test_multiproc_parity.py``) holds it to all
four.

Architecture
------------
The **coordinator** (this process) builds the system as usual, then:

* copies each machine's local feature rows, the reordered graph's CSR
  arrays, and the labels into ``multiprocessing.shared_memory`` segments,
  and creates one extra ``grads`` segment holding the
  :class:`~repro.distributed.shm_plane.GradientPlane` — ``K + 1`` seqlock-
  guarded gradient slabs (one per worker plus the averaged result);
* spawns one *generic* worker per machine (``spawn`` context — no inherited
  state) and **binds** it over the pipe with a picklable-free
  :class:`WorkerSpec` in :mod:`repro.distributed.wire` format, naming the
  segments and carrying the machine's config slice (seeds, fanouts, model
  hyperparameters, its cache selection and train ids);
* drives epochs over duplex pipes that carry **control tokens only**: per
  step the worker writes its gradients into its shared slab and sends a
  ~30-byte ``step`` token; the coordinator averages the slabs in place
  (:func:`~repro.distributed.comm.average_gradient_fields` — the in-process
  collective's exact floating-point sequence), publishes the averaged slab,
  and replies with ``avg`` tokens.  No per-step array ever crosses a pipe.

Telemetry is **batched**: step records, stage events, the synchronized
model state, and compact fetch-plan *audit digests* (per-step
``[total, gpu, cpu, cached, remote, coalesced]`` + per-peer remote row
counts, recomputed worker-side from the plan itself) accumulate in the
worker and ship once per epoch in the ``done`` message.  The coordinator
cross-checks every digest against the reported gather stats, so a worker
that miscounts its remote rows still fails the epoch loudly — without
round-tripping full encoded plans on the hot path.

The coordinator's receive loop is event-driven:
``multiprocessing.connection.wait()`` over every live pipe and process
sentinel, draining into per-worker inboxes — no 20 ms polling granularity,
and machine-order receives can no longer starve behind a slow worker.

Each **worker** attaches the segments (with
``multiprocessing.resource_tracker`` registration suppressed — the
coordinator owns the lifecycle, so only its create/unlink pair is ever
tracked) and rebuilds its machine's runtime from the spec: a
:class:`NeighborSampler` seeded with
:func:`~repro.utils.rng.machine_stream_seed` (spawn-order independent), a
model replica seeded exactly as the in-process trainer's, and a
:class:`PartitionedFeatureStore` whose K stores are views into the shared
segments — so "remote" fetches really cross a process boundary in plan
terms while the rows come from shared memory.

Every process runs **one BLAS thread** (:mod:`repro.utils.blas`): the
child imports :mod:`repro` to unpickle :func:`_worker_main`, and that
import pins numpy's OpenBLAS, exactly as it pinned the coordinator's.
Parallelism comes from the K processes; K OpenBLAS pools of one thread
per core would oversubscribe the cores several times over.  The pin is
also what keeps the losses bit-identical: OpenBLAS splits a GEMM by its
thread count, which moves the product's low-order bits, so every process
must use the same count on every machine, whatever its core count.

Warm worker pool
----------------
Spawning K interpreters and importing numpy in each costs seconds; binding
a spec costs milliseconds.  A backend with :attr:`MultiprocBackend.keep_warm`
set **parks** its workers into the module-level :data:`WORKER_POOL` on
clean close (they release every segment view and wait idle); the next
backend whose cluster *fingerprint* (a content hash over every WorkerSpec —
seeds, id arrays, hyperparameters, segment shapes — excluding the per-run
segment names) matches acquires them and rebinds, amortizing the spawn cost
across ``SalientPP`` runs.  Each worker reports its BLAS thread count in
its ``bound`` reply to every bind, fresh or warm, and a count that differs
from the coordinator's fails the bind with a :class:`WorkerFailedError`
naming the machine, rather than silently breaking loss parity.  Parking is
off by default so teardown-sensitive callers (and the fault-injection
suite) see every process dead after ``close()``; fault-injected or
mid-epoch clusters are never parked.

Failure semantics: a worker that dies, hangs past the timeout, violates the
slab protocol, or reports an exception raises :class:`WorkerFailedError`;
the backend then shuts the whole cluster down — every worker terminated and
joined, every pipe closed, every shared-memory segment unlinked — before
the error propagates.  A ``weakref.finalize`` guard performs the same
cleanup at interpreter exit if a caller forgets
:meth:`MultiprocBackend.close`.

Scope: ``bsp`` and ``pipelined`` engines, static caches, partitioned
storage.  Dynamic caches mutate per-gather (workers attach read-only) and
``async`` applies local updates between barriers; both are rejected at
validation.
"""

from __future__ import annotations

import atexit
import contextlib
import hashlib
import os
import secrets
import sys
import time
import traceback
import weakref
from collections import deque
from dataclasses import dataclass
from multiprocessing import connection as mp_connection
from multiprocessing import get_context
from multiprocessing import resource_tracker, shared_memory
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.distributed.cluster import CLUSTER_BACKENDS, ClusterBackend
from repro.distributed.comm import CommLedger, gradient_nbytes
from repro.distributed.engine import PrefetchIterator, train_batch
from repro.distributed.faults import FaultPlan
from repro.distributed.executor import EpochReport, StepRecord, _candidate_edges
from repro.distributed.feature_store import (
    FetchPlan,
    GatherArena,
    GatherStats,
    MachineStore,
    PartitionedFeatureStore,
)
from repro.distributed.shm_plane import (
    GradientPlane,
    SlabLayout,
    SlabStateError,
)
from repro.distributed.wire import WireError, pack_message, unpack_message
from repro.obs import OBS, clock_anchor, spans_from_wire, spans_to_wire
from repro.utils.blas import blas_threads
from repro.utils.rng import derive_seed, machine_stream_seed

# NOTE: repro.pipeline modules are imported lazily inside functions — same
# import-cycle constraint as repro.distributed.engine.

#: Engines the multiproc backend can schedule (async applies local updates
#: between barriers, which has no lock-step wire protocol).
SUPPORTED_ENGINES = ("bsp", "pipelined")

_READY_TIMEOUT_S = 120.0
_PARK_TIMEOUT_S = 15.0

#: Leading columns of a fetch-plan audit digest row (before the per-peer
#: remote counts): total, gpu, cpu, cached, remote, coalesced.
DIGEST_HEAD = 6


class WorkerFailedError(RuntimeError):
    """A worker process died, hung, or violated the wire protocol.

    On a fail-fast backend (the default), raised by the coordinator *after*
    it has shut the whole cluster down (no orphan processes, no leaked
    shared-memory segments remain).  On a ``recoverable=True`` backend the
    cluster is left standing in a faulted state instead — call
    :meth:`MultiprocBackend.recover` to replace the failed ranks, or
    :meth:`~MultiprocBackend.close` to tear down.
    """

    def __init__(self, message: str, machine: Optional[int] = None):
        super().__init__(message)
        self.machine = machine


@dataclass(frozen=True)
class SegmentSpec:
    """One shared-memory segment: name + the array layout inside it."""

    name: str
    shape: Tuple[int, ...]
    dtype: str


@dataclass
class WorkerSpec:
    """Everything one worker needs to rebuild its machine's runtime.

    Plain wire-encodable data only (ints, strings, ndarrays, segment
    names) — the coordinator ships it over the pipe in a ``bind`` message,
    so a parked warm worker can be rebound without respawning.  Seeds
    arrive fully derived: the coordinator computes each machine's stream
    seeds with :func:`machine_stream_seed` (functions of run seed, stream
    name, and machine id only), so a worker's RNG streams can never depend
    on spawn order, pids, or import order — and are exactly the in-process
    trainer's streams for the same machine.
    """

    machine: int
    num_machines: int
    sampler_seed: int
    order_seed: int
    model_seed: int
    num_vertices: int
    num_classes: int
    feature_dim: int
    fanouts: Tuple[int, ...]
    batch_size: int
    hidden_dim: int
    arch: str
    dropout: float
    lr: float
    engine: str
    pipeline_depth: int
    steps_per_epoch: int
    gpu_rows: int
    part_offsets: np.ndarray
    local_train: np.ndarray
    cache_ids: np.ndarray
    #: "feat0".."featK-1", "indptr", "indices", "labels", "grads"
    segments: Dict[str, SegmentSpec]
    #: Chaos injection: this machine's slice of the backend's
    #: :class:`~repro.distributed.faults.FaultPlan` (kill / hang / corrupt /
    #: torn at an ``(epoch, step)`` point).  Excluded from the cluster
    #: fingerprint — faults are a property of one run, not of the workers.
    faults: Tuple = ()


_SPEC_SCALAR_FIELDS = (
    "machine", "num_machines", "sampler_seed", "order_seed", "model_seed",
    "num_vertices", "num_classes", "feature_dim", "batch_size", "hidden_dim",
    "arch", "dropout", "lr", "engine", "pipeline_depth", "steps_per_epoch",
    "gpu_rows",
)
_SPEC_ARRAY_FIELDS = ("part_offsets", "local_train", "cache_ids")


def _encode_spec(spec: WorkerSpec) -> dict:
    out = {name: getattr(spec, name) for name in _SPEC_SCALAR_FIELDS}
    for name in _SPEC_ARRAY_FIELDS:
        out[name] = getattr(spec, name)
    out["fanouts"] = tuple(spec.fanouts)
    out["segments"] = {
        key: {"name": seg.name, "shape": tuple(seg.shape), "dtype": seg.dtype}
        for key, seg in spec.segments.items()
    }
    out["faults"] = FaultPlan(spec.faults).encode()
    return out


def _decode_spec(fields) -> WorkerSpec:
    if not isinstance(fields, dict):
        raise WireError("worker spec payload must be a dict")
    try:
        segments = {
            key: SegmentSpec(name=seg["name"], shape=tuple(seg["shape"]),
                             dtype=seg["dtype"])
            for key, seg in fields["segments"].items()
        }
        return WorkerSpec(
            fanouts=tuple(fields["fanouts"]),
            segments=segments,
            faults=tuple(FaultPlan.decode(fields["faults"])),
            **{name: fields[name]
               for name in _SPEC_SCALAR_FIELDS + _SPEC_ARRAY_FIELDS},
        )
    except (KeyError, TypeError, IndexError) as exc:
        raise WireError(f"malformed worker spec: {exc}") from None


def _cluster_fingerprint(specs: List[WorkerSpec]) -> str:
    """Content hash identifying a worker cluster's full configuration.

    Two backends whose spec lists hash equal would bind byte-identical
    runtimes, so their workers are interchangeable — the warm pool's key.
    Segment *names* are excluded (random per backend; contents are re-
    attached at bind time), as is the fault schedule (a parked worker holds
    no spec, so a recovered cluster's workers are as generic as any);
    segment shapes/dtypes, every seed, every id array, and every
    hyperparameter are included.
    """
    h = hashlib.sha256()
    for spec in specs:
        enc = _encode_spec(spec)
        for key in sorted(enc):
            if key == "faults":
                continue
            val = enc[key]
            h.update(key.encode("utf8"))
            if key == "segments":
                for skey in sorted(val):
                    seg = val[skey]
                    h.update(
                        f"{skey}:{seg['shape']}:{seg['dtype']};".encode("utf8"))
            elif isinstance(val, np.ndarray):
                h.update(f"{val.dtype}:{val.shape}:".encode("utf8"))
                h.update(np.ascontiguousarray(val).tobytes())
            else:
                h.update(repr(val).encode("utf8"))
    return h.hexdigest()


class _PartMap:
    """Worker-side stand-in for :class:`ReorderedDataset`: the reorder
    offsets are all the feature store needs (ownership bisection and part
    ranges), so workers never ship the dataset itself."""

    def __init__(self, part_offsets: np.ndarray):
        self.part_offsets = np.asarray(part_offsets, dtype=np.int64)
        self.num_parts = len(self.part_offsets) - 1

    def owner_of(self, new_ids: np.ndarray) -> np.ndarray:
        ids = np.asarray(new_ids, dtype=np.int64)
        return np.searchsorted(self.part_offsets, ids, side="right") - 1

    def part_range(self, k: int) -> Tuple[int, int]:
        return int(self.part_offsets[k]), int(self.part_offsets[k + 1])


# ----------------------------------------------------------------------
# record / event codecs (dict payloads for repro.distributed.wire)
# ----------------------------------------------------------------------

def _encode_stats(g: GatherStats) -> dict:
    return {
        "total_rows": g.total_rows,
        "gpu_rows": g.gpu_rows,
        "cpu_rows": g.cpu_rows,
        "cached_rows": g.cached_rows,
        "remote_rows": g.remote_rows,
        "remote_per_peer": g.remote_per_peer,
        "cache_insertions": g.cache_insertions,
        "cache_evictions": g.cache_evictions,
        "refresh_fetch_per_peer": g.refresh_fetch_per_peer,
        "coalesced_rows": g.coalesced_rows,
    }


def _encode_record(rec: StepRecord) -> dict:
    return {
        "machine": rec.machine,
        "step": rec.step,
        "batch_size": rec.batch_size,
        "mfg_vertices": rec.mfg_vertices,
        "mfg_edges": rec.mfg_edges,
        "candidate_edges": rec.candidate_edges,
        "block_sizes": rec.block_sizes,
        "gather": _encode_stats(rec.gather),
        "loss": rec.loss,
    }


def _decode_record(fields: dict) -> StepRecord:
    g = dict(fields["gather"])
    return StepRecord(
        machine=fields["machine"],
        step=fields["step"],
        batch_size=fields["batch_size"],
        mfg_vertices=fields["mfg_vertices"],
        mfg_edges=fields["mfg_edges"],
        candidate_edges=fields["candidate_edges"],
        block_sizes=tuple(tuple(b) for b in fields["block_sizes"]),
        gather=GatherStats(**g),
        loss=fields["loss"],
    )


def _encode_events(events) -> list:
    return [(ev.stage.value, ev.machine, ev.step, list(ev.volumes))
            for ev in events]


def _decode_events(raw: list):
    from repro.pipeline.events import Stage, StageEvent

    return [StageEvent(stage=Stage(stage), machine=machine, step=step,
                       volumes=tuple((key, val) for key, val in volumes))
            for stage, machine, step, volumes in raw]


def _plan_digest(plan: FetchPlan, owner_of, num_machines: int,
                 fresh: Optional[np.ndarray] = None) -> np.ndarray:
    """One audit-digest row for a fetch plan, computed *from the plan*.

    ``[total, gpu, cpu, cached, remote, coalesced]`` followed by the
    per-peer remote row counts.  ``fresh`` (a coalesced window's
    first-request mask) splits the plan's remote ids into genuinely remote
    vs coalesced, matching how ``execute_coalesced`` attributes them.  The
    coordinator compares these rows against the reported
    :class:`GatherStats`, replacing the old full-plan wire echo.
    """
    if fresh is None:
        remote_ids = plan.remote_ids
        coalesced = 0
    else:
        remote_ids = plan.remote_ids[fresh]
        coalesced = int(len(plan.remote_ids) - len(remote_ids))
    if len(remote_ids):
        per_peer = np.bincount(owner_of(remote_ids), minlength=num_machines)
    else:
        per_peer = np.zeros(num_machines, dtype=np.int64)
    head = np.array([len(plan.ids), plan.gpu_rows, plan.cpu_rows,
                     len(plan.cached_ids), len(remote_ids), coalesced],
                    dtype=np.int64)
    return np.concatenate([head, per_peer.astype(np.int64, copy=False)])


def _stats_digest(g: GatherStats) -> np.ndarray:
    """The digest row a :class:`GatherStats` implies (coordinator side)."""
    head = np.array([g.total_rows, g.gpu_rows, g.cpu_rows, g.cached_rows,
                     g.remote_rows, g.coalesced_rows], dtype=np.int64)
    return np.concatenate([
        head, np.asarray(g.remote_per_peer, dtype=np.int64).ravel()])


# ----------------------------------------------------------------------
# shared-memory plumbing
# ----------------------------------------------------------------------

def _create_segment(name: str, arr: np.ndarray):
    """Create + fill one segment; returns ``(SharedMemory, SegmentSpec)``.

    No numpy view of the buffer survives this function — the coordinator
    must be able to ``close()``/``unlink()`` without BufferError.
    """
    shm = shared_memory.SharedMemory(create=True, name=name,
                                     size=max(int(arr.nbytes), 1))
    if arr.size:
        view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf)
        view[...] = arr
        del view
    spec = SegmentSpec(name=shm.name, shape=tuple(arr.shape),
                       dtype=arr.dtype.str)
    return shm, spec


def _attach_shm(name: str):
    """Attach an existing segment without resource-tracker registration.

    On Python < 3.13 attaching registers the segment with the resource
    tracker, which the coordinator's later ``unlink`` would then
    double-unregister (the tracker keys by name, shared across the spawn
    tree) — and a worker dying uncleanly would make the tracker unlink a
    segment it does not own.  The coordinator created the segment and owns
    its lifecycle, so the attach is made invisible to the tracker
    (``track=False`` is the 3.13+ spelling of the same thing).
    """
    orig_register = resource_tracker.register
    resource_tracker.register = lambda *a, **k: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = orig_register


def _attach_segment(spec: SegmentSpec):
    """Attach one segment read-only; returns ``(SharedMemory, view)``."""
    shm = _attach_shm(spec.name)
    view = np.ndarray(spec.shape, dtype=np.dtype(spec.dtype), buffer=shm.buf)
    view.flags.writeable = False
    return shm, view


# ----------------------------------------------------------------------
# worker process
# ----------------------------------------------------------------------

class _EpochAborted(Exception):
    """Coordinator told this worker to abandon the in-flight epoch (another
    machine faulted); unwind to the command loop and acknowledge."""


class _WorkerRuntime:
    """One machine's runtime inside its worker process."""

    def __init__(self, spec: WorkerSpec, conn):
        import repro.pipeline.events  # noqa: F401 — warm run_epoch's lazy import
        from repro.graph.csr import CSRGraph

        self.spec = spec
        self.conn = conn
        k, K = spec.machine, spec.num_machines

        # Chaos state: scheduled faults not yet fired, plus the two flags
        # the deferred kinds arm (corrupt poisons the next outgoing message,
        # torn leaves the slab seqlock odd after the step's publish).
        self._pending_faults = list(spec.faults)
        self._corrupt_next = False
        self._torn_steps = set()

        # Attach every data segment; keep the SharedMemory objects alive
        # while the runtime exists (views borrow their buffers).  The
        # gradient plane attaches writable, below.
        self._shms = []
        views = {}
        for key, seg in spec.segments.items():
            if key == "grads":
                continue
            shm, view = _attach_segment(seg)
            self._shms.append(shm)
            views[key] = view
        self.labels = views["labels"]
        self.graph = CSRGraph(views["indptr"], views["indices"], check=False)

        part_map = _PartMap(spec.part_offsets)
        dim = spec.feature_dim
        feat_dtype = views["feat0"].dtype
        empty_ids = np.empty(0, dtype=np.int64)
        empty_rows = np.empty((0, dim), dtype=feat_dtype)

        # This machine's cache rows, gathered from the owners' segments —
        # bit-identical to the build-time ds.features[cache_ids] slice.
        cache_ids = np.asarray(spec.cache_ids, dtype=np.int64)
        cache_rows = np.empty((len(cache_ids), dim), dtype=feat_dtype)
        if len(cache_ids):
            owners = part_map.owner_of(cache_ids)
            for peer in np.unique(owners):
                sel = owners == peer
                lo, _hi = part_map.part_range(int(peer))
                cache_rows[sel] = views[f"feat{int(peer)}"][cache_ids[sel] - lo]

        stores = []
        for j in range(K):
            lo, hi = part_map.part_range(j)
            stores.append(MachineStore(
                part_id=j, lo=lo, hi=hi,
                local_features=views[f"feat{j}"],
                gpu_rows=spec.gpu_rows if j == k else 0,
                cache_ids=cache_ids if j == k else empty_ids,
                cache_features=cache_rows if j == k else empty_rows,
                num_vertices=spec.num_vertices,
            ))
        self.store = PartitionedFeatureStore(stores, part_map, dim,
                                             feat_dtype.itemsize)

        self._init_training_state()
        self.degrees = self.graph.degrees
        self.arena = GatherArena()
        self.dims = (dim, spec.hidden_dim, spec.num_classes)

        # Gradient plane: this worker's slab (write) + the averaged slab
        # (read).  Both sides derive the layout from named_parameters()
        # order; the segment size check catches any disagreement.
        self.grad_plane = None
        self._my_slab = self._avg_slab = None
        grads_seg = spec.segments.get("grads")
        if grads_seg is not None:
            params = [p.data for _n, p in self.model.named_parameters()]
            layout = SlabLayout.from_templates(params)
            shm = _attach_shm(grads_seg.name)
            self._shms.append(shm)
            self.grad_plane = GradientPlane(shm.buf, K, layout)
            self._my_slab = self.grad_plane.worker_slabs[k]
            self._avg_slab = self.grad_plane.avg_slab
            self._avg_bufs = [np.empty_like(p) for p in params]

    def _init_training_state(self) -> None:
        """(Re)build the sampler/model/optimizer at epoch-0 initial state.

        Seeding mirrors DistributedTrainer exactly: the sampler stream seed
        is this machine's ``machine_stream_seed`` (spawn-order independent),
        the model seed is shared by every replica (identical initial
        weights, no broadcast needed).  Called at bind time and again on a
        ``restore`` with no checkpoint — replaying epoch 0 after a fault
        needs exactly the bind-time state back.
        """
        from repro.nn.models import build_model
        from repro.nn.optim import Adam

        from repro.sampling.neighbor import NeighborSampler

        spec = self.spec
        self.sampler = NeighborSampler(self.graph, spec.fanouts,
                                       seed=spec.sampler_seed)
        self.model = build_model(
            spec.arch, spec.feature_dim, spec.hidden_dim, spec.num_classes,
            len(spec.fanouts), dropout=spec.dropout,
            seed=spec.model_seed,
        )
        self.optimizer = Adam(self.model.parameters(), lr=spec.lr)

    def _rng_modules(self) -> list:
        """Every submodule owning a ``_rng`` stream (Dropout layers), in
        deterministic registration order — the checkpoint captures and
        restores their cursors positionally."""
        out = []

        def walk(mod):
            if getattr(mod, "_rng", None) is not None:
                out.append(mod)
            for child in mod._modules.values():
                walk(child)

        walk(self.model)
        return out

    def capture_state(self) -> dict:
        """Wire-encodable snapshot of everything that advances per step:
        model weights, Adam moments, and every RNG cursor (sampler +
        dropout streams).  Taken at an epoch boundary, this is sufficient
        to replay the next epoch bit-identically."""
        return {
            "model": dict(self.model.state_dict()),
            "adam": self.optimizer.state_dict(),
            "sampler": self.sampler.rng_state(),
            "layer_rngs": [repr(m._rng.bit_generator.state)
                           for m in self._rng_modules()],
        }

    def restore_state(self, payload) -> None:
        """Load a :meth:`capture_state` snapshot (``None`` → epoch-0 fresh
        state).  RNG states travel as ``repr`` strings because PCG64
        cursors are 128-bit ints, beyond the wire's 64-bit range."""
        import ast

        if payload is None:
            self._init_training_state()
            return
        self.model.load_state_dict(payload["model"])
        self.optimizer.load_state_dict(payload["adam"])
        self.sampler.set_rng_state(payload["sampler"])
        rng_mods = self._rng_modules()
        states = payload["layer_rngs"]
        if len(states) != len(rng_mods):
            raise RuntimeError(
                f"checkpoint has {len(states)} layer RNG streams, model "
                f"has {len(rng_mods)}")
        for mod, state in zip(rng_mods, states):
            mod._rng.bit_generator.state = ast.literal_eval(state)

    def release(self) -> None:
        """Drop every view into shared memory and close the attachments —
        required before this process can be parked (the coordinator will
        unlink the segments) or rebound to a new cluster."""
        if self.grad_plane is not None:
            self.grad_plane.release()
            self.grad_plane = None
        self._my_slab = self._avg_slab = None
        self.labels = self.graph = self.store = None
        self.sampler = self.model = self.optimizer = None
        self.degrees = self.arena = None
        import gc

        gc.collect()
        for shm in self._shms:
            try:
                shm.close()
            except Exception:
                pass
        self._shms = []

    # -- protocol ------------------------------------------------------
    def send(self, kind: str, payload) -> None:
        data = pack_message(kind, payload)
        if self._corrupt_next:
            # Armed by a "corrupt" fault: flip the last payload byte (just
            # inside the CRC32 trailer) so the frame is well-formed but its
            # checksum is wrong — the coordinator must reject, not decode.
            self._corrupt_next = False
            torn = bytearray(data)
            torn[-5] ^= 0xFF
            data = bytes(torn)
        self.conn.send_bytes(data)

    def recv(self) -> Tuple[str, object]:
        return unpack_message(self.conn.recv_bytes())

    # -- training ------------------------------------------------------
    def _batches(self, epoch: int):
        return self.sampler.batches(
            self.spec.local_train, self.spec.batch_size,
            drop_last=True, epoch=epoch,
            seed=self.spec.order_seed,
        )

    def _make_record(self, step: int, mfg, stats, loss) -> StepRecord:
        return StepRecord(
            machine=self.spec.machine,
            step=step,
            batch_size=mfg.batch_size,
            mfg_vertices=mfg.num_vertices,
            mfg_edges=mfg.num_edges,
            candidate_edges=_candidate_edges(self.degrees, mfg),
            block_sizes=tuple(
                (b.num_src, b.num_dst, b.num_edges) for b in mfg.blocks
            ),
            gather=stats,
            loss=loss,
        )

    def _grads(self) -> list:
        return [p.grad for _name, p in self.model.named_parameters()]

    def _sync_step(self, step: int) -> None:
        """Publish this step's gradients, wait for the averaged slab, and
        step the optimizer — the token-only replacement for shipping
        gradient arrays both ways."""
        self._my_slab.write(self._grads(), step)
        if step in self._torn_steps:
            # "torn" fault: re-enter a write (seqlock odd) after the
            # publish, then report the step anyway — the coordinator's
            # average() must see the in-flight write and attribute it here.
            self._torn_steps.discard(step)
            self._my_slab.begin_write()
        self.send("step" if self.spec.engine == "bsp" else "wstep",
                  {"step": step})
        kind, payload = self.recv()
        if kind == "abort":
            raise _EpochAborted
        if kind != "avg":
            raise RuntimeError(f"expected avg, got {kind!r}")
        if payload["step"] != step:
            raise RuntimeError(
                f"avg token for step {payload['step']}, expected {step}")
        self._avg_slab.read_into(self._avg_bufs, step)
        params = [p for _name, p in self.model.named_parameters()]
        for p, g in zip(params, self._avg_bufs):
            p.grad = g
        self.optimizer.step()

    def _inject_faults(self, epoch: int, step_lo: int, step_hi: int) -> None:
        """Fire any scheduled fault whose injection point falls in this
        epoch's ``[step_lo, step_hi)`` (a single step for bsp, a window for
        pipelined).  Each fault fires at most once."""
        for fault in list(self._pending_faults):
            if fault.epoch != epoch or not step_lo <= fault.step < step_hi:
                continue
            self._pending_faults.remove(fault)
            if fault.kind == "kill":
                os._exit(13)  # simulated hard crash (no cleanup, no goodbye)
            elif fault.kind == "hang":
                time.sleep(fault.duration_s)  # wedged past any timeout_s
            elif fault.kind == "corrupt":
                self._corrupt_next = True
            elif fault.kind == "torn":
                self._torn_steps.add(fault.step)

    def run_epoch(self, epoch: int, dry_run: bool,
                  trace_ctx: Optional[dict] = None) -> None:
        spec = self.spec
        k = spec.machine
        if trace_ctx:
            # The coordinator shipped its trace context in the run token:
            # record this epoch's spans under the same trace id, parented
            # on the coordinator's epoch span, and batch them into the
            # done message (no extra hot-path wire traffic).
            OBS.enable(lane=f"worker-{k}",
                       trace_id=trace_ctx.get("trace_id"))
            OBS.tracer.drain()
            OBS.metrics.reset()
        parent = int(trace_ctx.get("parent") or 0) if trace_ctx else None
        events = _EventSink()
        records: List[StepRecord] = []
        digests: List[np.ndarray] = []
        owner_of = self.store.reordered.owner_of
        try:
            self._run_epoch_body(epoch, dry_run, parent, events, records,
                                 digests, owner_of)
        except _EpochAborted:
            # Another machine faulted; the coordinator is quiescing the
            # cluster.  Drop the partial epoch (a later "restore" rewinds
            # the training state) and acknowledge.
            if trace_ctx:
                OBS.disable()
            self.send("aborted", {"machine": k})
            return

        state = None
        if not dry_run:
            state = dict(self.model.state_dict())
        digest_mat = (np.stack(digests) if digests else
                      np.zeros((0, DIGEST_HEAD + spec.num_machines),
                               dtype=np.int64))
        done = {
            "records": [_encode_record(r) for r in records],
            "digests": digest_mat,
            "events": _encode_events(events.events),
            "state": state,
        }
        if trace_ctx:
            done["spans"] = spans_to_wire(OBS.tracer.drain())
            done["clock"] = list(clock_anchor())
            done["metrics"] = OBS.metrics.snapshot()
            OBS.disable()
        self.send("done", done)

    def _run_epoch_body(self, epoch: int, dry_run: bool, parent, events,
                        records: list, digests: list, owner_of) -> None:
        from repro.pipeline.events import emit_step_events

        spec = self.spec
        k = spec.machine
        with OBS.span("worker.epoch", parent_id=parent, machine=k,
                      epoch=epoch, engine=spec.engine, dry_run=dry_run):
            if spec.engine == "bsp":
                iterator = self._batches(epoch)
                for step in range(spec.steps_per_epoch):
                    with OBS.span("worker.step", step=step,
                                  hist="worker.step_wall_s"):
                        mfg = next(iterator)
                        plan = self.store.plan_gather(k, mfg.n_id)
                        feats, stats = self.store.execute(
                            plan, out=self.arena.out((k, 0), len(mfg.n_id),
                                                     spec.feature_dim,
                                                     feats_dtype(self)),
                        )
                        self._inject_faults(epoch, step, step + 1)
                        loss = None
                        if not dry_run:
                            loss = train_batch(self.model, feats, mfg,
                                               self.labels[mfg.seeds])
                        rec = self._make_record(step, mfg, stats, loss)
                        records.append(rec)
                        digests.append(
                            _plan_digest(plan, owner_of, spec.num_machines))
                        emit_step_events(events, rec, 0, self.dims,
                                         window_start=step)
                        if dry_run:
                            self.send("step", {"step": step})
                        else:
                            self._sync_step(step)
            elif spec.engine == "pipelined":
                self._run_pipelined_epoch(epoch, dry_run, events, records,
                                          digests)
            else:  # pragma: no cover - validated coordinator-side
                raise RuntimeError(f"unsupported engine {spec.engine!r}")

    def _run_pipelined_epoch(self, epoch: int, dry_run: bool, events,
                             records: list, digests: list) -> None:
        from repro.pipeline.events import emit_step_events

        spec = self.spec
        k = spec.machine
        owner_of = self.store.reordered.owner_of
        steps, depth = spec.steps_per_epoch, spec.pipeline_depth
        prefetcher = PrefetchIterator(self._batches(epoch), depth)
        for w0 in range(0, steps, depth):
            w1 = min(w0 + depth, steps)
            with OBS.span("worker.window", window=w0, width=w1 - w0,
                          hist="worker.window_wall_s"):
                width = w1 - w0
                mfgs = prefetcher.next_window(width)
                if len(mfgs) != width:
                    raise RuntimeError(
                        f"machine {k} batch stream ended early "
                        f"({len(mfgs)}/{width} batches in window {w0})"
                    )
                plans = [self.store.plan_gather(k, mfg.n_id) for mfg in mfgs]
                cplan = FetchPlan.coalesce(plans)
                results = self.store.execute_coalesced(
                    cplan,
                    outs=[self.arena.out((k, i), len(p.ids),
                                         spec.feature_dim,
                                         feats_dtype(self))
                          for i, p in enumerate(plans)],
                )
                self._inject_faults(epoch, w0, w1)
                recs = [self._make_record(s, mfgs[i], results[i][1], None)
                        for i, s in enumerate(range(w0, w1))]
                records.extend(recs)
                digests.extend(
                    _plan_digest(plan, owner_of, spec.num_machines,
                                 fresh=fresh)
                    for plan, fresh in zip(cplan.plans, cplan.first_request))
                for rec in recs:
                    emit_step_events(events, rec, 0, self.dims,
                                     window_start=w0)
                self.send("window", {"w0": w0})
                if not dry_run:
                    for i, s in enumerate(range(w0, w1)):
                        loss = train_batch(self.model, results[i][0],
                                           mfgs[i],
                                           self.labels[mfgs[i].seeds])
                        recs[i].loss = loss
                        self._sync_step(s)


class _EventSink:
    """Minimal stand-in for an EventTrace on the worker side: collects the
    per-step events ``emit_step_events`` emits; the coordinator merges them
    into the real trace."""

    def __init__(self):
        self.events = []

    def add(self, stage, machine, step, **volumes):
        from repro.pipeline.events import StageEvent

        self.events.append(StageEvent(stage=stage, machine=machine, step=step,
                                      volumes=tuple(volumes.items())))


def feats_dtype(runtime: _WorkerRuntime) -> np.dtype:
    return runtime.store.stores[runtime.spec.machine].local_features.dtype


def _worker_main(conn) -> None:
    """Worker process entry point (must be module-level for spawn).

    Generic: the process is spawned bare, announces ``ready``, and builds
    its runtime only when the coordinator ``bind``\\ s a :class:`WorkerSpec`
    over the pipe — which is also how a parked warm-pool worker is rebound
    by a later backend.  ``park`` releases every shared-memory view and
    returns the process to the idle loop.
    """
    runtime = None
    try:
        conn.send_bytes(pack_message("ready", {"pid": os.getpid()}))
        while True:
            kind, payload = unpack_message(conn.recv_bytes())
            if kind == "stop":
                if runtime is not None:
                    # Drop every shared-memory view before a normal exit,
                    # or SharedMemory.__del__ hits BufferError at teardown.
                    runtime.release()
                    runtime = None
                return
            elif kind == "bind":
                if runtime is not None:
                    runtime.release()
                    runtime = None
                runtime = _WorkerRuntime(_decode_spec(payload), conn)
                conn.send_bytes(pack_message(
                    "bound", {"machine": runtime.spec.machine,
                              "blas_threads": blas_threads()}))
            elif kind == "park":
                if runtime is not None:
                    runtime.release()
                    runtime = None
                conn.send_bytes(pack_message("parked", {"pid": os.getpid()}))
            elif kind == "run":
                if runtime is None:
                    raise RuntimeError("run received before bind")
                runtime.run_epoch(payload["epoch"], payload["dry_run"],
                                  payload.get("trace"))
            elif kind == "abort":
                # Recovery quiesce reached an already-idle worker (its
                # epoch finished, or it never started one): nothing to
                # unwind, acknowledge immediately.
                machine = None if runtime is None else runtime.spec.machine
                conn.send_bytes(pack_message("aborted", {"machine": machine}))
            elif kind == "ckpt":
                if runtime is None:
                    raise RuntimeError("ckpt received before bind")
                conn.send_bytes(pack_message("state", runtime.capture_state()))
            elif kind == "restore":
                if runtime is None:
                    raise RuntimeError("restore received before bind")
                runtime.restore_state(payload)
                conn.send_bytes(pack_message(
                    "restored", {"machine": runtime.spec.machine}))
            else:
                raise RuntimeError(f"unexpected coordinator message {kind!r}")
    except (EOFError, BrokenPipeError, OSError):
        # The coordinator went away; nothing to report to.
        os._exit(1)
    except Exception:
        try:
            conn.send_bytes(pack_message("error", {
                "machine": None if runtime is None else runtime.spec.machine,
                "traceback": traceback.format_exc(),
            }))
        except Exception:
            pass
        os._exit(1)
    finally:
        try:
            conn.close()
        except Exception:
            pass


# ----------------------------------------------------------------------
# warm worker pool
# ----------------------------------------------------------------------

class WorkerPool:
    """Parked warm worker clusters, keyed by cluster fingerprint.

    A parked worker is a live, idle process holding no shared-memory
    attachments — just the imported interpreter (the expensive part of a
    spawn).  Clusters park and acquire as a unit: machine ``k``'s pipe
    stays machine ``k``'s pipe.  Dead clusters found at acquire time are
    disposed of; :meth:`clear` (also registered ``atexit``) stops
    everything politely, then escalates.
    """

    def __init__(self):
        self._clusters: Dict[str, List[list]] = {}
        # Loose parked workers left over when recovery broke a cluster up
        # for a single-rank replacement; same fingerprint key.
        self._spares: Dict[str, list] = {}

    @property
    def num_parked(self) -> int:
        """Total parked worker processes across all fingerprints."""
        return sum(len(workers) for stack in self._clusters.values()
                   for workers in stack) \
            + sum(len(v) for v in self._spares.values())

    def park(self, key: str, workers: list) -> None:
        self._clusters.setdefault(key, []).append(list(workers))

    def acquire(self, key: str) -> Optional[list]:
        """Pop one fully-alive parked cluster for ``key``, or ``None``."""
        stack = self._clusters.get(key)
        while stack:
            workers = stack.pop()
            if not stack:
                self._clusters.pop(key, None)
            if all(proc.is_alive() for proc, _conn in workers):
                return workers
            self._dispose(workers)
        self._clusters.pop(key, None)
        return None

    def acquire_spare(self, key: str):
        """Pop one live parked worker for ``key`` — recovery's warm path.

        Prefers a loose spare; otherwise breaks up a parked cluster of the
        same fingerprint (the remainder becomes spares — parked workers
        are generic, so any of them can be rebound as any rank).  Returns
        a ``(process, conn)`` pair or ``None``.
        """
        spares = self._spares.get(key, [])
        while spares:
            proc, conn = spares.pop()
            if not spares:
                self._spares.pop(key, None)
            if proc.is_alive():
                return proc, conn
            self._dispose([(proc, conn)])
        cluster = self.acquire(key)
        if cluster is None:
            return None
        taken = cluster.pop()
        if cluster:
            self._spares.setdefault(key, []).extend(cluster)
        return taken

    def clear(self) -> None:
        for stack in self._clusters.values():
            for workers in stack:
                self._dispose(workers)
        self._clusters.clear()
        for spares in self._spares.values():
            self._dispose(spares)
        self._spares.clear()

    @staticmethod
    def _dispose(workers: list) -> None:
        for _proc, conn in workers:
            try:
                conn.send_bytes(pack_message("stop", None))
            except Exception:
                pass
        deadline = time.monotonic() + 5.0
        for proc, conn in workers:
            try:
                proc.join(timeout=max(0.0, deadline - time.monotonic()))
            except Exception:
                pass
            for escalate in ("terminate", "kill"):
                if not proc.is_alive():
                    break
                try:
                    getattr(proc, escalate)()
                    proc.join(timeout=5.0)
                except Exception:
                    pass
            try:
                conn.close()
            except Exception:
                pass


#: The process-wide warm pool (see :class:`WorkerPool`); cleared atexit.
WORKER_POOL = WorkerPool()
atexit.register(WORKER_POOL.clear)


# ----------------------------------------------------------------------
# coordinator
# ----------------------------------------------------------------------

@contextlib.contextmanager
def _spawn_safe_main():
    """Make ``Process.start()`` safe when ``__main__`` has no real file.

    The spawn context re-imports the parent's ``__main__`` in every child;
    with code fed via stdin (``python -``, heredocs) the recorded path is
    the pseudo-file ``"<stdin>"`` and the child dies in ``runpy`` before
    reaching the worker target.  Our workers are self-contained (the target
    is this module's :func:`_worker_main`, the state a wire-encoded spec),
    so when the main module's file does not actually exist we drop its
    ``__file__`` for the duration of the spawn — ``get_preparation_data``
    then skips the main-module fixup entirely.
    """
    main = sys.modules.get("__main__")
    path = getattr(main, "__file__", None)
    strip = (path is not None
             and getattr(main, "__spec__", None) is None
             and not os.path.exists(path))
    if strip:
        del main.__file__
    try:
        yield
    finally:
        if strip and not hasattr(main, "__file__"):
            main.__file__ = path


@CLUSTER_BACKENDS.register("multiproc")
class MultiprocBackend(ClusterBackend):
    """Coordinator for K worker processes over shared-memory segments.

    Built lazily: the first :meth:`run_epoch` creates the segments and
    spawns (or acquires from :data:`WORKER_POOL`) the workers; they persist
    across epochs (sampler and optimizer state live worker-side, exactly
    as the in-process trainer's persists across epochs).  After a non-dry
    epoch the synchronized model weights are loaded back into the system's
    in-process replicas, so ``system.evaluate()`` sees the trained model.

    Parameters
    ----------
    system:
        A built :class:`~repro.core.system.SalientPP` (``bsp`` or
        ``pipelined`` engine, static caches, partitioned storage).
    timeout_s:
        Per-message coordinator patience before declaring a worker hung.
    keep_warm:
        Park the workers into the module-level :data:`WORKER_POOL` on clean
        close instead of stopping them, so the next backend with the same
        cluster fingerprint skips the spawn cost.  Off by default — with it
        off, ``close()`` leaves every worker process dead (the teardown
        contract the fault suite asserts).  Mutable attribute; fault-
        injected or mid-epoch clusters are never parked regardless.
    fault_injection:
        Legacy chaos hook: ``{machine: (epoch, step)}`` hard-kills the
        machine's worker mid-epoch at that point — sugar for a kill-only
        ``faults`` plan.
    faults:
        A :class:`~repro.distributed.faults.FaultPlan` scheduling kill /
        hang / corrupt / torn faults on specific machines at specific
        ``(epoch, step)`` points; validated against the cluster shape at
        :meth:`start`.
    recoverable:
        With this set, a worker failure *mid-epoch* marks the backend
        faulted instead of tearing the cluster down; :meth:`recover`
        replaces the failed ranks (warm spares when the pool has matching
        workers), quiesces the survivors and the gradient plane, and
        restores a :meth:`capture_checkpoint` snapshot so the interrupted
        epoch can be replayed bit-identically.  Off by default — fail-stop
        teardown remains the contract for everyone else.

    Wire accounting: :attr:`wire_sent` / :attr:`wire_received` map message
    kind to ``[message_count, total_bytes]`` — the regression test for
    "pipes carry control tokens only" reads these.
    """

    name = "multiproc"

    def __init__(self, system, *, timeout_s: float = 120.0,
                 keep_warm: bool = False,
                 fault_injection: Optional[Dict[int, Tuple[int, int]]] = None,
                 faults: Optional[FaultPlan] = None,
                 recoverable: bool = False):
        super().__init__(system)
        store = system.trainer.store
        engine = system.config.engine
        if engine not in SUPPORTED_ENGINES:
            raise ValueError(
                f"multiproc backend supports engines {SUPPORTED_ENGINES}, "
                f"got {engine!r}"
            )
        if store.has_dynamic_caches:
            raise ValueError(
                "multiproc backend requires static caches: workers attach "
                "feature segments read-only, dynamic caches mutate per gather"
            )
        if store.is_replicated:
            raise ValueError(
                "multiproc backend requires partitioned storage; full "
                "replication would copy the whole feature matrix per segment"
            )
        self.timeout_s = float(timeout_s)
        self.keep_warm = bool(keep_warm)
        self.fault_injection = dict(fault_injection or {})
        self.fault_plan = FaultPlan(
            list(FaultPlan.from_kill_points(self.fault_injection))
            + list(faults or ()))
        self.recoverable = bool(recoverable)
        #: Ranks whose workers faulted in the current (unrecovered) episode.
        self._faulted_machines: set = set()
        self._faulted = False
        self._recovered = False
        self._in_recovery = False
        self._epoch_active = False
        #: Cumulative count of ranks replaced by :meth:`recover`.
        self.restarts_total = 0
        self._started = False
        self._closing = False
        self._idle = True
        self._procs: List = []
        self._conns: List = []
        self._segments: List = []
        self._holders: List = []
        self._inboxes: List[deque] = []
        self._conn_open: List[bool] = []
        self._grad_plane: Optional[GradientPlane] = None
        self._pool_key: Optional[str] = None
        self.segment_names: List[str] = []
        #: Per-machine specs shipped to the workers (set by start()) —
        #: inspectable so tests can assert the derived seed contract.
        self.worker_specs: List[WorkerSpec] = []
        #: True when start() rebound a parked warm-pool cluster instead of
        #: spawning fresh processes.
        self.reused_pool = False
        #: kind -> [message_count, total_bytes] for each pipe direction.
        self.wire_sent: Dict[str, List[int]] = {}
        self.wire_received: Dict[str, List[int]] = {}
        self._finalizer = None
        #: Span id of the epoch currently running (0 outside an epoch or
        #: with observability off) — broadcast to workers so their epoch
        #: spans parent onto the coordinator's.
        self._epoch_span_id = 0

    # -- lifecycle -----------------------------------------------------
    @property
    def is_live(self) -> bool:
        return self._started and self._finalizer is not None \
            and self._finalizer.alive

    @property
    def processes(self) -> List:
        """The worker Process objects (test hook; empty before start)."""
        return list(self._procs)

    def start(self) -> None:
        """Create segments, spawn or acquire workers, bind their specs."""
        if self._started:
            return
        tr = self.system.trainer
        K = tr.num_machines
        self.fault_plan.validate(num_machines=K,
                                 steps_per_epoch=tr.steps_per_epoch())
        prefix = f"rpmp{secrets.token_hex(4)}"
        ctx = get_context("spawn")

        specs: Dict[str, SegmentSpec] = {}
        try:
            arrays = {f"feat{k}": tr.store.stores[k].local_features
                      for k in range(K)}
            arrays["indptr"] = tr.ds.graph.indptr
            arrays["indices"] = tr.ds.graph.indices
            arrays["labels"] = tr.ds.labels
            for key, arr in arrays.items():
                shm, seg = _create_segment(f"{prefix}{key}", arr)
                self._segments.append(shm)
                self.segment_names.append(seg.name)
                specs[key] = seg

            # The gradient plane: K worker slabs + the averaged slab, laid
            # out from the coordinator replica's parameter order (workers
            # re-derive the same layout and verify by size).
            layout = SlabLayout.from_templates(
                [p.data for _n, p in tr.models[0].named_parameters()])
            plane_shm = shared_memory.SharedMemory(
                create=True, name=f"{prefix}grads",
                size=max(layout.plane_nbytes(K), 1))
            self._segments.append(plane_shm)
            self.segment_names.append(plane_shm.name)
            specs["grads"] = SegmentSpec(
                name=plane_shm.name, shape=(layout.plane_nbytes(K),),
                dtype="|u1")
            self._grad_plane = GradientPlane(plane_shm.buf, K, layout)
            self._grad_plane.reset()
            self._holders.append(self._grad_plane)

            cfg = self.system.config
            for k in range(K):
                spec = WorkerSpec(
                    machine=k,
                    num_machines=K,
                    sampler_seed=machine_stream_seed(tr.seed, "sampler", k),
                    order_seed=machine_stream_seed(tr.seed, "order", k),
                    model_seed=derive_seed(tr.seed, "model"),
                    num_vertices=tr.ds.num_vertices,
                    num_classes=tr.ds.num_classes,
                    feature_dim=tr.ds.feature_dim,
                    fanouts=tr.fanouts,
                    batch_size=tr.batch_size,
                    hidden_dim=tr.hidden_dim,
                    arch=tr.arch,
                    dropout=float(cfg.dropout),
                    lr=float(cfg.lr),
                    engine=cfg.engine,
                    pipeline_depth=int(cfg.pipeline_depth),
                    steps_per_epoch=tr.steps_per_epoch(),
                    gpu_rows=tr.store.stores[k].gpu_rows,
                    part_offsets=np.asarray(tr.reordered.part_offsets,
                                            dtype=np.int64),
                    local_train=tr.local_train[k],
                    cache_ids=np.asarray(tr.store.stores[k].cache_ids,
                                         dtype=np.int64),
                    segments=specs,
                    faults=tuple(self.fault_plan.for_machine(k)),
                )
                self.worker_specs.append(spec)
            self._pool_key = _cluster_fingerprint(self.worker_specs)

            pooled = WORKER_POOL.acquire(self._pool_key)
            self.reused_pool = pooled is not None
            if OBS.enabled:
                OBS.metrics.counter(
                    "mp.warm_pool_hits" if self.reused_pool
                    else "mp.warm_pool_misses").inc()
            if pooled is not None:
                for proc, conn in pooled:
                    self._procs.append(proc)
                    self._conns.append(conn)
            else:
                for k in range(K):
                    proc, parent = self._spawn_worker(k)
                    self._procs.append(proc)
                    self._conns.append(parent)

            self._inboxes = [deque() for _ in range(K)]
            self._conn_open = [True] * K
            self._started = True
            self._finalizer = weakref.finalize(
                self, MultiprocBackend._cleanup,
                self._procs, self._conns, self._segments, self._holders,
            )
            deadline = time.monotonic() + _READY_TIMEOUT_S
            if not self.reused_pool:
                for k in range(K):
                    kind, _payload = self._recv(k, deadline=deadline)
                    if kind != "ready":
                        self._fail(k, f"expected ready handshake, got {kind!r}")
            for k in range(K):
                self._send(k, "bind", _encode_spec(self.worker_specs[k]))
            for k in range(K):
                self._check_bound(k, *self._recv(k, deadline=deadline))
        except WorkerFailedError:
            raise
        except Exception:
            self._started = True  # make close() tear down what exists
            self.close()
            raise

    @staticmethod
    def _spawn_worker(k: int):
        """Spawn one generic worker; returns ``(process, parent_conn)``."""
        ctx = get_context("spawn")
        parent, child = ctx.Pipe(duplex=True)
        proc = ctx.Process(target=_worker_main, args=(child,),
                           daemon=True, name=f"repro-mp-worker-{k}")
        with _spawn_safe_main():
            proc.start()
        child.close()
        return proc, parent

    def close(self) -> None:
        """Stop (or park, with :attr:`keep_warm`) the workers and release
        every runtime resource; idempotent."""
        if not self._closing:
            self._closing = True
            # Parkable: clean, idle, and either never fault-scheduled or
            # fully recovered.  A faulted-unrecovered cluster (or one whose
            # plan never fired) is torn down — the fault suite's teardown
            # contract — while a recovered-then-clean cluster is as generic
            # as any (parked workers hold no spec, let alone a fault).
            if (self.keep_warm and not self._faulted
                    and (self._recovered or not self.fault_plan)
                    and self._idle and self.is_live):
                try:
                    self._park_to_pool()
                except Exception:
                    pass
        if self._finalizer is not None:
            self._finalizer()  # runs _cleanup at most once
        elif self._segments:
            # start() failed before the finalizer existed.
            MultiprocBackend._cleanup(self._procs, self._conns,
                                      self._segments, self._holders)

    def _park_to_pool(self) -> bool:
        """Hand the quiescent workers to :data:`WORKER_POOL`.

        On success the proc/conn lists are emptied in place, so the
        finalizer's teardown skips them and only unlinks segments.  Any
        protocol hiccup aborts parking and falls back to full teardown.
        """
        if not self._procs or self._pool_key is None:
            return False
        K = len(self._procs)
        try:
            for k in range(K):
                self._send(k, "park", None)
            deadline = time.monotonic() + _PARK_TIMEOUT_S
            for k in range(K):
                kind, _payload = self._recv(k, deadline=deadline)
                if kind != "parked" or self._inboxes[k]:
                    return False
        except WorkerFailedError:
            return False  # _fail already tore the cluster down
        WORKER_POOL.park(self._pool_key, list(zip(self._procs, self._conns)))
        self._procs.clear()
        self._conns.clear()
        self._inboxes = []
        self._conn_open = []
        return True

    @staticmethod
    def _cleanup(procs, conns, segments, holders) -> None:
        """Full teardown: polite stop, escalate to terminate/kill, close
        pipes, drop shared-memory views, unlink segments.  Static +
        in-place so the ``weakref`` finalizer can run it without
        resurrecting the backend."""
        for conn in conns:
            try:
                conn.send_bytes(pack_message("stop", None))
            except Exception:
                pass
        deadline = time.monotonic() + 5.0
        for proc in procs:
            try:
                proc.join(timeout=max(0.0, deadline - time.monotonic()))
            except Exception:
                pass
        for escalate in ("terminate", "kill"):
            if not any(p.is_alive() for p in procs):
                break
            for proc in procs:
                if proc.is_alive():
                    getattr(proc, escalate)()
            for proc in procs:
                try:
                    proc.join(timeout=5.0)
                except Exception:
                    pass
        for conn in conns:
            try:
                conn.close()
            except Exception:
                pass
        conns.clear()
        for holder in holders:
            try:
                holder.release()
            except Exception:
                pass
        holders.clear()
        for shm in segments:
            try:
                shm.close()
            except Exception:
                pass
            try:
                shm.unlink()
            except FileNotFoundError:
                pass
            except Exception:
                pass
        segments.clear()

    @property
    def closed(self) -> bool:
        return self._started and not self.is_live

    # -- wire helpers --------------------------------------------------
    @staticmethod
    def _count(table: Dict[str, List[int]], kind: str, nbytes: int) -> None:
        entry = table.setdefault(kind, [0, 0])
        entry[0] += 1
        entry[1] += nbytes

    def _fail(self, machine: Optional[int], why: str) -> None:
        message = f"worker {machine}: {why}" if machine is not None else why
        if (self.recoverable and machine is not None and self._epoch_active
                and not self._in_recovery and not self._closing):
            # Recoverable mode: mark the rank faulted and surface the error
            # without teardown — the cluster stays up (segments, survivors,
            # pipes) so recover() can replace just this rank and replay.
            self._faulted = True
            self._faulted_machines.add(machine)
            if OBS.enabled:
                OBS.metrics.counter("mp.faults_detected").inc()
            raise WorkerFailedError(message, machine=machine)
        self._closing = True  # a failed cluster is never parked
        self.close()
        raise WorkerFailedError(message, machine=machine)

    def _send(self, k: int, kind: str, payload) -> None:
        data = pack_message(kind, payload)
        self._count(self.wire_sent, kind, len(data))
        try:
            self._conns[k].send_bytes(data)
        except (BrokenPipeError, OSError):
            self._fail(k, "pipe closed while sending")

    def _drain(self, j: int) -> None:
        """Pull every already-complete message off pipe ``j`` into its
        inbox; worker errors surface immediately."""
        conn = self._conns[j]
        while True:
            try:
                if not conn.poll(0):
                    return
                data = conn.recv_bytes()
            except (EOFError, OSError):
                self._conn_open[j] = False
                return
            try:
                kind, payload = unpack_message(data, machine=j)
            except WireError as exc:
                self._fail(j, f"malformed message: {exc}")
            self._count(self.wire_received, kind, len(data))
            if kind == "error":
                tb = payload.get("traceback", "") \
                    if isinstance(payload, dict) else ""
                self._fail(j, f"worker raised:\n{tb}")
            self._inboxes[j].append((kind, payload))

    def _pump(self, timeout: float) -> None:
        """Block until any worker pipe (or process sentinel) is ready,
        then drain every readable pipe — the event-driven replacement for
        per-pipe ``poll(0.02)``: no polling granularity, and a machine-
        order receive can't starve behind a slow worker because every
        arriving message lands in its inbox as soon as it is readable."""
        targets = {}
        for j in range(len(self._conns)):
            if self._conn_open[j]:
                targets[self._conns[j]] = j
                targets[self._procs[j].sentinel] = j
        if not targets:
            return
        ready = mp_connection.wait(list(targets), timeout=max(timeout, 0.0))
        for obj in ready:
            j = targets[obj]
            if obj is self._conns[j]:
                self._drain(j)
            # A ready sentinel needs no action here: _recv notices the
            # dead process right after this pump returns.

    def _recv(self, k: int, deadline: Optional[float] = None):
        if deadline is None:
            deadline = time.monotonic() + self.timeout_s
        inbox = self._inboxes[k]
        while not inbox:
            self._pump(min(1.0, max(deadline - time.monotonic(), 0.0)))
            if inbox:
                break
            # Fail fast on any dead worker: the lock-step protocol cannot
            # make progress without it, and waiting for machine k while
            # machine j is gone would only time out later.
            for j in range(len(self._procs)):
                if j in self._faulted_machines:
                    # Already-reaped rank (recovery in progress): its dead
                    # process must not fail the survivors' quiesce drain.
                    continue
                if self._inboxes[j]:
                    continue
                if not self._procs[j].is_alive():
                    self._drain(j)  # its last flush may still be buffered
                    if self._inboxes[j]:
                        continue
                    self._fail(j, "process died "
                                  f"(exit code {self._procs[j].exitcode})")
                if not self._conn_open[j] and j == k:
                    self._fail(k, "connection closed mid-epoch")
            if time.monotonic() > deadline:
                self._fail(k, f"no message within {self.timeout_s:.0f}s")
        return inbox.popleft()

    def _check_bound(self, k: int, kind: str, payload) -> None:
        """Validate worker ``k``'s reply to ``bind``: the right rank, and
        the coordinator's BLAS thread count (loss bit-parity depends on it,
        see :mod:`repro.utils.blas`)."""
        if kind != "bound":
            self._fail(k, f"expected bound handshake, got {kind!r}")
        if not isinstance(payload, dict) or payload.get("machine") != k:
            self._fail(k, "bound handshake reported the wrong machine")
        want = blas_threads()
        if payload.get("blas_threads") != want:
            self._fail(k, f"worker runs {payload.get('blas_threads')} BLAS "
                          f"threads, coordinator {want}: losses would not be "
                          "bit-identical")

    def _expect(self, k: int, want: str):
        kind, payload = self._recv(k)
        if kind != want:
            self._fail(k, f"expected {want!r} message, got {kind!r}")
        return payload

    def _expect_token(self, k: int, want: str, field: str, value: int) -> None:
        payload = self._expect(k, want)
        if not isinstance(payload, dict) or payload.get(field) != value:
            self._fail(k, f"expected {want} token for {field} {value}, "
                          f"got {payload!r}")

    def _ledger_fetch(self, ledger: CommLedger, machine: int, stats) -> None:
        """Byte accounting identical to ``ExecutionEngine._record_fetch``."""
        bpr = self.system.trainer.store.bytes_per_row
        ledger.record_feature_fetch(machine, stats.remote_per_peer, bpr)
        if stats.refresh_fetch_per_peer is not None:
            ledger.record_feature_fetch(machine, stats.refresh_fetch_per_peer,
                                        bpr)

    # -- gradient plane ------------------------------------------------
    def _average_step(self, step: int, ledger: CommLedger,
                      grad_bytes: int) -> None:
        """Average the worker slabs for ``step`` in place, publish the
        result, and release the barrier with per-worker ``avg`` tokens."""
        K = len(self._procs)
        try:
            self._grad_plane.average(step)
        except SlabStateError as exc:
            self._fail(exc.machine,
                       f"gradient-slab protocol violation at step {step}: "
                       f"{exc}")
        for k in range(K):
            self._send(k, "avg", {"step": step})
        if K > 1:
            ledger.record_all_reduce(2.0 * (K - 1) / K * grad_bytes)

    # -- audits --------------------------------------------------------
    def _audit_digests(self, k: int, digests, records: List[StepRecord]) -> None:
        """Cross-check a worker's plan digests against its reported stats.

        The digests were computed worker-side from the fetch plans
        themselves (ownership recomputed from the reorder offsets), so a
        worker whose stats disagree with what its plans imply fails here —
        the batched replacement for auditing full wire-encoded plans."""
        K = self.system.trainer.num_machines
        digests = np.asarray(digests)
        if digests.shape != (len(records), DIGEST_HEAD + K) \
                or digests.dtype != np.int64:
            self._fail(k, f"plan digest matrix has shape {digests.shape} "
                          f"({digests.dtype}), expected "
                          f"({len(records)}, {DIGEST_HEAD + K}) int64")
        for s, rec in enumerate(records):
            if rec.machine != k or rec.step != s:
                self._fail(k, f"record {s} reports machine {rec.machine} "
                              f"step {rec.step}")
            if not np.array_equal(digests[s], _stats_digest(rec.gather)):
                self._fail(k, f"step {s}: fetch-plan digest disagrees with "
                              f"reported gather stats")

    # -- recovery ------------------------------------------------------
    def _cache_fingerprint(self) -> str:
        """Hash of every machine's static cache selection — recorded in
        checkpoints so a snapshot can never be restored into a cluster
        whose resident cache contents differ."""
        h = hashlib.sha256()
        for spec in self.worker_specs:
            ids = np.ascontiguousarray(np.asarray(spec.cache_ids,
                                                  dtype=np.int64))
            h.update(ids.tobytes())
        return h.hexdigest()

    def capture_checkpoint(self, epoch: int) -> dict:
        """Snapshot the cluster's training state at an epoch boundary.

        Asks every worker for its model weights, Adam moments, and RNG
        cursors (sampler + dropout streams).  Weights and moments are
        identical across replicas after the allreduce, so one copy is
        kept; RNG cursors are per machine.  The result is plain data —
        wire-encodable, and persistable through the ArtifactCache's
        ``checkpoint`` codec (:mod:`repro.distributed.recovery`).
        """
        if not self.is_live:
            raise RuntimeError("cannot checkpoint a closed backend")
        if self._faulted:
            raise RuntimeError("cannot checkpoint a faulted backend — "
                               "recover() first")
        K = self.system.trainer.num_machines
        with OBS.span("mp.checkpoint", epoch=epoch):
            for k in range(K):
                self._send(k, "ckpt", None)
            states = []
            for k in range(K):
                payload = self._expect(k, "state")
                if not isinstance(payload, dict):
                    self._fail(k, "malformed checkpoint state payload")
                states.append(payload)
        return {
            "epoch": int(epoch),
            "model": states[0]["model"],
            "adam": states[0]["adam"],
            "samplers": [s["sampler"] for s in states],
            "layer_rngs": [s["layer_rngs"] for s in states],
            "cache_fp": self._cache_fingerprint(),
        }

    def _restore_all(self, checkpoint: Optional[dict]) -> None:
        """Send every rank its slice of ``checkpoint`` (``None`` rewinds to
        epoch-0 initial state) and wait for the ``restored`` acks."""
        K = len(self._procs)
        for k in range(K):
            payload = None
            if checkpoint is not None:
                payload = {
                    "model": checkpoint["model"],
                    "adam": checkpoint["adam"],
                    "sampler": checkpoint["samplers"][k],
                    "layer_rngs": checkpoint["layer_rngs"][k],
                }
            self._send(k, "restore", payload)
        for k in range(K):
            self._expect_token(k, "restored", "machine", k)

    def recover(self, checkpoint: Optional[dict] = None) -> int:
        """Replace the failed ranks and rewind the cluster to ``checkpoint``.

        The recovery sequence: (1) reap every faulted rank's process (it
        may be alive — hung, or having corrupted its wire stream — so the
        kill is unconditional); (2) quiesce the survivors with an ``abort``
        and drain their stale in-flight traffic; (3) reset the gradient
        plane's seqlock slabs; (4) bind a replacement for each failed rank
        — a warm spare from :data:`WORKER_POOL` when one of this cluster's
        fingerprint is parked, a fresh spawn otherwise — with the fault
        schedule cleared (a replayed fault would re-fire identically and
        recovery would never converge); (5) restore every rank from
        ``checkpoint`` (``None`` rewinds to epoch-0 initial state).

        Returns the number of ranks replaced (0 if the backend never
        faulted).  Any failure *during* recovery escalates to full
        teardown and raises — recovery is attempted at most once per call.
        """
        if not self._started or not self.is_live:
            raise RuntimeError("cannot recover a closed backend")
        if checkpoint is not None \
                and checkpoint.get("cache_fp") is not None \
                and checkpoint["cache_fp"] != self._cache_fingerprint():
            self._closing = True
            self.close()
            raise WorkerFailedError(
                "checkpoint cache fingerprint does not match this "
                "cluster's cache selection")
        if not self._faulted:
            # Warm start: a healthy cluster adopting a persisted checkpoint
            # (load_persisted) — nothing to respawn, but every rank still
            # rewinds to the snapshot.
            if checkpoint is not None:
                self._restore_all(checkpoint)
            return 0
        self._in_recovery = True
        try:
            K = len(self._procs)
            with OBS.span("mp.recovery", machines=K,
                          hist="mp.recovery_wall_s"):
                # Every rank marked faulted, plus any other process found
                # dead (a second failure noticed late), gets replaced.
                failed = set(self._faulted_machines)
                for j, proc in enumerate(self._procs):
                    if not proc.is_alive():
                        failed.add(j)
                self._faulted_machines = set(failed)

                for j in sorted(failed):
                    proc = self._procs[j]
                    for escalate in ("terminate", "kill"):
                        if not proc.is_alive():
                            break
                        try:
                            getattr(proc, escalate)()
                            proc.join(timeout=5.0)
                        except Exception:
                            pass
                    try:
                        self._conns[j].close()
                    except Exception:
                        pass
                    self._conn_open[j] = False
                    self._inboxes[j].clear()

                survivors = [k for k in range(K) if k not in failed]
                for k in survivors:
                    self._send(k, "abort", None)
                deadline = time.monotonic() + self.timeout_s
                for k in survivors:
                    # Discard whatever the aborted epoch still had in
                    # flight (step/window/done tokens) up to the ack.
                    while True:
                        kind, _payload = self._recv(k, deadline=deadline)
                        if kind == "aborted":
                            break

                self._grad_plane.reset()

                warm = 0
                fresh_ranks = []
                for j in sorted(failed):
                    spare = (WORKER_POOL.acquire_spare(self._pool_key)
                             if self._pool_key else None)
                    if spare is not None:
                        proc, conn = spare
                        warm += 1
                    else:
                        proc, conn = self._spawn_worker(j)
                        fresh_ranks.append(j)
                    # In-place rank replacement: the finalizer holds these
                    # same list objects, so the new process is covered by
                    # the exit-time cleanup like any other.
                    self._procs[j] = proc
                    self._conns[j] = conn
                    self._inboxes[j] = deque()
                    self._conn_open[j] = True
                ready_deadline = time.monotonic() + _READY_TIMEOUT_S
                for j in fresh_ranks:
                    kind, _payload = self._recv(j, deadline=ready_deadline)
                    if kind != "ready":
                        self._fail(j, f"expected ready handshake, "
                                      f"got {kind!r}")
                for j in sorted(failed):
                    enc = _encode_spec(self.worker_specs[j])
                    enc["faults"] = []
                    self._send(j, "bind", enc)
                for j in sorted(failed):
                    self._check_bound(
                        j, *self._recv(j, deadline=ready_deadline))

                self._restore_all(checkpoint)

                self.restarts_total += len(failed)
                if OBS.enabled:
                    OBS.metrics.counter("mp.restarts_total").inc(len(failed))
                    if warm:
                        OBS.metrics.counter("mp.warm_respawns").inc(warm)
                self._faulted = False
                self._faulted_machines.clear()
                self._recovered = True
                return len(failed)
        except WorkerFailedError:
            raise  # _fail is fatal during recovery — cluster already down
        except Exception:
            self._closing = True
            self.close()
            raise
        finally:
            self._in_recovery = False

    # -- epochs --------------------------------------------------------
    def run_epoch(self, epoch: int, *, dry_run: bool = False) -> EpochReport:
        if self._started and not self.is_live:
            raise RuntimeError("multiproc backend is closed")
        if self._faulted:
            raise RuntimeError(
                "multiproc backend is faulted — call recover() to replace "
                "the failed ranks before running another epoch")
        self.start()
        self._idle = False
        self._epoch_active = True
        try:
            with OBS.span("mp.epoch", epoch=epoch, dry_run=dry_run,
                          engine=self.system.config.engine,
                          machines=self.system.trainer.num_machines,
                          hist="mp.epoch_wall_s") as span:
                self._epoch_span_id = span.span_id
                if self.system.config.engine == "bsp":
                    report = self._run_bsp(epoch, dry_run)
                else:
                    report = self._run_pipelined(epoch, dry_run)
        except WorkerFailedError:
            raise
        except Exception:
            self.close()
            raise
        finally:
            self._epoch_active = False
            self._epoch_span_id = 0
        if OBS.enabled:
            self._note_wire_gauges()
        self._idle = True
        return report

    def _note_wire_gauges(self) -> None:
        """Mirror cumulative wire accounting and cluster health into the
        metrics registry.  Gauges (not counters) because the wire tables
        are cumulative across epochs — setting is idempotent."""
        m = OBS.metrics
        m.gauge("mp.wire_sent_bytes").set(
            sum(b for _n, b in self.wire_sent.values()))
        m.gauge("mp.wire_received_bytes").set(
            sum(b for _n, b in self.wire_received.values()))
        m.gauge("mp.wire_sent_msgs").set(
            sum(n for n, _b in self.wire_sent.values()))
        m.gauge("mp.wire_received_msgs").set(
            sum(n for n, _b in self.wire_received.values()))
        m.gauge("mp.workers_alive").set(
            sum(1 for p in self._procs if p.is_alive()))

    def _broadcast_run(self, epoch: int, dry_run: bool) -> None:
        payload: dict = {"epoch": epoch, "dry_run": dry_run}
        if OBS.enabled:
            payload["trace"] = {"trace_id": OBS.tracer.trace_id,
                                "parent": self._epoch_span_id}
        for k in range(self.system.trainer.num_machines):
            self._send(k, "run", payload)

    def _finish_report(self, epoch, records, ledger, losses, steps, trace,
                       states) -> EpochReport:
        tr = self.system.trainer
        if states:
            # Post-allreduce weights are identical on every worker; load
            # them into every in-process replica so evaluate() works.
            for model in tr.models:
                model.load_state_dict(states[0])
        return EpochReport(
            epoch=epoch,
            records=records,
            ledger=ledger,
            mean_loss=float(np.mean(losses)) if losses else None,
            steps_per_machine=steps,
            cache_churn=None,
            events=trace.validate(),
        )

    def _run_bsp(self, epoch: int, dry_run: bool) -> EpochReport:
        from repro.pipeline.costmodel import served_rows_matrix
        from repro.pipeline.events import (
            EventTrace,
            Stage,
            emit_window_comm_events,
        )

        tr = self.system.trainer
        K = tr.num_machines
        steps = tr.steps_per_epoch()
        grad_bytes = gradient_nbytes(tr.models[0])
        ledger = CommLedger(K)
        self._broadcast_run(epoch, dry_run)
        for step in range(steps):
            for k in range(K):
                self._expect_token(k, "step", "step", step)
            if not dry_run:
                self._average_step(step, ledger, grad_bytes)
        per_worker = self._collect_done(steps)

        # Epoch-end assembly, interleaved exactly as the in-process engine
        # ordered it: records, ledger fetches, and losses in (step,
        # machine) order; comm + allreduce trace events per step; the
        # workers' own step events merged at the end.
        trace = EventTrace(
            engine="bsp", num_machines=K, num_steps=steps,
            windows=[(s, s + 1) for s in range(steps)],
            allreduce_steps=list(range(steps)),
        )
        records: List[StepRecord] = []
        losses: List[float] = []
        for step in range(steps):
            row = [per_worker[k]["records"][step] for k in range(K)]
            for k, rec in enumerate(row):
                records.append(rec)
                self._ledger_fetch(ledger, k, rec.gather)
            served = served_rows_matrix(row, K)
            for k, rec in enumerate(row):
                emit_window_comm_events(
                    trace, step, k,
                    rec.gather.remote_rows + rec.gather.refresh_fetch_rows,
                    int(served[k]), mfg_edges=rec.mfg_edges,
                )
            trace.add(Stage.ALLREDUCE, -1, step)
            if not dry_run:
                losses.extend(rec.loss for rec in row)
        for pw in per_worker:
            trace.events.extend(pw["events"])
        states = [pw["state"] for pw in per_worker if pw["state"] is not None]
        return self._finish_report(epoch, records, ledger, losses, steps,
                                   trace, states)

    def _run_pipelined(self, epoch: int, dry_run: bool) -> EpochReport:
        from repro.pipeline.costmodel import served_rows_matrix
        from repro.pipeline.events import (
            EventTrace,
            Stage,
            emit_window_comm_events,
        )

        tr = self.system.trainer
        K = tr.num_machines
        steps = tr.steps_per_epoch()
        depth = int(self.system.config.pipeline_depth)
        windows = [(w, min(w + depth, steps)) for w in range(0, steps, depth)]
        grad_bytes = gradient_nbytes(tr.models[0])
        ledger = CommLedger(K)
        self._broadcast_run(epoch, dry_run)
        for w0, w1 in windows:
            for k in range(K):
                self._expect_token(k, "window", "w0", w0)
            if not dry_run:
                for s in range(w0, w1):
                    for k in range(K):
                        self._expect_token(k, "wstep", "step", s)
                    self._average_step(s, ledger, grad_bytes)
        per_worker = self._collect_done(steps)

        trace = EventTrace(
            engine="pipelined", num_machines=K, num_steps=steps,
            windows=windows, allreduce_steps=list(range(steps)),
        )
        records: List[StepRecord] = []
        losses: List[float] = []
        for w0, w1 in windows:
            step_rows = [[per_worker[k]["records"][s] for k in range(K)]
                         for s in range(w0, w1)]
            for row in step_rows:
                records.extend(row)
            for k in range(K):
                for s in range(w0, w1):
                    self._ledger_fetch(
                        ledger, k, per_worker[k]["records"][s].gather)

            window_served = np.zeros(K, dtype=np.int64)
            for row in step_rows:
                window_served += served_rows_matrix(row, K)
            for s in range(w0, w1):
                trace.add(Stage.ALLREDUCE, -1, s)
            for k in range(K):
                machine_recs = [per_worker[k]["records"][s]
                                for s in range(w0, w1)]
                request_rows = int(sum(
                    r.gather.remote_rows + r.gather.refresh_fetch_rows
                    for r in machine_recs
                ))
                emit_window_comm_events(
                    trace, w0, k, request_rows, int(window_served[k]),
                    mfg_edges=int(sum(r.mfg_edges for r in machine_recs)),
                )
            if not dry_run:
                for row in step_rows:
                    losses.extend(rec.loss for rec in row)
        for pw in per_worker:
            trace.events.extend(pw["events"])
        states = [pw["state"] for pw in per_worker if pw["state"] is not None]
        return self._finish_report(epoch, records, ledger, losses, steps,
                                   trace, states)

    def _collect_done(self, steps: int) -> List[dict]:
        """Receive every worker's batched epoch-end telemetry — step
        records, plan digests (audited here), stage events, and the
        synchronized model state for training epochs."""
        per_worker = []
        for k in range(self.system.trainer.num_machines):
            payload = self._expect(k, "done")
            try:
                records = [_decode_record(r) for r in payload["records"]]
                digests = payload["digests"]
                events = _decode_events(payload["events"])
                state = payload.get("state")
            except (WireError, KeyError, TypeError, ValueError) as exc:
                self._fail(k, f"undecodable done payload: {exc}")
            if len(records) != steps:
                self._fail(k, f"reported {len(records)} step records, "
                              f"expected {steps}")
            self._audit_digests(k, digests, records)
            if OBS.enabled and payload.get("spans") is not None:
                # Merge the worker's batched spans into the coordinator
                # trace, rebasing their perf_counter timestamps through
                # the worker's (perf, wall) clock anchor.
                try:
                    remote = spans_from_wire(payload["spans"])
                    anchor = tuple(int(t) for t in payload["clock"])
                    OBS.tracer.merge_remote(remote, anchor, clock_anchor())
                    snap = payload.get("metrics")
                    if snap:
                        OBS.metrics.merge_snapshot(snap)
                except (KeyError, TypeError, ValueError) as exc:
                    self._fail(k, f"undecodable telemetry in done "
                                  f"payload: {exc}")
            per_worker.append({"records": records, "events": events,
                               "state": state})
        return per_worker
