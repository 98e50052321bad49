"""Serving inputs for the benchmark, generated before any clock starts.

``repro.serving.poisson_requests`` draws each request's cold seeds from
``np.setdiff1d(candidates, picks)`` — an O(N log N) pass per request, which
on ``papers-mini`` costs more than serving the requests.  The generator here
keeps its shape (exponential inter-arrival gaps, a hot set redrawn every
``drift_interval`` requests, a Binomial(size, hot_mass) share of hot picks,
exactly ``size`` distinct sorted seeds per request) but draws every request
at once: hot picks are the first columns of per-row random permutations of
the hot set, cold picks are uniform draws with the rare duplicate row
redrawn, which is the same distribution as a uniform draw from the
candidates the row has not picked yet.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.graph.mutable import EdgeBatch
from repro.serving import Request


def poisson_requests(rng: np.random.Generator, num_vertices: int,
                     num_requests: int, size: int, *, rate_rps: float,
                     hot_fraction: float, hot_mass: float,
                     drift_interval: int) -> List[Request]:
    """Open-loop Poisson arrivals over a drifting hot set (vertex ids are
    the dataset's original numbering, arrivals simulated-clock seconds)."""
    if size > num_vertices:
        raise ValueError(f"request size {size} exceeds {num_vertices} vertices")
    arrivals = np.cumsum(rng.exponential(1.0 / rate_rps, size=num_requests))
    n_hot = max(1, int(round(hot_fraction * num_vertices)))
    num_sets = -(-num_requests // drift_interval)
    hot_sets = np.stack([rng.choice(num_vertices, size=n_hot, replace=False)
                         for _ in range(num_sets)])
    set_of = np.arange(num_requests) // drift_interval
    n_from_hot = np.minimum(rng.binomial(size, hot_mass, size=num_requests),
                            n_hot)
    width = min(size, n_hot)
    perm = np.argsort(rng.random((num_requests, n_hot)), axis=1)[:, :width]
    hot = np.zeros((num_requests, size), dtype=np.int64)
    hot[:, :width] = hot_sets[set_of[:, None], perm]
    from_hot = np.arange(size)[None, :] < n_from_hot[:, None]

    def draw(rows: np.ndarray) -> np.ndarray:
        cold = rng.integers(0, num_vertices, size=(len(rows), size))
        out = np.where(from_hot[rows], hot[rows], cold)
        out.sort(axis=1)
        return out

    seeds = draw(np.arange(num_requests))
    dup = (np.diff(seeds, axis=1) == 0).any(axis=1)
    while dup.any():
        rows = np.flatnonzero(dup)
        seeds[rows] = draw(rows)
        dup[rows] = (np.diff(seeds[rows], axis=1) == 0).any(axis=1)
    return [Request(rid=i, seeds=seeds[i], arrival=float(arrivals[i]))
            for i in range(num_requests)]


def edge_churn(rng: np.random.Generator, num_vertices: int, num_batches: int,
               edges_per_batch: int, start_s: float,
               end_s: float) -> List[Tuple[float, EdgeBatch]]:
    """``num_batches`` insert-only edge batches, the first at simulated
    ``start_s`` and the rest evenly spaced before ``end_s``; endpoints
    uniform, no self-loops."""
    out = []
    for b in range(num_batches):
        src = rng.integers(0, num_vertices, size=edges_per_batch)
        dst = rng.integers(0, num_vertices - 1, size=edges_per_batch)
        dst += dst >= src  # skip src itself: uniform over the other vertices
        when = start_s + (end_s - start_s) * b / num_batches
        out.append((when, EdgeBatch(add_src=src, add_dst=dst)))
    return out
