"""Shared helpers for the one-pass algorithms' ``process_block``.

The sketch-based one-pass algorithms (Algorithms 2 and 3, the [CGS22]
baseline, the one-shot strawman) all follow the same shape: a buffer that
rolls when it reaches capacity, rare "monochromatic" sketch events found
by comparing hash values of the two endpoints, and per-edge space-gauge
updates.  ``process_block`` consumes a whole ``(k, 2)`` edge array at
once; these helpers compute the sequential bookkeeping (buffer epochs,
running degrees, cached hash rows) in closed form.  The two D-sketch
algorithms share their whole update (:func:`sketch_process_block`) and
query (:func:`sketch_query`).
"""


import numpy as np

from repro.common.exceptions import AlgorithmFailure, ParameterError
from repro.graph.coloring import greedy_coloring
from repro.graph.graph import Graph
from repro.kernels import dispatch

__all__ = [
    "HASH_ROW_CACHE_MAX",
    "buffer_timeline",
    "cached_hash_rows",
    "group_pairs",
    "running_degrees",
    "sketch_process_block",
    "sketch_query",
    "trim_hash_cache",
]

#: Upper bound on entries in the shared per-algorithm hash-row caches
#: (``_hash_cache`` dicts).  Static streams see at most ``n`` distinct
#: vertices, but a long adversarial-game session touches an unbounded key
#: stream; eviction (oldest-inserted first — see :func:`trim_hash_cache`)
#: keeps the cache O(1) in session length.  Evicted rows are recomputed
#: bit-identically on the next miss, so results never depend on the bound.
HASH_ROW_CACHE_MAX = 65536


def group_pairs(pairs: np.ndarray):
    """Group directed ``(x, y)`` pairs by ``x``: yields ``(x, ys_array)``.

    The canonical vectorized adjacency reduction shared by the block
    passes: one stable sort on the first column, then boundary splits, so
    each group's ``ys`` keep their input order.  ``x`` is a Python int;
    ``ys`` an int64 array view.  The sort core runs through the
    kernel-dispatch layer (stable sorts share one unique permutation, so
    tiers agree bit for bit).
    """
    if not len(pairs):
        return
    xs, ys, starts = dispatch("group_pairs", pairs)
    for x, group in zip(xs[starts].tolist(), np.split(ys, starts[1:])):
        yield x, group


def buffer_timeline(start_len: int, capacity: int, k: int):
    """Per-edge roll counts and buffer lengths for a roll-at-capacity buffer.

    Models the sketch algorithms' rule: before each insertion, a buffer
    holding ``capacity`` edges is cleared (one *roll*); the edge is then
    appended.  For ``k`` insertions starting from ``start_len`` buffered
    edges, returns ``(rolls, lengths)`` int64 arrays of length ``k``:
    ``rolls[e]`` counts the rolls that happened at or before edge ``e``
    (the epoch while processing edge ``e`` is ``curr0 + rolls[e]``), and
    ``lengths[e]`` is the buffer size just after edge ``e``'s append.

    After the block, the buffer holds the last ``lengths[-1]`` edges; a
    roll occurred within the block iff ``rolls[-1] > 0``.
    """
    if capacity < 1:
        raise ParameterError(f"buffer capacity must be >= 1, got {capacity}")
    e = np.arange(k, dtype=np.int64)
    rolls = (start_len + e) // capacity
    lengths = (start_len + e) % capacity + 1
    return rolls, lengths


def running_degrees(deg0: np.ndarray, edges: np.ndarray):
    """Degrees of each edge's endpoints just *before* its own insertion.

    ``deg0`` is the degree array entering the block.  Returns a ``(k, 2)``
    int64 array where row ``e`` holds the degrees of ``edges[e]`` after
    the first ``e`` insertions of the block — the value edge ``e``'s
    degree-cap check reads.  Degrees *after* edge ``e`` are this plus 1.
    The rank computation runs through the kernel-dispatch layer.
    """
    deg0 = np.ascontiguousarray(deg0, dtype=np.int64)
    edges = np.ascontiguousarray(edges, dtype=np.int64)
    return dispatch("running_degrees", deg0, edges)


def trim_hash_cache(cache: dict, max_entries: int = HASH_ROW_CACHE_MAX) -> None:
    """Evict oldest-inserted entries until ``cache`` fits the bound.

    Dict insertion order is the eviction order (FIFO with
    :func:`cached_hash_rows` refreshing whole-block hits to the back, so
    block-path behaviour is LRU at block granularity).  Values are pure
    functions of their key, so eviction is invisible to results.
    """
    if len(cache) <= max_entries:
        return
    for key in list(cache.keys())[: len(cache) - max_entries]:
        del cache[key]


def cached_hash_rows(cache: dict, keys: np.ndarray, compute,
                     max_entries: int = HASH_ROW_CACHE_MAX):
    """Per-key hash rows from a dict cache, computing misses in one batch.

    ``keys`` is a 1-d int64 array (typically the unique vertices of a
    block); ``compute(missing)`` evaluates the hash family for an array of
    missing keys at once, returning ``(len(missing), ...)`` values.  The
    cache maps ``int key -> row array`` and is bounded: after the block's
    rows are gathered, this block's keys are refreshed to the back of the
    insertion order and anything beyond ``max_entries`` is evicted
    oldest-first (:func:`trim_hash_cache`), so adversarial-game sessions
    of any length hold at most ``max_entries`` rows.
    """
    missing = [x for x in keys.tolist() if x not in cache]
    if missing:
        rows = compute(np.asarray(missing, dtype=np.int64))
        for i, x in enumerate(missing):
            cache[x] = rows[i]
    if not len(keys):
        return np.empty((0,), dtype=np.int64)
    first = cache[int(keys[0])]
    out = np.empty((len(keys),) + first.shape, dtype=np.int64)
    for i, x in enumerate(keys.tolist()):
        out[i] = cache.pop(x)  # re-insert: this block's keys become newest
        cache[x] = out[i]
    trim_hash_cache(cache, max_entries)
    return out


def sketch_process_block(algo, edges: np.ndarray, *, num_epochs: int,
                         capacity: int) -> None:
    """``process_block`` of the D-sketch algorithms.

    Shared by Algorithm 3 (:class:`~repro.core.robust_lowrandom.
    LowRandomnessRobustColoring`) and the [CGS22] baseline, which differ
    only in parameters.  Per edge, in stream order: roll the buffer at
    ``capacity``, hash both endpoints under every ``(epoch, repetition)``
    polynomial, and append the rare monochromatic edges to the live future
    sketches ``D_{i, j}`` (wiping any that exceed ``algo.overflow_cap``).

    The sequential bookkeeping is reconstructed in closed form, so the
    state — sketch contents, buffer, epoch counter, and the
    :class:`~repro.common.space.SpaceMeter` peak over the per-edge gauge
    totals — does not depend on how the stream is split into blocks.
    """
    k = len(edges)
    if k == 0:
        return
    start_len = len(algo._buffer)
    rolls, lengths = buffer_timeline(start_len, capacity, k)
    curr0 = algo._curr
    curr_at = curr0 + rolls
    # Hash rows for this block's vertices (shared dict cache), then
    # monochromatic (edge, epoch, repetition) events, computed in edge
    # sub-batches to bound the (k, epochs, reps) temporary.  Hash values
    # are tiny (< family.m), so detection compares narrow copies to halve
    # memory traffic.
    uniq, inv = np.unique(edges, return_inverse=True)
    rows = cached_hash_rows(
        algo._hash_cache, uniq,
        lambda xs: algo.family.eval_coeffs(algo._coeffs, xs),
    )
    cmp_rows = rows.astype(np.int32) if algo.family.m <= 2**31 else rows
    inv = inv.reshape(-1, 2)
    ev_e, ev_i, ev_j = dispatch(
        "sketch_event_filter",
        cmp_rows,
        np.ascontiguousarray(inv[:, 0]),
        np.ascontiguousarray(inv[:, 1]),
    )
    # Only future epochs' sketches receive the edge (line "for i in
    # curr+1..").
    epochs = ev_i + 1
    keep = (epochs <= num_epochs) & (epochs >= curr_at[ev_e] + 1)
    ev_e, ev_i, ev_j = ev_e[keep], ev_i[keep], ev_j[keep]
    # Apply the events sequentially, by edge, then epoch, then repetition:
    # the cap/wipe outcome depends on the order.
    stored_delta = np.zeros(k, dtype=np.int64)
    edges_list = edges.tolist()
    for e, i, j in zip(ev_e.tolist(), ev_i.tolist(), ev_j.tolist()):
        d_i = algo._d_sets[i + 1]
        d_ij = d_i[j]
        if d_ij is None:  # wiped
            continue
        if len(d_ij) < algo.overflow_cap:
            u, v = edges_list[e]
            d_ij.append((u, v))
            stored_delta[e] += 1
        else:
            d_i[j] = None  # wipe (the sketch held exactly overflow_cap)
            stored_delta[e] -= len(d_ij)
    # Buffer and epoch counter.
    if rolls[-1] > 0:
        algo._buffer = [tuple(p) for p in edges_list[k - int(lengths[-1]):]]
    else:
        algo._buffer.extend(tuple(p) for p in edges_list)
    algo._curr = curr0 + int(rolls[-1])
    # Space peak over the per-edge gauge updates, which set the D gauge
    # before the buffer gauge: at a roll the transient total pairs the
    # new sketch size with the *pre-roll* buffer, hence the running
    # maximum of adjacent buffer lengths.
    prev_lengths = np.concatenate(([start_len], lengths[:-1]))
    eff_lengths = np.maximum(lengths, prev_lengths)
    meter, bits = algo.meter, algo._edge_bits
    d0 = meter.gauge("D sketches")
    base = meter.current_bits - d0 - meter.gauge("buffer B")
    stored_bits = d0 + np.cumsum(stored_delta) * bits
    meter.observe_peak(base + int((stored_bits + eff_lengths * bits).max()))
    # Zero the varying gauges before the final update: setting one gauge
    # to its new value while the other still holds the pre-block value
    # would register a transient total no per-edge update reaches.
    meter.set_gauge("D sketches", 0)
    meter.set_gauge("buffer B", 0)
    meter.set_gauge("D sketches", int(stored_bits[-1]))
    meter.set_gauge("buffer B", len(algo._buffer) * bits)


def sketch_query(algo, num_epochs: int) -> dict[int, int]:
    """``query`` of the D-sketch algorithms (Algorithm 3, [CGS22]).

    Greedily ``(Delta+1)``-color ``D_{curr,k} | B`` for the first
    surviving repetition ``k`` and output the pair ``(chi(y),
    h_{curr,k}(y))`` flattened to one integer in ``[1, (Delta+1) m]``
    (``m = algo.family.m``).  Raises :class:`AlgorithmFailure` when every
    sketch of the current epoch overflowed.
    """
    n, m, curr = algo.n, algo.family.m, algo._curr
    if curr <= num_epochs:
        d_curr = algo._d_sets[curr]
    else:
        d_curr = [[] for _ in range(algo.repetitions)]
    k = next((j for j, d in enumerate(d_curr) if d is not None), None)
    if k is None:
        raise AlgorithmFailure(
            f"all {algo.repetitions} sketches of epoch {curr} overflowed"
        )
    graph = Graph(n)  # sketch contents and buffer, not the stream
    for u, v in list(d_curr[k]) + algo._buffer:
        if not graph.has_edge(u, v):
            graph.add_edge(u, v)
    chi = greedy_coloring(graph)
    if curr <= num_epochs:
        h_row = algo.family.eval_coeffs(
            algo._coeffs[curr - 1, k], np.arange(n, dtype=np.int64)
        ).tolist()
    else:
        h_row = [0] * n
    return {y: (chi[y] - 1) * m + h_row[y] + 1 for y in range(n)}
