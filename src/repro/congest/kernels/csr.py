"""CSR segment primitives shared by the algorithm kernels.

Everything in this module operates on the repository's standard CSR layout:
``indptr`` (length ``n + 1``) and ``indices`` (length ``2m``), with each
node's neighbor slice ``indices[indptr[i]:indptr[i + 1]]`` sorted ascending
by global node index -- exactly the order in which the reference engine
inserts inbox entries (see :class:`repro.congest.network.NetworkLayout`).

The primitives come in two flavors:

* **Exact integer reductions** (:func:`segment_sum`, :func:`segment_min`):
  order-independent, one NumPy pass over the edge array.
* **The order-exact float sum** (:func:`ordered_row_sum`): the paper's
  primal-dual algorithms accumulate floating point packing values from their
  inbox *in insertion order*, and float addition is not associative -- a
  pairwise or reordered summation would produce a different dominating set
  than the reference engine on some instances.  The sum therefore replays
  the reference engine's left-to-right accumulation exactly, as one
  unbuffered in-order scatter-add over the summed rows' entries: an
  expanded inbox's, or the CSR slices of a fault-free broadcast's receivers
  (:meth:`repro.congest.kernels.faults.NeighborhoodInbox.ordered_float_sum`).
* **Slice gathering** (:func:`slice_positions`): the edge positions of a
  set of neighbor slices, which lets an operator touch only the rows it
  needs instead of every edge.

``tests/congest/test_kernel_primitives.py`` property-tests all of these
against brute-force per-node loops.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = [
    "segment_sum",
    "segment_min",
    "segment_min_argrank",
    "int_bit_lengths",
    "slice_positions",
    "row_positions",
    "ordered_row_sum",
]


def segment_sum(indptr: np.ndarray, edge_values: np.ndarray) -> np.ndarray:
    """Per-node sum of ``edge_values`` over each neighbor slice.

    ``edge_values`` has one entry per directed edge (aligned with
    ``indices``).  Computed via a cumulative sum so empty segments are
    handled uniformly; exact for integer and boolean inputs.
    """
    cumulative = np.zeros(len(edge_values) + 1, dtype=np.int64)
    np.cumsum(edge_values, out=cumulative[1:])
    return cumulative[indptr[1:]] - cumulative[indptr[:-1]]


def segment_min(
    indptr: np.ndarray, edge_values: np.ndarray, empty: int
) -> np.ndarray:
    """Per-node minimum of ``edge_values``; ``empty`` for degree-0 nodes.

    Uses ``np.minimum.reduceat`` restricted to non-empty segments: the
    non-empty neighbor slices tile ``edge_values`` contiguously, so their
    start offsets are exactly the ``reduceat`` boundaries.
    """
    n = len(indptr) - 1
    out = np.full(n, empty, dtype=edge_values.dtype)
    nonempty = indptr[:-1] < indptr[1:]
    if edge_values.size:
        out[nonempty] = np.minimum.reduceat(edge_values, indptr[:-1][nonempty])
    return out


def segment_min_argrank(
    indptr: np.ndarray,
    edge_values: np.ndarray,
    edge_ranks: np.ndarray,
    minima: np.ndarray,
    rows: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Per-node minimum rank among the edges achieving the segment minimum.

    ``minima`` is the per-node segment minimum (from :func:`segment_min`);
    the return value for a node is the smallest ``edge_ranks`` entry over
    its edges whose value equals the minimum, or the largest ``int64`` for
    degree-0 nodes.  This is the vectorized form of "scan the neighbors in
    rank order and keep the first one attaining the minimum".  ``rows``
    (``None``: every node) are the nodes scanned, one result each, and the
    edge arrays hold only their slices, as gathered by
    :func:`slice_positions`: the cost is ``O(len(rows) + their degrees)``.
    """
    bounds, row_minima = indptr, minima
    if rows is not None:
        bounds = np.concatenate(([0], np.cumsum(indptr[rows + 1] - indptr[rows])))
        row_minima = minima[rows]
    per_edge_min = np.repeat(row_minima, np.diff(bounds))
    sentinel = np.iinfo(np.int64).max
    masked = np.where(edge_values == per_edge_min, edge_ranks, sentinel)
    return segment_min(bounds, masked, empty=sentinel)


def int_bit_lengths(values: np.ndarray) -> np.ndarray:
    """Vectorized ``int.bit_length()`` for a non-negative ``int64`` array."""
    out = np.zeros(len(values), dtype=np.int64)
    remaining = values.astype(np.int64, copy=True)
    while True:
        positive = remaining > 0
        if not positive.any():
            return out
        out += positive
        remaining >>= 1


def slice_positions(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Positions ``starts[i], ..., starts[i] + lengths[i] - 1``, slice by slice.

    The edge positions of a set of neighbor slices, concatenated in the order
    given -- one ``repeat`` plus one ``arange`` instead of a per-slice loop.
    """
    ends = np.cumsum(lengths)
    return np.repeat(starts - (ends - lengths), lengths) + np.arange(
        ends[-1] if len(ends) else 0
    )


def row_positions(
    indptr: np.ndarray, indices: np.ndarray, rows: np.ndarray, values: np.ndarray
) -> np.ndarray:
    """CSR position of ``values[i]`` in non-empty row ``rows[i]``, pairs in
    any order: one lower-bound binary search over all rows at once.

    A value its row lacks gets the position of the row's next larger value
    or the row's end, so callers that cannot guarantee every pair is an
    edge compare ``indices`` at the result.
    """
    at = indptr[rows]
    width = indptr[rows + 1] - at
    # The lower bound lies in [at, at + width]; every read is inside the row.
    while True:
        half = width >> 1
        if not half.any():
            return at + (indices[at] < values)
        at = at + np.where(indices[at + half] < values, half, 0)
        width -= half


def ordered_row_sum(
    rows: np.ndarray, values: np.ndarray, base: np.ndarray
) -> np.ndarray:
    """Per row ``i``: ``((base[i] + values[k_1]) + values[k_2]) + ...``.

    ``k_1 < k_2 < ...`` are the entries with ``rows[k] == i``.  ``np.add.at``
    is unbuffered and visits the entries in order, so every row's float64
    additions happen strictly left to right: the result is bit for bit the
    reference inbox loop's accumulation, signed zeros, infinities and
    subnormals included.  An entry that must not contribute has to be *left
    out*, not given the value 0.0: ``-0.0 + 0.0`` is +0.0.
    """
    out = np.array(base, dtype=np.float64)
    # Python float addition overflows to inf (and inf + -inf gives NaN)
    # silently; so does this.
    with np.errstate(over="ignore", invalid="ignore"):
        np.add.at(out, rows, values)
    return out
