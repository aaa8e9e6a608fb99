"""Dense block LU of a matrix made of blocks over the cells of a grid.

The reduced saddle system couples each cell only to itself and to the cells
it shares a side with, and every coupling is a dense block.  Eliminating the
cells in nested-dissection order keeps the fill within the separators: a
rectangle of cells splits along its longer side, the separator is one line
of cells, and leaves hold at most two cells.  Each leaf or separator is one
pivot group with one dense LU; its Schur complement onto the later cells it
touches (its front) is one matrix product, scattered back as cell blocks.
This is static condensation (Huynh, Knezevic & Patera, M2AN 47, 2013)
applied level by level.

The factorization runs in one precision, by default that of the blocks it
is given: every gathered buffer, LAPACK call, Schur update and stored
coupling has that dtype.  The reduced system factors its float64 Newton
matrix in float32 and refines the step in float64
(:func:`cromflow.fom.fgmres`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np
from scipy.linalg import lapack

# a rectangle of at most this many cells is one pivot group
_LEAF_CELLS = 2


@dataclass
class CellBlockMatrix:
    """Square matrix stored as dense blocks between nodes.

    Node ``i`` owns the rows and columns ``nodes[i]`` of the global vector;
    the nodes partition it.  ``blocks[i, j]`` couples node ``i``'s rows to
    node ``j``'s columns; a missing pair is zero.  The pattern is
    structurally symmetric: ``(i, j)`` is stored exactly when ``(j, i)`` is.
    """

    nodes: list
    blocks: dict

    @property
    def shape(self):
        n = sum(len(rows) for rows in self.nodes)
        return n, n

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        xs = [x[rows] for rows in self.nodes]
        ys = [np.zeros(len(rows)) for rows in self.nodes]
        for (i, j), blk in self.blocks.items():
            ys[i] += blk @ xs[j]
        y = np.empty(self.shape[0])
        for rows, yi in zip(self.nodes, ys):
            y[rows] = yi
        return y

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape)
        for (i, j), blk in self.blocks.items():
            out[np.ix_(self.nodes[i], self.nodes[j])] = blk
        return out


def nested_dissection(rows: int, cols: int) -> list:
    """Pivot groups of the cells of a ``rows`` x ``cols`` grid, in elimination order.

    Cell ``row * cols + col``.  Both halves of a rectangle come before its
    separator, so every group's later neighbours lie on enclosing separators.
    """

    def dissect(r0, r1, c0, c1):
        if (r1 - r0) * (c1 - c0) <= _LEAF_CELLS:
            return [[r * cols + c for r in range(r0, r1) for c in range(c0, c1)]]
        if c1 - c0 >= r1 - r0:
            mid = (c0 + c1) // 2
            halves = [(r0, r1, c0, mid), (r0, r1, mid + 1, c1)]
            separator = [r * cols + mid for r in range(r0, r1)]
        else:
            mid = (r0 + r1) // 2
            halves = [(r0, mid, c0, c1), (mid + 1, r1, c0, c1)]
            separator = [mid * cols + c for c in range(c0, c1)]
        groups = []
        for r_lo, r_hi, c_lo, c_hi in halves:
            if r_hi > r_lo and c_hi > c_lo:
                groups += dissect(r_lo, r_hi, c_lo, c_hi)
        return groups + [separator]

    return dissect(0, rows, 0, cols)


def _starts(nodes, sizes) -> list:
    return list(accumulate((sizes[i] for i in nodes), initial=0))


def _gather(blocks: dict, row_nodes, col_nodes, sizes, dtype) -> np.ndarray:
    """The dense submatrix of ``row_nodes`` x ``col_nodes``, Fortran-ordered
    for LAPACK; gathered blocks are removed from ``blocks``."""
    r_off = _starts(row_nodes, sizes)
    c_off = _starts(col_nodes, sizes)
    out = np.zeros((r_off[-1], c_off[-1]), dtype=dtype, order="F")
    for a, i in enumerate(row_nodes):
        for b, j in enumerate(col_nodes):
            blk = blocks.pop((i, j), None)
            if blk is not None:
                out[r_off[a] : r_off[a + 1], c_off[b] : c_off[b + 1]] = blk
    return out


class BlockLU:
    """LU factorization of a :class:`CellBlockMatrix` by pivot groups.

    ``groups`` lists the nodes of each pivot group in elimination order and
    covers every node once.  Pivoting is partial within each group.  The
    factors have ``dtype`` (float32 or float64), by default that of the
    blocks; blocks of another dtype are rounded to it as they are gathered
    or updated, never copied whole.  An exactly singular pivot block raises
    ``RuntimeError``.
    """

    def __init__(self, mat: CellBlockMatrix, groups, dtype=None):
        sizes = [len(rows) for rows in mat.nodes]
        blocks = dict(mat.blocks)  # remaining blocks; the matrix is not modified
        self.dtype = np.result_type(*blocks.values()) if dtype is None else np.dtype(dtype)
        self._getrf, self._getrs = lapack.get_lapack_funcs(("getrf", "getrs"), dtype=self.dtype)
        adjacent = {}
        for i, j in blocks:
            adjacent.setdefault(i, set()).add(j)
        self._steps = []
        for group in groups:
            members = set(group)
            front = sorted(set().union(*(adjacent.pop(g, ()) for g in group)) - members)
            pivot = _gather(blocks, group, group, sizes, self.dtype)
            lu, piv, info = self._getrf(pivot, overwrite_a=True)
            if info > 0:
                raise RuntimeError(f"pivot block of nodes {group} is exactly singular")
            lower = _gather(blocks, front, group, sizes, self.dtype)
            coupling = _gather(blocks, group, front, sizes, self.dtype)
            upper, _ = self._getrs(lu, piv, coupling, overwrite_b=True)
            self._scatter_schur(blocks, front, sizes, lower @ upper)
            for f in front:
                adjacent[f] = (adjacent[f] - members) | set(front)
            self._steps.append(
                (
                    (lu, piv),
                    np.concatenate([mat.nodes[g] for g in group]),
                    np.concatenate([mat.nodes[f] for f in front] or [np.zeros(0, int)]),
                    lower,
                    upper,
                )
            )

    @property
    def nnz(self) -> int:
        """Entries stored: each pivot group's LU and its lower and upper couplings."""
        return sum(f[0].size + lower.size + upper.size for f, _, _, lower, upper in self._steps)

    @staticmethod
    def _scatter_schur(blocks: dict, front, sizes, update: np.ndarray) -> None:
        off = _starts(front, sizes)
        for a, i in enumerate(front):
            for b, j in enumerate(front):
                part = update[off[a] : off[a + 1], off[b] : off[b + 1]]
                blk = blocks.get((i, j))
                # a block not yet updated may still be in the matrix's dtype:
                # round it to the factors' before subtracting
                blocks[i, j] = -part if blk is None else np.subtract(blk, part, dtype=part.dtype)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """``mat⁻¹ b``, eliminated in the factors' dtype, ``b`` rounded to it;
        the result is float64."""
        x = np.array(b, dtype=self.dtype)
        pivots = []
        for (lu, piv), rows, front_rows, lower, _ in self._steps:
            y, _ = self._getrs(lu, piv, x[rows], overwrite_b=True)
            x[front_rows] -= lower @ y
            pivots.append(y)
        for (_, rows, front_rows, _, upper), y in zip(reversed(self._steps), reversed(pivots)):
            x[rows] = y - upper @ x[front_rows]
        return x.astype(np.float64, copy=False)
