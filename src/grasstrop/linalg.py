"""Exact rank of sparse integer matrices.

Fraction-free (Bareiss) elimination: every update stays an integer minor
of the input matrix, so the only divisions performed are exact.  Rows are
sparse maps from column index to integer value.
"""

from __future__ import annotations

from typing import Mapping


def exact_rank(rows: list[Mapping[int, int]]) -> int:
    """Rank over the rationals of the matrix whose rows are sparse int maps."""
    mat: list[dict[int, int]] = []
    for row in rows:
        r = {}
        for c, v in row.items():
            if not isinstance(v, int) or isinstance(v, bool):
                raise ValueError(f"matrix entries must be integers, got {v!r}")
            if v != 0:
                r[c] = v
        if r:
            mat.append(r)
    rank = 0
    prev = 1
    while mat:
        col = min(min(r) for r in mat)
        piv_idx = min(
            (i for i, r in enumerate(mat) if col in r), key=lambda i: len(mat[i])
        )
        piv = mat.pop(piv_idx)
        pval = piv[col]
        rank += 1
        nxt: list[dict[int, int]] = []
        for r in mat:
            rv = r.get(col, 0)
            new: dict[int, int] = {}
            for c in set(r) | (set(piv) if rv else set()):
                val = r.get(c, 0) * pval - piv.get(c, 0) * rv
                if val:
                    q, rem = divmod(val, prev)
                    if rem != 0:
                        raise RuntimeError("fraction-free elimination lost exactness")
                    new[c] = q
            if new:
                nxt.append(new)
        mat = nxt
        prev = pval
    return rank
