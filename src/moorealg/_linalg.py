"""Exact row reduction with unit pivots.

Works over every coefficient mode because elimination only ever divides
by unit elements.  Over the field modes all nonzero entries are units
(homogeneous monomials in the graded Laurent rings), so the pivot
search cannot fail there; a column whose nonzero entries are all
non-units leaves the rank uncertified and raises.
"""

from .errors import RankUndeterminedError


def pivot_columns(rows) -> list:
    """Pivot columns of one forward elimination pass, in increasing order.

    The pass over the first j + 1 columns is the same as the pass over
    the matrix cut to those columns, so the rank of every column prefix
    is the number of pivots up to its last column.  A column with
    nonzero entries below the pivots but no unit among them raises
    RankUndeterminedError, at the first such column.
    """
    rows = [list(r) for r in rows if any(r)]
    if not rows:
        return []
    ncols = len(rows[0])
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
        piv = None
        for r in range(rank, len(rows)):
            if rows[r][col] and rows[r][col].is_unit():
                piv = r
                break
        if piv is None:
            if any(rows[r][col] for r in range(rank, len(rows))):
                raise RankUndeterminedError(
                    f"column {col} has nonzero entries but no unit pivot"
                )
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = rows[rank][col].inverse()
        prow = [e * inv for e in rows[rank]]
        # the rank needs only the rows below the pivot cleared
        for r in range(rank + 1, len(rows)):
            if rows[r][col]:
                c = rows[r][col]
                rows[r] = [a - c * b for a, b in zip(rows[r], prow)]
        pivots.append(col)
        if len(pivots) == len(rows):
            break
    return pivots


# no library caller; kept because the tests and the benchmark's tracer use it by name
def echelon_rank(rows) -> int:
    """Number of unit pivots of a matrix (list of RingElem rows)."""
    return len(pivot_columns(rows))


# no library caller; kept because the benchmark's tracer wraps it by name
def mat_mul(a, b, zero):
    """Plain exact matrix product; `zero` is the ring's zero element."""
    if not a or not b:
        return []
    out = []
    for row in a:
        acc = [zero for _ in b[0]]
        for j, e in enumerate(row):
            if not e:
                continue
            brow = b[j]
            acc = [x + e * y for x, y in zip(acc, brow)]
        out.append(acc)
    return out

