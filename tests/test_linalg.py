"""Row reduction with unit pivots: ranks and uncertified columns."""

from fractions import Fraction

import pytest

from moorealg._linalg import echelon_rank, pivot_columns
from moorealg.errors import RankUndeterminedError
from moorealg.rings import CoeffRing, RingElem

Q = CoeffRing("Q")
F5 = CoeffRing("Fp", 5)
F5V = CoeffRing("Fp", 5, laurent=True)
Z53 = CoeffRing("Zp", 5, 3)


def v(k, c=1):
    return F5V.el({k: c})


def mat(ring, rows):
    return [
        [e if isinstance(e, RingElem) else ring.from_int(e) for e in row]
        for row in rows
    ]


RANKS = [
    # (ring, rows, rank)
    (Q, [], 0),
    (Q, [[0, 0], [0, 0]], 0),
    (Q, [[1, 2], [2, 4]], 1),
    (Q, [[1, 2], [3, 4]], 2),
    (Q, [[Fraction(1, 2), 1, 0], [0, 0, 0], [1, 2, 3]], 2),
    (Q, [[0, 1, 1], [0, 1, 1], [0, 0, 2], [0, 2, 4]], 2),
    # det 4 - 6 = -2, nonzero mod 5
    (F5, [[1, 2], [3, 4]], 2),
    # det 1 - 6 = -5, zero mod 5
    (F5, [[1, 2], [3, 1]], 1),
    (F5, [[0, 0, 1], [0, 3, 0], [2, 0, 0]], 3),
    # second row is v times the first
    (F5V, [[1, v(1)], [v(1), v(2)]], 1),
    (F5V, [[v(1), v(2), 0], [0, 0, v(-3, 2)]], 2),
    # unit pivot 1 in column 1; 1 - 25 = -24 is a unit below it
    (Z53, [[0, 1, 0], [0, 5, 1]], 2),
    (Z53, [[1, 5], [5, 1]], 2),
]


@pytest.mark.parametrize("ring, rows, rank", RANKS)
def test_rank(ring, rows, rank):
    assert echelon_rank(mat(ring, rows)) == rank


@pytest.mark.parametrize("ring, rows, rank", RANKS)
def test_pivot_columns_give_every_prefix_rank(ring, rows, rank):
    rows = mat(ring, rows)
    pivots = pivot_columns(rows)
    assert len(pivots) == rank
    for j in range(len(rows[0]) if rows else 0):
        assert sum(c <= j for c in pivots) == echelon_rank([r[: j + 1] for r in rows])


def test_rank_leaves_input_rows_alone():
    rows = mat(Q, [[1, 2], [3, 4]])
    before = [list(r) for r in rows]
    echelon_rank(rows)
    assert rows == before


def test_non_unit_column_raises():
    # column 0 holds 5 and 25: nonzero, but no unit pivot over Z/5^3
    with pytest.raises(RankUndeterminedError, match="column 0"):
        echelon_rank(mat(Z53, [[5, 1], [25, 2]]))
