"""The reference arithmetic against worked examples."""

from fractions import Fraction
from math import comb

import refarith as ref


def catalan(n):
    return comb(2 * n, n) // (n + 1)


def test_reversion_of_t_plus_t2_is_signed_catalan():
    N = 12
    f = ref.dense({1: 1, 2: 1}, N)
    g = ref.dense({k: (-1) ** (k - 1) * catalan(k - 1) for k in range(1, N + 1)}, N)
    assert g[:6] == [0, 1, -1, 2, -5, 14]
    assert ref.compose(f, g, N) == ref.dense({1: 1}, N)
    assert ref.compose(g, f, N) == ref.dense({1: 1}, N)


def test_compose_and_mul_small_cases():
    assert ref.compose([0, 1, 1], [0, 2, 0], 2) == [0, 2, 4]
    # (t + t^2) o (t + t^2) = t + 2t^2 + 2t^3 + t^4
    assert ref.compose([0, 1, 1, 0, 0], [0, 1, 1, 0, 0], 4) == [0, 1, 2, 2, 1]
    assert ref.mul([1, 1, 0], [1, -1, 0], 2) == [1, 0, -1]
    # modulo 5^3 every result is a canonical residue
    assert ref.compose([0, 5, 124], [0, 2, 1], 3, 125) == [0, 10, (5 + 124 * 4) % 125, 124 * 4 % 125]


def test_unit_slots_and_orders():
    assert ref.first_unit_slot([0, 5, 10, 3, 1], 5) == 3
    assert ref.first_unit_slot([0, 5, 10], 5) is None
    u = ref.dense({3: 1, 5: 1}, 6)
    assert ref.derivative(u) == [0, 0, 3, 0, 5, 0]
    assert ref.order(ref.derivative(u)) == 2
    assert ref.order([0, 0, 0]) == 3


def test_nth_powers():
    assert ref.is_nth_power_q(Fraction(8, 27), 3)
    assert ref.is_nth_power_q(Fraction(-8), 3)
    assert not ref.is_nth_power_q(Fraction(-4), 2)
    assert not ref.is_nth_power_q(Fraction(12), 2)
    assert ref.is_nth_power_q(Fraction(81, 16), 4)
    assert [c for c in range(1, 7) if ref.is_nth_power_fp(c, 2, 7)] == [1, 2, 4]
    assert [c for c in range(1, 7) if ref.is_nth_power_fp(c, 3, 7)] == [1, 6]
    assert all(ref.is_nth_power_fp(c, 3, 5) for c in range(1, 5))
    assert ref.iroot(10**30, 3) == 10**10 and ref.iroot(10**30 + 1, 3) is None


def test_text_round_trip():
    a = ref.dense({0: 2, 1: Fraction(-1, 2), 4: 3, 7: -1}, 8)
    text = ref.format_plain_series(a)
    assert text == "2 - 1/2*t + 3*t^4 - t^7"
    assert ref.parse_plain_series(text, 8) == a
    assert ref.parse_plain_series("t^2 + 6*t", 3, 7) == [0, 6, 1, 0]
    assert ref.parse_plain_series("1/2*t", 1, 7) == [0, 4]
    assert ref.parse_plain_series("0", 2) == [0, 0, 0]
