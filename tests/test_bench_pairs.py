"""The pair runner's summary and claim rule, on synthetic runs."""

import importlib.util
import os

spec = importlib.util.spec_from_file_location(
    "bench_pairs", os.path.join(os.path.dirname(__file__), "..", "tools", "bench_pairs.py")
)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

RATE = {"unit": "1/s", "better": "higher", "bound": 0.25}
TIME = {"unit": "s", "better": "lower", "bound": 0.25}


def test_a_clear_gain_meets_the_claim():
    parent = [100, 102, 98, 101, 99, 100, 103, 97, 100, 101]
    change = [x * 3 for x in parent]
    entry = bench_pairs.summarize(RATE, parent, change)
    assert entry["change_wins_pairs"] == "10/10"
    assert entry["change_worse_by"] == -2.0
    assert bench_pairs.claim_met(entry)


def test_a_gain_within_the_spread_or_in_too_few_pairs_is_no_claim():
    parent = [100, 120, 80, 110, 90, 100, 120, 80, 110, 90]
    within = bench_pairs.summarize(RATE, parent, [x + 1 for x in parent])
    assert within["change_wins_pairs"] == "10/10"
    assert not bench_pairs.claim_met(within)
    # 8 of 10 pairs won: the medians differ, but not in 9 pairs in 10
    few = bench_pairs.summarize(TIME, [1.0] * 10, [0.5] * 8 + [1.5] * 2)
    assert few["change_wins_pairs"] == "8/10"
    assert not bench_pairs.claim_met(few)


def test_worse_by_has_the_sign_of_a_loss():
    slower = bench_pairs.summarize(TIME, [1.0] * 4, [1.1] * 4)
    assert slower["change_worse_by"] == 0.1
    fewer = bench_pairs.summarize(RATE, [100.0] * 4, [90.0] * 4)
    assert fewer["change_worse_by"] == 0.1
