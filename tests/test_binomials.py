"""Binomial coefficients and the level-difference function."""

import math
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from kktools import binom, binomials, d_value, hockey_stick, verify_d_identities


@given(st.integers(min_value=0, max_value=60), st.integers(min_value=-3, max_value=63))
def test_binom_matches_stdlib(n, k):
    expected = math.comb(n, k) if 0 <= k <= n else 0
    assert binom(n, k) == expected


def test_binom_rejects_negative_n():
    with pytest.raises(ValueError):
        binom(-1, 0)


def test_d_value_closed_form():
    assert d_value(4, 2) == binom(4, 1) - binom(4, 2) == -2
    assert d_value(6, 3) == 15 - 20 == -5
    assert d_value(3, 2) == 3 - 3 == 0
    # r exceeding n collapses to zero by convention
    assert d_value(2, 5) == 0
    assert d_value(1, 1) == binom(1, 0) - binom(1, 1) == 0


def test_d_value_domain():
    with pytest.raises(ValueError):
        d_value(0, 1)
    with pytest.raises(ValueError):
        d_value(3, 0)


def test_d_value_sign_pattern():
    # positive strictly below the diagonal r-1 > n-r, negative above it
    for n in range(1, 15):
        for r in range(1, n + 1):
            v = d_value(n, r)
            if 2 * r - 1 < n:
                assert v < 0, (n, r)
            elif 2 * r - 1 == n:
                assert v == 0, (n, r)
            else:
                assert v > 0, (n, r)


def test_hockey_stick_sums():
    # sum down a diagonal of Pascal's triangle telescopes one row further
    for r in range(0, 8):
        for k in range(0, 8):
            total = sum(binom(r + i, i) for i in range(k + 1))
            assert hockey_stick(r, k) == total == binom(r + k + 1, k)


def test_hockey_stick_refuses_a_sum_that_misses_the_closed_form(monkeypatch):
    # C(4, 2) off by one inside the sum; the closed form C(5, 2) is intact
    fake = lambda n, k: math.comb(n, k) + ((n, k) == (4, 2))
    monkeypatch.setattr(binomials, "math", SimpleNamespace(comb=fake))
    with pytest.raises(RuntimeError) as info:
        hockey_stick(2, 2)
    assert str(info.value) == "hockey_stick: sum 11 misses C(5, 2)"


# D off by delta at one (n, r), and the records verify_d_identities(6, 4)
# must make of it; between them the faults reach all eight records
D_FAULTS = [
    ((5, 3), 1, [  # D(5, 3) = 0 is the sign's zero at 2r = n + 1
        {"identity": "sign-trichotomy", "n": 5, "r": 3, "value": 1},
        {"identity": "recurrence", "n": 5, "r": 3},
        {"identity": "recurrence", "n": 6, "r": 3},
        {"identity": "recurrence", "n": 6, "r": 4},
        {"identity": "diagonal-sum", "j": 4, "value": 2}]),
    ((1, 1), -1, [  # D(1, 1) = 0 down to D(2, 1) = -1: no strict decrease
        {"identity": "sign-trichotomy", "n": 1, "r": 1, "value": -1},
        {"identity": "strict-decrease", "n": 1, "r": 1},
        {"identity": "cross-row", "n": 2, "m": 1, "r": 1},
        {"identity": "diagonal-sum", "j": 2, "value": 0}]),
    ((4, 3), -1, [  # the column peak D(4, 3) = 2 falls below D(3, 3) = 2
        {"identity": "recurrence", "n": 4, "r": 3},
        {"identity": "recurrence", "n": 5, "r": 3},
        {"identity": "recurrence", "n": 5, "r": 4},
        {"identity": "column-max", "m": 3, "r": 3},
        {"identity": "diagonal-sum", "j": 3, "value": 0}]),
    ((2, 1), 2, [  # D(2, 1) = -1 up to 1, past D(1, 1) = 0 and past zero
        {"identity": "sign-trichotomy", "n": 2, "r": 1, "value": 1},
        {"identity": "recurrence", "n": 3, "r": 2},
        {"identity": "strict-decrease", "n": 1, "r": 1},
        {"identity": "cross-row", "n": 2, "m": 1, "r": 1},
        {"identity": "column-max", "m": 2, "r": 1},
        {"identity": "diagonal-sum", "j": 3, "value": 3},
        {"identity": "negative-column-sum", "r": 1, "value": 1}]),
]


@pytest.mark.parametrize("at, delta, want", D_FAULTS)
def test_identity_suite_reports_a_faulty_d(monkeypatch, at, delta, want):
    clean = verify_d_identities(6, 4)
    assert clean.violations == []
    real = binomials._d
    monkeypatch.setattr(binomials, "_d",
                        lambda n, r: real(n, r) + delta * ((n, r) == at))
    rep = verify_d_identities(6, 4)
    assert (rep.checks_run, rep.violations) == (clean.checks_run, want)


def test_identity_suite_clean_on_wide_grid():
    rep = verify_d_identities(24, 20)
    assert rep.passed
    assert rep.violations == []
    assert rep.checks_run > 3000


def test_identity_suite_rejects_bad_bounds():
    with pytest.raises(ValueError):
        verify_d_identities(0, 4)


# (call, arguments, value or ValueError): zero, negative, past-range and
# non-integer arguments across the public surface of kktools.binomials.  A
# report stands for (passed, checks_run).
EDGE_CASES = [
    (binom, (0, 0), 1),
    (binom, (5, 0), 1),
    (binom, (5, 5), 1),
    (binom, (5, 6), 0),
    (binom, (5, -1), 0),
    (binom, (0, 1), 0),
    (binom, (-1, 0), ValueError),
    (binom, (-1, -1), ValueError),
    (binom, (10**30, 2), 10**30 * (10**30 - 1) // 2),
    (binom, (2.5, 1), ValueError),
    (binom, (2.5, 5), ValueError),
    (binom, (2.0, 1), ValueError),
    (binom, (3, 1.0), ValueError),
    (binom, (3, -1.5), ValueError),
    (binom, (3, 4.0), ValueError),
    (binom, (-1.5, 1), ValueError),
    (d_value, (1, 1), 0),
    (d_value, (2, 5), 0),
    (d_value, (0, 1), ValueError),
    (d_value, (3, 0), ValueError),
    (d_value, (-1, 1), ValueError),
    (d_value, (1, -1), ValueError),
    (d_value, (2.5, 1), ValueError),
    (d_value, (2.5, 5), ValueError),
    (d_value, (4, 2.0), ValueError),
    (d_value, (4, 5.0), ValueError),
    (hockey_stick, (0, 0), 1),
    (hockey_stick, (3, 4), binom(8, 4)),
    (hockey_stick, (-1, 0), ValueError),
    (hockey_stick, (0, -1), ValueError),
    (hockey_stick, (2.5, 1), ValueError),
    (hockey_stick, (2, 1.0), ValueError),
    (hockey_stick, (2.0, 0), ValueError),
    (verify_d_identities, (1, 1), (True, 4)),
    (verify_d_identities, (0, 4), ValueError),
    (verify_d_identities, (4, 0), ValueError),
    (verify_d_identities, (-1, -1), ValueError),
    (verify_d_identities, (2.5, 2), ValueError),
    (verify_d_identities, (2, 2.0), ValueError),
]


def test_edge_arguments_give_a_value_or_a_value_error():
    # any other exception type escapes and fails the test
    for call, args, want in EDGE_CASES:
        try:
            got = call(*args)
        except ValueError:
            got = ValueError
        if hasattr(got, "checks_run"):
            got = (got.passed, got.checks_run)
        assert got == want, (call.__name__, args, got)


@pytest.mark.parametrize("call, args, name", [
    (binom, (2.5, 1), "n"),
    (binom, (2.5, 5), "n"),
    (binom, (3, 1.0), "k"),
    (d_value, (2.5, 1), "n"),
    (d_value, (2.5, 5), "n"),
    (hockey_stick, (2.5, 1), "r"),
    (hockey_stick, (2, 1.0), "k"),
    (verify_d_identities, (2.5, 2), "n_max"),
])
def test_non_integer_arguments_are_named_in_the_error(call, args, name):
    # they raised TypeError from math.comb or range, or returned 0
    with pytest.raises(ValueError, match=rf"\b{name} must be an integer"):
        call(*args)
