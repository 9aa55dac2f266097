"""Binomial coefficients and the level-difference function."""

import math

import pytest
from hypothesis import given, strategies as st

from kktools import binom, d_value, hockey_stick, verify_d_identities


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
