"""The shadow-deficit function, its running minimum, and their verifiers."""

import random
from itertools import accumulate

import pytest

from kktools import (
    KappaTable,
    binom,
    cascade_rep,
    check_conjecture51,
    d_value,
    first_segment,
    kappa,
    kappa_star,
    kk_shadow_min,
    negativity_threshold,
    shadow,
    verify_conjecture51,
    verify_lemma38,
    verify_prop22,
    verify_prop24,
    verify_thm23,
)
from kktools.kappa import _exchange_violations

# deficit of the first m 2-sets, m = 0..10
KAPPA_2 = [0, 1, 1, 0, 0, -1, -2, -2, -3, -4, -5]
# deficit of the first m 3-sets, m = 0..20
KAPPA_3 = [0, 2, 3, 3, 2, 3, 3, 2, 2, 1, 0, 1, 1, 0, 0, -1, -2, -2, -3, -4, -5]


def test_kappa_frozen_tables():
    assert [kappa(2, m) for m in range(11)] == KAPPA_2
    assert [kappa(3, m) for m in range(21)] == KAPPA_3


def test_kappa_point_values():
    assert kappa(2, 3) == 0
    assert kappa(2, 5) == -1
    for r in range(1, 7):
        assert kappa(r, 0) == 0
        assert kappa(r, 1) == r - 1


def test_kappa_agrees_with_difference_sum():
    # the deficit equals the sum of D over the cascade coefficients
    for r in range(1, 6):
        for m in range(0, 400):
            expected = sum(d_value(a, i) for a, i in cascade_rep(m, r).terms)
            assert kappa(r, m) == expected == kk_shadow_min(m, r) - m


def test_kappa_independent_of_ground_set():
    for r in (2, 3):
        for n in (2 * r, 2 * r + 1, 2 * r + 2):
            for m in range(binom(n, r) + 1):
                fam = first_segment(n, r, m)
                explicit = (len(shadow(fam)) if m else 0) - m
                assert kappa(r, m) == explicit


def test_kappa_star_is_prefix_minimum():
    for r in (2, 3):
        best = 0
        for m in range(0, 60):
            best = min(best, kappa(r, m))
            assert kappa_star(r, m) == best
            assert kappa_star(r, m) <= 0


def test_negativity_threshold_values():
    assert [negativity_threshold(r) for r in (1, 2, 3)] == [2, 5, 15]
    for r in (1, 2, 3, 4):
        p = negativity_threshold(r)
        assert kappa(r, p) < 0 <= kappa(r, p - 1)


def test_table_matches_point_functions():
    t = KappaTable.build(2, 10)
    assert [t.kappa[m] for m in range(11)] == KAPPA_2
    assert t.kappa_star[10] == -5
    assert t.star_clamped(10_000) == t.kappa_star[10]


def test_table_tsv_form():
    t = KappaTable.build(2, 3)
    lines = t.to_tsv().splitlines()
    assert lines[0] == "m\tkappa\tkappa_star"
    assert lines[1] == "0\t0\t0"
    assert lines[2] == "1\t1\t0"


def test_table_rejects_bad_arguments():
    with pytest.raises(ValueError):
        KappaTable.build(0, 5)
    with pytest.raises(ValueError):
        KappaTable.build(2, -1)


def test_sign_and_zero_set_sweep():
    for r in (1, 2, 3):
        rep = verify_prop22(r, binom(2 * r, r) + 2 * r)
        assert rep.passed, rep.violations[:3]
    # zero set: 0 together with the suffix sums of C(2i-1, i)
    zeros_2 = {m for m in range(11) if kappa(2, m) == 0}
    assert zeros_2 == {0, 3, 4}
    zeros_3 = {m for m in range(21) if kappa(3, m) == 0}
    assert zeros_3 == {0, 10, 13, 14}


def test_running_minimum_characterization():
    for r in (1, 2, 3, 4):
        rep = verify_thm23(r, binom(2 * r, r) + 2 * r)
        assert rep.passed, rep.violations[:3]


def test_large_coefficients_give_monotone_suffix():
    # if every cascade coefficient has a_i >= 2i-1, the deficit at m is no
    # larger than at any earlier point
    r = 3
    table = KappaTable.build(r, 140)
    for m in range(141):
        if all(a >= 2 * i - 1 for a, i in cascade_rep(m, r).terms):
            assert table.kappa[m] == table.kappa_star[m]
            assert all(table.kappa[m] <= table.kappa[mp] for mp in range(m))


def test_exchange_inequality_grids():
    for n in (4, 5, 6, 7, 8):
        rep = verify_prop24(n)
        assert rep.passed, rep.violations[:3]
        big_m = binom(n, (n + 1) // 2)
        assert rep.checks_run == (big_m + 1) ** 2
    big_m = binom(7, 4)
    assert verify_prop24(7, a_only=3).checks_run == big_m + 1
    assert verify_prop24(7, k_only=big_m).checks_run == big_m + 1
    assert verify_prop24(7, a_only=0, k_only=5).checks_run == 1


@pytest.mark.parametrize("seed", range(4))
def test_exchange_grid_loop_matches_cell_by_cell_definition(seed):
    # The real tables satisfy the inequality everywhere, so the shared grid
    # loop is also run on made-up tables that violate it in many cells.
    rng = random.Random(seed)
    upper = rng.randint(1, 15)
    kap = [0] + [rng.randint(-5, 5) for _ in range(upper)]
    table = KappaTable(3, upper, kap, list(accumulate(kap, min)))
    grid = range(upper + 1)
    want = []
    for k in grid:
        lhs = kap[upper] + table.kappa_star[k]
        for a in grid:
            rhs = kap[a] + table.star_clamped(k + upper - a)
            if lhs > rhs:
                want.append((a, k, lhs, rhs))
    assert want
    assert list(_exchange_violations(table, grid, grid)) == want
    a, k = rng.choice(grid), rng.choice(grid)
    assert list(_exchange_violations(table, (a,), grid)) == \
        [cell for cell in want if cell[0] == a]
    assert list(_exchange_violations(table, grid, (k,))) == \
        [cell for cell in want if cell[1] == k]


def test_minimum_location_sweep():
    for n in range(2, 11):
        rep = verify_lemma38(n)
        assert rep.passed, rep.violations[:3]


def test_minimum_at_full_level_for_even_ground_sets():
    t = KappaTable.build(2, 6)
    assert min(t.kappa) == t.kappa[6] == -2
    assert [m for m in range(7) if t.kappa[m] == -2] == [6]


def test_exchange_grid_has_no_counterexamples():
    assert check_conjecture51(4) == []
    assert check_conjecture51(6) == []
    rep = verify_conjecture51(8)
    assert rep.passed
    assert rep.checks_run == 71 * 71


def test_conjecture_checker_wants_even_n():
    with pytest.raises(ValueError):
        check_conjecture51(5)
    with pytest.raises(ValueError):
        check_conjecture51(0)
