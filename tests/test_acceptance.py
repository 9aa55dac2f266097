"""End-to-end acceptance checks.

Each test covers one numbered criterion, runs it with exact integer
arithmetic (tolerance zero), enforces its runtime budget, and prints a
single PASS/FAIL line directly to the terminal.
"""

import time

from kktools import (
    brute_force_max,
    check_conjecture51,
    format_subset,
    kk_shadow_min,
    level_masks,
    parse_subset,
    rank,
    sperner_max_check,
    unrank,
    verify_clements_minimality,
    verify_d_identities,
    verify_extremal_constructions,
    verify_kkt,
    verify_lemma38,
    verify_lieby_duality,
    verify_prop22,
    verify_prop24,
    verify_thm23,
    verify_thm26_structure,
)
from kktools._pure import prefix_shadow_sizes

SQUASHED_LISTING_5_3 = ["123", "124", "134", "234", "125",
                        "135", "235", "145", "245", "345"]
MAX_TOTALS_N4 = [10, 10, 10, 10, 10, 11, 12]


def _criterion(capsys, number, budget_s, text, body):
    start = time.perf_counter()
    try:
        body()
        elapsed = time.perf_counter() - start
        assert elapsed <= budget_s, (
            f"criterion {number} exceeded its {budget_s}s budget: {elapsed:.2f}s")
    except BaseException:
        with capsys.disabled():
            print(f"FAIL criterion {number:2d}/15: {text}")
        raise
    with capsys.disabled():
        print(f"PASS criterion {number:2d}/15: {text} [{elapsed * 1000:.1f} ms]")


def test_criterion_01_squashed_listing(capsys):
    def body():
        got = [format_subset(unrank(m, 5, 3)) for m in range(10)]
        assert got == SQUASHED_LISTING_5_3
        for m, text in enumerate(SQUASHED_LISTING_5_3):
            assert rank(parse_subset(text, 5)) == m

    _criterion(capsys, 1, 0.001,
               "the ten 3-subsets of {1..5} list in squashed order", body)


def test_criterion_02_shadow_formula_tight(capsys):
    def body():
        for n in range(1, 11):
            for k in range(1, n + 1):
                sizes = prefix_shadow_sizes(level_masks(n, k))
                for m, got in enumerate(sizes):
                    assert got == kk_shadow_min(m, k), (n, k, m)

    _criterion(capsys, 2, 60.0,
               "initial segments attain the cascade shadow bound, n <= 10", body)


def test_criterion_03_shadow_bound_random_families(capsys):
    def body():
        rep = verify_kkt(n_max=10, samples=1000, seed=20240824, sample_n_max=9)
        assert rep.passed and rep.violations == []

    _criterion(capsys, 3, 60.0,
               "1000 random uniform families respect the shadow bound, n <= 9", body)


def test_criterion_04_prefix_shadow_equals_suffix_shade(capsys):
    def body():
        for n in range(2, 11):
            rep = verify_lieby_duality(n)
            assert rep.passed and rep.violations == []

    _criterion(capsys, 4, 60.0,
               "prefix shadows match complement-level suffix shades, n <= 10", body)


def test_criterion_05_window_minimality(capsys):
    def body():
        for n in range(2, 9):
            for k in range(1, n):
                rep = verify_clements_minimality(n, k)
                assert rep.passed and rep.violations == []

    _criterion(capsys, 5, 60.0,
               "boundary windows minimize new shadow and new shade, n <= 8", body)


def test_criterion_06_difference_identity_suite(capsys):
    def body():
        rep = verify_d_identities(24, 20)
        assert rep.passed and rep.violations == []

    _criterion(capsys, 6, 1.0,
               "level-difference identity suite on the wide grid", body)


def test_criterion_07_sign_and_zero_set(capsys):
    def body():
        for r in range(1, 7):
            rep = verify_prop22(r, 924)
            assert rep.passed and rep.violations == []

    _criterion(capsys, 7, 1.0,
               "deficit signs and zero set for r <= 6, m <= 924", body)


def test_criterion_08_running_minimum_characterization(capsys):
    def body():
        for r in range(1, 7):
            rep = verify_thm23(r, 924)
            assert rep.passed and rep.violations == []

    _criterion(capsys, 8, 1.0,
               "deficit meets its running minimum exactly at large cascades", body)


def test_criterion_09_exchange_inequality(capsys):
    def body():
        for n in (4, 5, 6, 7, 8):
            rep = verify_prop24(n)
            assert rep.passed and rep.violations == []

    _criterion(capsys, 9, 60.0,
               "exchange inequality on full grids for n = 4..8", body)


def test_criterion_10_minimum_location(capsys):
    def body():
        for n in range(2, 11):
            rep = verify_lemma38(n)
            assert rep.passed and rep.violations == []

    _criterion(capsys, 10, 1.0,
               "deficit minimum sits at the full level, n <= 10", body)


def test_criterion_11_brute_force_totals(capsys):
    def body():
        got = [brute_force_max(4, k)[0] for k in range(7)]
        assert got == MAX_TOTALS_N4

    _criterion(capsys, 11, 10.0,
               "exhaustive antichain pairs reach 10,10,10,10,10,11,12 at n=4", body)


def test_criterion_12_maximizer_structure(capsys):
    def body():
        rep = verify_thm26_structure(4)
        assert rep.passed and rep.violations == []

    _criterion(capsys, 12, 10.0,
               "every maximizing pair has the two-level replaced structure", body)


def test_criterion_13_constructions_meet_bound(capsys):
    def body():
        for n in (4, 6, 8):
            rep = verify_extremal_constructions(n)
            assert rep.passed and rep.violations == []

    _criterion(capsys, 13, 60.0,
               "explicit constructions attain the bound for n = 4, 6, 8", body)


def test_criterion_14_exchange_grid_no_counterexample(capsys):
    def body():
        for n in (4, 6, 8):
            assert check_conjecture51(n) == []

    _criterion(capsys, 14, 60.0,
               "no grid counterexample to the level-top exchange bound", body)


def test_criterion_15_largest_antichain(capsys):
    def body():
        for n in range(1, 6):
            rep = sperner_max_check(n)
            assert rep.passed and rep.violations == []

    _criterion(capsys, 15, 10.0,
               "largest antichain is the middle level, n <= 5", body)
