"""The shadow-deficit function, its running minimum, and their verifiers."""

import importlib
import random
import timeit
import tracemalloc
from itertools import accumulate, islice
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

import kktools

from kktools import (
    KappaTable,
    VerificationReport,
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
    theorem25_bound,
    verify_conjecture51,
    verify_lemma38,
    verify_prop22,
    verify_prop24,
    verify_thm23,
)
from kktools.kappa import (_condition_column, _exchange_violations,
                           _full_grid_violations, _run_column,
                           _violating_steps)
from kktools.squashed import _squashed_walk

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


def test_negativity_threshold_is_the_comb_sum():
    # the terms are built each from the last; the oracle sums comb afresh
    for r in range(1, 301):
        assert negativity_threshold(r) == 1 + sum(comb(2 * i - 1, i) for i in range(1, r + 1))


def test_table_matches_point_functions():
    t = KappaTable.build(2, 10)
    assert [t.kappa[m] for m in range(11)] == KAPPA_2
    assert t.kappa_star[10] == -5


def test_kappa_name_is_the_function_and_the_module_stays_importable():
    # the package attribute shadows the submodule of the same name
    assert kktools.kappa is kappa
    assert kktools.kappa(2, 5) == -1
    assert importlib.import_module("kktools.kappa").KappaTable is KappaTable


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
    # a column that is no list, or whose entries the running minimum
    # cannot compare
    for column in (None, (0, 1), [0, "a"]):
        with pytest.raises(ValueError, match="KappaTable: kappa must"):
            KappaTable(2, 1 if column is not None else 2, column)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), st.lists(st.integers(-10, 10), min_size=1, max_size=40),
       st.integers(0, 1000))
@example(1, [0], 0)
@example(6, [3], 0)
def test_table_derives_kappa_star_as_the_running_minimum(r, kap, upper):
    # kappa* is no constructor argument: any kappa column gets its running
    # minimum, and a built table is the table of its own kappa column
    table = KappaTable(r, len(kap) - 1, kap)
    assert table.kappa_star == list(accumulate(kap, min))
    built = KappaTable.build(r, upper)
    assert built == KappaTable(r, upper, list(built.kappa))


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


def oracle_thm23(table, r, m_max):
    """The per-m cascade loop verify_thm23 used before reading the
    condition off the squashed walk."""
    out = []
    for m in range(m_max + 1):
        cond = all(a >= 2 * i - 1 for a, i in cascade_rep(m, r).terms)
        if cond != (table.kappa[m] == table.kappa_star[m]):
            out.append({"r": r, "m": m, "kappa": table.kappa[m],
                        "kappa_star": table.kappa_star[m],
                        "coefficients_large": cond})
    return out


def oracle_coefficients_large(mask):
    """Thm 2.3's condition read off the rank-m r-set itself, the per-row
    form verify_thm23 used before the block recursion: every element e_i
    past the initial run has e_i >= 2i."""
    i = (mask & ~(mask + 1)).bit_length()  # length of the initial run
    rest = mask & (mask + 1)
    while rest:
        i += 1
        low = rest & -rest
        if low.bit_length() < 2 * i:
            return False
        rest ^= low
    return True


def oracle_walk_table(r, upper_m):
    """The per-row build KappaTable used before the block recursion: walk
    the level in squashed order and add each set's new-shadow size, the
    trailing ones of its mask."""
    kappa_col = [0]
    star_col = [0]
    shadow_size = 0
    running_min = 0
    for m, mask in zip(range(1, upper_m + 1), _squashed_walk((1 << r) - 1)):
        shadow_size += ((mask ^ (mask + 1)) >> 1).bit_length()
        value = shadow_size - m
        kappa_col.append(value)
        running_min = min(running_min, value)
        star_col.append(running_min)
    return kappa_col, star_col


def oracle_condition_column(r, upper_m):
    walk = islice(_squashed_walk((1 << r) - 1), upper_m + 1)
    return [oracle_coefficients_large(mask) for mask in walk]


@pytest.mark.parametrize("r", range(1, 9))
def test_mask_condition_matches_cascade_condition(r):
    upper = binom(2 * r, r) + 50
    walk = islice(_squashed_walk((1 << r) - 1), upper + 1)
    want = [all(a >= 2 * i - 1 for a, i in cascade_rep(m, r).terms)
            for m in range(upper + 1)]
    assert [oracle_coefficients_large(mask) for mask in walk] == want
    assert _condition_column(r, upper + 1) == want


@pytest.mark.parametrize("r", range(1, 10))
def test_block_build_matches_the_walk_build(r):
    for upper in sorted({0, 1, r, r + 1, r + 2, binom(2 * r, r) + 50}):
        table = KappaTable.build(r, upper)
        assert (table.kappa, table.kappa_star) == oracle_walk_table(r, upper), upper
        assert len(table.kappa) == upper + 1
        assert _condition_column(r, upper + 1) == \
            oracle_condition_column(r, upper), upper


@pytest.mark.parametrize("r, upper", [(10**5, 3), (2000, 2000), (3, 10**5),
                                      (300, 45_000)])
def test_block_build_matches_the_walk_build_at_extreme_shapes(r, upper):
    # seeded at level r itself (ranks m <= r), many short blocks, and a
    # chain of about 150 levels with two blocks each
    table = KappaTable.build(r, upper)
    assert (table.kappa, table.kappa_star) == oracle_walk_table(r, upper)
    assert _condition_column(r, upper + 1) == oracle_condition_column(r, upper)


def test_block_build_walks_a_chain_deeper_than_the_recursion_limit():
    # ranks 0..720,000 of level 1200 are a chain of about 1150 levels with
    # two blocks each, more than Python's default recursion limit of 1000
    r, upper = 1200, 720_000
    table = KappaTable.build(r, upper)
    assert len(table.kappa) == upper + 1
    for m in [*range(0, upper, 9973), upper]:
        assert table.kappa[m] == kappa(r, m), m


@pytest.mark.parametrize("r", range(1, 9))
def test_run_column_is_the_walk_prefix_at_every_block_boundary(r):
    # the column of a count is a prefix of a longer one.  Level r ends a
    # block at C(a, r); C(a, r) + C(a-1, r-1) cuts the last block as long
    # as the longest full one, the edge of extending the level below in place
    top = comb(2 * r, r) + 2 * r
    walk = oracle_walk_table(r, top)[0]
    runs = [after - before for before, after in zip(walk, walk[1:])]
    ends = [comb(a, r) for a in range(r, 2 * r + 1)]
    ends += [comb(a, r) + comb(a - 1, r - 1) for a in range(r + 1, 2 * r)]
    counts = {0, top} | {end + d for end in ends for d in (-1, 0, 1)}
    for count in sorted(counts):
        assert _run_column(r, count) == runs[:count], count


def test_the_deep_chain_builds_within_its_budget():
    # every level of the chain reads the whole level below in its last
    # block: extended in place, about 8 ms; copying every block at every
    # level took 0.7 s on a shared 2-core VM, Python 3.11
    fastest = min(timeit.repeat(lambda: _run_column(1200, 720_000),
                                number=1, repeat=3))
    assert fastest <= 0.25, f"the deep chain took {fastest:.2f} s"


@pytest.mark.parametrize("r, m, delta", [(3, 12, -1), (3, 10, 1), (4, 48, 2),
                                         (5, 160, -1)])
def test_thm23_sweep_and_cascade_oracle_agree_on_a_faulty_table(
        monkeypatch, r, m, delta):
    build = KappaTable.build.__func__

    def faulty(cls, level, upper):
        table = build(cls, level, upper)
        table.kappa[m] += delta
        return table

    monkeypatch.setattr(KappaTable, "build", classmethod(faulty))
    m_max = binom(2 * r, r) + 2 * r
    rep = verify_thm23(r, m_max)
    want = oracle_thm23(KappaTable.build(r, m_max), r, m_max)
    assert want
    assert rep.violations == want
    assert rep.checks_run == m_max + 1


def prop22_zeros(r):
    """Prop 2.2's zero set: 0 and each suffix sum of C(2i-1, i), summed
    one by one."""
    return {0} | {sum(binom(2 * i - 1, i) for i in range(t, r + 1))
                  for t in range(1, r + 1)}


def oracle_prop22(table, r, m_max):
    """verify_prop22's violations by the per-m loop."""
    p = negativity_threshold(r)
    zeros = prop22_zeros(r)
    violations = []
    for m in range(m_max + 1):
        v = table.kappa[m]
        if (v < 0) != (m >= p):
            violations.append({"part": "negativity", "r": r, "m": m,
                               "kappa": v, "threshold": p})
        if (v == 0) != (m in zeros):
            violations.append({"part": "zero-set", "r": r, "m": m, "kappa": v})
    return violations


def oracle_lemma38(table, n):
    """verify_lemma38's violations by the per-m loop."""
    big_m = table.upper_m
    target = table.kappa[big_m]
    violations = []
    for m in range(big_m + 1):
        v = table.kappa[m]
        if v < target:
            violations.append({"part": "minimum", "n": n, "m": m,
                               "kappa": v, "at_level_size": target})
        elif n % 2 == 0 and v == target and m != big_m:
            violations.append({"part": "uniqueness", "n": n, "m": m, "kappa": v})
    return violations


def faulty_columns(monkeypatch, fault):
    """Route every kappa column, the tables' too, through fault(level,
    upper, col), which edits the column in place."""
    kappa_module = importlib.import_module("kktools.kappa")
    column = kappa_module._kappa_column

    def faulty(level, upper):
        col = column(level, upper)
        fault(level, upper, col)
        return col

    monkeypatch.setattr(kappa_module, "_kappa_column", faulty)


def test_sign_and_minimum_sweeps_match_per_m_oracles_on_faulty_tables(
        monkeypatch):
    # an earlier entry set to the last one (Lemma 3.8's target), then a few
    # entries moved by up to 3, the last one too at odd seeds; every part of
    # both sweeps must fire.  The faults go into the kappa column the two
    # sweeps read, which KappaTable.build reads too, so the oracles see them
    seed = 0

    def fault(level, upper, col):
        rng = random.Random(f"{seed} {level} {upper}")  # same faults per column
        if upper:
            col[rng.randrange(upper)] = col[upper]
        picks = rng.sample(range(upper + 1), min(upper + 1, 6))
        if seed % 2:
            picks.append(upper)
        for m in picks:
            col[m] += rng.choice([-3, -2, -1, 1, 2, 3])

    faulty_columns(monkeypatch, fault)
    parts = set()
    for seed in range(12):
        # (6, 924) is the deficit-sweeps benchmark's own size
        for r, m_max in ((1, 5), (2, 12), (3, 30), (4, 80), (6, 924)):
            rep = verify_prop22(r, m_max)
            want = oracle_prop22(KappaTable.build(r, m_max), r, m_max)
            assert rep.violations == want, (seed, r)
            assert rep.checks_run == 2 * (m_max + 1)
            parts |= {v["part"] for v in want}
        for n in (2, 5, 6, 7, 8):
            rep = verify_lemma38(n)
            r = (n + 1) // 2
            want = oracle_lemma38(KappaTable.build(r, binom(n, r)), n)
            assert rep.violations == want, (seed, n)
            assert rep.checks_run == binom(n, r) + 1
            parts |= {v["part"] for v in want}
    assert parts == {"negativity", "zero-set", "minimum", "uniqueness"}


def flip_sign(v):
    # a zero goes negative; 0 is its own negation
    return -v if v else -1


# Where a fault sits in the column of level r: p is the negativity
# threshold, m_max the column's last index
EDGE_FAULTS = {
    "zero just below the threshold": lambda r, p, m_max: [
        (max(m for m in range(p) if m not in prop22_zeros(r)), lambda v: 0)],
    "expected zero raised": lambda r, p, m_max: [(p - 1, lambda v: v + 1)],
    "expected zero lowered": lambda r, p, m_max: [(p - 1, lambda v: v - 1)],
    "first zero raised": lambda r, p, m_max: [(min(prop22_zeros(r) - {0}),
                                               lambda v: v + 2)],
    "sign flip at threshold - 1": lambda r, p, m_max: [(p - 1, flip_sign)],
    "sign flip at threshold": lambda r, p, m_max: [(p, flip_sign)],
    "sign flip at m_max": lambda r, p, m_max: [(m_max, flip_sign)],
    "zero at m_max": lambda r, p, m_max: [(m_max, lambda v: 0)],
    # the count of zeros stays right, only their places change
    "zero moved below the threshold": lambda r, p, m_max: [
        (p - 1, lambda v: v + 1),
        (max(m for m in range(p) if m not in prop22_zeros(r)), lambda v: 0)],
    "zero moved past the threshold": lambda r, p, m_max: [
        (min(prop22_zeros(r) - {0}), lambda v: v + 2), (p, lambda v: 0)],
    "flips at all three": lambda r, p, m_max: [
        (m, flip_sign) for m in sorted({p - 1, p, m_max})],
}


@pytest.mark.parametrize("r, m_max", [(2, 12), (3, 40), (6, 924)])
@pytest.mark.parametrize("name", EDGE_FAULTS)
def test_prop22_reports_faults_at_the_edges_as_the_per_m_oracle(
        monkeypatch, name, r, m_max):
    p = negativity_threshold(r)
    edits = EDGE_FAULTS[name](r, p, m_max)

    def fault(level, upper, col):
        for m, edit in edits:
            col[m] = edit(col[m])

    faulty_columns(monkeypatch, fault)
    rep = verify_prop22(r, m_max)
    want = oracle_prop22(KappaTable.build(r, m_max), r, m_max)
    assert want
    assert rep.violations == want
    assert rep.checks_run == 2 * (m_max + 1)


@pytest.mark.parametrize("moved", [False, True])
@pytest.mark.parametrize("r", [2, 3, 4, 6])
def test_prop22_sees_the_zero_at_m_max_raised_or_moved(monkeypatch, r, moved):
    # m_max = threshold - 1 is the last expected zero; it is raised, and
    # then maybe planted below
    m_max = negativity_threshold(r) - 1
    below = max(m for m in range(m_max) if m not in prop22_zeros(r))

    def fault(level, upper, col):
        col[upper] += 1
        if moved:
            col[below] = 0

    faulty_columns(monkeypatch, fault)
    rep = verify_prop22(r, m_max)
    want = oracle_prop22(KappaTable.build(r, m_max), r, m_max)
    assert [v["m"] for v in want] == ([below, m_max] if moved else [m_max])
    assert rep.violations == want


def test_prop22_takes_its_zero_set_in_one_pass(monkeypatch):
    # the suffix sums of C(2i-1, i) as one running sum over terms built each
    # from the last, shared with the threshold: no comb call at all, where
    # summing each suffix anew took r^2 / 2
    kappa_module = importlib.import_module("kktools.kappa")
    calls = []

    def counting(n, k):
        calls.append((n, k))
        return binom(n, k)

    monkeypatch.setattr(kappa_module, "comb", counting)
    r = 50
    assert verify_prop22(r, 5).passed
    assert calls == []


def test_the_threshold_and_zero_set_hold_one_term_at_a_time():
    # the r terms C(2i-1, i) hold about r^2 bits together: kept, they
    # peaked at 52 MiB for the threshold and 156 MiB for the sweep
    r = 20_000
    tracemalloc.start()
    try:
        negativity_threshold(r)
        threshold_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        assert verify_prop22(r, 10).passed
        sweep_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert threshold_peak < 1 << 20, threshold_peak
    assert sweep_peak < 1 << 20, sweep_peak


def test_kappa_only_sweeps_build_no_table(monkeypatch):
    # verify_prop22 and verify_lemma38 read the kappa column alone
    def no_table(cls, r, upper_m):
        raise AssertionError("KappaTable.build called")

    monkeypatch.setattr(KappaTable, "build", classmethod(no_table))
    for r, m_max in ((1, 5), (4, 80), (6, 924)):
        assert verify_prop22(r, m_max).passed
    assert verify_prop22().passed
    for n in range(2, 13):
        assert verify_lemma38(n).passed


CAP = 10_400_626  # kappa._MAX_UPPER_M: C(26, 13) + 26
LEVEL_CAP = ("need C(n, ceil(n/2)) <= 10400626, the kappa table row cap, "
             "got n = {}")
DEFAULT_CAP = ("the default m_max = C(2r, r) + 2r passes the kappa table row "
               "cap 10400626 at r = {}; give m_max <= 10400626")

# Every table entry point past the row cap, and its full message
PAST_THE_CAP = [
    (KappaTable.build, (2, CAP + 1), "KappaTable: need 0 <= upper_m <= 10400626, "
                                     "got 10400627"),
    (verify_prop22, (2, CAP + 1), "verify_prop22: need 0 <= m_max <= 10400626, "
                                  "got 10400627"),
    (verify_thm23, (2, CAP + 1), "verify_thm23: need 0 <= m_max <= 10400626, "
                                 "got 10400627"),
    *((sweep, (r,), f"{sweep.__name__}: {DEFAULT_CAP.format(r)}")
      for sweep in (verify_prop22, verify_thm23) for r in (14, 10**9)),
    *((sweep, (n,), f"{sweep.__name__}: {LEVEL_CAP.format(n)}")
      for sweep in (verify_prop24, verify_lemma38) for n in (27, 10**9)),
    *((sweep, (n,), f"{sweep.__name__}: {LEVEL_CAP.format(n)}")
      for sweep in (check_conjecture51, verify_conjecture51) for n in (28, 10**9)),
]


@pytest.mark.parametrize("call, args, message", PAST_THE_CAP,
                         ids=[f"{c.__name__}-{a}" for c, a, _ in PAST_THE_CAP])
def test_a_table_past_the_row_cap_is_refused_before_it_is_built(
        monkeypatch, call, args, message):
    kappa_module = importlib.import_module("kktools.kappa")

    def no_build(*_):
        raise AssertionError("a column was built")

    for name in ("_run_column", "_condition_column"):
        monkeypatch.setattr(kappa_module, name, no_build)
    with pytest.raises(ValueError) as info:
        call(*args)
    assert str(info.value) == message


@pytest.mark.parametrize("call, args", [
    (verify_prop24, (26, 0, 0)), (verify_prop22, (13,)), (verify_thm23, (13,)),
    (KappaTable.build, (2, 0)), (verify_prop22, (3, CAP)), (verify_thm23, (3, CAP))])
def test_the_row_cap_admits_n_26_and_m_max_at_the_cap(monkeypatch, call, args):
    # the checks pass; the (stubbed) build is the next step
    kappa_module = importlib.import_module("kktools.kappa")

    def stub(*_):
        raise LookupError("built")

    monkeypatch.setattr(kappa_module, "_kappa_column", stub)
    with pytest.raises(LookupError):
        call(*args)


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


def cell_by_cell(table):
    """Every violating cell (a, k, lhs, rhs) of the full grid, k-major, by
    the definition, with kappa* saturating at M per cell."""
    big_m = table.upper_m
    grid = range(big_m + 1)
    want = []
    for k in grid:
        lhs = table.kappa[big_m] + table.kappa_star[k]
        for a in grid:
            rhs = table.kappa[a] + table.kappa_star[min(k + big_m - a, big_m)]
            if lhs > rhs:
                want.append((a, k, lhs, rhs))
    return want


def made_up_table(rng, upper, shape):
    if shape == "uniform":
        kap = [0] + [rng.randint(-5, 5) for _ in range(upper)]
    else:  # a walk with steps -1, 0, +1, as the real kappa columns move
        kap = list(accumulate([0] + [rng.choice((-1, 0, 1)) for _ in range(upper)]))
    return KappaTable(3, upper, kap)


@pytest.mark.parametrize("seed", range(4))
def test_exchange_grid_loop_matches_cell_by_cell_definition(seed):
    # The real tables satisfy the inequality everywhere, so the shared grid
    # loop is also run on made-up tables that violate it in many cells.
    rng = random.Random(seed)
    upper = rng.randint(1, 15)
    table = made_up_table(rng, upper, "uniform")
    grid = range(upper + 1)
    want = cell_by_cell(table)
    assert want
    assert list(_exchange_violations(table, grid, grid)) == want
    a, k = rng.choice(grid), rng.choice(grid)
    assert list(_exchange_violations(table, (a,), grid)) == \
        [cell for cell in want if cell[0] == a]
    assert list(_exchange_violations(table, grid, (k,))) == \
        [cell for cell in want if cell[1] == k]


@pytest.mark.parametrize("shape", ["uniform", "walk"])
def test_full_grid_path_matches_cell_by_cell_definition(shape):
    rng = random.Random(2024)
    violating = 0
    for _ in range(400):
        table = made_up_table(rng, rng.randint(0, 30), shape)
        want = cell_by_cell(table)
        assert list(_full_grid_violations(table)) == want
        violating += bool(want)
    assert violating >= 100


@pytest.mark.parametrize("n", range(4, 13))
def test_reduced_grid_matches_full_grid_on_real_tables(n):
    r = (n + 1) // 2
    big_m = binom(n, r)
    grid = range(big_m + 1)
    full = list(_exchange_violations(KappaTable.build(r, big_m), grid, grid))
    rep = verify_prop24(n)
    assert rep.violations == [{"n": n, "a": a, "k": k, "lhs": lhs, "rhs": rhs}
                              for a, k, lhs, rhs in full]
    assert rep.checks_run == (big_m + 1) ** 2
    if n % 2 == 0:
        assert check_conjecture51(n) == [(a, k) for a, k, _, _ in full]


@pytest.mark.parametrize("seed", range(3))
def test_grid_sweeps_report_every_violation_of_a_made_up_table(monkeypatch, seed):
    rng = random.Random(seed)
    n, big_m = 6, binom(6, 3)
    table = made_up_table(rng, big_m, "walk")
    monkeypatch.setattr(KappaTable, "build", classmethod(lambda cls, r, upper: table))
    want = cell_by_cell(table)
    assert want
    assert check_conjecture51(n) == [(a, k) for a, k, _, _ in want]
    assert verify_prop24(n).violations == \
        [{"n": n, "a": a, "k": k, "lhs": lhs, "rhs": rhs} for a, k, lhs, rhs in want]


def oracle_step_pairs(table):
    """The steps (s, e) of kappa* whose end row fails, by the step-pair
    inequality of _violating_steps checked for every pair of steps: no
    bisection and no halving."""
    big_m, kap, star = table.upper_m, table.kappa, table.kappa_star
    steps = []
    for m in range(big_m + 1):
        if m and star[m] == star[m - 1]:
            steps[-1] = (steps[-1][0], m)
        else:
            steps.append((m, m))
    low = []
    for value in kap:
        low.append(min(low[-1], value) if low else value)
    if big_m and low[big_m - 1] < kap[big_m]:
        return steps
    return [(s, e) for t, (s, e) in enumerate(steps)
            if any(kap[big_m] + star[e] > star[start] + low[big_m + e - start]
                   for start, _ in steps[t + 1:])]


@pytest.mark.parametrize("n", range(2, 17))
def test_step_certificate_matches_all_step_pairs_on_real_tables(n):
    r = (n + 1) // 2
    table = KappaTable.build(r, binom(n, r))
    assert list(_violating_steps(table)) == oracle_step_pairs(table) == []


@st.composite
def exchange_tables(draw, shape):
    """Made-up tables for the exchange grid, kappa* derived as the running
    minimum of kappa.  "running-min": kappa(M) is the least kappa value, so
    the step pairs decide.  "high-end": kappa(M) lies above an earlier kappa
    value, so every step fails."""
    big_m = draw(st.integers(1 if shape == "high-end" else 0, 24))
    moves = draw(st.lists(st.integers(-2, 2), min_size=big_m, max_size=big_m))
    kap = list(accumulate(moves, initial=draw(st.integers(-3, 3))))
    if shape == "high-end":
        kap[big_m] = min(kap[:big_m]) + draw(st.integers(1, 3))
    else:
        kap[big_m] = min(kap) - draw(st.integers(0, 1))
    return KappaTable(3, big_m, kap)


def assert_certificate_matches_oracles(table):
    assert list(_violating_steps(table)) == oracle_step_pairs(table)
    assert list(_full_grid_violations(table)) == cell_by_cell(table)


@settings(max_examples=300, deadline=None)
@given(exchange_tables("running-min"))
@example(KappaTable(3, 0, [0]))
@example(KappaTable(3, 1, [0, -1]))
@example(KappaTable(3, 1, [0, 0]))
def test_halved_certificate_matches_oracles_on_made_up_tables(table):
    assert_certificate_matches_oracles(table)


@settings(max_examples=200, deadline=None)
@given(exchange_tables("high-end"))
@example(KappaTable(3, 1, [0, 1]))
def test_every_step_fails_when_kappa_m_is_not_least(table):
    steps = list(_violating_steps(table))
    star = table.kappa_star
    assert len(steps) == 1 + sum(a != b for a, b in zip(star, star[1:]))
    assert_certificate_matches_oracles(table)


@pytest.mark.parametrize("n", range(2, 17))
def test_kappa_star_has_catalan_many_steps(n):
    # the O(S^2) bound of the reduced grid: S = Catalan(n/2) + 1 for even n,
    # and kappa* = 0 on the whole odd-n grid
    r = (n + 1) // 2
    star = KappaTable.build(r, binom(n, r)).kappa_star
    steps = 1 + sum(a != b for a, b in zip(star, star[1:]))
    assert steps == (binom(n, r) // (r + 1) + 1 if n % 2 == 0 else 1)


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


@pytest.mark.parametrize("n", [-2, 0, 5])
def test_exchange_grid_report_names_itself_on_bad_n(n):
    with pytest.raises(ValueError, match="verify_conjecture51: need even n >= 2"):
        verify_conjecture51(n)


# (call, arguments, value or ValueError): zero, negative, past-level-size and
# non-integer arguments across the public surface of kktools.kappa, and the
# bound of Thm 2.5 built on kappa*.  A report stands for its `passed` flag
# and a table for its kappa_star column.
EDGE_CASES = [
    (kappa, (2, 2.5), ValueError),
    (kappa, (2.0, 3), ValueError),
    (kappa_star, (2, 2.5), ValueError),
    (kappa_star, (2.0, 3), ValueError),
    (KappaTable.build, (2, 2.5), ValueError),
    (KappaTable.build, (2.0, 6), ValueError),
    (negativity_threshold, (2.0,), ValueError),
    (verify_prop22, (2, 2.5), ValueError),
    (verify_thm23, (2.0, 5), ValueError),
    (verify_prop24, (6.0,), ValueError),
    (verify_prop24, (4, 1.0, None), ValueError),
    (verify_prop24, (4, None, 0.5), ValueError),
    (verify_lemma38, (4.0,), ValueError),
    (check_conjecture51, (4.0,), ValueError),
    (verify_conjecture51, (4.0,), ValueError),
    (theorem25_bound, (6, 2.5), ValueError),
    (theorem25_bound, (6.0, 2), ValueError),
    (theorem25_bound, (6, 0), 35),
    (theorem25_bound, (6, 20), 35 + 5),  # kappa*_3(20) = -5
    (theorem25_bound, (6, 21), ValueError),
    (theorem25_bound, (6, -1), ValueError),
    (theorem25_bound, (5, 0), ValueError),
    (kappa, (0, 0), ValueError),
    (kappa, (-1, 2), ValueError),
    (kappa, (2, -1), ValueError),
    (kappa, (2, 0), 0),
    (kappa, (2, binom(4, 2) + 1), -2),
    (kappa, (1, 10**30), 1 - 10**30),
    (kappa_star, (0, 3), ValueError),
    (kappa_star, (-1, 2), ValueError),
    (kappa_star, (2, -1), ValueError),
    (kappa_star, (2, 0), 0),
    (kappa_star, (2, binom(4, 2) + 1), -2),
    (negativity_threshold, (0,), ValueError),
    (negativity_threshold, (-1,), ValueError),
    (negativity_threshold, (1,), 2),
    (KappaTable.build, (0, 0), ValueError),
    (KappaTable.build, (-1, 3), ValueError),
    (KappaTable.build, (1, -1), ValueError),
    (KappaTable.build, (2, 0), [0]),
    (KappaTable.build, (2, binom(4, 2) + 1), [0, 0, 0, 0, 0, -1, -2, -2]),
    (KappaTable, (3, 0, [2]), [2]),
    (KappaTable, (3, 3, [0, 2, -1, 1]), [0, 0, -1, -1]),
    (KappaTable, (3, 2, [0, 1]), ValueError),
    (KappaTable, (3, -1, []), ValueError),
    (KappaTable, (3, 2.0, [0, 1, 2]), ValueError),
    (verify_prop22, (0, 5), ValueError),
    (verify_prop22, (-1, 5), ValueError),
    (verify_prop22, (2, -1), ValueError),
    (verify_prop22, (2, 0), True),
    (verify_prop22, (2, 100), True),
    (verify_thm23, (0, 5), ValueError),
    (verify_thm23, (-1, 5), ValueError),
    (verify_thm23, (2, -1), ValueError),
    (verify_thm23, (2, 0), True),
    (verify_thm23, (2, 100), True),
    (verify_prop24, (0,), ValueError),
    (verify_prop24, (-1,), ValueError),
    (verify_prop24, (1,), ValueError),
    (verify_prop24, (2,), True),
    (verify_prop24, (4, -1, None), ValueError),
    (verify_prop24, (4, None, -1), ValueError),
    (verify_prop24, (4, 7, None), ValueError),
    (verify_prop24, (4, None, 7), ValueError),
    (verify_prop24, (4, 0, 6), True),
    (verify_lemma38, (0,), ValueError),
    (verify_lemma38, (-2,), ValueError),
    (verify_lemma38, (1,), ValueError),
    (verify_lemma38, (2,), True),
    (check_conjecture51, (0,), ValueError),
    (check_conjecture51, (-2,), ValueError),
    (check_conjecture51, (3,), ValueError),
    (check_conjecture51, (2,), []),
    (verify_conjecture51, (0,), ValueError),
    (verify_conjecture51, (-2,), ValueError),
    (verify_conjecture51, (1,), ValueError),
    (verify_conjecture51, (2,), True),
]


def test_edge_arguments_give_a_value_or_a_value_error():
    # any other exception type escapes and fails the test
    for call, args, want in EDGE_CASES:
        try:
            got = call(*args)
        except ValueError:
            got = ValueError
        if isinstance(got, VerificationReport):
            got = got.passed
        elif isinstance(got, KappaTable):
            got = got.kappa_star
        assert got == want, (call.__name__, args, got)


@pytest.mark.parametrize("call, args, name", [
    (kappa_star, (2, 2.5), "m"),
    (KappaTable.build, (2, 2.5), "upper_m"),
    (theorem25_bound, (6, 2.5), "k"),
    (verify_prop24, (6.0,), "n"),
    (verify_prop24, (6, None, 2.0), "k"),
])
def test_non_integer_arguments_are_named_in_the_error(call, args, name):
    # a float used to fail inside math.comb or a list index with a TypeError
    with pytest.raises(ValueError, match=rf"\b{name}\b.*integer|integer {name}\b"):
        call(*args)


@pytest.mark.parametrize("args, message", [
    ((0, 5), "kappa: need r >= 1, got 0"),
    ((-2, 5), "kappa: need r >= 1, got -2"),
    ((3, -1), "kappa: need m >= 0, got -1"),
    ((0, -1), "kappa: need r >= 1, got 0"),
])
def test_kappa_names_itself_for_a_bad_argument(args, message):
    # it used to report kk_shadow_min, the function it called
    with pytest.raises(ValueError) as info:
        kappa(*args)
    assert str(info.value) == message
