"""Shadows, shades, their new- variants, and cascade representations."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from kktools import (
    CascadeRep,
    SetFamily,
    binom,
    cascade_rep,
    first_segment,
    format_subset,
    kk_shadow_min,
    last_segment,
    level_masks,
    new_shade,
    new_shadow,
    segment_after,
    shade,
    shadow,
    verify_clements_minimality,
    verify_kkt,
    verify_lieby_duality,
)


def test_shadow_of_triangle():
    fam = SetFamily.of([(1, 2, 3)], 5)
    assert sorted(format_subset(s) for s in shadow(fam)) == ["12", "13", "23"]


def test_shade_of_singleton_family():
    fam = SetFamily.of([(2,)], 4)
    assert sorted(format_subset(s) for s in shade(fam)) == ["12", "23", "24"]


def test_shadow_requires_uniform_positive_sizes():
    with pytest.raises(ValueError):
        shadow(SetFamily.of([(1,), (1, 2)], 4))
    with pytest.raises(ValueError):
        shadow(SetFamily.of([()], 4))
    with pytest.raises(ValueError):
        shade(SetFamily.of([(1, 2, 3, 4)], 4))


def test_new_shadow_drops_one_of_the_initial_run():
    # the new shadow of a single k-set keeps only subsets obtained by
    # removing an element of the leading run 1, 2, ...
    fam = SetFamily.of([(1, 2, 5)], 6)
    assert sorted(format_subset(s) for s in new_shadow(fam)) == ["15", "25"]
    fam = SetFamily.of([(3, 4)], 6)  # no leading run at all
    assert new_shadow(fam).masks() == []


def test_new_shade_inserts_below_the_minimum():
    fam = SetFamily.of([(3, 5)], 6)
    assert sorted(format_subset(s) for s in new_shade(fam)) == ["135", "235"]
    fam = SetFamily.of([(1, 4)], 6)  # nothing below the minimum
    assert new_shade(fam).masks() == []


@pytest.mark.parametrize("n", [64, 65])
def test_shade_and_new_shade_past_a_machine_word(n):
    # n = 64 and 65 need masks wider than a machine word; a kernel that
    # held one set per 64-bit word lost every set here.
    low = shade(SetFamily.of([(1,)], n))
    assert len(low) == n - 1
    assert [s.elements for s in low] == [(1, x) for x in range(2, n + 1)]
    # {1, x} belongs to the new shade of {x}, so {1} owns none of its shade
    assert len(new_shade(SetFamily.of([(1,)], n))) == 0
    top = new_shade(SetFamily.of([(n,)], n))
    assert len(top) == n - 1
    assert [s.elements for s in top] == [(x, n) for x in range(1, n)]


@settings(max_examples=60)
@given(st.integers(min_value=1, max_value=7), st.data())
def test_new_shadows_partition_the_prefix_shadow(n, data):
    k = data.draw(st.integers(min_value=1, max_value=n))
    total = binom(n, k)
    m = data.draw(st.integers(min_value=0, max_value=total))
    # union over the first m sets of their new shadows = shadow of the prefix,
    # and the pieces are pairwise disjoint
    pieces = [new_shadow(segment_after(n, k, j, 1)) for j in range(m)]
    union = [x for p in pieces for x in p.masks()]
    assert len(union) == len(set(union))
    if m == 0:
        assert union == []
    else:
        assert sorted(union) == sorted(shadow(first_segment(n, k, m)).masks())


@settings(max_examples=60)
@given(st.integers(min_value=1, max_value=7), st.data())
def test_new_shades_partition_the_suffix_shade(n, data):
    k = data.draw(st.integers(min_value=0, max_value=n - 1))
    total = binom(n, k)
    m = data.draw(st.integers(min_value=1, max_value=total))
    pieces = [new_shade(segment_after(n, k, total - j - 1, 1)) for j in range(m)]
    union = [x for p in pieces for x in p.masks()]
    assert len(union) == len(set(union))
    assert sorted(union) == sorted(shade(last_segment(n, k, m)).masks())


def test_cascade_rep_examples():
    rep = cascade_rep(17, 3)
    assert rep.terms == ((5, 3), (4, 2), (1, 1))
    assert str(rep) == "17 = C(5,3) + C(4,2) + C(1,1)"
    assert rep.shadow_sum() == binom(5, 2) + binom(4, 1) + binom(1, 0) == 15
    assert cascade_rep(0, 4).terms == ()
    assert cascade_rep(binom(9, 4), 4).terms == ((9, 4),)


@given(st.integers(min_value=0, max_value=3000), st.integers(min_value=1, max_value=6))
def test_cascade_rep_reconstructs_and_is_strictly_decreasing(m, r):
    rep = cascade_rep(m, r)
    assert sum(binom(a, i) for a, i in rep.terms) == m
    tops = [a for a, _ in rep.terms]
    lows = [i for _, i in rep.terms]
    assert tops == sorted(tops, reverse=True) and len(set(tops)) == len(tops)
    assert lows == list(range(r, r - len(lows), -1))
    if rep.terms:
        a_t, t = rep.terms[-1]
        assert a_t >= t >= 1


@pytest.mark.parametrize("m, r", [
    (10**7, 1), (10**14, 2), (10**24, 3), (10**100, 12), (binom(200, 100) - 1, 100),
    *((random.Random(r).randrange(binom(40, r) + 1), r) for r in range(1, 13))])
def test_cascade_rep_is_greedy_for_huge_m(m, r):
    # CascadeRep checks the sum and the strict decrease on construction
    rep = cascade_rep(m, r)
    rem = m
    for a, i in rep.terms:
        assert binom(a, i) <= rem < binom(a + 1, i)
        rem -= binom(a, i)
    assert rem == 0
    if r == 1:
        assert kk_shadow_min(m, 1) == 1


def test_cascade_rep_validation():
    with pytest.raises(ValueError):
        CascadeRep(5, 2, ((2, 2), (2, 1)))  # coefficients must strictly decrease
    with pytest.raises(ValueError):
        CascadeRep(4, 2, ((3, 2), (0, 1)))  # a_t >= t fails
    with pytest.raises(ValueError):
        CascadeRep(9, 2, ((3, 2), (2, 1)))  # value mismatch
    with pytest.raises(ValueError):
        cascade_rep(-1, 2)
    with pytest.raises(ValueError):
        cascade_rep(3, 0)


def test_kk_shadow_min_examples():
    assert kk_shadow_min(5, 2) == 4
    assert kk_shadow_min(0, 3) == 0
    # initial segments attain the bound exactly
    for n, k in ((5, 2), (6, 3), (7, 4)):
        for m in range(binom(n, k) + 1):
            fam = first_segment(n, k, m)
            got = len(shadow(fam)) if m else 0
            assert got == kk_shadow_min(m, k)


def test_kkt_sweep_passes():
    rep = verify_kkt(n_max=8, samples=120, seed=7)
    assert rep.passed


def test_kkt_randomized_families_respect_bound_direct():
    import random

    rng = random.Random(99)
    for _ in range(150):
        n = rng.randint(2, 7)
        k = rng.randint(1, n)
        lvl = level_masks(n, k)
        m = rng.randint(1, len(lvl))
        fam = SetFamily.from_masks(rng.sample(lvl, m), n)
        assert len(shadow(fam)) >= kk_shadow_min(m, k)


def test_lieby_duality_small():
    for n in range(2, 9):
        rep = verify_lieby_duality(n)
        assert rep.passed, rep.violations[:3]


def test_lieby_duality_spot_check():
    # shadow sizes of prefixes at level k match shade sizes of suffixes at n-k
    n, k, m = 6, 2, 7
    a = len(shadow(first_segment(n, k, m)))
    b = len(shade(last_segment(n, n - k, m)))
    assert a == b


def test_clements_window_minimality():
    for n, k in ((5, 2), (6, 3)):
        rep = verify_clements_minimality(n, k)
        assert rep.passed, rep.violations[:3]
        total = binom(n, k)
        # every window length m = 0..total, each window checked both ways
        assert rep.checks_run == (total + 1) * (total + 2)


def test_clements_spot_window():
    # middle windows never beat the boundary windows of the same length
    n, k, m = 6, 3, 5
    total = binom(n, k)
    last = len(new_shadow(last_segment(n, k, m)))
    first = len(new_shade(first_segment(n, k, m)))
    for start in range(total - m + 1):
        win = segment_after(n, k, start, m)
        assert len(new_shadow(win)) >= last
        assert len(new_shade(win)) >= first
