"""Squashed (colex) order: comparison, ranking, segments, text forms."""

import random
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from kktools import (
    SetFamily,
    Subset,
    binom,
    compare_squashed,
    first_segment,
    format_subset,
    last_segment,
    level_masks,
    parse_subset,
    rank,
    segment_after,
    unrank,
)

# the ten 3-subsets of {1..5} in squashed order
LISTING_5_3 = ["123", "124", "134", "234", "125", "135", "235", "145", "245", "345"]


def test_three_subsets_of_five_listing():
    got = [format_subset(unrank(m, 5, 3)) for m in range(10)]
    assert got == LISTING_5_3


def test_rank_inverts_listing():
    for m, text in enumerate(LISTING_5_3):
        assert rank(parse_subset(text, 5)) == m


@given(st.integers(min_value=1, max_value=12), st.data())
def test_rank_unrank_roundtrip(n, data):
    k = data.draw(st.integers(min_value=0, max_value=n))
    m = data.draw(st.integers(min_value=0, max_value=binom(n, k) - 1))
    s = unrank(m, n, k)
    assert s.size == k
    assert rank(s) == m


def test_unrank_out_of_range():
    with pytest.raises(ValueError):
        unrank(10, 5, 3)


def test_compare_is_numeric_order_on_masks():
    # for equal sizes the squashed order is the numeric order of bitmasks
    for n in (4, 5):
        for k in range(n + 1):
            masks = level_masks(n, k)
            assert masks == sorted(masks)
            subs = [Subset.from_mask(m, n) for m in masks]
            for i, a in enumerate(subs):
                for j, b in enumerate(subs):
                    expected = (i > j) - (i < j)
                    assert compare_squashed(a, b) == expected


def test_compare_via_symmetric_difference():
    a = parse_subset("134", 5)
    b = parse_subset("234", 5)
    assert compare_squashed(a, b) == -1
    assert compare_squashed(b, a) == 1
    assert compare_squashed(a, a) == 0


def test_segments_partition_the_level():
    n, k = 6, 3
    total = binom(n, k)
    for m in range(total + 1):
        first = first_segment(n, k, m)
        rest = segment_after(n, k, m, total - m)
        assert len(first) == m and len(rest) == total - m
        assert sorted(first.masks() + rest.masks()) == level_masks(n, k)
    # the last m sets are the complement of the first total-m
    for m in range(total + 1):
        last = last_segment(n, k, m)
        first = first_segment(n, k, total - m)
        assert sorted(last.masks() + first.masks()) == level_masks(n, k)


def test_segment_after_zero_is_first_segment():
    assert segment_after(5, 2, 0, 4).masks() == first_segment(5, 2, 4).masks()


def test_segment_bounds_checked():
    with pytest.raises(ValueError):
        first_segment(4, 2, 7)
    with pytest.raises(ValueError):
        segment_after(4, 2, 3, 5)
    # k outside 0..n raises on every segment, not only on first_segment
    for bad in (lambda: segment_after(3, 5, 0, 0), lambda: last_segment(3, -1, 0),
                lambda: first_segment(3, 4, 0), lambda: level_masks(3, -1)):
        with pytest.raises(ValueError):
            bad()


def test_level_masks_match_combinations():
    for n in range(11):
        for k in range(n + 1):
            want = sorted(sum(1 << b for b in c) for c in combinations(range(n), k))
            assert level_masks(n, k) == want


@pytest.mark.parametrize("n", range(1, 8))
def test_segments_match_unrank_at_every_rank(n):
    for k in range(n + 1):
        total = binom(n, k)
        ranked = [unrank(i, n, k).mask for i in range(total)]
        for m in range(total + 1):
            assert first_segment(n, k, m).masks() == ranked[:m]
            assert last_segment(n, k, m).masks() == ranked[total - m:]
        for r in range(total + 1):
            for m in range(total - r + 1):
                assert segment_after(n, k, r, m).masks() == ranked[r:r + m]


def test_subset_canonicalization_and_errors():
    s = Subset((3, 1, 4), 5)
    assert s.elements == (1, 3, 4)
    assert s.mask == 0b01101
    assert Subset((2, 2, 4), 5).elements == (2, 4)  # duplicates collapse
    with pytest.raises(ValueError):
        Subset((0, 2), 5)
    with pytest.raises(ValueError):
        Subset((2, 6), 5)
    with pytest.raises(ValueError):
        Subset.from_mask(-1, 3)
    with pytest.raises(ValueError):
        SetFamily.from_masks([1, -2], 3)
    with pytest.raises(ValueError):
        Subset.from_mask(0b1000, 3)


@pytest.mark.parametrize("n", [1, 5, 63, 64, 65, 130])
def test_from_mask_round_trip_equality_and_hash(n):
    rng = random.Random(n)
    for m in [0, (1 << n) - 1] + [rng.getrandbits(n) for _ in range(30)]:
        s = Subset.from_mask(m, n)
        t = Subset(tuple(e for e in range(n, 0, -1) if m >> (e - 1) & 1), n)
        # t has not computed its mask yet; the cache must not matter
        assert s == t and hash(s) == hash(t) and repr(s) == repr(t)
        assert s.mask == m and t.mask == m
        assert s == t and hash(s) == hash(t) and repr(s) == repr(t)
        assert "_mask" not in repr(s)


def test_text_forms():
    assert format_subset(Subset((), 4)) == "{}"
    assert format_subset(Subset((1, 3, 4), 5)) == "134"
    assert format_subset(Subset((2, 10), 12)) == "{2,10}"
    for text in ("134", "{1,3,4}", "1,3,4", "1 3 4"):
        assert parse_subset(text, 5).elements == (1, 3, 4)
    assert parse_subset("{}", 4).elements == ()
    assert parse_subset("", 4).elements == ()
    with pytest.raises(ValueError):
        parse_subset("{1,2", 4)
    with pytest.raises(ValueError):
        parse_subset("x3", 4)


def test_family_dedups_and_iterates_in_squashed_order():
    fam = SetFamily.of([(2, 3), (1, 2), (2, 3)], 4)
    assert len(fam) == 2
    assert [format_subset(s) for s in fam] == ["12", "23"]
    assert fam.is_uniform and fam.uniform_size() == 2


def test_family_mixed_sizes_order_by_size_first():
    fam = SetFamily.of([(1, 2, 3), (4,), (1, 2)], 4)
    assert [s.size for s in fam] == [1, 2, 3]
    assert not fam.is_uniform
    with pytest.raises(ValueError):
        fam.uniform_size()


# (call, arguments, value or ValueError): zero, negative, past-level-size and
# non-integer arguments across the public surface of kktools.squashed.  A
# Subset stands for its elements and a family for its masks.
EDGE_CASES = [
    (unrank, (1.5, 3, 1), ValueError),
    (unrank, (2.0, 3, 1), ValueError),
    (unrank, (0, 3.0, 1), ValueError),
    (unrank, (0, 3, 1.0), ValueError),
    (unrank, (-1, 3, 1), ValueError),
    (unrank, (3, 3, 1), ValueError),
    (unrank, (0, -1, 0), ValueError),
    (unrank, (0, 3, 4), ValueError),
    (unrank, (0, 3, -1), ValueError),
    (unrank, (0, 0, 0), ValueError),  # a Subset needs a ground set
    (unrank, (0, 3, 0), ()),
    (unrank, (2, 3, 1), (3,)),
    (rank, (Subset((), 3),), 0),
    (rank, (Subset((64, 65), 65),), binom(63, 1) + binom(64, 2)),
    (level_masks, (3.0, 1), ValueError),
    (level_masks, (3, 1.0), ValueError),
    (level_masks, (-1, 0), ValueError),
    (level_masks, (3, -1), ValueError),
    (level_masks, (3, 4), ValueError),
    (level_masks, (0, 0), [0]),
    (level_masks, (3, 3), [0b111]),
    (first_segment, (4.0, 2, 1), ValueError),
    (first_segment, (4, 2, 1.0), ValueError),
    (first_segment, (4, 2, -1), ValueError),
    (first_segment, (4, 2, 7), ValueError),
    (first_segment, (4, 2, 0), []),
    (first_segment, (4, 2, 2), [0b11, 0b101]),
    (last_segment, (4, 2, 2.5), ValueError),
    (last_segment, (4, 2, 7), ValueError),
    (last_segment, (4, 2, 1), [0b1100]),
    (segment_after, (4, 2, 1.0, 1), ValueError),
    (segment_after, (4, 2, 0, 1.0), ValueError),
    (segment_after, (4, 2, -1, 1), ValueError),
    (segment_after, (4, 2, 6, 1), ValueError),
    (segment_after, (4, 2, 6, 0), []),
    (segment_after, (4, 2, 5, 1), [0b1100]),
    (Subset, ((), 0), ValueError),
    (Subset, ((1,), 2.5), ValueError),
    (Subset, ((1,), -1), ValueError),
    (Subset, ((0,), 3), ValueError),
    (Subset, ((4,), 3), ValueError),
    (Subset, ((), 1), ()),
    (SetFamily, ((), 2.5), ValueError),
    (SetFamily, ((), 0), ValueError),
    (SetFamily, ((Subset((1,), 2),), 3), ValueError),
    (SetFamily, ((), 1), []),
    (compare_squashed, (Subset((1,), 3), Subset((1, 2), 3)), ValueError),
    (compare_squashed, (Subset((3,), 3), Subset((3,), 3)), 0),
    (parse_subset, ("1.5", 3), ValueError),
    (parse_subset, ("{1,x}", 3), ValueError),
    (parse_subset, ("4", 3), ValueError),
    (parse_subset, ("", 3), ()),
    (format_subset, (Subset((), 1),), "{}"),
]


def test_edge_arguments_give_a_value_or_a_value_error():
    # any other exception type escapes and fails the test
    for call, args, want in EDGE_CASES:
        try:
            got = call(*args)
        except ValueError:
            got = ValueError
        if isinstance(got, Subset):
            got = got.elements
        elif isinstance(got, SetFamily):
            got = got.masks()
        assert got == want, (call.__name__, args, got)


@pytest.mark.parametrize("call, args, name", [
    (unrank, (1.5, 3, 1), "m"),
    (level_masks, (3.0, 1), "n"),
    (segment_after, (4, 2, 0, 1.0), "m"),
])
def test_non_integer_arguments_are_named_in_the_error(call, args, name):
    with pytest.raises(ValueError, match=rf"\b{name}\b"):
        call(*args)
