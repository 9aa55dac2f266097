"""Squashed (colex) order: comparison, ranking, segments, text forms."""

import random
import re
from dataclasses import dataclass, fields
from itertools import combinations, product

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
        assert s == t and hash(s) == hash(t) and repr(s) == repr(t)
        assert s.mask == m and t.mask == m
        assert s == t and hash(s) == hash(t) and repr(s) == repr(t)
        assert "_mask" not in repr(s)


def test_subset_stores_only_its_elements_and_ground_set():
    # the mask is derived on each read, not cached on the instance
    assert [f.name for f in fields(Subset)] == ["elements", "ground_n"]


def test_text_forms():
    assert format_subset(Subset((), 4)) == "{}"
    assert format_subset(Subset((1, 3, 4), 5)) == "134"
    assert format_subset(Subset((2, 10), 12)) == "{2,10}"
    # the ground set's size picks the form: digits up to 9, braces beyond
    assert format_subset(Subset((1, 9), 9)) == "19"
    assert format_subset(Subset((1, 9), 10)) == "{1,9}"
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


@dataclass(frozen=True)
class OracleSetFamily:
    """The dataclass SetFamily that held its Subset members, kept as the
    oracle of the mask-tuple SetFamily."""

    members: tuple
    ground_n: int

    def __post_init__(self):
        if not isinstance(self.ground_n, int) or self.ground_n < 1:
            raise ValueError(f"SetFamily: ground_n must be a positive integer, "
                             f"got {self.ground_n!r}")
        for s in self.members:
            if s.ground_n != self.ground_n:
                raise ValueError(
                    f"member {s.elements} has ground set size {s.ground_n}, "
                    f"family has {self.ground_n}")
        canon = tuple(sorted(set(self.members),
                             key=lambda s: (len(s.elements), s.mask)))
        if canon != tuple(self.members):
            object.__setattr__(self, "members", canon)

    @classmethod
    def of(cls, element_sets, ground_n):
        return cls(tuple(Subset(tuple(es), ground_n) for es in element_sets), ground_n)

    @classmethod
    def from_masks(cls, masks, ground_n):
        return cls(tuple(Subset.from_mask(m, ground_n) for m in masks), ground_n)

    def masks(self):
        return [s.mask for s in self.members]

    def sizes(self):
        return {s.size for s in self.members}

    @property
    def is_uniform(self):
        return len(self.sizes()) <= 1

    def uniform_size(self):
        sizes = self.sizes()
        if len(sizes) != 1:
            raise ValueError(f"family is not uniform (sizes {sorted(sizes)})")
        return sizes.pop()

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, s):
        return s in self.members

    def __str__(self):
        return "{" + ", ".join(format_subset(s) for s in self.members) + "}"


def outcome(call, *args):
    """call(*args), or the type and text of the error it raises."""
    try:
        return call(*args)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)


def assert_same_family(fam, oracle):
    assert fam.members == oracle.members
    assert list(fam) == list(oracle)  # iteration order
    assert fam.masks() == oracle.masks()
    assert fam.sizes() == oracle.sizes()
    assert len(fam) == len(oracle)
    assert fam.ground_n == oracle.ground_n
    assert fam.is_uniform == oracle.is_uniform
    assert outcome(fam.uniform_size) == outcome(oracle.uniform_size)
    assert str(fam) == str(oracle)
    assert repr(fam) == repr(oracle).replace("OracleSetFamily", "SetFamily", 1)
    assert all(s in fam for s in oracle.members)
    outside = [Subset.from_mask(m, fam.ground_n)
               for m in range(min(8, 1 << fam.ground_n))]
    assert [s in fam for s in outside] == [s in oracle for s in outside]


@st.composite
def mask_lists(draw, n=None):
    """(n, masks): a list of masks on {1..n}, n <= 130, with repeats, in any
    order, possibly empty."""
    if n is None:
        n = draw(st.integers(min_value=1, max_value=130))
    base = draw(st.lists(st.integers(min_value=0, max_value=(1 << n) - 1),
                         max_size=8))
    repeats = draw(st.lists(st.sampled_from(base), max_size=4)) if base else []
    return n, draw(st.permutations(base + repeats))


@given(mask_lists())
def test_mask_family_matches_the_dataclass_oracle(drawn):
    n, masks = drawn
    oracle = OracleSetFamily.from_masks(masks, n)
    members = [Subset.from_mask(m, n) for m in masks]
    elements = [s.elements for s in members]
    for fam in (SetFamily.from_masks(masks, n), SetFamily.from_masks(iter(masks), n),
                SetFamily(tuple(members), n), SetFamily.of(elements, n)):
        assert_same_family(fam, oracle)
    assert_same_family(SetFamily.of(elements, n),
                       OracleSetFamily.of(elements, n))


@given(st.integers(min_value=1, max_value=130).flatmap(
    lambda n: st.tuples(mask_lists(n), mask_lists(n))))
def test_mask_family_equality_and_hash_match_the_oracle(pair):
    (n, left), (_, right) = pair
    for a_masks, b_masks in ((left, right), (left, list(reversed(left)))):
        a, b = SetFamily.from_masks(a_masks, n), SetFamily.from_masks(b_masks, n)
        want = OracleSetFamily.from_masks(a_masks, n) == \
            OracleSetFamily.from_masks(b_masks, n)
        assert (a == b) == want and (a != b) != want
        if want:
            assert hash(a) == hash(b)
        members = tuple(Subset.from_mask(m, n) for m in b_masks)
        assert (a == SetFamily(members, n)) == want
    fam = SetFamily.from_masks(left, n)
    assert fam != SetFamily.from_masks(left, n + 1)
    assert fam != OracleSetFamily.from_masks(left, n)
    assert fam != tuple(left)


@given(st.integers(min_value=1, max_value=9), st.data())
def test_mask_family_errors_match_the_oracle(n, data):
    # negative masks, masks past the ground set and bad ground sizes
    masks = data.draw(st.lists(st.integers(min_value=-3, max_value=1 << (n + 1)),
                               max_size=6))
    ground_n = data.draw(st.sampled_from([n, n, 0, -1, 2.5]))
    # a member on another ground set, when there are members at all
    members = tuple(Subset.from_mask(m, n) for m in masks if 0 <= m < 1 << n)
    members += tuple(Subset.from_mask(1, n + 1) for _ in masks[:1])
    sets = [(e,) for e in data.draw(st.lists(st.integers(-1, n + 1), max_size=4))]
    for call, args in (("from_masks", (masks, ground_n)), (None, (members, n)),
                       (None, (members, ground_n)), ("of", (sets, ground_n))):
        got = outcome(getattr(SetFamily, call) if call else SetFamily, *args)
        want = outcome(getattr(OracleSetFamily, call) if call else OracleSetFamily,
                       *args)
        if isinstance(want, OracleSetFamily):
            assert_same_family(got, want)
        else:
            assert got == want


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
    (Subset, ((1.5,), 3), ValueError),
    (Subset, ((2.0,), 3), ValueError),
    (Subset, ((1, "2"), 3), ValueError),
    (Subset, (([1],), 3), ValueError),
    (SetFamily, ((), 2.5), ValueError),
    (SetFamily, ((), 0), ValueError),
    (SetFamily, ((Subset((1,), 2),), 3), ValueError),
    (SetFamily, ((), 1), []),
    (SetFamily.of, ([[1.5]], 2), ValueError),
    (SetFamily.of, ([[3]], 2), ValueError),
    (SetFamily.of, ([[2], [1], [2]], 2), [1, 2]),
    (SetFamily.from_masks, ([1.5], 3), ValueError),
    (SetFamily.from_masks, ([[1]], 3), ValueError),
    (SetFamily.from_masks, ([1, -1], 3), ValueError),
    (SetFamily.from_masks, ([8], 3), ValueError),
    (SetFamily.from_masks, ([1], 0), ValueError),
    (SetFamily.from_masks, ([], 0), ValueError),
    (SetFamily.from_masks, ([], 2.5), ValueError),
    (SetFamily.from_masks, ([], 1), []),
    (SetFamily.from_masks, ([3, 0, 4, 3], 3), [0, 4, 3]),
    (SetFamily.from_masks, ([1 << 129], 130), [1 << 129]),
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
    (Subset, ((1.5,), 3), "elements"),
    (SetFamily.of, ([[1.5]], 2), "elements"),
    (SetFamily.from_masks, ([1.5], 2), "masks"),
    # a count past sys.maxsize, which islice refuses without naming a callable
    (level_masks, (70, 35), "level_masks"),
    (segment_after, (200, 100, 0, 10**30), "segment_after"),
    (first_segment, (200, 100, 10**30), "first_segment"),
    (last_segment, (200, 100, 10**30), "last_segment"),
    # C(67, 33) lies between sys.maxsize and 2 * sys.maxsize
    (level_masks, (67, 33), "level_masks"),
])
def test_non_integer_arguments_are_named_in_the_error(call, args, name):
    with pytest.raises(ValueError, match=rf"\b{name}\b"):
        call(*args)


def test_subset_length_membership_and_str():
    s = Subset((1, 3, 4), 5)
    assert len(s) == 3 and len(Subset((), 4)) == 0
    assert 3 in s and 2 not in s and 5 not in s
    assert str(s) == "134" and str(Subset((2, 10), 12)) == "{2,10}"
    assert str(Subset((), 4)) == "{}"


def test_subset_refuses_elements_that_are_not_iterable():
    for elements in (5, None, 2.5):
        with pytest.raises(ValueError) as info:
            Subset(elements, 3)
        assert str(info.value) == f"Subset: elements must be integers, got {elements!r}"


def reference_subset_elements(elements, ground_n):
    """The elements Subset(elements, ground_n) holds, by the normalising
    check every input took before canonical tuples were accepted as they
    are, with the element types tested before set() merges 1 with True or
    2 with 2.0; raises its ValueError on a bad input."""
    try:
        elems = tuple(elements)
    except TypeError:
        elems = None
    if elems is None or not {int}.issuperset(map(type, elems)):
        raise ValueError(f"Subset: elements must be integers, got {elements!r}")
    elems = tuple(sorted(set(elems)))
    if type(ground_n) is not int or ground_n < 1:
        raise ValueError(f"ground set size must be a positive integer, "
                         f"got {ground_n!r}")
    if elems and not (1 <= elems[0] and elems[-1] <= ground_n):
        raise ValueError(
            f"elements {elems} out of range for ground set {{1..{ground_n}}}")
    return elems


def subset_outcome(elements, ground_n):
    """("value", the elements with their types) or ("error", the text)."""
    try:
        got = Subset(elements, ground_n).elements
    except ValueError as exc:
        return "error", str(exc)
    return "value", got, type(got), tuple(map(type, got))


def reference_outcome(elements, ground_n):
    try:
        got = reference_subset_elements(elements, ground_n)
    except ValueError as exc:
        return "error", str(exc)
    return "value", got, type(got), tuple(map(type, got))


# ints around the ground set, repeats, bools and floats
SUBSET_ALPHABET = (-1, 0, 1, 2, 3, 4, 5, 6, True, False, 2.0, 2.5)


@pytest.mark.parametrize("n", [1, 5, 70])
def test_subset_fast_path_matches_the_normalising_reference(n):
    # every tuple of length <= 4 over the alphabet, sorted or not
    for length in range(5):
        for elements in product(SUBSET_ALPHABET, repeat=length):
            assert subset_outcome(elements, n) == reference_outcome(elements, n)


@pytest.mark.parametrize("elements", [(1, True), (2, 2.0), (True, 1), (2.0, 2)])
def test_an_int_equal_to_a_bool_or_float_is_no_integer_element(elements):
    # set() merges 1 with True and 2 with 2.0, so the element types are
    # tested on the elements as given, whichever of the two comes first
    message = rf"^Subset: elements must be integers, got {re.escape(repr(elements))}$"
    with pytest.raises(ValueError, match=message):
        Subset(elements, 3)
    with pytest.raises(ValueError, match=message):
        SetFamily.of([(1,), elements], 3)


def test_subset_keeps_a_canonical_tuple_and_replaces_any_other():
    canonical = (1, 3, 4)
    assert Subset(canonical, 5).elements is canonical
    for elements in ((4, 3, 1), (1, 3, 3, 4), [1, 3, 4]):
        assert Subset(elements, 5).elements == canonical


@pytest.mark.parametrize("call, args", [
    (unrank, (0, 0, 0)),
    (first_segment, (0, 0, 1)),
    (first_segment, (0, 0, 0)),
    (segment_after, (0, 0, 0, 1)),
    (last_segment, (0, 0, 0)),
])
def test_subset_builders_name_themselves_for_an_empty_ground_set(call, args):
    with pytest.raises(ValueError, match=rf"^{call.__name__}: need n >= 1, got 0$"):
        call(*args)
    assert level_masks(0, 0) == [0]


def test_family_holds_only_subsets_of_its_ground_set():
    fam = SetFamily.of([(1,), (1, 2)], 3)
    assert Subset((1,), 3) in fam and Subset((1, 2), 3) in fam
    assert Subset((1,), 4) not in fam and Subset((2,), 3) not in fam
    assert 3 not in fam and (1,) not in fam and 1 not in fam


def test_subset_checks_the_ground_set_on_canonical_elements():
    for bad in (0, -1, True, 5.0, "5", None):
        for elements in ((), (1,), (1, 2, 4)):
            assert subset_outcome(elements, bad) == reference_outcome(elements, bad)
            assert subset_outcome(elements, bad)[0] == "error"


def test_subset_from_a_list_holds_a_tuple():
    # a sorted list used to be kept as it was, so the Subset was unhashable
    # and unequal to the same set from a tuple
    for elements in ([], [1, 2], [2, 1], [3, 3, 1]):
        s = Subset(elements, 4)
        assert type(s.elements) is tuple
        assert s == Subset(tuple(sorted(set(elements))), 4)
        assert hash(s) == hash(Subset(tuple(sorted(set(elements))), 4))


# (masks, ground_n, the error) for from_masks: each text is the error the
# masks' first bad member gives, as before masks were checked in one pass.
FROM_MASKS_ERRORS = [
    ([-1], 3, "elements_of: need mask >= 0, got -1"),
    ([8], 3, "elements (4,) out of range for ground set {1..3}"),
    ([1, 8], 3, "elements (4,) out of range for ground set {1..3}"),
    ([7, -2], 3, "elements_of: need mask >= 0, got -2"),
    ([8, -2], 3, "elements (4,) out of range for ground set {1..3}"),
    ([1 << 70], 70, "elements (71,) out of range for ground set {1..70}"),
    ([(1 << 70) - 1, -1], 70, "elements_of: need mask >= 0, got -1"),
    ([True], 3, "SetFamily: masks must be integers, got True"),
    ([1.0], 3, "SetFamily: masks must be integers, got 1.0"),
    ([2.5], 3, "SetFamily: masks must be integers, got 2.5"),
    ([1, "3"], 3, "SetFamily: masks must be integers, got '3'"),
    ([1, 2], 0, "ground set size must be a positive integer, got 0"),
    ([1], 3.0, "ground set size must be a positive integer, got 3.0"),
    ([], 0, "SetFamily: ground_n must be a positive integer, got 0"),
    ([], True, "SetFamily: ground_n must be a positive integer, got True"),
    ((m for m in [1, -4]), 3, "elements_of: need mask >= 0, got -4"),
    # not iterable: a ValueError naming the method (it was a TypeError)
    (None, 3, "SetFamily.from_masks: masks must be an iterable of integers, got None"),
    (3, 3, "SetFamily.from_masks: masks must be an iterable of integers, got 3"),
]


@pytest.mark.parametrize("masks, ground_n, message", FROM_MASKS_ERRORS)
def test_from_masks_errors_are_the_first_bad_members(masks, ground_n, message):
    with pytest.raises(ValueError) as info:
        SetFamily.from_masks(masks, ground_n)
    assert str(info.value) == message


def test_from_masks_accepts_the_whole_mask_range():
    for n in (1, 5, 63, 64, 65, 130):
        fam = SetFamily.from_masks([0, (1 << n) - 1, 1 << (n - 1)], n)
        assert fam.masks() == sorted({0, 1 << (n - 1), (1 << n) - 1},
                                     key=lambda m: (m.bit_count(), m))


@pytest.mark.parametrize("members, message", [
    (None, "SetFamily: members must be an iterable of Subsets, got None"),
    (3, "SetFamily: members must be an iterable of Subsets, got 3"),
    ([1], "SetFamily: members must be a Subset, got 1"),
    ([Subset((1,), 3), (1, 2)], "SetFamily: members must be a Subset, got (1, 2)"),
])
def test_family_members_must_be_subsets(members, message):
    with pytest.raises(ValueError) as info:
        SetFamily(members, 3)
    assert str(info.value) == message
