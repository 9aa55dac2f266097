"""Subsets of {1..n} in squashed (colexicographic) order.

Sets of equal size are compared by the largest element of their symmetric
difference: the set not containing it comes first.  Internally a subset is
also carried as a bitmask with bit e-1 standing for element e; for equal
sizes the squashed order coincides with numeric order of masks, which the
fast kernels rely on and the tests verify against this module's
definition-level comparator.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import reduce
from itertools import islice
from math import comb
from operator import lt, or_

from .binomials import _cascade_terms, _check_int, _check_type

# The one element type of a subset or mask list: int itself, so no bool.
_INT_ONLY = frozenset((int,))


def mask_of(elements) -> int:
    m = 0
    for e in elements:
        m |= 1 << (e - 1)
    return m


def elements_of(mask: int) -> tuple[int, ...]:
    _check_int("elements_of", "mask", mask, 0)
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


@dataclass(frozen=True)
class Subset:
    """A subset of {1, ..., ground_n}; elements are kept sorted ascending.

    The elements are type-tested as given, then sorted and deduplicated
    unless already strictly increasing; a tuple in canonical order (what
    elements_of gives) is kept as it is."""

    elements: tuple[int, ...]
    ground_n: int

    def __post_init__(self):
        try:
            elems = tuple(self.elements)
        except TypeError:  # not iterable
            elems = None
        if elems is None or not _INT_ONLY.issuperset(map(type, elems)):
            raise ValueError(f"Subset: elements must be integers, "
                             f"got {self.elements!r}")
        if not all(map(lt, elems, elems[1:])):
            elems = tuple(sorted(set(elems)))
        n = self.ground_n
        if type(n) is not int or n < 1:
            raise ValueError(f"ground set size must be a positive integer, got {n!r}")
        if elems and not (1 <= elems[0] and elems[-1] <= n):
            raise ValueError(f"elements {elems} out of range for ground set {{1..{n}}}")
        if elems is not self.elements:  # a list or an unsorted tuple
            object.__setattr__(self, "elements", elems)

    @classmethod
    def from_mask(cls, mask: int, ground_n: int) -> "Subset":
        return cls(elements_of(mask), ground_n)

    @property
    def mask(self) -> int:
        return mask_of(self.elements)

    @property
    def size(self) -> int:
        return len(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, e: int) -> bool:
        return e in self.elements

    def __str__(self) -> str:
        return format_subset(self)


def _check_family_ground(ground_n) -> None:
    if type(ground_n) is not int or ground_n < 1:
        raise ValueError(f"SetFamily: ground_n must be a positive integer, "
                         f"got {ground_n!r}")


def _canonical(distinct) -> tuple[int, ...]:
    """Distinct masks in canonical order: popcount ascending, then numeric
    (squashed) order; a stable sort by popcount of the numeric order."""
    out = sorted(distinct)
    out.sort(key=int.bit_count)
    return tuple(out)


@dataclass(frozen=True, init=False, repr=False)
class SetFamily:
    """A family of subsets of one ground set, deduplicated and in canonical
    order: sizes ascending, squashed order inside a size class.

    The family is the tuple of its member masks in that order; equality,
    hashing, length, sizes, `in` and str read the masks only.  Each read of
    .members (and each iteration) builds the Subsets afresh.
    """

    _masks: tuple[int, ...]
    ground_n: int

    def __init__(self, members, ground_n: int):
        _check_family_ground(ground_n)
        try:
            members = iter(members)
        except TypeError:
            raise ValueError(f"SetFamily: members must be an iterable of "
                             f"Subsets, got {members!r}") from None
        masks = set()
        for s in members:
            _check_type("SetFamily", "members", s, Subset)
            if s.ground_n != ground_n:
                raise ValueError(
                    f"member {s.elements} has ground set size {s.ground_n}, "
                    f"family has {ground_n}")
            masks.add(s.mask)
        object.__setattr__(self, "_masks", _canonical(masks))
        object.__setattr__(self, "ground_n", ground_n)

    @classmethod
    def of(cls, element_sets, ground_n: int) -> "SetFamily":
        return cls(tuple(Subset(tuple(es), ground_n) for es in element_sets), ground_n)

    @classmethod
    def from_masks(cls, masks, ground_n: int) -> "SetFamily":
        """The family of the given masks, in any order and with repeats;
        no Subset is built.  Valid masks are checked in one pass: ints all
        lie in [0, 2**ground_n) iff their OR shifted down by ground_n is 0,
        as a negative OR stays negative.  On a bad mask the masks are
        replayed one by one for the first one's own error."""
        try:
            masks = tuple(masks)
        except TypeError:
            raise ValueError(f"SetFamily.from_masks: masks must be an iterable "
                             f"of integers, got {masks!r}") from None
        if not (_INT_ONLY.issuperset(map(type, masks)) and type(ground_n) is int
                and ground_n >= 1 and not reduce(or_, masks, 0) >> ground_n):
            # the error the first bad member gives as a Subset; with no
            # members, the family's own ground-size error
            for m in masks:
                if type(m) is not int:
                    raise ValueError(f"SetFamily: masks must be integers, got {m!r}")
                Subset.from_mask(m, ground_n)
            _check_family_ground(ground_n)
        fam = cls.__new__(cls)
        object.__setattr__(fam, "_masks", _canonical(set(masks)))
        object.__setattr__(fam, "ground_n", ground_n)
        return fam

    @property
    def members(self) -> tuple[Subset, ...]:
        """The members as Subsets, in canonical order."""
        n = self.ground_n
        return tuple(Subset.from_mask(m, n) for m in self._masks)

    def masks(self) -> list[int]:
        return list(self._masks)

    def sizes(self) -> set[int]:
        return set(map(int.bit_count, self._masks))

    @property
    def is_uniform(self) -> bool:
        masks = self._masks
        return not masks or masks[0].bit_count() == masks[-1].bit_count()

    def uniform_size(self) -> int:
        sizes = self.sizes()
        if len(sizes) != 1:
            raise ValueError(f"family is not uniform (sizes {sorted(sizes)})")
        return sizes.pop()

    def __len__(self) -> int:
        return len(self._masks)

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, s: Subset) -> bool:
        return type(s) is Subset and s.ground_n == self.ground_n \
            and s.mask in self._masks

    def __str__(self) -> str:
        return "{" + ", ".join(_masks_text(self._masks, self.ground_n)) + "}"

    def __repr__(self) -> str:
        return f"SetFamily(members={self.members!r}, ground_n={self.ground_n!r})"


def format_subset(s: Subset) -> str:
    """Text form: digit string for ground sets up to 9, braces with commas
    beyond; the empty set prints as {} in both regimes."""
    _check_type("format_subset", "s", s, Subset)
    return _format_elements(s.elements, s.ground_n)


def _format_elements(elements: tuple[int, ...], ground_n: int) -> str:
    """format_subset's text of the subset with these sorted elements."""
    if not elements:
        return "{}"
    if ground_n <= 9:
        return "".join(str(e) for e in elements)
    return "{" + ",".join(str(e) for e in elements) + "}"


def _masks_text(masks, ground_n: int) -> list[str]:
    """format_subset's text of each mask, with no Subset built."""
    return [_format_elements(elements_of(m), ground_n) for m in masks]


def parse_elements(text: str) -> tuple[int, ...]:
    """The elements written in either subset text form (digit string or
    braces-with-commas), unchecked against any ground set.  parse_subset's
    parser, whose errors it names."""
    t = text.strip()
    if t.startswith("{"):
        if not t.endswith("}"):
            raise ValueError(f"parse_subset: unbalanced braces in subset text {text!r}")
        t = t[1:-1].strip()
        if not t:
            return ()
        parts = t.split(",")
    elif not t:
        return ()
    elif "," in t or " " in t:
        parts = t.replace(",", " ").split()
    elif t.isdigit():
        parts = list(t)
    else:
        raise ValueError(f"parse_subset: cannot parse subset text {text!r}")
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise ValueError(f"parse_subset: cannot parse subset text {text!r}") from None


def parse_subset(text: str, ground_n: int) -> Subset:
    """Parse either text form (digit string or braces-with-commas)."""
    _check_type("parse_subset", "text", text, str)
    return Subset(parse_elements(text), ground_n)


def compare_squashed(a: Subset, b: Subset) -> int:
    """-1, 0, or 1 as a precedes, equals, or follows b in squashed order.

    Only sets of equal size are comparable.
    """
    _check_type("compare_squashed", "a", a, Subset)
    _check_type("compare_squashed", "b", b, Subset)
    if a.size != b.size:
        raise ValueError(
            f"compare_squashed: squashed order compares sets of equal size, "
            f"got {a.size} and {b.size}")
    if a.elements == b.elements:
        return 0
    diff = set(a.elements) ^ set(b.elements)
    return -1 if max(diff) in b.elements else 1


def rank(s: Subset) -> int:
    """0-based position of s among all size-|s| sets in squashed order.

    rank {s_1 < ... < s_k} = sum of C(s_i - 1, i); independent of the
    ground set.  The empty set has rank 0.
    """
    _check_type("rank", "s", s, Subset)
    return sum(comb(e - 1, i) for i, e in enumerate(s.elements, start=1))


def _check_level(op: str, n: int, k: int, least_n: int = 1) -> None:
    _check_int(op, "n", n, least_n)
    _check_int(op, "k", k, 0, n)


def unrank(m: int, n: int, k: int) -> Subset:
    """The rank-m k-subset of {1..n} in squashed order (0-based rank).

    rank {s_1 < ... < s_k} = sum of C(s_i - 1, i) is a cascade of m once the
    initial run s_i = i (terms C(i - 1, i) = 0) is dropped: the set is
    {1..t-1} together with a_i + 1 for the terms C(a_i, i), i = k down to t,
    of the cascade of m at level k.
    """
    _check_level("unrank", n, k)
    _check_int("unrank", "m", m, 0, comb(n, k) - 1)
    terms = _cascade_terms(m, k)
    run = range(1, k - len(terms) + 1)
    return Subset((*run, *(a + 1 for a, _ in reversed(terms))), n)


def _squashed_walk(first: int):
    """The masks of first's size in squashed order from first on, without
    end: each step goes to the next mask of the same popcount in numeric
    order (Gosper's hack, HAKMEM item 175).  The empty set's level has one
    member, so a walk from 0 must not be advanced past it."""
    m = first
    while True:
        yield m
        low = m & -m
        ripple = m + low
        m = ripple | (((m ^ ripple) >> 2) // low)


def first_segment(n: int, k: int, m: int) -> SetFamily:
    """The first m k-subsets of {1..n} in squashed order."""
    _check_level("first_segment", n, k)
    # segment_after's islice takes no count past sys.maxsize: refuse it by name
    _check_int("first_segment", "m", m, 0, min(comb(n, k), sys.maxsize))
    return segment_after(n, k, 0, m)


def segment_after(n: int, k: int, r: int, m: int) -> SetFamily:
    """m consecutive k-subsets starting at rank r in squashed order."""
    _check_level("segment_after", n, k)
    _check_int("segment_after", "r", r, 0)
    _check_int("segment_after", "m", m, 0, sys.maxsize)
    total = comb(n, k)
    if r + m > total:
        raise ValueError(f"segment_after: need r + m <= {total}, got r={r}, m={m}")
    if m == 0:
        return SetFamily((), n)
    walk = _squashed_walk(unrank(r, n, k).mask)
    return SetFamily.from_masks(islice(walk, m), n)


def last_segment(n: int, k: int, m: int) -> SetFamily:
    """The last m k-subsets of {1..n} in squashed order."""
    _check_level("last_segment", n, k)
    total = comb(n, k)
    _check_int("last_segment", "m", m, 0, min(total, sys.maxsize))
    return segment_after(n, k, total - m, m)


def level_masks(n: int, k: int) -> list[int]:
    """All k-subsets of {1..n} as bitmasks, ascending (= squashed order)."""
    _check_level("level_masks", n, k, 0)
    size = comb(n, k)
    if size > sys.maxsize:  # islice's limit, far past any list
        raise ValueError(f"level_masks: need C(n, k) <= sys.maxsize, "
                         f"got C({n}, {k}) = {size}")
    return list(islice(_squashed_walk((1 << k) - 1), size))
