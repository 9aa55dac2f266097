"""The mask kernels: shadow, shade, new shadow, new shade, prefix-shadow and
suffix-shade sizes, the shadow size on membership bitsets, and the
antichain pair scan with its index.

Masks are plain ints with bit e-1 for element e, so ground sets of any size
work.  The four set kernels (shadow, shade, new shadow, new shade) return
their masks unordered; SetFamily.from_masks orders them (squashed._canonical).
The new-shadow/new-shade kernels use closed forms: a k-set owns the
deletions of the elements of its initial run 1, 2, ... and the insertions of
the elements below its minimum.  The tests keep the literal ownership rule
(squashed-least extension, squashed-greatest deletion) as an oracle.
"""

from __future__ import annotations


def shadow_masks(masks) -> set[int]:
    """The set of masks obtained by dropping one element from a member."""
    out = set()
    for m in masks:
        x = m
        while x:
            low = x & -x
            out.add(m ^ low)
            x ^= low
    return out


def shade_masks(masks, n: int) -> set[int]:
    """The set of masks obtained by adding one element within {1..n}."""
    out = set()
    full = (1 << n) - 1
    for m in masks:
        x = full & ~m
        while x:
            low = x & -x
            out.add(m | low)
            x ^= low
    return out


def new_shadow_masks(masks) -> list[int]:
    """Shadow sets owned by a member: the deletions of one element of its
    initial run, the trailing ones (m ^ (m + 1)) >> 1.  Ownership classes of
    distinct sets never overlap, so for distinct members the unordered result
    has no duplicates and is the concatenation of the per-member lists; the
    window sweep of verify_clements_minimality sums per-member lengths."""
    out = []
    for m in masks:
        run = (m ^ (m + 1)) >> 1
        b = 1
        while b <= run:
            out.append(m ^ b)
            b <<= 1
    return out


def new_shade_masks(masks, n: int) -> list[int]:
    """Shade sets owned by a member: the insertions of one element below its
    minimum, the bits of ((m & -m) - 1) & full; every singleton for m = 0.
    As for new_shadow_masks, distinct members give an unordered result with
    no duplicates that concatenates the per-member lists."""
    out = []
    full = (1 << n) - 1
    for m in masks:
        below = ((m & -m) - 1) & full
        b = 1
        while b <= below:
            out.append(m | b)
            b <<= 1
    return out


def prefix_shadow_sizes(masks) -> list[int]:
    """|shadow of the first m members| for m = 0..len(masks), by explicit
    union of enumerated deletions."""
    seen = set()
    sizes = [0]
    for m in masks:
        x = m
        while x:
            low = x & -x
            seen.add(m ^ low)
            x ^= low
        sizes.append(len(seen))
    return sizes


def suffix_shade_sizes(masks, n: int) -> list[int]:
    """|shade of the last m members| for m = 0..len(masks)."""
    seen = set()
    sizes = [0]
    full = (1 << n) - 1
    for m in reversed(masks):
        x = full & ~m
        while x:
            low = x & -x
            seen.add(m | low)
            x ^= low
        sizes.append(len(seen))
    return sizes


def _membership_columns(n: int) -> list[int]:
    """For each element bit e < n, the 2**n-bit int whose bit x is set iff
    mask x contains bit e.  Its bits run in blocks of 2**e zeros then 2**e
    ones, so it is the all-ones int divided by 2**(2**(e+1)) - 1 (one bit
    per period), times one block of ones."""
    ones = (1 << (1 << n)) - 1
    return [ones // ((1 << (2 << e)) - 1) * (((1 << (1 << e)) - 1) << (1 << e))
            for e in range(n)]


def _shadow_size(masks, columns) -> int:
    """|shadow of masks| on membership bitsets, for distinct masks on a
    ground set of len(columns) elements; columns is _membership_columns.

    The family is the int with bit x for each member x.  Its members holding
    bit e are family & columns[e], and deleting e moves bit x to bit
    x - 2**e, so the shadow is the OR over e of that AND shifted down by
    2**e.  Private because it returns an int: perfbench's tracer measures
    len() of a public kernel's result."""
    family = 0
    for m in masks:
        family |= 1 << m
    shadow = 0
    for e, column in enumerate(columns):
        shadow |= (family & column) >> (1 << e)
    return shadow.bit_count()


def pair_index(families):
    """The index scan_pairs reads, built once per list of families and
    shared by every scan of that list within the call that built it:
    (order, bit, member, once, twice).

    order lists the family positions by descending size.  Disjointness runs
    on subset-membership masks (Knuth, TAOCP 4A 7.1.3): each distinct mask x
    gets the bit bit[x], and a mask's row is the int of the bits of the
    masks disjoint from it.  For the family at position f, member[f] holds
    its members' bits, once[f] the bits of the masks disjoint from at least
    one member (the OR of the rows) and twice[f] those disjoint from at
    least two.  The masks are indexed by the distinct members, not by the
    subsets of the ground set.  All three are built for every family, so a
    single scan pays for families its bounds never reach.
    """
    bit = {x: 1 << j for j, x in enumerate(set().union(*families))}
    row = {a: sum(b for x, b in bit.items() if not a & x) for a in bit}
    member, once, twice = [], [], []
    for fam in families:
        in_f = one = two = 0
        for a in fam:
            r = row[a]
            two |= one & r
            one |= r
            in_f |= bit[a]
        member.append(in_f)
        once.append(one)
        twice.append(two)
    order = sorted(range(len(families)), key=lambda j: -len(families[j]))
    return order, bit, tuple(member), tuple(once), tuple(twice)


def scan_pairs(families, index, k: int, exact: bool, require_side: bool):
    """Maximize |A|+|B| over ordered pairs of families whose disjointness
    relation is a partial matching of size <= k (== k in exact mode).

    families: list of tuples of distinct masks; index: pair_index(families).
    In exact mode the side condition k <= min(|A|, |B|) applies;
    require_side imposes it in the at-most mode too.  Returns (best_total,
    [(i, j), ...]) with the pairs in row-major order, and -1 with an empty
    list when no pair qualifies.

    A pair is three bit operations on the index: the relation is a
    matching iff no member of B is disjoint from two members of A
    (member[j] & twice[i]) and no member of A from two members of B
    (member[i] & twice[j]); then its size is the number of members of B
    disjoint from some member of A, (member[j] & once[i]).bit_count().

    Branch and bound: both loops visit families by descending size, so once
    |A|+|B| falls below the best total found (or a family falls below the
    side condition), every later family of that loop fails as well.
    """
    side = exact or require_side
    order, _, member, once, twice = index
    largest = len(families[order[0]]) if order else 0
    best = -1
    hits: list[tuple[int, int]] = []
    for i in order:
        la = len(families[i])
        if (side and k > la) or la + largest < best:
            break
        in_a, once_a, twice_a = member[i], once[i], twice[i]
        for j in order:
            lb = len(families[j])
            total = la + lb
            if total < best or (side and k > lb):
                break
            in_b = member[j]
            if in_b & twice_a or in_a & twice[j]:
                continue
            count = (in_b & once_a).bit_count()
            if count > k or (exact and count != k):
                continue
            if total > best:
                best = total
                hits = []
            hits.append((i, j))
    hits.sort()
    return best, hits
