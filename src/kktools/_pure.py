"""The mask kernels: shadow, shade, new shadow, new shade, prefix-shadow and
suffix-shade sizes, and the antichain pair scan.

Masks are plain ints with bit e-1 for element e, so ground sets of any size
work.  The new-shadow/new-shade kernels use closed forms: a k-set owns the
deletions of the elements of its initial run 1, 2, ... and the insertions of
the elements below its minimum.  The tests keep the literal ownership rule
(squashed-least extension, squashed-greatest deletion) as an oracle.
"""

from __future__ import annotations


def shadow_masks(masks) -> list[int]:
    """Sorted distinct masks obtained by dropping one element from a member."""
    out = set()
    for m in masks:
        x = m
        while x:
            low = x & -x
            out.add(m ^ low)
            x ^= low
    return sorted(out)


def shade_masks(masks, n: int) -> list[int]:
    """Sorted distinct masks obtained by adding one element within {1..n}."""
    out = set()
    full = (1 << n) - 1
    for m in masks:
        x = full & ~m
        while x:
            low = x & -x
            out.add(m | low)
            x ^= low
    return sorted(out)


def new_shadow_masks(masks, n: int) -> list[int]:
    """Shadow sets owned by a member: the deletions of one element of its
    initial run, the trailing ones (m ^ (m + 1)) >> 1.  Ownership classes of
    distinct sets never overlap."""
    out = []
    for m in masks:
        run = (m ^ (m + 1)) >> 1
        b = 1
        while b <= run:
            out.append(m ^ b)
            b <<= 1
    out.sort()
    return out


def new_shade_masks(masks, n: int) -> list[int]:
    """Shade sets owned by a member: the insertions of one element below its
    minimum, the bits of ((m & -m) - 1) & full; every singleton for m = 0."""
    out = []
    full = (1 << n) - 1
    for m in masks:
        below = ((m & -m) - 1) & full
        b = 1
        while b <= below:
            out.append(m | b)
            b <<= 1
    out.sort()
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


def scan_pairs(families, k: int, exact: bool, require_side: bool,
               i_start: int, i_end: int):
    """Maximize |A|+|B| over ordered pairs of families whose disjointness
    relation is a partial matching of size <= k (== k in exact mode).

    families: list of tuples of masks.  The outer index runs over
    [i_start, i_end) so callers can partition the scan.  In exact mode the
    side condition k <= min(|A|, |B|) applies; require_side imposes it in
    the at-most mode too.  Returns (best_total, [(i, j), ...]) with the
    pairs in row-major order, and -1 with an empty list when no pair
    qualifies.

    Branch and bound: both loops visit families by descending size, so once
    |A|+|B| falls below the best total found (or a family falls below the
    side condition), every later family of that loop fails as well.
    """
    side = exact or require_side
    order = sorted(range(len(families)), key=lambda j: -len(families[j]))
    largest = len(families[order[0]]) if order else 0
    best = -1
    hits: list[tuple[int, int]] = []
    for i in order:
        if not i_start <= i < i_end:
            continue
        fa = families[i]
        la = len(fa)
        if (side and k > la) or la + largest < best:
            break
        for j in order:
            fb = families[j]
            lb = len(fb)
            total = la + lb
            if total < best or (side and k > lb):
                break
            used = set()
            ok = True
            for a in fa:
                partners = [b for b in fb if not a & b]
                if not partners:
                    continue
                if len(partners) > 1 or partners[0] in used \
                        or len(used) == k:
                    ok = False
                    break
                used.add(partners[0])
            if not ok or (exact and len(used) != k):
                continue
            if total > best:
                best = total
                hits = []
            hits.append((i, j))
    hits.sort()
    return best, hits
