"""Pure-Python mask kernels.

The compiled module `_speedups` mirrors every signature here; `_backend`
picks one at import time.  Masks are plain ints with bit e-1 for element e.
The new-shadow/new-shade kernels use the same closed forms as the compiled
ones: a k-set owns the deletions of the elements of its initial run 1, 2, ...
and the insertions of the elements below its minimum.  The tests keep the
literal ownership rule (squashed-least extension, squashed-greatest deletion)
as an oracle against both.
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
    the at-most mode too.  Returns (best_total, [(i, j), ...]) with -1 and
    an empty list when no pair qualifies.
    """
    best = -1
    hits: list[tuple[int, int]] = []
    nf = len(families)
    for i in range(i_start, i_end):
        fa = families[i]
        la = len(fa)
        for j in range(nf):
            fb = families[j]
            lb = len(fb)
            if (exact or require_side) and (k > la or k > lb):
                continue
            total = la + lb
            if total < best:
                continue
            used = [False] * lb
            count = 0
            ok = True
            for a in fa:
                partner = -1
                for bi in range(lb):
                    if a & fb[bi] == 0:
                        if partner >= 0:
                            ok = False
                            break
                        partner = bi
                if not ok:
                    break
                if partner >= 0:
                    if used[partner]:
                        ok = False
                        break
                    used[partner] = True
                    count += 1
                    if count > k:
                        ok = False
                        break
            if not ok:
                continue
            if exact and count != k:
                continue
            if total > best:
                best = total
                hits = []
            hits.append((i, j))
    return best, hits
