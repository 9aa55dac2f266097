"""The mask kernels of `kktools._pure`, the branch-and-bound pair scan and
the Gosper table walk against definition-level oracles.

Shadows and shades are sets of masks with one element deleted or added.  The
oracles below derive new shadows and new shades by the literal ownership
rule: a (k-1)-set belongs to the new shadow of the squashed-least k-set that
extends it, and a (k+1)-set to the new shade of the squashed-greatest k-set
it extends.  For sets of equal size squashed order is numeric order of
masks, so least and greatest are min and max.  The pair-scan oracle visits
every ordered pair in row-major order.  These tests never skip.
"""

import random
from itertools import accumulate, islice

import pytest

from kktools import (KappaTable, _pure, binom, enumerate_antichains, kappa,
                     level_masks, unrank)
from kktools.squashed import _squashed_walk


def oracle_shadow(masks) -> set[int]:
    return {m ^ (1 << b) for m in masks for b in range(m.bit_length())
            if m >> b & 1}


def oracle_shade(masks, n: int) -> set[int]:
    return {m | (1 << b) for m in masks for b in range(n) if not m >> b & 1}


def least_superset(sub: int, n: int) -> int:
    """The squashed-least one-element extension of sub inside {1..n}."""
    return min(sub | (1 << b) for b in range(n) if not sub >> b & 1)


def greatest_subset(sup: int) -> int:
    """The squashed-greatest one-element deletion of sup."""
    return max(sup ^ (1 << b) for b in range(sup.bit_length()) if sup >> b & 1)


def oracle_new_shadow(masks, n: int) -> list[int]:
    out = []
    for m in masks:
        for b in range(n):
            if m >> b & 1 and least_superset(m ^ (1 << b), n) == m:
                out.append(m ^ (1 << b))
    return sorted(out)


def oracle_new_shade(masks, n: int) -> list[int]:
    out = []
    for m in masks:
        for b in range(n):
            if not m >> b & 1 and greatest_subset(m | (1 << b)) == m:
                out.append(m | (1 << b))
    return sorted(out)


def oracle_scan_pairs(families, k, exact, require_side, i_start, i_end):
    """The row-major scan: rows i in [i_start, i_end), every column j, each
    pair tested unless its total is already below the best one found."""
    best = -1
    hits = []
    for i in range(i_start, i_end):
        fa = families[i]
        la = len(fa)
        for j, fb in enumerate(families):
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
            if not ok or (exact and count != k):
                continue
            if total > best:
                best = total
                hits = []
            hits.append((i, j))
    return best, hits


def _random_level_family(rng, n: int, k: int, size: int) -> list[int]:
    """Up to `size` distinct random k-subsets of {1..n}, as masks."""
    fam = set()
    for _ in range(size):
        fam.add(sum(1 << b for b in rng.sample(range(n), k)))
    return sorted(fam)


KERNELS = [pytest.param(_pure, id="pure")]


@pytest.mark.parametrize("kernels", KERNELS)
def test_closed_forms_match_ownership_rule_on_full_levels(kernels):
    for n in range(1, 8):
        for k in range(0, n + 1):
            level = level_masks(n, k)
            assert kernels.new_shadow_masks(level, n) == oracle_new_shadow(level, n)
            assert kernels.new_shade_masks(level, n) == oracle_new_shade(level, n)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 31, 32, 33, 63, 64, 65,
                               100, 127, 128, 129, 130])
def test_pure_closed_forms_match_ownership_rule_on_random_families(n):
    rng = random.Random(1000 + n)
    sizes = sorted({0, 1, n // 2, n - 1, n} & set(range(n + 1))
                   | {rng.randint(0, n) for _ in range(3)})
    for k in sizes:
        for _ in range(3):
            fam = _random_level_family(rng, n, k, rng.randint(0, 8))
            assert _pure.new_shadow_masks(fam, n) == oracle_new_shadow(fam, n)
            assert _pure.new_shade_masks(fam, n) == oracle_new_shade(fam, n)
            assert _pure.shadow_masks(fam) == sorted(oracle_shadow(fam))
            assert _pure.shade_masks(fam, n) == sorted(oracle_shade(fam, n))
            assert _pure.prefix_shadow_sizes(fam) == \
                [len(oracle_shadow(fam[:i])) for i in range(len(fam) + 1)]
            assert _pure.suffix_shade_sizes(fam, n) == \
                [len(oracle_shade(fam[len(fam) - i:], n))
                 for i in range(len(fam) + 1)]


@pytest.mark.parametrize("r", range(1, 9))
def test_squashed_walk_and_table_match_unrank_and_cascade(r):
    upper = binom(2 * r, r) + 50
    n = r
    while binom(n, r) < upper:
        n += 1
    walk = list(islice(_squashed_walk((1 << r) - 1), upper))
    assert walk == [unrank(m, n, r).mask for m in range(upper)]
    table = KappaTable.build(r, upper)
    want = [kappa(r, m) for m in range(upper + 1)]
    assert table.kappa == want
    assert table.kappa_star == list(accumulate(want, min))


# (exact, require_side): at most k, at most k with the side condition, exact
# (which implies the side condition, with or without the flag)
SCAN_MODES = [(False, False), (False, True), (True, False), (True, True)]


@pytest.mark.parametrize("kernels", KERNELS)
def test_pair_scan_matches_row_major_oracle_at_four(kernels):
    families = list(enumerate_antichains(4))
    nf = len(families)
    partitions = [(0, nf), (0, nf // 2), (nf // 2, nf), (0, 1), (37, 101),
                  (nf - 1, nf), (5, 5)]
    for k in range(8):
        for exact, side in SCAN_MODES:
            for lo, hi in partitions:
                want = oracle_scan_pairs(families, k, exact, side, lo, hi)
                got = kernels.scan_pairs(families, k, exact, side, lo, hi)
                assert (got[0], list(got[1])) == want, (k, exact, side, lo, hi)


@pytest.mark.parametrize("kernels", KERNELS)
def test_pair_scan_matches_oracle_on_random_antichain_lists(kernels):
    # unsorted lists with repeated sizes, always holding () and (0,)
    pool = list(enumerate_antichains(5))
    rng = random.Random(55)
    for _ in range(5):
        families = rng.sample(pool, rng.randint(10, 90)) + [(), (0,)]
        rng.shuffle(families)
        nf = len(families)
        cut = rng.randint(0, nf)
        for k in (0, 1, 2, rng.randint(3, 12)):
            for exact, side in SCAN_MODES:
                for lo, hi in ((0, nf), (0, cut), (cut, nf)):
                    want = oracle_scan_pairs(families, k, exact, side, lo, hi)
                    got = kernels.scan_pairs(families, k, exact, side, lo, hi)
                    assert (got[0], list(got[1])) == want, (k, exact, side, lo, hi)
