"""The closed-form kernels and the Gosper table walk against definition-level
oracles.

The oracles below derive new shadows and new shades by the literal ownership
rule: a (k-1)-set belongs to the new shadow of the squashed-least k-set that
extends it, and a (k+1)-set to the new shade of the squashed-greatest k-set
it extends.  For sets of equal size squashed order is numeric order of
masks, so least and greatest are min and max.  These tests never skip.
"""

import random
from itertools import accumulate, islice

import pytest

from kktools import KappaTable, _backend, _pure, binom, kappa, level_masks, unrank
from kktools.kappa import _squashed_walk


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


def _random_level_family(rng, n: int, k: int, size: int) -> list[int]:
    """Up to `size` distinct random k-subsets of {1..n}, as masks."""
    fam = set()
    for _ in range(size):
        fam.add(sum(1 << b for b in rng.sample(range(n), k)))
    return sorted(fam)


KERNELS = [pytest.param(_pure, id="pure"), pytest.param(_backend, id="active")]


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


@pytest.mark.parametrize("r", range(1, 9))
def test_squashed_walk_and_table_match_unrank_and_cascade(r):
    upper = binom(2 * r, r) + 50
    n = r
    while binom(n, r) < upper:
        n += 1
    walk = list(islice(_squashed_walk(r), upper))
    assert walk == [unrank(m, n, r).mask for m in range(upper)]
    table = KappaTable.build(r, upper)
    want = [kappa(r, m) for m in range(upper + 1)]
    assert table.kappa == want
    assert table.kappa_star == list(accumulate(want, min))
