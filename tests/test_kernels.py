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

from kktools import (KappaTable, SetFamily, _pure, binom, construct_extremal,
                     enumerate_antichains, is_antichain, kappa, level_masks,
                     new_shade, new_shadow, shade, shadow, sperner_down,
                     sperner_up, unrank, verify_clements_minimality,
                     verify_extremal_constructions, verify_thm26_structure)
from kktools.antichains import _PAIRS_PER_KERNEL_CALL
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


def oracle_scan_pairs(families, k, exact, require_side):
    """The row-major scan: every row i, every column j, each pair tested
    unless its total is already below the best one found."""
    best = -1
    hits = []
    for i, fa in enumerate(families):
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
            assert sorted(kernels.new_shadow_masks(level)) == oracle_new_shadow(level, n)
            assert sorted(kernels.new_shade_masks(level, n)) == oracle_new_shade(level, n)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 31, 32, 33, 63, 64, 65,
                               100, 127, 128, 129, 130])
def test_pure_closed_forms_match_ownership_rule_on_random_families(n):
    rng = random.Random(1000 + n)
    sizes = sorted({0, 1, n // 2, n - 1, n} & set(range(n + 1))
                   | {rng.randint(0, n) for _ in range(3)})
    for k in sizes:
        for _ in range(3):
            fam = _random_level_family(rng, n, k, rng.randint(0, 8))
            assert sorted(_pure.new_shadow_masks(fam)) == oracle_new_shadow(fam, n)
            assert sorted(_pure.new_shade_masks(fam, n)) == oracle_new_shade(fam, n)
            assert sorted(_pure.shadow_masks(fam)) == sorted(oracle_shadow(fam))
            assert sorted(_pure.shade_masks(fam, n)) == sorted(oracle_shade(fam, n))
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
    for k in range(8):
        for exact, side in SCAN_MODES:
            want = oracle_scan_pairs(families, k, exact, side)
            got = kernels.scan_pairs(families, kernels.pair_index(families),
                                     k, exact, side)
            assert (got[0], list(got[1])) == want, (k, exact, side)


@pytest.mark.parametrize("kernels", KERNELS)
def test_pair_scan_matches_oracle_on_random_antichain_lists(kernels):
    # unsorted lists with repeated sizes, always holding () and (0,)
    pool = list(enumerate_antichains(5))
    rng = random.Random(55)
    for _ in range(5):
        families = rng.sample(pool, rng.randint(10, 90)) + [(), (0,)]
        rng.shuffle(families)
        cut = rng.randint(0, len(families))
        for k in (0, 1, 2, rng.randint(3, 12)):
            for exact, side in SCAN_MODES:
                for part in (families, families[:cut], families[cut:]):
                    want = oracle_scan_pairs(part, k, exact, side)
                    got = kernels.scan_pairs(part, kernels.pair_index(part),
                                             k, exact, side)
                    assert (got[0], list(got[1])) == want, (k, exact, side, cut)


@pytest.mark.parametrize("n", [8, 71])
def test_pair_scan_matches_oracle_on_masks_reaching_a_high_bit(n):
    # the masks reach bit n - 1 (bit 7, bit 70); drawn from a small pool over
    # six elements, so families share members and pairs are often disjoint
    rng = random.Random(80 + n)
    elements = [0] + list(range(n - 5, n))
    pool = sorted({sum(1 << e for e in rng.sample(elements, rng.randint(1, 3)))
                   for _ in range(30)})
    assert max(pool).bit_length() == n
    bests = set()
    for _ in range(6):
        families = [tuple(rng.sample(pool, rng.randint(0, 6)))
                    for _ in range(rng.randint(5, 40))]
        for k in (0, 1, 2, 3, rng.randint(4, 6)):
            for exact, side in SCAN_MODES:
                want = oracle_scan_pairs(families, k, exact, side)
                got = _pure.scan_pairs(families, _pure.pair_index(families),
                                       k, exact, side)
                assert (got[0], list(got[1])) == want, (k, exact, side)
                bests.add((exact, k, want[0]))
    # exact scans both find and miss pairs with k disjoint pairs
    assert {best > 0 for exact, k, best in bests if exact and k} == {True, False}


# Each case has one pair that only one of the scan's three bit tests
# rejects, and its total ties the best accepted total, so a scan without
# that test reports it.  A = {12, 13} and B = {4, 23} on {1..4}: 4 is
# disjoint from both members of A, and no other member of B misses one.
FAM_A, FAM_B = (0b0011, 0b0101), (0b1000, 0b0110)
ONE_TEST_REJECTS = [
    pytest.param([FAM_A, FAM_B], 5, False, (0, 1), id="member-of-B-twice-in-A"),
    pytest.param([FAM_A, FAM_B], 5, False, (1, 0), id="member-of-A-twice-in-B"),
    pytest.param([(0b01,), (0b10,)], 0, False, (0, 1), id="count-over-k"),
    pytest.param([(0b01,), (0b10,)], 1, True, (0, 0), id="count-not-k"),
]


@pytest.mark.parametrize("families, k, exact, rejected", ONE_TEST_REJECTS)
def test_pair_scan_rejects_a_pair_failing_one_bit_test(families, k, exact,
                                                       rejected):
    want = oracle_scan_pairs(families, k, exact, False)
    got = _pure.scan_pairs(families, _pure.pair_index(families), k, exact,
                           False)
    assert (got[0], list(got[1])) == want
    i, j = rejected
    assert rejected not in got[1]
    assert len(families[i]) + len(families[j]) == got[0]


@pytest.mark.parametrize("n", range(1, 13))
def test_bitset_shadow_size_matches_the_listed_shadow(n):
    # the count on membership bitsets against len(shadow_masks) and the
    # deletion oracle: the empty family, {∅}, every full level (k = 0..n),
    # random subfamilies of each level and random mixed-size families
    columns = _pure._membership_columns(n)
    assert columns == [sum(1 << x for x in range(1 << n) if x >> e & 1)
                       for e in range(n)]
    rng = random.Random(1200 + n)
    cases = [[], [0]]
    for k in range(n + 1):
        level = level_masks(n, k)
        cases += [level] + [rng.sample(level, rng.randint(0, len(level)))
                            for _ in range(3)]
    cases += [rng.sample(range(1 << n), rng.randint(1, min(1 << n, 60)))
              for _ in range(4)]
    for fam in cases:
        want = len(_pure.shadow_masks(fam))
        assert _pure._shadow_size(fam, columns) == want == len(oracle_shadow(fam))


def _scans_match_fresh_index(families, ks):
    """Every scan of families through one shared pair_index gives the
    (best, hits) of a scan through an index built for it alone, and no scan
    changes the shared index."""
    shared = _pure.pair_index(families)
    before = repr(shared)
    for k in ks:
        for exact, side in SCAN_MODES:
            fresh = _pure.pair_index(families)
            got = _pure.scan_pairs(families, shared, k, exact, side)
            assert got == _pure.scan_pairs(families, fresh, k, exact, side), \
                (k, exact, side)
    assert repr(shared) == before


def test_pair_scan_through_a_shared_index_matches_a_fresh_index():
    families = enumerate_antichains(4)
    _scans_match_fresh_index(families, range(binom(4, 2) + 1))
    pool = list(enumerate_antichains(5))
    rng = random.Random(56)
    for _ in range(4):
        part = rng.sample(pool, rng.randint(10, 120))
        _scans_match_fresh_index(part, (0, 1, 2, 3, rng.randint(4, 10)))


class _DescendingSet(set):
    """A set of masks that iterates in descending order."""

    def __iter__(self):
        return iter(sorted(set.__iter__(self), reverse=True))


def _report_json(rep) -> dict:
    payload = rep.to_json()
    payload.pop("elapsed_ms")
    return payload


def _nesting_cases(rng, n: int, size: int, counts):
    """is_antichain families of two adjacent levels, size and size + 1 on
    {1..n}, with more than _PAIRS_PER_KERNEL_CALL pairs: for each (lower
    count, upper count), one antichain and the same family with one lower
    set moved under an upper one."""
    out = []
    for n_low, n_up in counts:
        assert n_low * n_up > _PAIRS_PER_KERNEL_CALL
        upper = set()
        while len(upper) < n_up:
            upper.add(sum(1 << b for b in rng.sample(range(n), size + 1)))
        under = {u ^ (u & -u) for u in upper}  # one set under each upper set
        lower = set()
        while len(lower) < n_low:
            x = sum(1 << b for b in rng.sample(range(n), size))
            if not any(x & u == x for u in upper):
                lower.add(x)
        nested = sorted(lower)[1:] + [min(under)]
        out += [SetFamily.from_masks([*lower, *upper], n),
                SetFamily.from_masks([*nested, *upper], n)]
    return out


def _kernel_order_calls():
    """(label, call) for every library call the order test compares."""
    rng = random.Random(3400)
    calls = []
    for n in (1, 2, 5, 12, 63, 64, 65, 70):
        for k in sorted({0, 1, n // 2, n - 1, n}):
            fam = SetFamily.from_masks(
                _random_level_family(rng, n, k, rng.randint(1, 40)), n)
            for op in (shadow, shade, new_shadow, new_shade):
                if (op in (shadow, new_shadow) and k == 0) \
                        or (op in (shade, new_shade) and k == n):
                    continue
                calls.append((f"{op.__name__} n={n} k={k}",
                              lambda op=op, fam=fam: op(fam).masks()))
    antichains = [a for a in rng.sample(enumerate_antichains(5), 150)
                  if a not in ((), (0,), (31,))]
    for a in antichains:
        fam = SetFamily.from_masks(a, 5)
        calls += [(f"sperner_down {a}", lambda fam=fam: sperner_down(fam).masks()),
                  (f"sperner_up {a}", lambda fam=fam: sperner_up(fam).masks())]
    nesting = _nesting_cases(rng, 10, 4, ((10, 20), (20, 10))) \
        + _nesting_cases(rng, 65, 3, ((5, 80), (20, 20)))
    calls += [(f"is_antichain {i}", lambda fam=fam: is_antichain(fam))
              for i, fam in enumerate(nesting)]
    calls += [("thm26", lambda: _report_json(verify_thm26_structure(4))),
              ("clements", lambda: _report_json(verify_clements_minimality(6))),
              ("extremal", lambda: _report_json(verify_extremal_constructions(8)))]
    calls += [(f"construct_extremal k={k}",
               lambda k=k: construct_extremal(8, k).to_json())
              for k in (0, 5, 23, 48, 70)]
    return calls


def test_no_library_caller_reads_the_order_of_kernel_output(monkeypatch):
    # the set kernels promise no order: with each one handing back its real
    # result in descending order (a list stays a list, a set iterates
    # descending), every caller must give what it gives unpatched
    calls = _kernel_order_calls()
    want = [call() for _, call in calls]
    assert {got for (label, _), got in zip(calls, want)
            if label.startswith("is_antichain")} == {True, False}
    ran, routes = [], set()
    for name in ("shadow_masks", "shade_masks", "new_shadow_masks",
                 "new_shade_masks"):
        real = getattr(_pure, name)

        def descending(*args, real=real, name=name):
            ran.append(name)
            out = real(*args)
            if isinstance(out, set):
                return _DescendingSet(out)
            return sorted(out, reverse=True)
        monkeypatch.setattr(_pure, name, descending)
    for (label, call), expected in zip(calls, want):
        ran.clear()
        assert call() == expected, label
        if label.startswith("is_antichain"):
            routes.update(ran)
    # is_antichain took both kernel routes
    assert routes == {"shadow_masks", "shade_masks"}
