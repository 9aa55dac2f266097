"""Antichain operations, pair matching, extremal constructions, brute force."""

import random

import pytest

from kktools import (
    KappaTable,
    SetFamily,
    Subset,
    _pure,
    antichains,
    binom,
    brute_force_max,
    construct_extremal,
    disjoint_pairs,
    enumerate_antichains,
    format_subset,
    injective_replace_up,
    is_antichain,
    kappa,
    kappa_star,
    last_segment,
    level_masks,
    negativity_threshold,
    replace_up_map,
    sperner_down,
    sperner_max_check,
    sperner_up,
    theorem25_bound,
    verify_extremal_constructions,
    verify_thm25_brute,
    verify_thm26_structure,
)

DEDEKIND = {1: 3, 2: 6, 3: 20, 4: 168, 5: 7581}
MAX_TOTALS_N4 = [10, 10, 10, 10, 10, 11, 12]


def test_is_antichain():
    assert is_antichain(SetFamily.of([(1, 2), (2, 3), (1, 3)], 4))
    assert is_antichain(SetFamily.of([], 4))
    assert is_antichain(SetFamily.of([()], 4))
    assert not is_antichain(SetFamily.of([(1,), (1, 2)], 4))
    assert not is_antichain(SetFamily.of([(), (3,)], 4))


def test_is_antichain_matches_all_pairs_definition():
    # enumerated antichains span several levels; one more set may nest
    # into any of them
    rng = random.Random(26)
    pool = enumerate_antichains(5)
    outcomes = set()
    for _ in range(400):
        masks = set(rng.choice(pool)) | {rng.getrandbits(5)}
        want = not any(a != b and a & b == a for a in masks for b in masks)
        assert is_antichain(SetFamily.from_masks(masks, 5)) == want
        shuffled = list(masks)
        rng.shuffle(shuffled)
        assert antichains._is_antichain_masks(shuffled) == want
        outcomes.add(want)
    assert outcomes == {True, False}


def test_sperner_down_drops_top_level():
    fam = SetFamily.of([(1, 4), (1, 2, 3)], 4)
    out = sperner_down(fam)
    assert is_antichain(out)
    assert max(out.sizes()) == 2
    assert sorted(format_subset(s) for s in out) == ["12", "13", "14", "23"]


def test_sperner_up_raises_bottom_level():
    fam = SetFamily.of([(4,), (1, 2)], 4)
    out = sperner_up(fam)
    assert is_antichain(out)
    assert min(out.sizes()) == 2
    assert sorted(format_subset(s) for s in out) == ["12", "14", "24", "34"]


def test_sperner_ops_reject_extremes_and_chains():
    with pytest.raises(ValueError):
        sperner_down(SetFamily.of([()], 4))
    with pytest.raises(ValueError):
        sperner_up(SetFamily.of([(1, 2, 3, 4)], 4))
    with pytest.raises(ValueError):
        sperner_down(SetFamily.of([(1,), (1, 2)], 4))
    with pytest.raises(ValueError):
        sperner_down(SetFamily.of([], 4))


def test_sperner_ops_never_shrink_when_profitable():
    # replacing a top level above the middle, or a bottom level below it,
    # cannot decrease the family size
    n = 5
    for masks in enumerate_antichains(n):
        if not masks or masks == (0,) or masks == ((1 << n) - 1,):
            continue
        fam = SetFamily.from_masks(masks, n)
        sizes = fam.sizes()
        if max(sizes) > (n + 1) // 2:
            down = sperner_down(fam)
            assert is_antichain(down)
            assert len(down) >= len(fam)
            assert max(down.sizes()) == max(sizes) - 1
        if min(sizes) < n // 2:
            up = sperner_up(fam)
            assert is_antichain(up)
            assert len(up) >= len(fam)
            assert min(up.sizes()) == min(sizes) + 1


def test_replace_up_map_is_injective_and_lexicographic_least():
    fam = SetFamily.of([(1,), (2,)], 4)
    assert replace_up_map(fam, 1) == {0b0001: 0b0011, 0b0010: 0b0110}


def test_injective_replace_up_no_op_at_or_above_middle():
    fam = SetFamily.of([(1, 2), (1, 3)], 4)
    assert injective_replace_up(fam, 2).masks() == fam.masks()


def test_injective_replace_up_grows_small_sets():
    fam = SetFamily.of([(1,), (2,), (3,)], 6)
    out = injective_replace_up(fam, 1)
    assert len(out) == 3
    assert out.sizes() == {2}
    # distinct supersets, each containing its source
    for small, big in replace_up_map(fam, 1).items():
        assert small & big == small


def test_disjoint_pairs_matching():
    a = SetFamily.of([(1, 2), (3, 4)], 4)
    b = SetFamily.of([(3, 4), (1, 2)], 4)
    rep = disjoint_pairs(a, b)
    assert rep.pair_count == 2
    assert rep.is_matching
    j = rep.to_json()
    assert j["pair_count"] == 2 and j["is_matching"] is True


def test_disjoint_pairs_non_matching():
    # one left set disjoint from two right sets breaks the matching shape
    a = SetFamily.of([(1, 2)], 6)
    b = SetFamily.of([(3, 4), (5, 6)], 6)
    rep = disjoint_pairs(a, b)
    assert rep.pair_count == 2
    assert not rep.is_matching


def test_bound_table_for_four():
    assert [theorem25_bound(4, k) for k in range(7)] == MAX_TOTALS_N4


def test_bound_formula_general():
    for n in (4, 6, 8):
        r = n // 2
        for k in range(binom(n, r) + 1):
            expected = binom(n, r) + binom(n, r + 1) - kappa_star(r, k)
            assert theorem25_bound(n, k) == expected


def test_construct_extremal_cases():
    # below the negativity threshold the two middle levels already meet it
    c = construct_extremal(4, 2)
    assert c.case == "i" and c.chosen_m is None
    assert c.total == theorem25_bound(4, 2) == 10
    assert disjoint_pairs(c.family_a, c.family_b).pair_count == 0
    # at and past the threshold a tail of the lower middle level is kept
    c = construct_extremal(4, 5)
    assert c.case == "ii" and c.chosen_m == 5
    assert c.total == theorem25_bound(4, 5) == 11
    j = c.to_json()
    assert j["total"] == j["bound"] == 11 and j["case"] == "ii"
    assert j["pair_count"] == 5 and j["is_matching"] is True


def test_construct_extremal_validates_everywhere_small():
    for n in (4, 6):
        p = negativity_threshold(n // 2)
        for k in range(binom(n, n // 2) + 1):
            c = construct_extremal(n, k)
            assert c.case == ("i" if k < p else "ii")
            assert c.total == theorem25_bound(n, k)
            assert is_antichain(c.family_a) and is_antichain(c.family_b)
            pairs = disjoint_pairs(c.family_a, c.family_b)
            assert pairs.pair_count <= k
            assert pairs.is_matching
    rep = verify_extremal_constructions(8)
    assert rep.passed, rep.violations[:3]


def oracle_enumerate_antichains(n):
    """Recursive DFS over subset indices with a banned bitset: every
    antichain of subsets of {1..n} as a tuple of masks, in the library's
    enumeration order."""
    order = sorted(range(1 << n), key=lambda m: (bin(m).count("1"), m))
    count = 1 << n
    comparable = [0] * count
    for i in range(count):
        a = order[i]
        for j in range(count):
            b = order[j]
            if i != j and (a & b == a or a & b == b):
                comparable[i] |= 1 << j
    out = []
    chosen = []

    def visit(start, banned):
        out.append(tuple(order[i] for i in chosen))
        for i in range(start, count):
            if not (banned >> i) & 1:
                chosen.append(i)
                visit(i + 1, banned | comparable[i])
                chosen.pop()

    visit(0, 0)
    return tuple(out)


@pytest.mark.parametrize("n", range(1, 6))
def test_enumeration_matches_recursive_oracle(n):
    assert enumerate_antichains(n) == oracle_enumerate_antichains(n)


def test_enumeration_rejects_n_outside_one_to_five():
    for n in (0, 6):
        with pytest.raises(ValueError):
            enumerate_antichains(n)


def test_enumerate_antichain_counts():
    for n, count in DEDEKIND.items():
        assert len(enumerate_antichains(n)) == count


def test_enumerated_families_are_antichains_and_distinct():
    seen = set(enumerate_antichains(3))
    assert len(seen) == 20
    for masks in seen:
        assert is_antichain(SetFamily.from_masks(masks, 3))


def test_brute_force_totals_at_four():
    got = [brute_force_max(4, k)[0] for k in range(7)]
    assert got == MAX_TOTALS_N4


def test_brute_force_witnesses_at_four():
    best, witnesses = brute_force_max(4, 6)
    assert best == 12
    assert len(witnesses) == 1
    a, b = witnesses[0]
    assert len(a) == len(b) == 6
    best0, wits0 = brute_force_max(4, 0)
    assert best0 == 10 and len(wits0) == 2


def test_brute_force_bound_agreement():
    rep = verify_thm25_brute(4)
    assert rep.passed, rep.violations[:3]
    per_k = {w["k"]: w for w in rep.witnesses}
    assert [per_k[k]["max_total"] for k in range(7)] == MAX_TOTALS_N4
    assert [per_k[k]["max_total_side_condition"] for k in range(7)] == MAX_TOTALS_N4
    assert per_k[6]["maximizer_count"] == 1
    assert per_k[0]["maximizer_count"] == 2


def test_structure_of_maximizers():
    rep = verify_thm26_structure(4)
    assert rep.passed, rep.violations[:3]


def test_structure_sweep_rejects_k_outside_the_half_level():
    for k in (-1, 7):
        with pytest.raises(ValueError, match="0 <= k <= 6"):
            verify_thm26_structure(4, k)
    assert verify_thm26_structure(4, 6).passed


def canonical(masks):
    return tuple(sorted(set(masks), key=lambda m: (m.bit_count(), m)))


def oracle_thm25_report(n, exact=False):
    """verify_thm25_brute's checks on the public SetFamily witnesses:
    (checks_run, violations, witnesses)."""
    checks, violations, witnesses = 0, [], []
    for k in range(binom(n, n // 2) + 1):
        bound = theorem25_bound(n, k)
        best, wits = brute_force_max(n, k, exact)
        best_side, _ = brute_force_max(n, k, exact, require_side=True)
        checks += 1
        failed = best > bound if exact else best != bound or best_side > bound
        if failed:
            violations.append({"k": k, "bound": bound, "max_total": best,
                               "max_total_side_condition": best_side})
        witnesses.append({
            "k": k, "bound": bound, "max_total": best,
            "max_total_side_condition": best_side,
            "maximizer_count": len(wits),
            "maximizers": [antichains._witness_json(a, b) for a, b in wits[:8]],
        })
    return checks, violations, witnesses


def oracle_thm26_report(n):
    """verify_thm26_structure's checks on the public SetFamily witnesses:
    (checks_run, violations)."""
    r = n // 2
    upper_level = set(level_masks(n, r + 1))
    checks, violations = 0, []
    for k in range(binom(n, r) + 1):
        for a_fam, b_fam in brute_force_max(n, k)[1]:
            for side, fam in (("A", a_fam), ("B", b_fam)):
                checks += 1
                record = {"k": k, "side": side,
                          "family": [format_subset(s) for s in fam]}
                if not fam.sizes() <= {r, r + 1}:
                    violations.append({**record, "part": "levels"})
                    continue
                half = [s.mask for s in fam if s.size == r]
                rest = {s.mask for s in fam if s.size == r + 1}
                shade_of_half = set(_pure.shade_masks(half, n))
                if rest != upper_level - shade_of_half:
                    violations.append({**record, "part": "upper-complement"})
                segment = last_segment(n, r, len(half)).masks()
                if len(shade_of_half) != len(set(_pure.shade_masks(segment, n))):
                    violations.append({**record, "part": "minimal-shade"})
    return checks, violations


def faulty_witness(fault, n, a, b):
    """One maximizer made wrong: a set off the middle levels added to A, an
    upper member dropped from B, or B's half part moved off the last
    segment with the upper part kept as the upper level minus its shade."""
    r = n // 2
    if fault == "non-middle witness":
        return canonical(a + (1,)), b
    if fault == "wrong upper part":
        upper = [m for m in b if m.bit_count() == r + 1]
        return a, canonical([m for m in b if m != upper[-1]]) if upper else b
    half = [m for m in b if m.bit_count() == r]
    if not half:
        return a, b
    moved = level_masks(n, r)[:len(half)]
    shaded = set(_pure.shade_masks(moved, n))
    return a, canonical(moved + [m for m in level_masks(n, r + 1)
                                 if m not in shaded])


@pytest.mark.parametrize("fault", ["non-middle witness", "wrong upper part",
                                   "half part off the segment"])
def test_brute_force_sweeps_and_oracles_agree_on_faulty_witnesses(
        monkeypatch, fault):
    real = antichains._brute_force_masks

    def faulty(n, k, exact=False, require_side=False):
        best, wits = real(n, k, exact, require_side)
        return best, [faulty_witness(fault, n, a, b) for a, b in wits]

    monkeypatch.setattr(antichains, "_brute_force_masks", faulty)
    rep = verify_thm26_structure(4)
    checks, violations = oracle_thm26_report(4)
    assert violations
    assert {v["part"] for v in violations} >= {
        "non-middle witness": {"levels"},
        "wrong upper part": {"upper-complement"},
        "half part off the segment": {"minimal-shade"}}[fault]
    assert (rep.checks_run, rep.violations) == (checks, violations)
    for exact in (False, True):
        rep = verify_thm25_brute(4, exact=exact)
        assert (rep.checks_run, rep.violations, rep.witnesses) == \
            oracle_thm25_report(4, exact)


def test_brute_force_sweeps_and_oracles_agree_on_a_wrong_maximum(monkeypatch):
    real = antichains._brute_force_masks

    def faulty(n, k, exact=False, require_side=False):
        best, wits = real(n, k, exact, require_side)
        return (best + 1 if k == 3 and not require_side else best), wits

    monkeypatch.setattr(antichains, "_brute_force_masks", faulty)
    for exact in (False, True):
        rep = verify_thm25_brute(4, exact=exact)
        want = oracle_thm25_report(4, exact)
        assert [v["k"] for v in want[1]] == [3]
        assert (rep.checks_run, rep.violations, rep.witnesses) == want


def test_sperner_maximum():
    for n in range(1, 6):
        rep = sperner_max_check(n)
        assert rep.passed, rep.violations[:3]
    # the middle level is the unique maximum at even n
    masks = level_masks(4, 2)
    counts = [m for m in enumerate_antichains(4) if len(m) == binom(4, 2)]
    assert counts == [tuple(masks)]


def oracle_extremal(n, k):
    """construct_extremal as a last_segment plus a KappaTable.build(r, k)
    of its own: (family_a, family_b, case, m)."""
    r = n // 2
    a_fam = SetFamily.from_masks(level_masks(n, r), n)
    if k < negativity_threshold(r):
        return a_fam, SetFamily.from_masks(level_masks(n, r + 1), n), "i", None
    table = KappaTable.build(r, k)
    m = next(i for i in range(k + 1) if table.kappa[i] == table.kappa_star[k])
    bottom = last_segment(n, r, m)
    shaded = set(_pure.shade_masks(bottom.masks(), n))
    upper = [x for x in level_masks(n, r + 1) if x not in shaded]
    b_fam = SetFamily(bottom.members
                      + tuple(Subset.from_mask(x, n) for x in upper), n)
    return a_fam, b_fam, "ii", m


def oracle_extremal_report(n):
    """The per-k sweep on the public objects: construct_extremal,
    disjoint_pairs, is_antichain and theorem25_bound.  Returns
    (checks_run, violations)."""
    checks, violations = 0, []
    for k in range(binom(n, n // 2) + 1):
        built = construct_extremal(n, k)
        report = disjoint_pairs(built.family_a, built.family_b)
        checks += 1
        problems = []
        if not is_antichain(built.family_a):
            problems.append("family_a not an antichain")
        if not is_antichain(built.family_b):
            problems.append("family_b not an antichain")
        if not report.is_matching:
            problems.append("disjoint pairs not a matching")
        if report.pair_count > k:
            problems.append(f"{report.pair_count} pairs exceeds k")
        if built.total != theorem25_bound(n, k):
            problems.append(f"total {built.total} misses the bound")
        if problems:
            violations.append({"n": n, "k": k, "case": built.case,
                               "m": built.chosen_m, "problems": problems})
    return checks, violations


def test_construct_extremal_matches_segment_rebuild():
    for n in (4, 6, 8):
        for k in range(binom(n, n // 2) + 1):
            c = construct_extremal(n, k)
            a_fam, b_fam, case, m = oracle_extremal(n, k)
            assert (c.family_a, c.family_b, c.case, c.chosen_m) == \
                (a_fam, b_fam, case, m), (n, k)


@pytest.mark.parametrize("n", [4, 6, 8])
def test_extremal_sweep_matches_per_k_oracle(n):
    rep = verify_extremal_constructions(n)
    assert rep.passed
    assert (rep.checks_run, rep.violations) == oracle_extremal_report(n)


@pytest.mark.parametrize("fault", ["m + 1", "shade kept", "empty set added",
                                   "top set dropped", "A changes with k"])
def test_extremal_sweep_catches_a_faulty_construction(monkeypatch, fault):
    real = antichains._extremal_masks

    def faulty(n, k, table=None):
        a_masks, b_masks, case, m = real(n, k, table)
        upper = level_masks(n, n // 2 + 1)
        if fault == "m + 1" and case == "ii" and m < len(a_masks):
            m += 1
            bottom = a_masks[len(a_masks) - m:]
            shaded = set(_pure.shade_masks(bottom, n))
            b_masks = bottom + [x for x in upper if x not in shaded]
        elif fault == "shade kept" and case == "ii":
            b_masks = b_masks[:m] + upper
        elif fault == "empty set added":
            b_masks = [0] + b_masks
        elif fault == "top set dropped":
            b_masks = b_masks[:-1]
        elif fault == "A changes with k" and case == "ii" and k % 2:
            # a second A set disjoint from the last half-size B set breaks
            # the matching at odd k only: the sweep must not reuse the
            # partners it found for another A
            spare = (1 << n) - 1 - b_masks[m - 1]
            a_masks = a_masks + [spare & (spare - 1)]
        return a_masks, b_masks, case, m

    monkeypatch.setattr(antichains, "_extremal_masks", faulty)
    for n in (4, 6):
        rep = verify_extremal_constructions(n)
        assert rep.violations, n
        assert (rep.checks_run, rep.violations) == oracle_extremal_report(n)


@pytest.mark.parametrize("call, args, name", [
    (construct_extremal, (6, 2.5), "k"),
    (construct_extremal, (6.0, 2), "n"),
    (brute_force_max, (4, 2.5), "k"),
    (verify_thm25_brute, (4.0,), "n"),
    (verify_thm26_structure, (4, 2.5), "k"),
    (verify_extremal_constructions, (6.0,), "n"),
    (sperner_max_check, (3.0,), "n"),
    (enumerate_antichains, (3.0,), "n"),
])
def test_non_integer_arguments_are_named_in_the_error(call, args, name):
    # they used to return an answer for the truncated or float argument, or
    # raise TypeError; enumerate_antichains(3.0) must not hit the cache of 3
    enumerate_antichains(3)
    with pytest.raises(ValueError, match=rf"\b{name} must be an integer"):
        call(*args)
