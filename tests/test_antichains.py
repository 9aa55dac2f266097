"""Antichain operations, pair matching, extremal constructions, brute force."""

import importlib
import random
import timeit

import pytest
from hypothesis import given, settings, strategies as st

from kktools import (
    DisjointPairReport,
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
    is_antichain,
    kappa,
    kappa_star,
    last_segment,
    level_masks,
    negativity_threshold,
    shade,
    shadow,
    sperner_down,
    sperner_max_check,
    sperner_up,
    theorem25_bound,
    verify_extremal_constructions,
    verify_thm25_brute,
    verify_thm26_structure,
)
from kktools.binomials import _cascade_terms
from kktools.kappa import _star_cut

DEDEKIND = {1: 3, 2: 6, 3: 20, 4: 168, 5: 7581}
MAX_TOTALS_N4 = [10, 10, 10, 10, 10, 11, 12]


def test_is_antichain():
    assert is_antichain(SetFamily.of([(1, 2), (2, 3), (1, 3)], 4))
    assert is_antichain(SetFamily.of([], 4))
    assert is_antichain(SetFamily.of([()], 4))
    assert not is_antichain(SetFamily.of([(1,), (1, 2)], 4))
    assert not is_antichain(SetFamily.of([(), (3,)], 4))


def oracle_is_antichain(masks):
    """No member is a proper subset of another, pair by pair."""
    return not any(a != b and a & b == a for a in masks for b in masks)


def random_mask(rng, n, size):
    return sum(1 << e for e in rng.sample(range(n), size))


@pytest.mark.parametrize("n", [5, 8, 64, 65, 70, 130])
def test_is_antichain_masks_matches_the_pairwise_oracle(monkeypatch, n):
    # mixed levels, levels two or more apart only, and one level; half the
    # families get one member's neighbour one element up or down, so they
    # nest.  Large adjacent levels go through the shade or the shadow
    # kernel, small ones pair by pair: all three routes must run.
    calls = []
    for name in ("shade_masks", "shadow_masks"):
        kernel = getattr(_pure, name)
        monkeypatch.setattr(_pure, name, lambda *args, kernel=kernel, name=name:
                            calls.append(name) or kernel(*args))
    rng = random.Random(700 + n)
    outcomes = {"mixed": set(), "apart": set(), "one level": set()}
    for _ in range(300):
        kind = rng.choice(sorted(outcomes))
        low = rng.randint(0, n - 2)
        if kind == "one level":
            sizes = [low]
        elif kind == "apart":
            sizes = [low, rng.randint(low + 2, n)]
        else:
            sizes = [low + rng.randint(0, 2) for _ in range(rng.randint(2, 4))]
        masks = [random_mask(rng, n, rng.choice(sizes))
                 for _ in range(rng.randint(1, 40))]
        if rng.random() < 0.5:
            masks.append(rng.choice(masks) ^ 1 << rng.randrange(n))
        assert antichains._is_antichain_masks(masks) == oracle_is_antichain(masks)
        outcomes[kind].add(oracle_is_antichain(masks))
    assert all(seen == {True, False} for seen in outcomes.values()), outcomes
    assert set(calls) == {"shade_masks", "shadow_masks"}


@pytest.mark.parametrize("n", [16, 70])
def test_is_antichain_masks_sees_a_nesting_through_the_top_bit(n):
    # few lower sets and many upper ones take the shade route, whose ground
    # set must reach bit n - 1, the one bit the nesting set adds
    rng = random.Random(n)
    lower = [random_mask(rng, n - 1, n // 2) for _ in range(5)]
    upper = [u for u in (random_mask(rng, n - 1, n // 2 + 1) for _ in range(30))
             if not any(x & u == x for x in lower)][:20]
    assert len(upper) == 20
    assert antichains._is_antichain_masks(lower + upper)
    assert not antichains._is_antichain_masks(lower + upper + [lower[0] | 1 << (n - 1)])


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


def oracle_sperner_move(fam, down):
    """sperner_down (down) or sperner_up on Subsets: the level split by
    member size and the public shadow and shade."""
    op = "sperner_down" if down else "sperner_up"
    if len(fam) == 0:
        raise ValueError(f"{op} requires a nonempty antichain")
    if not is_antichain(fam):
        raise ValueError(f"{op} requires an antichain")
    n = fam.ground_n
    if fam.masks() == [0] or fam.masks() == [(1 << n) - 1]:
        raise ValueError(f"{op} is not defined on the one-member extremes")
    size = max(fam.sizes()) if down else min(fam.sizes())
    level = tuple(s for s in fam if s.size == size)
    rest = tuple(s for s in fam if s.size != size)
    moved = (shadow if down else shade)(SetFamily(level, n))
    return SetFamily(rest + moved.members, n)


def outcome(call, *args):
    """The call's value, or the message of the ValueError it raised; any
    other exception propagates and fails the test."""
    try:
        return call(*args)
    except ValueError as exc:
        return str(exc)


def test_sperner_moves_match_the_subset_oracle():
    # every antichain of n <= 5, and every family of n <= 3, antichain or
    # not, for the errors
    families = [(n, f) for n in range(1, 6) for f in enumerate_antichains(n)]
    families += [(n, [m for m in range(1 << n) if pick >> m & 1])
                 for n in range(1, 4) for pick in range(1 << (1 << n))]
    errors = set()
    for n, masks in families:
        fam = SetFamily.from_masks(masks, n)
        for op, down in ((sperner_down, True), (sperner_up, False)):
            got = outcome(op, fam)
            want = outcome(lambda f: oracle_sperner_move(f, down), fam)
            assert got == want, (n, masks, down)
            if isinstance(got, SetFamily):
                assert got.masks() == want.masks() and got.ground_n == n
            else:
                errors.add(got)
    assert errors == {f"{op} {why}" for op in ("sperner_down", "sperner_up")
                      for why in ("requires a nonempty antichain",
                                  "requires an antichain",
                                  "is not defined on the one-member extremes")}


def test_mask_paths_build_no_subset(monkeypatch):
    built = []
    real = Subset.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        real(self, *args, **kwargs)

    monkeypatch.setattr(Subset, "__init__", counting)
    fam = SetFamily.from_masks([0b0110, 0b0011, 0b1000, 0b0011], 4)
    assert (fam.masks(), len(fam), fam.sizes()) == ([0b1000, 0b0011, 0b0110], 3, {1, 2})
    assert not fam.is_uniform and fam == SetFamily.from_masks(fam.masks(), 4)
    hash(fam)
    down, up = sperner_down(fam), sperner_up(fam)
    assert down.masks() == [0b0001, 0b0010, 0b0100, 0b1000]
    assert up.masks() == [0b0011, 0b0110, 0b1001, 0b1010, 0b1100]
    assert built == []
    assert [s.elements for s in fam] == [(4,), (1, 2), (2, 3)]
    assert len(built) == 3


def oracle_disjoint_pairs(a, b):
    """disjoint_pairs by a loop over the Subset members."""
    if a.ground_n != b.ground_n:
        raise ValueError("families must share a ground set")
    pairs = [(x, y) for x in a for y in b if not x.mask & y.mask]
    ok = len({x.mask for x, _ in pairs}) == len(pairs) == \
        len({y.mask for _, y in pairs})
    return DisjointPairReport(tuple(pairs), len(pairs), ok)


def test_disjoint_pairs_match_the_member_loop():
    rng = random.Random(190)
    outcomes = set()
    for _ in range(400):
        n = rng.choice([1, 2, 5, 9, 64, 70])
        density = rng.random()
        a, b = ([sum(1 << e for e in range(n) if rng.random() < density)
                 for _ in range(rng.randint(0, 7))] for _ in range(2))
        fam_a, fam_b = SetFamily.from_masks(a, n), SetFamily.from_masks(b, n)
        got = disjoint_pairs(fam_a, fam_b)
        assert got == oracle_disjoint_pairs(fam_a, fam_b)
        assert got.to_json() == oracle_disjoint_pairs(fam_a, fam_b).to_json()
        outcomes.add((got.pair_count > 0, got.is_matching))
    assert outcomes == {(False, True), (True, True), (True, False)}
    with pytest.raises(ValueError, match="share a ground set"):
        disjoint_pairs(SetFamily.from_masks([1], 2), SetFamily.from_masks([1], 3))


@st.composite
def mask_families(draw, n=None):
    """(masks, n): a list of masks on {1..n}, 1 <= n <= 130, mixing random
    masks with ones a few elements from empty or from full, so members nest
    often on small and large ground sets alike.  Repeats are allowed."""
    if n is None:
        n = draw(st.integers(1, 130))
    full = (1 << n) - 1
    few = st.sets(st.integers(0, n - 1), max_size=3).map(
        lambda elems: sum(1 << e for e in elems))
    member = st.one_of(st.integers(0, full), few, few.map(full.__xor__))
    return draw(st.lists(member, max_size=8)), n


def canonical_masks(masks):
    return sorted(set(masks), key=lambda m: (m.bit_count(), m))


@settings(max_examples=150, deadline=None)
@given(mask_families())
def test_is_antichain_is_the_no_nesting_definition(drawn):
    masks, n = drawn
    got = outcome(is_antichain, SetFamily.from_masks(masks, n))
    assert got is (not any(a != b and a & b == a for a in masks for b in masks))


@settings(max_examples=150, deadline=None)
@given(mask_families(), st.data())
def test_disjoint_pairs_is_the_disjointness_definition(drawn, data):
    masks_a, n = drawn
    n_b = data.draw(st.sampled_from([n, n, n % 130 + 1]))
    masks_b, _ = data.draw(mask_families(n_b))
    a, b = SetFamily.from_masks(masks_a, n), SetFamily.from_masks(masks_b, n_b)
    got = outcome(disjoint_pairs, a, b)
    if n_b != n:
        assert got == (f"disjoint_pairs: families must share a ground set, "
                       f"got {n} and {n_b}")
        return
    want = [(x, y) for x in canonical_masks(masks_a)
            for y in canonical_masks(masks_b) if not x & y]
    assert [(x.mask, y.mask) for x, y in got.pairs] == want
    assert got.pair_count == len(want)
    # a matching: no member of either side in two pairs
    assert got.is_matching is (len({x for x, _ in want}) == len(want)
                               == len({y for _, y in want}))


def sperner_move_by_definition(masks, n, down):
    """The moved family's masks by the definition, or None where the move is
    undefined: an empty family, a non-antichain, or {∅} and {[n]} alone."""
    masks = canonical_masks(masks)
    full = (1 << n) - 1
    if not masks or masks in ([0], [full]) or \
            any(a != b and a & b == a for a in masks for b in masks):
        return None
    size = (max if down else min)(m.bit_count() for m in masks)
    level = [m for m in masks if m.bit_count() == size]
    bits = [1 << e for e in range(n)]
    if down:  # the shadow: drop one element
        moved = {m ^ b for m in level for b in bits if m & b}
    else:  # the shade: add one element
        moved = {m | b for m in level for b in bits if not m & b}
    return canonical_masks([m for m in masks if m.bit_count() != size] + list(moved))


@settings(max_examples=150, deadline=None)
@given(mask_families(), st.booleans())
def test_sperner_moves_are_the_shadow_and_shade_definitions(drawn, down):
    masks, n = drawn
    op = sperner_down if down else sperner_up
    got = outcome(op, SetFamily.from_masks(masks, n))
    want = sperner_move_by_definition(masks, n, down)
    if want is None:
        assert isinstance(got, str)
    else:
        assert (got.masks(), got.ground_n) == (want, n)
        assert is_antichain(got)


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
    # every k at even n <= 16, against the table's kappa* column: the running
    # minimum of the run-sum kappa, a route that does not rest on Thm 2.3;
    # and against kappa_star itself (O(k) a call) up to n = 8
    for n in range(4, 17, 2):
        r = n // 2
        middle = binom(n, r) + binom(n, r + 1)
        star = KappaTable.build(r, binom(n, r)).kappa_star
        assert [theorem25_bound(n, k) for k in range(binom(n, r) + 1)] == \
            [middle - s for s in star], n
        if n <= 8:
            assert all(theorem25_bound(n, k) == middle - kappa_star(r, k)
                       for k in range(binom(n, r) + 1)), n


@st.composite
def bound_arguments(draw, pairs=False):
    """(n, k), or (n, k1, k2) with k1 <= k2, for even 4 <= n <= 1000 and k
    anywhere in 0..C(n, n/2): small ends, the threshold's neighbourhood and
    huge values alike."""
    n = 2 * draw(st.integers(2, 500))
    top = binom(n, n // 2)
    k = st.one_of(st.integers(0, top), st.integers(0, min(top, 10**4)),
                  st.integers(max(0, top - 10**4), top))
    ks = sorted(draw(k) for _ in range(1 + pairs))
    return (n, *ks)


@settings(max_examples=25, deadline=None)
@given(bound_arguments(pairs=True))
def test_bound_is_nondecreasing_in_k(args):
    n, k1, k2 = args
    assert theorem25_bound(n, k1) <= theorem25_bound(n, k2)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 500), st.data())
def test_bound_is_the_two_middle_levels_below_the_threshold(r, data):
    # kappa* is 0 exactly below the negativity threshold, then negative
    n = 2 * r
    middle = binom(n, r) + binom(n, r + 1)
    below = min(negativity_threshold(r), binom(n, r) + 1)
    for k in (0, below - 1, data.draw(st.integers(0, below - 1))):
        assert theorem25_bound(n, k) == middle, k
    if below <= binom(n, r):
        assert theorem25_bound(n, below) > middle


@settings(max_examples=25, deadline=None)
@given(bound_arguments())
def test_bound_is_at_least_the_kappa_of_k_itself(args):
    # kappa*(k) <= kappa(k)
    n, k = args
    r = n // 2
    assert theorem25_bound(n, k) >= binom(n, r) + binom(n, r + 1) - kappa(r, k)


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
            "maximizers": [oracle_witness_json(a, b) for a, b in wits[:8]],
        })
    return checks, violations, witnesses


def oracle_witness_json(a, b):
    """A maximizer as the sweep reports it, rendered from the public
    SetFamily members and disjoint_pairs."""
    return {"family_a": [format_subset(s) for s in a],
            "family_b": [format_subset(s) for s in b],
            "total": len(a) + len(b),
            "pair_count": disjoint_pairs(a, b).pair_count}


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

    def faulty(families, index, k, exact=False, require_side=False):
        best, wits = real(families, index, k, exact, require_side)
        # every sweep and oracle below runs at n = 4
        return best, [faulty_witness(fault, 4, a, b) for a, b in wits]

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

    def faulty(families, index, k, exact=False, require_side=False):
        # exact mode imposes the side condition itself, so its scans with
        # and without require_side are one scan and both carry the fault
        best, wits = real(families, index, k, exact, require_side)
        return (best + 1 if k == 3 and (exact or not require_side) else best), wits

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


@pytest.mark.parametrize("n", range(1, 6))
def test_antichain_count_matches_the_enumeration(n):
    # the memoized count and the pruned walk against the full listing:
    # total, largest size, and at every floor the antichains at least that
    # large, in order, as well as those of exactly that size
    families = enumerate_antichains(n)
    order, keep = antichains._antichain_steps(n)
    memo = antichains._antichain_profiles(keep)
    count, largest = memo[(1 << len(order)) - 1]
    assert count == len(families) == DEDEKIND[n]
    assert largest == max(map(len, families)) == binom(n, n // 2)
    for size in range(largest + 2):
        walked = antichains._antichain_walk(order, keep, memo, size)
        assert walked == [f for f in families if len(f) >= size], size
        assert [f for f in walked if len(f) == size] == \
            [f for f in families if len(f) == size], size
    # below two missing members the walk never reads its memo
    for size in (0, 1):
        assert antichains._antichain_walk(order, keep, None, size) == \
            [f for f in families if len(f) >= size]


def test_antichain_walk_reaches_the_large_antichains_of_six():
    # only the families of at least min_size members are listed
    order, keep = antichains._antichain_steps(6)
    memo = antichains._antichain_profiles(keep)
    walk = lambda size: antichains._antichain_walk(order, keep, memo, size)
    assert walk(21) == []
    assert walk(20) == [tuple(level_masks(6, 3))]
    for size, count in ((16, 6706), (15, 25944)):
        walked = walk(size)
        assert len(walked) == len(set(walked)) == count
        assert min(map(len, walked)) == size
        assert all(antichains._is_antichain_masks(f) for f in walked[::97])


def test_sperner_check_counts_the_antichains_of_six():
    rep = sperner_max_check(6)
    assert rep.passed, rep.violations
    assert rep.checks_run == 7828354
    assert rep.witnesses == [[format_subset(s) for s in
                              SetFamily.from_masks(level_masks(6, 3), 6)]]


@pytest.mark.parametrize("n, lower, upper, parts", [
    (2, 0b01, 0b11, {"count", "maximizers"}),  # {1} < {1,2}: a second maximum
    (5, 0b00011, 0b00111, {"count"}),
    (6, 0, 0b111111, {"count"}),
])
def test_sperner_check_reports_a_forgotten_comparable_pair(monkeypatch, n, lower,
                                                           upper, parts):
    real = antichains._antichain_steps

    def forgetful(m):
        order, keep = real(m)
        i, j = order.index(lower), order.index(upper)
        assert not keep[i] >> j & 1
        keep[i] |= 1 << j
        return order, keep

    monkeypatch.setattr(antichains, "_antichain_steps", forgetful)
    rep = sperner_max_check(n)
    assert {v.get("part") for v in rep.violations} == parts
    assert rep.checks_run > {**DEDEKIND, 6: 7828354}[n]


def test_sperner_check_reports_a_wrong_largest_size(monkeypatch):
    # the count's largest size one too high: no antichain is that large, so
    # the walk lists no maximizer either
    real = antichains._antichain_profiles

    def faulty(keep):
        memo = real(keep)
        top = (1 << len(keep)) - 1
        count, largest = memo[top]
        memo[top] = count, largest + 1
        return memo

    monkeypatch.setattr(antichains, "_antichain_profiles", faulty)
    rep = sperner_max_check(4)
    assert rep.checks_run == DEDEKIND[4]
    assert rep.violations == [
        {"n": 4, "max_size": 7, "expected": 6},
        {"n": 4, "part": "maximizers", "got": [],
         "expected": [sorted(level_masks(4, 2))]}]
    assert rep.witnesses == []


def test_enumeration_refuses_a_count_off_dedekind(monkeypatch):
    real = antichains._antichain_walk
    monkeypatch.setattr(antichains, "_antichain_walk",
                        lambda *args: real(*args)[1:])
    enumerate_antichains.cache_clear()  # an earlier test's listing is cached
    try:
        with pytest.raises(RuntimeError) as info:
            enumerate_antichains(3)
    finally:
        enumerate_antichains.cache_clear()
    assert str(info.value) == "enumerated 19 antichains at n=3, expected 20"


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
    """The per-k sweep on the public objects: construct_extremal, the
    pairwise antichain oracle, disjoint_pairs (a scan of every pair) and
    theorem25_bound.  The verdicts on a pair of families are kept for the
    next k that builds the same pair.  Returns (checks_run, violations)."""
    checks, violations = 0, []
    verdicts = {}
    for k in range(binom(n, n // 2) + 1):
        built = construct_extremal(n, k)
        key = tuple(built.family_a.masks()), tuple(built.family_b.masks())
        if key not in verdicts:
            verdicts[key] = (oracle_is_antichain(key[0]), oracle_is_antichain(key[1]),
                             disjoint_pairs(built.family_a, built.family_b))
        a_ok, b_ok, report = verdicts[key]
        checks += 1
        problems = []
        if not a_ok:
            problems.append("family_a not an antichain")
        if not b_ok:
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


@pytest.mark.parametrize("n", [4, 6, 8, 10])
def test_extremal_sweep_matches_per_k_oracle(n):
    rep = verify_extremal_constructions(n)
    assert rep.passed
    assert (rep.checks_run, rep.violations) == oracle_extremal_report(n)


@pytest.mark.parametrize("fault", ["m + 1", "shade kept", "empty set added",
                                   "top set dropped", "A changes with odd m"])
def test_extremal_sweep_catches_a_faulty_construction(monkeypatch, fault):
    real = antichains._extremal_masks

    def faulty(n, m, levels):
        a_masks, b_masks = real(n, m, levels)
        upper = level_masks(n, n // 2 + 1)
        if fault == "m + 1" and m and m < len(a_masks):
            bottom = a_masks[len(a_masks) - m - 1:]
            shaded = set(_pure.shade_masks(bottom, n))
            b_masks = bottom + [x for x in upper if x not in shaded]
        elif fault == "shade kept" and m:
            b_masks = b_masks[:m] + upper
        elif fault == "empty set added":
            b_masks = [0] + b_masks
        elif fault == "top set dropped":
            b_masks = b_masks[:-1]
        elif fault == "A changes with odd m" and m and m % 2:
            # a second A set disjoint from the last half-size B set breaks
            # the matching at odd m only: the sweep must not reuse the
            # partners it found for another A
            spare = (1 << n) - 1 - b_masks[m - 1]
            a_masks = a_masks + [spare & (spare - 1)]
        return a_masks, b_masks

    monkeypatch.setattr(antichains, "_extremal_masks", faulty)
    for n in (4, 6):
        rep = verify_extremal_constructions(n)
        assert rep.violations, n
        assert (rep.checks_run, rep.violations) == oracle_extremal_report(n)


def least_minimizers(column):
    """For each k, the least m <= k with column[m] = min(column[:k+1]): the
    index where the running minimum was first hit, O(1) per k."""
    first = 0
    return [(first := k) if value < column[first] else first
            for k, value in enumerate(column)]


def test_least_minimizers_is_the_first_hit_of_the_running_minimum():
    rng = random.Random(61)
    for _ in range(200):
        column = [rng.randint(-3, 3) for _ in range(rng.randint(1, 30))]
        want = [column.index(min(column[:k + 1])) for k in range(len(column))]
        assert least_minimizers(column) == want


def star_cut(k, r):
    """(least minimizer m, kappa*_r(k)) read off k's cascade."""
    return _star_cut(_cascade_terms(k, r))


@pytest.mark.parametrize("r, top", [(r, binom(2 * r, r) + 300) for r in range(1, 10)]
                         + [(10, binom(20, 10) + 20)])
def test_least_minimizer_is_the_first_hit_of_the_kappa_table(r, top):
    # the table's first-hit scan and its kappa* column, at every k up to at
    # least C(2r, r) + 2r; m = 0 exactly below the negativity threshold,
    # where construct_extremal keeps both middle levels
    table = KappaTable.build(r, top)
    cuts = [star_cut(k, r) for k in range(top + 1)]
    want = least_minimizers(table.kappa)
    assert [m for m, _ in cuts] == want
    assert [star for _, star in cuts] == table.kappa_star
    threshold = negativity_threshold(r)
    assert [k for k, m in enumerate(want) if m == 0] == list(range(threshold))


def test_least_minimizer_meets_kappa_star():
    # kappa(m) = kappa*(k) with m <= k, and the cut's own kappa* is that
    # value: against the running minimum of kappa at every k, and against
    # kappa_star itself (O(k) a call) at 12 k spread over the range
    for r in range(1, 9):
        top = binom(2 * r, r) + 2 * r
        star = 0
        for k in range(top + 1):
            star = min(star, kappa(r, k))
            m, cut_star = star_cut(k, r)
            assert m <= k and kappa(r, m) == cut_star == star, (r, k)
            if k % (top // 11 + 1) == 0:
                assert star == kappa_star(r, k), (r, k)


def test_least_minimizer_on_huge_arguments():
    # past any table: m <= k, every kept term has a_i >= 2i - 1 (Thm 2.3's
    # condition), the cut's kappa* is kappa(m), and kappa(m) <= kappa(k)
    rng = random.Random(20)
    cases = [(r, k) for r in (1, 2, 3, 10, 64, 130)
             for k in (0, 1, 10**6, binom(2 * r, r), 10**40)]
    cases += [(rng.randint(1, 130), rng.randint(0, 10**40)) for _ in range(300)]
    for r, k in cases:
        m, star = star_cut(k, r)
        assert 0 <= m <= k, (r, k)
        assert all(a >= 2 * i - 1 for a, i in _cascade_terms(m, r)), (r, k)
        assert star == kappa(r, m) <= kappa(r, k), (r, k)


def test_theorem25_bound_reads_one_cascade_and_no_kappa(monkeypatch):
    # kappa* comes out of the cut of k's cascade: m's cascade is not rebuilt
    # through the checked kappa, and antichains.py does not import it
    cases = [(4, 0), (4, 6), (12, 924), (200, 10**5)]
    want = [binom(n, n // 2) + binom(n, n // 2 + 1)
            - kappa(n // 2, star_cut(k, n // 2)[0]) for n, k in cases]
    kappa_module = importlib.import_module("kktools.kappa")
    assert not hasattr(antichains, "kappa")
    cascades = []

    def counted(m, r):
        cascades.append((m, r))
        return _cascade_terms(m, r)

    def no_kappa(*args):
        raise AssertionError("kappa called")

    for module in (antichains, kappa_module):
        monkeypatch.setattr(module, "_cascade_terms", counted)
    monkeypatch.setattr(kappa_module, "kappa", no_kappa)
    for (n, k), bound in zip(cases, want):
        cascades.clear()
        assert theorem25_bound(n, k) == bound, (n, k)
        assert cascades == [(k, n // 2)], (n, k)


def test_construct_extremal_builds_no_kappa_table(monkeypatch):
    def no_table(*args):
        raise AssertionError("KappaTable.build called")

    monkeypatch.setattr(KappaTable, "build", no_table)
    for n in (4, 6, 8, 10):
        for k in range(binom(n, n // 2) + 1):
            construct_extremal(n, k)


def fam(*element_sets, n=4):
    return SetFamily.of(element_sets, n)


# (call, arguments, value or ValueError): zero, negative, past-range and
# non-integer arguments across the public surface of kktools.antichains.  A
# family stands for its masks, a report for (passed, checks_run), a
# construction for (total, case, m), a pair report for (pair_count,
# is_matching) and a brute-force result for (best, witness count).
EDGE_CASES = [
    (is_antichain, (fam(),), True),
    (is_antichain, (fam(()),), True),
    (is_antichain, (fam((), (1,)),), False),
    (sperner_down, (fam(),), ValueError),
    (sperner_down, (fam(()),), ValueError),
    (sperner_down, (fam((1, 2, 3, 4)),), ValueError),
    (sperner_down, (fam((1,), (1, 2)),), ValueError),
    (sperner_down, (fam((1,), n=1),), ValueError),
    (sperner_down, (fam((1,), n=2),), [0]),
    (sperner_up, (fam(),), ValueError),
    (sperner_up, (fam(()),), ValueError),
    (sperner_up, (fam((1, 2, 3, 4)),), ValueError),
    (sperner_up, (fam((1,), n=2),), [3]),
    (disjoint_pairs, (fam(), fam()), (0, True)),
    (disjoint_pairs, (fam(), fam(n=5)), ValueError),
    (disjoint_pairs, (fam(()), fam(())), (1, True)),
    (theorem25_bound, (4, 0), 10),
    (theorem25_bound, (4, 6), 12),
    (theorem25_bound, (4, 7), ValueError),
    (theorem25_bound, (4, -1), ValueError),
    (theorem25_bound, (0, 0), ValueError),
    (theorem25_bound, (-4, 0), ValueError),
    (theorem25_bound, (2, 0), ValueError),
    (theorem25_bound, (5, 0), ValueError),
    (theorem25_bound, (4.0, 0), ValueError),
    (theorem25_bound, (4, 0.0), ValueError),
    (construct_extremal, (4, 0), (10, "i", None)),
    (construct_extremal, (4, 6), (12, "ii", 6)),
    (construct_extremal, (4, 7), ValueError),
    (construct_extremal, (4, -1), ValueError),
    (construct_extremal, (2, 0), ValueError),
    (construct_extremal, (-4, 0), ValueError),
    (enumerate_antichains, (0,), ValueError),
    (enumerate_antichains, (-1,), ValueError),
    (enumerate_antichains, (6,), ValueError),
    (enumerate_antichains, (1,), ((), (0,), (1,))),
    (brute_force_max, (4, -1), ValueError),
    (brute_force_max, (0, 0), ValueError),
    (brute_force_max, (6, 0), ValueError),
    (brute_force_max, (4.0, 0), ValueError),
    (brute_force_max, (4, 0), (10, 2)),
    (brute_force_max, (4, 7), (12, 1)),
    (brute_force_max, (4, 7, True), (-1, 0)),
    (verify_thm25_brute, (0,), ValueError),
    (verify_thm25_brute, (2,), ValueError),
    (verify_thm25_brute, (6,), ValueError),
    (verify_thm25_brute, (4, -1), ValueError),
    (verify_thm25_brute, (4, 7), ValueError),
    (verify_thm25_brute, (4, 2.5), ValueError),
    (verify_thm25_brute, (4, 0), (True, 1)),
    (verify_thm26_structure, (0,), ValueError),
    (verify_thm26_structure, (2,), ValueError),
    (verify_thm26_structure, (4, -1), ValueError),
    (verify_thm26_structure, (4, 7), ValueError),
    (verify_thm26_structure, (4, 0), (True, 4)),
    (verify_extremal_constructions, (0,), ValueError),
    (verify_extremal_constructions, (-4,), ValueError),
    (verify_extremal_constructions, (2,), ValueError),
    (verify_extremal_constructions, (5,), ValueError),
    (verify_extremal_constructions, (4,), (True, 7)),
    (sperner_max_check, (0,), ValueError),
    (sperner_max_check, (-1,), ValueError),
    (sperner_max_check, (7,), ValueError),
    (sperner_max_check, (1,), (True, 3)),
]


def test_edge_arguments_give_a_value_or_a_value_error():
    # any other exception type escapes and fails the test
    for call, args, want in EDGE_CASES:
        try:
            got = call(*args)
        except ValueError:
            got = ValueError
        if isinstance(got, SetFamily):
            got = got.masks()
        elif hasattr(got, "checks_run"):
            got = (got.passed, got.checks_run)
        elif hasattr(got, "chosen_m"):
            got = (got.total, got.case, got.chosen_m)
        elif hasattr(got, "pair_count"):
            got = (got.pair_count, got.is_matching)
        elif call is brute_force_max and got is not ValueError:
            got = (got[0], len(got[1]))
        assert got == want, (call.__name__, args, got)


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


def count_subset_builds(monkeypatch):
    """The list that each Subset.__init__ call appends its arguments to."""
    built = []
    real = Subset.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        real(self, *args, **kwargs)

    monkeypatch.setattr(Subset, "__init__", counting)
    return built


def pairwise_disjoint_pairs(masks_a, masks_b):
    """(pairs as masks, is_matching) by testing every pair of members."""
    pairs = [(x, y) for x in masks_a for y in masks_b if x & y == 0]
    lefts, rights = [x for x, _ in pairs], [y for _, y in pairs]
    return pairs, len(set(lefts)) == len(lefts) and len(set(rights)) == len(rights)


def antichain_pairs_to_check():
    """Every ordered pair of antichains of {1..3} and 300 random ordered
    pairs of antichains of {1..5}, as (n, masks_a, masks_b)."""
    three = enumerate_antichains(3)
    yield from ((3, a, b) for a in three for b in three)
    five = enumerate_antichains(5)
    rng = random.Random(1805)
    yield from ((5, rng.choice(five), rng.choice(five)) for _ in range(300))


def test_disjoint_pairs_match_the_pairwise_oracle_and_build_each_member_once(
        monkeypatch):
    outcomes = set()
    for n, masks_a, masks_b in antichain_pairs_to_check():
        want, matching = pairwise_disjoint_pairs(masks_a, masks_b)
        fam_a, fam_b = SetFamily.from_masks(masks_a, n), SetFamily.from_masks(masks_b, n)
        built = count_subset_builds(monkeypatch)
        got = disjoint_pairs(fam_a, fam_b)
        monkeypatch.undo()
        assert [(x.mask, y.mask) for x, y in got.pairs] == want
        assert (got.pair_count, got.is_matching) == (len(want), matching)
        assert got.to_json() == oracle_disjoint_pairs(fam_a, fam_b).to_json()
        # one Subset per distinct paired member on each side, shared by its pairs
        paired = len({x for x, _ in want}) + len({y for _, y in want})
        assert len(built) == paired
        assert len({id(x) for x, _ in got.pairs} | {id(y) for _, y in got.pairs}) \
            == paired
        outcomes.add((got.pair_count > 0, got.is_matching))
    assert outcomes == {(False, True), (True, True), (True, False)}


def test_thm25_sweep_names_itself_for_a_bad_k():
    for bad in (-1, 7, 99):
        with pytest.raises(ValueError,
                           match=rf"^verify_thm25_brute: need 0 <= k <= 6, got {bad}$"):
            verify_thm25_brute(4, k=bad)


def test_extremal_report_builds_no_subset(monkeypatch):
    for n, k in [(n, k) for n in (4, 6, 8) for k in range(binom(n, n // 2) + 1)]:
        built_pair = construct_extremal(n, k)
        built = count_subset_builds(monkeypatch)
        report = built_pair.to_json()
        monkeypatch.undo()
        assert built == []
        pairs = disjoint_pairs(built_pair.family_a, built_pair.family_b)
        assert (report["pair_count"], report["is_matching"]) == \
            (pairs.pair_count, pairs.is_matching)
        assert report["family_a"] == [format_subset(s) for s in built_pair.family_a]
        assert report["family_b"] == [format_subset(s) for s in built_pair.family_b]


@st.composite
def size_rule_pairs(draw):
    """(n, masks_a, masks_b): two canonical mask families on {1..n}, n <= 12,
    of mixed sizes, with the empty set, the full set and complements of
    members of A drawn often, so that both the scan of A's smaller members
    and the complement lookup find pairs.  Either family may be empty."""
    n = draw(st.integers(1, 12))
    full = (1 << n) - 1
    member = st.one_of(st.integers(0, full), st.sampled_from([0, full]))
    masks_a = canonical_masks(draw(st.lists(member, max_size=10)))
    if masks_a:
        member = st.one_of(member, st.sampled_from(masks_a).map(full.__xor__))
    return n, masks_a, canonical_masks(draw(st.lists(member, max_size=10)))


@settings(max_examples=300, deadline=None)
@given(size_rule_pairs())
def test_the_size_rule_counts_the_pairs_of_the_all_pairs_definition(drawn):
    n, masks_a, masks_b = drawn
    pairs, matching = pairwise_disjoint_pairs(masks_a, masks_b)
    got = antichains._count_disjoint(antichains._size_index(masks_a), masks_b, n)
    assert got == (len(pairs), matching)


def test_the_extremal_report_at_n_16_stays_within_its_budget():
    # the size rule looks up one complement per half-size member of B; the
    # all-pairs count took 6-8 s at this size on a shared 2-core VM
    built = construct_extremal(16, 12870)
    fastest = min(timeit.repeat(built.to_json, number=1, repeat=3))
    assert fastest <= 2.0, f"to_json at n = 16 took {fastest:.2f} s"
