"""Shadows, shades, their new- variants, and cascade representations."""

import dataclasses
import inspect
import random
import re
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from kktools import (
    CascadeRep,
    _pure,
    SetFamily,
    Subset,
    binom,
    cascade_rep,
    first_segment,
    format_subset,
    kappa,
    kk_shadow_min,
    last_segment,
    level_masks,
    new_shade,
    new_shadow,
    segment_after,
    shade,
    shadow,
    verify_clements_minimality,
    verify_kkt,
    verify_lieby_duality,
)
from kktools import shadows as shadows_module
from kktools.binomials import _cascade_terms
from kktools.shadows import _shadow_formula


def test_shadow_of_triangle():
    fam = SetFamily.of([(1, 2, 3)], 5)
    assert sorted(format_subset(s) for s in shadow(fam)) == ["12", "13", "23"]


def test_shade_of_singleton_family():
    fam = SetFamily.of([(2,)], 4)
    assert sorted(format_subset(s) for s in shade(fam)) == ["12", "23", "24"]


def test_shadow_requires_uniform_positive_sizes():
    with pytest.raises(ValueError):
        shadow(SetFamily.of([(1,), (1, 2)], 4))
    with pytest.raises(ValueError):
        shadow(SetFamily.of([()], 4))
    with pytest.raises(ValueError):
        shade(SetFamily.of([(1, 2, 3, 4)], 4))


MIXED, EMPTY_SET, FULL = ([(1,), (1, 2)], 4), ([()], 4), ([(1, 2)], 2)


@pytest.mark.parametrize("op, members, message", [
    (shadow, MIXED, "shadow requires a uniform family, got sizes [1, 2]"),
    (new_shade, MIXED, "new_shade requires a uniform family, got sizes [1, 2]"),
    (shadow, EMPTY_SET, "shadow requires member size >= 1"),
    (new_shadow, EMPTY_SET, "new_shadow requires member size >= 1"),
    (shade, FULL, "shade requires member size < ground set size"),
    (new_shade, FULL, "new_shade requires member size < ground set size"),
])
def test_level_moves_name_themselves_in_errors(op, members, message):
    with pytest.raises(ValueError) as exc:
        op(SetFamily.of(*members))
    assert str(exc.value) == message


@pytest.mark.parametrize("op", [shadow, shade, new_shadow, new_shade])
def test_level_move_of_an_empty_family_is_empty(op):
    empty = SetFamily((), 5)
    assert op(empty) == empty and op(empty).ground_n == 5


def test_new_shadow_drops_one_of_the_initial_run():
    # the new shadow of a single k-set keeps only subsets obtained by
    # removing an element of the leading run 1, 2, ...
    fam = SetFamily.of([(1, 2, 5)], 6)
    assert sorted(format_subset(s) for s in new_shadow(fam)) == ["15", "25"]
    fam = SetFamily.of([(3, 4)], 6)  # no leading run at all
    assert new_shadow(fam).masks() == []


def test_new_shade_inserts_below_the_minimum():
    fam = SetFamily.of([(3, 5)], 6)
    assert sorted(format_subset(s) for s in new_shade(fam)) == ["135", "235"]
    fam = SetFamily.of([(1, 4)], 6)  # nothing below the minimum
    assert new_shade(fam).masks() == []


@pytest.mark.parametrize("n", [64, 65])
def test_shade_and_new_shade_past_a_machine_word(n):
    # n = 64 and 65 need masks wider than a machine word; a kernel that
    # held one set per 64-bit word lost every set here.
    low = shade(SetFamily.of([(1,)], n))
    assert len(low) == n - 1
    assert [s.elements for s in low] == [(1, x) for x in range(2, n + 1)]
    # {1, x} belongs to the new shade of {x}, so {1} owns none of its shade
    assert len(new_shade(SetFamily.of([(1,)], n))) == 0
    top = new_shade(SetFamily.of([(n,)], n))
    assert len(top) == n - 1
    assert [s.elements for s in top] == [(x, n) for x in range(1, n)]


@settings(max_examples=60)
@given(st.integers(min_value=1, max_value=7), st.data())
def test_new_shadows_partition_the_prefix_shadow(n, data):
    k = data.draw(st.integers(min_value=1, max_value=n))
    total = binom(n, k)
    m = data.draw(st.integers(min_value=0, max_value=total))
    # union over the first m sets of their new shadows = shadow of the prefix,
    # and the pieces are pairwise disjoint
    pieces = [new_shadow(segment_after(n, k, j, 1)) for j in range(m)]
    union = [x for p in pieces for x in p.masks()]
    assert len(union) == len(set(union))
    if m == 0:
        assert union == []
    else:
        assert sorted(union) == sorted(shadow(first_segment(n, k, m)).masks())


@settings(max_examples=60)
@given(st.integers(min_value=1, max_value=7), st.data())
def test_new_shades_partition_the_suffix_shade(n, data):
    k = data.draw(st.integers(min_value=0, max_value=n - 1))
    total = binom(n, k)
    m = data.draw(st.integers(min_value=1, max_value=total))
    pieces = [new_shade(segment_after(n, k, total - j - 1, 1)) for j in range(m)]
    union = [x for p in pieces for x in p.masks()]
    assert len(union) == len(set(union))
    assert sorted(union) == sorted(shade(last_segment(n, k, m)).masks())


def test_cascade_rep_examples():
    rep = cascade_rep(17, 3)
    assert rep.terms == ((5, 3), (4, 2), (1, 1))
    assert str(rep) == "17 = C(5,3) + C(4,2) + C(1,1)"
    assert rep.shadow_sum() == binom(5, 2) + binom(4, 1) + binom(1, 0) == 15
    assert cascade_rep(0, 4).terms == ()
    assert str(cascade_rep(0, 3)) == "0 = 0 (empty cascade)"
    assert cascade_rep(binom(9, 4), 4).terms == ((9, 4),)


def cascade_violation(m, r, terms):
    """The rules of an r-cascade of m, checked from their definition: None
    when `terms` is one, else the rule it breaks."""
    if type(terms) is not tuple or not all(
            type(t) is tuple and len(t) == 2 and type(t[0]) is type(t[1]) is int
            for t in terms):
        return "terms must be a tuple of (a, i) integer pairs"
    total = 0
    prev_a = None
    for pos, (a, i) in enumerate(terms):
        if i != r - pos or i < 1:
            return f"indices must run {r}, {r - 1}, ... down to at least 1"
        if a < i:
            return f"needs a_i >= i, got C({a}, {i})"
        if prev_a is not None and not a < prev_a:
            return "coefficients must strictly decrease"
        prev_a = a
        total += binom(a, i)
    if total != m:
        return f"terms sum to {total}, not {m}"
    return None


@given(st.integers(min_value=0, max_value=10**40), st.integers(min_value=1, max_value=130))
def test_cascade_rep_reconstructs_and_is_strictly_decreasing(m, r):
    assert cascade_violation(m, r, cascade_rep(m, r).terms) is None


def one_step_perturbations(terms, r):
    """Every one-step change of a cascade: one a_i moved by +-1, the last
    term dropped, or a term appended one level below the last."""
    for pos, (a, i) in enumerate(terms):
        for da in (-1, 1):
            yield terms[:pos] + ((a + da, i),) + terms[pos + 1:]
    if terms:
        yield terms[:-1]
    a_last, i_last = terms[-1] if terms else (r + 2, r + 1)
    yield terms + ((a_last - 1, i_last - 1),)


@given(st.integers(min_value=0, max_value=10**40), st.integers(min_value=1, max_value=130))
def test_cascade_oracle_rejects_every_one_step_perturbation(m, r):
    # uniqueness: no neighbour of the greedy cascade is a cascade of m
    terms = cascade_rep(m, r).terms
    for other in one_step_perturbations(terms, r):
        assert cascade_violation(m, r, other) is not None, other


@pytest.mark.parametrize("m, r", [
    (10**7, 1), (10**14, 2), (10**24, 3), (10**100, 12), (binom(200, 100) - 1, 100),
    *((random.Random(r).randrange(binom(40, r) + 1), r) for r in range(1, 13)),
    # either side of 2**r, where the top bracket stops being r + bit length
    *((m, r) for r in (1, 2, 3, 8, 40, 129) for m in (2**r - 1, 2**r, 2**r + 1))])
def test_cascade_rep_is_greedy_for_huge_m(m, r):
    # each a_i is the largest with C(a_i, i) <= the remainder left at level i
    rep = cascade_rep(m, r)
    rem = m
    for a, i in rep.terms:
        assert binom(a, i) <= rem < binom(a + 1, i)
        rem -= binom(a, i)
    assert rem == 0
    if r == 1:
        assert kk_shadow_min(m, 1) == 1


@pytest.mark.parametrize("r", [10**5, 10**6, 2**70])
def test_cascade_of_a_small_m_at_a_huge_level(r):
    # m <= r takes C(r, r) + C(r-1, r-1) + ..., never C(2r, r)
    for m in (0, 1, 2, 7, 64):
        assert cascade_rep(m, r).terms == tuple((r - j, r - j) for j in range(m))
        assert kk_shadow_min(m, r) == m * r - m * (m - 1) // 2
    assert kappa(r, 1) == r - 1  # 999,999 at r = 10**6


@pytest.mark.parametrize("m, r, terms, rule", [
    (5, 2, ((2, 2), (2, 1)), "strictly decrease"),
    (4, 2, ((3, 2), (0, 1)), "a_i >= i"),
    (9, 2, ((3, 2), (2, 1)), "sum to 5, not 9"),
    (1, 1, None, "terms must be a tuple"),
    (1, 1, [[1, 1]], "terms must be a tuple"),
    (3, 2, ((3, 2, 0),), "terms must be a tuple"),
    (1, 1, ((1, True),), "terms must be a tuple"),
    (3, 2, ((3, 2.0),), "terms must be a tuple"),
    (4, 1, ((3, 1), (2, 0), (1, -1)), "indices"),
    (3, 2, ((2, 2),), "sum to 1, not 3"),
    (1, 2, ((1, 2),), "a_i >= i"),
])
def test_cascade_oracle_names_the_broken_rule(m, r, terms, rule):
    assert rule in cascade_violation(m, r, terms)


def test_cascade_rep_validation():
    with pytest.raises(ValueError):
        cascade_rep(-1, 2)
    with pytest.raises(ValueError):
        cascade_rep(3, 0)
    # a float field is named, not carried into the sum or the printed form
    with pytest.raises(ValueError, match="level_r must be an integer"):
        CascadeRep(0, 1.5)
    with pytest.raises(ValueError, match="value_m must be an integer"):
        CascadeRep(1.0, 1)
    with pytest.raises(ValueError, match="level_r must be an integer"):
        CascadeRep(3, 2.0)
    with pytest.raises(ValueError, match="level_r must be an integer"):
        CascadeRep(1, True)
    with pytest.raises(ValueError, match="need level_r >= 1, got 0"):
        CascadeRep(0, 0)
    with pytest.raises(ValueError, match="need value_m >= 0, got -1"):
        CascadeRep(-1, 2)


def test_cascade_rep_takes_only_its_value_and_level():
    assert list(inspect.signature(CascadeRep).parameters) == ["value_m", "level_r"]
    with pytest.raises(TypeError):
        CascadeRep(3, 2, ((3, 2),))
    for m, r in ((0, 1), (17, 3), (10**30, 7)):
        assert CascadeRep(m, r) == cascade_rep(m, r)
        assert hash(CascadeRep(m, r)) == hash(cascade_rep(m, r))
    moved = dataclasses.replace(cascade_rep(17, 3), value_m=18)
    assert moved.terms == cascade_rep(18, 3).terms


def test_kk_shadow_min_examples():
    assert kk_shadow_min(5, 2) == 4
    assert kk_shadow_min(0, 3) == 0
    # initial segments attain the bound exactly
    for n, k in ((5, 2), (6, 3), (7, 4)):
        for m in range(binom(n, k) + 1):
            fam = first_segment(n, k, m)
            got = len(shadow(fam)) if m else 0
            assert got == kk_shadow_min(m, k)


@pytest.mark.parametrize("r", range(1, 9))
def test_cascade_walk_matches_each_cascade(r):
    # every k <= C(2r, r) + 2r: the walk yields the shadow formula of k's
    # cascade, computed afresh
    top = binom(2 * r, r) + 2 * r
    walked = list(islice(shadows_module._cascade_walk(r), top + 1))
    assert walked == [kk_shadow_min(k, r) for k in range(top + 1)], r
    assert all(type(value) is int for value in walked)


@pytest.mark.parametrize("r, widest", [(2, 447), (3, 85)])
def test_cascade_walk_matches_each_cascade_far_out(r, widest):
    # k <= 10**5 at low levels: at r = 2 the top coefficient passes 400,
    # and at r = 3 the folds chain, so one step drops r - 1 terms
    drops, before = set(), 0
    for k, value in enumerate(islice(shadows_module._cascade_walk(r), 10**5 + 1)):
        terms = _cascade_terms(k, r)
        assert value == _shadow_formula(terms), (r, k)
        drops.add(before - len(terms))
        before = len(terms)
    assert terms[0] == (widest, r)
    assert r - 1 in drops


def test_kkt_sweep_passes():
    rep = verify_kkt(n_max=8, samples=120, seed=7)
    assert rep.passed


@pytest.mark.parametrize("kwargs, name", [({"n_max": 0}, "n_max"),
                                          ({"samples": -1}, "samples"),
                                          ({"sample_n_max": 1}, "sample_n_max"),
                                          ({"seed": 2.5}, "seed"),
                                          ({"seed": None}, "seed")])
def test_kkt_sweep_rejects_bad_arguments(kwargs, name):
    with pytest.raises(ValueError, match=name):
        verify_kkt(**kwargs)


@pytest.mark.parametrize("sweep, kwargs, message", [
    (verify_kkt, {"n_max": 23}, "verify_kkt: need 1 <= n_max <= 22, got 23"),
    (verify_kkt, {"n_max": 2, "samples": 50, "sample_n_max": 21},
     "verify_kkt: need 2 <= sample_n_max <= 20, got 21"),
    (verify_lieby_duality, {"n": 23}, "verify_lieby_duality: need 1 <= n <= 22, got 23"),
    (verify_clements_minimality, {"n": 17},
     "verify_clements_minimality: need 1 <= n <= 16, got 17"),
])
def test_shadow_sweeps_refuse_ground_sets_past_their_cap(monkeypatch, sweep, kwargs,
                                                         message):
    # one past each cap is refused before any level is built
    def no_level(*args):
        raise AssertionError("a level was built")

    monkeypatch.setattr(shadows_module, "level_masks", no_level)
    with pytest.raises(ValueError, match=re.escape(message)):
        sweep(**kwargs)


def test_kkt_sweep_builds_each_sampled_level_once(monkeypatch):
    calls = []

    def counting(n, k):
        calls.append((n, k))
        return level_masks(n, k)

    monkeypatch.setattr(shadows_module, "level_masks", counting)
    rep = verify_kkt(n_max=1, samples=200, seed=3, sample_n_max=4)
    assert rep.passed
    assert len(calls) == len(set(calls)) <= 1 + 2 + 3 + 4
    # no sample: only the tightness cells m = 0, 1 of the one level {1}
    assert verify_kkt(n_max=1, samples=0).checks_run == 2


def test_kkt_sweep_slices_each_sampled_level_from_the_tightness_levels(monkeypatch):
    # level k of {1..n} is a prefix of level k of {1..9}, so the samples at
    # n <= 9 build no level of their own
    calls = []

    def counting(n, k):
        calls.append((n, k))
        return level_masks(n, k)

    monkeypatch.setattr(shadows_module, "level_masks", counting)
    assert verify_kkt(n_max=9).passed
    assert calls == [(9, k) for k in range(1, 10)]


@pytest.mark.parametrize("n_max, sample_n_max", [(7, 5), (7, 7), (2, 7), (1, 9)])
def test_kkt_samples_draw_the_families_of_their_own_levels(monkeypatch, n_max,
                                                           sample_n_max):
    # a shadow-size kernel that counts nothing fails every nonempty sample;
    # the reported families are the draws of the seeded stream from
    # level_masks(n, k) itself, whether the level is a prefix of a
    # tightness level or one held past n_max
    monkeypatch.setattr(_pure, "_shadow_size", lambda masks, columns: 0)
    rep = verify_kkt(n_max=n_max, samples=150, seed=8, sample_n_max=sample_n_max)
    rng = random.Random(8)
    want = []
    for _ in range(150):
        n = rng.randint(2, sample_n_max)
        k = rng.randint(1, n)
        level = level_masks(n, k)
        m = rng.randint(0, len(level))
        fam = rng.sample(level, m)
        if m:
            want.append({"part": "lower-bound", "n": n, "k": k, "m": m,
                         "shadow": 0, "formula": kk_shadow_min(m, k),
                         "family": sorted(fam)})
    assert [v for v in rep.violations if v["part"] == "lower-bound"] == want


def test_kkt_sweep_takes_one_cascade_per_cell(monkeypatch):
    walk = shadows_module._cascade_walk
    walks, steps = [], {}

    def counting(r):
        walks.append(r)
        for value in walk(r):
            steps[r] = steps.get(r, 0) + 1
            yield value

    monkeypatch.setattr(shadows_module, "_cascade_walk", counting)
    rep = verify_kkt(n_max=9, samples=300, seed=11)
    assert rep.passed
    # one walk per level, one step per cell (m, k): the tightness cells with
    # m <= C(9, k) are every distinct cell the samples can draw
    assert walks == list(range(1, 10))
    assert steps == {k: binom(9, k) + 1 for k in range(1, 10)}


@pytest.mark.parametrize("n_max", [1, 5, 9])
def test_kkt_tightness_walks_each_level_of_the_largest_ground_set_once(monkeypatch, n_max):
    # level k of {1..n} is the first C(n, k) sets of level k of {1..n_max},
    # so with no samples the tightness half builds each level of {1..n_max}
    # once and walks its formula column exactly that far, however large
    # sample_n_max is
    walk = shadows_module._cascade_walk
    calls, steps = [], {}

    def counting_level(n, k):
        calls.append((n, k))
        return level_masks(n, k)

    def counting_walk(r):
        for value in walk(r):
            steps[r] = steps.get(r, 0) + 1
            yield value

    monkeypatch.setattr(shadows_module, "level_masks", counting_level)
    monkeypatch.setattr(shadows_module, "_cascade_walk", counting_walk)
    rep = verify_kkt(n_max=n_max, samples=0, sample_n_max=20)
    assert rep.passed
    assert rep.checks_run == sum(binom(n, k) + 1 for n in range(1, n_max + 1)
                                 for k in range(1, n + 1))
    assert calls == [(n_max, k) for k in range(1, n_max + 1)]
    assert steps == {k: binom(n_max, k) + 1 for k in range(1, n_max + 1)}


def test_kkt_tightness_reports_a_fault_only_where_the_level_reaches_it(monkeypatch):
    # each faulty m is one past the level size of a smaller ground set:
    # C(3, 2) = 3 and C(6, 3) = 20, so (4, 2) is read from n = 4 on and
    # (21, 3) only at n = 7, in n-major order
    walk = shadows_module._cascade_walk

    def off_by_one(r):
        for m, value in enumerate(walk(r)):
            yield value + ((m, r) in {(4, 2), (21, 3)})

    monkeypatch.setattr(shadows_module, "_cascade_walk", off_by_one)
    rep = verify_kkt(n_max=7, samples=0)
    cells = [(n, 2, 4) for n in range(4, 8)] + [(7, 3, 21)]
    assert rep.violations == [{"part": "tightness", "n": n, "k": k, "m": m,
                               "shadow": kk_shadow_min(m, k),
                               "formula": kk_shadow_min(m, k) + 1}
                              for n, k, m in cells]


def test_kkt_reports_a_wrong_formula_at_every_cell_that_uses_it(monkeypatch):
    # the formula is off at one (m, k) = (3, 2); every level with three
    # 2-sets has a tightness cell there, and every sample drawn there with
    # shadow 3 (a triangle) is a lower-bound violation
    walk = shadows_module._cascade_walk

    def off_by_one(r):
        for m, value in enumerate(walk(r)):
            yield value + ((m, r) == (3, 2))

    monkeypatch.setattr(shadows_module, "_cascade_walk", off_by_one)
    rep = verify_kkt(n_max=7, samples=400, seed=13, sample_n_max=5)
    tight = [v for v in rep.violations if v["part"] == "tightness"]
    assert tight == [{"part": "tightness", "n": n, "k": 2, "m": 3,
                      "shadow": 3, "formula": 4} for n in range(3, 8)]
    lower = [v for v in rep.violations if v["part"] == "lower-bound"]
    rng = random.Random(13)
    want = []
    for _ in range(400):
        n = rng.randint(2, 5)
        k = rng.randint(1, n)
        level = level_masks(n, k)
        m = rng.randint(0, len(level))
        fam = rng.sample(level, m)
        if (m, k) == (3, 2) and len(_pure.shadow_masks(fam)) == 3:
            want.append({"part": "lower-bound", "n": n, "k": 2, "m": 3,
                         "shadow": 3, "formula": 4, "family": sorted(fam)})
    assert want
    assert lower == want


def test_kkt_lower_bound_reports_the_sampled_families(monkeypatch):
    # a shadow-size kernel that counts nothing fails every nonempty sample;
    # each reported family must still be m distinct k-subsets of {1..n}
    monkeypatch.setattr(_pure, "_shadow_size", lambda masks, columns: 0)
    rep = verify_kkt(n_max=1, samples=60, seed=5, sample_n_max=6)
    found = [v for v in rep.violations if v["part"] == "lower-bound"]
    assert len(found) >= 30
    for v in found:
        fam = v["family"]
        assert len(set(fam)) == len(fam) == v["m"] >= 1
        assert all(0 < mask < 1 << v["n"] and mask.bit_count() == v["k"]
                   for mask in fam)


def test_kkt_randomized_families_respect_bound_direct():
    import random

    rng = random.Random(99)
    for _ in range(150):
        n = rng.randint(2, 7)
        k = rng.randint(1, n)
        lvl = level_masks(n, k)
        m = rng.randint(1, len(lvl))
        fam = SetFamily.from_masks(rng.sample(lvl, m), n)
        assert len(shadow(fam)) >= kk_shadow_min(m, k)


def test_lieby_duality_small():
    for n in range(2, 9):
        rep = verify_lieby_duality(n)
        assert rep.passed, rep.violations[:3]


def test_lieby_duality_spot_check():
    # shadow sizes of prefixes at level k match shade sizes of suffixes at n-k
    n, k, m = 6, 2, 7
    a = len(shadow(first_segment(n, k, m)))
    b = len(shade(last_segment(n, n - k, m)))
    assert a == b


def test_clements_window_minimality():
    for n, k in ((5, 2), (6, 3)):
        rep = verify_clements_minimality(n, k)
        assert rep.passed, rep.violations[:3]
        total = binom(n, k)
        # every window length m = 0..total, each window checked both ways
        assert rep.checks_run == (total + 1) * (total + 2)


def test_clements_spot_window():
    # middle windows never beat the boundary windows of the same length
    n, k, m = 6, 3, 5
    total = binom(n, k)
    last = len(new_shadow(last_segment(n, k, m)))
    first = len(new_shade(first_segment(n, k, m)))
    for start in range(total - m + 1):
        win = segment_after(n, k, start, m)
        assert len(new_shadow(win)) >= last
        assert len(new_shade(win)) >= first


def oracle_clements(n, k):
    """The per-window sweep: one kernel call per window and direction.
    Returns (checks_run, violations) in the sweep's order."""
    level = level_masks(n, k)
    total = len(level)
    checks, violations = 0, []
    for m in range(total + 1):
        base_nsh = len(_pure.new_shadow_masks(level[total - m:]))
        base_nse = len(_pure.new_shade_masks(level[:m], n))
        for r in range(total - m + 1):
            window = level[r:r + m]
            checks += 2
            got_nsh = len(_pure.new_shadow_masks(window))
            got_nse = len(_pure.new_shade_masks(window, n))
            if got_nse < base_nse:
                violations.append({"part": "new-shade", "m": m, "r": r,
                                   "window": got_nse, "first-segment": base_nse})
            if got_nsh < base_nsh:
                violations.append({"part": "new-shadow", "m": m, "r": r,
                                   "window": got_nsh, "last-segment": base_nsh})
    return checks, violations


def test_clements_prefix_sums_match_per_window_oracle():
    for n in range(1, 8):
        for k in range(1, n + 1):
            rep = verify_clements_minimality(n, k)
            assert (rep.checks_run, rep.violations) == oracle_clements(n, k), (n, k)


# {1,4,5} and {2,3,6} sit in the middle of the 20 3-subsets of {1..6}
# (ranks 7 and 12) and each owns one set that a boundary window of the same
# length needs to tie
@pytest.mark.parametrize("kernel, part, elements", [
    pytest.param("new_shadow_masks", "new-shadow", (1, 4, 5), id="new-shadow"),
    pytest.param("new_shade_masks", "new-shade", (2, 3, 6), id="new-shade")])
def test_clements_sweep_and_oracle_agree_on_a_faulty_kernel(monkeypatch, kernel,
                                                            part, elements):
    # a kernel that loses one owned set of a middle mask makes windows
    # through that mask look smaller than the boundary segment
    n, k = 6, 3
    real = getattr(_pure, kernel)
    ground = () if kernel == "new_shadow_masks" else (n,)  # up kernels only
    target = Subset(elements, n).mask
    assert real([target], *ground)

    def drops_one(masks, *ground):
        out = []
        for mask in masks:
            owned = real([mask], *ground)
            out += owned[1:] if mask == target else owned
        return sorted(out)

    monkeypatch.setattr(_pure, kernel, drops_one)
    rep = verify_clements_minimality(n, k)
    assert rep.violations
    assert {v["part"] for v in rep.violations} == {part}
    assert (rep.checks_run, rep.violations) == oracle_clements(n, k)


def test_lieby_duality_reports_a_shade_size_off_by_one(monkeypatch):
    # the shade of the last three 2-sets of {1..4}, {124, 134, 234}, read as 4
    real = _pure.suffix_shade_sizes

    def faulty(masks, n):
        sizes = real(masks, n)
        if masks[0].bit_count() == 2:
            sizes[3] += 1
        return sizes

    monkeypatch.setattr(_pure, "suffix_shade_sizes", faulty)
    rep = verify_lieby_duality(4)
    assert rep.checks_run == sum(binom(4, k) + 1 for k in range(1, 5))
    assert rep.violations == [{"n": 4, "k": 2, "m": 3, "shadow": 3, "shade": 4}]


def test_lieby_duality_rejects_a_short_size_list(monkeypatch):
    real = _pure.suffix_shade_sizes
    monkeypatch.setattr(_pure, "suffix_shade_sizes",
                        lambda masks, n: real(masks, n)[:10])
    with pytest.raises(ValueError):
        verify_lieby_duality(6)


# (call, arguments, value or ValueError): zero, negative, past-level-size and
# non-integer arguments across the public surface of kktools.shadows.  A
# family stands for its masks, a cascade for its terms and a report for its
# `passed` flag.
EDGE_CASES = [
    (cascade_rep, (2.5, 2), ValueError),
    (cascade_rep, (2.0, 2), ValueError),
    (cascade_rep, (2, 2.0), ValueError),
    (cascade_rep, (-1, 2), ValueError),
    (cascade_rep, (5, 0), ValueError),
    (cascade_rep, (5, -1), ValueError),
    (cascade_rep, (0, 1), ()),
    (cascade_rep, (10**30, 1), ((10**30, 1),)),
    (kk_shadow_min, (2.5, 2), ValueError),
    (kk_shadow_min, (-1, 3), ValueError),
    (kk_shadow_min, (4, 0), ValueError),
    (kk_shadow_min, (0, 3), 0),
    (kk_shadow_min, (1, 3), 3),
    (CascadeRep, (0, 0), ValueError),
    (CascadeRep, (-1, 2), ValueError),
    (CascadeRep, (2, 2), ((2, 2), (1, 1))),
    (shadow, (SetFamily((), 3),), []),
    (shadow, (SetFamily.of([()], 3),), ValueError),
    (shadow, (SetFamily.of([[1], [1, 2]], 3),), ValueError),
    (shadow, (SetFamily.of([[1, 2]], 3),), [0b1, 0b10]),
    (shade, (SetFamily((), 3),), []),
    (shade, (SetFamily.of([[1, 2, 3]], 3),), ValueError),
    (shade, (SetFamily.of([[1]], 2),), [0b11]),
    (new_shadow, (SetFamily.of([()], 3),), ValueError),
    (new_shadow, (SetFamily.of([[1, 3]], 3),), [0b100]),
    (new_shade, (SetFamily.of([[1, 2, 3]], 3),), ValueError),
    (new_shade, (SetFamily.of([[3]], 3),), [0b101, 0b110]),
    (verify_kkt, (2.5,), ValueError),
    (verify_kkt, (2, 1.0), ValueError),
    (verify_kkt, (2, 0, 1, 2.0), ValueError),
    (verify_kkt, (0,), ValueError),
    (verify_kkt, (2, -1), ValueError),
    (verify_kkt, (2, 0, 1, 1), ValueError),
    (verify_kkt, (1, 0), True),
    (verify_lieby_duality, (2.0,), ValueError),
    (verify_lieby_duality, (0,), ValueError),
    (verify_lieby_duality, (-1,), ValueError),
    (verify_lieby_duality, (1,), True),
    (verify_clements_minimality, (4.0, 2), ValueError),
    (verify_clements_minimality, (4, 2.0), ValueError),
    (verify_clements_minimality, (4, 0), ValueError),
    (verify_clements_minimality, (4, 5), ValueError),
    (verify_clements_minimality, (-1, 1), ValueError),
    (verify_clements_minimality, (1, 1), True),
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
        elif isinstance(got, CascadeRep):
            got = got.terms
        elif hasattr(got, "passed"):
            got = got.passed
        assert got == want, (call.__name__, args, got)


@pytest.mark.parametrize("call, args, name", [
    (cascade_rep, (2.5, 2), "m"),
    (verify_kkt, (2, 1.0), "samples"),
    (verify_clements_minimality, (4, 2.0), "k"),
])
def test_non_integer_arguments_are_named_in_the_error(call, args, name):
    with pytest.raises(ValueError, match=rf"\b{name}\b"):
        call(*args)


def test_clements_sweep_merges_every_level_by_default():
    rep = verify_clements_minimality(6)
    assert rep.params == {"n": 6, "k": "1..n-1"}
    assert rep.checks_run == 1118 == sum(
        verify_clements_minimality(6, k).checks_run for k in range(1, 6))
    assert rep.passed and verify_clements_minimality().to_json()["params"] == rep.params


def test_merged_clements_violations_are_tagged_with_their_level(monkeypatch):
    # a new-shade kernel that inflates the first set of each level makes the
    # first window lose to later ones; the merged report must list each
    # level's violations in level order, each tagged with its k
    real = _pure.new_shade_masks
    monkeypatch.setattr(_pure, "new_shade_masks", lambda masks, n: real(masks, n) + (
        [0] * 4 if masks[0] == (1 << masks[0].bit_count()) - 1 else []))
    per_level = [(k, verify_clements_minimality(5, k)) for k in range(1, 5)]
    assert all(rep.violations for _, rep in per_level)
    merged = verify_clements_minimality(5)
    assert merged.violations == [{**v, "k": k} for k, rep in per_level
                                 for v in rep.violations]
    assert merged.checks_run == sum(rep.checks_run for _, rep in per_level)
