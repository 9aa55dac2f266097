"""Antichains, Sperner operations, and the cross-intersecting maximum.

The central quantity: over ordered pairs (A, B) of antichains in the subset
lattice of {1..n} whose disjointness relation {(a, b) : a ∩ b = ∅} forms a
partial matching of size at most k, the maximum of |A| + |B| equals
C(n, n/2) + C(n, n/2+1) - kappa*_{n/2}(k) for even n.  This module carries
the bound, an explicit construction meeting it, and brute-force oracles
that settle the small cases by full enumeration.
"""

from __future__ import annotations

import sys
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, groupby, islice
from math import comb

from . import _pure
from .binomials import binom, _cascade_terms, _check_int, _check_type
from .kappa import _run_column, _star_cut
from .report import VerificationReport, timed
from .squashed import (SetFamily, Subset, _canonical, _masks_text, format_subset,
                       level_masks)

DEDEKIND_COUNTS = {1: 3, 2: 6, 3: 20, 4: 168, 5: 7581, 6: 7828354}
# Below this many pairs, two levels are compared pair by pair: a shade or
# shadow kernel call costs more (measured on the antichains of {1..5}).
_PAIRS_PER_KERNEL_CALL = 64
# The largest even n of construct_extremal and the extremal sweep
_MAX_EXTREMAL_N = 22  # the pair holds 1,352,078 masks there


def _is_antichain_masks(masks) -> bool:
    """True iff no mask is a proper subset of another.

    Two distinct sets of one size never nest, so each level is compared
    with the larger levels only, pair by pair.  A set nests in one of the
    next size iff it lies in the shadow of the upper level, or equivalently
    the upper set lies in its shade.  So two adjacent levels with more than
    _PAIRS_PER_KERNEL_CALL pairs are compared by whichever of the shade and
    the shadow is smaller, plus a set test.
    """
    levels = [list(grp) for _, grp in
              groupby(sorted(masks, key=int.bit_count), key=int.bit_count)]
    for i, lower in enumerate(levels):
        size = lower[0].bit_count()
        for upper in levels[i + 1:]:
            if upper[0].bit_count() == size + 1 \
                    and len(lower) * len(upper) > _PAIRS_PER_KERNEL_CALL:
                # the shade inside the upper level's ground set suffices
                n = max(upper).bit_length()
                if len(lower) * (n - size) <= len(upper) * (size + 1):
                    near, other = _pure.shade_masks(lower, n), upper
                else:
                    near, other = _pure.shadow_masks(upper), lower
                if not near.isdisjoint(other):
                    return False
                continue
            for a in lower:
                for b in upper:
                    if a & b == a:
                        return False
    return True


def is_antichain(fam: SetFamily) -> bool:
    """True iff no member contains another."""
    _check_type("is_antichain", "fam", fam, SetFamily)
    return _is_antichain_masks(fam.masks())


def _require_antichain(fam: SetFamily, op: str) -> None:
    if len(fam) == 0:
        raise ValueError(f"{op} requires a nonempty antichain")
    if not is_antichain(fam):
        raise ValueError(f"{op} requires an antichain")


def _sperner_move(fam: SetFamily, op: str, down: bool) -> SetFamily:
    """sperner_down (down) or sperner_up on the member masks.  The masks
    come in canonical order, sizes ascending, so the top level is a suffix
    and the bottom level a prefix."""
    _check_type(op, "fam", fam, SetFamily)
    _require_antichain(fam, op)
    masks, n = fam.masks(), fam.ground_n
    if masks == [0] or masks == [(1 << n) - 1]:
        raise ValueError(f"{op} is not defined on the one-member extremes")
    sizes = list(map(int.bit_count, masks))
    if down:
        cut = bisect_left(sizes, sizes[-1])
        moved = _pure.shadow_masks(masks[cut:])
        return SetFamily.from_masks(moved.union(masks[:cut]), n)
    cut = bisect_right(sizes, sizes[0])
    moved = _pure.shade_masks(masks[:cut], n)
    return SetFamily.from_masks(moved.union(masks[cut:]), n)


def sperner_down(fam: SetFamily) -> SetFamily:
    """Replace the top level of an antichain by its shadow.

    The result is again an antichain whose top level dropped by one.  The
    two one-member extremes (just the empty set, just the full ground set)
    are rejected, as the operation is used strictly between them.
    """
    return _sperner_move(fam, "sperner_down", down=True)


def sperner_up(fam: SetFamily) -> SetFamily:
    """Replace the bottom level of an antichain by its shade; dual to
    sperner_down, raising the bottom level by one."""
    return _sperner_move(fam, "sperner_up", down=False)


@dataclass(frozen=True)
class DisjointPairReport:
    """The disjointness relation between two families."""

    pairs: tuple[tuple[Subset, Subset], ...]
    pair_count: int
    is_matching: bool

    def to_json(self) -> dict:
        return {
            "pairs": [[format_subset(a), format_subset(b)] for a, b in self.pairs],
            "pair_count": self.pair_count,
            "is_matching": self.is_matching,
        }


def disjoint_pairs(a: SetFamily, b: SetFamily) -> DisjointPairReport:
    """All (x, y) with x in a, y in b and x ∩ y = ∅, in canonical order;
    is_matching records whether no set occurs in two pairs.  A Subset is
    built only for a member that occurs in a pair, once."""
    _check_type("disjoint_pairs", "a", a, SetFamily)
    _check_type("disjoint_pairs", "b", b, SetFamily)
    if a.ground_n != b.ground_n:
        raise ValueError(f"disjoint_pairs: families must share a ground set, "
                         f"got {a.ground_n} and {b.ground_n}")
    n, masks_b = a.ground_n, b.masks()
    hits = [(x, y) for x in a.masks() for y in masks_b if not x & y]
    xs = {x: Subset.from_mask(x, n) for x in {x for x, _ in hits}}
    ys = {y: Subset.from_mask(y, n) for y in {y for _, y in hits}}
    return DisjointPairReport(tuple((xs[x], ys[y]) for x, y in hits), len(hits),
                              len(xs) == len(hits) == len(ys))


def theorem25_bound(n: int, k: int) -> int:
    """C(n, n/2) + C(n, n/2+1) - kappa*_{n/2}(k) for even 4 <= n <=
    2 * sys.maxsize, where C(n, n/2) is within binom's reach, and
    0 <= k <= C(n, n/2).

    kappa* is read off Thm 2.3, not taken as a running minimum: with r = n/2,
    kappa*_r(k) is kappa of the cascade of k cut before its first
    a_i < 2i - 1, summed in the same pass (kappa._star_cut).  So the cost is
    O(r): one cascade of at most r terms, where kappa_star's running minimum
    computes k + 1 cascades.
    """
    _check_int("theorem25_bound", "n", n, 4, 2 * sys.maxsize, even=True)
    half = binom(n, n // 2)
    _check_int("theorem25_bound", "k", k, 0, half)
    r = n // 2
    return half + binom(n, r + 1) - _star_cut(_cascade_terms(k, r))[1]


@dataclass(frozen=True)
class ExtremalConstruction:
    """A pair of antichains meeting the bound for the given n, k."""

    n: int
    k: int
    family_a: SetFamily
    family_b: SetFamily
    case: str
    chosen_m: int | None

    @property
    def total(self) -> int:
        return len(self.family_a) + len(self.family_b)

    def to_json(self) -> dict:
        masks_a, masks_b = self.family_a.masks(), self.family_b.masks()
        pair_count, matching = _count_disjoint(masks_a, masks_b, self.n)
        return {
            "n": self.n,
            "k": self.k,
            "case": self.case,
            "m": self.chosen_m,
            "total": self.total,
            "bound": theorem25_bound(self.n, self.k),
            "family_a": _masks_text(masks_a, self.n),
            "family_b": _masks_text(masks_b, self.n),
            "pair_count": pair_count,
            "is_matching": matching,
        }


def _count_disjoint(a_masks, b_masks, n: int) -> tuple[int, bool]:
    """(pair count, is_matching) between A's and B's distinct masks on
    {1..n}.  A member x of A misses a member y of B only when
    |x| <= n - |y|, and at equality x is y's complement: one set lookup,
    with the smaller members of A still scanned."""
    full = (1 << n) - 1
    by_size = groupby(sorted(a_masks, key=int.bit_count), int.bit_count)
    index = {size: set(run) for size, run in by_size}
    pairs = []  # (x, y): x in A disjoint from y in B
    for size, run in groupby(b_masks, int.bit_count):
        run = list(run)
        smaller = [x for s, xs in index.items() if s < n - size for x in xs]
        pairs += [(x, y) for y in run for x in smaller if not x & y]
        same = index.get(n - size, ())
        pairs += [(full ^ y, y) for y in run if full ^ y in same]
    return len(pairs), \
        len({x for x, _ in pairs}) == len(pairs) == len({y for _, y in pairs})


def _extremal_step(n: int, y: int) -> tuple[list[int], list[int]]:
    """The rule of one step of the extremal walk: (the masks B takes in, the
    masks it gives up).  B takes in the half-set y and gives up the upper
    sets y owns, y ∪ {e} for e below min(y) (_pure.new_shade_masks).

    An upper set u is owned by u minus its least element, the last of its
    half-size subsets in squashed order.  So while the walk takes the level
    from its end, u is over a half-set of B exactly when its owner is in B:
    the sets y owns are the sets over y still in B, and no other step
    gives them up.
    """
    return [y], _pure.new_shade_masks([y], n)


def _extremal_walk(n: int, family: set[int], a_masks: list[int]):
    """Grow B of construct_extremal, the set family, in place, one m a step.

    B starts at m = 0 as the (n/2+1)-level, and a_masks is the n/2-level.
    Step m takes in the m-th half-set from the end of the level and drops
    the upper sets over it still in B (_extremal_step), so after m steps B
    is construct_extremal's B at m.  Each upper set leaves once: the steps
    propose C(n, n/2+1) removals together.  A step discards its removals
    from family, then adds its additions, through family's own discard and
    add, so a family that keeps counts of itself (_ExtremalTally) sees
    every member that enters or leaves.  Yields once after each step.
    """
    for y in reversed(a_masks):
        added, removed = _extremal_step(n, y)
        for x in removed:
            family.discard(x)
        for x in added:
            family.add(x)
        yield


def construct_extremal(n: int, k: int) -> ExtremalConstruction:
    """An explicit pair of antichains attaining theorem25_bound(n, k).

    Take the least m <= k at which kappa meets kappa*(k), read off the cascade
    of k by Thm 2.3; B becomes the last m half-size sets together with the
    upper middle level minus their shade, paired to A (the full half-size
    level) through the m complements.  B is _extremal_walk run up to m, the
    walk verify_extremal_constructions runs through every m.  Below the
    negativity threshold m = 0 (case i): the two middle levels already do
    it, with no disjoint pair.  Even n runs from 4 to 22: the pair holds
    about C(n, n/2) + C(n, n/2+1) masks, 1,352,078 at n = 22, so a larger n
    is refused up front.
    """
    _check_int("construct_extremal", "n", n, 4, _MAX_EXTREMAL_N, even=True)
    _check_int("construct_extremal", "k", k, 0, comb(n, n // 2))
    r = n // 2
    m = _star_cut(_cascade_terms(k, r))[0]
    a_masks, family = level_masks(n, r), set(level_masks(n, r + 1))
    deque(islice(_extremal_walk(n, family, a_masks), m), maxlen=0)
    return ExtremalConstruction(n, k, SetFamily.from_masks(a_masks, n),
                                SetFamily.from_masks(family, n),
                                "ii" if m else "i", m or None)


def _antichain_steps(n: int):
    """The DFS transitions of _antichain_walk and the Sperner count:
    (order, keep) with order the subsets of {1..n} in SetFamily's canonical
    (size, squashed) order, from _canonical, and keep[i] the bitset of the
    later positions j whose subset does not contain order[i].  An antichain
    whose lowest member is order[i] takes its other members from keep[i].
    Not cached, so a sweep that does not enumerate pays for its own table.
    """
    order = _canonical(range(1 << n))
    keep = [sum(1 << j for j in range(i + 1, len(order)) if a & ~order[j])
            for i, a in enumerate(order)]
    return order, keep


@lru_cache(maxsize=None, typed=True)  # typed: 3.0 must not hit the entry of 3
def enumerate_antichains(n: int) -> tuple[tuple[int, ...], ...]:
    """Every antichain of subsets of {1..n}, each as a tuple of masks in
    canonical (size, squashed) order; includes the empty family and {∅}.

    Subsets are visited level by level, by _antichain_walk's DFS with no
    size floor.  The total count is checked against the known values (168
    at n = 4, 7581 at n = 5).
    """
    _check_int("enumerate_antichains", "n", n, 1, 5)
    out = _antichain_walk(*_antichain_steps(n), None, 0)
    if len(out) != DEDEKIND_COUNTS[n]:
        raise RuntimeError(f"enumerated {len(out)} antichains at n={n}, "
                           f"expected {DEDEKIND_COUNTS[n]}")
    return tuple(out)


def _antichain_profiles(keep) -> dict[int, tuple[int, int]]:
    """The memoized count over _antichain_walk's DFS states: for every
    bitset `allowed` the DFS reaches from the full one, (how many antichains
    have all their members in allowed, their largest size).

    A state's antichains are the empty one plus, for each allowed position
    i, those whose lowest member is order[i], which are counted by the state
    allowed & keep[i].  Distinct states are few (499 at n = 5, 36,751 at
    n = 6), so the count never lists a family: 7,828,354 at n = 6.
    """
    memo = {0: (1, 0)}

    def profile(allowed: int) -> tuple[int, int]:
        got = memo.get(allowed)
        if got is None:
            count, largest = 1, 0
            rest = allowed
            while rest:
                low = rest & -rest
                rest ^= low
                more, deepest = profile(allowed & keep[low.bit_length() - 1])
                count += more
                if deepest >= largest:
                    largest = deepest + 1
            got = memo[allowed] = (count, largest)
        return got

    profile((1 << len(keep)) - 1)
    return memo


def _antichain_walk(order, keep, memo, min_size: int) -> list[tuple[int, ...]]:
    """The antichains with at least min_size members, each a tuple of masks
    in canonical (size, squashed) order, listed in enumerate_antichains'
    order.

    A DFS over the bitset of the subsets still allowed: each branch takes
    the lowest allowed subset and keeps only the later subsets incomparable
    to it (_antichain_steps).  It enters a state only when the state's
    largest antichain (memo, _antichain_profiles) can still fill the members
    missing; antichains inside a state are closed under taking subfamilies,
    so every size up to that largest occurs.  Once at most one member is
    missing every child qualifies and memo is not read, so min_size <= 1
    takes memo = None.
    """
    out: list[tuple[int, ...]] = []

    def visit(prefix: tuple[int, ...], allowed: int, need: int) -> None:
        if need <= 0:
            out.append(prefix)
        need -= 1  # the members each child state must still supply
        while allowed:
            low = allowed & -allowed
            allowed ^= low
            i = low.bit_length() - 1
            child = allowed & keep[i]
            if need <= 0 or memo[child][1] >= need:
                visit(prefix + (order[i],), child, need)

    visit((), (1 << len(order)) - 1, min_size)
    return out


def _brute_force_masks(families, index, k: int, exact: bool = False,
                       require_side: bool = False):
    """One pair scan of families (enumerate_antichains' tuples) through
    their _pure.pair_index: brute_force_max's (max_total, witnesses) with
    each witness a pair of those tuples."""
    best, hits = _pure.scan_pairs(families, index, k, exact, require_side)
    return best, [(families[i], families[j]) for i, j in hits]


def brute_force_max(n: int, k: int, exact: bool = False,
                    require_side: bool = False):
    """Maximum |A|+|B| over ordered antichain pairs with a disjointness
    matching of size <= k, by full enumeration (n <= 5).

    In exact mode the matching size must equal k and k <= min(|A|, |B|);
    require_side imposes that side condition in the at-most mode as well.
    Returns (max_total, witnesses) with every maximizing pair as
    (SetFamily, SetFamily); (-1, []) if no pair qualifies.
    """
    _check_int("brute_force_max", "n", n, 1, 5)
    _check_int("brute_force_max", "k", k, 0)
    _check_type("brute_force_max", "exact", exact, bool)
    _check_type("brute_force_max", "require_side", require_side, bool)
    families = enumerate_antichains(n)
    best, hits = _brute_force_masks(families, _pure.pair_index(families), k,
                                    exact, require_side)
    return best, [(SetFamily.from_masks(a, n), SetFamily.from_masks(b, n))
                  for a, b in hits]


def _witness_json(masks_a, masks_b, text: dict[int, str]) -> dict:
    """One maximizer's report, each mask rendered by the text map."""
    return {
        "family_a": [text[m] for m in masks_a],
        "family_b": [text[m] for m in masks_b],
        "total": len(masks_a) + len(masks_b),
        # all pairs: at n = 4 the size rule's index costs more than it saves
        "pair_count": sum(not x & y for x in masks_a for y in masks_b),
    }


@timed
def verify_thm25_brute(n: int = 4, k: int | None = None,
                       exact: bool = False) -> VerificationReport:
    """Brute-force confirmation that the cross-intersecting maximum equals
    theorem25_bound.

    For each k the sweep records the maximum over all qualifying pairs and,
    separately, over pairs honoring the side condition k <= min(|A|, |B|);
    the first must equal the bound, the second must never exceed it.  In
    exact mode (matching size exactly k) only the no-excess direction is
    asserted, as the equality there is conjectural; exact mode already
    imposes the side condition, so its one scan gives both maxima.  Every
    scan reads one pair index of the antichains, and each distinct mask is
    rendered once per call.
    """
    _check_int("verify_thm25_brute", "n", n, 4, 5, even=True)
    half = comb(n, n // 2)
    if k is not None:
        _check_int("verify_thm25_brute", "k", k, 0, half)
    _check_type("verify_thm25_brute", "exact", exact, bool)
    rep = VerificationReport("thm25-brute", {"n": n, "k": k, "exact": exact})
    ks = [k] if k is not None else list(range(half + 1))
    families = enumerate_antichains(n)
    index = _pure.pair_index(families)
    text = dict(zip(index[1], _masks_text(index[1], n)))
    for kk in ks:
        bound = theorem25_bound(n, kk)
        best, wits = _brute_force_masks(families, index, kk, exact)
        best_side = best if exact else \
            _brute_force_masks(families, index, kk, require_side=True)[0]
        rep.checks_run += 1
        if exact:
            failed = best > bound
        else:
            failed = best != bound or best_side > bound
        if failed:
            rep.violations.append({"k": kk, "bound": bound, "max_total": best,
                                   "max_total_side_condition": best_side})
        rep.witnesses.append({
            "k": kk, "bound": bound, "max_total": best,
            "max_total_side_condition": best_side,
            "maximizer_count": len(wits),
            "maximizers": [_witness_json(a, b, text) for a, b in wits[:8]],
        })
    return rep


@timed
def verify_thm26_structure(n: int = 4,
                           k: int | None = None) -> VerificationReport:
    """Structure of every brute-force maximizer: both families live in the
    two middle levels; the upper part is exactly the upper level minus the
    shade of the half-size part; and that shade is as small as the last
    segment's of the same length.

    The checks run on masks, every scan through one pair index; the last
    segment's shade is counted once per length, and a family is rendered
    only when it is reported.
    """
    _check_int("verify_thm26_structure", "n", n, 4, 5, even=True)
    r = n // 2
    half_level = level_masks(n, r)
    if k is not None:
        _check_int("verify_thm26_structure", "k", k, 0, len(half_level))
    rep = VerificationReport("thm26", {"n": n, "k": k})
    upper_level = set(level_masks(n, r + 1))
    ks = [k] if k is not None else list(range(len(half_level) + 1))
    families = enumerate_antichains(n)
    index = _pure.pair_index(families)
    segment_shade = {}  # length -> shade size of the last segment that long
    for kk in ks:
        _, wits = _brute_force_masks(families, index, kk)
        for masks_a, masks_b in wits:
            for side, masks in (("A", masks_a), ("B", masks_b)):
                rep.checks_run += 1
                half = [m for m in masks if m.bit_count() == r]
                rest = {m for m in masks if m.bit_count() == r + 1}
                parts = []
                if len(half) + len(rest) != len(masks):
                    parts = ["levels"]
                else:
                    shade_of_half = _pure.shade_masks(half, n)
                    if rest != upper_level - shade_of_half:
                        parts.append("upper-complement")
                    size = len(half)
                    if size not in segment_shade:
                        segment = half_level[len(half_level) - size:]
                        segment_shade[size] = len(_pure.shade_masks(segment, n))
                    if len(shade_of_half) != segment_shade[size]:
                        parts.append("minimal-shade")
                if parts:
                    family = _masks_text(masks, n)
                    rep.violations += [{"k": kk, "side": side,
                                        "family": family, "part": part}
                                       for part in parts]
    return rep


class _ExtremalTally(set):
    """B of the extremal sweep, a set of masks that keeps what the sweep
    knows of it: whether B is an antichain, its pair count with A, the full
    n/2-level, and whether those pairs form a matching.

    B starts as the (n/2+1)-level, so above[h], the count of B's upper
    members over the n/2-set h, starts at n/2 for every h.  bad counts B's
    n/2-sets with a count above 0: B within the two middle levels is an
    antichain iff bad is 0.  There an n/2-set of B misses one member of A,
    its complement, and an upper set misses none, so the pairs are a
    matching of halves pairs.  add and discard move the counts when a
    member actually enters or leaves.  A B with a member off the two middle
    levels (outside > 0) is checked whole, by _is_antichain_masks and
    _count_disjoint.
    """

    def __init__(self, n: int, a_masks: list[int]):
        super().__init__(level_masks(n, n // 2 + 1))
        self.n, self.a_masks = n, a_masks
        self.above = dict.fromkeys(a_masks, n // 2)
        self.bad = self.halves = self.outside = 0

    # set.add and set.discard, not super(): these run once per member the
    # walk moves, and super() made the walk about 1.4x slower at n = 20
    def add(self, x: int) -> None:
        if x not in self:
            set.add(self, x)
            self._count(x, 1)

    def discard(self, x: int) -> None:
        if x in self:
            set.discard(self, x)
            self._count(x, -1)

    def _count(self, x: int, step: int) -> None:
        """Count x into (step 1) or out of (step -1) the tallies.  An
        n/2-set moves halves and bad; an upper set moves the count of each
        n/2-set h under it, and bad when that count leaves or reaches 0
        while h is in B; any other set moves outside."""
        size = x.bit_count() - self.n // 2
        if size == 0:
            self.halves += step
            self.bad += step * (self.above[x] > 0)
        elif size == 1:
            above, edge = self.above, 1 if step > 0 else 0
            rest = x
            while rest:
                low = rest & -rest
                rest ^= low
                h = x ^ low
                count = above[h] = above[h] + step
                if count == edge and h in self:
                    self.bad += step
        else:
            self.outside += step

    def verdict(self) -> tuple[bool, int, bool]:
        """(B is an antichain, pair count, the pairs form a matching)."""
        if not self.outside:
            return not self.bad, self.halves, True
        b_masks = sorted(self, key=int.bit_count)
        return (_is_antichain_masks(b_masks),
                *_count_disjoint(self.a_masks, b_masks, self.n))


@timed
def verify_extremal_constructions(n: int = 8) -> VerificationReport:
    """construct_extremal meets the bound for every k: both families are
    antichains, the disjointness relation is a matching of size <= k, and
    the total equals theorem25_bound(n, k) (n = 8 by default).

    The families depend on k only through m, the least m <= k with
    kappa(m) = kappa*(k), which grows with k.  The sweep takes kappa by the
    block route (the running sum of kappa._run_column), which does not rest
    on Thm 2.3, and kappa* as its running minimum, so each k's m is the
    first hit of that minimum; construct_extremal reads the same m off k's
    cascade by Thm 2.3 (kappa._star_cut).  The sweep runs
    construct_extremal's walk once, through every m, on a B that keeps its
    own counts (_ExtremalTally), and checks B at each m some k reaches from
    those counts; A, the n/2-level, is checked once.  The pair count
    against k and the total against the bound are checked for every k.
    Even n runs from 4 to 22, construct_extremal's range: past it a larger
    n is refused before either middle level is built.
    """
    _check_int("verify_extremal_constructions", "n", n, 4, _MAX_EXTREMAL_N, even=True)
    rep = VerificationReport("thm25-extremal", {"n": n})
    r = n // 2
    a_masks = level_masks(n, r)
    half = len(a_masks)
    family = _ExtremalTally(n, a_masks)  # B at m = 0
    middle = half + len(family)
    a_problems = [] if _is_antichain_masks(a_masks) else ["family_a not an antichain"]

    def check_b():
        """(problems of the pair, pair count, total) for B as it stands."""
        b_is_antichain, pair_count, matching = family.verdict()
        problems = a_problems + ([] if b_is_antichain else ["family_b not an antichain"])
        if not matching:
            problems.append("disjoint pairs not a matching")
        return problems, pair_count, half + len(family)

    walk = _extremal_walk(n, family, a_masks)
    star = m = 0
    checked = check_b()
    # kappa_r(0..half) summed as it is read: the list of _kappa_column
    # would raise the sweep's peak memory
    for k, kappa in enumerate(accumulate(_run_column(r, half), initial=0)):
        if kappa < star:  # a new minimum: the least minimizer moves to k
            deque(islice(walk, k - m), maxlen=0)
            star, m, checked = kappa, k, check_b()
        problems, pair_count, total = checked
        problems = list(problems)
        rep.checks_run += 1
        if pair_count > k:
            problems.append(f"{pair_count} pairs exceeds k")
        if total != middle - star:
            problems.append(f"total {total} misses the bound")
        if problems:
            rep.violations.append({"n": n, "k": k, "case": "ii" if m else "i",
                                   "m": m or None, "problems": problems})
    return rep


@timed
def sperner_max_check(n: int = 4) -> VerificationReport:
    """Largest antichain size is C(n, floor(n/2)), and the only maximizers
    are the full middle level(s), both of them for odd n (1 <= n <= 6,
    n = 4 by default).

    Counts instead of listing: _antichain_profiles gives the number of
    antichains and their largest size from the DFS states alone, and
    _antichain_walk lists only the families of that size.  checks_run is the
    number of antichains, checked against Dedekind's M(n) (7,828,354 at
    n = 6).
    """
    _check_int("sperner_max_check", "n", n, 1, 6)
    rep = VerificationReport("sperner", {"n": n})
    order, keep = _antichain_steps(n)
    memo = _antichain_profiles(keep)
    count, best = memo[(1 << len(order)) - 1]
    maximizers = set(_antichain_walk(order, keep, memo, best))  # none larger
    want_best = comb(n, n // 2)
    expected = {tuple(level_masks(n, n // 2)), tuple(level_masks(n, (n + 1) // 2))}
    rep.checks_run = count
    if count != DEDEKIND_COUNTS[n]:
        rep.violations.append({"n": n, "part": "count", "got": count,
                               "expected": DEDEKIND_COUNTS[n]})
    if best != want_best:
        rep.violations.append({"n": n, "max_size": best, "expected": want_best})
    if maximizers != expected:
        rep.violations.append({
            "n": n, "part": "maximizers",
            "got": sorted(sorted(f) for f in maximizers),
            "expected": sorted(sorted(f) for f in expected)})
    rep.witnesses = [_masks_text(f, n) for f in sorted(maximizers)]
    return rep
