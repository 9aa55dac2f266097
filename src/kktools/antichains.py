"""Antichains, Sperner operations, and the cross-intersecting maximum.

The central quantity: over ordered pairs (A, B) of antichains in the subset
lattice of {1..n} whose disjointness relation {(a, b) : a ∩ b = ∅} forms a
partial matching of size at most k, the maximum of |A| + |B| equals
C(n, n/2) + C(n, n/2+1) - kappa*_{n/2}(k) for even n.  This module carries
the bound, an explicit construction meeting it, and brute-force oracles
that settle the small cases by full enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby

from . import _pure
from .binomials import binom
from .kappa import KappaTable, kappa_star, negativity_threshold
from .report import VerificationReport, timed
from .shadows import shade, shadow
from .squashed import SetFamily, Subset, format_subset, last_segment, level_masks

DEDEKIND_COUNTS = {1: 3, 2: 6, 3: 20, 4: 168, 5: 7581}


def is_antichain(fam: SetFamily) -> bool:
    """True iff no member contains another.

    Two distinct sets of one size never nest, so each member is compared
    with the larger members only (canonical order sorts by size).
    """
    levels = [[s.mask for s in grp] for _, grp in groupby(fam, key=len)]
    for i, lower in enumerate(levels):
        above = [b for level in levels[i + 1:] for b in level]
        for a in lower:
            for b in above:
                if a & b == a:
                    return False
    return True


def _require_antichain(fam: SetFamily, op: str) -> None:
    if len(fam) == 0:
        raise ValueError(f"{op} requires a nonempty antichain")
    if not is_antichain(fam):
        raise ValueError(f"{op} requires an antichain")


def _split_level(fam: SetFamily, size: int):
    hit = tuple(s for s in fam if s.size == size)
    rest = tuple(s for s in fam if s.size != size)
    return hit, rest


def sperner_down(fam: SetFamily) -> SetFamily:
    """Replace the top level of an antichain by its shadow.

    The result is again an antichain whose top level dropped by one.  The
    two one-member extremes (just the empty set, just the full ground set)
    are rejected, as the operation is used strictly between them.
    """
    _require_antichain(fam, "sperner_down")
    n = fam.ground_n
    if fam.masks() == [0] or fam.masks() == [(1 << n) - 1]:
        raise ValueError("sperner_down is not defined on the one-member extremes")
    t = max(fam.sizes())
    top, rest = _split_level(fam, t)
    dropped = shadow(SetFamily(top, n))
    return SetFamily(rest + dropped.members, n)


def sperner_up(fam: SetFamily) -> SetFamily:
    """Replace the bottom level of an antichain by its shade; dual to
    sperner_down, raising the bottom level by one."""
    _require_antichain(fam, "sperner_up")
    n = fam.ground_n
    if fam.masks() == [0] or fam.masks() == [(1 << n) - 1]:
        raise ValueError("sperner_up is not defined on the one-member extremes")
    b = min(fam.sizes())
    bottom, rest = _split_level(fam, b)
    raised = shade(SetFamily(bottom, n))
    return SetFamily(rest + raised.members, n)


def _matching_size(adj: list[list[int]], n_right: int) -> int:
    """Maximum bipartite matching size by augmenting paths."""
    match_right = [-1] * n_right

    def augment(u: int, seen: set) -> bool:
        for v in adj[u]:
            if v in seen:
                continue
            seen.add(v)
            if match_right[v] == -1 or augment(match_right[v], seen):
                match_right[v] = u
                return True
        return False

    size = 0
    for u in range(len(adj)):
        if augment(u, set()):
            size += 1
    return size


def replace_up_map(fam: SetFamily, level: int) -> dict[int, int]:
    """The assignment injective_replace_up applies: bottom-level mask to
    chosen superset mask.

    Bottom sets are processed in squashed order; each takes the squashed-least
    superset in the level's shade that leaves a perfect matching for the
    remaining sets, so the overall assignment is the lexicographically least
    perfect matching.  Raises if no perfect matching exists.
    """
    _require_antichain(fam, "injective_replace_up")
    n = fam.ground_n
    if level != min(fam.sizes()):
        raise ValueError(f"level {level} is not the bottom level of the family")
    lefts = sorted(s.mask for s in fam if s.size == level)
    rights = _pure.shade_masks(lefts, n)
    right_index = {m: i for i, m in enumerate(rights)}
    adj = [[right_index[sup] for sup in _pure.shade_masks([m], n)] for m in lefts]

    chosen: dict[int, int] = {}
    used: set = set()
    for i, left in enumerate(lefts):
        picked = None
        for v in adj[i]:
            if v in used:
                continue
            remaining = [[w for w in adj[j] if w not in used and w != v]
                         for j in range(i + 1, len(lefts))]
            if _matching_size(remaining, len(rights)) == len(lefts) - i - 1:
                picked = v
                break
        if picked is None:
            raise ValueError("no perfect matching from the bottom level into its shade")
        used.add(picked)
        chosen[left] = rights[picked]
    return chosen


def injective_replace_up(fam: SetFamily, level: int) -> SetFamily:
    """Move the bottom level of an antichain up by one, injectively.

    Each bottom set is replaced by a distinct superset from the bottom
    level's shade (see replace_up_map for the tie-break); total size and the
    antichain property are preserved, and any cross-intersection with
    another family persists because every set only grows.  Identity when the
    bottom level already sits at or above the middle of the ground set.
    """
    _require_antichain(fam, "injective_replace_up")
    n = fam.ground_n
    if level != min(fam.sizes()):
        raise ValueError(f"level {level} is not the bottom level of the family")
    if 2 * level >= n:
        return fam
    mapping = replace_up_map(fam, level)
    members = tuple(s for s in fam if s.size != level)
    members += tuple(Subset.from_mask(m, n) for m in mapping.values())
    return SetFamily(members, n)


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
    is_matching records whether no set occurs in two pairs."""
    if a.ground_n != b.ground_n:
        raise ValueError("families must share a ground set")
    pairs = []
    right = [(y.mask, y) for y in b]
    for x in a:
        xm = x.mask
        pairs += [(x, y) for ym, y in right if not xm & ym]
    # members are distinct: a matching names each set in one pair at most
    ok = len({x.mask for x, _ in pairs}) == len(pairs) == \
        len({y.mask for _, y in pairs})
    return DisjointPairReport(tuple(pairs), len(pairs), ok)


def theorem25_bound(n: int, k: int) -> int:
    """C(n, n/2) + C(n, n/2+1) - kappa*_{n/2}(k) for even n >= 4 and
    0 <= k <= C(n, n/2)."""
    if n < 4 or n % 2 != 0:
        raise ValueError(f"theorem25_bound: need even n >= 4, got {n}")
    half = binom(n, n // 2)
    if not 0 <= k <= half:
        raise ValueError(f"theorem25_bound: need 0 <= k <= {half}, got {k}")
    return half + binom(n, n // 2 + 1) - kappa_star(n // 2, k)


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
        report = disjoint_pairs(self.family_a, self.family_b)
        return {
            "n": self.n,
            "k": self.k,
            "case": self.case,
            "m": self.chosen_m,
            "total": self.total,
            "bound": theorem25_bound(self.n, self.k),
            "family_a": [format_subset(s) for s in self.family_a],
            "family_b": [format_subset(s) for s in self.family_b],
            "pair_count": report.pair_count,
            "is_matching": report.is_matching,
        }


def construct_extremal(n: int, k: int) -> ExtremalConstruction:
    """An explicit pair of antichains attaining theorem25_bound(n, k).

    Below the negativity threshold (case i) the two middle levels already do
    it, with no disjoint pair at all.  From the threshold on (case ii), take
    the least m <= k at which kappa meets kappa*(k); B becomes the last m
    half-size sets together with the upper middle level minus their shade,
    paired to A (the full half-size level) through the m complements.
    """
    if n < 4 or n % 2 != 0:
        raise ValueError(f"construct_extremal: need even n >= 4, got {n}")
    r = n // 2
    half = binom(n, r)
    if not 0 <= k <= half:
        raise ValueError(f"construct_extremal: need 0 <= k <= {half}, got {k}")
    a_fam = SetFamily.from_masks(level_masks(n, r), n)
    if k < negativity_threshold(r):
        b_fam = SetFamily.from_masks(level_masks(n, r + 1), n)
        return ExtremalConstruction(n, k, a_fam, b_fam, "i", None)
    table = KappaTable.build(r, k)
    target = table.kappa_star[k]
    m = next(i for i in range(k + 1) if table.kappa[i] == target)
    bottom = last_segment(n, r, m)
    shaded = set(_pure.shade_masks(bottom.masks(), n))
    upper = [mm for mm in level_masks(n, r + 1) if mm not in shaded]
    b_fam = SetFamily(bottom.members
                      + tuple(Subset.from_mask(mm, n) for mm in upper), n)
    return ExtremalConstruction(n, k, a_fam, b_fam, "ii", m)


@lru_cache(maxsize=None)
def enumerate_antichains(n: int) -> tuple[tuple[int, ...], ...]:
    """Every antichain of subsets of {1..n}, each as a tuple of masks in
    canonical (size, squashed) order; includes the empty family and {∅}.

    Subsets are visited level by level; a chosen subset bans all its
    comparables from the rest of the branch.  The total count is checked
    against the known values (168 at n = 4, 7581 at n = 5).
    """
    if not 1 <= n <= 5:
        raise ValueError(f"antichain enumeration is limited to 1 <= n <= 5, got {n}")
    order = sorted(range(1 << n), key=lambda m: (bin(m).count("1"), m))
    count = 1 << n
    comparable = [0] * count
    for i in range(count):
        a = order[i]
        for j in range(count):
            b = order[j]
            if i != j and (a & b == a or a & b == b):
                comparable[i] |= 1 << j
    out: list[tuple[int, ...]] = []
    chosen: list[int] = []

    def visit(start: int, banned: int) -> None:
        out.append(tuple(order[i] for i in chosen))
        for i in range(start, count):
            if not (banned >> i) & 1:
                chosen.append(i)
                visit(i + 1, banned | comparable[i])
                chosen.pop()

    visit(0, 0)
    if len(out) != DEDEKIND_COUNTS[n]:
        raise RuntimeError(f"enumerated {len(out)} antichains at n={n}, "
                           f"expected {DEDEKIND_COUNTS[n]}")
    return tuple(out)


def brute_force_max(n: int, k: int, exact: bool = False,
                    require_side: bool = False):
    """Maximum |A|+|B| over ordered antichain pairs with a disjointness
    matching of size <= k, by full enumeration (n <= 5).

    In exact mode the matching size must equal k and k <= min(|A|, |B|);
    require_side imposes that side condition in the at-most mode as well.
    Returns (max_total, witnesses) with every maximizing pair as
    (SetFamily, SetFamily); (-1, []) if no pair qualifies.
    """
    if k < 0:
        raise ValueError(f"brute_force_max: need k >= 0, got {k}")
    families = list(enumerate_antichains(n))
    best, hits = _pure.scan_pairs(families, k, exact, require_side,
                                  0, len(families))
    witnesses = [(SetFamily.from_masks(families[i], n),
                  SetFamily.from_masks(families[j], n)) for i, j in hits]
    return best, witnesses


def _witness_json(a: SetFamily, b: SetFamily) -> dict:
    report = disjoint_pairs(a, b)
    return {
        "family_a": [format_subset(s) for s in a],
        "family_b": [format_subset(s) for s in b],
        "total": len(a) + len(b),
        "pair_count": report.pair_count,
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
    asserted, as the equality there is conjectural.
    """
    if n % 2 != 0 or not 4 <= n <= 5:
        raise ValueError("the bound needs even n and enumeration needs n <= 5; "
                         f"got n={n}")
    rep = VerificationReport("thm25-brute", {"n": n, "k": k, "exact": exact})
    ks = [k] if k is not None else list(range(binom(n, n // 2) + 1))
    for kk in ks:
        bound = theorem25_bound(n, kk)
        best, wits = brute_force_max(n, kk, exact)
        best_side, _ = brute_force_max(n, kk, exact, require_side=True)
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
            "maximizers": [_witness_json(a, b) for a, b in wits[:8]],
        })
    return rep


@timed
def verify_thm26_structure(n: int = 4,
                           k: int | None = None) -> VerificationReport:
    """Structure of every brute-force maximizer: both families live in the
    two middle levels; the upper part is exactly the upper level minus the
    shade of the half-size part; and that shade is as small as the last
    segment's of the same length."""
    if n % 2 != 0 or not 4 <= n <= 5:
        raise ValueError("structure checks need even n with enumeration, "
                         f"got n={n}")
    rep = VerificationReport("thm26", {"n": n, "k": k})
    r = n // 2
    upper_level = set(level_masks(n, r + 1))
    ks = [k] if k is not None else list(range(binom(n, n // 2) + 1))
    for kk in ks:
        _, wits = brute_force_max(n, kk)
        for a_fam, b_fam in wits:
            for side, fam in (("A", a_fam), ("B", b_fam)):
                rep.checks_run += 1
                record = {"k": kk, "side": side,
                          "family": [format_subset(s) for s in fam]}
                if not fam.sizes() <= {r, r + 1}:
                    rep.violations.append({**record, "part": "levels"})
                    continue
                half = [s.mask for s in fam if s.size == r]
                rest = {s.mask for s in fam if s.size == r + 1}
                shade_of_half = set(_pure.shade_masks(half, n))
                if rest != upper_level - shade_of_half:
                    rep.violations.append({**record, "part": "upper-complement"})
                segment = last_segment(n, r, len(half)).masks()
                if len(shade_of_half) != len(set(_pure.shade_masks(segment, n))):
                    rep.violations.append({**record, "part": "minimal-shade"})
    return rep


@timed
def verify_extremal_constructions(n: int) -> VerificationReport:
    """construct_extremal meets the bound for every k: both families are
    antichains, the disjointness relation is a matching of size <= k, and
    the total equals theorem25_bound(n, k)."""
    if n < 4 or n % 2 != 0:
        raise ValueError(f"need even n >= 4, got {n}")
    rep = VerificationReport("thm25-extremal", {"n": n})
    for k in range(binom(n, n // 2) + 1):
        built = construct_extremal(n, k)
        report = disjoint_pairs(built.family_a, built.family_b)
        rep.checks_run += 1
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
            rep.violations.append({"n": n, "k": k, "case": built.case,
                                   "m": built.chosen_m, "problems": problems})
    return rep


@timed
def sperner_max_check(n: int) -> VerificationReport:
    """Largest antichain size is C(n, floor(n/2)), and the only maximizers
    are the full middle level(s), both of them for odd n."""
    rep = VerificationReport("sperner", {"n": n})
    families = enumerate_antichains(n)
    best = max(len(f) for f in families)
    maximizers = {f for f in families if len(f) == best}
    want_best = binom(n, n // 2)
    expected = {tuple(level_masks(n, n // 2)), tuple(level_masks(n, (n + 1) // 2))}
    rep.checks_run = len(families)
    if best != want_best:
        rep.violations.append({"n": n, "max_size": best, "expected": want_best})
    if maximizers != expected:
        rep.violations.append({
            "n": n, "part": "maximizers",
            "got": sorted(sorted(f) for f in maximizers),
            "expected": sorted(sorted(f) for f in expected)})
    rep.witnesses = [[format_subset(Subset.from_mask(m, n)) for m in f]
                     for f in sorted(maximizers)]
    return rep
