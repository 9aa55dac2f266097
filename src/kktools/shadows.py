"""Shadows, shades, their new-set refinements, and cascade representations.

For a k-set S inside the squashed order on all k-subsets, the new shadow of
S is the part of its shadow not already covered by earlier k-sets; every
(k-1)-set X is owned by exactly one k-set, the squashed-least one-element
extension of X, so new shadows of distinct sets are disjoint and the new
shadow of a set is obtained by deleting one element of its initial run
1, 2, ...  The new shade is the dual notion under squashed-later sets.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cache
from itertools import accumulate, islice
from math import comb

from . import _pure
from .binomials import _cascade_terms, _check_int, _check_type
from .report import VerificationReport, timed
from .squashed import SetFamily, level_masks

# The largest ground sets the shadow sweeps take; a larger one is refused
# before any level is built.  On a shared 2-core VM, Python 3.11:
# verify_kkt(22, samples=0) takes 15 s at a 301 MB peak (VmHWM) and
# verify_lieby_duality(22) 15 s at 205 MB, each about 4x the time and
# memory per two more elements; 50 samples at sample_n_max 20 take 1.8 s
# and at 22 take 45 s; verify_clements_minimality(16) takes 36 s, its
# windows about 16x per two more elements.
_MAX_LEVEL_N = 22
_MAX_SAMPLE_N = 20
_MAX_WINDOW_N = 16


def _level_move(fam: SetFamily, op: str, kernel, down: bool) -> SetFamily:
    """kernel(masks, ground_n) on a uniform family, a level down or up; an
    empty family is its own image."""
    _check_type(op, "fam", fam, SetFamily)
    if len(fam) == 0:
        return fam
    if not fam.is_uniform:
        raise ValueError(f"{op} requires a uniform family, got sizes {sorted(fam.sizes())}")
    if down and fam.uniform_size() < 1:
        raise ValueError(f"{op} requires member size >= 1")
    if not down and fam.uniform_size() >= fam.ground_n:
        raise ValueError(f"{op} requires member size < ground set size")
    return SetFamily.from_masks(kernel(fam.masks(), fam.ground_n), fam.ground_n)


def shadow(fam: SetFamily) -> SetFamily:
    """All sets obtained by deleting one element from a member.

    Members must share a size k >= 1; the shadow of a family of singletons
    is the one-member family containing the empty set.
    """
    return _level_move(fam, "shadow", lambda masks, n: _pure.shadow_masks(masks), True)


def shade(fam: SetFamily) -> SetFamily:
    """All sets obtained by adding one element of the ground set to a member.

    Members must share a size k < ground_n.
    """
    return _level_move(fam, "shade", _pure.shade_masks, False)


def new_shadow(fam: SetFamily) -> SetFamily:
    """The members' owned shadow sets: deletions not in the shadow of any
    squashed-earlier k-set.  Disjoint across distinct members."""
    return _level_move(fam, "new_shadow", _pure.new_shadow_masks, True)


def new_shade(fam: SetFamily) -> SetFamily:
    """The members' owned shade sets: insertions not in the shade of any
    squashed-later k-set."""
    return _level_move(fam, "new_shade", _pure.new_shade_masks, False)


@dataclass(frozen=True)
class CascadeRep:
    """The cascade representation m = sum of C(a_i, i) for i = r down to t,
    with a_r > a_{r-1} > ... > a_t >= t >= 1.  Unique, so (m, r) fixes the
    terms, which are derived on construction; empty for m = 0."""

    value_m: int
    level_r: int
    terms: tuple[tuple[int, int], ...] = field(init=False)

    def __post_init__(self):
        _check_int("CascadeRep", "value_m", self.value_m, 0)
        _check_int("CascadeRep", "level_r", self.level_r, 1)
        object.__setattr__(self, "terms", _cascade_terms(self.value_m, self.level_r))

    def shadow_sum(self) -> int:
        """Value of the shadow formula: sum of C(a_i, i-1)."""
        return _shadow_formula(self.terms)

    def __str__(self) -> str:
        if not self.terms:
            return f"{self.value_m} = 0 (empty cascade)"
        body = " + ".join(f"C({a},{i})" for a, i in self.terms)
        return f"{self.value_m} = {body}"


def cascade_rep(m: int, r: int) -> CascadeRep:
    """Greedy cascade representation of m at level r (_cascade_terms)."""
    _check_int("cascade_rep", "m", m, 0)
    _check_int("cascade_rep", "r", r, 1)
    return CascadeRep(m, r)


def _shadow_formula(terms) -> int:
    """The shadow formula on cascade terms (a_i, i): sum of C(a_i, i-1)."""
    return sum(comb(a, i - 1) for a, i in terms)


def _cascade_walk(r: int):
    """kk_shadow_min(k, r) for k = 0, 1, 2, ... in turn: the shadow formula
    of each cascade at level r, stepped from the one before.  Endless and
    unchecked.

    The cascade of k + 1 is that of k with its last term (a_t, t) changed:
    for t >= 2 append (t - 1, t - 1); for t = 1 raise a_1 by one, and while
    it then equals the coefficient above, fold C(a, i + 1) + C(a, i) =
    C(a + 1, i + 1).  k = 1 is (r, r).  The walk keeps a stack of rows
    (a_i, i, running sum of C(a_i, i - 1)), one per term after a base row
    for the empty cascade, and a step pushes one row, so it makes one comb
    call, amortized over its folds.
    """
    rows = [(0, 0, 0)]
    shadow = 0
    yield shadow
    a = i = r
    while True:
        shadow += comb(a, i - 1)
        rows.append((a, i, shadow))
        yield shadow
        if i > 1:
            a = i = i - 1
            continue
        rows.pop()
        a += 1
        while rows[-1][0] == a:  # the term above is (a, i + 1): fold
            rows.pop()
            a += 1
            i += 1
        shadow = rows[-1][2]


def kk_shadow_min(m: int, r: int) -> int:
    """Minimum possible shadow size of m distinct r-sets: the cascade's
    shadow formula, attained by the first m r-sets in squashed order."""
    _check_int("kk_shadow_min", "m", m, 0)
    _check_int("kk_shadow_min", "r", r, 1)
    return _shadow_formula(_cascade_terms(m, r))


@timed
def verify_kkt(n_max: int = 10, samples: int = 1000, seed: int = 20240824,
               sample_n_max: int = 9) -> VerificationReport:
    """Tightness and lower bound of the minimum-shadow formula.

    Tightness: for every n <= n_max and 1 <= k <= n, the shadow of the first
    m k-subsets (computed by explicit union) equals the cascade formula for
    every m.  Lower bound: `samples` random uniform families (fixed seed,
    ground sets up to sample_n_max) have shadow at least the formula value.
    A sample's shadow is counted on membership bitsets: the family is the
    2**n-bit int with bit x per member x, and the shadow is the OR over the
    elements e of its members holding e shifted down by 2**e (one column
    per e, built once per sampled n).  The shadow is never listed.  The
    formula values of level k come from one cascade walk (_cascade_walk),
    stepped as far as the largest m a cell or sample reads.  n_max runs to
    22 and sample_n_max to 20; past either the sweep is refused before any
    level is built.
    """
    _check_int("verify_kkt", "n_max", n_max, 1, _MAX_LEVEL_N)
    _check_int("verify_kkt", "samples", samples, 0)
    _check_int("verify_kkt", "seed", seed)  # None would seed from OS entropy
    _check_int("verify_kkt", "sample_n_max", sample_n_max, 2, _MAX_SAMPLE_N)
    rep = VerificationReport("kkt", {"n_max": n_max, "samples": samples,
                                     "seed": seed, "sample_n_max": sample_n_max})
    columns = {}  # level k: (formula values for m = 0, 1, ..., the walk growing them)

    def formula_column(k, m):
        """Level k's formula column, walked as far as m."""
        if k not in columns:
            columns[k] = [], _cascade_walk(k)
        col, walk = columns[k]
        if len(col) <= m:
            col += islice(walk, m + 1 - len(col))
        return col

    for n in range(1, n_max + 1):
        for k in range(1, n + 1):
            sizes = _pure.prefix_shadow_sizes(level_masks(n, k))
            col = formula_column(k, len(sizes) - 1)
            rep.checks_run += len(sizes)
            for m, (got, want) in enumerate(zip(sizes, col)):
                if got != want:
                    rep.violations.append(
                        {"part": "tightness", "n": n, "k": k, "m": m,
                         "shadow": got, "formula": want})
    rng = random.Random(seed)
    level_of = cache(level_masks)  # one build per sampled (n, k)
    columns_of = cache(_pure._membership_columns)  # one build per sampled n
    for _ in range(samples):
        n = rng.randint(2, sample_n_max)
        k = rng.randint(1, n)
        level = level_of(n, k)
        m = rng.randint(0, len(level))
        fam = rng.sample(level, m)
        got = _pure._shadow_size(fam, columns_of(n))
        rep.checks_run += 1
        want = formula_column(k, m)[m]
        if got < want:
            rep.violations.append(
                {"part": "lower-bound", "n": n, "k": k, "m": m,
                 "shadow": got, "formula": want,
                 "family": sorted(fam)})
    return rep


@timed
def verify_lieby_duality(n: int = 8) -> VerificationReport:
    """|shadow(first m k-sets)| = |shade(last m (n-k)-sets)| for every k, m.

    Both sides are computed by explicit union, never by formula; n = 8 by
    default, and n runs to 22.
    """
    _check_int("verify_lieby_duality", "n", n, 1, _MAX_LEVEL_N)
    rep = VerificationReport("lieby", {"n": n})
    for k in range(1, n + 1):
        down = _pure.prefix_shadow_sizes(level_masks(n, k))
        up = _pure.suffix_shade_sizes(level_masks(n, n - k), n)
        for m, (a, b) in enumerate(zip(down, up, strict=True)):
            rep.checks_run += 1
            if a != b:
                rep.violations.append({"n": n, "k": k, "m": m,
                                       "shadow": a, "shade": b})
    return rep


@timed
def verify_clements_minimality(n: int = 6, k: int | None = None) -> VerificationReport:
    """Among all windows of m consecutive k-sets in squashed order, the last
    window minimizes the new-shadow size and the first window minimizes the
    new-shade size; checked for every window of every length (each window
    counts as two checks, one per direction).  By default n = 6, and k None
    checks levels 1..n-1 in one report (params k "1..n-1"), each violation
    tagged with its k.  n runs to 16.

    Ownership classes of distinct sets are disjoint, so a window's new
    shadow (new shade) size is the sum of its members' sizes: the kernel runs
    once per set, and each window reads a difference of prefix sums.
    """
    _check_int("verify_clements_minimality", "n", n, 1, _MAX_WINDOW_N)
    if k is not None:
        _check_int("verify_clements_minimality", "k", k, 1, n)
    rep = VerificationReport("clements", {"n": n, "k": "1..n-1" if k is None else k})
    for kk in range(1, n) if k is None else (k,):
        tag = {"k": kk} if k is None else {}
        level = level_masks(n, kk)
        total = len(level)
        nsh = list(accumulate((len(_pure.new_shadow_masks([mask], n)) for mask in level),
                              initial=0))
        nse = list(accumulate((len(_pure.new_shade_masks([mask], n)) for mask in level),
                              initial=0))
        for m in range(total + 1):
            base_nsh = nsh[total] - nsh[total - m]
            base_nse = nse[m]
            for r in range(total - m + 1):
                rep.checks_run += 2
                got_nsh = nsh[r + m] - nsh[r]
                got_nse = nse[r + m] - nse[r]
                if got_nse < base_nse:
                    rep.violations.append({"part": "new-shade", "m": m, "r": r,
                                           "window": got_nse,
                                           "first-segment": base_nse, **tag})
                if got_nsh < base_nsh:
                    rep.violations.append({"part": "new-shadow", "m": m, "r": r,
                                           "window": got_nsh,
                                           "last-segment": base_nsh, **tag})
    return rep
