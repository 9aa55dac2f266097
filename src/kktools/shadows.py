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
from dataclasses import dataclass

from . import _pure
from .binomials import binom
from .report import VerificationReport, timed
from .squashed import SetFamily, level_masks


def _uniform_size(fam: SetFamily, op: str):
    if len(fam) == 0:
        return None
    if not fam.is_uniform:
        raise ValueError(f"{op} requires a uniform family, got sizes {sorted(fam.sizes())}")
    return fam.uniform_size()


def shadow(fam: SetFamily) -> SetFamily:
    """All sets obtained by deleting one element from a member.

    Members must share a size k >= 1; the shadow of a family of singletons
    is the one-member family containing the empty set.
    """
    k = _uniform_size(fam, "shadow")
    if k is None:
        return SetFamily((), fam.ground_n)
    if k < 1:
        raise ValueError("shadow requires member size >= 1")
    return SetFamily.from_masks(_pure.shadow_masks(fam.masks()), fam.ground_n)


def shade(fam: SetFamily) -> SetFamily:
    """All sets obtained by adding one element of the ground set to a member.

    Members must share a size k < ground_n.
    """
    k = _uniform_size(fam, "shade")
    if k is None:
        return SetFamily((), fam.ground_n)
    if k >= fam.ground_n:
        raise ValueError("shade requires member size < ground set size")
    return SetFamily.from_masks(_pure.shade_masks(fam.masks(), fam.ground_n), fam.ground_n)


def new_shadow(fam: SetFamily) -> SetFamily:
    """The members' owned shadow sets: deletions not in the shadow of any
    squashed-earlier k-set.  Disjoint across distinct members."""
    k = _uniform_size(fam, "new_shadow")
    if k is None:
        return SetFamily((), fam.ground_n)
    if k < 1:
        raise ValueError("new_shadow requires member size >= 1")
    return SetFamily.from_masks(_pure.new_shadow_masks(fam.masks(), fam.ground_n), fam.ground_n)


def new_shade(fam: SetFamily) -> SetFamily:
    """The members' owned shade sets: insertions not in the shade of any
    squashed-later k-set."""
    k = _uniform_size(fam, "new_shade")
    if k is None:
        return SetFamily((), fam.ground_n)
    if k >= fam.ground_n:
        raise ValueError("new_shade requires member size < ground set size")
    return SetFamily.from_masks(_pure.new_shade_masks(fam.masks(), fam.ground_n), fam.ground_n)


@dataclass(frozen=True)
class CascadeRep:
    """The cascade representation m = sum of C(a_i, i) for i = r down to t,
    with a_r > a_{r-1} > ... > a_t >= t >= 1.  Unique; empty for m = 0."""

    value_m: int
    level_r: int
    terms: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.level_r < 1:
            raise ValueError(f"cascade level must be positive, got {self.level_r}")
        total = 0
        prev_a = None
        for pos, (a, i) in enumerate(self.terms):
            if i != self.level_r - pos:
                raise ValueError(f"cascade indices must run {self.level_r}, "
                                 f"{self.level_r - 1}, ...: got {self.terms}")
            if a < i:
                raise ValueError(f"cascade needs a_i >= i, got C({a}, {i})")
            if prev_a is not None and not a < prev_a:
                raise ValueError(f"cascade coefficients must strictly decrease: {self.terms}")
            prev_a = a
            total += binom(a, i)
        if total != self.value_m:
            raise ValueError(f"cascade terms sum to {total}, not {self.value_m}")

    def shadow_sum(self) -> int:
        """Value of the shadow formula: sum of C(a_i, i-1)."""
        return sum(binom(a, i - 1) for a, i in self.terms)

    def __str__(self) -> str:
        if not self.terms:
            return f"{self.value_m} = 0 (empty cascade)"
        body = " + ".join(f"C({a},{i})" for a, i in self.terms)
        return f"{self.value_m} = {body}"


def cascade_rep(m: int, r: int) -> CascadeRep:
    """Greedy cascade representation of m at level r.

    Greedily taking the largest C(a, i) <= remainder at each level i = r,
    r-1, ... yields the unique representation: the remainder after C(a_i, i)
    is below C(a_i + 1, i) - C(a_i, i) = C(a_i, i-1), which forces strict
    decrease.  So each a_i is found by bisection on [i-1, a_{i+1}), and the
    top one on a bracket found by doubling; the work is polynomial in
    log m and r.
    """
    if r < 1:
        raise ValueError(f"cascade level must be positive, got {r}")
    if m < 0:
        raise ValueError(f"cascade value must be nonnegative, got {m}")
    terms = []
    rem = m
    i = r
    hi = None
    while rem > 0:
        lo = i - 1
        if hi is None:
            hi = i
            while binom(hi, i) <= rem:
                lo, hi = hi, 2 * hi
        # invariant: C(lo, i) <= rem < C(hi, i)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if binom(mid, i) <= rem:
                lo = mid
            else:
                hi = mid
        terms.append((lo, i))
        rem -= binom(lo, i)
        hi = lo
        i -= 1
    return CascadeRep(m, r, tuple(terms))


def kk_shadow_min(m: int, r: int) -> int:
    """Minimum possible shadow size of m distinct r-sets: the cascade's
    shadow formula, attained by the first m r-sets in squashed order."""
    return cascade_rep(m, r).shadow_sum()


@timed
def verify_kkt(n_max: int = 10, samples: int = 1000, seed: int = 20240824,
               sample_n_max: int = 9) -> VerificationReport:
    """Tightness and lower bound of the minimum-shadow formula.

    Tightness: for every n <= n_max and 1 <= k <= n, the shadow of the first
    m k-subsets (computed by explicit union) equals the cascade formula for
    every m.  Lower bound: `samples` random uniform families (fixed seed,
    ground sets up to sample_n_max) have shadow at least the formula value.
    """
    rep = VerificationReport("kkt", {"n_max": n_max, "samples": samples,
                                     "seed": seed, "sample_n_max": sample_n_max})
    for n in range(1, n_max + 1):
        for k in range(1, n + 1):
            sizes = _pure.prefix_shadow_sizes(level_masks(n, k))
            for m, got in enumerate(sizes):
                want = kk_shadow_min(m, k)
                rep.checks_run += 1
                if got != want:
                    rep.violations.append(
                        {"part": "tightness", "n": n, "k": k, "m": m,
                         "shadow": got, "formula": want})
    rng = random.Random(seed)
    for _ in range(samples):
        n = rng.randint(2, sample_n_max)
        k = rng.randint(1, n)
        level = level_masks(n, k)
        m = rng.randint(0, len(level))
        fam = rng.sample(level, m)
        got = len(_pure.shadow_masks(fam))
        rep.checks_run += 1
        if got < kk_shadow_min(m, k):
            rep.violations.append(
                {"part": "lower-bound", "n": n, "k": k, "m": m,
                 "shadow": got, "formula": kk_shadow_min(m, k),
                 "family": sorted(fam)})
    return rep


@timed
def verify_lieby_duality(n: int) -> VerificationReport:
    """|shadow(first m k-sets)| = |shade(last m (n-k)-sets)| for every k, m.

    Both sides are computed by explicit union, never by formula.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    rep = VerificationReport("lieby", {"n": n})
    for k in range(1, n + 1):
        down = _pure.prefix_shadow_sizes(level_masks(n, k))
        up = _pure.suffix_shade_sizes(level_masks(n, n - k), n)
        for m, (a, b) in enumerate(zip(down, up)):
            rep.checks_run += 1
            if a != b:
                rep.violations.append({"n": n, "k": k, "m": m,
                                       "shadow": a, "shade": b})
    return rep


@timed
def verify_clements_minimality(n: int, k: int) -> VerificationReport:
    """Among all windows of m consecutive k-sets in squashed order, the last
    window minimizes the new-shadow size and the first window minimizes the
    new-shade size; checked for every window of every length (each window
    counts as two checks, one per direction)."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    rep = VerificationReport("clements", {"n": n, "k": k})
    level = level_masks(n, k)
    total = len(level)
    for m in range(total + 1):
        base_nsh = len(_pure.new_shadow_masks(level[total - m:], n))
        base_nse = len(_pure.new_shade_masks(level[:m], n))
        for r in range(total - m + 1):
            window = level[r:r + m]
            rep.checks_run += 2
            got_nsh = len(_pure.new_shadow_masks(window, n))
            got_nse = len(_pure.new_shade_masks(window, n))
            if got_nse < base_nse:
                rep.violations.append({"part": "new-shade", "m": m, "r": r,
                                       "window": got_nse, "first-segment": base_nse})
            if got_nsh < base_nsh:
                rep.violations.append({"part": "new-shadow", "m": m, "r": r,
                                       "window": got_nsh, "last-segment": base_nsh})
    return rep
