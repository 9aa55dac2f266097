"""The shadow-minus-size function kappa and its running minimum.

kappa_r(m) is the minimum shadow size of m distinct r-sets, minus m.  It
depends on no ground set: the cascade formula is ground-free, and so is the
squashed order on r-sets.  kappa*_r(m) is the minimum of kappa_r over 0..m.
Both take and return exact integers only.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _backend, _pure
from .binomials import binom
from .report import VerificationReport, timed
from .shadows import cascade_rep, kk_shadow_min
from .squashed import _squashed_walk


def kappa(r: int, m: int) -> int:
    """kappa_r(m) = (minimum shadow size of m r-sets) - m."""
    return kk_shadow_min(m, r) - m


def kappa_star(r: int, m: int) -> int:
    """min of kappa_r over 0..m; never positive beyond m = 0, nonincreasing."""
    if m < 0:
        raise ValueError(f"kappa_star: need m >= 0, got {m}")
    return min(kappa(r, j) for j in range(m + 1))


def negativity_threshold(r: int) -> int:
    """Least m with kappa_r(m) < 0, namely 1 + sum of C(2i-1, i) for i <= r."""
    if r < 1:
        raise ValueError(f"negativity_threshold: need r >= 1, got {r}")
    return 1 + sum(binom(2 * i - 1, i) for i in range(1, r + 1))


@dataclass
class KappaTable:
    """kappa and kappa_star tabulated on 0..upper_m at one level r.

    Built by walking the level in squashed order with Gosper's next-colex
    step: appending the rank-m set grows the segment's shadow by exactly that
    set's new-shadow size, which the kernel derives from the set itself, so
    the kappa column comes from an explicit incremental construction and
    stays an independent route against the cascade formula.
    """

    level_r: int
    upper_m: int
    kappa: list[int]
    kappa_star: list[int]

    @classmethod
    def build(cls, r: int, upper_m: int) -> "KappaTable":
        if r < 1 or upper_m < 0:
            raise ValueError(f"KappaTable: need r >= 1 and upper_m >= 0, "
                             f"got r={r}, upper_m={upper_m}")
        kappa_col = [0]
        star_col = [0]
        shadow_size = 0
        running_min = 0
        for m, mask in zip(range(1, upper_m + 1), _squashed_walk((1 << r) - 1)):
            # the rank-(m-1) set; its largest element is the least ground set
            n = mask.bit_length()
            # The compiled kernels hold masks in a machine word; for the
            # wide ground sets small r forces here, use the pure kernel.
            kernels = _backend if n < 64 else _pure
            shadow_size += len(kernels.new_shadow_masks([mask], n))
            value = shadow_size - m
            kappa_col.append(value)
            running_min = min(running_min, value)
            star_col.append(running_min)
        return cls(r, upper_m, kappa_col, star_col)

    def star_clamped(self, m: int) -> int:
        """kappa_star with arguments beyond the table saturating at upper_m
        (the level-size cap in the inequality sweeps below)."""
        return self.kappa_star[min(m, self.upper_m)]

    def to_tsv(self) -> str:
        lines = ["m\tkappa\tkappa_star"]
        for m in range(self.upper_m + 1):
            lines.append(f"{m}\t{self.kappa[m]}\t{self.kappa_star[m]}")
        return "\n".join(lines) + "\n"


@timed
def verify_prop22(r: int, m_max: int) -> VerificationReport:
    """Sign pattern of kappa_r on 0..m_max.

    kappa_r(m) is negative exactly from the negativity threshold on, and
    zero exactly on {0} together with the suffix sums of C(2i-1, i).
    """
    if r < 1 or m_max < 0:
        raise ValueError(f"verify_prop22: need r >= 1, m_max >= 0, got {r}, {m_max}")
    rep = VerificationReport("prop22", {"r": r, "m_max": m_max})
    p = negativity_threshold(r)
    zeros = {0}
    for t in range(1, r + 1):
        zeros.add(sum(binom(2 * i - 1, i) for i in range(t, r + 1)))
    table = KappaTable.build(r, m_max)
    for m in range(m_max + 1):
        v = table.kappa[m]
        rep.checks_run += 2
        if (v < 0) != (m >= p):
            rep.violations.append({"part": "negativity", "r": r, "m": m,
                                   "kappa": v, "threshold": p})
        if (v == 0) != (m in zeros):
            rep.violations.append({"part": "zero-set", "r": r, "m": m,
                                   "kappa": v})
    return rep


@timed
def verify_thm23(r: int, m_max: int) -> VerificationReport:
    """kappa_r(m) = kappa*_r(m) exactly when every cascade coefficient
    satisfies a_i >= 2i - 1."""
    if r < 1 or m_max < 0:
        raise ValueError(f"verify_thm23: need r >= 1, m_max >= 0, got {r}, {m_max}")
    rep = VerificationReport("thm23", {"r": r, "m_max": m_max})
    table = KappaTable.build(r, m_max)
    for m in range(m_max + 1):
        cond = all(a >= 2 * i - 1 for a, i in cascade_rep(m, r).terms)
        eq = table.kappa[m] == table.kappa_star[m]
        rep.checks_run += 1
        if cond != eq:
            rep.violations.append({"r": r, "m": m, "kappa": table.kappa[m],
                                   "kappa_star": table.kappa_star[m],
                                   "coefficients_large": cond})
    return rep


@timed
def verify_prop24(n: int, a_only: int | None = None,
                  k_only: int | None = None) -> VerificationReport:
    """kappa(M) + kappa*(k) <= kappa(a) + kappa*(k + M - a) on [0, M]^2,
    where r = ceil(n/2) and M = C(n, r).

    kappa* saturates at the level size M: arguments past M clamp to M, the
    largest segment the level admits.  Optional a_only/k_only restrict the
    grid to one row, column, or cell.
    """
    if n < 2:
        raise ValueError(f"verify_prop24: need n >= 2, got {n}")
    r = (n + 1) // 2
    big_m = binom(n, r)
    rep = VerificationReport("prop24", {"n": n, "r": r, "M": big_m,
                                        "a": a_only, "k": k_only})
    for name, value in (("a", a_only), ("k", k_only)):
        if value is not None and not 0 <= value <= big_m:
            raise ValueError(f"verify_prop24: need 0 <= {name} <= {big_m}, got {value}")
    table = KappaTable.build(r, big_m)
    lhs_base = table.kappa[big_m]
    a_range = range(big_m + 1) if a_only is None else (a_only,)
    k_range = range(big_m + 1) if k_only is None else (k_only,)
    for k in k_range:
        lhs = lhs_base + table.kappa_star[k]
        for a in a_range:
            rhs = table.kappa[a] + table.star_clamped(k + big_m - a)
            rep.checks_run += 1
            if lhs > rhs:
                rep.violations.append({"n": n, "a": a, "k": k,
                                       "lhs": lhs, "rhs": rhs})
    return rep


@timed
def verify_lemma38(n: int) -> VerificationReport:
    """kappa_r(m) >= kappa_r(C(n, r)) for all 0 <= m <= C(n, r), r = ceil(n/2);
    for even n equality holds only at m = C(n, n/2) itself (and m = 0 gives
    kappa = 0 > the minimum)."""
    if n < 2:
        raise ValueError(f"verify_lemma38: need n >= 2, got {n}")
    r = (n + 1) // 2
    big_m = binom(n, r)
    rep = VerificationReport("lemma38", {"n": n, "r": r, "M": big_m})
    table = KappaTable.build(r, big_m)
    target = table.kappa[big_m]
    for m in range(big_m + 1):
        v = table.kappa[m]
        rep.checks_run += 1
        if v < target:
            rep.violations.append({"part": "minimum", "n": n, "m": m,
                                   "kappa": v, "at_level_size": target})
        elif n % 2 == 0 and v == target and m != big_m:
            rep.violations.append({"part": "uniqueness", "n": n, "m": m,
                                   "kappa": v})
    return rep


def check_conjecture51(n: int) -> list[tuple[int, int]]:
    """Counterexample pairs (a, k) on [0, M]^2 to the even-n sweep of
    kappa(M) + kappa*(k) <= kappa(a) + kappa*(k + M - a), r = n/2, M = C(n, r),
    with kappa* saturating at M.  Empty list means no counterexample.

    This is the strongest form of the inequality that can hold on the full
    grid: replacing kappa*(k) by kappa(k) on the left fails already at a = M,
    where the instance collapses to kappa(k) <= kappa*(k) -- impossible
    strictly, because kappa* is the running minimum of kappa (k = 1 gives
    kappa_r(1) = r - 1 > 0 = kappa*_r(1) for every r >= 2).  Counterexamples
    are reported rather than asserted, and the search is exhaustive.
    """
    if n < 2 or n % 2 != 0:
        raise ValueError(f"check_conjecture51: need even n >= 2, got {n}")
    r = n // 2
    big_m = binom(n, r)
    table = KappaTable.build(r, big_m)
    lhs_base = table.kappa[big_m]
    out = []
    for k in range(big_m + 1):
        lhs = lhs_base + table.kappa_star[k]
        for a in range(big_m + 1):
            if lhs > table.kappa[a] + table.star_clamped(k + big_m - a):
                out.append((a, k))
    return out


@timed
def verify_conjecture51(n: int) -> VerificationReport:
    """Report wrapper around check_conjecture51 over the full grid."""
    r = n // 2
    big_m = binom(n, r)
    rep = VerificationReport("conjecture51", {"n": n, "r": r, "M": big_m})
    rep.violations = [{"a": a, "k": k} for a, k in check_conjecture51(n)]
    rep.checks_run = (big_m + 1) ** 2
    return rep
