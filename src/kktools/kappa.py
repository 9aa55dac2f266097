"""The shadow-minus-size function kappa and its running minimum.

kappa_r(m) is the minimum shadow size of m distinct r-sets, minus m.  It
depends on no ground set: the cascade formula is ground-free, and so is the
squashed order on r-sets.  kappa*_r(m) is the minimum of kappa_r over 0..m.
Both take and return exact integers only.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, compress
from math import comb
from operator import eq, ne

from .binomials import _cascade_terms, _check_int, _d
from .report import VerificationReport, timed
from .shadows import _shadow_formula, kk_shadow_min

# The largest upper_m a kappa table is built for: the default m_max of
# verify_prop22 and verify_thm23 at r = 13, past C(26, 13), the level size
# of the n = 26 sweeps.  A sweep or build past it is refused before anything
# is allocated, instead of growing until the process is killed.
_MAX_UPPER_M = comb(26, 13) + 26


def kappa(r: int, m: int) -> int:
    """kappa_r(m) = (minimum shadow size of m r-sets) - m."""
    _check_int("kappa", "r", r, 1)
    _check_int("kappa", "m", m, 0)
    return _shadow_formula(_cascade_terms(m, r)) - m  # kk_shadow_min, unchecked


def kappa_star(r: int, m: int) -> int:
    """min of kappa_r over 0..m; never positive beyond m = 0, nonincreasing.

    This is the definition, computed as written: a running minimum over
    m + 1 cascades, O(m).  Thm 2.3 gives the same value in O(r) as
    _star_cut(_cascade_terms(m, r))[1], which theorem25_bound reads; that
    becomes the body here once the benchmark's peak-memory meter reads each
    run's own process.  Until then this is the oracle the cut is tested
    against.
    """
    _check_int("kappa_star", "r", r, 1)
    _check_int("kappa_star", "m", m, 0)
    return min(kk_shadow_min(j, r) - j for j in range(m + 1))  # kappa(r, j), one call less


def negativity_threshold(r: int) -> int:
    """Least m with kappa_r(m) < 0, namely 1 + sum of C(2i-1, i) for i <= r."""
    _check_int("negativity_threshold", "r", r, 1)
    return 1 + sum(comb(2 * i - 1, i) for i in range(1, r + 1))


def _star_cut(terms) -> tuple[int, int]:
    """(m, kappa*_r(k)) in one pass over the cascade terms (a_i, i) of k: m is
    the least m <= k with kappa_r(m) = kappa*_r(k), kappa being the sum of
    D(a_i, i) over a cascade.  By Thm 2.3 and D's sign trichotomy the cut
    before the first D > 0 (a_i < 2i - 1) is a minimizer; dropping its
    trailing D = 0 terms gives the least m (0 below negativity_threshold)."""
    m = least = star = 0
    for a, i in terms:
        if (d := _d(a, i)) > 0:
            break
        m += comb(a, i)
        if d:
            least, star = m, star + d
    return least, star


def _level_blocks(j: int, count: int) -> list[tuple[int, int]]:
    """(a, size) for the blocks that hold ranks 1..count-1 of level j in
    squashed order.  After the rank-0 set [j], block a = j+1, j+2, ... holds
    the first C(a-1, j-1) sets of level j-1, each with a added; the last
    block is cut at count."""
    blocks = []
    total, size, a = 1, j, j + 1
    while total < count:
        take = min(size, count - total)
        blocks.append((a, take))
        total += take
        size = size * a // (a - j + 1)  # C(a, j-1) from C(a-1, j-1)
        a += 1
    return blocks


def _run_column(r: int, count: int) -> list[int]:
    """Initial-run length minus one of each of the first `count` r-sets in
    squashed order: that set's new-shadow size minus one.  Adding a > r
    leaves a set's initial run unchanged, so level r is [r-1] followed by
    prefixes of level r-1.

    While the last block, the first `last` ranks of level r-1, is the
    longest, level r is a head ([r-1] and the other blocks) reading only the
    head below it, then level r-1: a loop walks that chain, about r deep.
    """
    heads, pieces = [], []  # (level, sizes of its blocks) top down; parts bottom up
    while r > 1 and count > r + 1:
        *blocks, (_, last) = _level_blocks(r, count)
        sizes = [size for _, size in blocks]
        if last <= sizes[-1]:  # sizes grow, so the last full block is longest
            heads.append((r, sizes + [last]))
            below = _run_column(r - 1, sizes[-1])
            break
        heads.append((r, sizes))
        r, count = r - 1, last
    else:
        # The rank-m set of level r is [r+1] minus {r+1-m} for m <= r, with
        # run r-m; level 1 continues {3}, {4}, ... with run 0.
        below = list(range(r - 1, max(r - 1 - count, -2), -1))
        below += [-1] * (count - len(below))
        pieces.append(below)
    for j, sizes in reversed(heads):
        head = [j - 1]
        for size in sizes:
            head += below[:size]
        pieces.append(head)
        below = head
    col = []
    for piece in reversed(pieces):
        col += piece
    return col


def _kappa_column(r: int, upper_m: int) -> list[int]:
    """kappa_r(0..upper_m): the running sum of _run_column, unchecked.  The
    sweeps that read kappa alone (verify_prop22, verify_lemma38) take it
    without a KappaTable and its kappa* column."""
    return list(accumulate(_run_column(r, upper_m), initial=0))


def _half_level(op: str, n: int, even: bool = False) -> tuple[int, int]:
    """r = ceil(n/2) and M = C(n, r) for a sweep over level r of {1..n},
    after refusing n < 2 and any n whose table on 0..M passes the row cap."""
    _check_int(op, "n", n, 2, even=even)
    r = (n + 1) // 2
    # C(n, ceil(n/2)) >= 2**(n/2) for n >= 2, so a longer n passes the cap
    # without computing the binomial
    if n > 2 * _MAX_UPPER_M.bit_length() or comb(n, r) > _MAX_UPPER_M:
        raise ValueError(f"{op}: need C(n, ceil(n/2)) <= {_MAX_UPPER_M}, "
                         f"the kappa table row cap, got n = {n}")
    return r, comb(n, r)


def _check_m_max(op: str, r: int, m_max: int | None) -> int:
    """m_max, C(2r, r) + 2r by default, after refusing a table on 0..m_max
    past the row cap."""
    if m_max is not None:
        _check_int(op, "m_max", m_max, 0, _MAX_UPPER_M)
        return m_max
    # C(2r, r) >= 2**r, so a longer r passes the cap without computing it
    if r > _MAX_UPPER_M.bit_length() or comb(2 * r, r) + 2 * r > _MAX_UPPER_M:
        raise ValueError(f"{op}: the default m_max = C(2r, r) + 2r passes the "
                         f"kappa table row cap {_MAX_UPPER_M} at r = {r}; "
                         f"give m_max <= {_MAX_UPPER_M}")
    return comb(2 * r, r) + 2 * r


def _condition_column(r: int, count: int) -> list[bool]:
    """Thm 2.3's condition (every cascade coefficient a_i >= 2i - 1) for
    ranks 0..count-1 of level r.

    The cascade terms of the rank-m set are C(e_i - 1, i) for the elements
    e_i past its initial run, so the condition says e_i >= 2i for each.  For
    a set S + {a} of block a the largest element is e_r = a, and S keeps its
    run and its other e_i: the block is S's condition prefix when a >= 2r
    and all False otherwise.  [r] has no terms past its run.
    """
    if r == 1:
        return [True] * count  # {1}, {2}, ...
    if count <= r + 1:
        # past rank 0, the ranks m <= r put r+1 at index r
        return [True] * min(count, 1) + [False] * (count - 1)
    blocks = _level_blocks(r, count)
    prefix = _condition_column(
        r - 1, max((size for a, size in blocks if a >= 2 * r), default=0))
    col = [True]
    for a, size in blocks:
        col += prefix[:size] if a >= 2 * r else [False] * size
    return col


@dataclass
class KappaTable:
    """kappa and kappa_star tabulated on 0..upper_m at one level r.

    Appending the rank-m set to a segment of the squashed order grows the
    segment's shadow by that set's new-shadow size, the length of its
    initial run 1, 2, ... (the closed form of _pure.new_shadow_masks).  So
    the kappa column is the running sum of run length minus one over the
    level, and that column follows the level's block recursion
    (_run_column): list slices and one accumulate, no walk over the sets.
    It stays an independent route against the cascade formula.  kappa_star
    is not passed in: the table derives it as the running minimum of the
    kappa column it is given.  The column must be a list; its entries are
    not type-checked one by one, so a float or bool entry is not detected,
    only one the running-minimum compare rejects.
    """

    level_r: int
    upper_m: int
    kappa: list[int]
    kappa_star: list[int] = field(init=False)

    def __post_init__(self):
        _check_int("KappaTable", "level_r", self.level_r, 1)
        _check_int("KappaTable", "upper_m", self.upper_m, 0)
        if type(self.kappa) is not list:
            raise ValueError(f"KappaTable: kappa must be a list, "
                             f"got {type(self.kappa).__name__}")
        if len(self.kappa) != self.upper_m + 1:
            raise ValueError(f"KappaTable: need upper_m + 1 kappa values, got "
                             f"upper_m={self.upper_m} and {len(self.kappa)} values")
        low = self.kappa[0]
        try:
            # a compare, not min(): the builtin call costs several times more
            self.kappa_star = [(low := value) if value < low else low
                               for value in self.kappa]
        except TypeError as exc:
            raise ValueError(f"KappaTable: kappa must hold integers: {exc}") from None

    @classmethod
    def build(cls, r: int, upper_m: int) -> "KappaTable":
        _check_int("KappaTable", "r", r, 1)
        _check_int("KappaTable", "upper_m", upper_m, 0, _MAX_UPPER_M)
        return cls(r, upper_m, _kappa_column(r, upper_m))

    def to_tsv(self) -> str:
        lines = ["m\tkappa\tkappa_star"]
        for m in range(self.upper_m + 1):
            lines.append(f"{m}\t{self.kappa[m]}\t{self.kappa_star[m]}")
        return "\n".join(lines) + "\n"


@timed
def verify_prop22(r: int = 2, m_max: int | None = None) -> VerificationReport:
    """Sign pattern of kappa_r on 0..m_max (by default r = 2, m_max = C(2r, r) + 2r).

    kappa_r(m) is negative exactly from the negativity threshold on, and
    zero exactly on {0} together with the suffix sums of C(2i-1, i).  The
    whole column is decided first, by its minimum before the threshold, its
    maximum from it on and its count of zeros; only a column that fails is
    walked m by m for its violations.
    """
    _check_int("verify_prop22", "r", r, 1)
    m_max = _check_m_max("verify_prop22", r, m_max)
    rep = VerificationReport("prop22", {"r": r, "m_max": m_max})
    rep.checks_run = 2 * (m_max + 1)
    p = negativity_threshold(r)
    # the suffix sums of C(2i-1, i), summed from i = r down
    zeros = {0, *accumulate(comb(2 * i - 1, i) for i in range(r, 0, -1))}
    col = _kappa_column(r, m_max)
    cut = min(p, m_max + 1)
    seen = [z for z in zeros if z <= m_max]
    if min(col[:cut]) >= 0 and max(col[cut:], default=-1) < 0 \
            and col.count(0) == len(seen) and not any(col[z] for z in seen):
        return rep
    for m, v in enumerate(col):
        if (v < 0) != (m >= p):
            rep.violations.append({"part": "negativity", "r": r, "m": m,
                                   "kappa": v, "threshold": p})
        if (v == 0) != (m in zeros):
            rep.violations.append({"part": "zero-set", "r": r, "m": m,
                                   "kappa": v})
    return rep


@timed
def verify_thm23(r: int = 2, m_max: int | None = None) -> VerificationReport:
    """kappa_r(m) = kappa*_r(m) exactly when every cascade coefficient
    satisfies a_i >= 2i - 1; by default r = 2 and m_max = C(2r, r) + 2r."""
    _check_int("verify_thm23", "r", r, 1)
    m_max = _check_m_max("verify_thm23", r, m_max)
    rep = VerificationReport("thm23", {"r": r, "m_max": m_max})
    table = KappaTable.build(r, m_max)
    cond = _condition_column(r, m_max + 1)
    at_minimum = map(eq, table.kappa, table.kappa_star)
    for m in compress(range(m_max + 1), map(ne, cond, at_minimum)):
        rep.violations.append({"r": r, "m": m, "kappa": table.kappa[m],
                               "kappa_star": table.kappa_star[m],
                               "coefficients_large": cond[m]})
    rep.checks_run = m_max + 1
    return rep


def _exchange_violations(table: KappaTable, a_range, k_range):
    """Yield (a, k, lhs, rhs) for every cell of a_range x k_range, k-major,
    where lhs = kappa(M) + kappa*(k) exceeds rhs = kappa(a) + kappa*(k + M - a),
    with M = table.upper_m and kappa* saturating at M."""
    big_m = table.upper_m
    kappa_col = table.kappa
    star = table.kappa_star
    lhs_base = kappa_col[big_m]
    for k in k_range:
        lhs = lhs_base + star[k]
        for a in a_range:
            # kappa* saturates at M: k + M - a exceeds M exactly when k > a
            rhs = kappa_col[a] + (star[k + big_m - a] if k <= a else star[big_m])
            if lhs > rhs:
                yield a, k, lhs, rhs


def _violating_steps(table: KappaTable):
    """Yield, ascending, the steps (s, e) of constant kappa* whose rows k in
    s..e of the full exchange grid are not all free of violations.

    On a step the left side is constant and the right side shrinks as k
    grows, so row e decides it.  With d = M - a, cell (a, k) holds iff
    kappa*(k) - kappa*(min(k+d, M)) <= kappa(a) - kappa(M); the left side
    sums the drops of kappa* at the step starts in (k, k+d].  With step t
    running from s_t to e_t at value v_t, the grid holds iff
    kappa*(M) >= kappa(M) (else every row fails) and, for all t < u,
    kappa(M) + v_t <= v_u + kappa*(M + e_t - s_u): the cells of row e_t that
    see the drops up to s_u are a <= M + e_t - s_u, and the least kappa
    among them, kappa*(M + e_t - s_u), binds.  A block of steps
    first..last is bounded below by v_last + kappa*(M + e_t - s_first) and
    bisected only while that bound falls below the left side.

    The right side is F(s_u) with F(x) = kappa*(x) + kappa*(M + e_t - x),
    symmetric about (M + e_t)/2, and F(e_t) is the left side.  The mirror of
    a violating start past the middle lies in a later step whose start
    violates too, so only the starts s_u <= (M + e_t)/2 are checked.
    """
    big_m = table.upper_m
    star = table.kappa_star
    ends = list(compress(range(big_m), map(ne, star, star[1:]))) + [big_m]
    starts = [0] + [e + 1 for e in ends[:-1]]
    values = [star[e] for e in ends]
    lhs_base = table.kappa[big_m]
    if star[big_m] < lhs_base:
        yield from zip(starts, ends)
        return
    for step, (s, e) in enumerate(zip(starts, ends)):
        lhs = lhs_base + values[step]
        d = big_m + e
        top = bisect_right(starts, d // 2) - 1
        blocks = [(step + 1, top)] if step < top else []
        while blocks:
            first, last = blocks.pop()
            if values[last] + star[d - starts[first]] >= lhs:
                continue
            if first == last:
                yield s, e
                break
            mid = (first + last) // 2
            blocks += [(mid + 1, last), (first, mid)]


def _full_grid_violations(table: KappaTable):
    """_exchange_violations on the full grid, k-major, run only on the rows
    of the steps that _violating_steps cannot certify."""
    grid = range(table.upper_m + 1)
    for s, e in _violating_steps(table):
        yield from _exchange_violations(table, grid, range(s, e + 1))


@timed
def verify_prop24(n: int = 6, a_only: int | None = None,
                  k_only: int | None = None) -> VerificationReport:
    """kappa(M) + kappa*(k) <= kappa(a) + kappa*(k + M - a) on [0, M]^2,
    where r = ceil(n/2) and M = C(n, r); n = 6 by default.

    kappa* saturates at the level size M: arguments past M clamp to M, the
    largest segment the level admits.  Optional a_only/k_only restrict the
    grid to one row, column, or cell.
    """
    r, big_m = _half_level("verify_prop24", n)
    for name, value in (("a", a_only), ("k", k_only)):
        if value is not None:
            _check_int("verify_prop24", name, value, 0, big_m)
    rep = VerificationReport("prop24", {"n": n, "r": r, "M": big_m,
                                        "a": a_only, "k": k_only})
    table = KappaTable.build(r, big_m)
    a_range = range(big_m + 1) if a_only is None else (a_only,)
    k_range = range(big_m + 1) if k_only is None else (k_only,)
    rep.checks_run = len(a_range) * len(k_range)
    if a_only is None and k_only is None:
        cells = _full_grid_violations(table)
    else:
        cells = _exchange_violations(table, a_range, k_range)
    for a, k, lhs, rhs in cells:
        rep.violations.append({"n": n, "a": a, "k": k, "lhs": lhs, "rhs": rhs})
    return rep


@timed
def verify_lemma38(n: int = 8) -> VerificationReport:
    """kappa_r(m) >= kappa_r(C(n, r)) for all 0 <= m <= C(n, r), r = ceil(n/2);
    for even n equality holds only at m = C(n, n/2) itself (and m = 0 gives
    kappa = 0 > the minimum).  n = 8 by default."""
    r, big_m = _half_level("verify_lemma38", n)
    rep = VerificationReport("lemma38", {"n": n, "r": r, "M": big_m})
    col = _kappa_column(r, big_m)
    target = col[big_m]
    # below the minimum, or (even n) on it before m = M; m = M never fails
    fails = target.__ge__ if n % 2 == 0 else target.__gt__
    for m in compress(range(big_m), map(fails, col)):
        v = col[m]
        if v < target:
            rep.violations.append({"part": "minimum", "n": n, "m": m,
                                   "kappa": v, "at_level_size": target})
        else:
            rep.violations.append({"part": "uniqueness", "n": n, "m": m,
                                   "kappa": v})
    rep.checks_run = big_m + 1
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
    are reported rather than asserted, and the search is exhaustive: whole
    steps of kappa* are certified from its step list (_violating_steps),
    and the rows it cannot certify are scanned cell by cell.
    """
    r, big_m = _half_level("check_conjecture51", n, even=True)
    table = KappaTable.build(r, big_m)
    return [(a, k) for a, k, _, _ in _full_grid_violations(table)]


@timed
def verify_conjecture51(n: int = 8) -> VerificationReport:
    """Report wrapper around check_conjecture51 over the full grid; n = 8 by default."""
    r, big_m = _half_level("verify_conjecture51", n, even=True)
    rep = VerificationReport("conjecture51", {"n": n, "r": r, "M": big_m})
    rep.violations = [{"a": a, "k": k} for a, k in check_conjecture51(n)]
    rep.checks_run = (big_m + 1) ** 2
    return rep
