"""Exact binomial arithmetic and the column difference function D(n, r)."""

from __future__ import annotations

import math
import sys

from .report import VerificationReport, timed


def _check_int(op: str, name: str, value, lo: int | None = None,
               hi: int | None = None, even: bool = False) -> None:
    """Raise a ValueError unless value is a plain int (bools are rejected)
    with lo <= value <= hi, and even if asked; a bound left None is not
    checked, and hi comes with lo.  The message names op and the argument,
    so a float such as 2.5 is neither truncated nor passed on to fail
    later."""
    if type(value) is not int:
        raise ValueError(f"{op}: {name} must be an integer, got {value!r}")
    if (lo is not None and value < lo) or (hi is not None and value > hi) \
            or (even and value % 2):
        span = f"{name} >= {lo}" if hi is None else f"{lo} <= {name} <= {hi}"
        raise ValueError(f"{op}: need {'even ' if even else ''}{span}, got {value}")


def _check_type(op: str, name: str, value, cls: type) -> None:
    """Raise a ValueError naming op and the argument unless value is an
    instance of cls (a Subset, a SetFamily, a str or a bool)."""
    if not isinstance(value, cls):
        raise ValueError(f"{op}: {name} must be a {cls.__name__}, got {value!r}")


def binom(n: int, k: int) -> int:
    """C(n, k) as an exact integer; 0 when k < 0 or k > n.  Requires n >= 0
    and min(k, n - k) <= sys.maxsize, the reach of math.comb."""
    _check_int("binom", "n", n, 0)
    _check_int("binom", "k", k)
    try:
        return math.comb(n, k) if k >= 0 else 0
    except OverflowError:  # raised before any work, so only past the reach
        raise ValueError(f"binom: need min(k, n - k) <= {sys.maxsize}, "
                         f"got n = {n}, k = {k}") from None


def d_value(n: int, r: int) -> int:
    """D(n, r) = C(n, r-1) - C(n, r) when r <= n, else 0.

    Both arguments must be positive; the identity sweeps below stay on that
    domain.
    """
    _check_int("d_value", "n", n, 1)
    _check_int("d_value", "r", r, 1)
    return _d(n, r)


def _d(n: int, r: int) -> int:
    """d_value without the argument checks, for callers that made them."""
    return math.comb(n, r - 1) - math.comb(n, r) if r <= n else 0


def hockey_stick(r: int, k: int) -> int:
    """Sum of C(r+i, i) for i = 0..k, which telescopes to C(r+k+1, k)."""
    _check_int("hockey_stick", "r", r, 0)
    _check_int("hockey_stick", "k", k, 0)
    total = sum(math.comb(r + i, i) for i in range(k + 1))
    if total != math.comb(r + k + 1, k):
        raise RuntimeError(f"hockey_stick: sum {total} misses C({r + k + 1}, {k})")
    return total


def _cascade_terms(m: int, r: int) -> tuple[tuple[int, int], ...]:
    """The cascade m = C(a_r, r) + C(a_{r-1}, r-1) + ... + C(a_t, t),
    a_r > ... > a_t >= t >= 1, as its (a_i, i) terms; () for m = 0.  The
    arguments are checked by the caller: m >= 0, and r >= 1 unless m = 0.

    Greedily taking the largest C(a, i) <= remainder at each level i = r,
    r-1, ... yields the unique representation: the remainder after C(a_i, i)
    is below C(a_i + 1, i) - C(a_i, i) = C(a_i, i-1), which forces strict
    decrease.  So each a_i is found by bisection on [i-1, a_{i+1}), and the
    top one on a bracket found by doubling; the work is polynomial in
    log m and r.  When m < 2**r the doubling is skipped: with b <= r the
    bit length of m, C(r + b, r) >= 2**b > m, so r + b brackets a_r without
    computing C(2r, r), which for a huge r and a tiny m is slow or
    overflows.
    """
    terms = []
    rem = m
    i = r
    hi = None
    while rem > 0:
        lo = i - 1
        if hi is None:
            hi = i if rem >> i else i + rem.bit_length()
            while math.comb(hi, i) <= rem:
                lo, hi = hi, 2 * hi
        # invariant: C(lo, i) <= rem < C(hi, i)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if math.comb(mid, i) <= rem:
                lo = mid
            else:
                hi = mid
        terms.append((lo, i))
        rem -= math.comb(lo, i)
        hi = lo
        i -= 1
    return tuple(terms)


def _sign(x: int) -> int:
    return (x > 0) - (x < 0)


@timed
def verify_d_identities(n_max: int = 24, r_max: int = 20) -> VerificationReport:
    """Sweep the structural identities of D, exactly, by default on the 24 x 20 grid.

    With 1 <= n <= n_max and 1 <= r <= r_max where each statement applies:

    * sign trichotomy on r <= n: D(n, r) is positive, zero, or negative as
      2r is greater than, equal to, or less than n + 1;
    * the Pascal-style recurrence D(n-1, r-1) + D(n-1, r) = D(n, r),
      swept for 2 <= r <= n-1: at r = 1 the left side leaves the positive
      domain, and at r = n it would need the formula value C(n-1, n-1) = 1
      where the r > n rule returns 0 instead;
    * strict decrease in n once n >= 2r - 1, and hence D(n, r) < D(m, r)
      for every earlier row m < n in that range, except the corner
      n = 2r - 1 with m < r where both sides vanish and strictness fails;
    * column maxima: D(m, 1) <= D(1, 1) and, for r >= 2, D(m, r) <= D(2r-2, r);
    * the diagonal sums over r = 1..j of D(j-2+r, r) equal 1 for j >= 2;
    * D(2r, r) plus the sum over i < r of D(2i-2, i) is negative (the i = 1
      term is D(0, 1), which the r > n rule sends to 0).
    """
    _check_int("verify_d_identities", "n_max", n_max, 1)
    _check_int("verify_d_identities", "r_max", r_max, 1)
    # every D below has n, r >= 1, so it is computed unchecked
    rep = VerificationReport("d-identities", {"n_max": n_max, "r_max": r_max})
    bad = rep.violations.append

    for n in range(1, n_max + 1):
        for r in range(1, min(r_max, n) + 1):
            v = _d(n, r)
            want = 1 if 2 * r > n + 1 else (0 if 2 * r == n + 1 else -1)
            rep.checks_run += 1
            if _sign(v) != want:
                bad({"identity": "sign-trichotomy", "n": n, "r": r, "value": v})

    for n in range(3, n_max + 1):
        for r in range(2, min(r_max, n - 1) + 1):
            rep.checks_run += 1
            if _d(n - 1, r - 1) + _d(n - 1, r) != _d(n, r):
                bad({"identity": "recurrence", "n": n, "r": r})

    for r in range(1, r_max + 1):
        lo = max(1, 2 * r - 1)
        for n in range(lo, n_max + 1):
            rep.checks_run += 1
            if not _d(n + 1, r) < _d(n, r):
                bad({"identity": "strict-decrease", "n": n, "r": r})
            for m in range(1, n):
                if n == 2 * r - 1 and m < r:
                    continue
                rep.checks_run += 1
                if not _d(n, r) < _d(m, r):
                    bad({"identity": "cross-row", "n": n, "m": m, "r": r})

    for m in range(1, n_max + 1):
        rep.checks_run += 1
        if not _d(m, 1) <= _d(1, 1):
            bad({"identity": "column-max", "m": m, "r": 1})
    for r in range(2, r_max + 1):
        peak = _d(2 * r - 2, r)
        for m in range(1, n_max + 1):
            rep.checks_run += 1
            if not _d(m, r) <= peak:
                bad({"identity": "column-max", "m": m, "r": r})

    for j in range(2, r_max + 1):
        total = sum(_d(j - 2 + r, r) for r in range(1, j + 1))
        rep.checks_run += 1
        if total != 1:
            bad({"identity": "diagonal-sum", "j": j, "value": total})

    for r in range(1, r_max + 1):
        # i = 1 contributes D(0, 1) = 0 by the r > n rule; start the sum at i = 2
        total = _d(2 * r, r) + sum(_d(2 * i - 2, i) for i in range(2, r))
        rep.checks_run += 1
        if not total < 0:
            bad({"identity": "negative-column-sum", "r": r, "value": total})

    return rep
