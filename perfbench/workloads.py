"""The benchmark's workloads: inputs from a seed, the timed calls, and the
checks of every answer against expected counts or the benchmark's own oracle.

Each workload is a class with three steps:

* ``__init__(seed, scratch)`` makes the inputs (part of set-up);
* ``run()`` makes the library calls (timed) and returns their raw outputs
  with the latency of each call in ms;
* ``check(outputs)`` returns ``(attempted, failed, errors)`` (not timed).

Only public names of the package are called, and always looked up on the
``kktools`` module at call time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import random
import time

import kktools

DEDEKIND = {1: 3, 2: 6, 3: 20, 4: 168, 5: 7581}
HERE = os.path.dirname(os.path.abspath(__file__))


def _report_ok(rep, expected_checks: int) -> str | None:
    """None when a sweep report passed with the expected number of checks."""
    if rep.violations:
        return f"{rep.check}: {len(rep.violations)} violations"
    if rep.checks_run != expected_checks:
        return f"{rep.check}: {rep.checks_run} checks, expected {expected_checks}"
    return None


def _timed(latencies: list, fn, *args, **kwargs):
    """fn(*args, **kwargs), appending its latency in ms to latencies."""
    t0 = time.perf_counter()
    try:
        return fn(*args, **kwargs)
    finally:
        latencies.append((time.perf_counter() - t0) * 1000.0)


def _clear_antichain_cache() -> None:
    """Empty the enumerate_antichains cache: every CLI process starts cold,
    so every repetition does."""
    clear = getattr(kktools.enumerate_antichains, "cache_clear", None)
    if clear is not None:
        clear()


def _tally(problems: list) -> tuple[int, int, list[str]]:
    errors = [p for p in problems if p is not None]
    return len(problems), len(errors), errors


class Battery:
    """`kktools verify all --format json` at its defaults (n_max=8, r_max=6).

    The per-sweep check counts are pinned in battery_checks.json.
    """

    def __init__(self, seed: int, scratch: str):
        self.out_path = os.path.join(scratch, f"battery-{os.getpid()}.json")
        with open(os.path.join(HERE, "battery_checks.json"), encoding="utf-8") as fh:
            self.expected = json.load(fh)

    def run(self):
        latencies = []
        _clear_antichain_cache()
        with open(os.devnull, "w") as sink, contextlib.redirect_stderr(sink):
            code = _timed(latencies, kktools.main,
                          ["verify", "all", "--format", "json", "--out", self.out_path])
        return code, latencies

    def check(self, code):
        expected = self.expected["checks"]
        try:
            with open(self.out_path, encoding="utf-8") as fh:
                report = json.load(fh)
            os.remove(self.out_path)
        except (OSError, ValueError) as exc:
            return len(expected), len(expected), [f"no report: {exc!r}"]
        got = {w["check"]: w for w in report["witnesses"]}
        problems = []
        for name, checks in expected.items():
            w = got.get(name)
            if w is None:
                problems.append(f"{name}: missing from the report")
            elif not w["passed"] or w["checks_run"] != checks:
                problems.append(f"{name}: passed={w['passed']}, "
                                f"{w['checks_run']} checks, expected {checks}")
            else:
                problems.append(None)
        extra = sorted(set(got) - set(expected))
        if extra or code != 0 or report["violations"] \
                or report["params"] != self.expected["params"]:
            problems.append(f"exit {code}, unexpected sweeps {extra}, "
                            f"{len(report['violations'])} violations")
        return _tally(problems)


class DeficitSweeps:
    """The KappaTable and exchange-grid sweeps (criteria 7/8 and the
    Lemma 3.8, Prop 2.4 and Conjecture 5.1 grids)."""

    M_MAX = 924

    def __init__(self, seed: int, scratch: str):
        self.levels = range(1, 7)
        self.lemma38_n = range(2, 13)
        self.prop24_n = range(4, 12)
        self.conj51_n = range(4, 13, 2)

    def run(self):
        lat = []
        out = []
        for r in self.levels:
            out.append((_timed(lat, kktools.verify_prop22, r, self.M_MAX),
                        2 * (self.M_MAX + 1)))
            out.append((_timed(lat, kktools.verify_thm23, r, self.M_MAX),
                        self.M_MAX + 1))
        for n in self.lemma38_n:
            big_m = math.comb(n, (n + 1) // 2)
            out.append((_timed(lat, kktools.verify_lemma38, n), big_m + 1))
        for n in self.prop24_n:
            big_m = math.comb(n, (n + 1) // 2)
            out.append((_timed(lat, kktools.verify_prop24, n), (big_m + 1) ** 2))
        counterexamples = [(n, _timed(lat, kktools.check_conjecture51, n))
                           for n in self.conj51_n]
        return (out, counterexamples), lat

    def check(self, outputs):
        reports, counterexamples = outputs
        problems = [_report_ok(rep, want) for rep, want in reports]
        problems += [None if found == [] else
                     f"conjecture51 n={n}: {len(found)} counterexamples"
                     for n, found in counterexamples]
        return _tally(problems)


# -- point queries -----------------------------------------------------------

def oracle_cascade(m: int, r: int) -> tuple[tuple[int, int], ...]:
    """Greedy cascade of m at level r by math.comb: at each level i take the
    largest a with C(a, i) <= the remainder."""
    terms = []
    i = r
    while m > 0:
        a = i
        while math.comb(a + 1, i) <= m:
            a += 1
        terms.append((a, i))
        m -= math.comb(a, i)
        i -= 1
    return tuple(terms)


def oracle_kappa(r: int, m: int) -> int:
    return sum(math.comb(a, i - 1) for a, i in oracle_cascade(m, r)) - m


def oracle_rank(elements) -> int:
    return sum(math.comb(e - 1, i) for i, e in enumerate(elements, start=1))


class PointQueries:
    """A closed loop with one client and no think time over a seeded stream
    of point queries.  Every query's latency is recorded."""

    LENGTH = 2000
    # Percent of the stream per query kind.  The counts are exact, and each
    # kind's main size parameter is drawn by stratified sampling (one draw
    # per equal slice of its range), so the total work barely depends on the
    # seed while the arguments and their order do.
    MIX = (("kappa", 30), ("cascade_rep", 20), ("unrank", 20), ("rank", 10),
           ("kappa_star", 12), ("theorem25_bound", 8))

    def __init__(self, seed: int, scratch: str):
        rng = random.Random(seed)
        queries = []
        for kind, percent in self.MIX:
            count = percent * self.LENGTH // 100
            queries += [self._draw(rng, kind, (j + rng.random()) / count)
                        for j in range(count)]
        rng.shuffle(queries)
        self.queries = queries
        self._star: dict[int, list[int]] = {}

    @staticmethod
    def _draw(rng: random.Random, kind: str, u: float):
        """One query of the given kind; u in [0, 1) picks its size."""
        if kind in ("kappa", "cascade_rep"):
            r = 1 + int(u * 12)
            m = rng.randint(0, math.comb(40, r))
            return (kind, r, m) if kind == "kappa" else (kind, m, r)
        if kind in ("unrank", "rank"):
            n = 1 + int(u * 130)
            k = rng.randint(0, n)
            if kind == "unrank":
                return (kind, rng.randrange(math.comb(n, k)), n, k)
            return (kind, tuple(sorted(rng.sample(range(1, n + 1), k))), n)
        if kind == "kappa_star":
            # u picks r in 2..8, and its fractional part m within that level
            r, frac = divmod(u * 7, 1)
            r = 2 + int(r)
            return (kind, r, int(frac * (min(1500, math.comb(2 * r, r)) + 1)))
        half, frac = divmod(u * 5, 1)
        n = 4 + 2 * int(half)
        return (kind, n, int(frac * (math.comb(n, n // 2) + 1)))

    def run(self):
        answers = []
        latencies = []
        clock = time.perf_counter
        for q in self.queries:
            kind = q[0]
            t0 = clock()
            try:
                if kind == "rank":
                    ans = kktools.rank(kktools.Subset(q[1], q[2]))
                else:
                    ans = getattr(kktools, kind)(*q[1:])
            except Exception as exc:  # a failed query is counted, not fatal
                ans = exc
            latencies.append((clock() - t0) * 1000.0)
            answers.append(ans)
        return answers, latencies

    def _kappa_star(self, r: int, m: int) -> int:
        """Running minimum of the oracle kappa, tabulated once per level."""
        col = self._star.setdefault(r, [0])
        while len(col) <= m:
            col.append(min(col[-1], oracle_kappa(r, len(col))))
        return col[m]

    def _expect(self, q, ans) -> bool:
        kind = q[0]
        if kind == "kappa":
            return ans == oracle_kappa(q[1], q[2])
        if kind == "cascade_rep":
            return tuple(ans.terms) == oracle_cascade(q[1], q[2])
        if kind == "unrank":
            _, m, n, k = q
            elems = tuple(ans.elements)
            return (len(elems) == k and ans.ground_n == n
                    and list(elems) == sorted(set(elems))
                    and all(1 <= e <= n for e in elems)
                    and oracle_rank(elems) == m)
        if kind == "rank":
            return ans == oracle_rank(q[1])
        if kind == "kappa_star":
            return ans == self._kappa_star(q[1], q[2])
        n, k = q[1], q[2]
        return ans == (math.comb(n, n // 2) + math.comb(n, n // 2 + 1)
                       - self._kappa_star(n // 2, k))

    def check(self, answers):
        problems = []
        for q, ans in zip(self.queries, answers):
            try:
                ok = not isinstance(ans, Exception) and self._expect(q, ans)
            except (AttributeError, TypeError, ValueError):
                ok = False
            problems.append(None if ok else f"{q[:3]} -> {ans!r}")
        return _tally(problems)


# -- antichain pairs ---------------------------------------------------------

def _canonical(masks) -> list[int]:
    return sorted(set(masks), key=lambda m: (bin(m).count("1"), m))


def oracle_disjoint(a, b):
    pairs = [(x, y) for x in a for y in b if x & y == 0]
    lefts = [x for x, _ in pairs]
    rights = [y for _, y in pairs]
    matching = len(set(lefts)) == len(lefts) and len(set(rights)) == len(rights)
    return pairs, matching


def oracle_sperner(fam, n: int, down: bool) -> list[int]:
    sizes = [bin(m).count("1") for m in fam]
    level = max(sizes) if down else min(sizes)
    moved = [m for m, s in zip(fam, sizes) if s == level]
    rest = [m for m, s in zip(fam, sizes) if s != level]
    if down:
        new = {m ^ (1 << b) for m in moved for b in range(n) if m >> b & 1}
    else:
        new = {m | (1 << b) for m in moved for b in range(n) if not m >> b & 1}
    return _canonical(rest + list(new))


class AntichainPairs:
    """The brute-force antichain sweeps plus seeded Sperner operations and
    disjointness reports on antichains of {1..5}."""

    N = 5
    DRAWS = 120

    def __init__(self, seed: int, scratch: str):
        rng = random.Random(seed)
        # Positions in the enumeration, drawn as fractions so the inputs need
        # no library call; mapped to antichains inside the timed phase.
        self.pair_draws = [(rng.random(), rng.random()) for _ in range(self.DRAWS)]
        self.down_draws = [rng.random() for _ in range(self.DRAWS)]
        self.up_draws = [rng.random() for _ in range(self.DRAWS)]

    @staticmethod
    def _pick(families, u: float, n: int):
        """The antichain at fraction u, moved past the three the Sperner
        operations reject: the empty family, {∅} and {1..n}."""
        i = int(u * len(families))
        full = (1 << n) - 1
        while families[i] in ((), (0,), (full,)):
            i = (i + 1) % len(families)
        return families[i]

    def run(self):
        n = self.N
        lat = []
        _clear_antichain_cache()
        reports = [(_timed(lat, kktools.sperner_max_check, k), DEDEKIND[k])
                   for k in range(1, 6)]
        reports.append((_timed(lat, kktools.verify_thm25_brute, 4),
                        math.comb(4, 2) + 1))
        reports.append((_timed(lat, kktools.verify_thm25_brute, 4, exact=True),
                        math.comb(4, 2) + 1))
        reports.append((_timed(lat, kktools.verify_thm26_structure, 4), 198))
        for k in (4, 6, 8):
            reports.append((_timed(lat, kktools.verify_extremal_constructions, k),
                            math.comb(k, k // 2) + 1))
        families = kktools.enumerate_antichains(n)
        from_masks = kktools.SetFamily.from_masks
        pairs = []
        for u, v in self.pair_draws:
            a = families[int(u * len(families))]
            b = families[int(v * len(families))]
            pairs.append((a, b, _timed(lat, kktools.disjoint_pairs,
                                       from_masks(a, n), from_masks(b, n))))
        moves = []
        for draws, op, down in ((self.down_draws, kktools.sperner_down, True),
                                (self.up_draws, kktools.sperner_up, False)):
            for u in draws:
                fam = self._pick(families, u, n)
                moves.append((fam, down, _timed(lat, op, from_masks(fam, n))))
        return (reports, pairs, moves), lat

    def check(self, outputs):
        reports, pairs, moves = outputs
        n = self.N
        problems = [_report_ok(rep, want) for rep, want in reports]
        for a, b, got in pairs:
            want, matching = oracle_disjoint(a, b)
            have = [(x.mask, y.mask) for x, y in got.pairs]
            problems.append(None if (have, got.pair_count, got.is_matching)
                            == (want, len(want), matching)
                            else f"disjoint_pairs {a} {b}")
        for fam, down, got in moves:
            want = oracle_sperner(fam, n, down)
            problems.append(None if got.masks() == want and got.ground_n == n
                            else f"sperner_{'down' if down else 'up'} {fam}")
        return _tally(problems)


WORKLOADS = {
    "battery": Battery,
    "deficit-sweeps": DeficitSweeps,
    "point-queries": PointQueries,
    "antichain-pairs": AntichainPairs,
}
