"""Command-line interface: point computations and the verification suite.

Exit codes: 0 on success / all checks pass, 1 when a verification records
violations, 2 on usage errors (bad parameters, a flag the sweep does not
read, an --out path that cannot be written).  Reports print to standard
output, identical for identical invocations apart from elapsed times.
Standard error gets errors, --out's "wrote FILE" line and one summary line
per sweep of `verify all` as it ends; a lone sweep prints nothing until done.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys

from . import antichains, binomials, shadows, squashed
from .kappa import (_MAX_DEFAULT_R, KappaTable, kappa, kappa_star,
                    verify_conjecture51, verify_lemma38, verify_prop22,
                    verify_prop24, verify_thm23)
from .report import VerificationReport

# command: (help, its required int flags in call order)
_COMMANDS = {
    "kappa": ("kappa_r(m), the minimum shadow size minus m", "rm"),
    "kappa-star": ("running minimum of kappa_r over 0..m", "rm"),
    "kappa-table": ("tabulate kappa and kappa_star for m = 0..m", "rm"),
    "cascade": ("cascade representation of m at level r", "mr"),
    "shadow-min": ("minimum shadow size of m distinct r-sets", "mr"),
    "rank": ("0-based squashed rank of a subset", ""),
    "unrank": ("the rank-m k-subset of {1..n} (0-based rank)", "mnk"),
    "bound": ("the cross-intersecting antichain bound for n, k", "nk"),
    "extremal": ("an explicit pair of antichains meeting the bound", "nk"),
    "verify": ("run one verification sweep (or all)", ""),
}

# The commands that print one value: fn(*flags in call order).
_SCALARS = {"kappa": kappa, "kappa-star": kappa_star,
            "shadow-min": shadows.kk_shadow_min,
            "bound": antichains.theorem25_bound}

# verify's optional flags; _SWEEPS below says which sweep reads which.
_VERIFY_FLAGS = {
    "n": "ground set size, or grid bound", "r": "level, or grid bound",
    "m": "segment-length bound", "k": "set size or matching bound",
    "a": "restrict prop24 to one column",
    "exact": "exact-k matching regime for thm25-brute",
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The kktools parser.  Given one of the commands, only that command's
    subparser is built, which is most of the cost; usage, help and error
    text are the same as the full parser's for every argument list that
    starts with that command."""
    parser = argparse.ArgumentParser(
        prog="kktools",
        description="Exact computations around minimum shadows, the squashed "
                    "order, and cross-intersecting antichain bounds.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("pretty", "json", "tsv"),
                        default="pretty", help="output format")
    common.add_argument("--out", metavar="FILE",
                        help="write the result to FILE instead of stdout")
    narrow = command in _COMMANDS
    # a narrow parser's usage line still lists every command; it reports no
    # error on the command argument, whose name the metavar would change
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar="{" + ",".join(_COMMANDS) + "}" if narrow else None)
    for name in [command] if narrow else _COMMANDS:
        text, flags = _COMMANDS[name]
        p = sub.add_parser(name, parents=[common], help=text)
        for flag in flags:
            p.add_argument(f"--{flag}", type=int, required=True)

    if "rank" in sub.choices:
        p = sub.choices["rank"]
        p.add_argument("--set", required=True, dest="set_text", metavar="SET",
                       help="digit string (n <= 9) or {a,b,...}")
        p.add_argument("--n", type=int, help="ground set size (default: largest element)")

    if "verify" in sub.choices:
        p = sub.choices["verify"]
        p.add_argument("which", choices=tuple(_SWEEPS))
        for flag, text in _VERIFY_FLAGS.items():
            # --exact is None when absent, like the int flags: given is not None
            kind = {"type": int} if flag != "exact" else {"action": "store_true",
                                                           "default": None}
            p.add_argument(f"--{flag}", help=text, **kind)
    return parser


def _params(ns: argparse.Namespace) -> dict:
    """The command's own arguments, in the order the parser declares them."""
    return {key: val for key, val in vars(ns).items()
            if key not in ("command", "format", "out", "which")}


def _check_out(path: str) -> None:
    """Fail before any work, opening nothing, unless `path` can be written."""
    folder = os.path.dirname(path) or "."
    if os.path.isdir(path) or not os.path.isdir(folder) or not os.access(folder, os.W_OK) \
            or (os.path.exists(path) and not os.access(path, os.W_OK)):
        raise ValueError(f"cannot write --out {path}")


def _emit(text: str, ns: argparse.Namespace) -> None:
    if ns.out:
        with open(ns.out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
        print(f"wrote {ns.out}", file=sys.stderr)
    else:
        print(text)


def _emit_json(payload: dict, ns: argparse.Namespace) -> None:
    _emit(json.dumps(payload, indent=2), ns)


def _emit_scalar(value, ns: argparse.Namespace, extras: dict | None = None,
                 text: str | None = None) -> int:
    """JSON {command, params, value, **extras}; else `text`, or the value."""
    if ns.format == "json":
        _emit_json({"command": ns.command, "params": _params(ns), "value": value,
                    **(extras or {})}, ns)
    else:
        _emit(str(value) if text is None else text, ns)
    return 0


def _cmd_kappa_table(ns: argparse.Namespace) -> int:
    table = KappaTable.build(ns.r, ns.m)
    if ns.format == "json":
        rows = [list(row) for row in zip(range(ns.m + 1), table.kappa, table.kappa_star)]
        _emit_json({"command": "kappa-table", "r": table.level_r,
                    "columns": ["m", "kappa", "kappa_star"], "rows": rows}, ns)
    else:
        _emit(table.to_tsv().rstrip("\n"), ns)
    return 0


def _cmd_cascade(ns: argparse.Namespace) -> int:
    rep = shadows.cascade_rep(ns.m, ns.r)
    if ns.format == "json":
        _emit_json({"command": "cascade", "m": rep.value_m, "r": rep.level_r,
                    "terms": [list(t) for t in rep.terms],
                    "shadow_min": rep.shadow_sum()}, ns)
    else:
        _emit(str(rep), ns)
    return 0


def _cmd_rank(ns: argparse.Namespace) -> int:
    n = max((1, *squashed.parse_elements(ns.set_text))) if ns.n is None else ns.n
    s = squashed.parse_subset(ns.set_text, n)
    rk = squashed.rank(s)
    total = binomials.binom(n, s.size)
    text = squashed.format_subset(s)
    return _emit_scalar(rk, ns, {"position": rk + 1, "of": total, "set": text},
                        f"rank {rk}, position {rk + 1} of {total}: {text}")


def _cmd_unrank(ns: argparse.Namespace) -> int:
    text = squashed.format_subset(squashed.unrank(ns.m, ns.n, ns.k))
    return _emit_scalar(text, ns, {"rank": ns.m, "position": ns.m + 1})


def _cmd_extremal(ns: argparse.Namespace) -> int:
    info = antichains.construct_extremal(ns.n, ns.k).to_json()
    if ns.format == "json":
        _emit_json(info, ns)
    else:
        a, b = info["family_a"], info["family_b"]  # str(SetFamily)'s text
        _emit("\n".join([
            f"case {info['case']}" + ("" if info["m"] is None else f", m = {info['m']}"),
            f"A ({len(a)} sets): {{{', '.join(a)}}}",
            f"B ({len(b)} sets): {{{', '.join(b)}}}",
            f"total {info['total']} = bound {info['bound']}, "
            f"{info['pair_count']} disjoint pairs (matching: {info['is_matching']})",
        ]), ns)
    return 0


def run_all(n_max: int = 8, r_max: int = 6):
    """The full verification suite at desk scale.

    Returns a list of (name, report): the identity grid at (n_max, r_max),
    per-ground-set checks for n up to n_max, per-level checks for r up to
    r_max, and the brute-force checks at their enumerable sizes.  n_max
    runs to the window sweep's cap and r_max to the largest level whose
    default m_max a kappa table takes; past either the suite is refused
    before any sweep runs.
    """
    binomials._check_int("run_all", "n_max", n_max, 1)
    binomials._check_int("run_all", "r_max", r_max, 1)
    binomials._check_int("run_all", "n_max", n_max, 1, shadows._MAX_WINDOW_N)
    binomials._check_int("run_all", "r_max", r_max, 1, _MAX_DEFAULT_R)
    out: list[tuple[str, VerificationReport]] = []

    def log(name, rep):
        print(f"  {rep.summary()}", file=sys.stderr)
        out.append((name, rep))

    log("d-identities", binomials.verify_d_identities(n_max, r_max))
    log("kkt", shadows.verify_kkt(n_max=max(n_max, 9)))
    for n in range(2, n_max + 1):
        log(f"lieby n={n}", shadows.verify_lieby_duality(n))
    for n in range(2, n_max + 1):
        for k in range(1, n):
            log(f"clements n={n} k={k}", shadows.verify_clements_minimality(n, k))
    for r in range(1, r_max + 1):
        log(f"prop22 r={r}", verify_prop22(r))
        log(f"thm23 r={r}", verify_thm23(r))
    for n in range(2, n_max + 1):
        log(f"prop24 n={n}", verify_prop24(n))
        log(f"lemma38 n={n}", verify_lemma38(n))
    for n in range(4, n_max + 1, 2):
        log(f"conjecture51 n={n}", verify_conjecture51(n))
        log(f"extremal n={n}", antichains.verify_extremal_constructions(n))
    if n_max >= 4:
        log("thm25-brute n=4", antichains.verify_thm25_brute(4))
        log("thm26 n=4", antichains.verify_thm26_structure(4))
    for n in range(1, min(n_max, 5) + 1):
        log(f"sperner n={n}", antichains.sperner_max_check(n))
    return out


# verify's sweeps: (function, {flag: its keyword}); absent flags take its defaults
_SWEEPS = {
    "d-identities": (binomials.verify_d_identities, {"n": "n_max", "r": "r_max"}),
    "kkt": (shadows.verify_kkt, {"n": "n_max"}),
    "lieby": (shadows.verify_lieby_duality, {"n": "n"}),
    "clements": (shadows.verify_clements_minimality, {"n": "n", "k": "k"}),
    "prop22": (verify_prop22, {"r": "r", "m": "m_max"}),
    "thm23": (verify_thm23, {"r": "r", "m": "m_max"}),
    "prop24": (verify_prop24, {"n": "n", "a": "a_only", "k": "k_only"}),
    "lemma38": (verify_lemma38, {"n": "n"}),
    "thm25-brute": (antichains.verify_thm25_brute, {"n": "n", "k": "k", "exact": "exact"}),
    "thm26": (antichains.verify_thm26_structure, {"n": "n", "k": "k"}),
    "extremal": (antichains.verify_extremal_constructions, {"n": "n"}),
    "sperner": (antichains.sperner_max_check, {"n": "n"}),
    "conjecture51": (verify_conjecture51, {"n": "n"}),
    "all": (run_all, {"n": "n_max", "r": "r_max"}),
}


def _verify_dispatch(which: str, params: dict) -> VerificationReport:
    """Sweep `which` on the flags given in `params`, the rest at its defaults."""
    sweep, keyword = _SWEEPS[which]
    return sweep(**{keyword[flag]: value for flag, value in params.items()})


def _cmd_verify(ns: argparse.Namespace) -> int:
    which, keyword = ns.which, _SWEEPS[ns.which][1]
    given = {flag: value for flag, value in _params(ns).items() if value is not None}
    unread = [f"--{flag}" for flag in given if flag not in keyword]
    if unread:
        raise ValueError(f"verify {which} does not read {', '.join(unread)}")
    if which == "all":
        args = inspect.signature(run_all).bind(**{keyword[f]: v for f, v in given.items()})
        args.apply_defaults()
        rows = run_all(**args.arguments)
    else:
        rep = _verify_dispatch(which, given)
        rows = [(rep.check, rep)]
    passed = all(rep.passed for _, rep in rows)
    if ns.format == "tsv":
        _emit("\n".join(["check\tpassed\tviolations\tchecks\telapsed_ms"] + [
            f"{label}\t{rep.passed}\t{len(rep.violations)}\t"
            f"{rep.checks_run}\t{rep.elapsed_ms:.1f}" for label, rep in rows]), ns)
    elif ns.format == "json":
        _emit_json(rep.to_json() if which != "all" else {
            "check": "all",
            "params": args.arguments,
            "passed": passed,
            "violations": [v for _, rep in rows for v in rep.violations],
            "witnesses": [{"check": label, "passed": rep.passed,
                           "checks_run": rep.checks_run} for label, rep in rows],
            "elapsed_ms": sum(rep.elapsed_ms for _, rep in rows),
        }, ns)
    else:
        lines = [rep.summary() for _, rep in rows]
        if which == "all":
            lines.append("ALL PASS" if passed else "FAILURES PRESENT")
        else:
            lines += [f"  violation: {v}" for v in rep.violations[:20]]
            if len(rep.violations) > 20:
                lines.append(f"  ... {len(rep.violations) - 20} more")
        _emit("\n".join(lines), ns)
    return 0 if passed else 1


_HANDLERS = {"kappa-table": _cmd_kappa_table, "cascade": _cmd_cascade,
             "rank": _cmd_rank, "unrank": _cmd_unrank,
             "extremal": _cmd_extremal, "verify": _cmd_verify}


def main(argv=None) -> int:
    """Run one kktools invocation; returns the process exit code.

    Exact integers have no digit limit here, in flags or in output: the
    interpreter's int/str digit limit, where it has one, is lifted for the
    call and put back after it, for a caller that runs main in process."""
    argv = sys.argv[1:] if argv is None else list(argv)
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return _run(argv)
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def _run(argv: list) -> int:
    try:
        ns = build_parser(argv[0] if argv else None).parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if ns.out:
            _check_out(ns.out)
        if ns.command in _SCALARS:
            return _emit_scalar(_SCALARS[ns.command](*_params(ns).values()), ns)
        return _HANDLERS[ns.command](ns)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
