"""Command-line interface: point computations and the verification suite.

Exit codes: 0 on success / all checks pass, 1 when a verification records
violations, 2 on usage errors (bad parameters included).  Reports print to
standard output; long sweeps log progress to standard error so output pipes
cleanly.  Identical invocations produce identical reports except for the
elapsed-time field.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field

from . import antichains, binomials, shadows, squashed
from .kappa import (KappaTable, kappa, kappa_star, verify_conjecture51,
                    verify_lemma38, verify_prop22, verify_prop24, verify_thm23)
from .report import VerificationReport


@dataclass
class SweepConfig:
    """One resolved CLI invocation."""

    command: str
    parameters: dict = field(default_factory=dict)
    output_format: str = "pretty"
    out_path: str | None = None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kktools",
        description="Exact computations around minimum shadows, the squashed "
                    "order, and cross-intersecting antichain bounds.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("pretty", "json", "tsv"),
                        default="pretty", help="output format")
    common.add_argument("--out", metavar="FILE",
                        help="write the result to FILE instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kappa", parents=[common],
                       help="kappa_r(m), the minimum shadow size minus m")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--m", type=int, required=True)

    p = sub.add_parser("kappa-star", parents=[common],
                       help="running minimum of kappa_r over 0..m")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--m", type=int, required=True)

    p = sub.add_parser("kappa-table", parents=[common],
                       help="tabulate kappa and kappa_star for m = 0..m")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--m", type=int, required=True)

    p = sub.add_parser("cascade", parents=[common],
                       help="cascade representation of m at level r")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--r", type=int, required=True)

    p = sub.add_parser("shadow-min", parents=[common],
                       help="minimum shadow size of m distinct r-sets")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--r", type=int, required=True)

    p = sub.add_parser("rank", parents=[common],
                       help="0-based squashed rank of a subset")
    p.add_argument("--set", required=True, dest="set_text", metavar="SET",
                   help="digit string (n <= 9) or {a,b,...}")
    p.add_argument("--n", type=int, help="ground set size (default: largest element)")

    p = sub.add_parser("unrank", parents=[common],
                       help="the rank-m k-subset of {1..n} (0-based rank)")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)

    p = sub.add_parser("bound", parents=[common],
                       help="the cross-intersecting antichain bound for n, k")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)

    p = sub.add_parser("extremal", parents=[common],
                       help="an explicit pair of antichains meeting the bound")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)

    p = sub.add_parser("verify", parents=[common],
                       help="run one verification sweep (or all)")
    p.add_argument("which", choices=(
        "d-identities", "kkt", "lieby", "clements", "prop22", "thm23",
        "prop24", "lemma38", "thm25-brute", "thm26", "sperner",
        "conjecture51", "all"))
    p.add_argument("--n", type=int, help="ground set size, or grid bound")
    p.add_argument("--r", type=int, help="level, or grid bound")
    p.add_argument("--m", type=int, help="segment-length bound")
    p.add_argument("--k", type=int, help="set size or matching bound")
    p.add_argument("--a", type=int, help="restrict prop24 to one column")
    p.add_argument("--exact", action="store_true",
                   help="exact-k matching regime for thm25-brute")
    return parser


def _emit(text: str, cfg: SweepConfig) -> None:
    if cfg.out_path:
        with open(cfg.out_path, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
        print(f"wrote {cfg.out_path}", file=sys.stderr)
    else:
        print(text)


def _emit_scalar(value, cfg: SweepConfig, extras: dict | None = None) -> int:
    if cfg.output_format == "json":
        payload = {"command": cfg.command, "params": cfg.parameters,
                   "value": value}
        if extras:
            payload.update(extras)
        _emit(json.dumps(payload, indent=2), cfg)
    else:
        _emit(str(value), cfg)
    return 0


def _report_lines(rep: VerificationReport) -> str:
    lines = [rep.summary()]
    for v in rep.violations[:20]:
        lines.append(f"  violation: {v}")
    if len(rep.violations) > 20:
        lines.append(f"  ... {len(rep.violations) - 20} more")
    return "\n".join(lines)


def _emit_report(rep: VerificationReport, cfg: SweepConfig) -> int:
    if cfg.output_format == "json":
        _emit(json.dumps(rep.to_json(), indent=2), cfg)
    elif cfg.output_format == "tsv":
        _emit("check\tpassed\tviolations\tchecks\telapsed_ms\n"
              f"{rep.check}\t{rep.passed}\t{len(rep.violations)}\t"
              f"{rep.checks_run}\t{rep.elapsed_ms:.1f}", cfg)
    else:
        _emit(_report_lines(rep), cfg)
    return 0 if rep.passed else 1


def _cmd_kappa(cfg: SweepConfig) -> int:
    return _emit_scalar(kappa(cfg.parameters["r"], cfg.parameters["m"]), cfg)


def _cmd_kappa_star(cfg: SweepConfig) -> int:
    return _emit_scalar(kappa_star(cfg.parameters["r"], cfg.parameters["m"]), cfg)


def _cmd_kappa_table(cfg: SweepConfig) -> int:
    table = KappaTable.build(cfg.parameters["r"], cfg.parameters["m"])
    if cfg.output_format == "json":
        rows = [[m, table.kappa[m], table.kappa_star[m]]
                for m in range(table.upper_m + 1)]
        _emit(json.dumps({"command": "kappa-table", "r": table.level_r,
                          "columns": ["m", "kappa", "kappa_star"],
                          "rows": rows}, indent=2), cfg)
    else:
        _emit(table.to_tsv().rstrip("\n"), cfg)
    return 0


def _cmd_cascade(cfg: SweepConfig) -> int:
    rep = shadows.cascade_rep(cfg.parameters["m"], cfg.parameters["r"])
    if cfg.output_format == "json":
        _emit(json.dumps({"command": "cascade", "m": rep.value_m,
                          "r": rep.level_r, "terms": [list(t) for t in rep.terms],
                          "shadow_min": rep.shadow_sum()}, indent=2), cfg)
    else:
        _emit(str(rep), cfg)
    return 0


def _cmd_shadow_min(cfg: SweepConfig) -> int:
    return _emit_scalar(
        shadows.kk_shadow_min(cfg.parameters["m"], cfg.parameters["r"]), cfg)


def _cmd_rank(cfg: SweepConfig) -> int:
    text = cfg.parameters["set_text"]
    n = cfg.parameters.get("n")
    if n is None:
        n = max((1, *squashed.parse_elements(text)))
    s = squashed.parse_subset(text, n)
    rk = squashed.rank(s)
    total = binomials.binom(n, s.size)
    if cfg.output_format == "json":
        return _emit_scalar(rk, cfg, {"position": rk + 1, "of": total,
                                      "set": squashed.format_subset(s)})
    _emit(f"rank {rk}, position {rk + 1} of {total}: {squashed.format_subset(s)}", cfg)
    return 0


def _cmd_unrank(cfg: SweepConfig) -> int:
    s = squashed.unrank(cfg.parameters["m"], cfg.parameters["n"], cfg.parameters["k"])
    if cfg.output_format == "json":
        return _emit_scalar(squashed.format_subset(s), cfg,
                            {"rank": cfg.parameters["m"],
                             "position": cfg.parameters["m"] + 1})
    _emit(squashed.format_subset(s), cfg)
    return 0


def _cmd_bound(cfg: SweepConfig) -> int:
    return _emit_scalar(
        antichains.theorem25_bound(cfg.parameters["n"], cfg.parameters["k"]), cfg)


def _cmd_extremal(cfg: SweepConfig) -> int:
    built = antichains.construct_extremal(cfg.parameters["n"], cfg.parameters["k"])
    if cfg.output_format == "json":
        _emit(json.dumps(built.to_json(), indent=2), cfg)
    else:
        info = built.to_json()
        _emit("\n".join([
            f"case {info['case']}" + (f", m = {info['m']}" if info["m"] is not None else ""),
            f"A ({len(built.family_a)} sets): {built.family_a}",
            f"B ({len(built.family_b)} sets): {built.family_b}",
            f"total {info['total']} = bound {info['bound']}, "
            f"{info['pair_count']} disjoint pairs (matching: {info['is_matching']})",
        ]), cfg)
    return 0


def _verify_dispatch(which: str, cfg: SweepConfig) -> VerificationReport:
    par = cfg.parameters
    n, r, m, k = par.get("n"), par.get("r"), par.get("m"), par.get("k")
    if which == "d-identities":
        return binomials.verify_d_identities(n if n is not None else 24,
                                             r if r is not None else 20)
    if which == "kkt":
        return shadows.verify_kkt(n_max=n if n is not None else 10)
    if which == "lieby":
        return shadows.verify_lieby_duality(n if n is not None else 8)
    if which == "clements":
        nn = n if n is not None else 6
        if k is not None:
            return shadows.verify_clements_minimality(nn, k)
        merged = VerificationReport("clements", {"n": nn, "k": "1..n-1"})
        for kk in range(1, nn):
            part = shadows.verify_clements_minimality(nn, kk)
            merged.checks_run += part.checks_run
            merged.elapsed_ms += part.elapsed_ms
            merged.violations.extend(
                {**v, "k": kk} for v in part.violations)
        return merged
    if which == "prop22":
        rr = r if r is not None else 2
        return verify_prop22(rr, m if m is not None
                                       else binomials.binom(2 * rr, rr) + 2 * rr)
    if which == "thm23":
        rr = r if r is not None else 2
        return verify_thm23(rr, m if m is not None
                                      else binomials.binom(2 * rr, rr) + 2 * rr)
    if which == "prop24":
        return verify_prop24(n if n is not None else 6,
                                       a_only=par.get("a"), k_only=k)
    if which == "lemma38":
        return verify_lemma38(n if n is not None else 8)
    if which == "thm25-brute":
        return antichains.verify_thm25_brute(n if n is not None else 4, k,
                                             exact=bool(par.get("exact")))
    if which == "thm26":
        return antichains.verify_thm26_structure(n if n is not None else 4, k)
    if which == "sperner":
        return antichains.sperner_max_check(n if n is not None else 4)
    if which == "conjecture51":
        return verify_conjecture51(n if n is not None else 8)
    raise ValueError(f"unknown verification {which!r}")


def run_all(n_max: int = 8, r_max: int = 6):
    """The full verification suite at desk scale.

    Returns a list of (name, report): the identity grid at (n_max, r_max),
    per-ground-set checks for n up to n_max, per-level checks for r up to
    r_max, and the brute-force checks at their enumerable sizes.
    """
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
        m_max = binomials.binom(2 * r, r) + 2 * r
        log(f"prop22 r={r}", verify_prop22(r, m_max))
        log(f"thm23 r={r}", verify_thm23(r, m_max))
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


def _cmd_verify(cfg: SweepConfig) -> int:
    which = cfg.parameters["which"]
    if which == "all":
        par = cfg.parameters
        results = run_all(par.get("n") or 8, par.get("r") or 6)
        all_passed = all(rep.passed for _, rep in results)
        if cfg.output_format == "json":
            payload = {
                "check": "all",
                "params": {"n_max": par.get("n") or 8, "r_max": par.get("r") or 6},
                "passed": all_passed,
                "violations": [v for _, rep in results for v in rep.violations],
                "witnesses": [{"check": name, "passed": rep.passed,
                               "checks_run": rep.checks_run}
                              for name, rep in results],
                "elapsed_ms": sum(rep.elapsed_ms for _, rep in results),
            }
            _emit(json.dumps(payload, indent=2), cfg)
        elif cfg.output_format == "tsv":
            lines = ["check\tpassed\tviolations\tchecks\telapsed_ms"]
            lines += [f"{name}\t{rep.passed}\t{len(rep.violations)}\t"
                      f"{rep.checks_run}\t{rep.elapsed_ms:.1f}"
                      for name, rep in results]
            _emit("\n".join(lines), cfg)
        else:
            lines = [rep.summary() for _, rep in results]
            lines.append("ALL PASS" if all_passed else "FAILURES PRESENT")
            _emit("\n".join(lines), cfg)
        return 0 if all_passed else 1
    rep = _verify_dispatch(which, cfg)
    return _emit_report(rep, cfg)


_HANDLERS = {
    "kappa": _cmd_kappa,
    "kappa-star": _cmd_kappa_star,
    "kappa-table": _cmd_kappa_table,
    "cascade": _cmd_cascade,
    "shadow-min": _cmd_shadow_min,
    "rank": _cmd_rank,
    "unrank": _cmd_unrank,
    "bound": _cmd_bound,
    "extremal": _cmd_extremal,
    "verify": _cmd_verify,
}


def run(config: SweepConfig) -> int:
    """Execute one resolved invocation; returns the process exit code."""
    handler = _HANDLERS.get(config.command)
    if handler is None:
        print(f"error: unknown command {config.command!r}", file=sys.stderr)
        return 2
    try:
        return handler(config)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    skip = {"command", "format", "out"}
    cfg = SweepConfig(
        command=ns.command,
        parameters={key: val for key, val in vars(ns).items() if key not in skip},
        output_format=ns.format,
        out_path=ns.out,
    )
    return run(cfg)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
