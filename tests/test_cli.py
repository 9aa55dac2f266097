"""Command-line interface: outputs, formats, exit codes, determinism."""

import inspect
import json
import sys
from pathlib import Path

import pytest

from kktools import antichains, cli, kappa, squashed
from kktools.report import VerificationReport


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_kappa_command(capsys):
    code, out, _ = run_cli(capsys, "kappa", "--r", "2", "--m", "5")
    assert code == 0
    assert out.strip() == "-1"


def test_kappa_star_command(capsys):
    code, out, _ = run_cli(capsys, "kappa-star", "--r", "3", "--m", "17")
    assert code == 0
    assert out.strip() == "-2"


def test_kappa_json_payload(capsys):
    code, out, _ = run_cli(capsys, "kappa", "--r", "2", "--m", "5",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == -1
    assert payload["params"] == {"r": 2, "m": 5}


def test_cascade_command(capsys):
    code, out, _ = run_cli(capsys, "cascade", "--r", "3", "--m", "17")
    assert code == 0
    assert out.strip() == "17 = C(5,3) + C(4,2) + C(1,1)"


def test_shadow_min_command(capsys):
    code, out, _ = run_cli(capsys, "shadow-min", "--r", "2", "--m", "5")
    assert code == 0
    assert out.strip() == "4"


def test_rank_accepts_all_subset_forms(capsys):
    for text in ("134", "{1,3,4}", "1,3,4"):
        code, out, _ = run_cli(capsys, "rank", "--set", text, "--n", "5")
        assert code == 0
        assert "rank 2, position 3 of 10" in out


def test_rank_without_ground_set_uses_largest_element(capsys):
    code, out, _ = run_cli(capsys, "rank", "--set", "{1,40}")
    assert code == 0
    assert out.strip() == "rank 741, position 742 of 780: {1,40}"
    code, out, _ = run_cli(capsys, "rank", "--set", "134")
    assert code == 0
    assert out.strip() == "rank 2, position 3 of 4: 134"


def test_unrank_command(capsys):
    code, out, _ = run_cli(capsys, "unrank", "--m", "7", "--n", "5", "--k", "3")
    assert code == 0
    assert out.strip() == "145"


def test_bound_command(capsys):
    code, out, _ = run_cli(capsys, "bound", "--n", "4", "--k", "5")
    assert code == 0
    assert out.strip() == "11"


@pytest.fixture
def default_digit_limit():
    """The interpreter's default int/str digit limit, 4300, during the test."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int/str digit limit")
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(saved)


@pytest.mark.parametrize("fmt", ["pretty", "json"])
def test_bound_prints_past_the_int_digit_limit(capsys, default_digit_limit, fmt):
    # the bound at n = 20000 has 6,019 digits; main lifts the limit for its
    # own call only, since the battery runs it in process
    code, out, err = run_cli(capsys, "bound", "--n", "20000", "--k", "5",
                             "--format", fmt)
    assert (code, err) == (0, "")
    assert sys.get_int_max_str_digits() == default_digit_limit
    sys.set_int_max_str_digits(0)  # to read the output back here
    value = json.loads(out)["value"] if fmt == "json" else int(out)
    assert value == antichains.theorem25_bound(20000, 5)
    assert len(str(value)) > default_digit_limit


@pytest.mark.parametrize("fmt", ["pretty", "json"])
def test_a_flag_past_the_int_digit_limit_is_read(capsys, default_digit_limit, fmt):
    m_text = "1" + "0" * 4998 + "7"  # 10**4999 + 7, 5,000 digits
    code, out, err = run_cli(capsys, "kappa", "--r", "2", "--m", m_text,
                             "--format", fmt)
    assert (code, err) == (0, "")
    assert sys.get_int_max_str_digits() == default_digit_limit
    sys.set_int_max_str_digits(0)
    expected = kappa(2, 10**4999 + 7)
    if fmt == "json":
        assert json.loads(out) == {"command": "kappa", "value": expected,
                                   "params": {"r": 2, "m": 10**4999 + 7}}
    else:
        assert int(out) == expected


def test_the_digit_limit_is_restored_after_a_failed_call(capsys, default_digit_limit):
    code, _, err = run_cli(capsys, "bound", "--n", "20000", "--k", "-1")
    assert code == 2 and err.startswith("error: theorem25_bound")
    assert sys.get_int_max_str_digits() == default_digit_limit


def test_a_bound_past_the_reach_of_math_comb_exits_two(capsys):
    code, out, err = run_cli(capsys, "bound", "--n", str(2**64), "--k", "0")
    assert code == 2 and out == ""
    assert err == (f"error: theorem25_bound: need even 4 <= n <= {2 * sys.maxsize}, "
                   f"got {2**64}\n")


def test_extremal_json(capsys):
    code, out, _ = run_cli(capsys, "extremal", "--n", "4", "--k", "6",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["total"] == payload["bound"] == 12
    assert payload["is_matching"] is True


def test_kappa_table_tsv(capsys):
    code, out, _ = run_cli(capsys, "kappa-table", "--r", "2", "--m", "6",
                           "--format", "tsv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "m\tkappa\tkappa_star"
    assert lines[-1] == "6\t-2\t-2"


def test_verify_passing_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "verify", "prop24", "--n", "6")
    assert code == 0
    assert "PASS" in out


def test_verify_exchange_grid(capsys):
    code, out, _ = run_cli(capsys, "verify", "conjecture51", "--n", "8")
    assert code == 0
    assert "PASS" in out


def test_verify_exchange_grid_at_fourteen(capsys):
    code, out, _ = run_cli(capsys, "verify", "conjecture51", "--n", "14",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] and payload["violations"] == []
    assert payload["checks_run"] == 3433 ** 2


def test_verify_failure_exits_one(capsys, monkeypatch):
    failing = VerificationReport("stub", {"n": 1})
    failing.violations.append({"n": 1, "reason": "forced"})

    monkeypatch.setattr(cli, "_verify_dispatch", lambda which, cfg: failing)
    code, out, _ = run_cli(capsys, "verify", "kkt")
    assert code == 1
    assert "FAIL" in out


def test_bad_parameters_exit_two(capsys):
    code, _, err = run_cli(capsys, "kappa", "--r", "0", "--m", "5")
    assert code == 2
    assert "error" in err


def test_unknown_subcommand_exits_two(capsys):
    code = cli.main(["nosuchcmd"])
    capsys.readouterr()
    assert code == 2


def test_out_file_receives_report(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, "verify", "lieby", "--n", "6",
                         "--format", "json", "--out", str(target))
    assert code == 0
    payload = json.loads(target.read_text())
    assert payload["check"] == "lieby"
    assert payload["passed"] is True
    assert payload["checks_run"] > 0


def test_json_reports_are_deterministic(capsys):
    def grab():
        code, out, _ = run_cli(capsys, "verify", "clements", "--n", "5",
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        payload.pop("elapsed_ms")
        return payload

    assert grab() == grab()


def test_merged_clements_report_carries_elapsed_time(capsys):
    code, out, _ = run_cli(capsys, "verify", "clements", "--format", "json")
    assert code == 0
    assert json.loads(out)["elapsed_ms"] > 0
    code, out, _ = run_cli(capsys, "verify", "clements", "--format", "tsv")
    assert code == 0
    assert float(out.strip().splitlines()[1].split("\t")[-1]) > 0


def test_verify_all_small(capsys):
    code, out, _ = run_cli(capsys, "verify", "all", "--n", "4", "--r", "2")
    assert code == 0
    assert out.strip().splitlines()[-1] == "ALL PASS"


@pytest.mark.parametrize("flag, message", [("--n", "need n_max >= 1, got 0"),
                                           ("--r", "need r_max >= 1, got 0")])
def test_verify_all_rejects_a_zero_bound(capsys, flag, message):
    # 0 is a bound the sweeps reject, not a missing flag to default
    code, out, err = run_cli(capsys, "verify", "all", flag, "0", "--format", "json")
    assert code == 2
    assert out == "" and f"error: run_all: {message}" in err


@pytest.mark.parametrize("flag, value, message", [
    ("--n", "17", "need 1 <= n_max <= 16, got 17"),
    ("--r", "14", "need 1 <= r_max <= 13, got 14")])
def test_verify_all_past_its_caps_exits_2_before_any_sweep(capsys, monkeypatch,
                                                          flag, value, message):
    # refused up front, where --n 17 ran every earlier sweep for about a
    # minute before the window sweep refused it
    def no_sweep(*args, **kwargs):
        raise AssertionError("a sweep ran")

    monkeypatch.setattr(cli.binomials, "verify_d_identities", no_sweep)
    code, out, err = run_cli(capsys, "verify", "all", flag, value)
    assert code == 2
    assert out == "" and err == f"error: run_all: {message}\n"


def test_verify_kkt_past_its_cap_exits_2(capsys):
    # refused up front, where it used to run for minutes building levels
    code, out, err = run_cli(capsys, "verify", "kkt", "--n", "30")
    assert code == 2
    assert out == "" and "error: verify_kkt: need 1 <= n_max <= 22, got 30" in err


def test_verify_all_json_matches_golden_file(capsys):
    # tests/data/verify_all.json: `kktools verify all --format json` with
    # elapsed_ms removed; a faster sweep must leave every byte else alone
    code, out, _ = run_cli(capsys, "verify", "all", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    payload.pop("elapsed_ms")
    golden = Path(__file__).parent / "data" / "verify_all.json"
    assert json.dumps(payload, indent=2) + "\n" == golden.read_text()


@pytest.mark.parametrize("argv, golden", [
    (("thm25-brute", "--n", "4"), "verify_thm25_brute_n4.json"),
    (("thm25-brute", "--n", "4", "--exact"), "verify_thm25_brute_n4_exact.json"),
    (("thm26", "--n", "4"), "verify_thm26_n4.json"),
])
def test_brute_force_reports_match_golden_files(capsys, argv, golden):
    # recorded from the SetFamily-based sweeps, elapsed_ms removed: the
    # mask-level sweeps must render the same witnesses byte for byte
    code, out, _ = run_cli(capsys, "verify", *argv, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    payload.pop("elapsed_ms")
    path = Path(__file__).parent / "data" / golden
    assert json.dumps(payload, indent=2) + "\n" == path.read_text()


@pytest.mark.parametrize("argv, golden", [
    (("--n", "4", "--k", "6", "--format", "json"), "extremal_n4_k6.json"),
    (("--n", "10", "--k", "200", "--format", "json"), "extremal_n10_k200.json"),
    (("--n", "10", "--k", "200"), "extremal_n10_k200.txt"),
])
def test_extremal_output_matches_golden_files(capsys, argv, golden):
    # recorded while the report rendered Subset members; n = 10 prints the
    # {a,b} text form.  Rendering from masks must give the same bytes.
    code, out, _ = run_cli(capsys, "extremal", *argv)
    assert code == 0
    assert out == (Path(__file__).parent / "data" / golden).read_text()


def test_extremal_pretty_renders_each_family_once(capsys, monkeypatch):
    calls = []
    real = squashed._masks_text

    def counting(masks, ground_n):
        calls.append(ground_n)
        return real(masks, ground_n)

    # SetFamily.__str__ reads squashed's name, the report antichains'
    monkeypatch.setattr(squashed, "_masks_text", counting)
    monkeypatch.setattr(antichains, "_masks_text", counting)
    code, out, _ = run_cli(capsys, "extremal", "--n", "10", "--k", "200")
    assert code == 0
    assert out == (Path(__file__).parent / "data" / "extremal_n10_k200.txt").read_text()
    assert calls == [10, 10]


def test_structure_sweep_rejects_k_past_the_half_level(capsys):
    code, out, err = run_cli(capsys, "verify", "thm26", "--n", "4", "--k", "99")
    assert code == 2
    assert out == "" and "0 <= k <= 6" in err


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(["--help"])
    capsys.readouterr()
    assert exc.value.code == 0


def parse_outcome(capsys, parser, argv):
    """(exit code or None, namespace or None, stdout, stderr) of one parse."""
    try:
        ns, code = vars(parser.parse_args(argv)), None
    except SystemExit as exc:
        ns, code = None, exc.code
    captured = capsys.readouterr()
    return code, ns, captured.out, captured.err


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_narrow_parser_matches_the_full_parser(capsys, command):
    # help, missing and bad flags, a bad sweep and stray arguments, which the
    # top-level parser reports with its own usage line
    for tail in (["-h"], [], ["--bogus"], ["--r", "x"], ["--format", "xml"],
                 ["--r", "1", "--m", "2", "--n", "3", "--k", "4", "stray"],
                 ["--set", "12", "stray"], ["all", "stray"], ["nope"],
                 ["kkt", "--n"], ["thm25-brute", "--exact", "--n", "4"]):
        argv = [command, *tail]
        assert parse_outcome(capsys, cli.build_parser(command), argv) == \
            parse_outcome(capsys, cli.build_parser(), argv), argv


# One accepted call per sweep, giving every flag that sweep reads.
READS = {
    "d-identities": ("--n", "6", "--r", "4"),
    "kkt": ("--n", "4"),
    "lieby": ("--n", "4"),
    "clements": ("--n", "4", "--k", "2"),
    "prop22": ("--r", "2", "--m", "8"),
    "thm23": ("--r", "2", "--m", "8"),
    "prop24": ("--n", "4", "--a", "1", "--k", "2"),
    "lemma38": ("--n", "4"),
    "thm25-brute": ("--n", "4", "--k", "3", "--exact"),
    "thm26": ("--n", "4", "--k", "2"),
    "extremal": ("--n", "4"),
    "sperner": ("--n", "3"),
    "conjecture51": ("--n", "4"),
    "all": ("--n", "2", "--r", "1"),
}


def test_every_verify_choice_has_an_accepted_call(capsys):
    assert cli.main(["verify", "--help"]) == 0
    lines = capsys.readouterr().out.splitlines()
    # the line under "positional arguments:" is {choice,choice,...}
    choices = lines[lines.index("positional arguments:") + 1].strip("{} ").split(",")
    assert sorted(choices) == sorted(READS)


@pytest.mark.parametrize("which", sorted(READS))
def test_verify_rejects_every_flag_the_sweep_does_not_read(capsys, which):
    argv = READS[which]
    code, out, _ = run_cli(capsys, "verify", which, *argv)
    assert code == 0 and "PASS" in out
    read = {arg for arg in argv if arg.startswith("--")}
    for flag in ("--n", "--r", "--m", "--k", "--a", "--exact"):
        if flag in read:
            continue
        extra = (flag,) if flag == "--exact" else (flag, "0")  # 0 is given too
        code, out, err = run_cli(capsys, "verify", which, *argv, *extra)
        assert code == 2 and out == "", flag
        assert err == f"error: verify {which} does not read {flag}\n"


def test_out_write_failure_exits_two(tmp_path, capsys):
    target = tmp_path / "missing" / "x"
    code, out, err = run_cli(capsys, "kappa", "--r", "2", "--m", "5",
                             "--out", str(target))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "Traceback" not in err and not target.exists()


@pytest.mark.parametrize("argv, payload", [
    (("kappa-star", "--r", "3", "--m", "17"),
     {"command": "kappa-star", "params": {"r": 3, "m": 17}, "value": -2}),
    (("shadow-min", "--m", "5", "--r", "2"),
     {"command": "shadow-min", "params": {"m": 5, "r": 2}, "value": 4}),
    (("rank", "--set", "{1,40}"),
     {"command": "rank", "params": {"set_text": "{1,40}", "n": None}, "value": 741,
      "position": 742, "of": 780, "set": "{1,40}"}),
    (("unrank", "--m", "7", "--n", "5", "--k", "3"),
     {"command": "unrank", "params": {"m": 7, "n": 5, "k": 3}, "value": "145",
      "rank": 7, "position": 8}),
    (("bound", "--n", "4", "--k", "5"),
     {"command": "bound", "params": {"n": 4, "k": 5}, "value": 11}),
    (("cascade", "--m", "17", "--r", "3"),
     {"command": "cascade", "m": 17, "r": 3, "terms": [[5, 3], [4, 2], [1, 1]],
      "shadow_min": 15}),
    (("kappa-table", "--r", "2", "--m", "4"),
     {"command": "kappa-table", "r": 2, "columns": ["m", "kappa", "kappa_star"],
      "rows": [[0, 0, 0], [1, 1, 0], [2, 1, 0], [3, 0, 0], [4, 0, 0]]}),
], ids=["kappa-star", "shadow-min", "rank", "unrank", "bound", "cascade", "kappa-table"])
def test_point_command_json_is_pinned(capsys, argv, payload):
    # key order included: the bytes are the payload's indent-2 dump
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    assert out == json.dumps(payload, indent=2) + "\n"


@pytest.mark.parametrize("k, text", [
    ("6", "case ii, m = 6\n"
          "A (6 sets): {12, 13, 23, 14, 24, 34}\n"
          "B (6 sets): {12, 13, 23, 14, 24, 34}\n"
          "total 12 = bound 12, 6 disjoint pairs (matching: True)\n"),
    ("0", "case i\n"
          "A (6 sets): {12, 13, 23, 14, 24, 34}\n"
          "B (4 sets): {123, 124, 134, 234}\n"
          "total 10 = bound 10, 0 disjoint pairs (matching: True)\n"),
])
def test_extremal_pretty_is_pinned(capsys, k, text):
    code, out, _ = run_cli(capsys, "extremal", "--n", "4", "--k", k)
    assert code == 0
    assert out == text


def test_pretty_report_lists_twenty_violations_then_a_count(capsys, monkeypatch):
    failing = VerificationReport("stub", {"n": 1})
    failing.violations.extend({"i": i} for i in range(25))
    monkeypatch.setattr(cli, "_verify_dispatch", lambda which, params: failing)
    code, out, _ = run_cli(capsys, "verify", "kkt")
    assert code == 1
    assert out.splitlines() == (
        ["stub: FAIL (25 violations) [0 checks, 0.0 ms]"]
        + [f"  violation: {{'i': {i}}}" for i in range(20)] + ["  ... 5 more"])


def test_every_sweep_keyword_is_a_defaulted_parameter():
    # a flag not given is not passed, so the sweep's signature must default it
    assert sorted(DEFAULT_PARAMS) == sorted(set(cli._SWEEPS) - {"all"})
    for which, (sweep, keywords) in cli._SWEEPS.items():
        params = inspect.signature(sweep).parameters
        for flag, keyword in keywords.items():
            assert keyword in params, (which, flag)
            assert params[keyword].default is not inspect.Parameter.empty, (which, flag)


# The params each sweep reports when `verify <name>` gets no flag (README's
# table of defaults).
DEFAULT_PARAMS = {
    "d-identities": {"n_max": 24, "r_max": 20},
    "kkt": {"n_max": 10, "samples": 1000, "seed": 20240824, "sample_n_max": 9},
    "lieby": {"n": 8},
    "clements": {"n": 6, "k": "1..n-1"},
    "prop22": {"r": 2, "m_max": 10},
    "thm23": {"r": 2, "m_max": 10},
    "prop24": {"n": 6, "r": 3, "M": 20, "a": None, "k": None},
    "lemma38": {"n": 8, "r": 4, "M": 70},
    "thm25-brute": {"n": 4, "k": None, "exact": False},
    "thm26": {"n": 4, "k": None},
    "extremal": {"n": 8},
    "sperner": {"n": 4},
    "conjecture51": {"n": 8, "r": 4, "M": 70},
}


@pytest.mark.parametrize("which", sorted(DEFAULT_PARAMS))
def test_verify_without_flags_runs_the_sweep_at_its_defaults(capsys, which):
    code, out, _ = run_cli(capsys, "verify", which, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    want = cli._SWEEPS[which][0]().to_json()
    payload.pop("elapsed_ms")
    want.pop("elapsed_ms")
    assert payload == want
    assert payload["params"] == DEFAULT_PARAMS[which]


@pytest.mark.parametrize("argv, params", [
    (("d-identities", "--n", "6", "--r", "4"), {"n_max": 6, "r_max": 4}),
    (("clements", "--n", "5", "--k", "2"), {"n": 5, "k": 2}),
    (("thm23", "--r", "3", "--m", "30"), {"r": 3, "m_max": 30}),
    (("prop24", "--n", "6", "--a", "3", "--k", "2"),
     {"n": 6, "r": 3, "M": 20, "a": 3, "k": 2}),
    (("thm25-brute", "--n", "4", "--k", "3", "--exact"), {"n": 4, "k": 3, "exact": True}),
], ids=["d-identities", "clements", "thm23", "prop24", "thm25-brute"])
def test_verify_flags_reach_their_keywords(capsys, argv, params):
    code, out, _ = run_cli(capsys, "verify", *argv, "--format", "json")
    assert code == 0
    assert json.loads(out)["params"] == params


@pytest.mark.parametrize("which, r, sweep", [("prop22", "-1", "verify_prop22"),
                                             ("thm23", "0", "verify_thm23")])
def test_verify_names_the_sweep_for_a_bad_level(capsys, which, r, sweep):
    # the default m = C(2r, r) + 2r is computed only after r is checked
    code, out, err = run_cli(capsys, "verify", which, "--r", r)
    assert code == 2 and out == ""
    assert err == f"error: {sweep}: need r >= 1, got {r}\n"


@pytest.mark.parametrize("n", ["7", "0"])
def test_sperner_names_itself_for_an_n_out_of_reach(capsys, n):
    code, out, err = run_cli(capsys, "verify", "sperner", "--n", n)
    assert code == 2 and out == ""
    assert err == f"error: sperner_max_check: need 1 <= n <= 6, got {n}\n"


def test_extremal_names_itself_for_an_n_out_of_reach(capsys):
    code, out, err = run_cli(capsys, "extremal", "--n", "200", "--k", "0")
    assert code == 2 and out == ""
    assert err == "error: construct_extremal: need even 4 <= n <= 22, got 200\n"


@pytest.mark.parametrize("argv, message", [
    (("verify", "prop24", "--n", "27"),
     "verify_prop24: need C(n, ceil(n/2)) <= 10400626, the kappa table row cap, "
     "got n = 27"),
    (("verify", "prop22", "--r", "2", "--m", "10400627"),
     "verify_prop22: need 0 <= m_max <= 10400626, got 10400627"),
    (("verify", "thm23", "--r", "14"),
     "verify_thm23: the default m_max = C(2r, r) + 2r passes the kappa table "
     "row cap 10400626 at r = 14; give m_max <= 10400626"),
    (("kappa-table", "--r", "2", "--m", "10400627"),
     "KappaTable: need 0 <= upper_m <= 10400626, got 10400627"),
    (("verify", "extremal", "--n", "24"),
     "verify_extremal_constructions: need even 4 <= n <= 22, got 24"),
    (("verify", "extremal", "--n", "200"),
     "verify_extremal_constructions: need even 4 <= n <= 22, got 200"),
])
def test_a_sweep_out_of_reach_exits_two_naming_itself(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_out_path_is_checked_before_the_sweep_runs(tmp_path, capsys, monkeypatch):
    ran = []
    monkeypatch.setattr(cli, "_verify_dispatch", lambda which, params: ran.append(which))
    for target in (tmp_path / "missing" / "x", tmp_path):
        code, out, err = run_cli(capsys, "verify", "conjecture51", "--n", "18",
                                 "--out", str(target))
        assert code == 2 and out == ""
        assert err == f"error: cannot write --out {target}\n"
    assert ran == [] and not (tmp_path / "missing").exists()


def test_rejected_sweep_leaves_an_existing_out_file_alone(tmp_path, capsys):
    target = tmp_path / "report.json"
    target.write_text("earlier report\n")
    code, _, err = run_cli(capsys, "verify", "prop22", "--r", "-1",
                           "--out", str(target))
    assert code == 2 and err.startswith("error: verify_prop22")
    assert target.read_text() == "earlier report\n"
