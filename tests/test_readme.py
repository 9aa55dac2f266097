"""README's table of `verify` sweeps: names, flags, defaults and reach."""

import inspect
import re
from math import comb
from pathlib import Path

import pytest

from kktools import cli

README = Path(__file__).resolve().parents[1] / "README.md"
HEADER = "| sweep | checks | flags read (default) | reach |"


def _sweep_rows() -> dict[str, tuple[str, str]]:
    """{sweep: (its flags cell, its reach cell)}; a row may name several."""
    lines = README.read_text(encoding="utf-8").splitlines()
    rows = {}
    for line in lines[lines.index(HEADER) + 2:]:
        if not line.startswith("|"):
            break
        names, _, flags, reach = (cell.strip() for cell in line.strip("|").split("|"))
        for name in re.findall(r"`([\w-]+)`", names):
            rows[name] = (flags, reach)
    return rows


ROWS = _sweep_rows()
# each `--flag ≤ N` of the reach column: (sweep, flag, N, whether n is even)
CAPS = [(name, flag, int(cap), "even" in reach)
        for name, (_, reach) in ROWS.items()
        for flag, cap in re.findall(r"`--(\w+) ≤ (\d+)`", reach)]


def test_the_table_lists_every_sweep_and_the_flags_it_reads():
    assert sorted(ROWS) == sorted(cli._SWEEPS)
    for name, (flags, reach) in ROWS.items():
        read = sorted(cli._SWEEPS[name][1])
        assert sorted(re.findall(r"`--(\w+)`", flags)) == read, name
        assert set(re.findall(r"`--(\w+)", reach)) <= set(read), name


def test_the_table_gives_each_sweeps_own_defaults():
    for name, (flags, _) in ROWS.items():
        sweep, keyword = cli._SWEEPS[name]
        params = inspect.signature(sweep).parameters
        for flag, default in re.findall(r"`--(\w+)` \((\d+)\)", flags):
            assert params[keyword[flag]].default == int(default), (name, flag)


def test_every_sweep_but_the_identity_grid_lists_a_cap():
    assert {name for name, *_ in CAPS} == set(ROWS) - {"d-identities"}


@pytest.mark.parametrize("which, flag, cap, even", CAPS,
                         ids=[f"{which}-{flag}" for which, flag, *_ in CAPS])
def test_one_past_each_listed_cap_exits_2_naming_the_bound(capsys, which, flag, cap,
                                                          even):
    # the least value past the cap that the sweep would otherwise take
    past = cap + 2 - cap % 2 if even else cap + 1
    code = cli.main(["verify", which, f"--{flag}", str(past)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    sweep = cli._SWEEPS[which][0].__name__
    got = re.fullmatch(rf"error: {sweep}: need .*<= (\d+)"
                       rf"(, the kappa table row cap)?, got (?:n = )?{past}\n", err)
    assert got, err
    if got[2]:  # the level sweeps: the row cap bounds C(n, ceil(n/2))
        assert comb(cap, (cap + 1) // 2) <= int(got[1]) < comb(past, (past + 1) // 2)
    else:
        assert int(got[1]) == cap
