"""Smoke tests for the scripts that drive the library from outside it."""

import importlib.util
from fractions import Fraction
from pathlib import Path

from heavytails import cli

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_all_presets_prints_one_line_per_curve(capsys):
    script = load_script("run_all_presets")
    code = script.main(["--samples", "16400", "--only", "T3.3,C5.1,C5.2"])
    lines = capsys.readouterr().out.splitlines()
    assert code in (0, 2)
    curve_lines = [line for line in lines if line and not line[0].isspace()
                   and not line.endswith("inconsistent")]
    assert [line.split()[0] for line in curve_lines] == ["T3.3", "C5.1",
                                                         "C5.2"]
    assert all(" end ratio " in line for line in curve_lines)


def test_exact_twofold_matches_the_rational_oracle(capsys):
    # mixture_ratio_margin.py derives the 5/4 constant in Fraction
    # arithmetic; the convolve command must reproduce its every probe and
    # value, as floats, bit for bit
    script = load_script("mixture_ratio_margin")
    atoms, over = script.mixture_atoms()
    pairs, pair_over = script.pair_sum_atoms(atoms, over)
    lo, hi = Fraction(1), Fraction(2047)
    probes = sorted({loc for loc, _ in pairs + atoms if lo <= loc <= hi}
                    | {lo})
    assert cli.main(["convolve", "--dist", "example11",
                     "--points", "1:2047:24"]) == 0
    rows = [[float(cell) for cell in line.split(",")]
            for line in capsys.readouterr().out.splitlines()[2:]]
    assert len(rows) == len(probes) == 85
    for (x, lower, upper, single, r_lo, r_hi, _), probe in zip(rows, probes):
        num = script.tail(pairs, pair_over, probe)
        den = script.tail(atoms, over, probe)
        assert x == float(probe)
        assert lower == upper == float(num)
        assert single == float(den)
        assert r_lo == r_hi == float(num / den)
