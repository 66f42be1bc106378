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


def test_pool_crossover_prints_one_row_per_sample_count(capsys):
    script = load_script("pool_crossover")
    assert script.main(["--id", "C3.1", "--lo", "14", "--hi", "15",
                        "--reps", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == ("samples,blocks,rule_shares,wall_1_ms,faults_1,"
                        "wall_w_ms,faults_w,ratio")
    rows = [line.split(",") for line in lines[2:]]
    assert [row[:3] for row in rows] == [["16384", "1", "1"],
                                         ["32768", "2", "1"]]
    # wall times and their ratio are positive; a run may take no fault
    assert all(float(row[k]) > 0 for row in rows for k in (3, 5, 7))
    assert all(float(row[k]) >= 0 for row in rows for k in (4, 6))
