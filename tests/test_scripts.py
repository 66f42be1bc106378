"""Smoke tests for the scripts that drive the library from outside it."""

import importlib.util
from pathlib import Path

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
