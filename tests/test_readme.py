"""The README's examples run: the Library code, every command line that
needs no config file and the minimal YAML config, each at a small sample
budget."""

import json
import re
import shlex
from pathlib import Path

import pytest

from heavytails import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(
    encoding="utf-8")

# the budget the examples run at, in place of the one they show
SAMPLES = 20_000


def _section(title: str) -> str:
    start = README.index(f"\n## {title}\n")
    end = README.find("\n## ", start + 1)
    return README[start:end if end >= 0 else len(README)]


def _blocks(section: str, lang: str) -> list:
    return re.findall(rf"```{lang}\n(.*?)```", section, flags=re.S)


def _command_lines() -> list:
    lines = _blocks(_section("Command line"), "")[0].splitlines()
    return [line for line in lines
            if line.startswith("heavytails ") and "--config" not in line]


def test_library_blocks_run_at_a_small_budget():
    namespace = {}
    for block in _blocks(_section("Library"), "python"):
        code, n = re.subn(r"samples=[\d_]+", f"samples={SAMPLES}", block)
        assert n, "every Library block sets a budget to lower"
        exec(compile(code, "README.md", "exec"), namespace)
    assert namespace["curve"].samples == SAMPLES
    assert namespace["curve"].verdict in ("consistent", "inconsistent",
                                          "inconclusive")


def test_readme_shows_command_lines():
    assert len(_command_lines()) >= 5


@pytest.mark.parametrize("line", _command_lines())
def test_command_line_runs(capsys, line):
    argv = shlex.split(line)[1:]
    if "samples" in vars(cli.build_parser().parse_args(argv)):
        if "--samples" in argv:
            i = argv.index("--samples") + 1
            argv[i] = str(min(int(argv[i]), SAMPLES))
        else:
            argv += ["--samples", str(SAMPLES)]
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert code in (cli.EXIT_OK, cli.EXIT_INCONSISTENT), err
    assert "Traceback" not in err


def test_yaml_config_runs_as_its_json(tmp_path, capsys):
    # the minimal ratio-curve config, as the README shows it and in JSON
    [text] = _blocks(_section("Command line"), "yaml")
    pareto = {"family": "pareto", "alpha": 0.8, "scale": 1.0}
    as_json = {"model": {"copula": {"family": "fgm", "coeffs": [1.0]},
                         "marginals": [pareto, pareto]},
               "quantity": "SumN", "denominator": {"kind": "n_tail", "n": 2},
               "samples": 1000000, "seed": 7}
    outputs = []
    for name, body in (("experiment.yaml", text),
                       ("experiment.json", json.dumps(as_json))):
        path = tmp_path / name
        path.write_text(body, encoding="utf-8")
        code = cli.main(["ratio-curve", "--config", str(path), "--samples",
                         str(SAMPLES)])
        captured = capsys.readouterr()
        assert code in (cli.EXIT_OK, cli.EXIT_INCONSISTENT), captured.err
        outputs.append(captured.out)
    assert outputs[0] == outputs[1]
