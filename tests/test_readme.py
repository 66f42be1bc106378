"""The README's examples run: the Library code and every command line that
needs no config file, each at a small sample budget."""

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
