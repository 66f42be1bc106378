"""End-to-end exercises of the command line driver.

Everything goes through cli.main(argv) so the exit codes, the config echo,
and the output formats are tested exactly as a shell user would see them.
"""

import argparse
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heavytails import cli
from heavytails import diagnostics as dg
from heavytails import experiments as ex
from heavytails import montecarlo as mc
from heavytails.risk import RISK_PRESETS
from heavytails.rng import BLOCK_SIZE
from test_golden import CONFIGS as GOLDEN_CONFIGS


PARETO11 = {"family": "pareto", "alpha": 1.0, "scale": 1.0}

FGM_PARETO_MODEL = {
    "copula": {"family": "fgm", "coeffs": [1.0]},
    "marginals": [PARETO11, PARETO11],
}

STOPPED_MODEL = {
    "copula": {"family": "independence", "dim": 2},
    "marginals": [PARETO11, PARETO11],
    "tau": {"family": "geometric1", "p": 0.5},
}

MIXED_STOPPED_MODEL = dict(STOPPED_MODEL, marginals=[
    {"family": "pareto", "alpha": 0.8}, {"family": "pareto", "alpha": 1.2}])

RC_MC_CONFIG = {
    "model": FGM_PARETO_MODEL,
    "quantity": "SumN",
    "denominator": {"kind": "n_tail", "n": 2},
    "grid": {"lo": 5.0, "hi": 500.0, "points": 8},
    "samples": 40_000,
    "seed": 13,
    "numerator": "mc",
}

DISCRETE_RUIN_CONFIG = {
    "risk": "discrete",
    "claims": {
        "copula": {"family": "independence", "dim": 2},
        "marginals": [PARETO11, PARETO11],
    },
    "rate": 0.02,
    "grid": {"lo": 5.0, "hi": 50.0, "points": 4},
    "samples": 20_000,
    "seed": 2,
}

# 200 periods: (1 + rate)^k overflows a float within them for rate 100
CLAIMS_200 = {"copula": {"family": "independence", "dim": 200},
              "marginals": [PARETO11] * 200}


# an infinite-mean count under lim semantics: the ratios diverge
ZETA_LIM_CONFIG = {
    "model": dict(STOPPED_MODEL, tau={"family": "zeta", "s": 1.5}),
    "quantity": "SumTau", "denominator": {"kind": "n_tail", "n": 1},
    "grid": {"lo": 5.0, "hi": 500.0, "points": 6},
    "samples": 20_000, "seed": 7,
}

INFINITE_MEAN_ADVISORY = (
    "the counting law has infinite mean but the experiment uses 'lim' "
    "semantics; ratios against any finite denominator diverge, switch to "
    "divergence semantics")

# a T4.4i custom model whose summands drift upward, against its hypotheses
_UP_DRIFT = {"family": "shifted", "offset": -1.0,
             "base": {"family": "pareto", "alpha": 2.0, "scale": 1.0}}
T44I_CUSTOM_CONFIG = {
    "theorem_id": "T4.4i", "samples": 20_000,
    "model": dict(STOPPED_MODEL, marginals=[_UP_DRIFT, _UP_DRIFT],
                  tau={"family": "poisson", "mean": 2.0}),
}


# stopped models that break what a stopped run enforces
_NO_COUNT = {k: v for k, v in STOPPED_MODEL.items() if k != "tau"}
_ZETA_COUNT = dict(STOPPED_MODEL, tau={"family": "zeta", "s": 1.5})
_NEEDS_COUNT = "mean_tau_tail denominator needs a counting law"
_NEEDS_FINITE_MEAN = (
    "the counting law has infinite mean: ratios against its expected count "
    "diverge, use a divergence-mode experiment against the bare tail instead")
_NEEDS_IDENTICAL = (
    "stopped quantities need identical marginals: the sequence extends past "
    "the copula dimension with fresh blocks")


ARRIVAL_RUIN_CONFIG = {
    "risk": "arrival",
    "claim_size": {"family": "pareto", "alpha": 2.0, "scale": 1.0},
    "loading": 0.1, "intensity": 2.0, "horizon": 1.0, "samples": 2_000,
}

# command -> the config kinds its parser reads
COMMAND_SCHEMAS = {
    "ratio-curve": ("ratio-curve",), "theorem": ("theorem",),
    "diagnose-class": ("diagnose-class",),
    "diagnose-dependence": ("diagnose-dependence",),
    "convolve": ("convolve",), "ruin": ("ruin", "discrete", "arrival"),
    "surplus-path": ("surplus-path", "discrete", "arrival"),
    "list-presets": (),
    "validate": (),
}

# flag dests that steer a run but name no config field
RUN_ONLY = {"help", "config", "out", "format", "workers", "variant"}


def subcommands() -> dict:
    """Command name -> its subparser."""
    return next(a for a in cli.build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(capsys, argv):
    code = cli.main(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def echoed_config(csv_text):
    first = csv_text.splitlines()[0]
    assert first.startswith("# config=")
    return json.loads(first[len("# config="):])


class TestRoundTrip:
    """The echoed config must reproduce the run byte for byte."""

    def test_echo_rerun_reproduces_csv_bytes(self, tmp_path, capsys):
        cfg1 = write_json(tmp_path, "rc.json", RC_MC_CONFIG)
        out1 = tmp_path / "run1.csv"
        code, _, _ = run(capsys, ["ratio-curve", "--config", cfg1,
                                  "--out", str(out1)])
        assert code == 0

        echo = echoed_config(out1.read_text())
        # runtime-only knobs stay out of the echo
        assert "workers" not in echo and "out" not in echo
        assert "format" not in echo
        assert echo["samples"] == 40_000 and echo["seed"] == 13

        cfg2 = write_json(tmp_path, "rc_echo.json", echo)
        out2 = tmp_path / "run2.csv"
        code, _, _ = run(capsys, ["ratio-curve", "--config", cfg2,
                                  "--out", str(out2)])
        assert code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_worker_count_does_not_change_bytes(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "rc.json", RC_MC_CONFIG)
        out1 = tmp_path / "w1.csv"
        out6 = tmp_path / "w6.csv"
        assert run(capsys, ["ratio-curve", "--config", cfg, "--workers", "1",
                            "--out", str(out1)])[0] == 0
        assert run(capsys, ["ratio-curve", "--config", cfg, "--workers", "6",
                            "--out", str(out6)])[0] == 0
        assert out1.read_bytes() == out6.read_bytes()

    def test_theorem_echo_rerun(self, tmp_path, capsys):
        out1 = tmp_path / "t1.csv"
        code, _, _ = run(capsys, ["theorem", "--id", "T4.1",
                                  "--samples", "150000", "--seed", "5",
                                  "--out", str(out1)])
        assert code == 0
        echo = echoed_config(out1.read_text())
        assert echo["theorem_id"] == "T4.1"
        assert echo["samples"] == 150_000 and echo["seed"] == 5

        cfg = write_json(tmp_path, "t_echo.json", echo)
        out2 = tmp_path / "t2.csv"
        assert run(capsys, ["theorem", "--config", cfg,
                            "--out", str(out2)])[0] == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_surplus_path_echo_rerun(self, tmp_path, capsys):
        cfg1 = write_json(tmp_path, "ruin.json", DISCRETE_RUIN_CONFIG)
        code, out1, _ = run(capsys, ["surplus-path", "--config", cfg1,
                                     "--surplus", "12", "--replicate", "3"])
        assert code == 0
        echo = echoed_config(out1)
        assert echo["surplus"] == 12.0 and echo["replicate"] == 3
        cfg2 = write_json(tmp_path, "echo.json", echo)
        assert run(capsys, ["validate", "--config", cfg2])[0] == 0
        code, out2, _ = run(capsys, ["surplus-path", "--config", cfg2])
        assert code == 0
        assert out2 == out1


LAZY_ROOTS = ("scipy", "yaml", "multiprocessing", "concurrent")
# a fresh interpreter that imports this checkout of the package
FRESH_ENV = dict(os.environ,
                 PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))


def _loaded_after(code):
    """Run code in a fresh interpreter, then list the loaded modules under
    LAZY_ROOTS."""
    probe = (code + "\nimport sys; print(sorted(m for m in sys.modules "
             f"if m.split('.')[0] in {LAZY_ROOTS!r}))")
    done = subprocess.run([sys.executable, "-c", probe], env=FRESH_ENV,
                          capture_output=True, text=True, check=True)
    return done.stdout.splitlines()[-1]


def test_import_loads_no_quadrature_or_root_finder():
    # scipy, PyYAML and the process pool cost every command setup time and
    # memory; each loads on the one path that needs it
    assert _loaded_after("import heavytails.cli") == "[]"


def test_pareto_runs_load_no_scipy():
    # the paper's Pareto sums and Poisson ruin need numpy alone
    code = ("import contextlib, io\n"
            "from heavytails import cli\n"
            "for argv in (['theorem', '--id', 'C3.1', '--samples', '256'],\n"
            "             ['ruin', '--preset', 'C5.2', '--samples', '256']):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert cli.main(argv) == 0, argv")
    assert _loaded_after(code) == "[]"


def test_lognormal_curve_bytes_do_not_depend_on_workers(tmp_path):
    # scipy.special loads when the law is built, before any worker forks
    cfg = write_json(tmp_path, "ln.json", dict(RC_MC_CONFIG, model=dict(
        FGM_PARETO_MODEL, marginals=[{"family": "lognormal", "mu": 0.0,
                                      "sigma": 1.0}] * 2),
        samples=4 * BLOCK_SIZE))
    outs = [subprocess.run([sys.executable, "-m", "heavytails.cli",
                            "ratio-curve", "--config", cfg, "--workers", w],
                           env=FRESH_ENV, capture_output=True,
                           check=True).stdout
            for w in ("1", "2")]
    assert outs[0] == outs[1] and b"lognormal" in outs[0]


def test_import_builds_no_parser():
    # the parser is built on the first main call, not at import
    code = ("import heavytails.cli as cli\n"
            "print(cli.build_parser.cache_info().currsize)")
    done = subprocess.run([sys.executable, "-c", code], env=FRESH_ENV,
                          capture_output=True, text=True, check=True)
    assert done.stdout.split() == ["0"]


def test_one_parser_serves_every_call_with_a_fresh_namespace(capsys):
    # a failed parse, --help and a seeded pooled run leave nothing behind:
    # the unseeded run echoes seed 0 and prints a fresh interpreter's bytes
    argv = ["theorem", "--id", "C3.1", "--samples", "256"]
    assert run(capsys, ["theorem", "--bogus"])[0] == cli.EXIT_USAGE
    assert run(capsys, ["--help"])[0] == cli.EXIT_OK
    assert run(capsys, argv + ["--seed", "5", "--workers", "2"])[0] == 0
    code, out, _ = run(capsys, argv)
    assert code == 0 and echoed_config(out)["seed"] == 0
    fresh = subprocess.run([sys.executable, "-m", "heavytails.cli", *argv],
                           env=FRESH_ENV, capture_output=True, text=True,
                           check=True).stdout
    assert out == fresh
    assert cli.build_parser() is cli.build_parser()


def test_csv_runs_build_no_records(capsys, monkeypatch):
    # the records document is built only for --format records; the records
    # golden hashes guard its bytes
    def boom(curve):
        raise AssertionError("records built for a CSV run")

    monkeypatch.setattr(cli, "_curve_record", boom)
    assert run(capsys, ["theorem", "--id", "C3.1", "--samples", "256"])[0] == 0


class TestExitCodes:
    def test_worker_crash_exits_one_naming_its_blocks(self, tmp_path,
                                                      capsys, monkeypatch):
        real = mc._simulate_block

        def crash_on_block_one(*args):
            if args[-1] == 1:       # the forked worker dies mid-run
                os._exit(3)
            return real(*args)

        monkeypatch.setattr(mc, "_simulate_block", crash_on_block_one)
        cfg = write_json(tmp_path, "rc.json",
                         dict(RC_MC_CONFIG, samples=4 * BLOCK_SIZE))
        # the healthy worker's blocks are never named, however the two
        # processes interleave
        for _ in range(10):
            code, out, err = run(capsys, ["ratio-curve", "--config", cfg,
                                          "--workers", "2"])
            assert code == 1
            assert err.startswith("error: a worker process died")
            assert "blocks 1-3 step 2" in err and "internal error" not in err
            assert "blocks 0-2" not in err
            assert out == ""

    def test_exact_preset_runs_clean(self, capsys):
        code, out, err = run(capsys, ["theorem", "--id", "T3.3"])
        assert code == 0
        assert err == ""

    def test_preset_variant_gate(self, capsys):
        code, _, err = run(capsys, ["theorem", "--id", "T3.3",
                                    "--preset", "weird"])
        assert code == 64
        assert "preset variant" in err

    def test_default_variant_accepted(self, capsys):
        code, _, _ = run(capsys, ["theorem", "--id", "C3.1",
                                  "--preset", "default", "--seed", "7",
                                  "--samples", "400000"])
        assert code == 0

    def test_comonotone_density_bound_check_fails(self, capsys):
        code, out, _ = run(capsys, ["diagnose-dependence", "--model",
                                    "comonotone-pareto", "--check", "H1"])
        assert code == 2
        assert any(line.startswith("H1,inconsistent")
                   for line in out.splitlines())

    def test_unknown_theorem_id(self, capsys):
        code, _, err = run(capsys, ["theorem", "--id", "T9.9"])
        assert code == 64
        assert "unknown theorem id" in err

    def test_unknown_config_field_rejected(self, tmp_path, capsys):
        bad = dict(RC_MC_CONFIG)
        bad["bogus"] = 1
        cfg = write_json(tmp_path, "bad.json", bad)
        code, _, err = run(capsys, ["ratio-curve", "--config", cfg])
        assert code == 64
        assert "bogus" in err

    def test_bad_flag_choice_is_usage_error(self, capsys):
        code, _, err = run(capsys, ["list-presets", "--format", "xml"])
        assert code == 64
        assert "usage error" in err

    def test_missing_required_flag(self, capsys):
        code, _, _ = run(capsys, ["ratio-curve"])
        assert code == 64

    @pytest.mark.parametrize("argv, message", [
        (["theorem"], "theorem needs --config or the flags that name its "
                      "fields; see --help"),
        (["theorem", "--seed", "3"],
         "theorem needs --id or a theorem_id config field"),
        (["diagnose-class", "--dist", "pareto(1.5"],
         "distribution token 'pareto(1.5': missing ')'"),
        (["diagnose-class", "--dist", "pareto(1,2,3)"],
         "pareto takes 1..2 arguments, got 3"),
        (["ratio-curve", "--config", "empty-marginals.json"],
         "model.marginals: expected a nonempty list"),
        (["convolve", "--dist", "exponential(1)", "--points", "100,800"],
         "convolve: single tail vanishes on the grid; shorten it"),
        (["diagnose-class"], "diagnose-class needs --config or the flags "
                             "that name its fields; see --help"),
    ], ids=["theorem-bare", "theorem-no-id", "token-open", "token-arity",
            "no-marginals", "vanishing-tail", "class-bare"])
    def test_bad_input_exits_64_naming_it(self, tmp_path, capsys, argv,
                                          message):
        if "--config" in argv:
            model = dict(FGM_PARETO_MODEL, marginals=[])
            argv = argv[:-1] + [write_json(tmp_path, argv[-1], dict(
                RC_MC_CONFIG, model=model))]
        assert run(capsys, argv)[::2] == (64, f"error: {message}\n")

    @pytest.mark.parametrize("argv", [[]] + [[c] for c in COMMAND_SCHEMAS],
                             ids=["top"] + list(COMMAND_SCHEMAS))
    def test_help_exits_zero(self, capsys, argv):
        assert run(capsys, argv + ["--help"])[0] == 0

    def test_nfold_below_two_rejected(self, capsys):
        code, _, err = run(capsys, ["convolve", "--dist", "pareto(1,1)",
                                    "--nfold", "1"])
        assert code == 64
        assert "nfold" in err

    def test_unexpected_exception_is_internal_error(self, capsys,
                                                    monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli.conv, "nfold_tail_bracket", boom)
        code, _, err = run(capsys, ["convolve", "--dist", "example11"])
        assert code == 1
        assert "internal error" in err


class TestCsvShape:
    def test_theorem_csv_columns(self, capsys):
        _, out, _ = run(capsys, ["theorem", "--id", "T3.3"])
        lines = out.splitlines()
        assert lines[0].startswith("# config=")
        assert lines[1] == ",".join(cli.CSV_COLUMNS)
        rows = [line.split(",") for line in lines[2:]]
        assert len(rows) == 24
        for row in rows:
            assert len(row) == len(cli.CSV_COLUMNS)
            assert row[0] == "T3.3"

    def test_float_fields_survive_a_parse_cycle(self, capsys):
        _, out, _ = run(capsys, ["theorem", "--id", "T3.3"])
        for line in out.splitlines()[2:]:
            for token in line.split(",")[1:]:
                assert repr(float(token)) == token

    def test_records_format_structure(self, capsys):
        _, out, _ = run(capsys, ["theorem", "--id", "T3.3",
                                 "--format", "records"])
        payload = json.loads(out)
        assert set(payload) == {"config", "results"}
        result = payload["results"][0]
        assert result["experiment_id"] == "T3.3"
        assert result["verdict"] == "consistent"
        assert len(result["points"]) == 24
        assert payload["config"]["samples"] == ex.PRESETS["T3.3"].samples

    def test_out_file_plus_status_line(self, tmp_path, capsys):
        out = tmp_path / "t33.csv"
        code, text, _ = run(capsys, ["theorem", "--id", "T3.3",
                                     "--out", str(out)])
        assert code == 0
        assert out.exists()
        assert "T3.3: consistent" in text


class TestListPresets:
    EXPECTED = ("T3.1", "T3.2", "T3.3", "C3.1", "T4.1", "T4.2", "T4.3",
                "T4.4i", "T4.4ii", "C5.1", "C5.2")

    def test_catalog_lists_every_preset_in_order(self, capsys):
        _, out, _ = run(capsys, ["list-presets"])
        lines = out.splitlines()
        assert lines[0] == "preset_id,description"
        ids = [line.split(",", 1)[0] for line in lines[1:]]
        assert ids == list(self.EXPECTED)
        assert ids == list(ex.PRESETS) + list(RISK_PRESETS)

    def test_catalog_records(self, capsys):
        _, out, _ = run(capsys, ["list-presets", "--format", "records"])
        payload = json.loads(out)
        assert [p["id"] for p in payload["presets"]] == list(self.EXPECTED)
        assert all(p["description"] for p in payload["presets"])


class TestValidate:
    def test_plain_preset_config_ok(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "t.json", {"theorem_id": "T4.1"})
        code, out, _ = run(capsys, ["validate", "--config", cfg])
        assert code == 0
        assert "ok" in out
        assert "warning" not in out

    def test_inadmissible_dependence_coefficients(self, tmp_path, capsys):
        bad = json.loads(json.dumps(RC_MC_CONFIG))
        bad["model"]["copula"]["coeffs"] = [1.2]
        cfg = write_json(tmp_path, "bad_fgm.json", bad)
        code, _, err = run(capsys, ["validate", "--config", cfg])
        assert code == 64
        assert "sign vertex" in err

    def test_infinite_mean_count_warning(self, tmp_path, capsys):
        model = {
            "copula": {"family": "independence", "dim": 2},
            "marginals": [PARETO11, PARETO11],
            "tau": {"family": "zeta", "s": 1.5},
        }
        cfg = write_json(tmp_path, "zeta.json", {
            "model": model, "quantity": "SumTau",
            "denominator": {"kind": "n_tail", "n": 1}})
        code, out, _ = run(capsys, ["validate", "--config", cfg])
        assert code == 0
        assert "warning" in out and "divergence" in out

    def test_astronomical_geometric_lengths_are_capped(self, tmp_path,
                                                       capsys):
        # p = 1e-300 draws lengths near 1e300: they clamp below int64 and
        # hit the tau cap instead of wrapping to a negative length
        model = dict(STOPPED_MODEL, tau={"family": "geometric1", "p": 1e-300})
        cfg = write_json(tmp_path, "tiny_p.json", dict(
            RC_MC_CONFIG, model=model, quantity="SumTau",
            denominator={"kind": "n_tail", "n": 1}, samples=3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, ["ratio-curve", "--config", cfg,
                                          "--format", "records"])
            assert code == cli.EXIT_INCONSISTENT, err
            notes = json.loads(out)["results"][0]["notes"]
            assert (f"sequence length capped at {mc.TAU_CAP} in 3 of 3 "
                    f"replicates") in notes
            assert run(capsys, ["validate", "--config", cfg])[0] == 0

    def test_custom_model_hypothesis_warning(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "t44i.json", T44I_CUSTOM_CONFIG)
        code, out, _ = run(capsys, ["validate", "--config", cfg])
        assert code == 0
        # one warning, though both claims record it
        assert out.splitlines() == [
            "warning: hypotheses unverified: summand mean must be negative",
            f"{cfg}: ok (1 warning)"]

    # an integrated tail keeps its base's tags, and example11 is dominatedly
    # varying but not long-tailed
    @pytest.mark.parametrize("theorem, marginal, issues", [
        ("C3.1", {"family": "integrated_tail",
                  "base": {"family": "pareto", "alpha": 2.5}}, []),
        ("T3.2", {"family": "example11"},
         ["GeometricAtomMixture is not declared long-tailed"] * 2
         + ["GeometricAtomMixture is not nonnegative"] * 2),
    ], ids=["integrated-tail", "example11"])
    def test_custom_model_warns_only_the_tags_it_lacks(
            self, tmp_path, capsys, theorem, marginal, issues):
        cfg = write_json(tmp_path, "custom.json", {
            "theorem_id": theorem, "samples": 20_000,
            "model": dict(FGM_PARETO_MODEL, marginals=[marginal] * 2)})
        code, out, _ = run(capsys, ["validate", "--config", cfg])
        assert code == 0
        assert out.splitlines() == (
            [f"warning: hypotheses unverified: {'; '.join(issues)}",
             f"{cfg}: ok (1 warning)"] if issues else [f"{cfg}: ok"])

    def test_infinite_mean_advisory_reaches_the_run(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "zeta.json", ZETA_LIM_CONFIG)
        code, out, err = run(capsys, ["ratio-curve", "--config", cfg,
                                      "--format", "records"])
        assert code in (0, 2) and "Traceback" not in err
        [result] = json.loads(out)["results"]
        assert result["notes"][0] == INFINITE_MEAN_ADVISORY

    # notes only a run can write: the tau cap, the closed form, and the
    # verdict's sample advice
    RUN_ONLY = ("sequence length capped", "numerator computed exactly",
                "grid-end stderr", "no tail hits")

    @pytest.mark.parametrize("command, config", [
        ("ratio-curve", GOLDEN_CONFIGS["rc-divergence"]),
        ("ratio-curve", ZETA_LIM_CONFIG),
        ("theorem", T44I_CUSTOM_CONFIG),
    ], ids=["rc-divergence", "zeta-lim", "t44i-custom"])
    def test_validate_warns_what_the_run_records(self, tmp_path, capsys,
                                                 command, config):
        cfg = write_json(tmp_path, "cfg.json", config)
        code, out, _ = run(capsys, ["validate", "--config", cfg])
        assert code == 0
        warnings = [line[len("warning: "):] for line in out.splitlines()
                    if line.startswith("warning: ")]
        code, out, _ = run(capsys, [command, "--config", cfg, "--format",
                                    "records"])
        assert code in (0, 2)
        for result in json.loads(out)["results"]:
            notes = result["notes"]
            assert notes[:len(warnings)] == warnings
            assert all(n.startswith(self.RUN_ONLY)
                       for n in notes[len(warnings):]), notes

    @pytest.mark.parametrize("argv", [
        ["theorem", "--id", "T3.3"],
        ["ruin", "--preset", "C5.1", "--samples", "20000"],
        ["ratio-curve", "--config", "rc.json"],
    ], ids=["theorem", "ruin", "ratio-curve"])
    def test_a_curve_run_checks_once(self, tmp_path, capsys, monkeypatch,
                                     argv):
        # the run's own check yields the advisories; parsing checks nothing
        argv = [write_json(tmp_path, a, RC_MC_CONFIG) if a == "rc.json"
                else a for a in argv]
        calls = []
        check = ex.Preset.check
        monkeypatch.setattr(ex.Preset, "check", lambda self, *a: (
            calls.append(self.preset_id), check(self, *a))[1])
        code, _, _ = run(capsys, argv)
        assert code in (0, 2) and len(calls) == 1, calls

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "extra.json",
                         {"theorem_id": "T4.1", "extra": 1})
        assert run(capsys, ["validate", "--config", cfg])[0] == 64

    def test_undriveable_config_rejected(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "mystery.json", {"foo": 1})
        code, _, err = run(capsys, ["validate", "--config", cfg])
        assert code == 64
        assert "cannot tell" in err

    @pytest.mark.parametrize("theorem, model, message", [
        ("T4.1", _NO_COUNT, _NEEDS_COUNT),
        ("T4.1", _ZETA_COUNT, _NEEDS_FINITE_MEAN),
        ("T4.1", MIXED_STOPPED_MODEL, _NEEDS_IDENTICAL),
        ("T4.2", _NO_COUNT,
         "stopped quantities need a counting law on the model"),
        ("T4.2", dict(MIXED_STOPPED_MODEL, tau=_ZETA_COUNT["tau"]),
         _NEEDS_IDENTICAL),
        ("T4.3", _NO_COUNT, _NEEDS_COUNT),
        ("T4.3", _ZETA_COUNT, _NEEDS_FINITE_MEAN),
        ("T4.3", MIXED_STOPPED_MODEL, _NEEDS_IDENTICAL),
        ("T4.4i", _NO_COUNT, _NEEDS_COUNT),
        ("T4.4i", _ZETA_COUNT, _NEEDS_FINITE_MEAN),
        ("T4.4i", MIXED_STOPPED_MODEL, _NEEDS_IDENTICAL),
        ("T4.4ii", _NO_COUNT, _NEEDS_COUNT),
        ("T4.4ii", MIXED_STOPPED_MODEL, _NEEDS_IDENTICAL),
    ], ids=["T4.1-no-count", "T4.1-infinite-mean", "T4.1-mixed",
            "T4.2-no-count", "T4.2-mixed", "T4.3-no-count",
            "T4.3-infinite-mean", "T4.3-mixed", "T4.4i-no-count",
            "T4.4i-infinite-mean", "T4.4i-mixed", "T4.4ii-no-count",
            "T4.4ii-mixed"])
    def test_custom_model_breaking_what_the_run_enforces_exits_64(
            self, tmp_path, capsys, theorem, model, message):
        # the run's own check rejects it with the engine's or the
        # denominator's message; no hypothesis note is written for it
        cfg = write_json(tmp_path, "cfg.json",
                         {"theorem_id": theorem, "model": model})
        for command in ("theorem", "validate"):
            assert run(capsys, [command, "--config", cfg]) == (
                64, "", f"error: {message}\n"), command

    @pytest.mark.parametrize("command, config, code", [
        ("diagnose-dependence", {"model": "fgm-pareto", "checks": "H1"}, 0),
        ("convolve", {"dist": "pareto(1.5,1)", "nfold": 3}, 0),
        ("ratio-curve", dict(RC_MC_CONFIG, semantics="bogus"), 64),
        ("theorem", {"theorem_id": "C5.1", "model": FGM_PARETO_MODEL}, 64),
        ("ratio-curve",
         dict(RC_MC_CONFIG, denominator={"kind": "mean_tau_tail"}), 64),
        ("ratio-curve", dict(RC_MC_CONFIG, numerator="exact"), 64),
        ("ratio-curve", dict(RC_MC_CONFIG, samples=-5), 64),
        ("ratio-curve", dict(RC_MC_CONFIG, seed=-3), 64),
        ("theorem", {"theorem_id": "T4.1", "model": FGM_PARETO_MODEL}, 64),
        ("theorem", {"theorem_id": "T4.1", "model": MIXED_STOPPED_MODEL},
         64),
        ("ratio-curve", dict(RC_MC_CONFIG, model=MIXED_STOPPED_MODEL,
                             quantity="SumTau"), 64),
        ("ratio-curve", dict(RC_MC_CONFIG, model=STOPPED_MODEL,
                             quantity="SumTau", weights=[1.0, 1.0]), 64),
        ("ratio-curve", dict(RC_MC_CONFIG, weights=[1.0, 1.0, 1.0]), 64),
        # the weighted terms' tails sum over the positive weights only
        ("ratio-curve", dict(RC_MC_CONFIG, weights=[0.0, -1.0],
                             denominator={"kind": "sum_tails"}), 64),
        ("ratio-curve", dict(RC_MC_CONFIG, quantity="SumTau"), 64),
        # the denominators vanish on the grid the run would use
        ("ratio-curve", dict(RC_MC_CONFIG, model=dict(
            FGM_PARETO_MODEL, marginals=[{"family": "pareto",
                                          "alpha": 1e400}] * 2)), 64),
        ("ruin", dict(ARRIVAL_RUIN_CONFIG, horizon=0), 64),
        # counts past what the engine can size or numpy can draw
        ("ratio-curve", dict(RC_MC_CONFIG, samples=10 ** 23), 64),
        ("ruin", dict(ARRIVAL_RUIN_CONFIG, intensity=1e23), 64),
        ("convolve", {"dist": "pareto(1.5,1)", "nfold": 10 ** 23}, 64),
        # a padded auto is auto
        ("convolve", {"dist": "pareto(1,1)", "points": " auto"}, 0),
    ], ids=["dependence-token", "convolve-nfold", "bad-semantics",
            "ruin-preset-model", "mean-tau-without-tau",
            "exact-without-closed-form", "negative-samples",
            "negative-seed", "theorem-model-without-tau",
            "theorem-model-mixed-marginals", "stopped-mixed-marginals",
            "stopped-with-weights", "weights-wrong-length",
            "weights-none-positive", "stopped-without-tau", "marginal-alpha-overflow",
            "arrival-zero-horizon", "samples-above-cap",
            "poisson-mean-above-cap", "nfold-above-cap", "padded-auto"])
    def test_validate_agrees_with_the_command(self, tmp_path, capsys,
                                              command, config, code):
        cfg = write_json(tmp_path, "cfg.json", config)
        code_run, _, err_run = run(capsys, [command, "--config", cfg])
        code_check, _, err_check = run(capsys, ["validate", "--config", cfg])
        assert code_run == code_check == code
        assert err_run == err_check


def _leaves(node, path=()):
    """Paths to every scalar inside nested mappings and lists."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else None)
    if items is None:
        yield path
        return
    for key, child in items:
        yield from _leaves(child, path + (key,))


GOLDEN_LEAVES = [(name, path) for name, cfg in GOLDEN_CONFIGS.items()
                 for path in _leaves(cfg)]

# the golden configs that run the engine, by the command that reads them
RUNNING_CONFIGS = {"rc": "ratio-curve", "rc-weighted": "ratio-curve",
                   "rc-divergence": "ratio-curve", "discrete": "ruin",
                   "arrival": "ruin", "ruin-preset": "ruin"}
BAD_VALUES = ["x", "", None, True, [1, 2], {}, -1, 0, 0.5, 1e400,
              float("nan"), 10 ** 23, " auto"]
# the oracle commands' golden configs, and a convolve config, by name:
# (command, config)
ORACLE_CONFIGS = {
    **{name: (command, GOLDEN_CONFIGS[name]) for name, command in (
        ("class", "diagnose-class"), ("class-atoms", "diagnose-class"),
        ("dependence", "diagnose-dependence"))},
    "convolve": ("convolve", {"dist": "pareto(1.5,1)", "nfold": 2,
                              "points": "auto"})}


def _bad_leaf_configs(config):
    """(path, value, config with that leaf set to value) for every leaf and
    bad value; a null samples means the default budget, so it is skipped."""
    for path in _leaves(config):
        for value in BAD_VALUES:
            if (path, value) == (("samples",), None):
                continue
            cfg = json.loads(json.dumps(config))
            node = cfg
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
            yield path, value, cfg


class TestBadValues:
    """A value of the wrong type or form is a config error naming its
    field, in the command and in validate alike."""

    @pytest.mark.parametrize("command, config, field", [
        ("ratio-curve", dict(RC_MC_CONFIG, samples="many"), "samples"),
        ("ratio-curve", dict(RC_MC_CONFIG, tolerance="tight"), "tolerance"),
        ("ratio-curve", dict(RC_MC_CONFIG, divergence_bound=[1]),
         "divergence_bound"),
        ("ratio-curve", dict(RC_MC_CONFIG, denominator={"kind": "n_tail",
                                                        "n": 1e400}),
         "denominator.n"),
        ("ratio-curve", dict(RC_MC_CONFIG, grid={"lo": "x", "hi": 5.0}),
         "grid"),
        ("diagnose-class", {"dist": "pareto(x)"}, "pareto(x)"),
        ("diagnose-class", {"dist": {"family": "pareto", "alpha": "x"}},
         "dist.alpha"),
        ("diagnose-class", {"dist": "pareto(1.5,1)", "checks": -1},
         "checks"),
        ("diagnose-dependence", {"model": "fgm-pareto", "pair": ["a", 1]},
         "pair"),
        ("convolve", {"dist": "example11", "nfold": 1e400}, "nfold"),
        ("convolve", {"dist": "example11", "points": "1:x:4"}, "points"),
        ("convolve", {"dist": "pareto(1.5,1)", "points": [1.0, 1e400]},
         "points"),
        ("diagnose-class", {"dist": "pareto(1.5,1)",
                            "grid": {"lo": 1.0, "hi": 1e400}}, "grid"),
        ("ruin", {"preset": ["C5.1"]}, "ruin preset"),
        ("ruin", dict(DISCRETE_RUIN_CONFIG, seed="x"), "seed"),
        # integer fields take integral numbers only, never a boolean
        ("ratio-curve", dict(RC_MC_CONFIG, samples=20000.7), "samples"),
        ("ratio-curve", dict(RC_MC_CONFIG, samples=True), "samples"),
        ("ratio-curve", dict(RC_MC_CONFIG, seed=13.9), "seed"),
        ("ratio-curve", dict(RC_MC_CONFIG, denominator={"kind": "n_tail",
                                                        "n": 2.9}),
         "denominator.n"),
        ("ratio-curve", dict(RC_MC_CONFIG, grid={"lo": 5.0, "hi": 500.0,
                                                 "points": 8.5}),
         "grid.points"),
        ("ratio-curve", dict(RC_MC_CONFIG, model=dict(
            FGM_PARETO_MODEL, copula={"family": "fgm", "dim": 2.5,
                                      "coeffs": [1.0]})),
         "model.copula.dim"),
        ("ratio-curve", dict(RC_MC_CONFIG, quantity="SumTau", model=dict(
            FGM_PARETO_MODEL, tau={"family": "deterministic", "n": 2.5})),
         "model.tau.n"),
        ("ruin", dict(DISCRETE_RUIN_CONFIG, seed=False), "seed"),
        ("diagnose-dependence", {"model": "fgm-pareto", "pair": [0, 1.5]},
         "pair"),
        ("convolve", {"dist": "example11", "nfold": 2.6}, "nfold"),
        # (1 + rate)^k overflows a float within the horizon
        ("ruin", dict(DISCRETE_RUIN_CONFIG, rate=1e300), "rate"),
        ("ruin", dict(DISCRETE_RUIN_CONFIG, rate=100, claims=CLAIMS_200),
         "rate"),
        ("surplus-path", dict(DISCRETE_RUIN_CONFIG, rate=1e300, surplus=1.0),
         "rate"),
        ("surplus-path", dict(DISCRETE_RUIN_CONFIG, rate=100,
                              claims=CLAIMS_200, surplus=1.0), "rate"),
        # a denominator takes no rate: a discounted curve is sum_tails over
        # discount weights
        ("ratio-curve", dict(RC_MC_CONFIG, denominator={"kind": "discounted",
                                                        "rate": 1e300}),
         "rate"),
    ])
    def test_config_value(self, tmp_path, capsys, command, config, field):
        cfg = write_json(tmp_path, "bad.json", config)
        for argv in ([command, "--config", cfg], ["validate", "--config", cfg]):
            code, _, err = run(capsys, argv)
            assert code == 64, (argv, err)
            assert field in err

    @pytest.mark.parametrize("argv, field", [
        (["diagnose-class", "--dist", "pareto(x)"], "pareto(x)"),
        (["diagnose-class", "--dist", "pareto(1.5,1)", "--grid", "1,x"],
         "--grid"),
        (["convolve", "--dist", "pareto(1,1)", "--points", "1:9:x"],
         "--points"),
    ])
    def test_flag_value(self, capsys, argv, field):
        code, _, err = run(capsys, argv)
        assert code == 64
        assert field in err

    @pytest.mark.parametrize("argv, name", [
        (["convolve", "--dist", "pareto(1,1)", "--points", "1:2"],
         "--points"),
        (["convolve", "--config", {"dist": "pareto(1,1)", "points": "1:2"}],
         "points"),
        (["diagnose-class", "--dist", "pareto(1,1)", "--grid", "1:2"],
         "--grid"),
    ])
    def test_grid_string_error_names_its_flag_or_field(self, tmp_path,
                                                       capsys, argv, name):
        argv = [write_json(tmp_path, "c.json", a) if isinstance(a, dict)
                else a for a in argv]
        code, _, err = run(capsys, argv)
        assert code == 64
        assert f"error: {name} takes lo:hi:n" in err

    @pytest.mark.parametrize("argv, message", [
        (["convolve", "--dist", "pareto(1,1)", "--points", "10:1:5"],
         "--points: need 0 < lo < hi < inf"),
        (["convolve", "--dist", "pareto(1,1)", "--points", "1:10:10001"],
         "--points: at most 10000, got 10001"),
        (["diagnose-class", "--dist", "pareto(1,1)", "--grid", "10:1:5"],
         "--grid: need 0 < lo < hi < inf"),
        (["diagnose-class", "--dist", "pareto(1,1)", "--grid", "5,4"],
         "--grid: explicit grid must be"),
        (["convolve", "--config", {"dist": "pareto(1,1)",
                                   "points": "10:1:5"}],
         "points: need 0 < lo < hi < inf"),
        (["convolve", "--config", {"dist": "pareto(1,1)",
                                   "points": {"lo": 1, "hi": 10,
                                              "points": 10001}}],
         "points.points: at most 10000, got 10001"),
    ], ids=["points-order", "points-cap", "grid-order", "grid-list",
            "config-points-order", "config-points-cap"])
    def test_grid_value_error_names_its_flag_or_field(self, tmp_path, capsys,
                                                      argv, message):
        argv = [write_json(tmp_path, "c.json", a) if isinstance(a, dict)
                else a for a in argv]
        code, _, err = run(capsys, argv)
        assert code == 64
        assert f"error: {message}" in err

    @settings(max_examples=150, deadline=None)
    @given(leaf=st.sampled_from(GOLDEN_LEAVES),
           value=st.one_of(st.text(max_size=6), st.none(),
                           st.lists(st.integers(-2, 2), max_size=3),
                           st.floats(-1e6, -1e-6), st.just(1e400)))
    def test_validate_never_fails_internally(self, tmp_path_factory, leaf,
                                             value):
        # validation only: the config is parsed and checked, never run
        name, path = leaf
        cfg = json.loads(json.dumps(GOLDEN_CONFIGS[name]))
        node = cfg
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        target = tmp_path_factory.mktemp("fuzz") / "cfg.json"
        target.write_text(json.dumps(cfg))
        assert cli.main(["validate", "--config", str(target)]) in (0, 64)

    @pytest.mark.parametrize("name", sorted(RUNNING_CONFIGS))
    def test_bad_leaf_runs_or_exits_64_as_validate_says(self, tmp_path,
                                                        capsys, name):
        # every leaf under every bad value, at a 256-sample budget and one
        # worker; a null samples means the default budget, so it is skipped
        command = RUNNING_CONFIGS[name]
        disagree = []
        for i, (path, value, cfg) in enumerate(_bad_leaf_configs(
                dict(GOLDEN_CONFIGS[name], samples=256))):
            target = write_json(tmp_path, f"cfg{i}.json", cfg)
            code_run, _, err_run = run(capsys, [command, "--config", target])
            code_check, _, err_check = run(capsys,
                                           ["validate", "--config", target])
            if (code_run not in (0, 2, 64)
                    or code_check != (64 if code_run == 64 else 0)
                    or (code_run == 64 and err_run != err_check)):
                disagree.append((path, value, code_run, code_check, err_run))
        assert disagree == []

    @pytest.mark.parametrize("name", sorted(ORACLE_CONFIGS))
    def test_bad_leaf_of_an_oracle_config_never_fails_internally(
            self, tmp_path, capsys, name):
        # validate does not run these numerics (a dependence marginal with a
        # huge alpha exits 64 in the command only), so only the command's
        # exit code is checked
        command, config = ORACLE_CONFIGS[name]
        failed = []
        for i, (path, value, cfg) in enumerate(_bad_leaf_configs(config)):
            target = write_json(tmp_path, f"cfg{i}.json", cfg)
            code, _, err = run(capsys, [command, "--config", target])
            if code not in (0, 2, 64):
                failed.append((path, value, code, err))
        assert failed == []


class TestOverlay:
    """Each flag overrides the config field it names."""

    @pytest.mark.parametrize("config, flags, field, echoed", [
        ({"dist": "pareto(1.5,1)", "checks": "L"},
         ["diagnose-class", "--dist", "weibull(0.5,1)"], "dist",
         {"family": "weibull", "shape": 0.5, "scale": 1.0}),
        ({"dist": "pareto(1.5,1)", "nfold": 3}, ["convolve", "--nfold", "4"],
         "nfold", 4),
        ({"dist": "pareto(1.5,1)", "nfold": 3},
         ["convolve", "--points", "10,20"], "points", [10.0, 20.0]),
    ], ids=["class-dist", "convolve-nfold", "convolve-points"])
    def test_flag_overrides_config_field(self, tmp_path, capsys, config,
                                         flags, field, echoed):
        cfg = write_json(tmp_path, "c.json", config)
        code, out, err = run(capsys, flags + ["--config", cfg])
        assert code in (0, 2), err
        assert echoed_config(out)[field] == echoed

    def test_ruin_preset_flag_keeps_the_config_seed(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "r.json", {"preset": "C5.2", "seed": 9})
        code, out, err = run(capsys, ["ruin", "--config", cfg, "--preset",
                                      "C5.1", "--samples", "2000"])
        assert code == 0, err
        assert echoed_config(out) == {"preset": "C5.1", "seed": 9,
                                      "samples": 2000}
        assert out.splitlines()[2].startswith("C5.1,")

    def test_every_flag_overrides_a_schema_field_or_is_run_only(self):
        assert sorted(subcommands()) == sorted(COMMAND_SCHEMAS)
        for command, sub in subcommands().items():
            fields = {key for kind in COMMAND_SCHEMAS[command]
                      for key in (cli._SCHEMAS[kind][0]
                                  + tuple(cli._SCHEMAS[kind][1]))}
            for action in sub._actions:
                if action.dest not in RUN_ONLY:
                    assert action.dest in fields, (command,
                                                   action.option_strings)

    # each command's option strings besides -h/--help, in --help order
    COMMAND_OPTIONS = {
        "ratio-curve": "--config --out --format --seed --samples --workers",
        "theorem": "--id --preset --config --out --format --seed --samples "
                   "--workers",
        "diagnose-class": "--dist --config --check --grid --out --format",
        "diagnose-dependence": "--model --config --check --out --format",
        "convolve": "--dist --config --nfold --points --out --format",
        "ruin": "--preset --config --out --format --seed --samples "
                "--workers",
        "surplus-path": "--config --surplus --replicate --out --format "
                        "--seed",
        "list-presets": "--out --format",
        "validate": "--config",
    }

    def test_each_command_takes_its_option_strings(self):
        got = {command: " ".join(option for action in sub._actions
                                 for option in action.option_strings
                                 if option not in ("-h", "--help"))
               for command, sub in subcommands().items()}
        assert got == self.COMMAND_OPTIONS

    def test_short_token_echoes_only_what_it_spells(self, capsys):
        _, out, _ = run(capsys, ["diagnose-class", "--dist", "pareto(1.5)",
                                 "--check", "L"])
        assert echoed_config(out)["dist"] == {"family": "pareto",
                                              "alpha": 1.5}
        code, out, _ = run(capsys, ["diagnose-class", "--dist",
                                    "example11(0.3)", "--check", "L"])
        assert code == 2
        assert echoed_config(out)["dist"] == {"family": "example11",
                                              "q": 0.3}


class TestInputOutputPaths:
    """A path that cannot be read or written, and a grid too large to
    build, exit 64 with the path or field named."""

    def test_missing_output_directory(self, tmp_path, capsys):
        target = str(tmp_path / "missing" / "x.csv")
        code, _, err = run(capsys, ["list-presets", "--out", target])
        assert code == 64
        assert "cannot write output" in err and target in err

    def test_output_is_a_directory(self, tmp_path, capsys):
        code, _, err = run(capsys, ["list-presets", "--out", str(tmp_path)])
        assert code == 64
        assert str(tmp_path) in err

    def test_config_that_is_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{}")
        code, _, err = run(capsys, ["validate", "--config", str(path)])
        assert code == 64
        assert "cannot read config" in err and str(path) in err

    def test_config_that_is_neither_json_nor_yaml(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("model: [unclosed\n")
        code, _, err = run(capsys, ["ratio-curve", "--config", str(path)])
        assert code == 64
        assert "is neither JSON nor YAML" in err and str(path) in err

    def test_grid_points_above_the_cap(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "cap.json", {
            "dist": "pareto(1.5,1)", "checks": "L",
            "grid": {"lo": 1.0, "hi": 10.0,
                     "points": cli.MAX_GRID_POINTS + 1}})
        for argv in (["diagnose-class", "--config", cfg],
                     ["validate", "--config", cfg]):
            code, _, err = run(capsys, argv)
            assert code == 64
            assert "grid.points" in err


class TestConvolve:
    HEADER = "x,lower,upper,single_tail,ratio_low,ratio_high,running_min"

    def test_atom_mixture_running_min_drops_below_two(self, capsys):
        code, out, _ = run(capsys, ["convolve", "--dist", "example11",
                                    "--points", "auto"])
        assert code == 0
        lines = out.splitlines()
        assert lines[1] == self.HEADER
        rows = [line.split(",") for line in lines[2:]]
        # the twofold table is exact, so the bracket collapses
        for row in rows:
            assert row[1] == row[2]
        final_min = float(rows[-1][-1])
        assert final_min == 1.25
        assert final_min < 2.0

    def test_bracket_mode_for_continuous_laws(self, capsys):
        code, out, _ = run(capsys, ["convolve", "--dist", "pareto(1.5,1)"])
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[2:]]
        mins = [float(r[-1]) for r in rows]
        for row in rows:
            assert float(row[1]) <= float(row[2])
            assert float(row[4]) <= float(row[5])
        assert mins == sorted(mins, reverse=True) or all(
            a >= b for a, b in zip(mins, mins[1:]))

    def test_threefold_atoms_stay_exact(self, capsys):
        # lattice input convolves exactly at any order, so the
        # bracket keeps zero width even off the twofold fast path
        code, out, _ = run(capsys, ["convolve", "--dist", "example11",
                                    "--nfold", "3"])
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[2:]]
        assert rows
        for row in rows:
            assert float(row[1]) == float(row[2])

    def test_threefold_continuous_has_bracket_width(self, capsys):
        code, out, _ = run(capsys, ["convolve", "--dist", "pareto(1.5,1)",
                                    "--nfold", "3"])
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[2:]]
        assert any(float(r[1]) < float(r[2]) for r in rows)

    def test_explicit_points(self, capsys):
        code, out, _ = run(capsys, ["convolve", "--dist", "example11",
                                    "--points", "2.5,6.5,14.5"])
        assert code == 0
        xs = [float(line.split(",")[0]) for line in out.splitlines()[2:]]
        assert xs == [2.5, 6.5, 14.5]

    # the first law lives below the probes' 1e-9 floor and the last below
    # its one positive atom, so the single tail vanishes on the auto probes
    @pytest.mark.parametrize("dist, message", [
        ("exponential(1e300)",
         "convolve: single tail vanishes on the grid; shorten it"),
        ("lognormal(0,1e3)", "the default grid's top quantile overflows"),
        ("pareto(1e-300,1)", "the default grid's top quantile overflows"),
        ({"family": "atoms", "atoms": [[-1.0, 0.5], [0.0, 0.5]]},
         "auto points need a positive atom"),
        ({"family": "atoms", "atoms": [[0.0, 0.9995], [1.0, 0.0005]]},
         "convolve: single tail vanishes on the grid; shorten it"),
    ], ids=["exponential-tiny", "lognormal-overflow", "pareto-overflow",
            "atoms-nonpositive", "atoms-top-quantile-zero"])
    def test_auto_points_name_the_real_failure(self, tmp_path, capsys, dist,
                                               message):
        cfg = write_json(tmp_path, "cfg.json", {"dist": dist})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = run(capsys, ["convolve", "--config", cfg])
        assert (result, caught) == ((64, "", f"error: {message}\n"), [])


class TestDiagnoseClass:
    def test_power_tail_core_checks_pass(self, capsys):
        code, out, _ = run(capsys, ["diagnose-class", "--dist",
                                    "pareto(1.5,1)", "--check", "L,D,S"])
        assert code == 0
        verdicts = [line.split(",")[1] for line in out.splitlines()[2:]]
        assert verdicts == ["consistent"] * 3

    def test_exponential_fails_the_convolution_ratio(self, capsys):
        code, out, _ = run(capsys, ["diagnose-class", "--dist",
                                    "exponential(1)", "--check", "S"])
        assert code == 2
        row = out.splitlines()[2].split(",")
        assert row[1] == "inconsistent"
        assert float(row[2]) > 2.0

    def test_atom_mixture_fails_long_tail_exactly(self, capsys):
        code, out, _ = run(capsys, ["diagnose-class", "--dist", "example11",
                                    "--check", "L"])
        assert code == 2
        row = out.splitlines()[2].split(",")
        assert row[1] == "inconsistent"
        assert float(row[2]) == 0.5

    @pytest.mark.parametrize("dist", ["lognormal(1e300,1)", "pareto(1e-300,1)"])
    def test_overflowing_default_grid_reads_unavailable(self, capsys, dist):
        # the top quantile overflows the floats: the grid checks say so,
        # quietly, and Sstar keeps its own reason
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, ["diagnose-class", "--dist", dist,
                                          "--check", "all", "--format",
                                          "records"])
        assert (code, err, caught) == (0, "", [])
        notes = {r["check"]: r["notes"] for r in json.loads(out)["results"]}
        for check in ("L", "D", "S", "SstarStrong"):
            assert notes[check] == ["the default grid's top quantile overflows"]
        assert "overflows" not in notes["Sstar"][0]

    def test_finite_atom_law_reads_every_check_on_its_own_grid(
            self, tmp_path, capsys):
        # example11's default grids run past the last atom, where the tail
        # vanishes; the law's own atoms give every check a grid
        cfg = write_json(tmp_path, "atoms.json", {
            "dist": GOLDEN_CONFIGS["class-atoms"]["dist"]})
        code, out, _ = run(capsys, ["diagnose-class", "--config", cfg,
                                    "--check", "all"])
        assert code == 2
        rows = [line.split(",") for line in out.splitlines()[2:]]
        assert [row[0] for row in rows] == list(cli._CLASS_CHECKS)
        assert "unavailable" not in [row[1] for row in rows]
        # bounded support: one step past the last probe the tail is zero
        assert rows[0][1:3] == ["inconsistent", "0.0"]

    @pytest.mark.parametrize("offset", [1.0, -0.75])
    def test_shifted_atom_mixture_fails_long_tail_exactly(self, tmp_path,
                                                          capsys, offset):
        # the atom grid moves with the law; the quantile grid would land on
        # the shifted atoms, where the statistic reads 1
        cfg = write_json(tmp_path, "shifted.json", {"dist": {
            "family": "shifted", "base": {"family": "example11"},
            "offset": offset}})
        code, out, _ = run(capsys, ["diagnose-class", "--config", cfg,
                                    "--check", "L"])
        assert code == 2
        row = out.splitlines()[2].split(",")
        assert row[1] == "inconsistent"
        assert float(row[2]) == 0.5

    def test_atom_mixture_shifted_below_minus_one_reads_s_verdicts(
            self, tmp_path, capsys):
        # a shift of -3 moves rho's atoms 1 and 3 to or below zero; the
        # span of S and SstarStrong starts at the first atom left positive,
        # so neither probes at or below zero. Sstar needs a finite mean.
        cfg = write_json(tmp_path, "shifted.json", {"dist": {
            "family": "shifted", "base": {"family": "example11"},
            "offset": -3}})
        code, out, _ = run(capsys, ["diagnose-class", "--config", cfg,
                                    "--check", "all"])
        assert code == 2
        verdicts = {row.split(",")[0]: row.split(",")[1]
                    for row in out.splitlines()[2:]}
        assert verdicts["S"] in dg.VERDICTS
        assert verdicts["SstarStrong"] in dg.VERDICTS
        assert verdicts["Sstar"] == "unavailable"

    def test_infinite_mean_makes_integrated_checks_unavailable(self,
                                                               capsys):
        code, out, _ = run(capsys, ["diagnose-class", "--dist",
                                    "pareto(0.5,1)", "--check", "Sstar"])
        assert code == 0
        row = out.splitlines()[2].split(",")
        assert row[1] == "unavailable"
        assert row[3] == ""

    @pytest.mark.parametrize("dist, check", [
        ("pareto(1.5,1e300)", "Sstar"),
        ("pareto(1.5,1e300)", "SstarStrong"),
        ("lognormal(1e300,1)", "Sstar"),
    ])
    def test_float_overflow_makes_a_check_unavailable(self, capsys, dist,
                                                      check):
        code, out, _ = run(capsys, ["diagnose-class", "--dist", dist,
                                    "--check", check, "--format", "records"])
        assert code == 0
        [row] = json.loads(out)["results"]
        assert row["verdict"] == "unavailable"
        assert row["notes"][0].startswith("OverflowError")

    def test_lognormal_mean_overflow_names_the_mean(self, capsys):
        code, out, err = run(capsys, ["diagnose-class", "--dist",
                                      "lognormal(1e300,1)", "--check",
                                      "Sstar", "--format", "records"])
        assert (code, err) == (0, "")
        [row] = json.loads(out)["results"]
        assert row["notes"] == ["OverflowError: lognormal mean "
                                "exp(mu + sigma^2/2) exceeds the largest "
                                "float"]

    def test_grid_flag_forms(self, capsys):
        assert run(capsys, ["diagnose-class", "--dist", "pareto(1.5,1)",
                            "--check", "L", "--grid", "2:2000:12"])[0] == 0
        assert run(capsys, ["diagnose-class", "--dist", "pareto(1.5,1)",
                            "--check", "L", "--grid", "10,20,40"])[0] == 0
        assert run(capsys, ["diagnose-class", "--dist", "pareto(1.5,1)",
                            "--check", "L", "--grid", "1:2"])[0] == 64

    def test_unknown_check_rejected(self, capsys):
        code, _, err = run(capsys, ["diagnose-class", "--dist",
                                    "pareto(1.5,1)", "--check", "Q"])
        assert code == 64
        assert "unknown class check" in err

    def test_unknown_dist_token(self, capsys):
        code, _, err = run(capsys, ["diagnose-class", "--dist", "cauchy(1)"])
        assert code == 64
        assert "unknown distribution token" in err


class TestDiagnoseDependence:
    def test_bounded_density_family_passes(self, capsys):
        code, out, _ = run(capsys, ["diagnose-dependence", "--model",
                                    "fgm-pareto", "--check", "both"])
        assert code == 0
        verdicts = [line.split(",")[1] for line in out.splitlines()[2:]]
        assert verdicts == ["consistent", "consistent"]

    def test_model_token_in_config(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "dep.json",
                         {"model": "comonotone-pareto", "checks": "H1"})
        assert run(capsys, ["diagnose-dependence", "--config", cfg])[0] == 2

    def test_unknown_model_token(self, capsys):
        code, _, err = run(capsys, ["diagnose-dependence", "--model",
                                    "gauss-pareto"])
        assert code == 64
        assert "unknown model token" in err

    def test_a_check_that_cannot_run_reads_unavailable(self, tmp_path,
                                                       capsys):
        # H2 conditions on the atom law's tail, which vanishes on its grid;
        # H1 still reports
        cfg = write_json(tmp_path, "dep.json", {
            "model": {"copula": {"family": "independence"},
                      "marginals": [PARETO11, {"family": "atoms", "atoms":
                                               [[1.0, 0.5], [2.0, 0.5]]}]},
            "checks": "H1,H2"})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, ["diagnose-dependence", "--config",
                                          cfg, "--format", "records"])
        assert (code, err, caught) == (0, "", [])
        rows = {r["check"]: r for r in json.loads(out)["results"]}
        assert rows["H1"]["verdict"] == "consistent"
        assert (rows["H2"]["verdict"], rows["H2"]["notes"]) == (
            "unavailable", ["conditioning tail vanishes on the grid"])


class TestRuinCli:
    def test_preset_runs_reduced(self, capsys):
        code, out, _ = run(capsys, ["ruin", "--preset", "C5.1",
                                    "--samples", "150000", "--seed", "3"])
        assert code == 0
        lines = out.splitlines()
        assert lines[1] == ",".join(cli.CSV_COLUMNS)
        assert lines[2].split(",")[0] == "C5.1"
        assert json.loads(lines[0][len("# config="):])["samples"] == 150_000

    def test_unknown_preset(self, capsys):
        code, _, err = run(capsys, ["ruin", "--preset", "C9.9"])
        assert code == 64
        assert "unknown ruin preset" in err

    def test_discrete_config_runs(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "ruin.json", DISCRETE_RUIN_CONFIG)
        code, out, _ = run(capsys, ["ruin", "--config", cfg])
        assert code == 0
        echo = echoed_config(out)
        assert echo["rate"] == 0.02 and echo["samples"] == 20_000


class TestSurplusPath:
    def test_path_starts_at_the_initial_surplus(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "ruin.json", DISCRETE_RUIN_CONFIG)
        code, out, _ = run(capsys, ["surplus-path", "--config", cfg,
                                    "--surplus", "12"])
        assert code == 0
        lines = out.splitlines()
        assert lines[1] == "period,surplus"
        rows = [line.split(",") for line in lines[2:]]
        assert [int(r[0]) for r in rows] == [0, 1, 2]
        assert float(rows[0][1]) == 12.0

    def test_replicates_differ(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "ruin.json", DISCRETE_RUIN_CONFIG)
        _, out0, _ = run(capsys, ["surplus-path", "--config", cfg,
                                  "--surplus", "12", "--replicate", "0"])
        _, out1, _ = run(capsys, ["surplus-path", "--config", cfg,
                                  "--surplus", "12", "--replicate", "1"])
        assert out0 != out1

    def test_replicate_is_the_engine_row(self, tmp_path, capsys):
        # replicate k is row k % BLOCK_SIZE of block k // BLOCK_SIZE, so a
        # huge one draws one row of one block, not k rows; the row is the
        # last of the block prefix drawn in full
        cfg = write_json(tmp_path, "ruin.json", DISCRETE_RUIN_CONFIG)
        model = cli._build_risk(DISCRETE_RUIN_CONFIG, "ruin")[0]
        for replicate in (1, BLOCK_SIZE + 3, 10 ** 12):
            code, out, _ = run(capsys, ["surplus-path", "--config", cfg,
                                        "--surplus", "12", "--replicate",
                                        str(replicate)])
            assert code == 0
            rows = model.claims.sample_vector(
                mc.block_stream(2, replicate // BLOCK_SIZE),
                replicate % BLOCK_SIZE + 1)
            disc = np.cumsum(rows[-1] * model.discount_weights())
            got = [float(line.split(",")[1]) for line in out.splitlines()[3:]]
            assert got == [1.02 ** k * (12.0 - disc[k - 1]) for k in (1, 2)]

    def test_replicate_past_the_block_indices(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "ruin.json", DISCRETE_RUIN_CONFIG)
        code, _, err = run(capsys, ["surplus-path", "--config", cfg,
                                    "--surplus", "12", "--replicate",
                                    str(BLOCK_SIZE << 64)])
        assert code == 64
        assert "block index" in err

    def test_negative_replicate_rejected(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "ruin.json", DISCRETE_RUIN_CONFIG)
        assert run(capsys, ["surplus-path", "--config", cfg,
                            "--surplus", "12", "--replicate", "-1"])[0] == 64

    @pytest.mark.parametrize("field,value", [
        ("surplus", "lots"), ("surplus", [12]), ("replicate", 1.5),
        ("replicate", True), ("replicate", "one")])
    def test_bad_config_value_exits_64(self, tmp_path, capsys, field,
                                       value):
        cfg = write_json(tmp_path, "sp.json", dict(
            DISCRETE_RUIN_CONFIG, **{"surplus": 12.0, field: value}))
        for argv in (["surplus-path", "--config", cfg],
                     ["validate", "--config", cfg]):
            code, _, err = run(capsys, argv)
            assert code == 64, argv
            assert field in err and "unknown" not in err

    def test_missing_surplus_flag(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "ruin.json", DISCRETE_RUIN_CONFIG)
        code, _, err = run(capsys, ["surplus-path", "--config", cfg])
        assert code == 64
        assert "--surplus" in err

    def test_arrival_model_has_no_fixed_period_path(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "arr.json", {
            "risk": "arrival",
            "claim_size": {"family": "pareto", "alpha": 2.0, "scale": 1.0},
            "loading": 0.1, "intensity": 2.0, "horizon": 1.0})
        code, _, err = run(capsys, ["surplus-path", "--config", cfg,
                                    "--surplus", "12"])
        assert code == 64
        assert "discrete" in err
