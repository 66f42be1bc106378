"""Golden output bytes: every preset and every command is frozen by sha256.

Each preset runs through cli.main at a small budget (two blocks, so the
two-worker run really splits work) and a fixed seed. A refactor of the
engine or the experiments must keep every byte; only a documented change to
the draws may regenerate these hashes. They were frozen with numpy 2.4 on
x86-64 Linux; float formatting and libm are the platform-dependent parts.
"""

import hashlib
import json

import pytest

from heavytails import cli, risk
from heavytails.rng import BLOCK_SIZE

SAMPLES = 16_400
SEED = 5

GOLDEN = {
    "T3.1": "c9cdae6b50156ddda2cd6a0c01152dd33501bc542db9962048194f0707541587",
    "T3.2": "5d6df27a4081e3fb96710eb61c1560cca838e661e7dd9df75fbcf631d914c455",
    "T3.3": "976da7ddeddf90129dba22c2c14472768c73d0c7c65674a335f2cab06874c6b9",
    "C3.1": "ec2e252cf24474e703869fc68adab8ee73e48b212b1ba64aa271096280fdeed5",
    "T4.1": "cbb1af950a7ac28eeb849249510a8483a8eb889fa4bb0777f376eb492b8cc46d",
    "T4.2": "71e6ad7c58a25090334bffa9276fb9e7f9340fcd4e48e2d42903ba5c48696bef",
    "T4.3": "0a3ba017b8f3093e47d558b3ad15defd82c9b996bad958b670ef66684c0c6699",
    "T4.4i": "936e4dd2a88cdf5f67b0ecdf6863683463c0a0fcb1ee54bc5df4bc63f65ee71e",
    "T4.4ii": "6b012334e06654b1e288a35c8216063df1107230170d58b28b5460cfa8f84c21",
    "C5.1": "3fc6b4cc0700fa14d3a48303ff2ac4a5764ebb7f3f7fe28a113e3f3d9328d15a",
    "C5.2": "82d7f86d6214cef23ca2683a569d0076f50a10d05da95b2f15b8348ff69d6445",
}


def test_golden_covers_every_preset():
    assert sorted(GOLDEN) == sorted(risk.presets())


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("preset_id", sorted(GOLDEN))
def test_preset_csv_bytes_are_frozen(capsys, preset_id, workers):
    code = cli.main(["theorem", "--id", preset_id, "--samples", str(SAMPLES),
                     "--seed", str(SEED), "--workers", str(workers)])
    out = capsys.readouterr().out
    assert code in (cli.EXIT_OK, cli.EXIT_INCONSISTENT), code
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[preset_id]


def test_three_worker_stopped_bytes_are_frozen(capsys):
    # three blocks at three workers: the caller runs block 0 and two forked
    # workers run blocks 1 and 2; the bytes are the one-worker bytes
    argv = ["theorem", "--id", "T4.2", "--samples", str(2 * BLOCK_SIZE + 16),
            "--seed", str(SEED)]
    outs = []
    for workers in ("1", "3"):
        assert cli.main(argv + ["--workers", workers]) == cli.EXIT_OK
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert hashlib.sha256(outs[1].encode()).hexdigest() == (
        "9dd8851b91eaa5ffd751a16da08fa36d8a956435d4923c9d45850acbc290a909")


# Every other command, in both output formats, at budgets small enough that
# the whole table runs in well under a second.

PARETO11 = {"family": "pareto", "alpha": 1.0, "scale": 1.0}

CONFIGS = {
    "rc": {"model": {"copula": {"family": "fgm", "coeffs": [1.0]},
                     "marginals": [PARETO11, PARETO11]},
           "quantity": "SumN", "denominator": {"kind": "n_tail", "n": 2},
           "grid": {"lo": 5.0, "hi": 500.0, "points": 8},
           "samples": 20_000, "seed": 13, "numerator": "mc"},
    # weights leave no closed form, so auto simulates
    "rc-weighted": {"model": {"copula": {"family": "fgm", "coeffs": [1.0]},
                              "marginals": [PARETO11, PARETO11]},
                    "quantity": "SumN", "denominator": {"kind": "sum_tails"},
                    "weights": [1.0, 0.5],
                    "grid": {"lo": 5.0, "hi": 500.0, "points": 8},
                    "samples": 20_000, "seed": 13},
    # the bound sits above the grid-end ratio: at the default bound of 10
    # the verdict would read consistent, so the exit code shows which ran
    "rc-divergence": {"model": {"copula": {"family": "independence"},
                                "marginals": [PARETO11, PARETO11],
                                "tau": {"family": "zeta", "s": 1.5}},
                      "quantity": "SumTau",
                      "denominator": {"kind": "n_tail", "n": 1},
                      "semantics": "divergence", "divergence_bound": 60.0,
                      "grid": {"lo": 5.0, "hi": 500.0, "points": 6},
                      "samples": 20_000, "seed": 7},
    # equal lengths in every block: each stopped sum reduces as a ragged
    # block's does, and the hits are the fixed-n ones
    "rc-deterministic": {"model": {"copula": {"family": "independence",
                                              "dim": 3},
                                   "marginals": [PARETO11] * 3,
                                   "tau": {"family": "deterministic",
                                           "n": 3}},
                         "quantity": "SumTau",
                         "denominator": {"kind": "n_tail", "n": 3},
                         "grid": {"lo": 5.0, "hi": 500.0, "points": 8},
                         "samples": 20_000, "seed": 13},
    "class": {"dist": {"family": "weibull", "shape": 0.5},
              "checks": "L,D,S",
              "grid": {"lo": 2.0, "hi": 400.0, "points": 10}},
    "dependence": {"model": {"copula": {"family": "fgm", "dim": 3,
                                        "coeffs": [0.5, 0.5, 0.5]},
                             "marginals": [PARETO11, PARETO11,
                                           {"family": "pareto",
                                            "alpha": 1.5}]},
                   "checks": ["H1", "H2"], "pair": [0, 2]},
    "discrete": {"risk": "discrete",
                 "claims": {"copula": {"family": "independence", "dim": 2},
                            "marginals": [PARETO11, PARETO11]},
                 "rate": 0.02, "grid": {"lo": 5.0, "hi": 50.0, "points": 4},
                 "samples": 20_000, "seed": 2},
    "arrival": {"risk": "arrival",
                "claim_size": {"family": "pareto", "alpha": 2.0},
                "loading": 0.1, "intensity": 2.0, "horizon": 1.0,
                "samples": 20_000, "seed": 4},
    "ruin-preset": {"preset": "C5.2", "samples": 20_000, "seed": 1},
    "class-atoms": {"dist": {"family": "atoms",
                             "atoms": [[0.5, 0.4], [2.0, 0.3], [7.0, 0.2],
                                       [40.0, 0.1]]},
                    "grid": {"lo": 1.0, "hi": 30.0, "points": 8}},
    # 200 atoms 0.1 apart: the window laws of SstarStrong integrate over up
    # to 200 steps, past numpy's 8-term unrolled and 128-term pairwise sums
    "dense-atoms": {"dist": {"family": "atoms",
                             "atoms": [[k / 10, 0.005] for k in range(1, 201)]},
                    "grid": {"lo": 1.0, "hi": 15.0, "points": 8}},
}

COMMANDS = {
    "ratio-curve": ["ratio-curve", "--config", "{rc}"],
    "ratio-curve-weighted": ["ratio-curve", "--config", "{rc-weighted}"],
    "ratio-curve-divergence": ["ratio-curve", "--config",
                               "{rc-divergence}"],
    "ratio-curve-deterministic": ["ratio-curve", "--config",
                                  "{rc-deterministic}"],
    "class-token": ["diagnose-class", "--dist", "pareto(1.5,1)",
                    "--check", "all"],
    "class-config": ["diagnose-class", "--config", "{class}"],
    "class-atom-mixture": ["diagnose-class", "--dist", "example11",
                           "--check", "all"],
    "class-atoms-config": ["diagnose-class", "--config", "{class-atoms}"],
    "class-weibull": ["diagnose-class", "--dist", "weibull(0.5,1)",
                      "--check", "all"],
    "class-lognormal": ["diagnose-class", "--dist", "lognormal(0,1)",
                        "--check", "all"],
    "class-dense-atoms": ["diagnose-class", "--config", "{dense-atoms}",
                          "--check", "SstarStrong"],
    "dependence-token": ["diagnose-dependence", "--model", "fgm-pareto",
                         "--check", "both"],
    "dependence-config": ["diagnose-dependence", "--config", "{dependence}"],
    "convolve-exact": ["convolve", "--dist", "example11", "--nfold", "2"],
    "convolve-bracket": ["convolve", "--dist", "pareto(1.5,1)",
                         "--nfold", "3"],
    "convolve-exact-points": ["convolve", "--dist", "example11",
                              "--points", "1,7,63,500"],
    "convolve-exact-range": ["convolve", "--dist", "example11",
                             "--points", "1:2047:8"],
    "convolve-bracket-fourfold": ["convolve", "--dist", "pareto(1,1)",
                                  "--nfold", "4"],
    "ruin-discrete": ["ruin", "--config", "{discrete}"],
    "ruin-arrival": ["ruin", "--config", "{arrival}"],
    "ruin-preset": ["ruin", "--preset", "C5.1", "--samples", "20000",
                    "--seed", "3"],
    "ruin-preset-config": ["ruin", "--config", "{ruin-preset}"],
    "surplus-path": ["surplus-path", "--config", "{discrete}",
                     "--surplus", "12", "--replicate", "1"],
    "list-presets": ["list-presets"],
}

# (command, format) -> (exit code, sha256 of stdout)
#
# Thirteen hashes moved on purpose, with no verdict or exit code: the n-fold
# lattice brackets read their last product at the probes instead of forming
# it, so that product is summed in another order, and the finite windows of
# the Pareto, Exponential and Weibull tail integrals keep full precision
# (class-token and class-weibull). Old -> new (first 12 hex digits), with the
# largest relative change of any printed field:
#   class-token                csv      93df7fa1100e -> 1943bff6fbbf  6.18e-16
#   class-token                records  7aaf35100dc2 -> f552a980f443  6.18e-16
#   class-config               records  f9006701949e -> 47738c67f7d9  2.26e-16
#   class-weibull              csv      9cfedd5bb6b6 -> 6f2240a5ad7c  8.47e-14
#   class-weibull              records  e7e2c227cd0f -> 0e41bb1d789b  8.47e-14
#   class-lognormal            csv      fd0b35478d4f -> 390f0f1bedd2  1.83e-16
#   class-lognormal            records  b273a5376aea -> ba162b2668dc  1.83e-16
#   class-dense-atoms          csv      136adae47d26 -> 63977ec36593  1.33e-15
#   class-dense-atoms          records  0bad05516a6a -> f0a079fe099f  1.33e-15
#   convolve-bracket           csv      ec3b111e9b1e -> 203b44fdf934  2.68e-15
#   convolve-bracket           records  187a2193643a -> 46ad7957a722  2.68e-15
#   convolve-bracket-fourfold  csv      7c046156ce6a -> ade85c428574  3.11e-15
#   convolve-bracket-fourfold  records  f5867170e592 -> 3f955077915f  3.11e-15
# The class-config csv hash did not move: its printed fields kept every digit.
#
# No hash moved when the Weibull tail integral at hi = inf took the upper
# incomplete gamma in place of 1 - gammainc: the golden commands reach it
# only at lo = 0 (the mean), where both forms give exactly 1.
COMMAND_GOLDEN = {
    ("ratio-curve", "csv"):
        (0, "42be9312a028ff5a6541adf1d39b23857a7248ff5c0ccace01e276b8caeb8bd0"),
    ("ratio-curve", "records"):
        (0, "1a78a1286e2f3710c53582498bf0b1c90bf3a48b182481d99855dee4b3fb2a4c"),
    ("ratio-curve-weighted", "csv"):
        (0, "5d47e28429eb038b607a89d116d44d19cebc7152d414eec1626696b8f7de5930"),
    ("ratio-curve-weighted", "records"):
        (0, "ef335fed6f51785ee86fc03559c5510e602730c0b6279a3a1a8f8b50dba661a3"),
    ("ratio-curve-divergence", "csv"):
        (2, "f1f93797052c1dc7f67cbf74ef894f1e86e27c8836b953c3978f6ad25072ae72"),
    ("ratio-curve-divergence", "records"):
        (2, "a5aaf55f6301414418e6cb1b409130c11d0aec3e1fba6fadaadcd300f5657d3b"),
    ("ratio-curve-deterministic", "csv"):
        (0, "62d9c87bf5988bf00f82d0ad0925fe3a491c4220deb21db734a74095c16a2792"),
    ("ratio-curve-deterministic", "records"):
        (0, "db4a01376ab03b3aeab35279a5d1fdc85f95beb7bf94b7a2a94e40ace6fc81c3"),
    ("class-token", "csv"):
        (0, "1943bff6fbbf17fe40fe5ad4b6b5a645c47d0099b61198a8bd842a783f6fae65"),
    ("class-token", "records"):
        (0, "f552a980f4438a22d82479bcf2e4fa58801337901b3a87429236052f45eb6313"),
    ("class-config", "csv"):
        (2, "9a9d94fd747f82a014ac3cf0f0c9625ae4207d75ec9e544b06357ba9a997c070"),
    ("class-config", "records"):
        (2, "47738c67f7d95c183a275bb9a5f865b930b292316295133e17537e3a5d7186c8"),
    ("class-atom-mixture", "csv"):
        (2, "d9965ad163072f8a163a9a5da5b3cf3101fc2e3b2f446b9b9b3b95de492b5bc1"),
    ("class-atom-mixture", "records"):
        (2, "498f86033b76567efaf88441d878f7b1681759d2a068bb9c8051ecb7ece3458f"),
    ("class-atoms-config", "csv"):
        (2, "31ef1db54c4eb7d467372e64192e19041eee45227b9cc11b79e6fe4c1f8c6839"),
    ("class-atoms-config", "records"):
        (2, "2d343acefe8ed0407cc31e88f5b4127d3e79eaad2d662a013f88ca76e490b447"),
    ("class-weibull", "csv"):
        (2, "6f2240a5ad7cb11935bf3022e5f68ca78860ca7167e6c6461ab2f82f21830c5a"),
    ("class-weibull", "records"):
        (2, "0e41bb1d789bb90bd39a4cbfa995fad435ee12d35cd5bb9158d81bc8da23a7ee"),
    ("class-lognormal", "csv"):
        (2, "390f0f1bedd2117f2f414d9bc4fe56c17e5286075f1594ba4ee900eb80aea6c1"),
    ("class-lognormal", "records"):
        (2, "ba162b2668dc0cde9df495c88f3a5a57c8fd813c8ed63b8093e1a84d714bfdff"),
    ("class-dense-atoms", "csv"):
        (2, "63977ec3659325d22558f7c7bb40c740e0fb469c8acc9fb33100b8a63715720d"),
    ("class-dense-atoms", "records"):
        (2, "f0a079fe099f4d5307ff2377e2906f832af6cd63811fe8b7ec05ecfe567ad7cc"),
    ("dependence-token", "csv"):
        (0, "f1e768025ac2951780e1c3da05f77983ce1bc66c07887f163bfb670903ee5991"),
    ("dependence-token", "records"):
        (0, "4aebb7bbdaed54abe5843b7812eb4528608d5e9051e1fd79544b8375f7278d04"),
    ("dependence-config", "csv"):
        (0, "06fb15bde2b8a4d994f4f71c56faa49bb258697dad608f5adfe99a2027f6d70c"),
    ("dependence-config", "records"):
        (0, "29464adc29ef0a2697b1f1b0f31c62f55fc2b96dd143710b4e309b3047888f7d"),
    ("convolve-exact", "csv"):
        (0, "d12ac6a1ac006b0e603d44ffe1ee840e5f42b1099e198928954f5bada1c0dc8d"),
    ("convolve-exact", "records"):
        (0, "343c0f95a9b9d566161487997ac25640cb6c30a3ac06652e3808b58dda87fb8a"),
    ("convolve-bracket", "csv"):
        (0, "203b44fdf934d5c812214087452f48e5a192fd16b6c3d9a2339439c2e058f18b"),
    ("convolve-bracket", "records"):
        (0, "46ad7957a722d8bdc4bdecee2b8b58e78c63168509e6e13dfef6e6370c4cbb2b"),
    ("convolve-exact-points", "csv"):
        (0, "04efb1abc5e29b9d88604582affb9418fb07be047a5303497f9ab0111989ca56"),
    ("convolve-exact-points", "records"):
        (0, "a61fad0f3286ad20a50f0ae2803d76ca4f5f01554519d9f2cfb9b1a403dd59fb"),
    ("convolve-exact-range", "csv"):
        (0, "d6052fba36c2fc5cf778e1ebea512be2ffc50d58eee223756b1b64912afd600c"),
    ("convolve-exact-range", "records"):
        (0, "9aec99364017e9dce2310972933ed5445de2d24f77868c0b46c04db1dfc4f70f"),
    ("convolve-bracket-fourfold", "csv"):
        (0, "ade85c428574603fe501fc27873c4691534026d7800c80c1bad71667fb84571c"),
    ("convolve-bracket-fourfold", "records"):
        (0, "3f955077915fb21834b0c96509487ac6fa1f26d7b8acba94d68b5c3376411ec2"),
    ("ruin-discrete", "csv"):
        (0, "b6529bedf37ede65dc92ff31eab5c197166bec8c845509f69878b5baf60518e2"),
    ("ruin-discrete", "records"):
        (0, "58c536f5074db40d94da7e75a1cda747e7374fe65d9adbd4d27505c3f46fc72a"),
    ("ruin-arrival", "csv"):
        (0, "439b98b362fef514749aa101bf046c5d1419c27c02b838e694f5c99b1a0b5a40"),
    ("ruin-arrival", "records"):
        (0, "36ade651d4d6fea1cd8cf22d0ef0d74096a325320dc754003fabc7289b34f017"),
    ("ruin-preset", "csv"):
        (0, "09a0c3c5a0ad71cccb597ad37c73ec70ea0d3cceff5ad9674fd2fe5542a945d2"),
    ("ruin-preset", "records"):
        (0, "8238673bd9bc2f355eaf4a5080a8276af3cde2b992106ed4b14aa837e41754a5"),
    ("ruin-preset-config", "csv"):
        (0, "dbf00016d1f3a9d8898a93b8b419095177072f923f994de793909d37c4ba40e7"),
    ("ruin-preset-config", "records"):
        (0, "4f0ab25186259012e7239ff9bed6e2c5a7f40a873615e728b1f6b747e77314fc"),
    ("surplus-path", "csv"):
        (0, "b12a7951fcea162c2c448ffd38ee1cf53cf2552b352b1fdedca8125913545cf2"),
    ("surplus-path", "records"):
        (0, "a4c030a20dfad2c6a2b84d004125e3f57cccfb2ce056538c145d1a37d63f41a3"),
    ("list-presets", "csv"):
        (0, "4044ac2c5334a71470b1b0280a303d969ba4480fad0413f7f41491f53eebe11d"),
    ("list-presets", "records"):
        (0, "3270dc678064bc625d72121d8eaeca16f2d2db9a8ed9680dd1ef5ee08a586348"),
}


@pytest.fixture(scope="module")
def config_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden-configs")
    paths = {}
    for name, cfg in CONFIGS.items():
        paths[name] = root / f"{name}.json"
        paths[name].write_text(json.dumps(cfg))
    return {name: str(path) for name, path in paths.items()}


def test_command_golden_covers_every_command():
    assert sorted(COMMAND_GOLDEN) == sorted(
        (name, fmt) for name in COMMANDS for fmt in ("csv", "records"))


@pytest.mark.parametrize("fmt", ["csv", "records"])
@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_command_output_bytes_are_frozen(capsys, config_paths, name, fmt):
    argv = [a.format(**config_paths) if a.startswith("{") else a
            for a in COMMANDS[name]]
    code = cli.main(argv + ["--format", fmt])
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == \
        COMMAND_GOLDEN[(name, fmt)]
