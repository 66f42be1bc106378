"""Golden output bytes: every preset and every command is frozen by sha256.

Each preset runs through cli.main at a small budget (two blocks, so the
two-worker run really splits work) and a fixed seed. A refactor of the
engine or the experiments must keep every byte; only a documented change to
the draws may regenerate these hashes. The Monte Carlo hashes are those of
numpy's PCG64DXSM block streams, seeded SeedSequence(seed,
spawn_key=(block,)) (rng.block_stream); test_montecarlo.TestBlockStream pins
the first words of those streams. They were frozen with numpy 2.4 on x86-64
Linux; float formatting and libm are the platform-dependent parts.
"""

import hashlib
import json

import pytest

from heavytails import cli, risk
from heavytails.rng import BLOCK_SIZE

SAMPLES = 16_400
SEED = 5

# The Poisson-stopped presets moved on purpose, with no exit code: a Poisson
# length is now one uniform inverted through a cdf table, where numpy's
# sampler took a data-dependent number of words. Old -> new (first 12 hex
# digits), the same at one and two workers:
#   T4.3    0a3ba017b8f3 -> 350814668518
#   T4.4i   936e4dd2a88c -> b63474034443
#   T4.4ii  6b012334e066 -> 35b1aac8cb90
#   C5.2    82d7f86d6214 -> 56183b2262f8

# Every simulated preset moved on purpose when the block streams went from
# Philox to PCG64DXSM, with no exit code; T3.3 is a closed form and kept
# its bytes. Old -> new, the same at one and two workers:
#   C3.1    ec2e252cf244 -> b723b95fb4f0
#   C5.1    3fc6b4cc0700 -> 78f6cfcee8ea
#   C5.2    56183b2262f8 -> 298dd252a4cc
#   T3.1    c9cdae6b5015 -> f8158dbd9dbd
#   T3.2    5d6df27a4081 -> 51985c65da1a
#   T4.1    cbb1af950a7a -> 526f8aa9ebed
#   T4.2    71e6ad7c58a2 -> db095f05ea38
#   T4.3    350814668518 -> b1785de793da
#   T4.4i   b63474034443 -> cfffa1bbd607
#   T4.4ii  35b1aac8cb90 -> ef2451eae9e1
# The three-worker T4.2 run below moved with them:
# 9dd8851b91ea -> d7f762b83f76.

GOLDEN = {
    "T3.1": "f8158dbd9dbd5573108e4601898f031f554bc40c3012cd364bc7fb7638a20c8e",
    "T3.2": "51985c65da1a2cb433e7843cf2fc1dcb5313c6f691a3a0f77c568c7fb0208685",
    "T3.3": "976da7ddeddf90129dba22c2c14472768c73d0c7c65674a335f2cab06874c6b9",
    "C3.1": "b723b95fb4f0218df9c5bbb7e995e28d9527faa5067e7029af63a699afc0dd28",
    "T4.1": "526f8aa9ebed0ffbdf6f40d9d4a371384197136f6b6d5a7b09c592bd98ed7185",
    "T4.2": "db095f05ea38ec23ac3648726729ea8828443f67f2310ac3bd94f6874e51cb94",
    "T4.3": "b1785de793daa0639254a976f42e53a74ecab2688d5ae4a7aa843d4aba0ca384",
    "T4.4i": "cfffa1bbd6074e0aaf434bb29f31a4031d76f02f86bb1a6c6bb7bbc085a56396",
    "T4.4ii": "ef2451eae9e108372d9f204db4232c8f156d685394175bd4241103010390d17c",
    "C5.1": "78f6cfcee8eaad222759ce9eb6ef01c4053fb60e70947efe6e04cf4817a7bb2f",
    "C5.2": "298dd252a4cc351fa189bb6973a39cb10beca8684f2745399c43655caa639339",
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
        "d7f762b83f76dcb56da6e9aa5f142e34fa5e512461aec426b6cbcdbdbdae5d1a")


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
    "integrated-tail": {"dist": {"family": "integrated_tail",
                                 "base": {"family": "pareto", "alpha": 2.5}}},
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
    # IntegratedTail's own tail integrals under every check
    "class-integrated-tail": ["diagnose-class", "--config",
                              "{integrated-tail}", "--check", "all",
                              "--grid", "2:400:10"],
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
# Six more moved on purpose later, with no verdict or exit code. Sstar sums
# each quadrature piece along its own row, in one kink-cut helper shared
# with IntegratedTail, where it took a matrix-vector product whose rounding
# depended on the other grid points (class-lognormal: the Sstar end
# statistic). convolve forms the midpoint ratio as the mean of the two
# printed ratio columns, as subexponential and strong_subexponential do,
# where it divided the mean bracket by the tail; the running minimum moved
# in 5 of 16 rows of each. Old -> new, as above:
#   class-lognormal            csv      390f0f1bedd2 -> 12b8017a0833  1.70e-16
#   class-lognormal            records  ba162b2668dc -> 2233d99e4633  1.70e-16
#   convolve-bracket           csv      203b44fdf934 -> 113025846259  2.11e-16
#   convolve-bracket           records  46ad7957a722 -> 2c33d50aca92  2.11e-16
#   convolve-bracket-fourfold  csv      ade85c428574 -> eab916f0df47  2.18e-16
#   convolve-bracket-fourfold  records  3f955077915f -> c0ea7b82f7ad  2.18e-16
# class-integrated-tail was recorded before that helper existed and did not
# move: IntegratedTail kept every bit.
#
# Four more moved on purpose, with no exit code: the ruin runs stopped at a
# Poisson number of claims, whose lengths are now drawn by table inversion
# of one uniform each (the presets above moved for the same reason). Old ->
# new, as above, the same at one and two workers:
#   ruin-arrival               csv      439b98b362fe -> 4ed43288fd88
#   ruin-arrival               records  36ade651d4d6 -> 77b71ced3f52
#   ruin-preset-config         csv      dbf00016d1f3 -> e5e16ff58c07
#   ruin-preset-config         records  4f0ab2518625 -> dddf77c92cdc
#
# Every simulating command moved on purpose when the block streams went
# from Philox to PCG64DXSM; no oracle, diagnostic or listing moved. Old ->
# new, as above:
#   ratio-curve-deterministic  csv      62d9c87bf598 -> 805fa6099524
#   ratio-curve-deterministic  records  db4a01376ab0 -> 30277b37ed70
#   ratio-curve-divergence     csv      f1f93797052c -> 9dc45153a276
#   ratio-curve-divergence     records  a5aaf55f6301 -> 35f44b52292b
#   ratio-curve-weighted       csv      5d47e28429eb -> 695320e77808  exit 0 -> 2
#   ratio-curve-weighted       records  ef335fed6f51 -> 4c74daffd162  exit 0 -> 2
#   ratio-curve                csv      42be9312a028 -> c7f9266befa0
#   ratio-curve                records  1a78a1286e2f -> f3bf060a5b29
#   ruin-arrival               csv      4ed43288fd88 -> ef07a4de5c1e
#   ruin-arrival               records  77b71ced3f52 -> 769f2d2a2046
#   ruin-discrete              csv      b6529bedf37e -> 859bf654c261
#   ruin-discrete              records  58c536f5074d -> 1e5fec367154
#   ruin-preset-config         csv      e5e16ff58c07 -> 9189af488101
#   ruin-preset-config         records  dddf77c92cdc -> 89a956f3772c
#   ruin-preset                csv      09a0c3c5a0ad -> 16314b446868
#   ruin-preset                records  8238673bd9bc -> b27af51b44c5
#   surplus-path               csv      b12a7951fcea -> 4c3096a2fe81
#   surplus-path               records  a4c030a20dfa -> 097824f299dc
# ratio-curve-weighted now exits 2. Its sum_tails denominator sums the
# unweighted marginal tails, so for weights (1, 0.5) on Pareto(1) the
# ratio tends to 0.75, not the predicted 1. The end ratio reads 0.69 with
# an interval of [0.51, 0.87]; the old draws read 0.96, whose interval
# just reached down to 0.75.
#
# No hash moved when the Weibull tail integral at hi = inf took the upper
# incomplete gamma in place of 1 - gammainc: the golden commands reach it
# only at lo = 0 (the mean), where both forms give exactly 1.
#
# ratio-curve-weighted moved again, and exits 0 once more, when the
# sum_tails denominator of a weighted sum became the sum of the tails of
# the weighted terms, P(w_i X_i > x) = tail_i(x / w_i) over w_i > 0: for
# weights (1, 0.5) on Pareto(1) that is 1.5 / x, the limit of the
# numerator. The end ratio reads 0.92 with an interval of [0.67, 1.16], and
# the draws did not move. Old -> new, as above:
#   ratio-curve-weighted       csv      695320e77808 -> 6c8728bb7251  exit 2 -> 0
#   ratio-curve-weighted       records  4c74daffd162 -> df383a015009  exit 2 -> 0
#
# Three moved, with no exit code or hit count, when the discrete ruin model
# graded its running maximum against sum_tails over its discount weights in
# place of the discounted denominator: the records name it sum_tails, and at
# rate 0.02 the thresholds x / (1+r)^-k and x (1+r)^k round apart in the last
# bit (C5.1's rate 0.05 keeps every csv byte). Old -> new, as above:
#   ruin-discrete              csv      859bf654c261 -> 50f0c7550ec4  2.23e-16
#   ruin-discrete              records  1e5fec367154 -> ec65afaab681  2.23e-16
#   ruin-preset                records  b27af51b44c5 -> 11bbe6a6b0a9  name only
#
# Eight records hashes moved, with no csv byte, verdict or exit code, when
# each curve's record gained its `equivalent` field (true when every graded
# interval lies inside the band, null off a lim claim); parsed, each new
# document minus that field equals the old one. Old -> new, with its value:
#   ratio-curve                records  f3bf060a5b29 -> 0defe87fdb9e  false
#   ratio-curve-deterministic  records  30277b37ed70 -> 2b4cff0f97d4  false
#   ratio-curve-divergence     records  35f44b52292b -> 3889be82da0b  null
#   ratio-curve-weighted       records  df383a015009 -> 8157dc39e2c5  false
#   ruin-arrival               records  769f2d2a2046 -> fd5f81241d8e  false
#   ruin-discrete              records  ec65afaab681 -> cca47aafc8a2  false
#   ruin-preset                records  11bbe6a6b0a9 -> 69b7f113371b  false
#   ruin-preset-config         records  89a956f3772c -> 7ea1fd907216  false
COMMAND_GOLDEN = {
    ("ratio-curve", "csv"):
        (0, "c7f9266befa0ace6bdfc9cb7774ed897868aefc184dafcbf1cd902e16af2feea"),
    ("ratio-curve", "records"):
        (0, "0defe87fdb9ec1d66a90e99bf700b7a9b748ae0ae0f7882ddc02e8c1181ebc0e"),
    ("ratio-curve-weighted", "csv"):
        (0, "6c8728bb7251fccea52863b91ee1df87dcd0f62da5b42cd0bcdd725b90ba3f79"),
    ("ratio-curve-weighted", "records"):
        (0, "8157dc39e2c5c3d7508e9375c619df2b6f899ec800e007129ba7c40d8bae6992"),
    ("ratio-curve-divergence", "csv"):
        (2, "9dc45153a2765c50c5d0cac5e9ca9510db3706b49f28652244a198076a32101b"),
    ("ratio-curve-divergence", "records"):
        (2, "3889be82da0b1a21570e9381d60cade63712feae5f6f5f273189a5aa249f349b"),
    ("ratio-curve-deterministic", "csv"):
        (0, "805fa6099524f4aad18b041ae1255a115d00bf6d4bb7f5f4ce59b0214b0b1d05"),
    ("ratio-curve-deterministic", "records"):
        (0, "2b4cff0f97d4919c08b7e5796fdda3a0142a127fa1b77a24550c33247dacda1e"),
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
        (2, "12b8017a08337fb4646477013f25f3c85e2d195e624ab40f578a85a123e79d75"),
    ("class-lognormal", "records"):
        (2, "2233d99e46332d8c776fcb59a55de1e4536cdee8625891f7051d5d1edbf4d7b5"),
    ("class-dense-atoms", "csv"):
        (2, "63977ec3659325d22558f7c7bb40c740e0fb469c8acc9fb33100b8a63715720d"),
    ("class-dense-atoms", "records"):
        (2, "f0a079fe099f4d5307ff2377e2906f832af6cd63811fe8b7ec05ecfe567ad7cc"),
    ("class-integrated-tail", "csv"):
        (0, "cf79e4ee61a9ec72c729c3d8cacdeaea995dc4da58381ebafba0e60f98689aee"),
    ("class-integrated-tail", "records"):
        (0, "088944819089d49f884dfbac34fb5db4a864d758da8c7be9594a86a64ea238e6"),
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
        (0, "113025846259cbf0c43f7d4a0310b3709bc82a8b4f85fb9ca830d00d615080a8"),
    ("convolve-bracket", "records"):
        (0, "2c33d50aca924dbd900f208ba4847599a9b2bdbd0e53f5e081e4c278b1b282af"),
    ("convolve-exact-points", "csv"):
        (0, "04efb1abc5e29b9d88604582affb9418fb07be047a5303497f9ab0111989ca56"),
    ("convolve-exact-points", "records"):
        (0, "a61fad0f3286ad20a50f0ae2803d76ca4f5f01554519d9f2cfb9b1a403dd59fb"),
    ("convolve-exact-range", "csv"):
        (0, "d6052fba36c2fc5cf778e1ebea512be2ffc50d58eee223756b1b64912afd600c"),
    ("convolve-exact-range", "records"):
        (0, "9aec99364017e9dce2310972933ed5445de2d24f77868c0b46c04db1dfc4f70f"),
    ("convolve-bracket-fourfold", "csv"):
        (0, "eab916f0df4750cfa551f1655fa539a560288e3a2fcf73791c863683f93daef3"),
    ("convolve-bracket-fourfold", "records"):
        (0, "c0ea7b82f7ad62072a5e3c08814c0337f1960ef5a0e5d128edd9cc6fd2153b52"),
    ("ruin-discrete", "csv"):
        (0, "50f0c7550ec4b3ee7b127d04de2983c59328c8538e887d78ce0a6dde1d3a93d9"),
    ("ruin-discrete", "records"):
        (0, "cca47aafc8a2871504e1dbbcb394bd02c2b3dc51653288ef8fc277378b98d6b1"),
    ("ruin-arrival", "csv"):
        (0, "ef07a4de5c1e0c890737b3604d69944f5c5d35c74a7a94a21acc287f081a572e"),
    ("ruin-arrival", "records"):
        (0, "fd5f81241d8ec4dad44a65e39a2c691deb57a63222e98c207594869e0aaaf2de"),
    ("ruin-preset", "csv"):
        (0, "16314b4468685b1fac91b7810dd31b43265e8216a091cc3f6bddf6f873804fc9"),
    ("ruin-preset", "records"):
        (0, "69b7f113371b854d1a2862eda12bf874b9f8dc4ef5c7ad71e048fb1643439684"),
    ("ruin-preset-config", "csv"):
        (0, "9189af4881014613fa812d6bd1bbd6fa3fdd2d206744ef03930bc7c31cbc60f9"),
    ("ruin-preset-config", "records"):
        (0, "7ea1fd9072163bc89c8c56fe060953a24e68b02f57a324f059973a9d45cd21fd"),
    ("surplus-path", "csv"):
        (0, "4c3096a2fe8174ab81811bf437f5facbc14f91d775cdcb42138b70550a6ac920"),
    ("surplus-path", "records"):
        (0, "097824f299dc894c81989ede026bae00193e20d0bd92a7d3b9c8d5583a49722c"),
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
