"""Golden CSV bytes: every preset's output is frozen by its sha256.

Each preset runs through cli.main at a small budget (two blocks, so the
two-worker run really splits work) and a fixed seed. A refactor of the
engine or the experiments must keep every byte; only a documented change to
the draws may regenerate these hashes. They were frozen with numpy 2.4 on
x86-64 Linux; float formatting and libm are the platform-dependent parts.
"""

import hashlib

import pytest

from heavytails import cli

SAMPLES = 16_400
SEED = 5

GOLDEN = {
    "T3.1": "8a9d65694bb87fd5f453db81df517a8fa72ff10b8d5d8de1754e5bdad7b18090",
    "T3.2": "76b9ab4e89e159b6777b985e58283b023d6759570a2a98ffa02a275c84b0e04c",
    "T3.3": "976da7ddeddf90129dba22c2c14472768c73d0c7c65674a335f2cab06874c6b9",
    "C3.1": "38d1b5ba06df6ec34e881b00c6d607b4ca6cf0a76d84dc92e73c04b7bc768ebf",
    "T4.1": "cbb1af950a7ac28eeb849249510a8483a8eb889fa4bb0777f376eb492b8cc46d",
    "T4.2": "71e6ad7c58a25090334bffa9276fb9e7f9340fcd4e48e2d42903ba5c48696bef",
    "T4.3": "8e1a5f1284d20e870665d114b144d68f170b7b37eaa5e8c6f464606b742e8ecc",
    "T4.4i": "936e4dd2a88cdf5f67b0ecdf6863683463c0a0fcb1ee54bc5df4bc63f65ee71e",
    "T4.4ii": "6b012334e06654b1e288a35c8216063df1107230170d58b28b5460cfa8f84c21",
    "C5.1": "a64f5dd206173c165e9024082fc1321a3f1e9e0e17d8ca434ca8e6bdac3b85eb",
    "C5.2": "82d7f86d6214cef23ca2683a569d0076f50a10d05da95b2f15b8348ff69d6445",
}


def test_golden_covers_every_preset():
    assert sorted(GOLDEN) == sorted(cli._all_preset_ids())


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("preset_id", sorted(GOLDEN))
def test_preset_csv_bytes_are_frozen(capsys, preset_id, workers):
    code = cli.main(["theorem", "--id", preset_id, "--samples", str(SAMPLES),
                     "--seed", str(SEED), "--workers", str(workers)])
    out = capsys.readouterr().out
    assert code in (cli.EXIT_OK, cli.EXIT_INCONSISTENT), code
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[preset_id]
