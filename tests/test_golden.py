"""Byte-level golden outputs of the CLI for valid configs.

The sha256 digests pin what the CLI writes for the README and acceptance
configs; any change to how a valid config becomes cells, seeds or instances
changes them.  CSVs are compared without their wall_time column.
"""

import hashlib

import pytest

from blockrelax.cli import main

README_SWEEP = """m = 16
m = 32
theta = 2
theta = 4
s = 4
s = 8
r = 2
r = 4
r = 8
guess_density = s/n
"""
README_GEN = "m = 16\ntheta = 2\nr = 4\ns = 4\nseed = 7\n"
COMPARE = "m = 4\ns = 2\ntheta = 1\nr = 2\nr = 4\nguess_density = 0.5\n"  # acceptance test_09
CONC_GEN = "m = 12\ntheta = 2\nr = 4\ns = 3\n"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def without_wall_time(path) -> str:
    return "".join(line.rsplit(",", 1)[0] + "\n" for line in path.read_text().splitlines())


def write_cfg(tmp_path, text):
    path = tmp_path / "cfg.txt"
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize(
    "command, text, flags, digest",
    [
        ("sweep", README_SWEEP, ["--trials", "21", "--seed", "1", "--jobs", "1"],
         "7f886b755996524c0a81ef68b1875629b412a4f372c5e46f5526ff1c8bc110ae"),
        ("compare", COMPARE, ["--trials", "300", "--seed", "2", "--jobs", "1"],
         "80816b6f8f933b51de10735bcda99bebe4b0e7e795f77dd9d4c0dad3d000f43c"),
    ],
)
def test_csv_digest(tmp_path, capsys, command, text, flags, digest):
    out = tmp_path / "out.csv"
    assert main([command, "--config", write_cfg(tmp_path, text), "--out", str(out), *flags]) == 0
    assert sha256(without_wall_time(out)) == digest


def test_gen_container_digest(tmp_path, capsys):
    out = tmp_path / "inst.txt"
    assert main(["gen", "--config", write_cfg(tmp_path, README_GEN), "--out", str(out)]) == 0
    assert sha256(out.read_text()) == "39634e2300f4dd0d1a19d70d5934462c6bbd20e8c79064c8bbef56bc6014bd4d"


@pytest.mark.parametrize(
    "text, digest",
    [
        (CONC_GEN + "check = tail\nepsilon = 0.5\nepsilon = 1\n",
         "b74531336a19ba834609046ef51923309b20dc07a5fb52b39bfeae81da3d3983"),
        (CONC_GEN + "check = window\ndelta = 0.3\ndelta = 0.5\n",
         "b57d00172e3e915526196cb357fcd6a5fa7e78460778ef28e18ca80dd225ac33"),
    ],
)
def test_concentration_stdout_digest(tmp_path, capsys, text, digest):
    capsys.readouterr()
    cfg = write_cfg(tmp_path, text)
    assert main(["concentration", "--config", cfg, "--trials", "300", "--seed", "3"]) == 0
    assert sha256(capsys.readouterr().out) == digest
