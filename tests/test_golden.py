"""Byte-level golden outputs of the CLI for valid configs.

The sha256 digests pin what the CLI writes for the README and acceptance
configs; any change to how a valid config becomes cells, seeds or instances
changes them.  CSVs are compared without their wall_time column.
"""

import hashlib

import pytest

from blockrelax.cli import main
from blockrelax.concentration import ConcentrationStudy
from blockrelax.generate import GenConfig

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
         "78785d05d29e4114378ed483a1d0309c17b4555e1f6660e0847c6a2bdb347807"),
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
         "609ffadcc3ce3e16d5dff1b58b22b2442f95d54bc03aa85f2352961bc5a62b47"),
        (CONC_GEN + "check = window\ndelta = 0.3\ndelta = 0.5\n",
         "f82deb9fc5dfa48dd5366214b3d928cd3e136c285cd3972c55b1333c05adaf61"),
        (CONC_GEN + "check = mean\n",
         "aca15d398fb484c5d73430bf05dd8f512f788d6e435ff672d84eaadd2c94c35d"),
    ],
)
def test_concentration_stdout_digest(tmp_path, capsys, text, digest):
    capsys.readouterr()
    cfg = write_cfg(tmp_path, text)
    assert main(["concentration", "--config", cfg, "--trials", "300", "--seed", "3"]) == 0
    assert sha256(capsys.readouterr().out) == digest


def test_concentration_redraw_digest():
    # The CLI checks select the planted columns, so their output reads only the
    # redrawn x; this pins the whole redrawn ensemble of stream 2 as well.
    study = ConcentrationStudy.from_config(GenConfig(m=12, n=12, theta=2, r=4, s=3, master_seed=3))
    h = hashlib.sha256()
    for t in range(20):
        x, X = study.redraw(3, t)
        for a in (x, *X.blocks):
            h.update(a.tobytes())
    assert h.hexdigest() == "e6329bdb27784ae39291c2a536fd3349138b33f0dfb1ae47f8ed664f5e966a9a"
