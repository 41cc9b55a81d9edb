"""Byte-level golden outputs of the CLI for valid configs.

The sha256 digests pin what the CLI writes for the README and acceptance
configs; any change to how a valid config becomes cells, seeds or instances
changes them.  CSVs are compared without their wall_time column, and the
concentration outputs without their schema line.
"""

import hashlib

import pytest

from blockrelax.cli import main
from blockrelax.concentration import ConcentrationStudy
from blockrelax.generate import SCHEMA_COMMENT, GenConfig

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
         "e53db87b87f8a58967edcc01b409e7f37867778b39c5356c7239668833f4b0c0"),
        ("compare", COMPARE, ["--trials", "300", "--seed", "2", "--jobs", "1"],
         "fb80f809d4453f941a9fe68408689d5369e335676789d0a8ae26478b8202b69b"),
    ],
)
def test_csv_digest(tmp_path, capsys, command, text, flags, digest):
    out = tmp_path / "out.csv"
    assert main([command, "--config", write_cfg(tmp_path, text), "--out", str(out), *flags]) == 0
    assert sha256(without_wall_time(out)) == digest


def test_gen_container_digest(tmp_path, capsys):
    out = tmp_path / "inst.txt"
    assert main(["gen", "--config", write_cfg(tmp_path, README_GEN), "--out", str(out)]) == 0
    assert sha256(out.read_text()) == "a0180d2cf2a7931d2bdc0556fc46aee249d937fffac35716aad08e576867c230"


@pytest.mark.parametrize(
    "text, digest",
    [
        (CONC_GEN + "check = tail\nepsilon = 0.5\nepsilon = 1\n",
         "7ade406ef2fc806228ca400647632e58c616447a69e93d09a56364fde9c7f56d"),
        (CONC_GEN + "check = window\ndelta = 0.3\ndelta = 0.5\n",
         "f4fc42ee91f246332cf5fa1b219c0a5efae52f20f61d6740f989c455fe3e953f"),
        (CONC_GEN + "check = mean\n",
         "21538e44d3f5aef122953463d8fe1289b6c0bb8fdc21995e9de9a62d0e9018c3"),
    ],
)
def test_concentration_stdout_digest(tmp_path, capsys, text, digest):
    # the rows read only the redrawn x, so the digest leaves out the schema
    # line: a schema bump that does not move them keeps it
    capsys.readouterr()
    cfg = write_cfg(tmp_path, text)
    assert main(["concentration", "--config", cfg, "--trials", "300", "--seed", "3"]) == 0
    head, body = capsys.readouterr().out.split("\n", 1)
    assert head == SCHEMA_COMMENT
    assert sha256(body) == digest


def test_concentration_redraw_digest():
    # The CLI checks select the planted columns, so their output reads only the
    # redrawn x; this pins the whole redrawn ensemble as well.
    study = ConcentrationStudy.from_config(GenConfig(m=12, n=12, theta=2, r=4, s=3, master_seed=3))
    h = hashlib.sha256()
    for t in range(20):
        x, X = study.redraw(3, t)
        for a in (x, *X.blocks):
            h.update(a.tobytes())
    assert h.hexdigest() == "e6329bdb27784ae39291c2a536fd3349138b33f0dfb1ae47f8ed664f5e966a9a"
