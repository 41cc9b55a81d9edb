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
         "9c96dcc5cef04ed8ffbdea01cffcaafd56f5135debd173bf852947908e612180"),
        ("compare", COMPARE, ["--trials", "300", "--seed", "2", "--jobs", "1"],
         "4f4c08d0e8fac037ba37ddd162b125a368884e6f56dac135443b6a24b12b09a8"),
    ],
)
def test_csv_digest(tmp_path, capsys, command, text, flags, digest):
    out = tmp_path / "out.csv"
    assert main([command, "--config", write_cfg(tmp_path, text), "--out", str(out), *flags]) == 0
    assert sha256(without_wall_time(out)) == digest


def test_gen_container_digest(tmp_path, capsys):
    out = tmp_path / "inst.txt"
    assert main(["gen", "--config", write_cfg(tmp_path, README_GEN), "--out", str(out)]) == 0
    assert sha256(out.read_text()) == "e512824a6ff69efc1863175960d5b01679fe14821d8a8fd783a0ccacfbc7f0f8"


@pytest.mark.parametrize(
    "text, digest",
    [
        (CONC_GEN + "check = tail\nepsilon = 0.5\nepsilon = 1\n",
         "afaee9f0d18ee439945e079d152d44e6146dc21a0b7ac3a3f3fb77e2058ac927"),
        (CONC_GEN + "check = window\ndelta = 0.3\ndelta = 0.5\n",
         "f5a9af9e2fa7aefc5805ec94c92ec1122ffd658d0dddd7193b369504304e74a6"),
        (CONC_GEN + "check = mean\n",
         "3a20d167e08b7a575c558047b6df5b255d243b9e53df219242d9e48ef598130e"),
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
    assert h.hexdigest() == "ab424a611bdd86b5418f1a2d9d90464b934deceadb308da7168a39c698343636"
