"""Byte-level golden outputs of the CLI for valid configs.

The sha256 digests pin what the CLI writes for the README and acceptance
configs; any change to how a valid config becomes cells, seeds or instances
changes them.  Every output is compared without its schema line, which is
asserted on its own, and CSVs without their wall_time column.
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
         "676ddc265eacdad8d2fe407ed0aa2b928142f744ab851d7af50ff04f5c499e41"),
        ("compare", COMPARE, ["--trials", "300", "--seed", "2", "--jobs", "1"],
         "e59fc7cad6adb69e274fccffb7201a4980ceb9534d4dd734a1004989e37c2fe5"),
    ],
)
def test_csv_digest(tmp_path, capsys, command, text, flags, digest):
    out = tmp_path / "out.csv"
    assert main([command, "--config", write_cfg(tmp_path, text), "--out", str(out), *flags]) == 0
    head, body = without_wall_time(out).split("\n", 1)
    assert head == SCHEMA_COMMENT
    assert sha256(body) == digest


def test_gen_container_digest(tmp_path, capsys):
    out = tmp_path / "inst.txt"
    assert main(["gen", "--config", write_cfg(tmp_path, README_GEN), "--out", str(out)]) == 0
    assert sha256(out.read_text()) == "e512824a6ff69efc1863175960d5b01679fe14821d8a8fd783a0ccacfbc7f0f8"


@pytest.mark.parametrize(
    "text, digest",
    [
        (CONC_GEN + "check = tail\nepsilon = 0.5\nepsilon = 1\n",
         "15874f9831ca0a79759a7af02caf03daa819ed6a5dddfa3760d175d1f1380371"),
        (CONC_GEN + "check = window\ndelta = 0.3\ndelta = 0.5\n",
         "564a6f6a993bfbeca9a9165c31437671568bf35056f7b2cab766994f501d6c66"),
        (CONC_GEN + "check = mean\n",
         "4d31b817e1bb01bedc908ef24290430d8bf3bed910665833556c9a9500810def"),
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
    assert h.hexdigest() == "f5ab0108ad7094dbb56576af547f4f8512e99423d45ca09d4a5b782f76c812da"
