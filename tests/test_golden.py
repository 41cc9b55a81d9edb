"""Byte-level golden outputs of the CLI for valid configs.

The sha256 digests pin what the CLI writes for the README and acceptance
configs; any change to how a valid config becomes cells, seeds or instances
changes them.  Every output that starts with a schema line is compared without
it, and the line is asserted on its own; CSVs are compared without their
wall_time column.  ``solve`` and ``replay`` print no schema line, and their
whole stdout is pinned.
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
# the README walk-through's repeated-unitary container: one block stored theta times
REPEATED_UNITARY_GEN = "m = 16\ntheta = 3\nr = 4\ns = 4\nseed = 7\nsensing_kind = repeated-unitary\n"
ALPHABET_GEN = README_GEN + "sensing_kind = gaussian\nsupport_mode = uniform\nguess_law = alphabet\n"
COMPARE = "m = 4\ns = 2\ntheta = 1\nr = 2\nr = 4\nguess_density = 0.5\n"  # acceptance test_09
CONC_GEN = "m = 12\ntheta = 2\nr = 4\ns = 3\n"
# every oracle cell fits the enumeration guard, so the oracle columns hold counts
ORACLE_SWEEP = "m = 6\ntheta = 2\nr = 2\nr = 3\ns = 2\noracle = 1\n"
# theta = 2 and m < r*theta, where every compare column is nonzero
COMPARE_THETA2 = "m = 3\nn = 2\ns = 1\ntheta = 2\nr = 4\nguess_density = 0.5\n"


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
        ("sweep", ORACLE_SWEEP, ["--trials", "20", "--seed", "1", "--jobs", "1"],
         "786e7d33bba6869573de45958271f56bd4a454ab7b39014390ccc3f6ac36d184"),
        ("compare", COMPARE_THETA2, ["--trials", "300", "--seed", "3", "--jobs", "1"],
         "f345f36f7aa483517a6c443247e968512220dea7fd87b77559ddae1fe802a171"),
    ],
)
def test_csv_digest(tmp_path, capsys, command, text, flags, digest):
    out = tmp_path / "out.csv"
    assert main([command, "--config", write_cfg(tmp_path, text), "--out", str(out), *flags]) == 0
    head, body = without_wall_time(out).split("\n", 1)
    assert head == SCHEMA_COMMENT
    assert sha256(body) == digest


# a gen container per config, and the README walk-through's two reduction containers
@pytest.mark.parametrize(
    "command, text, flags, digest",
    [
        ("gen", README_GEN, [], "e512824a6ff69efc1863175960d5b01679fe14821d8a8fd783a0ccacfbc7f0f8"),
        ("gen", ALPHABET_GEN, [], "1c08e36819c819886e853139ae0e760b4a8bed4b1ec17a466de075e6beaff5e3"),
        ("gen", REPEATED_UNITARY_GEN, [], "89f6e7c03a1131b5b8fbe13763889c408df46e0da1e17a2ae2661bd38db91e9b"),
        ("reduce-x3c", None, ["--m", "6", "--triples", "1,2,3;4,5,6"],
         "4b255053c266c4fc2e1924a72bd5c8bb6496e1f7618f3d9f4961cb959e9feca2"),
        ("reduce-partition", None, ["--a", "3,1,4,2"],
         "5b3401c92a52c8b0a8b20261f33462c6ebaa7e68a7b40960cbd3d33a0a11d2d9"),
    ],
    ids=["readme", "gaussian-uniform-alphabet", "repeated-unitary", "reduce-x3c", "reduce-partition"],
)
def test_gen_container_digest(tmp_path, capsys, command, text, flags, digest):
    out = tmp_path / "out.txt"
    config = ["--config", write_cfg(tmp_path, text)] if text else []
    assert main([command, *config, *flags, "--out", str(out)]) == 0
    assert sha256(out.read_text()) == digest


@pytest.mark.parametrize(
    "text, digest",
    [
        (README_GEN, "b604365ac24de4efbfaedf012996b67f638db2f6697b61fa9c14acee182dea05"),
        (REPEATED_UNITARY_GEN, "9487a662ffbde11c53cb8c3e4c4393b630b953bcf156ba27bc818161747b1ed5"),
    ],
    ids=["readme", "repeated-unitary"],
)
def test_solve_stdout_digest(tmp_path, capsys, text, digest):
    inst = str(tmp_path / "inst.txt")
    assert main(["gen", "--config", write_cfg(tmp_path, text), "--out", inst]) == 0
    capsys.readouterr()
    assert main(["solve", inst]) == 0
    assert sha256(capsys.readouterr().out) == digest


def test_replay_stdout_digest(tmp_path, capsys):
    cfg = write_cfg(tmp_path, README_SWEEP)
    assert main(["replay", "--config", cfg, "--seed", "1", "--trials", "21", "--cell", "3", "--trial", "17"]) == 0
    assert sha256(capsys.readouterr().out) == "db47f7437247bad7f096a0a8af6b8ee3568fa7c06f3e654776a603e7108f3a3e"


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
