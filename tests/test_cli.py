import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from blockrelax import cli, generate
from blockrelax.cli import main
from blockrelax.storage import load_instance, load_reduction
from blockrelax.sweep import SWEEP_COLUMNS, _cell_stack, _chunks, build_sweep_plan, parse_config

GEN_CFG = "m = 8\ntheta = 2\nr = 3\ns = 3\nseed = 5\n"


def write_cfg(tmp_path, text, name="cfg.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_gen_solve_oracle_pipeline(tmp_path, capsys):
    cfg = write_cfg(tmp_path, GEN_CFG)
    inst_path = str(tmp_path / "inst.txt")
    assert main(["gen", "--config", cfg, "--out", inst_path]) == 0
    out = capsys.readouterr().out
    assert "wrote instance" in out

    inst = load_instance(inst_path)
    assert inst.m == 8 and inst.theta == 2

    assert main(["solve", inst_path]) == 0
    out = capsys.readouterr().out
    assert "status:" in out
    assert "recovery:" in out
    assert "certificate holds:" in out

    assert main(["oracle", inst_path]) == 0
    out = capsys.readouterr().out
    assert "evaluated: 9" in out
    assert "unique:" in out


def test_gen_seed_flag_overrides_config(tmp_path):
    cfg = write_cfg(tmp_path, GEN_CFG)
    p1, p2 = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
    main(["gen", "--config", cfg, "--out", p1, "--seed", "9"])
    main(["gen", "--config", cfg, "--out", p2, "--seed", "9"])
    assert load_instance(p1).config.master_seed == 9
    assert np.array_equal(load_instance(p1).x, load_instance(p2).x)


def test_gen_requires_out(tmp_path):
    cfg = write_cfg(tmp_path, GEN_CFG)
    with pytest.raises(SystemExit):
        main(["gen", "--config", cfg])


def test_sweep_writes_schema_csv(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "m = 6\ntheta = 2\nr = 2\ns = 2\n")
    out = str(tmp_path / "sweep.csv")
    assert main(["sweep", "--config", cfg, "--out", out, "--trials", "3", "--seed", "2"]) == 0
    lines = Path(out).read_text().splitlines()
    assert lines[0] == "# schema=5"
    assert lines[1] == ",".join(SWEEP_COLUMNS)
    assert len(lines) == 3  # one cell
    with pytest.raises(SystemExit):
        main(["sweep", "--config", cfg, "--trials", "1"])  # --out missing


def test_replay_matches_sweep_output(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "m = 6\ntheta = 2\nr = 2\ns = 2\n")
    saved = str(tmp_path / "replayed.txt")
    assert main(["replay", "--config", cfg, "--seed", "2", "--cell", "0",
                 "--trial", "1", "--out", saved]) == 0
    out = capsys.readouterr().out
    assert "cell 0 trial 1" in out
    assert "recovery:" in out
    inst = load_instance(saved)
    assert inst.m == 6
    with pytest.raises(SystemExit):
        main(["replay", "--config", cfg, "--cell", "7", "--trial", "0"])


@pytest.mark.parametrize("trial", ["5", "999", "-2"])
def test_replay_rejects_trial_outside_cell(tmp_path, trial):
    # the cell runs trials 0..4, so any other trial is an instance no sweep of it draws
    cfg = write_cfg(tmp_path, "m = 6\ntheta = 2\nr = 2\ns = 2\ntrials = 5\n")
    exits_with_one_line(["replay", "--config", cfg, "--cell", "0", "--trial", trial],
                        f"trial {trial} out of range (cell 0 has 5 trials)")


def test_replay_trials_flag_matches_the_sweep(tmp_path, capsys):
    text = "m = 32\ntheta = 4\nr = 8\ns = 8\n"  # a 10-trial sweep draws chunks 0..5 and 6..9
    cfg = write_cfg(tmp_path, text)
    # after `sweep --trials 3`, trial 50 is an instance that sweep never drew
    exits_with_one_line(["replay", "--config", cfg, "--trials", "3", "--cell", "0", "--trial", "50"],
                        "argument error: trial 50 out of range (cell 0 has 3 trials)")
    replayed, made = tmp_path / "replayed.txt", tmp_path / "made.txt"
    assert main(["replay", "--config", cfg, "--trials", "10", "--cell", "0", "--trial", "9",
                 "--out", str(replayed)]) == 0
    seed = int(capsys.readouterr().out.splitlines()[0].rsplit("seed=", 1)[1])
    # the last trial of the partial chunk replays as the sweep's chunk drew it
    cell = build_sweep_plan(parse_config(text), trials=10).cells[0]
    assert _chunks(cell)[-1] == (6, 10)
    drawn, back = _cell_stack(cell, 6, 10).instance(3), load_instance(str(replayed))
    assert drawn.config.master_seed == seed
    for a, b in [(drawn.A.blocks, back.A.blocks), (drawn.X.blocks, back.X.blocks), (drawn.x, back.x), (drawn.y, back.y)]:
        assert np.array_equal(a, b)
    # gen with the seed replay printed writes the same container
    assert main(["gen", "--config", cfg, "--seed", str(seed), "--out", str(made)]) == 0
    assert made.read_bytes() == replayed.read_bytes()


def test_compare_writes_csv(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "m = 4\ns = 2\ntheta = 1\nr = 2\nguess_density = 0.5\n")
    out = str(tmp_path / "cmp.csv")
    assert main(["compare", "--config", cfg, "--out", out, "--trials", "40", "--seed", "3"]) == 0
    text = capsys.readouterr().out
    assert "cell 0:" in text
    lines = Path(out).read_text().splitlines()
    assert lines[0] == "# schema=5"
    assert len(lines) == 3


def test_concentration_vectorization_exit_code(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "check = vectorization\ncount = 5\n")
    out = str(tmp_path / "vec.csv")
    assert main(["concentration", "--config", cfg, "--out", out, "--seed", "1"]) == 0
    lines = Path(out).read_text().splitlines()
    assert lines[0] == "# schema=5"
    assert lines[1].split(",")[0] == "check"
    assert len(lines) == 7
    assert all(row.endswith(",1") for row in lines[2:])


def test_concentration_mean_check(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "m = 6\ntheta = 1\nr = 2\ns = 2\ncheck = mean\n")
    assert main(["concentration", "--config", cfg, "--trials", "400", "--seed", "4"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# schema=5\n")
    assert "z_score" in out


def test_concentration_mean_at_its_closed_form_passes(tmp_path, capsys):
    # every image equals s = 3, so the mean is the closed form up to rounding: z = 0
    cfg = write_cfg(tmp_path, "m = 8\ntheta = 1\nr = 4\ns = 3\nalphabet = -1,1\ncheck = mean\n")
    assert main(["concentration", "--config", cfg, "--trials", "50", "--seed", "1"]) == 0
    assert capsys.readouterr().out.splitlines()[-1].endswith(",0")


def test_concentration_unknown_check(tmp_path):
    cfg = write_cfg(tmp_path, "m = 6\ncheck = bogus\n")
    with pytest.raises(SystemExit, match="unknown concentration check"):
        main(["concentration", "--config", cfg])


CONFIG_COMMANDS = {
    "gen": ["gen", "--out", "{tmp}/inst.txt"],
    "sweep": ["sweep", "--out", "{tmp}/sweep.csv", "--trials", "1"],
    "replay": ["replay", "--cell", "0", "--trial", "0"],
    "compare": ["compare", "--out", "{tmp}/cmp.csv", "--trials", "1"],
    "concentration": ["concentration", "--trials", "10"],
}
BAD_CONFIGS = {
    "unknown key": ("m = 6\ns = 2\nthetta = 3\n", "key 'thetta' is not accepted"),
    "repeated scalar": ("m = 6\ns = 2\nseed = 1\nseed = 2\n", "key 'seed' must not repeat"),
    "missing m": ("s = 2\n", "missing required key 'm'"),
    "no equals sign": ("m = 6\nthetta 3\n", "line 2: expected key = value"),
    "not a number": ("m = 6\ns = 2\ntheta = two\n", "config error: theta: invalid integer 'two'"),
    # a repeated value would count twice in the guess law and in compare's p_l
    "repeated alphabet value": ("m = 6\ns = 2\nalphabet = -1,-1,1,1\n",
                                "config error: alphabet values must be distinct"),
    # s/n over n = 0 divides by zero unless GenConfig's own check names n first
    "s/n with n 0": ("m = 6\nn = 0\ns = 2\nguess_density = s/n\n",
                     "config error: m, n, theta, r must be positive"),
}
TRIALS_ERROR = "config error: trials: must be at least 1"
# uniform supports scatter s*theta = 4 indices over 4 blocks; at seed 0 one block is left empty
EMPTY_BLOCK_CFG = "m = 8\ntheta = 4\nr = 4\ns = 1\nsupport_mode = uniform\n"
EMPTY_BLOCK_ERROR = "config error: block 3 has empty support"
SPARSE_GUESS_CFG = "m = 4\ns = 2\ntheta = 1\nr = 2\nguess_density = 1e-7\n"
SPARSE_GUESS_ERROR = "config error: could not draw a nonzero guess column; guess_density too small"
# (text, flags, commands): a --trials flag comes after, so overrides, the command's own
BAD_TRIALS = {
    "trials flag 0": ("m = 6\ns = 2\n", ["--trials", "0"], ("compare", "concentration", "sweep")),
    "trials flag -3": ("m = 6\ns = 2\n", ["--trials", "-3"], ("compare", "concentration", "sweep")),
    "trials line 0": ("m = 6\ns = 2\ntrials = 0\n", [], ("replay",)),
}
# the solver tolerances and step cap are constants, not config keys
TOLERANCE_KEYS = ("tol_feas", "tol_opt", "max_iter")
CONFIG_ERRORS = {
    **{(command, case): (text, message, []) for command in CONFIG_COMMANDS
       for case, (text, message) in BAD_CONFIGS.items()},
    **{(command, case): (text, TRIALS_ERROR, flags)
       for case, (text, flags, commands) in BAD_TRIALS.items() for command in commands},
    **{(command, f"{key} key"): (f"m = 6\ns = 2\n{key} = 1e-6\n",
                                 f"config error: key {key!r} is not accepted here", [])
       for key in TOLERANCE_KEYS for command in ("compare", "replay", "sweep")},
    # the plan names a bad exponent before any trial runs, rather than count each trial an error
    **{(command, f"p {p}"): (f"m = 6\ns = 2\np = {p}\n", f"config error: p: must lie in (0, 1], got {p}", [])
       for p in ("-1", "0", "1.5") for command in ("compare", "replay", "sweep")},
    # oracle takes exactly 1/true/on/yes or 0/false/off/no; anything else is not read as off
    **{(command, f"oracle {value}"): (f"m = 6\ns = 2\noracle = {value}\n",
                                      f"config error: oracle: unknown switch {value!r}", [])
       for value in ("True", "maybe") for command in ("replay", "sweep")},
    # a bad later value of a grid axis is named, as a first one is
    **{(command, f"later {key} value"): (f"m = 6\ns = 2\n{key} = {first}\n{key} = x\n",
                                         f"config error: {key}: invalid integer 'x'", [])
       for key, first, commands in (("m", 6, ("replay", "sweep")), ("theta", 1, ("compare", "replay", "sweep")))
       for command in commands},
}


def exits_with_one_line(argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert isinstance(exc.value.code, str) and "\n" not in exc.value.code
    assert message in exc.value.code


@pytest.mark.parametrize("command, case", sorted(CONFIG_ERRORS))
def test_config_errors_exit_with_one_line(tmp_path, command, case):
    text, message, flags = CONFIG_ERRORS[command, case]
    argv = [a.format(tmp=tmp_path) for a in CONFIG_COMMANDS[command]]
    exits_with_one_line([*argv, *flags, "--config", write_cfg(tmp_path, text)], message)


@pytest.mark.parametrize(
    "argv, text, message",
    [
        (["compare", "--trials", "1"], "m = 4\nguess_law = ternary\n", "key 'guess_law' is not accepted"),
        (["compare", "--trials", "1"], "m = 4\nsupport_mode = uniform\n", "key 'support_mode' is not accepted"),
        (["concentration"], "m = 6\nepsilon = 0.5\nepsilon = big\n", "'big'"),
        (["concentration"], "m = 6\ncheck = window\ndelta = small\n", "'small'"),
        (["concentration"], "m = 6\ntrials = 0\n", TRIALS_ERROR),
        (["sweep"], "m = 6\ns = 2\ntrials = 0\n", TRIALS_ERROR),
        (["compare"], "m = 4\ntrials = 0\n", TRIALS_ERROR),
        (["concentration"], "m = 6\ncheck = window\ndelta = 1.5\n",
         "config error: delta: must lie in (0, 1), got 1.5"),
        (["concentration"], "m = 6\ncheck = tail\nepsilon = -1\n",
         "config error: epsilon: must be positive, got -1"),
        (["concentration"], "check = vectorization\ncount = -3\n",
         "config error: count: must be at least 1, got -3"),
        # the check is read before the study is built, so it is named even where building fails
        (["concentration"], EMPTY_BLOCK_CFG + "check = median\n",
         "config error: check: unknown concentration check 'median'"),
        (["concentration"], EMPTY_BLOCK_CFG, EMPTY_BLOCK_ERROR),
        (["gen"], EMPTY_BLOCK_CFG, EMPTY_BLOCK_ERROR),
        # a sweep records this trial as an error; its replay names the cause as gen does
        (["replay", "--seed", "0", "--cell", "0", "--trial", "0"],
         EMPTY_BLOCK_CFG + "s = 2\ntrials = 40\n", "config error: block 1 has empty support"),
        # no guess column of density 1e-7 turns nonzero within the redraw cap, so trial 0's
        # draw fails; a sweep counts it as an error, compare ends naming its cell and trial
        *((["compare", "--trials", "2", "--seed", "2", "--jobs", jobs], SPARSE_GUESS_CFG,
           "trial error: cell 0 trial 0: could not draw a nonzero guess column") for jobs in ("1", "2")),
        # gen, the trial that sweep counts as an error, and the concentration study's
        # base instance end with the draw's own line
        (["gen"], SPARSE_GUESS_CFG, SPARSE_GUESS_ERROR),
        (["replay", "--trials", "2", "--seed", "2", "--cell", "0", "--trial", "0"], SPARSE_GUESS_CFG,
         SPARSE_GUESS_ERROR),
        (["concentration"], SPARSE_GUESS_CFG + "check = tail\n", SPARSE_GUESS_ERROR),
        (["concentration"], SPARSE_GUESS_CFG + "check = mean\n", SPARSE_GUESS_ERROR),
        # one trial gives the mean no standard error
        (["concentration", "--trials", "1"], "m = 6\ncheck = mean\n",
         "config error: the mean check needs at least 2 trials"),
    ],
)
def test_command_specific_config_errors(tmp_path, monkeypatch, argv, text, message):
    # a guess density of 1e-7 fails within any redraw cap, so a lower one saves the full cap's rounds
    monkeypatch.setattr(generate, "_REDRAW_ROUNDS", 100)
    exits_with_one_line([*argv, "--out", str(tmp_path / "out.csv"), "--config", write_cfg(tmp_path, text)],
                        message)


@pytest.mark.parametrize("closed", ["before start", "after first line"])
def test_replay_into_closed_pipe_exits_without_traceback(tmp_path, closed):
    cfg = write_cfg(tmp_path, "m = 6\ntheta = 2\nr = 2\ns = 2\n")
    out = tmp_path / "inst.txt"
    reader, writer = os.pipe()
    if closed == "before start":
        os.close(reader)
    proc = subprocess.Popen(
        [sys.executable, "-m", "blockrelax", "replay", "--config", cfg, "--seed", "1",
         "--cell", "0", "--trial", "3", "--out", str(out)],
        stdout=writer, stderr=subprocess.PIPE, text=True, env={**os.environ, "PYTHONUNBUFFERED": "1"},
    )
    os.close(writer)
    if closed == "after first line":
        with os.fdopen(reader) as fh:
            assert fh.readline().startswith("cell 0 trial 3")
    stderr = proc.communicate(timeout=120)[1]
    assert stderr == ""  # no traceback, no ignored flush error
    # a reader that stops after the first line may still have let every line through
    assert proc.returncode == 1 if closed == "before start" else proc.returncode in (0, 1)
    assert load_instance(str(out)).m == 6


@pytest.mark.parametrize(
    "flag", ["solve --tol-feas", "solve --tol-opt", "solve --max-iter", "oracle --tol-feas"]
)
def test_tolerance_flags_are_rejected(tmp_path, capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main([*flag.split(), "1", str(tmp_path / "inst.txt")])
    assert exc.value.code == 2  # argparse: unrecognized arguments
    assert "unrecognized arguments" in capsys.readouterr().err


def bad_container(tmp_path, case: str) -> str:
    """The path of a container broken as ``case`` says."""
    path = tmp_path / "bad.txt"
    if case == "reduction container":
        main(["reduce-x3c", "--m", "6", "--triples", "1,2,3;4,5,6", "--out", str(path)])
    elif case != "missing file":
        main(["gen", "--config", write_cfg(tmp_path, GEN_CFG), "--out", str(path)])
        lines = path.read_text().splitlines()
        if case in KEY_EDITS:  # a header line dropped, or its key misspelled
            key, renamed = KEY_EDITS[case]
            at = next(i for i, ln in enumerate(lines) if ln.startswith(f"{key} ="))
            lines[at : at + 1] = [renamed + lines[at][len(key):]] if renamed else []
        elif case == "line without =":  # after the magic and kind lines
            lines.insert(2, "garbage")
        elif case in HEADER_EDITS:  # a header key that disagrees with the arrays, or is not a number
            key, value = HEADER_EDITS[case]
            lines = [f"{key} = {value}" if ln.startswith(f"{key} =") else ln for ln in lines]
        elif case in VALUE_EDITS:  # the first value of one row of one section replaced
            section, row, value = VALUE_EDITS[case]
            at = next(i for i, ln in enumerate(lines) if ln.startswith(f"[{section}]")) + row
            lines[at] = value + lines[at][lines[at].index(","):]
        elif case in SECTION_EDITS:  # the [A 1] shape line, or its second row, replaced
            at = next(i for i, ln in enumerate(lines) if ln.startswith("[A 1]"))
            offset, line = SECTION_EDITS[case]
            lines[at + offset] = line
        elif case == "extra section":  # an [A 3] section, which theta = 2 does not use, after the arrays
            lines += ["[A 3] 1 2", "1,2"]
        elif case == "misspelled section":  # [y] renamed [Y]
            lines = ["[Y]" + ln[3:] if ln.startswith("[y]") else ln for ln in lines]
        elif case == "repeated header key":  # a second master_seed line, after the arrays
            lines.append("master_seed = 99")
        elif case == "repeated section":  # [X 1] again, its shape line and n = 8 rows
            at = next(i for i, ln in enumerate(lines) if ln.startswith("[X 1]"))
            lines += lines[at : at + 9]
        elif case == "ragged blocks":  # [A 2] loses the last of its m = 8 rows, so the blocks do not stack
            at = next(i for i, ln in enumerate(lines) if ln.startswith("[A 2]"))
            lines = [*lines[:at], "[A 2] 7 8", *lines[at + 1 : at + 8], *lines[at + 9 :]]
        else:  # the [A 1] section holds m = 8 rows; keep its shape line and three of them
            lines = lines[: next(i for i, ln in enumerate(lines) if ln.startswith("[A 1]")) + 4]
        path.write_text("".join(ln + "\n" for ln in lines))
    return str(path)


# GEN_CFG's container has m = n = 8, theta = 2, r = 3 and s*theta = 6 support indices
HEADER_EDITS = {
    "header m": ("m", 9),
    "header n": ("n", 7),
    "header r": ("r", 5),
    "header s": ("s", 1),
    "theta not a number": ("theta", "x"),
    "header nu": ("nu", 0.9),  # guess_density is 0.25
}
# (key, its misspelling, or None to drop the line)
KEY_EDITS = {
    "no m line": ("m", None),
    "no guess_law line": ("guess_law", None),
    "misspelled guess_law": ("guess_law", "guess_lwa"),
}
SECTION_EDITS = {
    "unclosed section": (0, "[A 1 8 8"),
    "narrow shape line": (0, "[A 1] 8 7"),
    "huge section width": (0, "[A 1] 8 100000000000"),
    "row not numbers": (2, "0.5,abc,1,1,1,1,1,1"),
}
# (section, 1-based row, value); y is one row of m = 8 values
VALUE_EDITS = {
    "nan in A": ("A 1", 3, "nan"),
    "inf in A": ("A 1", 1, "inf"),
    "nan in X": ("X 1", 2, "nan"),
    "nan in y": ("y", 1, "nan"),
}
BAD_CONTAINERS = {
    "missing file": "instance error: [Errno 2] No such file",
    "header m": "instance error: container header has m = 9, but its arrays have m = 8",
    "header n": "instance error: container header has n = 7, but its arrays have n = 8",
    "header r": "instance error: container header has r = 5, but its arrays have r = 3",
    "header s": "instance error: container header has s*theta = 2, but its support has 6 indices",
    "theta not a number": "instance error: theta: invalid integer 'x'",
    "unclosed section": "instance error: container line 19: expected '[name] rows cols', got '[A 1 8 8'",
    "narrow shape line": "instance error: container section 'A 1' row 1 holds 8 values, not 7",
    # a width that no row holds, too wide to allocate: the first row names it
    "huge section width": "instance error: container section 'A 1' row 1 holds 8 values, not 100000000000",
    "row not numbers": "instance error: container section 'A 1' row 2: invalid number 'abc'",
    "reduction container": "instance error: expected an instance container, got kind=reduction",
    "no m line": "instance error: container has no key 'm'",
    # a header a save would not write back: a key missing or unknown, a line
    # with no '=', a moment that its config contradicts
    "no guess_law line": "instance error: container has no key 'guess_law'",
    "misspelled guess_law": "instance error: container has unknown key 'guess_lwa'",
    "line without =": "instance error: container line 3: expected key = value, got 'garbage'",
    "header nu": "instance error: container header has nu = 0.9, but its config gives nu = 0.25",
    "cut mid-matrix": "instance error: container section 'A 1' is cut short: 3 of 8 rows",
    "ragged blocks": "instance error: all blocks must share one (m, n) shape",
    "repeated header key": "instance error: container key 'master_seed' must not repeat",
    "repeated section": "instance error: container section 'X 1' must not repeat",
    # a section a load would not use, so a save would drop it
    "extra section": "instance error: container has unknown section 'A 3'",
    "misspelled section": "instance error: container has unknown section 'Y'",
    # a non-finite value would pass the containers' checks, or warn, so loading names it
    "nan in A": "instance error: container section 'A 1' row 3: must be finite, got nan",
    "inf in A": "instance error: container section 'A 1' row 1: must be finite, got inf",
    "nan in X": "instance error: container section 'X 1' row 2: must be finite, got nan",
    "nan in y": "instance error: container section 'y' row 1: must be finite, got nan",
}


@pytest.mark.filterwarnings("error")  # the one line comes before any warning
@pytest.mark.parametrize("case", sorted(BAD_CONTAINERS))
@pytest.mark.parametrize("command", ["oracle", "solve"])
def test_bad_containers_exit_with_one_line(tmp_path, command, case):
    exits_with_one_line([command, bad_container(tmp_path, case)], BAD_CONTAINERS[case])


@pytest.mark.parametrize("p", ["-1", "0", "1.5", "nan"])
@pytest.mark.parametrize("command", ["oracle", "solve"])
def test_bad_exponent_flag_exits_with_one_line(tmp_path, command, p):
    inst = str(tmp_path / "inst.txt")
    main(["gen", "--config", write_cfg(tmp_path, GEN_CFG), "--out", inst])
    exits_with_one_line([command, inst, "--p", p], f"argument error: p: must lie in (0, 1], got {p}")


def test_oracle_past_enumeration_guard_exits_with_one_line(tmp_path):
    big = str(tmp_path / "big.txt")
    main(["gen", "--config", write_cfg(tmp_path, "m = 4\ntheta = 3\nr = 101\ns = 2\n"), "--out", big])
    exits_with_one_line(["oracle", big], "instance error: r**theta = 1030301 exceeds the enumeration guard")


BAD_REDUCTION_ARGUMENTS = {
    # triples are named 1-based, as typed
    "x3c short triple": ("reduce-x3c --m 6 --triples 1,2;4,5,6",
                         "argument error: triple 1,2 must have three"),
    "x3c triple out of range": ("reduce-x3c --m 6 --triples 1,2,7", "argument error: triple 1,2,7 out of range 1..6"),
    "x3c duplicate triple": ("reduce-x3c --m 6 --triples 1,2,3;3,2,1", "argument error: duplicate triple 1,2,3"),
    "x3c non-integer": ("reduce-x3c --m 6 --triples 1,2,x", "argument error: triples: invalid integer 'x'"),
    "x3c m 7": ("reduce-x3c --m 7 --triples 1,2,3", "argument error: ground set size must be a positive"),
    "partition negative weight": ("reduce-partition --a 1,-2", "argument error: weights must be positive"),
    "partition nan weight": ("reduce-partition --a nan,1", "argument error: weights must be positive and finite"),
    "partition inf weight": ("reduce-partition --a inf,1", "argument error: weights must be positive and finite"),
    "partition odd theta": ("reduce-partition --a 3,1,4,2 --theta 3", "argument error: theta must be even"),
    "partition p 2": ("reduce-partition --a 1,1 --p 2", "argument error: p: must lie in (0, 1], got 2"),
}


@pytest.mark.filterwarnings("error")  # the one line comes before any warning
@pytest.mark.parametrize("case", sorted(BAD_REDUCTION_ARGUMENTS))
def test_bad_reduction_arguments_exit_with_one_line(tmp_path, case):
    args, message = BAD_REDUCTION_ARGUMENTS[case]
    out = tmp_path / "red.txt"
    exits_with_one_line([*args.split(), "--out", str(out)], message)
    assert not out.exists()


# every command that writes --out; each writes into a directory that does not exist
OUTPUT_COMMANDS = {
    "gen": ["gen", "--config", "{cfg}"],
    "sweep": ["sweep", "--config", "{cfg}", "--trials", "2"],
    "compare": ["compare", "--config", "{cfg}", "--trials", "2"],
    "concentration": ["concentration", "--config", "{cfg}", "--trials", "10"],
    "replay": ["replay", "--config", "{cfg}", "--cell", "0", "--trial", "0"],
    "reduce-x3c": ["reduce-x3c", "--m", "6", "--triples", "1,2,3;4,5,6"],
    "reduce-partition": ["reduce-partition", "--a", "3,1,4,2"],
}


@pytest.mark.parametrize("command", sorted(OUTPUT_COMMANDS))
def test_unwritable_out_exits_with_one_line(tmp_path, capsys, command):
    cfg = write_cfg(tmp_path, "m = 6\ns = 2\n")
    out = tmp_path / "absent" / "out.txt"
    argv = [a.format(cfg=cfg) for a in OUTPUT_COMMANDS[command]]
    exits_with_one_line([*argv, "--out", str(out)], f"output error: [Errno 2] No such file or directory: '{out}'")


@pytest.mark.parametrize("command, runner", [("sweep", "run_sweep"), ("compare", "run_comparison")])
def test_unwritable_out_ends_before_any_trial(tmp_path, monkeypatch, command, runner):
    calls = []
    monkeypatch.setattr(cli, runner, lambda *args, **kwargs: calls.append(args))
    cfg = write_cfg(tmp_path, "m = 6\ns = 2\n")
    out = tmp_path / "absent" / "out.csv"
    exits_with_one_line([command, "--config", cfg, "--trials", "2", "--out", str(out)], "output error: ")
    assert calls == []


def test_out_check_leaves_no_file_behind(tmp_path, monkeypatch):
    # a compare run whose trials fail leaves no empty CSV from the check;
    # an existing file stays as it was until the run writes it
    def failing_run(*args, **kwargs):
        raise ValueError("boom")

    monkeypatch.setattr(cli, "run_comparison", failing_run)
    cfg = write_cfg(tmp_path, "m = 6\ns = 2\n")
    out = tmp_path / "c.csv"
    exits_with_one_line(["compare", "--config", cfg, "--trials", "2", "--out", str(out)], "trial error: boom")
    assert not out.exists()
    out.write_text("kept\n")
    exits_with_one_line(["compare", "--config", cfg, "--trials", "2", "--out", str(out)], "trial error: boom")
    assert out.read_text() == "kept\n"


def test_missing_config_file_exits_with_one_line(tmp_path):
    exits_with_one_line(["sweep", "--config", str(tmp_path / "absent.txt"), "--out", str(tmp_path / "s.csv")],
                        "No such file")


def test_reduce_x3c_embeds_oracle_decision(tmp_path, capsys):
    out = str(tmp_path / "x3c.txt")
    rc = main(["reduce-x3c", "--m", "6", "--triples", "1,2,3;4,5,6", "--out", out])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "cover exists" in stdout
    rec = load_reduction(out)
    assert rec.extra["oracle_value"] == "2"
    assert rec.extra["decision"] == "true"

    rc = main(["reduce-x3c", "--m", "6", "--triples", "1,2,3;3,4,5", "--out", out])
    assert rc == 0
    assert "no exact cover" in capsys.readouterr().out
    rec = load_reduction(out)
    assert rec.extra["oracle_value"] == "above-target"
    assert rec.extra["decision"] == "false"


def test_reduce_partition_decisions(tmp_path, capsys):
    out = str(tmp_path / "part.txt")
    assert main(["reduce-partition", "--a", "1,1", "--out", out]) == 0
    assert "partition exists" in capsys.readouterr().out
    rec = load_reduction(out)
    assert rec.extra["decision"] == "true"
    assert rec.certificate_target == 2.0

    assert main(["reduce-partition", "--a", "1,2", "--out", out]) == 0
    assert "no partition" in capsys.readouterr().out
    assert load_reduction(out).extra["decision"] == "false"


def test_reduce_partition_guard_skips_decision(tmp_path, capsys):
    out = str(tmp_path / "part.txt")
    assert main(["reduce-partition", "--a", "3,1,1,2,2,1", "--out", out]) == 0
    assert "decision: skipped" in capsys.readouterr().out
    assert "decision" not in load_reduction(out).extra


def test_jobs_env_default(monkeypatch):
    from blockrelax.cli import _jobs

    monkeypatch.setenv("BLOCKRELAX_JOBS", "6")
    assert _jobs(None) == 6
    assert _jobs(2) == 2  # the flag wins over the variable
    monkeypatch.delenv("BLOCKRELAX_JOBS")
    assert _jobs(None) == 1


BAD_JOBS = {
    # (flags, BLOCKRELAX_JOBS, message); large counts stay untested, as the pool forks every worker up front
    "flag 0": (["--jobs", "0"], None, "argument error: jobs: must be at least 1, got 0"),
    "flag -2": (["--jobs", "-2"], None, "argument error: jobs: must be at least 1, got -2"),
    "env abc": ([], "abc", "argument error: jobs: invalid integer 'abc'"),
    "env 0": ([], "0", "argument error: jobs: must be at least 1, got 0"),
}


@pytest.mark.parametrize("case", sorted(BAD_JOBS))
@pytest.mark.parametrize("command", ["compare", "sweep"])
def test_bad_jobs_exit_with_one_line(tmp_path, monkeypatch, command, case):
    flags, env, message = BAD_JOBS[case]
    if env is not None:
        monkeypatch.setenv("BLOCKRELAX_JOBS", env)
    cfg = write_cfg(tmp_path, "m = 4\ns = 2\n")
    exits_with_one_line([command, "--config", cfg, "--out", str(tmp_path / "out.csv"), *flags], message)
    assert not (tmp_path / "out.csv").exists()


def test_bad_jobs_env_leaves_other_commands_alone(tmp_path, monkeypatch):
    monkeypatch.setenv("BLOCKRELAX_JOBS", "abc")
    out = str(tmp_path / "inst.txt")
    assert main(["gen", "--config", write_cfg(tmp_path, GEN_CFG), "--out", out]) == 0
    assert main(["solve", out]) == 0


def test_module_entry_point(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(GEN_CFG)
    out = tmp_path / "inst.txt"
    proc = subprocess.run(
        [sys.executable, "-m", "blockrelax", "gen", "--config", str(cfg), "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
