"""Plain-text containers for instances and reduction outputs.

One file holds a key = value header followed by labelled matrix sections,
each a shape line plus comma-separated rows printed at 17 significant digits
(enough for bit-exact float round-trips).  Indices in files are 1-based.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .generate import GenConfig
from .model import BlockSensingMatrix, GuessEnsemble, RelaxedInstance, SupportPattern
from .sweep import config_number

__all__ = ["save_instance", "load_instance", "save_reduction", "load_reduction", "ReductionRecord"]

_MAGIC = "blockrelax-container 1"


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def _write_matrix(out: io.StringIO, name: str, a: np.ndarray) -> None:
    a = np.atleast_2d(np.asarray(a, dtype=float))
    out.write(f"[{name}] {a.shape[0]} {a.shape[1]}\n")
    for row in a:
        out.write(",".join(_fmt(v) for v in row) + "\n")


def _dump_header(out: io.StringIO, fields: dict) -> None:
    out.write(_MAGIC + "\n")
    for k, v in fields.items():
        out.write(f"{k} = {v}\n")


class _Entries(dict):
    """Header keys or matrix sections of a container; a missing one raises ValueError naming it."""

    def __init__(self, kind: str):
        super().__init__()
        self.kind = kind

    def __missing__(self, key):
        raise ValueError(f"container has no {self.kind} {key!r}")


def _parse(text: str):
    lines = text.splitlines()
    if not lines or lines[0].strip() != _MAGIC:
        raise ValueError("not a blockrelax container")
    header = _Entries("key")
    matrices = _Entries("section")
    i = 1
    while i < len(lines):
        line = lines[i].strip()
        i += 1
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            name, bracket, shape = line[1:].partition("]")
            name, shape = name.strip(), shape.split()
            if not bracket or len(shape) != 2 or not all(t.isdigit() for t in shape):
                raise ValueError(f"container line {i}: expected '[name] rows cols', got {line!r}")
            rows, cols = int(shape[0]), int(shape[1])
            if i + rows > len(lines):
                raise ValueError(f"container section {name!r} is cut short: {len(lines) - i} of {rows} rows")
            block = np.empty((rows, cols))
            for j in range(rows):
                where, row = f"container section {name!r} row {j + 1}", lines[i + j].split(",")
                if len(row) != cols:
                    raise ValueError(f"{where} holds {len(row)} values, not {cols}")
                try:
                    block[j] = [float(t) for t in row]
                except ValueError:  # parse value by value to name the bad one, as configs do
                    block[j] = [config_number(where, t, float) for t in row]
            i += rows
            matrices[name] = block
        else:
            k, _, v = line.partition("=")
            header[k.strip()] = v.strip()
    return header, matrices


def _alphabet_str(alph) -> str:
    return ",".join(_fmt(a) for a in alph)


def save_instance(instance: RelaxedInstance, path: str) -> None:
    cfg = instance.config
    if cfg is None:
        raise ValueError("instance carries no generation config; cannot serialize")
    fields = {
        "kind": "instance",
        "m": cfg.m,
        "n": cfg.n,
        "theta": cfg.theta,
        "r": cfg.r,
        "s": cfg.s,
        "sensing_kind": cfg.sensing_kind,
        "planted_alphabet": _alphabet_str(cfg.planted_alphabet),
        "guess_density": _fmt(cfg.guess_density),
        "support_mode": cfg.support_mode,
        "guess_law": cfg.guess_law,
        # p_x, p_X and nu follow from the config; they are written for readers, not read back
        "master_seed": cfg.master_seed,
        "p_x": _fmt(cfg.p_x),
        "p_X": _fmt(cfg.p_X),
        "nu": _fmt(cfg.nu),
        # 1-based on disk
        "planted_cols": ",".join(str(k + 1) for k in instance.X.planted_cols),
        "support": ",".join(str(i + 1) for i in instance.support.indices),
    }
    out = io.StringIO()
    _dump_header(out, fields)
    for l, b in enumerate(instance.A.blocks):
        _write_matrix(out, f"A {l + 1}", b)
    for l, b in enumerate(instance.X.blocks):
        _write_matrix(out, f"X {l + 1}", b)
    _write_matrix(out, "x", instance.x.reshape(1, -1))
    _write_matrix(out, "y", instance.y.reshape(1, -1))
    with open(path, "w") as fh:
        fh.write(out.getvalue())


def load_instance(path: str) -> RelaxedInstance:
    """The instance of a container; a header that its arrays contradict raises naming the key."""
    with open(path) as fh:
        header, matrices = _parse(fh.read())
    if header.get("kind") != "instance":
        raise ValueError(f"expected an instance container, got kind={header.get('kind')}")
    dims = {key: config_number(key, header[key]) for key in ("m", "n", "theta", "r", "s")}
    cfg = GenConfig(
        **dims,
        sensing_kind=header["sensing_kind"],
        planted_alphabet=tuple(
            config_number("planted_alphabet", a, float) for a in header["planted_alphabet"].split(",")
        ),
        guess_density=config_number("guess_density", header["guess_density"], float),
        support_mode=header["support_mode"],
        guess_law=header.get("guess_law", "ternary"),
        master_seed=config_number("master_seed", header["master_seed"]),
    )
    n, theta = dims["n"], dims["theta"]
    A = BlockSensingMatrix(blocks=tuple(matrices[f"A {l + 1}"] for l in range(theta)))
    planted = tuple(config_number("planted_cols", t) - 1 for t in header["planted_cols"].split(","))
    X = GuessEnsemble(
        blocks=tuple(matrices[f"X {l + 1}"] for l in range(theta)), planted_cols=planted
    )
    indices = tuple(config_number("support", t) - 1 for t in header["support"].split(","))
    # the header is what a saved instance writes back, so it must describe these arrays
    for key, found in (("m", A.m), ("n", A.n), ("r", X.r)):
        if dims[key] != found:
            raise ValueError(f"container header has {key} = {dims[key]}, but its arrays have {key} = {found}")
    if cfg.s * theta != len(indices):
        raise ValueError(f"container header has s*theta = {cfg.s * theta}, but its support has {len(indices)} indices")
    return RelaxedInstance(
        A=A,
        X=X,
        x=matrices["x"].ravel(),
        support=SupportPattern(indices=indices, n=n, theta=theta),
        y=matrices["y"].ravel(),
        config=cfg,
    )


@dataclass(frozen=True)
class ReductionRecord:
    """A reduction output: matrix, right-hand side, and the decision threshold."""

    reduction: str
    A: BlockSensingMatrix
    y: np.ndarray
    certificate_target: float
    extra: dict


def save_reduction(record: ReductionRecord, path: str) -> None:
    fields = {
        "kind": "reduction",
        "reduction": record.reduction,
        "m": record.A.m,
        "n": record.A.n,
        "theta": record.A.theta,
        "certificate_target": _fmt(record.certificate_target),
    }
    for k, v in record.extra.items():
        fields[k] = v
    out = io.StringIO()
    _dump_header(out, fields)
    for l, b in enumerate(record.A.blocks):
        _write_matrix(out, f"A {l + 1}", b)
    _write_matrix(out, "y", np.asarray(record.y).reshape(1, -1))
    with open(path, "w") as fh:
        fh.write(out.getvalue())


def load_reduction(path: str) -> ReductionRecord:
    with open(path) as fh:
        header, matrices = _parse(fh.read())
    if header.get("kind") != "reduction":
        raise ValueError(f"expected a reduction container, got kind={header.get('kind')}")
    theta = config_number("theta", header["theta"])
    A = BlockSensingMatrix(blocks=tuple(matrices[f"A {l + 1}"] for l in range(theta)))
    known = {"kind", "reduction", "m", "n", "theta", "certificate_target"}
    extra = {k: v for k, v in header.items() if k not in known}
    return ReductionRecord(
        reduction=header["reduction"],
        A=A,
        y=matrices["y"].ravel(),
        certificate_target=config_number("certificate_target", header["certificate_target"], float),
        extra=extra,
    )
