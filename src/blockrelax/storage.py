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
            name, shape = line[1:].split("]")
            name = name.strip()
            rows, cols = (int(t) for t in shape.split())
            if i + rows > len(lines):
                raise ValueError(f"container section {name!r} is cut short: {len(lines) - i} of {rows} rows")
            block = np.empty((rows, cols))
            for j in range(rows):
                block[j] = [float(t) for t in lines[i + j].split(",")]
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
    with open(path) as fh:
        header, matrices = _parse(fh.read())
    if header.get("kind") != "instance":
        raise ValueError(f"expected an instance container, got kind={header.get('kind')}")
    m, n = int(header["m"]), int(header["n"])
    theta, r, s = int(header["theta"]), int(header["r"]), int(header["s"])
    cfg = GenConfig(
        m=m,
        n=n,
        theta=theta,
        r=r,
        s=s,
        sensing_kind=header["sensing_kind"],
        planted_alphabet=tuple(float(t) for t in header["planted_alphabet"].split(",")),
        guess_density=float(header["guess_density"]),
        support_mode=header["support_mode"],
        guess_law=header.get("guess_law", "ternary"),
        master_seed=int(header["master_seed"]),
    )
    A = BlockSensingMatrix(blocks=tuple(matrices[f"A {l + 1}"] for l in range(theta)))
    planted = tuple(int(t) - 1 for t in header["planted_cols"].split(","))
    X = GuessEnsemble(
        blocks=tuple(matrices[f"X {l + 1}"] for l in range(theta)), planted_cols=planted
    )
    support = SupportPattern(
        indices=tuple(int(t) - 1 for t in header["support"].split(",")), n=n, theta=theta
    )
    return RelaxedInstance(
        A=A,
        X=X,
        x=matrices["x"].ravel(),
        support=support,
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
    theta = int(header["theta"])
    A = BlockSensingMatrix(blocks=tuple(matrices[f"A {l + 1}"] for l in range(theta)))
    known = {"kind", "reduction", "m", "n", "theta", "certificate_target"}
    extra = {k: v for k, v in header.items() if k not in known}
    return ReductionRecord(
        reduction=header["reduction"],
        A=A,
        y=matrices["y"].ravel(),
        certificate_target=float(header["certificate_target"]),
        extra=extra,
    )
