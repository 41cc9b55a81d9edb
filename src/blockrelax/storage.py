"""Plain-text containers for instances and reduction outputs.

One file holds a key = value header followed by labelled matrix sections,
each a shape line plus comma-separated rows printed at 17 significant digits
(enough for bit-exact float round-trips).  Indices in files are 1-based.
An instance header is every ``GenConfig`` field in declaration order, the
moments p_x, p_X and nu, the planted columns and the support.  A load reads
exactly the keys and sections a save writes, so saving a loaded container
writes the same bytes; any other key or section, a line with no '=', or a
moment or size that the config or the arrays contradict raises naming it.
"""

from __future__ import annotations

import functools
import io
import math
from dataclasses import dataclass
from typing import get_type_hints

import numpy as np

from .generate import GenConfig
from .model import BlockSensingMatrix, GuessEnsemble, RelaxedInstance, SupportPattern
from .sweep import config_number, config_numbers

__all__ = ["save_instance", "load_instance", "save_reduction", "load_reduction", "ReductionRecord"]

_MAGIC = "blockrelax-container 1"


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


# per GenConfig field type: how a value is written, and how its text is read
# back naming its key; GenConfig itself checks the text of its choice keys
_CODECS = {
    int: (str, config_number),
    float: (_fmt, functools.partial(config_number, kind=float)),
    str: (str, lambda key, text: text),
    tuple[float, ...]: (lambda v: ",".join(map(_fmt, v)), functools.partial(config_numbers, kind=float)),
}
# GenConfig's fields in declaration order, each with its type's codec
_FIELDS = {key: _CODECS[hint] for key, hint in get_type_hints(GenConfig).items()}
# implied by the config; written for readers and checked on load
_MOMENTS = ("p_x", "p_X", "nu")
_INSTANCE_KEYS = (*_FIELDS, *_MOMENTS, "planted_cols", "support")


class _Entries(dict):
    """Header keys or matrix sections of a container; a missing or repeated one raises ValueError naming it."""

    def __init__(self, kind: str):
        super().__init__()
        self.kind = kind

    def __missing__(self, key):
        raise ValueError(f"container has no {self.kind} {key!r}")

    def __setitem__(self, key, value):
        if key in self:
            raise ValueError(f"container {self.kind} {key!r} must not repeat")
        super().__setitem__(key, value)

    def pop(self, key):
        value = self[key]
        del self[key]
        return value


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
            block = []  # grown row by row: a shape line alone must not size an allocation
            for j in range(rows):
                where, row = f"container section {name!r} row {j + 1}", lines[i + j].split(",")
                if len(row) != cols:
                    raise ValueError(f"{where} holds {len(row)} values, not {cols}")
                try:
                    values = [float(t) for t in row]
                    if all(map(math.isfinite, values)):
                        block.append(values)
                        continue
                except ValueError:
                    pass
                # parse value by value to name the bad one, as configs do; a
                # non-finite value would slip past the containers' checks
                block.append([config_number(where, t, float, ok=math.isfinite, rule="be finite") for t in row])
            i += rows
            matrices[name] = np.array(block).reshape(rows, cols)
        else:
            k, eq, v = line.partition("=")
            if not eq:
                raise ValueError(f"container line {i}: expected key = value, got {line!r}")
            header[k.strip()] = v.strip()
    return header, matrices


def _write(path: str, kind: str, header: dict, sections: dict) -> None:
    """The container of ``kind``: its header as key = value lines, then each named section."""
    out = io.StringIO()
    out.write(f"{_MAGIC}\nkind = {kind}\n")
    for k, v in header.items():
        out.write(f"{k} = {v}\n")
    for name, a in sections.items():
        a = np.atleast_2d(np.asarray(a, dtype=float))
        out.write(f"[{name}] {a.shape[0]} {a.shape[1]}\n")
        for row in a:
            out.write(",".join(_fmt(v) for v in row) + "\n")
    with open(path, "w") as fh:
        fh.write(out.getvalue())


def _read(path: str, kind: str):
    """Header (without its kind) and sections of the container at ``path``, which must be of ``kind``."""
    with open(path) as fh:
        header, matrices = _parse(fh.read())
    found = header.get("kind")
    if found != kind:
        raise ValueError(f"expected {'an' if kind == 'instance' else 'a'} {kind} container, got kind={found}")
    del header["kind"]
    return header, matrices


def _blocks(name: str, blocks) -> dict:
    return {f"{name} {l + 1}": b for l, b in enumerate(blocks)}


def _sections(matrices: dict, theta: int, blocks: tuple[str, ...], *tail: str) -> list[np.ndarray]:
    """Sections ``b 1`` .. ``b theta`` for each b in ``blocks``, then ``tail``; an unknown, then a missing one raises.

    Block numbers are read from the file's names, so the work follows its sections, not its header's theta.
    """
    for name in matrices:
        b, _, l = name.partition(" ")
        if name not in tail and not (b in blocks and l.isascii() and l.isdigit() and l[0] != "0" and int(l) <= theta):
            raise ValueError(f"container has unknown section {name!r}")
    return [matrices[f"{b} {l + 1}"] for b in blocks for l in range(theta)] + [matrices[name] for name in tail]


def _agree(key: str, written, found, where: str = "its arrays have") -> None:
    # a saved container writes back what it holds, so its header must describe it
    if written != found:
        raise ValueError(f"container header has {key} = {written}, but {where} {key} = {found}")


def save_instance(instance: RelaxedInstance, path: str) -> None:
    cfg = instance.config
    if cfg is None:
        raise ValueError("instance carries no generation config; cannot serialize")
    header = {key: write(getattr(cfg, key)) for key, (write, _) in _FIELDS.items()}
    header.update((key, _fmt(getattr(cfg, key))) for key in _MOMENTS)
    # 1-based on disk
    header["planted_cols"] = ",".join(str(k + 1) for k in instance.X.planted_cols)
    header["support"] = ",".join(str(i + 1) for i in instance.support.indices)
    blocks = {**_blocks("A", instance.A.blocks), **_blocks("X", instance.X.blocks)}
    _write(path, "instance", header, {**blocks, "x": instance.x, "y": instance.y})


def load_instance(path: str) -> RelaxedInstance:
    """The instance of a container; a header key or section that a save would not write back raises naming it."""
    header, matrices = _read(path, "instance")
    unknown = [key for key in header if key not in _INSTANCE_KEYS]
    if unknown:
        raise ValueError(f"container has unknown key {unknown[0]!r}")
    cfg = GenConfig(**{key: read(key, header[key]) for key, (_, read) in _FIELDS.items()})
    for key in _MOMENTS:
        _agree(key, config_number(key, header[key], float), getattr(cfg, key), "its config gives")
    theta = cfg.theta
    *blocks, x, y = _sections(matrices, theta, ("A", "X"), "x", "y")
    A = BlockSensingMatrix(blocks=tuple(blocks[:theta]))
    X = GuessEnsemble(
        blocks=tuple(blocks[theta:]),
        planted_cols=tuple(k - 1 for k in config_numbers("planted_cols", header["planted_cols"])),
    )
    indices = tuple(i - 1 for i in config_numbers("support", header["support"]))
    for key, found in (("m", A.m), ("n", A.n), ("r", X.r)):
        _agree(key, getattr(cfg, key), found)
    if cfg.s * theta != len(indices):
        raise ValueError(f"container header has s*theta = {cfg.s * theta}, but its support has {len(indices)} indices")
    return RelaxedInstance(A, X, x.ravel(), SupportPattern(indices, cfg.n, theta), y.ravel(), config=cfg)


@dataclass(frozen=True)
class ReductionRecord:
    """A reduction output: matrix, right-hand side, and the decision threshold."""

    reduction: str
    A: BlockSensingMatrix
    y: np.ndarray
    certificate_target: float
    extra: dict


def save_reduction(record: ReductionRecord, path: str) -> None:
    A = record.A
    header = {"reduction": record.reduction, "m": A.m, "n": A.n, "theta": A.theta,
              "certificate_target": _fmt(record.certificate_target), **record.extra}
    _write(path, "reduction", header, {**_blocks("A", A.blocks), "y": record.y})


def load_reduction(path: str) -> ReductionRecord:
    """The record of a reduction container; every header key past the ones a save derives is ``extra``.

    A section other than the blocks ``A 1`` .. ``A theta`` and ``y`` raises naming it.
    """
    header, matrices = _read(path, "reduction")
    reduction = header.pop("reduction")
    theta = config_number("theta", header.pop("theta"))
    *blocks, y = _sections(matrices, theta, ("A",), "y")
    A = BlockSensingMatrix(blocks=tuple(blocks))
    for key, found in (("m", A.m), ("n", A.n)):
        _agree(key, config_number(key, header.pop(key)), found)
    target = config_number("certificate_target", header.pop("certificate_target"), float)
    return ReductionRecord(reduction, A, y.ravel(), target, extra=dict(header))
