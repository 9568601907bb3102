"""File formats for credentials, public inputs, aggregates, watermarks,
model checkpoints and training history.

Binary files share a layout: the 7-byte magic ``FEDZKP1``, a kind byte,
then the body.  A public input's or an aggregate's body is the
statement's canonical bytes, a K=1 statement for a public input: the
bytes the watermark hash reads, laid out and parsed by watermark alone.
The aggregate file is also the protocol's AGG_INPUT payload.  A
credential is a little-endian (m, l, w) header and the packed s and e.
No file carries tau, which is only keygen's recipe for w, and no file
carries a matrix, only the seed it expands from; files whose header
carried tau (kinds 1 to 3) or whose statement carried every A bit
(kinds 6 and 7) are refused by kind.  Bit payloads use the gf2 packing
(8 bits per byte).  Float payloads are
flat little-endian float32, the model's own width, so a verifier
extracts the mark from the values training left; a checkpoint's header
records that width, and a float64 checkpoint from before it is refused.
Every malformed input raises ValueError.  A writer refuses parameters
that disagree with the object's m, l or w, and a loader returns the
object with its (m, l, w).

Credentials are secrets; they get their own file kind and never appear
inside public-input, aggregate or watermark files.  The embedding
directions are not stored at all: the config file keeps the RNG seed
they were drawn from, which is smaller and tamper-evident in one value;
the float32 E regrown from it is the float64 stream rounded.

Every file goes through _write, which rewrites it in place.  That is not
atomic: a crash mid-rewrite can leave the new head over the old tail.
The loaders refuse the trailing bytes when the new payload is shorter;
at the same length the file loads with mixed contents.
"""
from __future__ import annotations

import json
import os
import struct
from pathlib import Path
from typing import Union

import numpy as np

from .gf2 import BitVec
from .lpn import Credential, PublicInput, XlpnParams
from .model import DTYPE, EmbeddingConfig, ModelState, _theta_layout, make_embedding
from .watermark import (AggregatedInput, HashWatermark, aggregate, canonical_bytes,
                        from_canonical_bytes)

MAGIC = b"FEDZKP1"

KIND_CHECKPOINT = 4
KIND_CREDENTIAL = 5
KIND_PUBLIC_INPUT = 8
KIND_AGGREGATE = 9

_CREDENTIAL = struct.Struct("<III")  # m, l, w
# d_in, omega, classes, theta and W_gamma lengths; then one byte, the float width
_CHECKPOINT = struct.Struct("<IIIQQ")
_FLOAT = np.dtype(DTYPE).newbyteorder("<")

PathLike = Union[str, Path]


def _write(path: PathLike, payload: bytes):
    # no O_TRUNC: freeing blocks already on disk costs tens of ms on a
    # filesystem mounted with discard, and the rewrite would reuse them
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        view = memoryview(payload)
        while view:
            view = view[os.write(fd, view):]
        os.ftruncate(fd, len(payload))
    finally:
        os.close(fd)


def _write_json(path: PathLike, doc: dict, indent=None):
    _write(path, (json.dumps(doc, indent=indent) + "\n").encode())


def _view(data: bytes, kind: int, name) -> memoryview:
    if len(data) < len(MAGIC) + 1 or data[: len(MAGIC)] != MAGIC:
        raise ValueError(f"{name}: not a FEDZKP file")
    if data[len(MAGIC)] != kind:
        raise ValueError(f"{name}: wrong file kind {data[len(MAGIC)]}, expected {kind}")
    return memoryview(data)[len(MAGIC) + 1:]


def _check_fits(m: int, l: int, w: int, params: XlpnParams, what: str):
    # a header that disagrees with its payload would relabel the statement
    if (m, l) != (params.m, params.l):
        raise ValueError(f"{what} dimensions disagree with the parameters")
    if w != params.w:
        raise ValueError(f"{what} weight disagrees with the parameters")


def _expect(view: memoryview, size: int, what: str) -> tuple:
    if len(view) < size:
        raise ValueError(f"truncated file: missing {what}")
    return bytes(view[:size]), view[size:]


def _done(view: memoryview, path: PathLike):
    if len(view):
        raise ValueError(f"{path}: {len(view)} trailing bytes")


def save_credential(path: PathLike, cred: Credential, params: XlpnParams):
    m, l, w = len(cred.e), len(cred.s), cred.e.weight()
    _check_fits(m, l, w, params, "credential")
    _write(path, MAGIC + bytes([KIND_CREDENTIAL]) + _CREDENTIAL.pack(m, l, w)
           + cred.s.to_bytes() + cred.e.to_bytes())


def load_credential(path: PathLike) -> tuple:
    view = _view(Path(path).read_bytes(), KIND_CREDENTIAL, path)
    raw, view = _expect(view, _CREDENTIAL.size, "credential header")
    m, l, w = _CREDENTIAL.unpack(raw)
    s_raw, view = _expect(view, (l + 7) // 8, "secret")
    e_raw, view = _expect(view, (m + 7) // 8, "noise")
    _done(view, path)
    cred = Credential(s=BitVec.from_bytes(s_raw, l), e=BitVec.from_bytes(e_raw, m))
    if cred.e.weight() != w:
        raise ValueError("stored noise vector has the wrong weight")
    return cred, (m, l, w)


def save_public_input(path: PathLike, pub: PublicInput, params: XlpnParams):
    _check_fits(len(pub.y), pub.l, pub.w, params, "public input")
    _write(path, MAGIC + bytes([KIND_PUBLIC_INPUT]) + canonical_bytes(aggregate([pub])))


def load_public_input(path: PathLike) -> tuple:
    agg = from_canonical_bytes(_view(Path(path).read_bytes(), KIND_PUBLIC_INPUT, path))
    if agg.K != 1:
        raise ValueError(f"{path}: holds {agg.K} client inputs, not one")
    return agg.parts[0], (agg.m, agg.l, agg.w)


def aggregate_to_bytes(agg: AggregatedInput) -> bytes:
    return MAGIC + bytes([KIND_AGGREGATE]) + canonical_bytes(agg)


def aggregate_from_bytes(data: bytes, name) -> AggregatedInput:
    return from_canonical_bytes(_view(data, KIND_AGGREGATE, name))


def save_aggregate(path: PathLike, agg: AggregatedInput, params: XlpnParams):
    _check_fits(agg.m, agg.l, agg.w, params, "aggregate")
    _write(path, aggregate_to_bytes(agg))


def load_aggregate(path: PathLike) -> tuple:
    agg = aggregate_from_bytes(Path(path).read_bytes(), path)
    return agg, (agg.m, agg.l, agg.w)


def save_watermark(path: PathLike, wm: HashWatermark):
    _write_json(path, {"n": wm.n, "h": wm.h.to_bytes().hex()})


def load_watermark(path: PathLike) -> HashWatermark:
    doc = json.loads(Path(path).read_text())
    n = int(doc["n"])
    h = BitVec.from_bytes(bytes.fromhex(doc["h"]), n)
    return HashWatermark(h=h, n=n)


def save_checkpoint(path: PathLike, state: ModelState):
    head = _CHECKPOINT.pack(state.d_in, state.omega, state.classes,
                            state.theta.size, state.W_gamma.size)
    body = (np.ascontiguousarray(state.theta, dtype=_FLOAT).tobytes()
            + np.ascontiguousarray(state.W_gamma, dtype=_FLOAT).tobytes())
    _write(path, MAGIC + bytes([KIND_CHECKPOINT]) + head + bytes([_FLOAT.itemsize]) + body)


def load_checkpoint(path: PathLike) -> ModelState:
    view = _view(Path(path).read_bytes(), KIND_CHECKPOINT, path)
    raw, view = _expect(view, _CHECKPOINT.size, "model header")
    d_in, omega, classes, t_len, g_len = _CHECKPOINT.unpack(raw)
    # a file from before the width byte holds float64 weights right
    # after the header, and nothing else
    if len(view) == 8 * (t_len + g_len):
        width = 8
    else:
        raw, view = _expect(view, 1, "float width")
        width = raw[0]
    if width != _FLOAT.itemsize:
        raise ValueError(f"{path}: checkpoint holds {width}-byte floats; "
                         f"this reader takes {_FLOAT.itemsize}-byte {_FLOAT.name} only")
    if g_len != omega:
        raise ValueError("scale vector length disagrees with declared width")
    if t_len != sum(_theta_layout(d_in, omega, classes)[0]):
        raise ValueError("main weight length disagrees with the declared layout")
    t_raw, view = _expect(view, width * t_len, "main weights")
    g_raw, view = _expect(view, width * g_len, "scale vector")
    _done(view, path)
    theta = np.frombuffer(t_raw, dtype=_FLOAT).astype(DTYPE)
    gamma = np.frombuffer(g_raw, dtype=_FLOAT).astype(DTYPE)
    return ModelState(d_in=d_in, omega=omega, classes=classes,
                      theta=theta, W_gamma=gamma)


def save_embedding_config(path: PathLike, omega: int, n: int, seed: int,
                          lam: float, mu_hinge: float):
    """The embedding directions regrow from the seed, so only it is kept."""
    _write_json(path, {"omega": omega, "n": n, "seed": seed, "lam": lam, "mu_hinge": mu_hinge})


def load_embedding_config(path: PathLike) -> EmbeddingConfig:
    doc = json.loads(Path(path).read_text())
    rng = np.random.default_rng(int(doc["seed"]))
    return make_embedding(int(doc["omega"]), int(doc["n"]), rng,
                          lam=float(doc["lam"]), mu_hinge=float(doc["mu_hinge"]))


def save_history(path: PathLike, history) -> None:
    rows = ["round,r,accuracy"] + [f"{rec.round},{rec.report.r:.6f},{rec.accuracy:.6f}"
                                   for rec in history]
    _write(path, "".join(row + "\r\n" for row in rows).encode())  # csv's line ends
