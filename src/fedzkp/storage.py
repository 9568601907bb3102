"""File formats for credentials, public inputs, aggregates, watermarks,
model checkpoints and training history.

Binary files share a layout: the 7-byte magic ``FEDZKP1``, a kind byte,
a fixed little-endian header, then raw payload bytes.  Bit payloads use
the gf2 packing (8 bits per byte, matrices row-major).  Float payloads
are flat little-endian float32, the model's own width, so a verifier
extracts the mark from the values training left; a checkpoint's header
records that width, and a float64 checkpoint from before it is refused.
Every malformed input raises ValueError.  The aggregate bytes are also
the protocol's AGG_INPUT payload, so aggregate_to_bytes and
aggregate_from_bytes hold its layout for both.  A loaded public input
takes its weight w from the header, which must agree with the stored
tau; a writer refuses parameters that disagree with the instance's m, l
or w, and a loaded aggregate passes watermark.aggregate's checks.

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
from fractions import Fraction
from pathlib import Path
from typing import Union

import numpy as np

from .gf2 import BitMatrix, BitVec
from .lpn import Credential, PublicInput, XlpnParams
from .model import DTYPE, EmbeddingConfig, ModelState, _theta_layout, make_embedding
from .watermark import AggregatedInput, HashWatermark, aggregate

MAGIC = b"FEDZKP1"

KIND_CREDENTIAL = 1
KIND_PUBLIC_INPUT = 2
KIND_AGGREGATE = 3
KIND_CHECKPOINT = 4

_PARAMS = struct.Struct("<IIQQI")  # m, l, tau numerator/denominator, w
# d_in, omega, classes, theta and W_gamma lengths; then one byte, the float width
_CHECKPOINT = struct.Struct("<IIIQQ")
_FLOAT = np.dtype(DTYPE).newbyteorder("<")

PathLike = Union[str, Path]


def _vec_bytes(n: int) -> int:
    return (n + 7) // 8


def _mat_bytes(m: int, l: int) -> int:
    return (m * l + 7) // 8


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


def _pack_params(params: XlpnParams) -> bytes:
    return _PARAMS.pack(params.m, params.l, params.tau.numerator,
                        params.tau.denominator, params.w)


def _unpack_params(view: memoryview) -> tuple:
    raw, view = _expect(view, _PARAMS.size, "parameter header")
    m, l, num, den, w = _PARAMS.unpack(raw)
    if den == 0:
        raise ValueError("stored noise rate has denominator 0")
    params = XlpnParams(m, l, Fraction(num, den))
    if params.w != w:
        raise ValueError("stored weight disagrees with stored noise rate")
    return params, view


def _check_fits(m: int, l: int, w: int, params: XlpnParams, what: str):
    # a header that disagrees with its payload would relabel the statement
    if (m, l) != (params.m, params.l):
        raise ValueError(f"{what} dimensions disagree with the parameters")
    if w != params.w:
        raise ValueError(f"{what} weight disagrees with the parameters")


def _part_bytes(pub: PublicInput) -> bytes:
    return pub.A.to_bytes() + pub.y.to_bytes()


def _read_part(view: memoryview, params: XlpnParams) -> tuple:
    a_raw, view = _expect(view, _mat_bytes(params.m, params.l), "matrix")
    y_raw, view = _expect(view, _vec_bytes(params.m), "image vector")
    pub = PublicInput(BitMatrix.from_bytes(a_raw, params.m, params.l),
                      BitVec.from_bytes(y_raw, params.m), params.w)
    return pub, view


def _expect(view: memoryview, size: int, what: str) -> tuple:
    if len(view) < size:
        raise ValueError(f"truncated file: missing {what}")
    return bytes(view[:size]), view[size:]


def _done(view: memoryview, path: PathLike):
    if len(view):
        raise ValueError(f"{path}: {len(view)} trailing bytes")


def save_credential(path: PathLike, cred: Credential, params: XlpnParams):
    body = cred.s.to_bytes() + cred.e.to_bytes()
    _write(path, MAGIC + bytes([KIND_CREDENTIAL]) + _pack_params(params) + body)


def load_credential(path: PathLike) -> tuple:
    view = _view(Path(path).read_bytes(), KIND_CREDENTIAL, path)
    params, view = _unpack_params(view)
    s_raw, view = _expect(view, _vec_bytes(params.l), "secret")
    e_raw, view = _expect(view, _vec_bytes(params.m), "noise")
    _done(view, path)
    cred = Credential(s=BitVec.from_bytes(s_raw, params.l),
                      e=BitVec.from_bytes(e_raw, params.m))
    if cred.e.weight() != params.w:
        raise ValueError("stored noise vector has the wrong weight")
    return cred, params


def save_public_input(path: PathLike, pub: PublicInput, params: XlpnParams):
    _check_fits(pub.A.rows, pub.A.cols, pub.w, params, "public input")
    _write(path, MAGIC + bytes([KIND_PUBLIC_INPUT]) + _pack_params(params) + _part_bytes(pub))


def load_public_input(path: PathLike) -> tuple:
    view = _view(Path(path).read_bytes(), KIND_PUBLIC_INPUT, path)
    params, view = _unpack_params(view)
    pub, view = _read_part(view, params)
    _done(view, path)
    return pub, params


def aggregate_to_bytes(agg: AggregatedInput, params: XlpnParams) -> bytes:
    _check_fits(agg.m, agg.l, agg.w, params, "aggregate")
    return b"".join([MAGIC, bytes([KIND_AGGREGATE]), _pack_params(params),
                     struct.pack("<I", len(agg.parts)), *map(_part_bytes, agg.parts)])


def aggregate_from_bytes(data: bytes, name) -> tuple:
    view = _view(data, KIND_AGGREGATE, name)
    params, view = _unpack_params(view)
    raw, view = _expect(view, 4, "client count")
    (count,) = struct.unpack("<I", raw)
    parts = []
    for _ in range(count):
        pub, view = _read_part(view, params)
        parts.append(pub)
    _done(view, name)
    return aggregate(parts), params


def save_aggregate(path: PathLike, agg: AggregatedInput, params: XlpnParams):
    _write(path, aggregate_to_bytes(agg, params))


def load_aggregate(path: PathLike) -> tuple:
    return aggregate_from_bytes(Path(path).read_bytes(), path)


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
