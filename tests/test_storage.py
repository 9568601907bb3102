"""Round-trip and corruption tests for the on-disk formats."""
import ast
import csv
import hashlib
import os
import struct
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import fedzkp
from fedzkp.gf2 import BitVec, mat_vec_mul
from fedzkp.lpn import XlpnParams, gen_instance
from fedzkp.model import ModelState, RoundRecord, DetectionReport, init_model, make_embedding
from fedzkp.storage import (
    KIND_PUBLIC_INPUT,
    MAGIC,
    aggregate_to_bytes,
    load_aggregate,
    load_checkpoint,
    load_credential,
    load_embedding_config,
    load_public_input,
    load_watermark,
    save_aggregate,
    save_checkpoint,
    save_credential,
    save_embedding_config,
    save_history,
    save_public_input,
    save_watermark,
)
from fedzkp.watermark import aggregate, canonical_bytes, hash_watermark

PARAMS = XlpnParams(m=48, l=32, tau=Fraction(1, 4))
SIZES = (PARAMS.m, PARAMS.l, PARAMS.w)  # what a loader reports beside the object
HEAD = 8 + 9  # magic and kind byte, then the FEDZKP-H3 tag of a statement file


@pytest.fixture
def rng():
    return np.random.default_rng(7)


class TestCredentialFiles:
    def test_round_trip(self, tmp_path, rng):
        pub, cred = gen_instance(PARAMS, rng)
        path = tmp_path / "cred.bin"
        save_credential(path, cred, PARAMS)
        back, sizes = load_credential(path)
        assert sizes == SIZES
        assert back.s == cred.s and back.e == cred.e

    def test_magic_present(self, tmp_path, rng):
        _, cred = gen_instance(PARAMS, rng)
        path = tmp_path / "cred.bin"
        save_credential(path, cred, PARAMS)
        assert path.read_bytes()[:7] == MAGIC

    def test_rejects_wrong_kind(self, tmp_path, rng):
        pub, cred = gen_instance(PARAMS, rng)
        path = tmp_path / "x.bin"
        save_public_input(path, pub, PARAMS)
        with pytest.raises(ValueError, match="kind"):
            load_credential(path)

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a real file at all")
        with pytest.raises(ValueError, match="FEDZKP"):
            load_credential(path)

    def test_rejects_truncation(self, tmp_path, rng):
        _, cred = gen_instance(PARAMS, rng)
        path = tmp_path / "cred.bin"
        save_credential(path, cred, PARAMS)
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(ValueError, match="truncated"):
            load_credential(path)

    def test_rejects_trailing_bytes(self, tmp_path, rng):
        _, cred = gen_instance(PARAMS, rng)
        path = tmp_path / "cred.bin"
        save_credential(path, cred, PARAMS)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ValueError, match="trailing"):
            load_credential(path)

    def test_rejects_tampered_weight_field(self, tmp_path, rng):
        _, cred = gen_instance(PARAMS, rng)
        path = tmp_path / "cred.bin"
        save_credential(path, cred, PARAMS)
        data = bytearray(path.read_bytes())
        data[8 + 4 + 4] ^= 0xFF  # weight field inside the (m, l, w) header
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError):
            load_credential(path)


class TestPublicInputFiles:
    def test_round_trip_still_validates(self, tmp_path, rng):
        pub, cred = gen_instance(PARAMS, rng)
        path = tmp_path / "pub.bin"
        save_public_input(path, pub, PARAMS)
        back, sizes = load_public_input(path)
        assert back == pub and back.w == PARAMS.w and sizes == SIZES
        assert back.y == mat_vec_mul(back.A, cred.s) ^ cred.e

    def test_file_never_contains_credential(self, tmp_path, rng):
        # a weight-w noise pattern must not be findable in the public file
        pub, cred = gen_instance(PARAMS, rng)
        path = tmp_path / "pub.bin"
        save_public_input(path, pub, PARAMS)
        blob = path.read_bytes()
        assert cred.s.to_bytes() not in blob[20:]
        assert cred.e.to_bytes() not in blob[20:]


    def test_dimension_mismatch_rejected(self, tmp_path, rng):
        pub, _ = gen_instance(PARAMS, rng)
        with pytest.raises(ValueError, match="dimensions"):
            save_public_input(tmp_path / "pub.bin", pub, XlpnParams(m=48, l=24, tau=Fraction(1, 4)))

    def test_the_file_is_a_one_client_statement(self, tmp_path, rng):
        pub, _ = gen_instance(PARAMS, rng)
        save_public_input(tmp_path / "pub.bin", pub, PARAMS)
        assert (tmp_path / "pub.bin").read_bytes()[8:] == canonical_bytes(aggregate([pub]))

    def test_a_two_client_statement_is_refused(self, tmp_path, rng):
        agg = aggregate([gen_instance(PARAMS, rng)[0] for _ in range(2)])
        path = tmp_path / "pub.bin"
        blob = aggregate_to_bytes(agg)
        path.write_bytes(MAGIC + bytes([KIND_PUBLIC_INPUT]) + blob[8:])
        with pytest.raises(ValueError, match="2 client inputs"):
            load_public_input(path)


class TestAggregateFiles:
    def test_round_trip_preserves_watermark(self, tmp_path, rng):
        parts = [gen_instance(PARAMS, rng)[0] for _ in range(4)]
        agg = aggregate(parts)
        path = tmp_path / "agg.bin"
        save_aggregate(path, agg, PARAMS)
        back, params = load_aggregate(path)
        assert len(back.parts) == 4
        assert hash_watermark(back, 64) == hash_watermark(agg, 64)

    def test_dimension_mismatch_rejected(self, tmp_path, rng):
        parts = [gen_instance(PARAMS, rng)[0] for _ in range(2)]
        agg = aggregate(parts)
        other = XlpnParams(m=48, l=24, tau=Fraction(1, 4))
        with pytest.raises(ValueError, match="dimensions"):
            save_aggregate(tmp_path / "agg.bin", agg, other)

    def test_round_trip_keeps_the_statement(self, tmp_path, rng):
        agg = aggregate([gen_instance(PARAMS, rng)[0] for _ in range(3)])
        save_aggregate(tmp_path / "agg.bin", agg, PARAMS)
        back, sizes = load_aggregate(tmp_path / "agg.bin")
        assert back == agg and back.w == PARAMS.w and sizes == SIZES

    def test_the_file_holds_the_bytes_the_watermark_hashes(self, tmp_path, rng):
        agg = aggregate([gen_instance(PARAMS, rng)[0] for _ in range(3)])
        save_aggregate(tmp_path / "agg.bin", agg, PARAMS)
        body = (tmp_path / "agg.bin").read_bytes()[8:]
        assert body == canonical_bytes(agg)
        for n in (61, 64, 1024):
            digest = hashlib.shake_256(body).digest((n + 7) // 8)
            bits = np.unpackbits(np.frombuffer(digest, dtype=np.uint8), count=n)
            assert np.array_equal(hash_watermark(agg, n).h.bits, bits)

    def test_two_taus_that_round_to_one_weight_write_one_file(self, tmp_path, rng):
        same_w = XlpnParams(m=48, l=32, tau=Fraction(6, 25))
        assert same_w.w == PARAMS.w and same_w.tau != PARAMS.tau
        agg = aggregate([gen_instance(PARAMS, rng)[0] for _ in range(3)])
        save_aggregate(tmp_path / "quarter.bin", agg, PARAMS)
        save_aggregate(tmp_path / "six_25ths.bin", agg, same_w)
        assert (tmp_path / "quarter.bin").read_bytes() == (tmp_path / "six_25ths.bin").read_bytes()


# a header whose w differs from the object's would relabel the statement
OTHER_W = XlpnParams(m=48, l=32, tau=Fraction(1, 3))


@pytest.mark.parametrize("write", [
    lambda path, pub: save_public_input(path, pub, OTHER_W),
    lambda path, pub: save_aggregate(path, aggregate([pub]), OTHER_W),
], ids=["public_input", "aggregate"])
def test_a_header_with_another_weight_is_refused(tmp_path, rng, write):
    pub, _ = gen_instance(PARAMS, rng)
    with pytest.raises(ValueError, match="weight"):
        write(tmp_path / "file.bin", pub)
    assert not (tmp_path / "file.bin").exists()


# every file kind that opens with an (m, l, w) header: (writer, loader,
# offset of w in the file)
WRITERS = {
    "credential": (lambda path, pub, cred: save_credential(path, cred, PARAMS),
                   load_credential, 8 + 8),
    "public_input": (lambda path, pub, cred: save_public_input(path, pub, PARAMS),
                     load_public_input, HEAD + 12),
    "aggregate": (lambda path, pub, cred: save_aggregate(path, aggregate([pub]), PARAMS),
                  load_aggregate, HEAD + 12),
}


class TestParameterHeaders:
    def saved(self, tmp_path, rng, kind):
        path = tmp_path / "file.bin"
        WRITERS[kind][0](path, *gen_instance(PARAMS, rng))
        return path, WRITERS[kind][1]

    @pytest.mark.parametrize("kind", sorted(WRITERS))
    def test_short_header_is_a_value_error(self, tmp_path, rng, kind):
        path, load = self.saved(tmp_path, rng, kind)
        path.write_bytes(path.read_bytes()[:20])
        with pytest.raises(ValueError, match="truncated"):
            load(path)

    @pytest.mark.parametrize("kind", sorted(WRITERS))
    def test_a_weight_above_half_m_is_a_value_error(self, tmp_path, rng, kind):
        path, load = self.saved(tmp_path, rng, kind)
        at = WRITERS[kind][2]
        data = path.read_bytes()
        path.write_bytes(data[:at] + struct.pack("<I", PARAMS.m // 2 + 1) + data[at + 4:])
        with pytest.raises(ValueError, match="weight"):
            load(path)

    @pytest.mark.parametrize("kind", sorted(WRITERS))
    def test_an_old_tau_header_is_refused_by_kind(self, tmp_path, rng, kind):
        # the layout before: kinds 1-3, then m, l, tau as a fraction and w
        pub, cred = gen_instance(PARAMS, rng)
        old_kind, body = {"credential": (1, cred.s.to_bytes() + cred.e.to_bytes()),
                          "public_input": (2, np.packbits(pub.A.array).tobytes() + pub.y.to_bytes()),
                          "aggregate": (3, struct.pack("<I", 1) + np.packbits(pub.A.array).tobytes()
                                        + pub.y.to_bytes())}[kind]
        path = tmp_path / "old.bin"
        path.write_bytes(MAGIC + bytes([old_kind])
                         + struct.pack("<IIQQI", PARAMS.m, PARAMS.l, 1, 4, PARAMS.w) + body)
        with pytest.raises(ValueError, match=f"wrong file kind {old_kind}, expected"):
            WRITERS[kind][1](path)

    @pytest.mark.parametrize("kind", ["public_input", "aggregate"])
    def test_a_statement_that_carries_its_matrices_is_refused_by_kind(self, tmp_path, rng, kind):
        # the layout before seeds: kinds 6 and 7, then "FEDZKP-H2", (K, m, l, w),
        # every A bit and every y bit
        pub, _ = gen_instance(PARAMS, rng)
        old_kind = {"public_input": 6, "aggregate": 7}[kind]
        path = tmp_path / "old.bin"
        path.write_bytes(MAGIC + bytes([old_kind]) + b"FEDZKP-H2"
                         + struct.pack("<IIII", 1, PARAMS.m, PARAMS.l, PARAMS.w)
                         + np.packbits(pub.A.array).tobytes() + pub.y.to_bytes())
        with pytest.raises(ValueError, match=f"wrong file kind {old_kind}, expected"):
            WRITERS[kind][1](path)


class TestWatermarkFiles:
    def test_round_trip(self, tmp_path, rng):
        parts = [gen_instance(PARAMS, rng)[0] for _ in range(3)]
        wm = hash_watermark(aggregate(parts), 96)
        path = tmp_path / "wm.json"
        save_watermark(path, wm)
        back = load_watermark(path)
        assert back.n == 96 and back.h == wm.h

    def test_stored_as_hex_text(self, tmp_path, rng):
        parts = [gen_instance(PARAMS, rng)[0] for _ in range(3)]
        wm = hash_watermark(aggregate(parts), 64)
        path = tmp_path / "wm.json"
        save_watermark(path, wm)
        text = path.read_text()
        assert '"n": 64' in text
        assert wm.h.to_bytes().hex() in text


class TestCheckpoints:
    def test_round_trip_bitwise(self, tmp_path, rng):
        state = init_model(64, rng, d_in=8, classes=5)
        path = tmp_path / "model.bin"
        save_checkpoint(path, state)
        back = load_checkpoint(path)
        assert (back.d_in, back.omega, back.classes) == (8, 64, 5)
        assert np.array_equal(back.theta, state.theta)
        assert np.array_equal(back.W_gamma, state.W_gamma)
        # float32 weights after the header and its width byte
        assert back.theta.dtype == back.W_gamma.dtype == np.float32
        assert path.stat().st_size == 8 + 28 + 1 + 4 * (state.theta.size + 64)

    def test_rejects_width_mismatch(self, tmp_path, rng):
        state = init_model(64, rng, d_in=8, classes=5)
        path = tmp_path / "model.bin"
        save_checkpoint(path, state)
        data = bytearray(path.read_bytes())
        data[8 + 4] ^= 0x01  # declared width field
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError):
            load_checkpoint(path)

    def test_rejects_weight_length_off_the_layout(self, tmp_path, rng):
        # header and payload agree with each other, but not with the layout
        # that d_in, omega and classes imply
        state = init_model(64, rng, d_in=8, classes=5)
        short = ModelState(state.d_in, state.omega, state.classes,
                           state.theta[:-1].copy(), state.W_gamma)
        path = tmp_path / "model.bin"
        save_checkpoint(path, short)
        with pytest.raises(ValueError, match="layout"):
            load_checkpoint(path)

    def test_a_float64_checkpoint_is_refused(self, tmp_path, rng):
        # the layout before the width byte: header, then float64 payloads
        state = init_model(64, rng, d_in=8, classes=5)
        path = tmp_path / "model.bin"
        path.write_bytes(MAGIC + bytes([4])
                         + struct.pack("<IIIQQ", 8, 64, 5, state.theta.size, 64)
                         + state.theta.astype("<f8").tobytes()
                         + state.W_gamma.astype("<f8").tobytes())
        with pytest.raises(ValueError, match="8-byte floats"):
            load_checkpoint(path)

    def test_rejects_another_float_width(self, tmp_path, rng):
        state = init_model(64, rng, d_in=8, classes=5)
        path = tmp_path / "model.bin"
        save_checkpoint(path, state)
        data = bytearray(path.read_bytes())
        data[8 + 28] = 2  # the width byte after the header
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="2-byte floats"):
            load_checkpoint(path)

    def test_loaded_arrays_are_writable(self, tmp_path, rng):
        state = init_model(32, rng, d_in=4, classes=3)
        path = tmp_path / "model.bin"
        save_checkpoint(path, state)
        back = load_checkpoint(path)
        back.theta[0] = 123.0  # frombuffer views would blow up here
        assert back.theta[0] == 123.0


class TestEmbeddingConfigFiles:
    def test_seed_regenerates_identical_directions(self, tmp_path):
        path = tmp_path / "embed.json"
        save_embedding_config(path, omega=128, n=32, seed=99, lam=2.0, mu_hinge=1.5)
        a = load_embedding_config(path)
        b = load_embedding_config(path)
        assert np.array_equal(a.E, b.E)
        assert a.lam == 2.0 and a.mu_hinge == 1.5
        reference = make_embedding(128, 32, np.random.default_rng(99),
                                   lam=2.0, mu_hinge=1.5)
        assert np.array_equal(a.E, reference.E)

    def test_directions_not_in_file(self, tmp_path):
        path = tmp_path / "embed.json"
        save_embedding_config(path, omega=512, n=256, seed=1, lam=1.0, mu_hinge=0.5)
        assert path.stat().st_size < 200


class TestHistoryFiles:
    def test_round_trip(self, tmp_path):
        history = [
            RoundRecord(round=1, report=DetectionReport(r=0.5, err=16), accuracy=0.25),
            RoundRecord(round=2, report=DetectionReport(r=1.0, err=0), accuracy=0.875),
        ]
        path = tmp_path / "history.csv"
        save_history(path, history)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows == [["round", "r", "accuracy"],
                        ["1", "0.500000", "0.250000"], ["2", "1.000000", "0.875000"]]

    def test_header_checked(self, tmp_path):
        # the header row is written even when there is no round to record
        path = tmp_path / "history.csv"
        save_history(path, [])
        with open(path, newline="") as fh:
            assert list(csv.reader(fh)) == [["round", "r", "accuracy"]]


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def saved_kinds(rng):
    """Every kind of file the package writes: a saver and a check that
    the file reads back as what was saved."""
    pub, cred = gen_instance(PARAMS, rng)
    agg = aggregate([pub, gen_instance(PARAMS, rng)[0]])
    wm = hash_watermark(agg, 64)
    state = init_model(64, rng, d_in=8, classes=5)
    embed = make_embedding(128, 32, np.random.default_rng(99), lam=2.0, mu_hinge=1.5)
    history = [RoundRecord(round=1, report=DetectionReport(r=0.5, err=16), accuracy=0.25)]

    def same_state(path):
        back = load_checkpoint(path)
        return (np.array_equal(back.theta, state.theta)
                and np.array_equal(back.W_gamma, state.W_gamma))

    return {
        "credential": (lambda path: save_credential(path, cred, PARAMS),
                       lambda path: load_credential(path) == (cred, SIZES)),
        "public_input": (lambda path: save_public_input(path, pub, PARAMS),
                         lambda path: load_public_input(path) == (pub, SIZES)),
        "aggregate": (lambda path: save_aggregate(path, agg, PARAMS),
                      lambda path: load_aggregate(path) == (agg, SIZES)),
        "checkpoint": (lambda path: save_checkpoint(path, state), same_state),
        "watermark": (lambda path: save_watermark(path, wm),
                      lambda path: load_watermark(path) == wm),
        "embedding_config": (
            lambda path: save_embedding_config(path, omega=128, n=32, seed=99,
                                               lam=2.0, mu_hinge=1.5),
            lambda path: np.array_equal(load_embedding_config(path).E, embed.E)),
        "history": (lambda path: save_history(path, history),
                    lambda path: _rows(path) == [["round", "r", "accuracy"],
                                                 ["1", "0.500000", "0.250000"]]),
    }


KINDS = sorted(saved_kinds(np.random.default_rng(0)))


class TestRewrites:
    """A rewrite overwrites the file in place and cuts any old tail."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_a_shorter_rewrite_cuts_the_old_tail(self, tmp_path, rng, kind):
        save, reads_back = saved_kinds(rng)[kind]
        fresh, path = tmp_path / "fresh", tmp_path / "file"
        save(fresh)
        path.write_bytes(b"\xff" * (fresh.stat().st_size + 4096))
        save(path)
        assert reads_back(path)
        assert path.read_bytes() == fresh.read_bytes()

    @pytest.mark.parametrize("kind", KINDS)
    def test_a_rewrite_keeps_the_inode_and_never_truncates(self, tmp_path, rng,
                                                           monkeypatch, kind):
        save, reads_back = saved_kinds(rng)[kind]
        path = tmp_path / "file"
        save(path)
        inode = path.stat().st_ino
        flags, real_open = [], os.open

        def spy(file, flag, *args, **kwargs):
            flags.append(flag)
            return real_open(file, flag, *args, **kwargs)

        monkeypatch.setattr(os, "open", spy)
        save(path)
        monkeypatch.undo()
        assert flags and not any(flag & os.O_TRUNC for flag in flags)
        assert path.stat().st_ino == inode
        assert reads_back(path)

    def test_short_writes_are_resumed(self, tmp_path, rng, monkeypatch):
        save, reads_back = saved_kinds(rng)["aggregate"]
        fresh, path = tmp_path / "fresh", tmp_path / "file"
        save(fresh)
        real_write = os.write
        monkeypatch.setattr(os, "write", lambda fd, data: real_write(fd, data[:100]))
        save(path)
        monkeypatch.undo()
        assert path.read_bytes() == fresh.read_bytes()
        assert reads_back(path)


def _file_write(call: ast.Call):
    """What `call` writes a file with, or None when it writes none."""
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    if name in ("write_text", "write_bytes"):
        return name
    if name != "open":
        return None
    if isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "os":
        return "os.open"  # flags, not a mode: only the one writer may call it
    at = 1 if isinstance(func, ast.Name) else 0  # open(path, mode) or path.open(mode)
    mode = next((kw.value for kw in call.keywords if kw.arg == "mode"),
                call.args[at] if len(call.args) > at else None)
    if mode is None:
        return None
    if isinstance(mode, ast.Constant) and not set(str(mode.value)) & set("wax+"):
        return None
    return f"open({ast.unparse(mode)})"


def file_writes(source: str):
    """(enclosing function, how) for each call in `source` that writes a file."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and (how := _file_write(child)):
                found.append((func, how))
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else func
            visit(child, inner)

    visit(ast.parse(source), None)
    return found


def test_every_file_is_written_by_the_one_writer():
    # the transcript append frees no block, so it keeps its own open
    allowed = [("protocol.py", "_run", "open('a')"), ("storage.py", "_write", "os.open")]
    src = Path(fedzkp.__file__).resolve().parent
    writes = sorted((path.name, func, how) for path in src.glob("*.py")
                    for func, how in file_writes(path.read_text()))
    assert writes == allowed


def test_the_scan_sees_each_way_of_writing():
    source = """
def f(p):
    p.write_text("x")
    open(p, "wb")
    p.open(mode="a")
    open(p, mode)
    os.open(p, os.O_RDONLY)
    open(p)
    p.open("rb")
"""
    assert [how for _, how in file_writes(source)] == [
        "write_text", "open('wb')", "open('a')", "open(mode)", "os.open"]
