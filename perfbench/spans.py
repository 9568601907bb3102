"""Span tracer for the traced benchmark run (``--trace 1``).

Every traced call becomes a span ``(id, name, start, end, parent, op)``:
``parent`` is the span that was open on the same thread when the call
began, and ``op`` is the benchmark operation it served, such as
``("session", 7)``.  The verifier thread reads the same ``op`` because
the load is a closed loop with one client, so at any moment exactly one
operation is in flight.  Spans stay in memory and are written out when
the run ends.

``instrument`` wraps the public functions of each fedzkp layer in every
module namespace that holds them.  ``sigma``, ``lpn`` and ``protocol``
bind names such as ``mat_vec_mul`` with ``from ... import``, so
patching ``fedzkp.gf2`` alone would miss their calls.  A target a later
refactor removes is skipped and listed in the trace output; its metrics
then read 0.
"""
from __future__ import annotations

import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

WIRE_TYPES = ("HELLO", "AGG_INPUT", "VALIDITY_RESULT", "COMMIT", "CHALLENGE",
              "RESPONSE", "ROUND_RESULT", "SESSION_RESULT", "ERROR")

# Every hinge call would need an extra W_gamma @ E product to count the
# active bits; one call in this many is enough for the ratio.
ACTIVE_RATIO_EVERY = 8


class Tracer:
    """In-memory spans and counters, safe to use from prover and verifier threads."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict = defaultdict(float)
        self.op = ("setup", 0)
        self.missing: list = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._first_seen: set = set()
        self._hinge_calls = 0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, key: str, value: float = 1.0) -> None:
        with self._lock:
            self.counts[(self.op[0], key)] += value

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        sid, parent, op = next(self._ids), (stack[-1] if stack else -1), self.op
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, start, end, parent, op))

    def wrap(self, name: str, fn, after=None):
        """fn traced as a span; after(tracer, args, result, seconds) runs once it closes."""
        def traced(*args, **kwargs):
            stack = self._stack()
            sid, parent, op = next(self._ids), (stack[-1] if stack else -1), self.op
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((sid, name, start, end, parent, op))
            if after is not None:
                after(self, args, result, end - start)
            return result
        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": ["id", "name", "start", "end", "parent",
                                            "op_kind", "op_index"],
                                 "missing_targets": self.missing}) + "\n")
            for sid, name, start, end, parent, (kind, idx) in self.spans:
                fh.write(json.dumps([sid, name, start, end, parent, kind, idx]) + "\n")


# ------------------------------------------------------------- count hooks


def _first_in_image(tr, args, result, seconds):
    # the first membership test on a matrix object pays its elimination
    key = (tr.op, id(args[0]))
    with tr._lock:
        first = key not in tr._first_seen
        tr._first_seen.add(key)
    if first:
        tr.count("gf2.in_image.first_s", seconds)


def _hashed_batch(tr, args, result, seconds):
    tr.count("commitments.bytes_hashed", sum(len(o.d) + len(o.m) for _, o in result))


def _hashed_one(tr, args, result, seconds):
    tr.count("commitments.bytes_hashed", len(result[1].d) + len(result[1].m))


def _hashed_verify(tr, args, result, seconds):
    tr.count("commitments.bytes_hashed", len(args[1]) + len(args[2]))


def _challenge(tr, args, result, seconds):
    tr.count(f"sigma.challenge.c{result.c}")


def _agg_codec(tr, args, result, seconds):
    tr.count("protocol.codec.agg_input_s", seconds)


def _encode_codec(tr, args, result, seconds):
    if args[0].get("type") == "AGG_INPUT":
        tr.count("protocol.codec.agg_input_s", seconds)


def _decode_codec(tr, args, result, seconds):
    if result.get("type") == "AGG_INPUT":
        tr.count("protocol.codec.agg_input_s", seconds)


def _active_ratio(tr, args, result, seconds):
    tr._hinge_calls += 1
    if tr._hinge_calls % ACTIVE_RATIO_EVERY:
        return
    # its own span, so the extra product is not billed to local_update
    with tr.span("trace.overhead"):
        W_gamma, E, h, mu_hinge = args
        t = 2.0 * h.bits.astype(float) - 1.0
        active = int(((mu_hinge - t * (W_gamma @ E)) > 0).sum())
    tr.count("model.hinge.active_bits", active)
    tr.count("model.hinge.sampled_bits", len(h))


# (module, attribute, span name, hook).  Codec functions share one span
# name so protocol.codec.s is their total.
TARGETS = (
    ("gf2", "mat_vec_mul", "gf2.mat_vec_mul", None),
    ("gf2", "in_image", "gf2.in_image", _first_in_image),
    ("gf2", "Permutation.apply", "gf2.permutation_apply", None),
    ("gf2", "Permutation.inverse", "gf2.permutation_inverse", None),
    ("commitments", "commit_batch", "commitments.commit_batch", _hashed_batch),
    ("commitments", "commit", "commitments.commit", _hashed_one),
    ("commitments", "verify_commit", "commitments.verify_commit", _hashed_verify),
    ("sigma", "prover_commit", "sigma.prover_commit", None),
    ("sigma", "cheat_commit", "sigma.cheat_commit", None),
    ("sigma", "prover_respond", "sigma.prover_respond", None),
    ("sigma", "verifier_challenge", "sigma.verifier_challenge", _challenge),
    ("sigma", "verifier_check_round", "sigma.verifier_check_round", None),
    ("protocol", "_encode", "protocol.codec", _encode_codec),
    ("protocol", "_decode", "protocol.codec", _decode_codec),
    ("protocol", "encode_msg1", "protocol.codec", None),
    ("protocol", "decode_msg1", "protocol.codec", None),
    ("protocol", "encode_response", "protocol.codec", None),
    ("protocol", "decode_response", "protocol.codec", None),
    ("protocol", "encode_aggregate", "protocol.codec", _agg_codec),
    ("protocol", "decode_aggregate", "protocol.codec", _agg_codec),
    ("protocol", "ProverSession.start", "protocol.prover_start", None),
    ("protocol", "ProverSession.feed", "protocol.prover_feed", None),
    ("protocol", "VerifierSession.feed", "protocol.verifier_feed", None),
    ("watermark", "hash_watermark", "watermark.hash_watermark", None),
    ("model", "hinge_loss_and_grad", "model.hinge_loss_and_grad", _active_ratio),
    ("model", "local_update", "model.local_update", None),
    ("model", "fedavg", "model.fedavg", None),
    ("model", "extract_from_state", "model.extract_from_state", None),
    ("model", "accuracy", "model.accuracy", None),
    ("lpn", "gen_instance", "lpn.gen_instance", None),
    ("storage", "load_credential", "storage.load_credential", None),
    ("storage", "load_public_input", "storage.load_public_input", None),
    ("storage", "load_aggregate", "storage.load_aggregate", None),
    ("storage", "load_checkpoint", "storage.load_checkpoint", None),
    ("storage", "load_embedding_config", "storage.load_embedding_config", None),
)


@contextmanager
def instrument(tracer: Tracer):
    """Patch every TARGETS function in every fedzkp namespace; undo on exit."""
    undo = []
    try:
        for mod_name, attr, name, hook in TARGETS:
            home = importlib.import_module(f"fedzkp.{mod_name}")
            owner_name, _, fn_name = attr.rpartition(".")
            owner = getattr(home, owner_name) if owner_name else home
            original = getattr(owner, fn_name, None)
            if original is None:
                tracer.missing.append(f"{mod_name}.{attr}")
                continue
            traced = tracer.wrap(name, original, hook)
            if owner_name:  # a method: the class attribute serves every caller
                undo.append((owner, fn_name, original))
                setattr(owner, fn_name, traced)
                continue
            for mod in [m for k, m in sys.modules.items()
                        if k == "fedzkp" or k.startswith("fedzkp.")]:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        undo.append((mod, key, original))
                        setattr(mod, key, traced)
        yield tracer
    finally:
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)


# ------------------------------------------------------------- reduction

# (metric, unit, op kind it is averaged over, statistic, span or counter).
# Statistics: calls and total (inclusive seconds) and self (seconds minus
# child spans) of a span name, or a counter.  Values are per operation of
# the kind named: per measured claim session, per training call, or per
# set-up repetition.
LAYER_METRICS = (
    ("gf2.mat_vec_mul.calls", "count", "session", "calls", "gf2.mat_vec_mul"),
    ("gf2.mat_vec_mul.s", "s", "session", "total", "gf2.mat_vec_mul"),
    ("gf2.in_image.calls", "count", "session", "calls", "gf2.in_image"),
    ("gf2.in_image.s", "s", "session", "total", "gf2.in_image"),
    ("gf2.in_image.first_s", "s", "session", "counter", "gf2.in_image.first_s"),
    ("gf2.permutation_apply.calls", "count", "session", "calls", "gf2.permutation_apply"),
    ("gf2.permutation_apply.s", "s", "session", "total", "gf2.permutation_apply"),
    ("commitments.commit_batch.calls", "count", "session", "calls", "commitments.commit_batch"),
    ("commitments.commit_batch.s", "s", "session", "total", "commitments.commit_batch"),
    ("commitments.verify_commit.calls", "count", "session", "calls", "commitments.verify_commit"),
    ("commitments.verify_commit.s", "s", "session", "total", "commitments.verify_commit"),
    ("commitments.bytes_hashed", "B", "session", "counter", "commitments.bytes_hashed"),
    ("sigma.prover_commit.calls", "count", "session", "calls", "sigma.prover_commit"),
    ("sigma.prover_commit.s", "s", "session", "total", "sigma.prover_commit"),
    ("sigma.cheat_commit.calls", "count", "session", "calls", "sigma.cheat_commit"),
    ("sigma.cheat_commit.s", "s", "session", "total", "sigma.cheat_commit"),
    ("sigma.prover_respond.calls", "count", "session", "calls", "sigma.prover_respond"),
    ("sigma.prover_respond.s", "s", "session", "total", "sigma.prover_respond"),
    ("sigma.verifier_check_round.calls", "count", "session", "calls", "sigma.verifier_check_round"),
    ("sigma.verifier_check_round.s", "s", "session", "total", "sigma.verifier_check_round"),
    ("sigma.challenge.c0", "count", "session", "counter", "sigma.challenge.c0"),
    ("sigma.challenge.c1", "count", "session", "counter", "sigma.challenge.c1"),
    ("sigma.challenge.c2", "count", "session", "counter", "sigma.challenge.c2"),
    ("protocol.codec.s", "s", "session", "total", "protocol.codec"),
    ("protocol.codec.agg_input_s", "s", "session", "counter", "protocol.codec.agg_input_s"),
    ("protocol.prover_feed.calls", "count", "session", "calls", "protocol.prover_feed"),
    ("protocol.prover_feed.s", "s", "session", "total", "protocol.prover_feed"),
    ("protocol.prover_feed.self_s", "s", "session", "self", "protocol.prover_feed"),
    ("protocol.verifier_feed.calls", "count", "session", "calls", "protocol.verifier_feed"),
    ("protocol.verifier_feed.s", "s", "session", "total", "protocol.verifier_feed"),
    ("protocol.verifier_feed.self_s", "s", "session", "self", "protocol.verifier_feed"),
    ("protocol.round_trips", "count", "session", "counter", "protocol.round_trips"),
    ("protocol.socket.wait_s", "s", "session", "total", "protocol.socket.wait"),
    ("protocol.socket.write_s", "s", "session", "total", "protocol.socket.write"),
    *((f"protocol.bytes.{t}", "B", "session", "counter", f"protocol.bytes.{t}")
      for t in WIRE_TYPES),
    ("watermark.hash_watermark.calls", "count", "session", "calls", "watermark.hash_watermark"),
    ("watermark.hash_watermark.s", "s", "session", "total", "watermark.hash_watermark"),
    ("model.hinge_loss_and_grad.calls", "count", "train", "calls", "model.hinge_loss_and_grad"),
    ("model.hinge_loss_and_grad.s", "s", "train", "total", "model.hinge_loss_and_grad"),
    ("model.local_update.calls", "count", "train", "calls", "model.local_update"),
    ("model.local_update.s", "s", "train", "total", "model.local_update"),
    ("model.local_update.self_s", "s", "train", "self", "model.local_update"),
    ("model.fedavg.s", "s", "train", "total", "model.fedavg"),
    ("model.extract_from_state.s", "s", "train", "total", "model.extract_from_state"),
    ("model.accuracy.s", "s", "train", "total", "model.accuracy"),
    ("lpn.gen_instance.calls", "count", "setup", "calls", "lpn.gen_instance"),
    ("lpn.gen_instance.s", "s", "setup", "total", "lpn.gen_instance"),
    ("storage.load_credential.s", "s", "setup", "total", "storage.load_credential"),
    ("storage.load_public_input.s", "s", "setup", "total", "storage.load_public_input"),
    ("storage.load_aggregate.s", "s", "setup", "total", "storage.load_aggregate"),
    ("storage.load_checkpoint.s", "s", "setup", "total", "storage.load_checkpoint"),
    ("storage.load_embedding_config.s", "s", "setup", "total", "storage.load_embedding_config"),
)

# Derived metrics: the sampled hinge ratio; the part of the prover's socket
# time not spent in verifier code (socket I/O, endpoint loop, kernel, thread
# hand-off); the share of the primary operation's wall time that the layer
# self times account for.  With both threads on one core the verifier often
# runs inside the prover's write span, so write and wait count together.
DERIVED_METRICS = (
    ("model.hinge.active_ratio", "ratio"),
    ("protocol.transport_s", "s"),
    ("trace.accounted_share", "ratio"),
)

# Spans left out of the blocking-path sum: the prover's socket wait and
# write, which hold the verifier's work (its own spans are counted); the
# benchmark's own bookkeeping; the operation spans.
NOT_BLOCKING = {"protocol.socket.wait", "protocol.socket.write", "trace.overhead",
                "op.session", "op.train"}


def layer_table(tracer: Tracer) -> dict:
    """{(op kind, span name): [calls, total seconds, self seconds]}."""
    child_time: dict = defaultdict(float)
    for _sid, _name, start, end, parent, _op in tracer.spans:
        if parent >= 0:
            child_time[parent] += end - start
    table: dict = defaultdict(lambda: [0, 0.0, 0.0])
    for sid, name, start, end, _parent, (kind, _idx) in tracer.spans:
        row = table[(kind, name)]
        row[0] += 1
        row[1] += end - start
        row[2] += end - start - child_time.get(sid, 0.0)
    return table


def layer_metrics(tracer: Tracer, op_counts: dict, primary: str) -> dict:
    """Per-layer metrics, each averaged over the operations of its kind.

    ``op_counts`` maps op kind to how many operations of that kind ran;
    ``primary`` is the kind whose wall time ``trace.accounted_share``
    explains ("session" or "train").
    """
    table = layer_table(tracer)
    out = {}
    for metric, unit, kind, stat, source in LAYER_METRICS:
        ops = op_counts.get(kind, 0)
        if stat == "counter":
            total = tracer.counts.get((kind, source), 0.0)
        else:
            calls, incl, self_s = table.get((kind, source), (0, 0.0, 0.0))
            total = {"calls": calls, "total": incl, "self": self_s}[stat]
        out[metric] = {"value": total / ops if ops else 0.0, "unit": unit}
    sampled = tracer.counts.get(("train", "model.hinge.sampled_bits"), 0.0)
    active = tracer.counts.get(("train", "model.hinge.active_bits"), 0.0)
    out["model.hinge.active_ratio"] = {"value": active / sampled if sampled else 0.0,
                                       "unit": "ratio"}
    sessions = op_counts.get("session", 0)
    socket_s = sum(table.get(("session", f"protocol.socket.{io}"), (0, 0.0, 0.0))[1]
                   for io in ("wait", "write"))
    served = table.get(("session", "protocol.verifier_feed"), (0, 0.0, 0.0))[1]
    out["protocol.transport_s"] = {"value": (socket_s - served) / sessions if sessions else 0.0,
                                   "unit": "s"}
    wall = table.get((primary, f"op.{primary}"), (0, 0.0, 0.0))[1]
    accounted = sum(row[2] for (kind, name), row in table.items()
                    if kind == primary and name not in NOT_BLOCKING)
    out["trace.accounted_share"] = {"value": accounted / wall if wall else 0.0,
                                    "unit": "ratio"}
    return out


def self_time_breakdown(tracer: Tracer, kind: str, ops: int) -> list:
    """[(span name, calls per op, self seconds per op)], largest self time first."""
    rows = [(name, row[0] / ops, row[2] / ops)
            for (k, name), row in layer_table(tracer).items() if k == kind and ops]
    return sorted(rows, key=lambda r: -r[2])
