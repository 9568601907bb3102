"""The benchmark's three workloads, driven through fedzkp's public API.

Every run follows one pipeline, and the workload picks which step is
repeated for the measured window:

    set-up x3     workspace (embedding config, keygen, aggregate, watermark,
                  prover loads its credentials and the aggregate) and
                  verifier start-up (load the checkpoint, extract the mark,
                  derive err_n); the median of the three is setup_s
    training      model.run_federation, saved as the workspace checkpoint
    claims        sessions against protocol.run_verifier_endpoint, served
                  from one other thread over TCP loopback; closed loop,
                  one client, one connection at a time

    claim    window = honest claims, clients 0..K-1 in turn; one training
    forgery  window = forged claims (no credential); one training
    train    window = training calls, at least TRAIN_WORKLOAD_CALLS; then
             TRAIN_WORKLOAD_CLAIMS honest claims

Every timing is reported twice: as wall time, kept in the run record, and
as paced time (see pace.py), which the end-to-end metrics report.  The
reference loop runs between set-up steps and between sessions, at least
every PACE_EVERY_S, and paces the work between two of its runs.
Training calls are paced by the streaming loop, timed on a side thread
during each call.

All inputs come from the workload seed.  Keys, embedding, training,
verifier and prover draw from separate child seeds, so the prover never
knows the verifier's challenges in advance.
"""
from __future__ import annotations

import math
import os
import platform
import resource
import socket
import statistics
import threading
import time
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from fedzkp import bounds, costs, gf2, lpn, model, protocol, sigma, storage, watermark
from pace import Pace

WORKLOADS = ("claim", "forgery", "train")

SETUP_REPEATS = 3
WARMUP_SESSIONS = 2
TAIL_BEYOND = 10  # latency_tail_s: highest percentile with this many samples above it
MIN_SESSIONS = 2 * TAIL_BEYOND + 2  # so that percentile lies above the median
TRAIN_WORKLOAD_CLAIMS = MIN_SESSIONS
TRAIN_WORKLOAD_CALLS = 2  # at least; more while the next call fits in --seconds
BATCH_S = 5.0  # later window batches: about this many seconds of sessions
SESSION_TIMEOUT_S = 60.0
PACE_EVERY_S = 0.25  # sessions between two reference loops take at least this long
EMBED_LAMBDA = 1.0
EMBED_MARGIN = 0.5

# child-seed roles; each role gets its own stream from the workload seed
_KEYS, _EMBED, _TRAIN, _VERIFIER, _PROVER = range(5)

E2E_UNITS = {
    "setup_s": "s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "sessions_per_s": "1/s",
    "wire_bytes_per_session": "B",
    "train_s": "s",
    "mark_distance": "bits",
    "test_accuracy": "fraction",
    "peak_rss_mb": "MB",
}


@dataclass(frozen=True)
class Sizes:
    """Protocol and training sizes; the defaults are the paper's."""

    m: int = 800
    l: int = 700
    tau: Fraction = Fraction(1, 4)
    K: int = 10
    n: int = 1024
    omega: int = 4096
    d: int = 300
    l_com: int = 800
    p_r: Fraction = Fraction(1, 2**128)
    rounds: int = 1
    local_epochs: int = 6
    samples_per_client: int = 200
    test_samples: int = 500
    batch: int = 32
    # 10 classes: chance is 0.1; trained models score 0.8 to 1.0 across seeds
    accuracy_floor: float = 0.5


PAPER = Sizes()


def _rng(seed: int, role: int, index: int = 0) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(role, index)))


def _span(tracer, name: str):
    return nullcontext() if tracer is None else tracer.span(name)


class Failures:
    """Operations attempted and the ones whose output was wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)
        return ok


@dataclass
class Workspace:
    path: Path
    params: lpn.XlpnParams
    wm: watermark.HashWatermark
    agg: watermark.AggregatedInput
    creds: list
    config: model.EmbeddingConfig


def build_workspace(path: Path, sizes: Sizes, seed: int) -> Workspace:
    """init + keygen + aggregate as the CLI lays them out, then the prover's loads."""
    path.mkdir(parents=True, exist_ok=True)
    params = lpn.XlpnParams(sizes.m, sizes.l, sizes.tau)
    embed_seed = int(np.random.SeedSequence(seed, spawn_key=(_EMBED,)).generate_state(1)[0])
    storage.save_embedding_config(path / "embedding.json", sizes.omega, sizes.n,
                                  embed_seed, EMBED_LAMBDA, EMBED_MARGIN)
    rng = _rng(seed, _KEYS)
    for j in range(sizes.K):
        pub, cred = lpn.gen_instance(params, rng)
        storage.save_credential(path / f"credential_{j}.bin", cred, params)
        storage.save_public_input(path / f"public_{j}.bin", pub, params)
    parts = [storage.load_public_input(path / f"public_{j}.bin")[0] for j in range(sizes.K)]
    agg = watermark.aggregate(parts)
    wm = watermark.hash_watermark(agg, sizes.n)
    storage.save_aggregate(path / "aggregate.bin", agg, params)
    storage.save_watermark(path / "watermark.json", wm)
    creds = [storage.load_credential(path / f"credential_{j}.bin")[0] for j in range(sizes.K)]
    agg, _ = storage.load_aggregate(path / "aggregate.bin")
    config = storage.load_embedding_config(path / "embedding.json")
    return Workspace(path, params, wm, agg, creds, config)


def prepare_verifier(ws: Workspace, sizes: Sizes):
    """What a verifier holding the model needs: the extracted mark and err_n."""
    state = storage.load_checkpoint(ws.path / "checkpoint.bin")
    config = storage.load_embedding_config(ws.path / "embedding.json")
    h = model.extract_from_state(state, config)
    err_n = bounds.SecurityParams.derive(sizes.n, sizes.p_r).err_n
    return h, err_n


class PacedSteps:
    """Wall and paced seconds of steps run one after another, a reference
    loop between each two."""

    def __init__(self, pace: Pace):
        self.pace = pace
        self.wall: list = []
        self.paced: list = []
        self._before = pace.sample()

    def run(self, fn):
        t0 = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - t0
        after = self.pace.sample()
        self.wall.append(wall)
        self.paced.append(wall * Pace.scale(self._before, after))
        self._before = after
        return result


@dataclass
class TrainResult:
    seconds: float  # paced
    wall_s: float
    mark_distance: int
    accuracy: float


def train_once(ws: Workspace, sizes: Sizes, seed: int, index: int, pace: Pace,
               tracer) -> TrainResult:
    """One federated training call; the model becomes the workspace checkpoint."""
    with _span(tracer, "op.train"):
        (state, history, _), wall, seconds = pace.run_streaming(lambda: model.run_federation(
            ws.wm.h, sizes.K, sizes.rounds, sizes.local_epochs, ws.config,
            _rng(seed, _TRAIN, index), omega=sizes.omega,
            samples_per_client=sizes.samples_per_client,
            test_samples=sizes.test_samples, batch=sizes.batch))
    storage.save_checkpoint(ws.path / "checkpoint.bin", state)
    last = history[-1]
    return TrainResult(seconds, wall, last.report.err, last.accuracy)


class ForgingProver(protocol.ProverSession):
    """Claims a client's slot with no credential, over the genuine aggregate.

    Validity passes because the aggregate is the published one.  Each round
    it guesses one challenge to give up and commits with sigma.cheat_commit,
    so it survives a round with probability 2/3 and is rejected after about
    two passed rounds.  The honest ProverSession answers the challenge from
    the round state, which is why only the commit step is replaced.
    """

    def __init__(self, agg, params, client, d, rng, l_com):
        blank = lpn.Credential(gf2.BitVec.zeros(params.l), gf2.BitVec.zeros(params.m))
        super().__init__(blank, agg, params, client, d, rng, l_com)
        self.commits = 0

    def _commit(self) -> str:
        self.commits += 1
        self._round_state, msg1 = sigma.cheat_commit(
            self.pub, self.params.w, int(self.rng.integers(0, 3)), self.rng, self.l_com)
        return self._send("COMMIT", {"round": self.round, **protocol.encode_msg1(msg1)})


def _wire_type(line: str) -> str:
    # lines are compact JSON objects that start with their type field
    return line[9:line.find('"', 9)] if line.startswith('{"type":"') else "?"


def _write_lines(wr, lines, tracer) -> int:
    with _span(tracer, "protocol.socket.write"):
        for x in lines:
            wr.write(x + "\n")
        wr.flush()
    if tracer is not None:
        tracer.count("protocol.round_trips")
        for x in lines:
            tracer.count(f"protocol.bytes.{_wire_type(x)}", len(x) + 1)
    return sum(len(x) + 1 for x in lines)


def _read_line(rd, tracer) -> str:
    with _span(tracer, "protocol.socket.wait"):
        line = rd.readline()
    if not line:
        raise protocol.TransportError("connection closed mid-session")
    if tracer is not None:
        tracer.count(f"protocol.bytes.{_wire_type(line)}", len(line))
    return line


def drive_session(session, port: int, tracer=None):
    """Run one prover session over TCP; returns (accepted, wire bytes, seconds).

    The loop mirrors protocol.run_prover_endpoint and counts every byte in
    both directions, newlines included (the wire is ASCII JSON).
    """
    t0 = time.perf_counter()
    nbytes = 0
    with socket.create_connection(("127.0.0.1", port), timeout=SESSION_TIMEOUT_S) as conn, \
            conn.makefile("r", encoding="utf-8", newline="\n") as rd, \
            conn.makefile("w", encoding="utf-8", newline="\n") as wr:
        out = session.start()
        while True:
            if out:
                nbytes += _write_lines(wr, out, tracer)
            if session.done:
                break
            line = _read_line(rd, tracer)
            nbytes += len(line)
            out = session.feed(line)
    return session.accepted, nbytes, time.perf_counter() - t0


@dataclass
class SessionStats:
    latencies: list  # wall, connect to verdict
    busy: list  # wall, from building the prover session to its verdict
    paced_latencies: list
    paced_busy: list
    wire_bytes: list
    wall_s: float

    @classmethod
    def empty(cls) -> "SessionStats":
        return cls([], [], [], [], [], 0.0)

    def extend(self, other: "SessionStats") -> None:
        for name in ("latencies", "busy", "paced_latencies", "paced_busy", "wire_bytes"):
            getattr(self, name).extend(getattr(other, name))
        self.wall_s += other.wall_s


def run_sessions(kind: str, count: int, first: int, op_kind: str, ws: Workspace, h_verifier,
                 err_n: int, sizes: Sizes, rngs: dict, pace: Pace, failures: Failures,
                 tracer) -> SessionStats:
    """Sessions first..first+count-1, one at a time, against one verifier endpoint thread.

    The verifier thread inherits this thread's core, so prover and verifier
    take turns on one core and each of the 2d+1 round trips is a thread
    switch, not a cross-core wake-up (run.py pins the process).  The
    reference loop runs between sessions, once at least PACE_EVERY_S of
    them has passed since the last one, and paces the sessions between it
    and the one before.
    """
    summaries: list = []
    errors: list = []
    ready = threading.Event()
    port_box: list = []

    def serve():
        try:
            summaries.extend(protocol.run_verifier_endpoint(
                "127.0.0.1", 0, h_verifier, err_n, sizes.d, rngs["verifier"],
                l_com=sizes.l_com, max_sessions=count, ready=ready, port_box=port_box,
                timeout=SESSION_TIMEOUT_S))
        except Exception as exc:  # reported as failed operations below
            errors.append(repr(exc))
            ready.set()

    verifier = threading.Thread(target=serve, name="verifier", daemon=True)
    verifier.start()
    if not ready.wait(SESSION_TIMEOUT_S) or not port_box:
        raise RuntimeError(f"verifier endpoint did not start: {errors}")
    port = port_box[0]
    stats = SessionStats.empty()
    # (session id, prover verdict, commits, transport error); not the sessions,
    # which hold their transcripts
    outcomes = []
    chunk = []  # (latency, busy) of the sessions since the last reference loop
    start = time.perf_counter()
    before = pace.sample()
    since = time.perf_counter()
    for i in range(first, first + count):
        t_busy = time.perf_counter()
        client = i % sizes.K
        if kind == "forgery":
            session = ForgingProver(ws.agg, ws.params, client, sizes.d, rngs["prover"],
                                    sizes.l_com)
        else:
            session = protocol.ProverSession(ws.creds[client], ws.agg, ws.params, client,
                                             sizes.d, rngs["prover"], sizes.l_com)
        if tracer is not None:
            tracer.op = (op_kind, i)
        error = None
        try:
            with _span(tracer, f"op.{op_kind}"):
                _accepted, nbytes, seconds = drive_session(session, port, tracer)
            chunk.append((seconds, time.perf_counter() - t_busy))
            stats.wire_bytes.append(nbytes)
        except (OSError, protocol.TransportError) as exc:
            error = f"transport abort: {exc}"
        outcomes.append((session.session_id, session.accepted,
                         getattr(session, "commits", None), error))
        if time.perf_counter() - since >= PACE_EVERY_S or i == first + count - 1:
            after = pace.sample()
            scale = Pace.scale(before, after)
            for latency, busy in chunk:
                stats.latencies.append(latency)
                stats.busy.append(busy)
                stats.paced_latencies.append(latency * scale)
                stats.paced_busy.append(busy * scale)
            chunk = []
            before = after
            since = time.perf_counter()
    stats.wall_s = time.perf_counter() - start
    verifier.join(SESSION_TIMEOUT_S)
    if verifier.is_alive() or errors:
        failures.check(False, f"verifier endpoint did not finish cleanly: {errors}")
    for i, outcome in enumerate(outcomes):
        summary = summaries[i] if i < len(summaries) else None
        failures.check(_verdict_ok(kind, outcome, summary, sizes.d),
                       f"{kind} session {outcome[0]}: prover error={outcome[3]} "
                       f"verifier summary={summary}")
    return stats


def run_window(kind: str, seconds: float, *args) -> SessionStats:
    """Sessions for ``seconds`` (at least MIN_SESSIONS), in batches.

    An endpoint serves a fixed number of sessions, so after a first batch of
    MIN_SESSIONS each batch is sized from the latencies so far to about
    BATCH_S.  A couple of warm-up sessions are too few to size the whole
    window: a forged session takes either about 20 or about 80 ms.
    """
    stats = SessionStats.empty()
    done = 0
    while done < MIN_SESSIONS or stats.wall_s < seconds:
        if done < MIN_SESSIONS:
            count = MIN_SESSIONS - done
        else:
            per_session = statistics.mean(stats.latencies) if stats.latencies else 1.0
            count = max(1, math.ceil(min(seconds - stats.wall_s, BATCH_S) / per_session))
        stats.extend(run_sessions(kind, count, done, "session", *args))
        done += count
    return stats


def _verdict_ok(kind: str, outcome: tuple, summary, d: int) -> bool:
    session_id, prover_accepted, commits, error = outcome
    if error or summary is None or summary.aborted or summary.session_id != session_id:
        return False
    if kind == "forgery":
        # rejected in the rounds, not at validity: it committed at least once
        return not summary.accepted and not prover_accepted and commits >= 1
    return summary.accepted and prover_accepted and summary.rounds_passed == d


def _tail(latencies: list):
    """(value, percentile, samples beyond): the highest percentile with
    TAIL_BEYOND samples above it, or the maximum when there are fewer."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def _loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def run_context() -> dict:
    """Core count, versions and machine load, so every number carries its contention."""
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cores_used": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": os.environ.get("OPENBLAS_NUM_THREADS")},
        "loadavg_start": _loadavg(),
    }


def run(workload: str, seed: int, seconds: float, out_dir: Path, tracer=None,
        sizes: Sizes = PAPER, fault: str = None) -> dict:
    """One benchmark run; returns the end-to-end metrics and the run record.

    ``fault="wrong-mark"`` hands the verifier the complement of the mark it
    extracted, so every honest claim must fail; tests use it to show that
    a broken verifier reads as failed operations, not as a fast run.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    context = run_context()
    err_n = bounds.SecurityParams.derive(sizes.n, sizes.p_r).err_n
    failures = Failures()
    rngs = {"verifier": _rng(seed, _VERIFIER), "prover": _rng(seed, _PROVER)}
    pace = Pace()
    pace.sample()  # warm-up: first-call costs are not the core's pace

    def op(kind, index):
        if tracer is not None:
            tracer.op = (kind, index)

    workspaces = PacedSteps(pace)
    for k in range(SETUP_REPEATS):
        op("setup", k)
        ws = workspaces.run(lambda: build_workspace(out_dir / f"ws{k}", sizes, seed))

    trains = []
    t_window = time.perf_counter()
    # the train window ends before a call that would overrun --seconds
    min_calls = TRAIN_WORKLOAD_CALLS if workload == "train" else 1
    while len(trains) < min_calls or (
            workload == "train" and
            time.perf_counter() - t_window + trains[-1].wall_s <= seconds):
        op("train", len(trains))
        result = train_once(ws, sizes, seed, len(trains), pace, tracer)
        trains.append(result)
        failures.check(result.mark_distance < err_n and result.accuracy >= sizes.accuracy_floor,
                       f"training {len(trains) - 1}: mark distance {result.mark_distance}, "
                       f"accuracy {result.accuracy}")

    verifiers = PacedSteps(pace)
    for k in range(SETUP_REPEATS):
        op("setup", k)
        h_extracted, verifier_err_n = verifiers.run(lambda: prepare_verifier(ws, sizes))
    distance = gf2.hamming_distance(h_extracted, ws.wm.h)
    failures.check(distance == trains[-1].mark_distance,
                   f"checkpoint round trip: verifier reads mark distance {distance}, "
                   f"training reported {trains[-1].mark_distance}")
    failures.check(verifier_err_n == err_n, f"verifier derived err_n {verifier_err_n}")
    h_verifier = h_extracted
    if fault == "wrong-mark":
        h_verifier = gf2.BitVec(1 - h_extracted.bits)
    elif fault is not None:
        raise ValueError(f"unknown fault {fault!r}")

    kind = "forgery" if workload == "forgery" else "claim"
    args = (ws, h_verifier, err_n, sizes, rngs, pace, failures, tracer)
    run_sessions(kind, WARMUP_SESSIONS, 0, "warmup", *args)
    if workload == "train":
        stats = run_sessions(kind, TRAIN_WORKLOAD_CLAIMS, 0, "session", *args)
    else:
        stats = run_window(kind, seconds, *args)
    op("done", 0)

    # the same metrics from paced and from wall times
    timings = {}
    for label, latencies, busy, ws_times, vp_times, train_times in (
            ("paced", stats.paced_latencies, stats.paced_busy, workspaces.paced,
             verifiers.paced, [t.seconds for t in trains]),
            ("wall", stats.latencies, stats.busy, workspaces.wall, verifiers.wall,
             [t.wall_s for t in trains])):
        # a window in which every session aborted reports 0, and failed says why
        tail, tail_pct, tail_beyond = _tail(latencies or [0.0])
        timings[label] = {
            "setup_s": statistics.median(a + b for a, b in zip(ws_times, vp_times)),
            "latency_p50_s": statistics.median(latencies or [0.0]),
            "latency_tail_s": tail,
            "sessions_per_s": len(busy) / sum(busy) if busy else 0.0,
            "train_s": statistics.median(train_times),
        }
    metrics = {
        **timings["paced"],
        "wire_bytes_per_session": statistics.mean(stats.wire_bytes or [0]),
        "mark_distance": statistics.median(t.mark_distance for t in trains),
        "test_accuracy": statistics.median(t.accuracy for t in trains),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    metrics = {name: metrics[name] for name in E2E_UNITS}
    paper_bits = costs.cost_report(sizes.K, sizes.m, sizes.l, sizes.d, sizes.l_com).communication_bits
    context["loadavg_end"] = _loadavg()
    context["pace"] = pace.summary()
    sizes_doc = {k: (str(v) if isinstance(v, Fraction) else v) for k, v in asdict(sizes).items()}
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": tracer is not None,
        "sizes": sizes_doc,
        "context": context,
        "correct": failures.failed == 0,
        "attempted": failures.attempted,
        "failed": failures.failed,
        "failures": failures.messages,
        "metrics": {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()},
        "details": {
            "err_n": err_n,
            "sessions": len(stats.latencies),
            "session_kind": kind,
            "latency_tail_percentile": tail_pct,
            "latency_tail_samples_beyond": tail_beyond,
            "wall": timings["wall"],
            "latency_samples_s": stats.latencies,
            "paced_latency_samples_s": stats.paced_latencies,
            "paper_wire_bytes_per_session": paper_bits / 8,
            "wire_ratio_to_paper": metrics["wire_bytes_per_session"] / (paper_bits / 8),
            "setup_samples_s": [a + b for a, b in zip(workspaces.paced, verifiers.paced)],
            "train_samples": [asdict(t) for t in trains],
            "op_counts": {"setup": SETUP_REPEATS, "train": len(trains),
                          "session": len(stats.latencies)},
        },
    }
