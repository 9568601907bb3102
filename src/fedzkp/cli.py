"""Command line front end.

Everything operates on a workspace directory (default ".") laid out as:

    params.json       protocol sizes, chosen once by `init`
    embedding.json    watermark embedding config (seed only; matrices regenerate)
    credential_<j>.bin / public_<j>.bin   per-client key material from `keygen`
    aggregate.bin     server-side stack of all public inputs
    watermark.json    digest of the aggregate
    checkpoint.bin    trained global model
    history.csv       per-round detection rate and accuracy
    train.json        training call record, enough to rebuild the data split

Exit codes: 0 success / check passed, 1 failure or rejection, 2 usage
error (argparse), 3 transport abort (connection died mid-proof, which is
not a verdict).  Seeds come from --seed, else $FEDZKP_SEED, else entropy.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from .attacks import (AttackEvalContext, GameParams, finetune_attack,
                      prune_attack, run_security_game, targeted_destruction)
from .bench import DEFAULT_GRID, bench_generation, bench_verification
from .bounds import SecurityParams, advantage_bound, compute_err_n
from .commitments import DEFAULT_COMMIT_BITS
from .costs import cost_report
from .lpn import XlpnParams, gen_instance
from .model import detection_rate, extract_from_state, make_federation_data, run_federation
from .protocol import TransportError, run_prover_endpoint, run_verifier_endpoint
from .storage import (_write_json, load_aggregate, load_checkpoint, load_credential,
                      load_embedding_config, load_public_input, load_watermark,
                      save_aggregate, save_checkpoint, save_credential,
                      save_embedding_config, save_history, save_public_input,
                      save_watermark)
from .watermark import aggregate, client_check, hash_watermark

_PARAM_DEFAULTS = {
    "m": 800, "l": 700, "tau_num": 1, "tau_den": 4, "K": 10,
    "n": 1024, "omega": 4096, "d_in": 16, "classes": 10,
    "l_com": DEFAULT_COMMIT_BITS, "d": 300, "p_r": "2^-128",
}


def _parse_prob(text: str) -> Fraction:
    """Accept "2^-128", "1/512", or a decimal like "0.01"."""
    text = text.strip()
    if "^" in text:
        base, _, exp = text.partition("^")
        return Fraction(int(base)) ** int(exp)
    return Fraction(text)


def _seed_from(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("FEDZKP_SEED")
    if env is not None:
        return int(env)
    # concrete so it can be replayed; 256 bits, past the 128 that p_r targets
    return int.from_bytes(os.urandom(32), "little")


def _workspace(args) -> Path:
    ws = Path(args.dir)
    if not ws.is_dir():
        raise OSError(f"workspace {ws} does not exist (run `fedzkp init --dir {ws}`?)")
    return ws


def _read_params(ws: Path) -> dict:
    path = ws / "params.json"
    if not path.exists():
        raise OSError(f"{path} not found; run `fedzkp init` first")
    params = json.loads(path.read_text())
    missing = sorted(set(_PARAM_DEFAULTS) - set(params))
    if missing:
        raise ValueError(f"params.json missing fields: {', '.join(missing)}")
    return params


def _xlpn(params: dict) -> XlpnParams:
    return XlpnParams(params["m"], params["l"], Fraction(params["tau_num"], params["tau_den"]))


def _print_rows(header: str, rows) -> None:
    print(header)
    for row in rows:
        print(row)


# ---------------------------------------------------------------- commands


def cmd_init(args) -> int:
    ws = Path(args.dir)
    ws.mkdir(parents=True, exist_ok=True)
    params = dict(_PARAM_DEFAULTS)
    for key in ("m", "l", "K", "n", "omega", "d_in", "classes", "l_com", "d"):
        value = getattr(args, key)
        if value is not None:
            params[key] = value
    if args.tau is not None:
        tau = Fraction(args.tau)
        params["tau_num"], params["tau_den"] = tau.numerator, tau.denominator
    if args.pr is not None:
        _parse_prob(args.pr)  # fail fast on nonsense
        params["p_r"] = args.pr
    _xlpn(params)  # validates sizes before anything lands on disk
    seed = _seed_from(args)
    _write_json(ws / "params.json", params, indent=2)
    save_embedding_config(ws / "embedding.json", params["omega"], params["n"],
                          seed, args.lam, args.mu_hinge)
    print(f"initialized {ws}: m={params['m']} l={params['l']} K={params['K']} "
          f"n={params['n']} omega={params['omega']} embed_seed={seed}")
    return 0


def cmd_keygen(args) -> int:
    ws = _workspace(args)
    params = _read_params(ws)
    xlpn = _xlpn(params)
    rng = np.random.default_rng(_seed_from(args))
    for j in range(params["K"]):
        pub, cred = gen_instance(xlpn, rng)
        save_credential(ws / f"credential_{j}.bin", cred, xlpn)
        save_public_input(ws / f"public_{j}.bin", pub, xlpn)
        print(f"client {j}: credential_{j}.bin public_{j}.bin (weight {cred.e.weight()})")
    return 0


def cmd_aggregate(args) -> int:
    ws = _workspace(args)
    params = _read_params(ws)
    xlpn = _xlpn(params)
    parts = []
    for j in range(params["K"]):
        pub, stored = load_public_input(ws / f"public_{j}.bin")
        if stored != (xlpn.m, xlpn.l, xlpn.w):
            raise ValueError(f"public_{j}.bin was generated under different parameters")
        parts.append(pub)
    agg = aggregate(parts)
    wm = hash_watermark(agg, params["n"])
    save_aggregate(ws / "aggregate.bin", agg, xlpn)
    save_watermark(ws / "watermark.json", wm)
    print(f"aggregated {agg.K} clients; watermark n={wm.n} h={wm.h.to_bytes().hex()}")
    return 0


def cmd_check(args) -> int:
    ws = _workspace(args)
    params = _read_params(ws)
    wm = load_watermark(ws / "watermark.json")
    agg, _ = load_aggregate(ws / "aggregate.bin")
    own, _ = load_public_input(ws / f"public_{args.client}.bin")
    result = client_check(wm, agg, own, params["K"])
    if result:
        print(f"client {args.client}: aggregate ok")
        return 0
    print(f"client {args.client}: aggregate check FAILED ({result.reason})", file=sys.stderr)
    return 1


def cmd_train(args) -> int:
    ws = _workspace(args)
    params = _read_params(ws)
    wm = load_watermark(ws / "watermark.json")
    config = load_embedding_config(ws / "embedding.json")
    seed = _seed_from(args)
    state, history, _ = run_federation(
        wm.h, params["K"], args.rounds, args.epochs, config,
        np.random.default_rng(seed), omega=params["omega"],
        samples_per_client=args.samples_per_client, test_samples=args.test_samples,
        lr=args.lr, batch=args.batch, d_in=params["d_in"], classes=params["classes"],
        gamma_scale=args.gamma_scale, center_scale=args.center_scale,
    )
    save_checkpoint(ws / "checkpoint.bin", state)
    save_history(ws / "history.csv", history)
    record = {
        "seed": seed, "rounds": args.rounds, "epochs": args.epochs,
        "samples_per_client": args.samples_per_client, "test_samples": args.test_samples,
        "lr": args.lr, "batch": args.batch,
        "gamma_scale": args.gamma_scale, "center_scale": args.center_scale,
    }
    _write_json(ws / "train.json", record, indent=2)
    last = history[-1]
    print(f"trained {args.rounds} rounds: r={last.report.r:.4f} accuracy={last.accuracy:.4f}")
    return 0


def cmd_extract(args) -> int:
    ws = _workspace(args)
    wm = load_watermark(ws / "watermark.json")
    config = load_embedding_config(ws / "embedding.json")
    state = load_checkpoint(ws / "checkpoint.bin")
    extracted = extract_from_state(state, config)
    report = detection_rate(wm.h, extracted)
    print(f"extracted h'={extracted.to_bytes().hex()}")
    print(f"r={report.r:.6f} mismatches={report.err}/{wm.n}")
    return 0


def _split_endpoint(text: str):
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"endpoint must look like host:port, got {text!r}")
    return host, int(port)


def cmd_verify_verifier(args) -> int:
    ws = _workspace(args)
    params = _read_params(ws)
    config = load_embedding_config(ws / "embedding.json")
    state = load_checkpoint(ws / "checkpoint.bin")
    h_extracted = extract_from_state(state, config)
    sec = SecurityParams.derive(params["n"], _parse_prob(params["p_r"]))
    host, port = _split_endpoint(args.listen)
    rng = np.random.default_rng(_seed_from(args))
    summaries = run_verifier_endpoint(
        host, port, h_extracted, sec.err_n, params["d"], rng,
        l_com=params["l_com"], max_sessions=args.sessions,
        transcript_path=args.transcript, timeout=args.timeout,
    )
    ok = bool(summaries)
    for s in summaries:
        verdict = "aborted" if s.aborted else ("accepted" if s.accepted else f"rejected ({s.reason})")
        print(f"session {s.session_id or '?'} client={s.client} rounds={s.rounds_passed}: {verdict}")
        ok = ok and s.accepted and not s.aborted
    return 0 if ok else 1


def cmd_verify_prover(args) -> int:
    ws = _workspace(args)
    params = _read_params(ws)
    cred, _ = load_credential(ws / f"credential_{args.client}.bin")
    agg, _ = load_aggregate(ws / "aggregate.bin")
    host, port = _split_endpoint(args.connect)
    rng = np.random.default_rng(_seed_from(args))
    accepted = run_prover_endpoint(
        host, port, cred, agg, args.client, params["d"], rng,
        l_com=params["l_com"], transcript_path=args.transcript, timeout=args.timeout,
    )
    print("accepted" if accepted else "rejected")
    return 0 if accepted else 1


def _attack_context(ws: Path, params: dict):
    """Rebuild the exact training-time evaluation bundle from train.json."""
    record = json.loads((ws / "train.json").read_text())
    wm = load_watermark(ws / "watermark.json")
    config = load_embedding_config(ws / "embedding.json")
    state = load_checkpoint(ws / "checkpoint.bin")
    shards, eval_data = make_federation_data(
        params["K"], record["samples_per_client"], record["test_samples"],
        np.random.default_rng(record["seed"]), d_in=params["d_in"],
        classes=params["classes"], center_scale=record["center_scale"],
    )
    ctx = AttackEvalContext(h=wm.h, config=config, eval_data=eval_data)
    return state, shards, ctx, record


def cmd_attack_finetune(args) -> int:
    ws = _workspace(args)
    params = _read_params(ws)
    state, shards, ctx, record = _attack_context(ws, params)
    rows = []
    for epochs in args.grid:
        _, rep = finetune_attack(state, shards[0], epochs, ctx,
                                 lr=record["lr"], batch=record["batch"])
        rows.append(f"{epochs},{rep.report.r:.6f},{rep.accuracy:.6f}")
    _print_rows("epochs,r,accuracy", rows)
    return 0


def cmd_attack_prune(args) -> int:
    ws = _workspace(args)
    params = _read_params(ws)
    state, _, ctx, _ = _attack_context(ws, params)
    rows = []
    for rate in args.grid:
        _, rep = prune_attack(state, rate, ctx)
        rows.append(f"{rate},{rep.report.r:.6f},{rep.accuracy:.6f}")
    _print_rows("rate,r,accuracy", rows)
    return 0


def cmd_attack_noise(args) -> int:
    ws = _workspace(args)
    params = _read_params(ws)
    state, _, ctx, _ = _attack_context(ws, params)
    rng = np.random.default_rng(_seed_from(args))
    rows = []
    for phi in args.grid:
        for _ in range(args.draws):
            _, rep = targeted_destruction(state, phi, ctx, rng)
            rows.append(f"{phi},{rep.report.r:.6f},{rep.accuracy:.6f}")
    _print_rows("phi,r,accuracy", rows)
    return 0


def cmd_attack_game(args) -> int:
    # self-contained: sizes come from flags, not from a workspace
    xlpn = XlpnParams(args.m, args.l, Fraction(args.tau))
    p_r = _parse_prob(args.pr)
    err_n = compute_err_n(args.n, p_r)
    game = GameParams(xlpn=xlpn, n_bits=args.n, err_n=err_n, K=1, l_com=args.lcom)
    rng = np.random.default_rng(_seed_from(args))
    wins = 0
    for _ in range(args.games):
        wins += run_security_game(args.q, args.k, args.d, game, rng).won
    rate = wins / args.games
    bound = float(advantage_bound(args.k, args.q, args.n, err_n, args.d))
    sigma = math.sqrt(bound * (1.0 - bound) / args.games)
    threshold = bound + 3.0 * sigma
    ok = rate <= threshold
    print("games,wins,win_rate,bound,threshold,ok")
    print(f"{args.games},{wins},{rate:.6f},{bound:.6f},{threshold:.6f},{ok}")
    return 0 if ok else 1


def cmd_bounds(args) -> int:
    sec = SecurityParams.derive(args.n, _parse_prob(args.pr))
    adv = float(advantage_bound(args.k, args.q, args.n, sec.err_n, args.d))
    print("n,p_r,err_n,r_n,advantage")
    print(f"{sec.n},{args.pr},{sec.err_n},{float(sec.r_n)},{adv:.6g}")
    return 0


def cmd_costs(args) -> int:
    rep = cost_report(args.K, args.m, args.l, args.d, args.lcom)
    print("memory_bits,communication_bits")
    print(f"{rep.memory_bits},{rep.communication_bits}")
    print(rep.summary())
    return 0


def cmd_bench(args) -> int:
    rng = np.random.default_rng(_seed_from(args))
    kind = bench_generation if args.stage == "generation" else bench_verification
    kwargs = {"m_values": tuple(args.grid), "rng": rng}
    if args.reps is not None:
        kwargs["reps"] = args.reps
    report = kind(**kwargs)
    print("m,l,seconds")
    for p in report.points:
        print(f"{p.m},{p.l},{p.seconds:.9f}")
    print(f"slope={report.slope:.4f}")
    return 0


# ---------------------------------------------------------------- wiring


def _add_seed(p) -> None:
    p.add_argument("--seed", type=int, default=None,
                   help="RNG seed (default: $FEDZKP_SEED, else entropy)")


def _add_dir(p) -> None:
    p.add_argument("--dir", default=".", help="workspace directory")


def _float_list(text: str) -> list:
    return [float(v) for v in text.split(",") if v]


def _int_list(text: str) -> list:
    return [int(v) for v in text.split(",") if v]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedzkp",
        description="Federated model ownership: watermarked aggregation plus zero-knowledge proof of contribution.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("init", help="create a workspace with protocol parameters")
    _add_dir(p); _add_seed(p)
    for key in ("m", "l", "K", "n", "omega", "d_in", "classes", "l_com", "d"):
        p.add_argument(f"--{key.replace('_', '-')}", dest=key, type=int, default=None)
    p.add_argument("--tau", default=None, help="noise rate as a fraction, e.g. 1/4")
    p.add_argument("--pr", default=None, help='required error probability, e.g. "2^-128"')
    p.add_argument("--lam", type=float, default=1.0, help="watermark loss weight")
    p.add_argument("--mu-hinge", type=float, default=0.5, dest="mu_hinge")
    p.set_defaults(func=cmd_init)

    p = sub.add_parser("keygen", help="generate per-client credentials and public inputs")
    _add_dir(p); _add_seed(p)
    p.set_defaults(func=cmd_keygen)

    p = sub.add_parser("aggregate", help="stack client inputs and publish the watermark")
    _add_dir(p)
    p.set_defaults(func=cmd_aggregate)

    p = sub.add_parser("check", help="client-side audit of the published aggregate")
    _add_dir(p)
    p.add_argument("--client", type=int, required=True)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("train", help="run federated training with the watermark loss")
    _add_dir(p); _add_seed(p)
    p.add_argument("--rounds", type=int, default=5)
    p.add_argument("--epochs", type=int, default=6)
    p.add_argument("--samples-per-client", type=int, default=200)
    p.add_argument("--test-samples", type=int, default=500)
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--batch", type=int, default=32)
    p.add_argument("--gamma-scale", type=float, default=0.02)
    p.add_argument("--center-scale", type=float, default=3.0)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("extract", help="read the watermark back out of a checkpoint")
    _add_dir(p)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("verify-verifier", help="serve proof sessions against the trained model")
    _add_dir(p); _add_seed(p)
    p.add_argument("--listen", required=True, metavar="HOST:PORT")
    p.add_argument("--sessions", type=int, default=1)
    p.add_argument("--transcript", default=None)
    p.add_argument("--timeout", type=float, default=120.0)
    p.set_defaults(func=cmd_verify_verifier)

    p = sub.add_parser("verify-prover", help="prove contribution to a running verifier")
    _add_dir(p); _add_seed(p)
    p.add_argument("--connect", required=True, metavar="HOST:PORT")
    p.add_argument("--client", type=int, required=True)
    p.add_argument("--transcript", default=None)
    p.add_argument("--timeout", type=float, default=120.0)
    p.set_defaults(func=cmd_verify_prover)

    p = sub.add_parser("attack", help="robustness and soundness experiments")
    attack = p.add_subparsers(dest="kind", required=True)

    a = attack.add_parser("finetune", help="keep training without the watermark loss")
    _add_dir(a)
    a.add_argument("--grid", type=_int_list, default=[0, 10, 20, 50],
                   help="comma-separated epoch counts")
    a.set_defaults(func=cmd_attack_finetune)

    a = attack.add_parser("prune", help="zero the smallest weights")
    _add_dir(a)
    a.add_argument("--grid", type=_float_list, default=[0.1, 0.3, 0.5, 0.7, 0.9],
                   help="comma-separated prune rates")
    a.set_defaults(func=cmd_attack_prune)

    a = attack.add_parser("noise", help="blur the scale vector until the mark dies")
    _add_dir(a); _add_seed(a)
    a.add_argument("--grid", type=_float_list, default=[0.05, 0.2, 0.4, 0.6, 0.85, 0.99],
                   help="comma-separated noise fractions")
    a.add_argument("--draws", type=int, default=3)
    a.set_defaults(func=cmd_attack_noise)

    a = attack.add_parser("game", help="Monte Carlo forgery game vs the analytic bound")
    _add_seed(a)
    a.add_argument("--m", type=int, default=24)
    a.add_argument("--l", type=int, default=12)
    a.add_argument("--tau", default="1/4")
    a.add_argument("--n", type=int, default=12)
    a.add_argument("--pr", default="2^-12")
    a.add_argument("--q", type=int, default=2)
    a.add_argument("--k", type=int, default=100)
    a.add_argument("--d", type=int, default=3)
    a.add_argument("--games", type=int, default=500)
    a.add_argument("--lcom", type=int, default=DEFAULT_COMMIT_BITS)
    a.set_defaults(func=cmd_attack_game)

    p = sub.add_parser("bounds", help="derived security quantities for a digest width")
    p.add_argument("--n", type=int, default=1024)
    p.add_argument("--pr", default="2^-128")
    p.add_argument("--k", type=int, default=1, help="adversary query budget for the advantage column")
    p.add_argument("--q", type=int, default=1, help="challenge instances for the advantage column")
    p.add_argument("--d", type=int, default=300, help="proof rounds for the advantage column")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("costs", help="verifier memory and session communication, in bits")
    p.add_argument("--m", type=int, default=800)
    p.add_argument("--l", type=int, default=700)
    p.add_argument("--K", type=int, default=10)
    p.add_argument("--d", type=int, default=300)
    p.add_argument("--lcom", type=int, default=DEFAULT_COMMIT_BITS)
    p.set_defaults(func=cmd_costs)

    p = sub.add_parser("bench", help="time proof generation or verification across sizes")
    _add_seed(p)
    p.add_argument("--stage", choices=("generation", "verification"), required=True)
    p.add_argument("--grid", type=_int_list, default=list(DEFAULT_GRID))
    p.add_argument("--reps", type=int, default=None)
    p.set_defaults(func=cmd_bench)

    return parser


def cli_dispatch(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the message
        return int(exc.code or 0)
    try:
        return args.func(args)
    except TransportError as exc:
        print(f"transport error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_dispatch())


if __name__ == "__main__":
    main()
