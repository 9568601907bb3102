"""End-to-end checks of the command line: one tiny workspace, every command.

Commands run in-process through cli_dispatch so exit codes and stdout are
asserted directly; the verify pair really does cross a TCP socket.
"""

import json
import socket
import threading
import time

import numpy as np
import pytest

from fedzkp.cli import cli_dispatch
from fedzkp.gf2 import BitVec
from fedzkp.storage import load_credential, load_watermark, save_watermark
from fedzkp.watermark import HashWatermark

SIZES = ["--m", "48", "--l", "32", "--K", "3", "--n", "64", "--omega", "256",
         "--classes", "6", "--d-in", "8", "--l-com", "128", "--d", "8",
         "--pr", "2^-12", "--lam", "50", "--mu-hinge", "64"]


def run(*argv) -> int:
    return cli_dispatch(list(argv))


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """init + keygen + aggregate + train, shared by the whole module."""
    ws = tmp_path_factory.mktemp("cli_ws")
    assert run("init", "--dir", str(ws), "--seed", "7", *SIZES) == 0
    assert run("keygen", "--dir", str(ws), "--seed", "7") == 0
    assert run("aggregate", "--dir", str(ws)) == 0
    assert run("train", "--dir", str(ws), "--seed", "7", "--rounds", "4",
               "--epochs", "4", "--samples-per-client", "60",
               "--test-samples", "120", "--gamma-scale", "1.0") == 0
    return ws


class TestWorkspaceLifecycle:
    def test_init_writes_config(self, workspace):
        params = json.loads((workspace / "params.json").read_text())
        assert params["m"] == 48 and params["K"] == 3 and params["p_r"] == "2^-12"
        embed = json.loads((workspace / "embedding.json").read_text())
        assert embed["omega"] == 256 and embed["n"] == 64 and embed["seed"] == 7

    def test_keygen_wrote_every_client(self, workspace):
        for j in range(3):
            assert (workspace / f"credential_{j}.bin").exists()
            assert (workspace / f"public_{j}.bin").exists()

    def test_check_passes_for_each_client(self, workspace):
        for j in range(3):
            assert run("check", "--dir", str(workspace), "--client", str(j)) == 0

    def test_check_fails_on_tampered_watermark(self, workspace, tmp_path):
        wm = load_watermark(workspace / "watermark.json")
        bits = wm.h.bits.copy()
        bits[0] ^= 1
        flipped = BitVec(bits)
        # stage the forgery in a copy so the shared workspace stays clean
        for name in ("params.json", "aggregate.bin", "public_0.bin"):
            (tmp_path / name).write_bytes((workspace / name).read_bytes())
        save_watermark(tmp_path / "watermark.json", HashWatermark(flipped, wm.n))
        assert run("check", "--dir", str(tmp_path), "--client", "0") == 1

    @pytest.mark.parametrize("name", ["aggregate.bin", "public_0.bin"])
    def test_check_on_a_truncated_file_exits_with_an_error(self, workspace, tmp_path,
                                                           capsys, name):
        for f in ("params.json", "watermark.json", "aggregate.bin", "public_0.bin"):
            (tmp_path / f).write_bytes((workspace / f).read_bytes())
        (tmp_path / name).write_bytes((workspace / name).read_bytes()[:20])
        assert run("check", "--dir", str(tmp_path), "--client", "0") == 1
        assert "error:" in capsys.readouterr().err

    def test_train_outputs(self, workspace, capsys):
        assert (workspace / "checkpoint.bin").exists()
        record = json.loads((workspace / "train.json").read_text())
        assert record["seed"] == 7 and record["rounds"] == 4
        history = (workspace / "history.csv").read_text().strip().splitlines()
        assert history[0] == "round,r,accuracy" and len(history) == 5

    def test_extract_reports_rate(self, workspace, capsys):
        assert run("extract", "--dir", str(workspace)) == 0
        out = capsys.readouterr().out
        assert "r=" in out and "mismatches=" in out
        r = float(out.split("r=")[1].split()[0])
        assert 0.9 <= r <= 1.0  # strong embedding at this scale


def free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


class TestVerifyOverTcp:
    def test_prover_accepted(self, workspace):
        port = free_port()
        codes = []
        server = threading.Thread(
            target=lambda: codes.append(run(
                "verify-verifier", "--dir", str(workspace), "--seed", "1",
                "--listen", f"127.0.0.1:{port}", "--sessions", "1")))
        server.start()
        rc = 3
        for _ in range(40):  # dial until the listener is up
            rc = run("verify-prover", "--dir", str(workspace), "--seed", "2",
                     "--connect", f"127.0.0.1:{port}", "--client", "1")
            if rc != 3:
                break
            time.sleep(0.25)
        server.join(timeout=60)
        assert rc == 0 and codes == [0]

    def test_unreachable_port_is_transport_error(self, workspace):
        assert run("verify-prover", "--dir", str(workspace), "--seed", "2",
                   "--connect", f"127.0.0.1:{free_port()}", "--client", "0") == 3


class TestAttackCommands:
    def parse_csv(self, out: str):
        lines = out.strip().splitlines()
        return lines[0], [line.split(",") for line in lines[1:]]

    def test_finetune_sweep(self, workspace, capsys):
        assert run("attack", "finetune", "--dir", str(workspace), "--grid", "0,5") == 0
        header, rows = self.parse_csv(capsys.readouterr().out)
        assert header == "epochs,r,accuracy" and len(rows) == 2
        assert all(0.0 <= float(r) <= 1.0 for _, r, _ in rows)

    def test_prune_sweep(self, workspace, capsys):
        assert run("attack", "prune", "--dir", str(workspace), "--grid", "0.1,0.5,0.9") == 0
        header, rows = self.parse_csv(capsys.readouterr().out)
        assert header == "rate,r,accuracy" and len(rows) == 3

    def test_noise_sweep_draws(self, workspace, capsys):
        assert run("attack", "noise", "--dir", str(workspace), "--seed", "3",
                   "--grid", "0.2,0.99", "--draws", "2") == 0
        header, rows = self.parse_csv(capsys.readouterr().out)
        assert header == "phi,r,accuracy" and len(rows) == 4

    def test_game_under_bound(self, capsys):
        assert run("attack", "game", "--seed", "11", "--games", "30") == 0
        header, rows = self.parse_csv(capsys.readouterr().out)
        assert header == "games,wins,win_rate,bound,threshold,ok"
        games, wins = int(rows[0][0]), int(rows[0][1])
        assert games == 30 and 0 <= wins <= games


class TestStatelessCommands:
    def test_bounds_reference_point(self, capsys):
        assert run("bounds", "--n", "1024", "--pr", "2^-128") == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0] == "n,p_r,err_n,r_n,advantage"
        assert out[-1].startswith("1024,2^-128,153,0.8505859375,")
        assert float(out[-1].split(",")[-1]) < 1e-30  # negligible at k=q=1, d=300

    def test_costs_reference_point(self, capsys):
        assert run("costs", "--m", "800", "--l", "700", "--K", "10",
                   "--d", "300", "--lcom", "800") == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[1] == "12958500,6753400"
        assert "1.54 MB" in out[2] and "824 KB" in out[2]

    def test_bench_smoke(self, capsys):
        assert run("bench", "--stage", "verification", "--seed", "5",
                   "--grid", "150,250", "--reps", "2") == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "m,l,seconds" and lines.count("m,l,seconds") == 1
        assert [l.split(",")[0] for l in lines[1:3]] == ["150", "250"]
        assert len(lines) == 4 and lines[3].startswith("slope=")


class TestDispatch:
    def test_no_command_is_usage_error(self, capsys):
        assert run() == 2
        capsys.readouterr()

    def test_unknown_flag_is_usage_error(self, capsys):
        assert run("costs", "--bogus") == 2
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert run("--help") == 0
        assert "verify-prover" in capsys.readouterr().out

    def test_missing_workspace_is_runtime_error(self, tmp_path, capsys):
        assert run("check", "--dir", str(tmp_path / "absent"), "--client", "0") == 1
        assert "error:" in capsys.readouterr().err

    def test_env_seed_reproduces_keys(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FEDZKP_SEED", "31")
        dirs = []
        for name in ("a", "b"):
            ws = tmp_path / name
            assert run("init", "--dir", str(ws), *SIZES) == 0
            assert run("keygen", "--dir", str(ws)) == 0
            dirs.append(ws)
        for j in range(3):
            first, _ = load_credential(dirs[0] / f"credential_{j}.bin")
            second, _ = load_credential(dirs[1] / f"credential_{j}.bin")
            assert first.s == second.s and first.e == second.e
