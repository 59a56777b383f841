"""Command-line interface tests: flags, exit codes, output shapes."""

import json
import os
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import magicert
from magicert import cli, engine, entcf
from magicert.engine import read_transcripts


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


class TestRun:
    def test_honest_run_writes_transcripts_and_summary(self, capsys, tmp_path):
        out = tmp_path / "t.jsonl"
        code, stdout, _ = run_cli(
            capsys, "run", "--sessions", "60", "--lambda", "4",
            "--prover", "honest", "--seed", "7", "--out", str(out),
        )
        assert code == 0
        summary = json.loads(stdout)
        assert summary["sessions"] == 60
        assert summary["fail_pre"] == 0
        assert summary["fail_test"] == 0
        assert summary["fail_hyper"] == 0
        assert summary["aborted"] == 0
        assert len(read_transcripts(out)) == 60

    def test_same_seed_same_bytes(self, capsys, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        args = ["run", "--sessions", "25", "--lambda", "4", "--seed", "3"]
        code_a, out_a, _ = run_cli(capsys, *args, "--out", str(a))
        code_b, out_b, _ = run_cli(capsys, *args, "--out", str(b))
        assert code_a == code_b == 0
        assert out_a == out_b
        assert a.read_bytes() == b.read_bytes()

    def test_parallelism_flag_changes_nothing(self, capsys, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        base = ["run", "--sessions", "30", "--lambda", "4", "--seed", "11"]
        run_cli(capsys, *base, "--out", str(a))
        code, _, _ = run_cli(capsys, *base, "--parallelism", "4", "--out", str(b))
        assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unwritable_preimage_answer_aborts_and_is_written(self, capsys, tmp_path):
        script, out = tmp_path / "script.json", tmp_path / "t.jsonl"
        script.write_text(json.dumps({"ys": [0, 0, 0], "preimages": [[0, 99999], [1, 0], [0, 0]]}))
        code, stdout, _ = run_cli(
            capsys, "run", "--sessions", "8", "--lambda", "4",
            "--prover", f"scripted:{script}", "--seed", "5", "--out", str(out),
        )
        assert code == 0
        summary = json.loads(stdout)
        assert summary["aborted"] == 8 and summary["fail_pre"] == 0
        aborts = [t.abort for t in read_transcripts(out)]
        assert any(a.startswith("MalformedAnswerError") for a in aborts)

    def test_zero_sessions(self, capsys, tmp_path):
        out = tmp_path / "empty.jsonl"
        code, stdout, _ = run_cli(
            capsys, "run", "--sessions", "0", "--out", str(out)
        )
        assert code == 0
        assert json.loads(stdout)["sessions"] == 0
        assert out.exists()
        assert read_transcripts(out) == []

    def test_run_without_out_still_reports(self, capsys):
        code, stdout, _ = run_cli(
            capsys, "run", "--sessions", "10", "--lambda", "4", "--seed", "1"
        )
        assert code == 0
        assert json.loads(stdout)["sessions"] == 10

    @pytest.mark.parametrize(
        "argv",
        [
            ("run", "--sessions", "5", "--prover", "nonsense"),
            ("run", "--sessions", "-3",),
            ("run", "--sessions", "5", "--lambda", "3"),
            ("run", "--sessions", "5", "--lambda", "99"),
            ("run", "--sessions", "5", "--parallelism", "0"),
        ],
    )
    def test_bad_config_exits_2(self, capsys, argv):
        code, _, stderr = run_cli(capsys, *argv)
        assert code == 2
        assert stderr.strip() != ""

    def test_unwritable_out_exits_2(self, capsys, tmp_path):
        code, _, stderr = run_cli(
            capsys, "run", "--sessions", "2", "--lambda", "4",
            "--out", str(tmp_path / "no" / "such" / "dir" / "t.jsonl"),
        )
        assert code == 2
        assert stderr.strip() != ""


class TestAnalyze:
    def make_transcripts(self, tmp_path, spec, n, seed):
        path = tmp_path / f"{spec.replace(':', '_')}.jsonl"
        engine.run_batch(entcf.SecurityParam(4), spec, n, seed, sink=str(path))
        return path

    def test_honest_accepts_exit_0(self, capsys, tmp_path):
        path = self.make_transcripts(tmp_path, "honest", 300, 2)
        code, stdout, _ = run_cli(capsys, "analyze", str(path))
        assert code == 0
        assert "ACCEPT" in stdout
        assert "1/3" in stdout

    def test_heavy_noise_rejects_exit_1(self, capsys, tmp_path):
        path = self.make_transcripts(tmp_path, "noisy:bitflip:0.5", 400, 5)
        code, stdout, _ = run_cli(capsys, "analyze", str(path))
        assert code == 1
        assert "REJECT" in stdout

    def test_soundness_flags_are_applied(self, capsys, tmp_path):
        path = self.make_transcripts(tmp_path, "honest", 200, 9)
        code, stdout, _ = run_cli(
            capsys, "analyze", str(path),
            "--epsilon", "0.1", "--delta", "0.01",
            "--c", "2.5", "--r", "2", "--negl", "0.001",
        )
        assert code == 0
        assert "c = 2.5" in stdout
        assert "r = 2" in stdout

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, stderr = run_cli(capsys, "analyze", str(tmp_path / "nope.jsonl"))
        assert code == 2
        assert stderr.strip() != ""

    def test_bad_epsilon_exits_2(self, capsys, tmp_path):
        path = self.make_transcripts(tmp_path, "honest", 20, 1)
        code, _, _ = run_cli(capsys, "analyze", str(path), "--epsilon", "1.5")
        assert code == 2

    def test_corrupt_transcripts_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("this is not a transcript\n")
        code, _, stderr = run_cli(capsys, "analyze", str(path))
        assert code == 2
        assert stderr.strip() != ""

    @pytest.mark.parametrize("constant", ["Infinity", "-Infinity", "NaN"])
    def test_json_constant_index_exits_2(self, capsys, tmp_path, constant):
        path = self.make_transcripts(tmp_path, "honest", 3, 1)
        lines = path.read_text().splitlines()
        lines[1] = lines[1].replace('"index": 1,', f'"index": {constant},')
        path.write_text("\n".join(lines) + "\n")
        code, _, stderr = run_cli(capsys, "analyze", str(path))
        assert code == 2
        assert stderr.startswith("error: line 2:")


class TestDemo:
    def test_magic_impossibility(self, capsys):
        code, stdout, _ = run_cli(capsys, "demo", "magic-impossibility")
        assert code == 0
        # (2 + sqrt 2)/4 shows up in both X-basis tables
        assert stdout.count("0.853553390593") == 2
        assert "fidelity" in stdout.lower()

    def test_stabilizer_fidelity(self, capsys):
        code, stdout, _ = run_cli(capsys, "demo", "stabilizer-fidelity")
        assert code == 0
        assert "1080" in stdout
        assert "0.5625" in stdout
        # one line per phase choice
        assert stdout.count("max fidelity") == 8

    def test_stabilizer_check(self, capsys):
        code, stdout, _ = run_cli(capsys, "demo", "stabilizer-check")
        assert code == 0
        assert stdout.count("ok") >= 8

    def test_unknown_demo_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "demo", "bogus")
        assert code == 2


class TestSampleSize:
    def test_frozen_value(self, capsys):
        code, stdout, _ = run_cli(
            capsys, "samplesize", "--epsilon", "0.05", "--delta", "0.01"
        )
        assert code == 0
        assert stdout.strip() == "1060"

    def test_small_budget(self, capsys):
        code, stdout, _ = run_cli(
            capsys, "samplesize", "--epsilon", "0.5", "--delta", "0.5"
        )
        assert code == 0
        assert stdout.strip() == "3"

    def test_epsilon_out_of_range_exits_2(self, capsys):
        code, _, stderr = run_cli(
            capsys, "samplesize", "--epsilon", "1.5", "--delta", "0.1"
        )
        assert code == 2
        assert stderr.strip() != ""


class TestServeConnect:
    def test_loopback_accepts(self, capsys, tmp_path):
        port = free_port()
        out = tmp_path / "served.jsonl"
        server_code = {}

        def serve():
            server_code["rc"] = cli.main([
                "serve", "--listen", f"127.0.0.1:{port}",
                "--sessions", "3", "--lambda", "4", "--seed", "21",
                "--out", str(out),
            ])

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        client_code = None
        for _ in range(100):
            client_code = cli.main([
                "connect", "--addr", f"127.0.0.1:{port}",
                "--prover", "honest", "--seed", "21",
            ])
            if client_code == 0:
                break
            time.sleep(0.1)
        thread.join(timeout=20)
        assert not thread.is_alive()
        assert client_code == 0
        assert server_code["rc"] == 0
        stdout = capsys.readouterr().out
        assert stdout.count("accept") >= 3
        transcripts = read_transcripts(out)
        assert len(transcripts) == 3
        assert all(t.accept for t in transcripts)

    def test_stdio_pair_finishes_cleanly_and_serves_the_run_bytes(self, capsys, tmp_path):
        """serve --listen stdio and connect --addr stdio joined by two pipes."""
        served, ran = tmp_path / "served.jsonl", tmp_path / "ran.jsonl"
        common = ["--lambda", "4", "--seed", "31"]
        env = {**os.environ, "PYTHONPATH": str(Path(magicert.__file__).parents[1])}
        to_client_r, to_client_w = os.pipe()
        to_server_r, to_server_w = os.pipe()
        cmd = [sys.executable, "-m", "magicert.cli"]
        try:
            server = subprocess.Popen(
                [*cmd, "serve", "--listen", "stdio", "--sessions", "5", *common,
                 "--out", str(served)],
                stdin=to_server_r, stdout=to_client_w, stderr=subprocess.PIPE, env=env)
            client = subprocess.Popen(
                [*cmd, "connect", "--addr", "stdio", "--prover", "honest", "--seed", "31"],
                stdin=to_client_r, stdout=to_server_w, stderr=subprocess.PIPE, env=env)
        finally:
            for fd in (to_client_r, to_client_w, to_server_r, to_server_w):
                os.close(fd)
        _, server_err = server.communicate(timeout=60)
        _, client_err = client.communicate(timeout=60)
        assert (server.returncode, client.returncode) == (0, 0), client_err.decode()
        assert json.loads(server_err)["sessions"] == 5
        assert client_err.decode().endswith("5/5 accepted\n")

        code, _, _ = run_cli(capsys, "run", "--sessions", "5", *common, "--prover", "honest",
                             "--out", str(ran))
        assert code == 0
        assert served.read_bytes() == ran.read_bytes()

    def test_bad_listen_spec_exits_2(self, capsys):
        code, _, stderr = run_cli(capsys, "serve", "--listen", "not-an-endpoint")
        assert code == 2
        assert stderr.strip() != ""

    def test_connect_refused_exits_2(self, capsys):
        port = free_port()
        code, _, stderr = run_cli(
            capsys, "connect", "--addr", f"127.0.0.1:{port}",
            "--prover", "honest", "--seed", "1",
        )
        assert code == 2
        assert stderr.strip() != ""


class TestParserSurface:
    @pytest.mark.parametrize(
        "sub,flags",
        [
            ("run", ["--sessions", "--lambda", "--prover", "--seed", "--out",
                     "--parallelism"]),
            ("analyze", ["--epsilon", "--delta", "--c", "--r", "--negl"]),
            ("samplesize", ["--epsilon", "--delta"]),
            ("serve", ["--listen", "--sessions", "--lambda", "--seed", "--out"]),
            ("connect", ["--addr", "--prover", "--seed"]),
        ],
    )
    def test_help_documents_flags(self, capsys, sub, flags):
        code, stdout, _ = run_cli(capsys, sub, "--help")
        assert code == 0
        for flag in flags:
            assert flag in stdout

    def test_no_subcommand_exits_2(self, capsys):
        code, _, _ = run_cli(capsys)
        assert code == 2

    def test_top_level_help(self, capsys):
        code, stdout, _ = run_cli(capsys, "--help")
        assert code == 0
        for sub in ("run", "analyze", "demo", "samplesize", "serve", "connect"):
            assert sub in stdout
