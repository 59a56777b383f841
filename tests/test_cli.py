"""Command-line interface tests: flags, exit codes, output shapes."""

import contextlib
import dataclasses
import io
import json
import os
import socket
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import magicert
from magicert import cli, engine, entcf, qsim
from magicert.engine import iter_transcripts, read_transcripts
from magicert.errors import ParameterError


# script files json.load cannot read, each by an error other than JSONDecodeError
UNLOADABLE_SCRIPTS = {
    "not-utf8": b'{"ys": ["\xff"]}',
    "nested-past-the-recursion-limit": b"[" * 100000 + b"]" * 100000,
    "int-over-4300-digits": b'{"ys": [' + b"1" * 5000 + b"]}",
}
# JSON documents of every shape, so that some scripts load and reach the prover
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.sampled_from(["ys", "preimages", "ds", "vs", "v"]), inner, max_size=4),
    max_leaves=12)


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

    @pytest.mark.parametrize("name", ["a\x00b", "\ud800"], ids=["nul", "lone-surrogate"])
    @pytest.mark.parametrize("command", [("analyze",),
                                         ("run", "--sessions", "2", "--lambda", "4", "--out")],
                             ids=["analyze", "run-out"])
    def test_a_path_no_file_can_have_exits_2_with_one_line(self, capsys, tmp_path, name,
                                                            command):
        path = str(tmp_path / name)
        code, stdout, stderr = run_cli(capsys, *command, path)
        assert code == 2 and stdout == ""
        assert stderr.startswith(f"error: cannot open {path!r}: ")
        assert stderr.count("\n") == 1

    @pytest.mark.parametrize("host", ["a\x00b", "\ud800"], ids=["nul", "lone-surrogate"])
    @pytest.mark.parametrize("option", ["--listen", "--addr"])
    def test_a_host_no_socket_can_take_exits_2_with_one_line(self, capsys, host, option):
        """parse_endpoint refuses the host, so serve binds nothing and connect looks up
        nothing."""
        command = "serve" if option == "--listen" else "connect"
        code, stdout, stderr = run_cli(capsys, command, option, f"{host}:0")
        assert code == 2 and stdout == ""
        assert stderr.startswith(f"error: endpoint {host + ':0'!r} ")
        assert stderr.count("\n") == 1

    @pytest.mark.parametrize("command", [("run", "--sessions", "2", "--lambda", "4"),
                                         ("connect", "--addr", "127.0.0.1:1")],
                             ids=["run", "connect"])
    @pytest.mark.parametrize("name", UNLOADABLE_SCRIPTS)
    def test_a_script_that_cannot_load_exits_2_with_one_line(self, capsys, tmp_path, name,
                                                              command):
        """connect parses the spec before it connects, so nothing listens at port 1."""
        script = tmp_path / "script.json"
        script.write_bytes(UNLOADABLE_SCRIPTS[name])
        code, stdout, stderr = run_cli(capsys, *command, "--prover", f"scripted:{script}")
        assert code == 2 and stdout == ""
        assert stderr.startswith(f"error: cannot load script {str(script)!r}: ")
        assert stderr.count("\n") == 1


def assert_exits_cleanly(argv):
    """main(argv) exits 0, 1 or 2, raises and prints no traceback, and exits 1 only on a
    printed REJECT."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    assert code != 1 or "decision: REJECT" in out.getvalue()


class TestAnyFileBytes:
    @settings(max_examples=200, deadline=None)
    @given(data=st.binary(max_size=200) | JSON_VALUES.map(lambda v: json.dumps(v).encode()))
    def test_no_file_content_raises_out_of_main(self, data):
        """A scripted prover's file and a transcript file hold any bytes: run and analyze
        exit 0, 1 or 2, print no traceback, and exit 1 only on a printed REJECT."""
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "file.json")
            with open(path, "wb") as fh:
                fh.write(data)
            for argv in (["run", "--prover", f"scripted:{path}", "--sessions", "2",
                          "--lambda", "4"], ["analyze", path]):
                assert_exits_cleanly(argv)


def as_int(text: str):
    """text as argparse's type=int reads it, or None."""
    try:
        return int(text)
    except ValueError:
        return None


def refused_endpoint(text: str) -> bool:
    try:
        engine.parse_endpoint(text)
    except ParameterError:
        return True
    return False


@dataclasses.dataclass(frozen=True)
class InDir:
    """An option value naming a file in the sweep's directory, after an optional prefix."""

    name: str
    prefix: str = ""

    def value(self, root) -> str:
        return self.prefix + os.path.join(root, self.name)


# argv cannot carry a NUL
TEXT = st.text(st.characters(exclude_characters="\x00"), max_size=12)
# file names in the sweep's directory: the two files it holds, or any name, "." among them
NAMES = st.sampled_from(["t.jsonl", "script.json"]) | st.text(
    st.characters(exclude_characters="\x00/"), min_size=1, max_size=12).filter(
    lambda name: name != "..")
FLOATS = st.floats().map(str) | st.sampled_from(["1e999", "-1e999", "5e-324", "1e-160"]) | TEXT


def ints_up_to(top: int):
    """An int option's value: any text, but none that reads as an int above top."""
    return st.integers(max_value=top).map(str) | TEXT.filter(
        lambda text: as_int(text) is None or as_int(text) <= top)


PROVERS = (st.sampled_from(["honest", "stabilizer", "noisy:bitflip:0.3", "noisy:depol:0.2"])
           | st.builds("noisy:{}:{}".format, st.sampled_from(["bitflip", "depol"]) | TEXT,
                       FLOATS)
           | NAMES.map(lambda name: InDir(name, "scripted:"))
           | TEXT.filter(lambda text: not text.startswith("scripted:")))
OPTIONS = {
    "--sessions": ints_up_to(50),
    "--lambda": ints_up_to(12),
    "--seed": st.integers().map(str) | TEXT,
    "--parallelism": ints_up_to(4),
    "--out": NAMES.map(InDir),
    "--prover": PROVERS,
    "--epsilon": FLOATS, "--delta": FLOATS, "--c": FLOATS, "--r": FLOATS, "--negl": FLOATS,
}
COMMAND_OPTIONS = {
    "run": ["--sessions", "--lambda", "--seed", "--parallelism", "--out", "--prover"],
    "analyze": ["--epsilon", "--delta", "--c", "--r", "--negl"],
    "samplesize": ["--epsilon", "--delta"],
    "demo": [],
    "serve": ["--sessions", "--lambda", "--seed", "--out"],
    "connect": ["--seed", "--prover"],
}


@st.composite
def command_lines(draw):
    """A command with any values for its options; serve and connect end on an endpoint
    parse_endpoint refuses, so that neither listens nor connects."""
    command = draw(st.sampled_from(sorted(COMMAND_OPTIONS)))
    argv = [command]
    if command == "analyze":
        argv.append(draw(NAMES.map(InDir)))
    elif command == "demo":
        argv.append(draw(st.sampled_from(sorted(cli._DEMOS)) | TEXT))
    options = COMMAND_OPTIONS[command]
    for option in draw(st.lists(st.sampled_from(options), max_size=4)) if options else []:
        argv += [option, draw(OPTIONS[option])]
    if command in ("serve", "connect"):
        argv += ["--listen" if command == "serve" else "--addr",
                 draw(TEXT.filter(refused_endpoint))]
    return argv


class TestAnyOptionStrings:
    @pytest.fixture(scope="class")
    def root(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("sweep")
        engine.run_batch(entcf.SecurityParam(4), "honest", 300, 2, sink=str(root / "t.jsonl"))
        (root / "script.json").write_text(json.dumps({"ys": [0, 1, 2]}))
        return root

    @settings(max_examples=300, deadline=None)
    @given(argv=command_lines())
    def test_no_option_value_raises_out_of_main(self, root, argv):
        """Every command with any option values exits 0, 1 or 2, prints no traceback, and
        exits 1 only on a printed REJECT."""
        assert_exits_cleanly([v if isinstance(v, str) else v.value(root) for v in argv])


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

    def test_epsilon_changes_the_report(self, capsys, tmp_path):
        path = self.make_transcripts(tmp_path, "honest", 300, 2)
        coarse = run_cli(capsys, "analyze", str(path), "--epsilon", "0.5")[1]
        fine = run_cli(capsys, "analyze", str(path), "--epsilon", "0.001")[1]
        assert coarse != fine
        assert "need 48)" in coarse and "need 11859500)" in fine

    def test_ten_thousand_honest_sessions_are_under_sampled(self, capsys, tmp_path):
        path = self.make_transcripts(tmp_path, "honest", 10_000, 3)
        code, stdout, _ = run_cli(capsys, "analyze", str(path), "--epsilon", "0.001")
        assert code == 0 and "decision: ACCEPT" in stdout
        assert stdout.count("need 11859500)  under-sampled") == 3
        assert "unresolved: score + deviation" in stdout

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, stderr = run_cli(capsys, "analyze", str(tmp_path / "nope.jsonl"))
        assert code == 2
        assert stderr.strip() != ""

    def test_bad_epsilon_exits_2(self, capsys, tmp_path):
        path = self.make_transcripts(tmp_path, "honest", 20, 1)
        code, _, _ = run_cli(capsys, "analyze", str(path), "--epsilon", "1.5")
        assert code == 2

    @pytest.mark.parametrize("flag, value", [("--epsilon", "1e-200"), ("--r", "inf"),
                                             ("--r", "2050"), ("--c", "inf"),
                                             ("--negl", "nan")])
    def test_values_the_report_cannot_compute_exit_2(self, capsys, tmp_path, flag, value):
        path = self.make_transcripts(tmp_path, "honest", 20, 1)
        code, stdout, stderr = run_cli(capsys, "analyze", str(path), flag, value)
        assert (code, stdout) == (2, "")
        assert stderr.startswith("error: ") and str(float(value)) in stderr

    @pytest.mark.parametrize("value", ["2047", "2046.5"])
    def test_an_exponent_whose_deviation_factor_overflows_exits_2(self, capsys, tmp_path,
                                                                  value):
        path = self.make_transcripts(tmp_path, "honest", 20, 1)
        code, stdout, stderr = run_cli(capsys, "analyze", str(path), "--r", value)
        assert (code, stdout) == (2, "")
        assert f"r={float(value)}" in stderr
        code, stdout, _ = run_cli(capsys, "analyze", str(path), "--r", "2046")
        assert code in (0, 1) and "radius exponent 1" in stdout

    def test_a_deviation_bound_that_overflows_reads_inf_and_is_unresolved(self, capsys,
                                                                          tmp_path):
        # at r = 2046 each radius enters with the finite factor 2^1023 - 1, so these
        # radii (about 4.2 in all) overflow the bound, an IEEE double, to inf
        path = self.make_transcripts(tmp_path, "honest", 20, 1)
        code, stdout, _ = run_cli(capsys, "analyze", str(path), "--r", "2046")
        assert code == 0 and "decision: ACCEPT" in stdout
        assert "deviation: score is within inf of the true value" in stdout
        assert stdout.endswith("  unresolved: score + deviation = inf reaches 1/3, so this "
                               "sample cannot rule out REJECT\n")

    def test_corrupt_transcripts_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("this is not a transcript\n")
        code, _, stderr = run_cli(capsys, "analyze", str(path))
        assert code == 2
        assert stderr.strip() != ""

    def test_analyze_reads_the_file_as_a_stream(self, capsys, tmp_path, monkeypatch):
        path = self.make_transcripts(tmp_path, "honest", 300, 2)
        read = []

        def counted(path):
            for t in iter_transcripts(path):
                read.append(t.index)
                yield t

        monkeypatch.setattr(engine, "read_transcripts", None)
        monkeypatch.setattr(engine, "iter_transcripts", counted)
        code, stdout, _ = run_cli(capsys, "analyze", str(path))
        assert code == 0 and "ACCEPT" in stdout
        assert read == list(range(300))

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

    @pytest.mark.parametrize("name, attr, value, stderr, row", [
        ("stabilizer-fidelity", "fidelity", 0.6,
         "stabilizer bound violated", "max fidelity 0.600000000000"),
        ("stabilizer-check", "expectation", 0.5,
         "identity check failed", "stabilizer expectations MISMATCH"),
        ("magic-impossibility", "magic_impossibility_demo",
         dataclasses.replace(qsim.magic_impossibility_demo(), z_gap=1e-3),
         "demonstration failed: basis statistics unexpectedly distinguish the two states",
         "  0.853553390593"),
        ("magic-impossibility", "magic_impossibility_demo",
         dataclasses.replace(qsim.magic_impossibility_demo(), fidelity=1.0),
         "demonstration failed: the two states should differ", "  0.853553390593"),
    ], ids=["stabilizer-fidelity", "stabilizer-check", "magic-gap", "magic-fidelity"])
    def test_a_failed_check_exits_1_after_its_rows(self, capsys, monkeypatch, name, attr,
                                                   value, stderr, row):
        monkeypatch.setattr(qsim, attr, lambda *args: value)
        code, stdout, err = run_cli(capsys, "demo", name)
        assert code == 1
        assert err == stderr + "\n"
        # every row is printed before the check: one per phase choice, or the two X tables'
        assert stdout.count(row) == (2 if name == "magic-impossibility" else 8)

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

    @pytest.mark.parametrize("eps, delta", [("1e-160", "0.1"), ("1e-200", "0.1"),
                                            ("0.5", "5e-324")])
    def test_epsilon_without_a_finite_sample_size_exits_2(self, capsys, eps, delta):
        code, stdout, stderr = run_cli(capsys, "samplesize", "--epsilon", eps, "--delta", delta)
        assert (code, stdout) == (2, "")
        assert stderr == (f"error: precision {eps} and failure probability {delta} "
                          "have no finite sample size\n")

    def test_epsilon_out_of_range_exits_2(self, capsys):
        code, _, stderr = run_cli(
            capsys, "samplesize", "--epsilon", "1.5", "--delta", "0.1"
        )
        assert code == 2
        assert stderr.strip() != ""


class TestServeConnect:
    def test_negative_session_count_exits_2_without_listening(self, capsys):
        result = {}
        thread = threading.Thread(daemon=True, target=lambda: result.setdefault(
            "rc", cli.main(["serve", "--listen", "127.0.0.1:0", "--sessions", "-1"])))
        thread.start()
        thread.join(5.0)
        assert not thread.is_alive() and result == {"rc": 2}
        assert "negative" in capsys.readouterr().err

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

    @pytest.mark.parametrize("port", ["\u00b2", "70000", "\uff10"], ids=["superscript-2", "70000",
                                                                   "fullwidth-0"])
    def test_a_port_not_ascii_digits_up_to_65535_exits_2(self, capsys, port):
        # before the rule: a ValueError or OverflowError traceback, or a listen on port 0
        code, _, stderr = run_cli(capsys, "serve", "--listen", f"127.0.0.1:{port}",
                                  "--sessions", "1")
        assert code == 2 and "port 0-65535" in stderr
        code, _, stderr = run_cli(capsys, "connect", "--addr", f"127.0.0.1:{port}",
                                  "--prover", "honest", "--seed", "1")
        assert code == 2 and "port 0-65535" in stderr

    def test_connect_escapes_the_peer_abort_text(self, capsys, monkeypatch):
        hostile = "\x1b[2J\x1b[31mfake\r\n"
        verdicts = [{"accept": False, "flag": None, "abort": hostile}]
        monkeypatch.setattr(engine, "connect", lambda addr, prover, seed: verdicts)
        code, stdout, _ = run_cli(capsys, "connect", "--addr", "127.0.0.1:1",
                                  "--prover", "honest", "--seed", "1")
        assert code == 0
        assert "\x1b" not in stdout and "\r" not in stdout
        assert "session 0: abort ('\\x1b[2J\\x1b[31mfake\\r\\n')" in stdout

    def test_connect_prints_an_empty_abort_as_an_abort(self, capsys):
        """A server whose VERDICT carries "abort": "" (flag null, accept false): the rules
        take it as an abort, and so must the printed line."""

        class EmptyAbort:
            """A server's write end that sends each VERDICT with an empty abort text."""

            def __init__(self, inner):
                self.inner = inner

            def write(self, data):
                msg = engine.Message.decode(data)
                if msg.kind == "VERDICT":
                    data = engine.Message(msg.sid, msg.seq, "VERDICT", {
                        "accept": False, "flag": None, "abort": ""}).encode()
                return self.inner.write(data)

            def flush(self):
                self.inner.flush()

        with socket.create_server(("127.0.0.1", 0)) as server:
            def serve():
                conn, _ = server.accept()
                with conn, conn.makefile("rb") as rfile, conn.makefile("wb") as wfile:
                    engine._serve_sessions(rfile, EmptyAbort(wfile), entcf.SecurityParam(4), 5, 2)

            thread = threading.Thread(target=serve, daemon=True)
            thread.start()
            code, stdout, _ = run_cli(capsys, "connect", "--addr",
                                      f"127.0.0.1:{server.getsockname()[1]}",
                                      "--prover", "honest", "--seed", "5")
            thread.join(10.0)
        assert not thread.is_alive()
        assert code == 0
        assert stdout == "session 0: abort ('')\nsession 1: abort ('')\n0/2 accepted\n"

    def test_connect_prints_each_reject_with_its_flag(self, capsys):
        port_ready, holder = threading.Event(), {}

        def on_listen(port):
            holder["port"] = port
            port_ready.set()

        thread = threading.Thread(daemon=True, target=lambda: engine.serve(
            entcf.SecurityParam(4), "127.0.0.1:0", 5, 20, on_listen=on_listen))
        thread.start()
        assert port_ready.wait(5.0)
        code, stdout, _ = run_cli(capsys, "connect", "--addr", f"127.0.0.1:{holder['port']}",
                                  "--prover", "noisy:bitflip:1", "--seed", "5")
        thread.join(10.0)
        assert not thread.is_alive()
        assert code == 0
        lines = stdout.splitlines()
        assert [line for line in lines if "reject" in line] == [
            "session 1: reject (flag=fail_test)",
            "session 5: reject (flag=fail_test)",
            "session 8: reject (flag=fail_test)",
            "session 13: reject (flag=fail_hyper)",
            "session 14: reject (flag=fail_test)",
            "session 19: reject (flag=fail_test)",
        ]
        assert lines[-1] == "14/20 accepted"

    def test_connect_prints_each_abort_before_the_round_and_exits_0(self, capsys, tmp_path):
        script = tmp_path / "script.json"
        script.write_text(json.dumps({"ys": [1, 2]}))  # two commitments of three
        port_ready, holder = threading.Event(), {}

        def on_listen(port):
            holder["port"] = port
            port_ready.set()

        thread = threading.Thread(daemon=True, target=lambda: engine.serve(
            entcf.SecurityParam(4), "127.0.0.1:0", 3, 2, on_listen=on_listen))
        thread.start()
        assert port_ready.wait(5.0)
        code, stdout, _ = run_cli(capsys, "connect", "--addr", f"127.0.0.1:{holder['port']}",
                                  "--prover", f"scripted:{script}", "--seed", "3")
        thread.join(10.0)
        assert not thread.is_alive()
        assert code == 0
        assert stdout == "".join(f"session {i}: abort ('MalformedAnswerError: expected 3 bit "
                                 "strings')\n" for i in range(2)) + "0/2 accepted\n"

    def test_serve_to_a_missing_directory_exits_2_before_listening(self, capsys, tmp_path,
                                                                    monkeypatch):
        def listen(*args, **kwargs):
            raise AssertionError("serve listened before it opened its sink")

        monkeypatch.setattr(engine.socket, "create_server", listen)
        code, stdout, stderr = run_cli(capsys, "serve", "--listen", "127.0.0.1:0",
                                       "--sessions", "1", "--out",
                                       str(tmp_path / "missing" / "s.jsonl"))
        assert (code, stdout) == (2, "")
        assert stderr.startswith("error: ") and stderr.count("\n") == 1

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
