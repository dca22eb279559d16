import json
import os
import signal
import socket
import subprocess
import sys
import time

import pytest

from dlbeam.cli import main
from dlbeam.fixtures import fixture_path

TRAINS_KB = str(fixture_path("trains.kb"))
TRAINS_EX = str(fixture_path("trains.ex"))
SMOKE_KB = str(fixture_path("smoke.kb"))
SMOKE_EX = str(fixture_path("smoke.ex"))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_learn_solves_trains(capsys):
    code, out, err = run_cli(capsys, "learn", TRAINS_KB, TRAINS_EX,
                             "--beam", "4", "--max-length", "7")
    assert code == 0
    assert err == ""
    lines = out.splitlines()
    assert lines[0] == "status: solved"
    hypo = next(l for l in lines if l.strip().startswith("1."))
    assert "pos=5/5" in hypo and "neg=0/5" in hypo and "acc=1.000" in hypo


def test_learn_budget_exit_code(capsys):
    code, out, _ = run_cli(capsys, "learn", TRAINS_KB, TRAINS_EX,
                           "--max-millis", "0")
    assert code == 2
    assert "status: budget" in out


def test_learn_reports_parse_errors_with_caret(capsys, tmp_path):
    bad = tmp_path / "bad.kb"
    bad.write_text("class Train\nsubclass Train NoSuchThing\n")
    code, out, err = run_cli(capsys, "learn", str(bad), TRAINS_EX)
    assert code == 1
    assert out == ""
    assert "error:" in err and "line 2" in err


def test_learn_missing_file(capsys, tmp_path):
    code, _, err = run_cli(capsys, "learn", str(tmp_path / "nope.kb"), TRAINS_EX)
    assert code == 1
    assert "nope.kb" in err


def test_learn_json_output(capsys):
    code, out, _ = run_cli(capsys, "learn", TRAINS_KB, TRAINS_EX,
                           "--beam", "4", "--max-length", "7", "--json",
                           "--limit", "3")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert records, "expected JSON lines"
    assert all(r["type"] == "iteration" for r in records[:-1])
    result = records[-1]
    assert result["type"] == "result"
    assert result["status"] == "solved"
    hypos = result["hypotheses"]
    assert 1 <= len(hypos) <= 3
    assert hypos[0]["accuracy"] == 1.0
    assert hypos[0]["pos_covered"] == 5 and hypos[0]["neg_covered"] == 0
    assert hypos[0]["length"] >= 1
    assert hypos[0]["score"] > 1.0  # perfect accuracy plus gain bonus
    for it in records[:-1]:
        assert it["expanded"] >= 1
        assert it["generated"] >= it["redundant_dropped"]


def test_eval_reports_coverage(capsys):
    code, out, _ = run_cli(capsys, "eval", SMOKE_KB, SMOKE_EX,
                           "(hasChild some Thing)")
    assert code == 0
    assert "concept: (hasChild some Thing)" in out
    assert "pos covered: 2/2" in out
    assert "neg covered: 1/2" in out
    assert "accuracy: 0.7500" in out


def test_eval_bad_concept(capsys):
    code, _, err = run_cli(capsys, "eval", SMOKE_KB, SMOKE_EX, "(Person and)")
    assert code == 1
    assert "error:" in err


def test_eval_rejects_an_over_deep_concept(capsys):
    text = "(hasCar some " * 5_000 + "Thing" + ")" * 5_000
    code, out, err = run_cli(capsys, "eval", TRAINS_KB, TRAINS_EX, text)
    assert code == 1
    assert out == ""
    assert err.startswith("error: concept nested deeper than")
    assert "Traceback" not in err


def test_stats_counts_match_fixture(capsys, trains):
    code, out, _ = run_cli(capsys, "stats", TRAINS_KB, TRAINS_EX)
    assert code == 0
    got = dict(line.split(": ") for line in out.splitlines())
    kb = trains.kb
    assert int(got["classes"]) == kb.num_classes
    assert int(got["roles"]) == kb.num_roles
    assert int(got["individuals"]) == kb.num_individuals
    assert int(got["subclass axioms"]) == len(kb.subclass_edges)
    assert int(got["positive examples"]) == 5
    assert int(got["negative examples"]) == 5


def test_stats_without_examples(capsys):
    code, out, _ = run_cli(capsys, "stats", SMOKE_KB)
    assert code == 0
    assert "positive examples" not in out


def test_master_with_local_worker(capsys):
    code, out, _ = run_cli(capsys, "master", TRAINS_KB, TRAINS_EX,
                           "--with-local-worker", "--expect-workers", "1",
                           "--max-length", "7")
    assert code == 0
    assert "status: solved" in out
    assert "worker 127.0.0.1:" in out


def test_master_fails_when_workers_missing(capsys):
    code, _, err = run_cli(capsys, "master", TRAINS_KB, TRAINS_EX,
                           "--with-local-worker", "--expect-workers", "2",
                           "--discovery-millis", "400")
    assert code == 3
    assert "cluster error:" in err


def test_master_rejects_malformed_endpoint(capsys):
    code, _, err = run_cli(capsys, "master", TRAINS_KB, TRAINS_EX,
                           "--worker-endpoint", "nonsense")
    assert code == 1
    assert "bad worker endpoint" in err


@pytest.mark.parametrize("argv,fragment", [
    (["learn", "--beam", "0"], "beam_width must be >= 1, got 0"),
    (["learn", "--max-length", "0"], "max_length must be >= 1, got 0"),
    (["learn", "--noise", "1.5"], "noise must be in [0, 1), got 1.5"),
    (["learn", "--noise", "-0.5"], "noise must be in [0, 1), got -0.5"),
    (["learn", "--limit", "0"], "limit must be >= 1, got 0"),
    (["master", "--max-length", "70000"],
     "max_length must be in [1, 65535], got 70000"),
    (["master", "--limit", "70000"], "limit must be in [1, 65535], got 70000"),
    (["master", "--noise", "1.5"], "noise must be in [0, 1), got 1.5"),
    (["master", "--expect-workers", "0"], "expect_workers must be >= 1, got 0"),
    (["master", "--broadcast-port", "70000"],
     "port must be in [0, 65535], got 70000"),
    (["master", "--worker-endpoint", "127.0.0.1:70000"],
     "port must be in [0, 65535], got 70000"),
    (["master", "--io-timeout", "0"],
     "io_timeout must be a positive number of seconds, got 0.0"),
    (["master", "--io-timeout", "-1"],
     "io_timeout must be a positive number of seconds, got -1.0"),
    (["master", "--io-timeout", "nan"],
     "io_timeout must be a positive number of seconds, got nan"),
    (["master", "--io-timeout", "inf"],
     "io_timeout must be a positive number of seconds, got inf"),
])
def test_bad_search_flags_are_rejected_before_any_file_is_read(
        capsys, tmp_path, argv, fragment):
    command, *flags = argv
    missing = str(tmp_path / "missing.kb")
    code, out, err = run_cli(capsys, command, missing, TRAINS_EX, *flags)
    assert code == 1
    assert out == ""
    assert err == f"error: {fragment}\n"


@pytest.mark.parametrize("flags,fragment", [
    (["--cores", "0"], "cores must be in [1, 65535], got 0"),
    (["--cores", "70000"], "cores must be in [1, 65535], got 70000"),
    (["--threads", "0"], "threads must be >= 1, got 0"),
    (["--port", "70000"], "port must be in [0, 65535], got 70000"),
    (["--broadcast-port", "-1"], "port must be in [0, 65535], got -1"),
])
def test_bad_worker_flags_are_rejected(capsys, flags, fragment):
    argv = ["worker", "--host", "127.0.0.1", "--port", "0",
            "--broadcast-port", "0", *flags]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == f"error: {fragment}\n"


def test_worker_reports_a_port_in_use(capsys):
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as taken:
        taken.bind(("127.0.0.1", 0))
        taken.listen(1)
        port = taken.getsockname()[1]
        code, out, err = run_cli(capsys, "worker", "--host", "127.0.0.1",
                                 "--port", str(port), "--broadcast-port", "0")
    assert code == 1
    assert out == ""
    assert err.startswith("error: cannot listen on 127.0.0.1: ")


def _wait_for_udp_reply(port, deadline=10.0):
    """Ping the worker's UDP port until it replies with its TCP port."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock.settimeout(0.25)
    try:
        end = time.monotonic() + deadline
        while time.monotonic() < end:
            try:
                sock.sendto(b"SPDL?" + (0).to_bytes(2, "big"), ("127.0.0.1", port))
                data, _ = sock.recvfrom(64)
            except socket.timeout:
                continue
            if data.startswith(b"SPDL!"):
                return int.from_bytes(data[5:7], "big")
        raise AssertionError("worker never answered discovery ping")
    finally:
        sock.close()


def test_worker_subprocess_serves_and_stops_on_sigterm(capsys):
    udp_port = 47963  # fixed loopback port reserved for this test
    proc = subprocess.Popen(
        [sys.executable, "-m", "dlbeam.cli", "worker",
         "--port", "0", "--broadcast-port", str(udp_port), "--cores", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONUNBUFFERED": "1"})
    try:
        tcp_port = _wait_for_udp_reply(udp_port)
        code, out, _ = run_cli(capsys, "master", TRAINS_KB, TRAINS_EX,
                               "--worker-endpoint", f"127.0.0.1:{udp_port}",
                               "--expect-workers", "1", "--max-length", "7")
        assert code == 0
        assert f"worker 127.0.0.1:{tcp_port}" in out
        proc.send_signal(signal.SIGTERM)
        stdout, _ = proc.communicate(timeout=10)
        assert proc.returncode == 0
        assert "worker listening on" in stdout
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
