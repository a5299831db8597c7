"""CLI surface and runnable examples (smoke level)."""

import subprocess
import sys

import pytest

from repro import cli


class TestArgParsing:
    def test_server_help(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.server_main(["--help"])
        assert exc.value.code == 0
        assert "UDP port" in capsys.readouterr().out

    def test_client_help(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.client_main(["--help"])
        assert exc.value.code == 0
        assert "base64" in capsys.readouterr().out

    def test_client_requires_args(self):
        with pytest.raises(SystemExit):
            cli.client_main([])


class TestConnIdArg:
    """The client's connection id is required and range-checked at parse
    time, before any socket opens."""

    @pytest.fixture(autouse=True)
    def no_client(self, monkeypatch):
        import repro.app.client

        def refuse(*args, **kwargs):
            raise AssertionError("the client was started")

        monkeypatch.setattr(repro.app.client, "ClientApp", refuse)

    KEY = "A" * 22

    @pytest.mark.parametrize(
        "value", ["-1", str(2**63), "18446744073709551616", "abc"]
    )
    def test_bad_conn_id_exits_2(self, value, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.client_main(["127.0.0.1", "60001", self.KEY, value])
        assert exc.value.code == 2
        assert "conn_id" in capsys.readouterr().err

    def test_conn_id_is_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.client_main(["127.0.0.1", "60001", self.KEY])
        assert exc.value.code == 2
        assert "conn_id" in capsys.readouterr().err


class TestIntervalFlags:
    """Timer intervals must be finite seconds > 0, rejected at parse time
    before the daemon binds a socket or spawns a pty."""

    @pytest.fixture(autouse=True)
    def no_daemon(self, monkeypatch):
        import repro.daemon.app

        def refuse(*args, **kwargs):
            raise AssertionError("the daemon was started")

        monkeypatch.setattr(repro.daemon.app, "DaemonApp", refuse)

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    def test_idle_timeout_rejected(self, value, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.serve_main([f"--idle-timeout={value}"])
        assert exc.value.code == 2
        assert "--idle-timeout" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    def test_metrics_interval_rejected(self, value, tmp_path, capsys):
        dump = str(tmp_path / "m.json")
        with pytest.raises(SystemExit) as exc:
            cli.serve_main(
                ["--metrics-dump", dump, f"--metrics-interval={value}"]
            )
        assert exc.value.code == 2
        assert "--metrics-interval" in capsys.readouterr().err


@pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="examples use pty/UDP"
)
class TestDemoCommand:
    def test_demo_runs_a_command(self, capsys):
        assert cli.demo_main(["--command", "echo demo-ran-ok", "--seconds", "6"]) == 0
        out = capsys.readouterr().out
        assert "MOSH CONNECT" in out
        assert "demo-ran-ok" in out


class TestExamples:
    @pytest.mark.parametrize(
        "script",
        [
            "quickstart.py",
            "roaming_demo.py",
            "prediction_demo.py",
            "monitor_dashboard.py",
        ],
    )
    def test_simulator_examples_run_clean(self, script):
        result = subprocess.run(
            [sys.executable, f"examples/{script}"],
            capture_output=True,
            text=True,
            timeout=180,
            cwd=".",
        )
        assert result.returncode == 0, result.stderr

    def test_quickstart_output_mentions_prediction(self):
        result = subprocess.run(
            [sys.executable, "examples/quickstart.py"],
            capture_output=True,
            text=True,
            timeout=180,
        )
        assert "instant=" in result.stdout
        assert "client and server agree" in result.stdout
