"""Public API surface: imports, exports, documentation presence."""

import importlib
import inspect
import os
import pkgutil
import subprocess
import sys

import pytest

import repro

#: Every subpackage and top-level module, discovered rather than listed.
ALL_MODULES = sorted(
    f"repro.{info.name}" for info in pkgutil.iter_modules(repro.__path__)
)

PUBLIC_MODULES = [
    "repro.analysis",
    "repro.app",
    "repro.apps",
    "repro.baseline",
    "repro.clock",
    "repro.crypto",
    "repro.errors",
    "repro.input",
    "repro.network",
    "repro.obs",
    "repro.prediction",
    "repro.runtime",
    "repro.session",
    "repro.simnet",
    "repro.terminal",
    "repro.traces",
    "repro.transport",
]


class TestImports:
    @pytest.mark.parametrize("name", PUBLIC_MODULES)
    def test_module_imports(self, name):
        module = importlib.import_module(name)
        assert module.__doc__, f"{name} lacks a module docstring"

    @pytest.mark.parametrize("name", PUBLIC_MODULES)
    def test_all_exports_resolve(self, name):
        module = importlib.import_module(name)
        for symbol in getattr(module, "__all__", []):
            assert hasattr(module, symbol), f"{name}.{symbol} missing"

    def test_version(self):
        assert repro.__version__

    @pytest.mark.parametrize("name", ALL_MODULES)
    def test_imports_first_in_fresh_interpreter(self, name):
        """Each module imports on its own, first thing in a new process:
        no import order hides a cycle."""
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", f"import {name}"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr


class TestErrorHierarchy:
    def test_all_errors_derive_from_repro_error(self):
        from repro import errors

        for name in dir(errors):
            obj = getattr(errors, name)
            if inspect.isclass(obj) and issubclass(obj, Exception):
                assert issubclass(obj, errors.ReproError) or obj is errors.ReproError

    def test_catching_the_base_catches_subsystem_errors(self):
        from repro.crypto.keys import Base64Key
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            Base64Key(b"short")


class TestDocstrings:
    @pytest.mark.parametrize(
        "cls_path",
        [
            "repro.crypto.ocb.OCBCipher",
            "repro.network.interface.DatagramEndpoint",
            "repro.transport.sender.TransportSender",
            "repro.transport.receiver.TransportReceiver",
            "repro.terminal.emulator.Emulator",
            "repro.terminal.display.Display",
            "repro.terminal.complete.Complete",
            "repro.prediction.engine.PredictionEngine",
            "repro.session.inprocess.InProcessSession",
            "repro.session.core.ServerCore",
            "repro.session.core.ClientCore",
            "repro.runtime.reactor.RealReactor",
            "repro.simnet.tcp.TcpEndpoint",
            "repro.traces.replay.ReplayResult",
            "repro.obs.registry.MetricsRegistry",
            "repro.obs.registry.Histogram",
            "repro.obs.trace.SpanTracer",
            "repro.obs.keystroke.KeystrokeLatencyTracker",
        ],
    )
    def test_key_classes_documented(self, cls_path):
        module_name, cls_name = cls_path.rsplit(".", 1)
        cls = getattr(importlib.import_module(module_name), cls_name)
        assert cls.__doc__ and len(cls.__doc__) > 20
        public_methods = [
            m
            for name, m in inspect.getmembers(cls, inspect.isfunction)
            if not name.startswith("_")
        ]
        undocumented = [m.__name__ for m in public_methods if not m.__doc__]
        assert not undocumented, f"{cls_path} methods lack docs: {undocumented}"
