"""The benchmark's layer hooks still name real entry points.

``perfbench/layers.py`` wraps each layer's entry points by name, looked
up on the owning class (or module) when a run starts. Renaming one of
them breaks the benchmark only inside its own subprocess runs; this test
reads the same ``TARGETS`` table and fails in seconds instead.
"""

import importlib
import importlib.util
import os

import pytest

LAYERS_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "perfbench",
    "layers.py",
)


def _targets():
    spec = importlib.util.spec_from_file_location("_perfbench_layers", LAYERS_PATH)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers.TARGETS


def _hooks():
    for layer, module, owner, names, _count, _label in _targets():
        for name in names:
            yield pytest.param(
                module, owner, name, id=f"{layer}:{owner or module}.{name}"
            )


@pytest.mark.parametrize("module_name, owner_name, name", list(_hooks()))
def test_hook_resolves_on_its_owner(module_name, owner_name, name):
    module = importlib.import_module(module_name)
    owner = module if owner_name is None else vars(module)[owner_name]
    assert name in vars(owner), f"{owner_name or module_name} has no {name}"
    assert callable(vars(owner)[name])
