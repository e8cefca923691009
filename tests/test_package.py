"""The package namespace: each exported name loads its home module on first
access. What ``import qmeas`` itself loads is pinned in a fresh interpreter
by test_config_cli.py::TestStartup."""

import importlib
import types

import pytest

import qmeas


def test_each_export_is_the_object_of_its_home_module():
    for name in qmeas.__all__:
        obj = getattr(qmeas, name)
        assert getattr(importlib.import_module(obj.__module__), name) is obj, name
        assert vars(qmeas)[name] is obj  # cached after the first access


def test_lindblad_model_is_the_monitoring_model():
    assert qmeas.LindbladModel is qmeas.MonitoringModel


def test_dir_covers_all():
    assert set(qmeas.__all__) <= set(dir(qmeas))
    assert "__version__" in dir(qmeas)


def test_star_import_binds_every_name():
    namespace = {}
    exec("from qmeas import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(qmeas.__all__)
    assert all(namespace[name] is getattr(qmeas, name) for name in qmeas.__all__)


def test_from_import_still_gives_a_submodule():
    from qmeas import sse

    assert isinstance(sse, types.ModuleType)
    assert sse is importlib.import_module("qmeas.sse")


@pytest.mark.parametrize("name", ["no_such_name", "pauli_y", "_HOMES"])
def test_unknown_name_is_an_attribute_error(name):
    with pytest.raises(AttributeError, match=f"^module 'qmeas' has no attribute '{name}'$"):
        getattr(qmeas, name)
    assert not hasattr(qmeas, name)
