"""The public API surface: exports resolve, docstrings exist."""

import importlib
import inspect
import pkgutil

import pytest

import repro
from repro import api


class TestExports:
    def test_every_api_export_resolves(self):
        for name in api.__all__:
            assert getattr(api, name) is not None, name

    def test_lazy_loader_serves_all_api_names(self):
        for name in api.__all__:
            assert getattr(repro, name) is getattr(api, name), name

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="warp_core"):
            repro.warp_core

    def test_key_classes_exported(self):
        for name in (
            "NoPartitioningJoin",
            "RadixJoin",
            "CoopJoin",
            "MultiGpuJoin",
            "StarJoin",
            "TpchQ6",
            "ScanResult",
            "MorselDispatcher",
            "ibm_ac922",
            "intel_xeon_v100",
            "workload_a",
            "lineitem_q6",
        ):
            assert name in api.__all__, name


def _iter_modules():
    package = importlib.import_module("repro")
    for module_info in pkgutil.walk_packages(
        package.__path__, prefix="repro."
    ):
        yield module_info.name


class TestDocumentation:
    def test_every_module_has_a_docstring(self):
        undocumented = []
        for name in _iter_modules():
            module = importlib.import_module(name)
            if not (module.__doc__ or "").strip():
                undocumented.append(name)
        assert not undocumented, undocumented

    def test_public_classes_documented(self):
        undocumented = []
        for name in api.__all__:
            obj = getattr(api, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                if not (obj.__doc__ or "").strip():
                    undocumented.append(name)
        assert not undocumented, undocumented

    def test_public_methods_documented(self):
        """Every public method of the exported classes has a docstring."""
        undocumented = []
        for name in api.__all__:
            obj = getattr(api, name)
            if not inspect.isclass(obj):
                continue
            for attr_name, attr in vars(obj).items():
                if attr_name.startswith("_"):
                    continue
                if not inspect.isfunction(attr):
                    continue
                # getdoc follows the MRO: overriding an already-
                # documented base method (e.g. Operator.schema) is fine.
                if not (inspect.getdoc(getattr(obj, attr_name)) or "").strip():
                    undocumented.append(f"{name}.{attr_name}")
        assert not undocumented, undocumented
