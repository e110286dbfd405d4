"""The benchmark reaches into braidorbit by name: those names must resolve.

`perfbench/spans.py` wraps the functions and methods it lists for the
traced run (`--trace 1`), and `perfbench/workloads.py` calls charvar,
classify, connect, kernel and reflgrp functions directly, some with
keywords.  A rename inside the package would otherwise only show when
the benchmark runs.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

from braidorbit import reflgrp

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    spans = _spans()
    for modname, attr, _ in spans.FUNCTIONS:
        assert callable(getattr(importlib.import_module(modname), attr, None)), (modname, attr)
    for modname, clsname, attrs, _ in spans.METHODS:
        cls = getattr(importlib.import_module(modname), clsname)
        for attr in attrs:
            assert callable(getattr(cls, attr, None)), (modname, clsname, attr)


def _workloads():
    return ast.parse((PERFBENCH / "workloads.py").read_text())


# the braidorbit modules that the workloads import and call by name
WORKLOAD_MODULES = ("charvar", "classify", "connect", "kernel", "reflgrp")


def test_workload_names_resolve():
    tree = _workloads()
    names = {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in WORKLOAD_MODULES
    }
    assert {
        ("kernel", "line_orbit"),
        ("reflgrp", "stratify"),
        ("charvar", "orbit"),
        ("classify", "table_rows"),
        ("connect", "numeric_closure"),
    } <= names
    for modname, attr in sorted(names):
        assert hasattr(importlib.import_module(f"braidorbit.{modname}"), attr), (modname, attr)
    # every keyword a workload passes is a parameter of what it calls
    keywords = {
        (node.func.value.id, node.func.attr, kw.arg)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id in WORKLOAD_MODULES
        for kw in node.keywords
    }
    assert {
        ("connect", "monodromy_numeric", "local_tol"),
        ("connect", "numeric_closure", "tol"),
        ("connect", "numeric_closure", "bound"),
    } <= keywords
    for modname, attr, kw in sorted(keywords):
        func = getattr(importlib.import_module(f"braidorbit.{modname}"), attr)
        assert kw in inspect.signature(func).parameters, (modname, attr, kw)


# the names under which the workloads hold a reflgrp.ReflGroup
GROUP_NAMES = ("g25", "g32", "group")


def _is_group(node):
    """`g25`, `group`, ... or `self.g25`, ..."""
    if isinstance(node, ast.Name):
        return node.id in GROUP_NAMES
    return (
        isinstance(node, ast.Attribute)
        and node.attr in GROUP_NAMES
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    )


def test_workload_group_attributes_resolve(g25):
    attrs = {
        node.attr
        for node in ast.walk(_workloads())
        if isinstance(node, ast.Attribute) and _is_group(node.value)
    }
    assert {"elements", "order", "reflections", "generators"} <= attrs
    assert isinstance(g25, reflgrp.ReflGroup)
    for attr in sorted(attrs):
        assert hasattr(g25, attr), attr
