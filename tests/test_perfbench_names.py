"""The benchmark reaches into braidorbit by name: those names must resolve.

`perfbench/spans.py` wraps the functions and methods it lists for the
traced run (`--trace 1`), and `perfbench/workloads.py` calls kernel and
reflgrp functions directly.  A rename inside the package would otherwise
only show when the benchmark runs.
"""

import ast
import importlib
import importlib.util
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


def test_workload_names_resolve():
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    names = {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in ("kernel", "reflgrp")
    }
    assert ("kernel", "line_orbit") in names and ("reflgrp", "stratify") in names
    for modname, attr in sorted(names):
        assert hasattr(importlib.import_module(f"braidorbit.{modname}"), attr), (modname, attr)
    # the workload reads G25's element list
    assert "elements" in reflgrp.ReflGroup.__dataclass_fields__
