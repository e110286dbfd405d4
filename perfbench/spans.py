"""Span tracing for the benchmark's traced run.

The tracer replaces public functions and methods of braidorbit with
wrappers that record one span per call: name, start, end and parent
span.  The workload is fixed per run and the operation id of a span is
recovered from `marks` (spans are stored in call order, so each
operation owns a contiguous index range).  Spans stay in compact arrays
in memory and are written out once, at the end of the run.

Nothing inside the package is changed on disk; the wrappers only live
in the traced process.
"""

from __future__ import annotations

import statistics
import sys
from array import array
from time import perf_counter

import numpy as np

# (module, attribute, span name).  Functions are wrapped under every
# braidorbit module attribute that refers to them, so both `kernel.closure`
# (resolved through the module by reflgrp) and names imported with
# `from ... import` (cli imports `orbit` by name) are traced.
FUNCTIONS = (
    ("braidorbit.charvar", "orbit", "charvar.orbit"),
    ("braidorbit.classify", "table_rows", "classify.table_rows"),
    ("braidorbit.kernel", "closure", "kernel.closure"),
    ("braidorbit.kernel", "reflection_indices", "kernel.reflection_indices"),
    ("braidorbit.kernel", "stab_count_line", "kernel.stab_count_line"),
    ("braidorbit.kernel", "line_orbit", "kernel.line_orbit"),
    ("braidorbit.reflgrp", "line_stabilizer_order", "reflgrp.line_stabilizer_order"),
    ("braidorbit.reflgrp", "stratify", "reflgrp.stratify"),
    ("braidorbit.connect", "monodromy_numeric", "connect.monodromy_numeric"),
    ("braidorbit.connect", "numeric_closure", "connect.numeric_closure"),
)

# (module, class, attributes sharing one function, span name)
METHODS = (
    ("braidorbit.cyclo", "Cyclotomic", ("inverse",), "cyclo.inverse"),
    ("braidorbit.cyclo", "Cyclotomic", ("__mul__", "__rmul__"), "cyclo.mul"),
    ("braidorbit.cyclo", "Cyclotomic", ("__add__", "__radd__"), "cyclo.add"),
    ("braidorbit.linalg", "Mat", ("apply",), "linalg.apply"),
    ("braidorbit.linalg", "Mat", ("rref",), "linalg.rref"),
)


# span name -> number recorded with each span, from (args, result)
COUNTED = {
    "charvar.orbit": lambda args, result: result.size,
    "kernel.closure": lambda args, result: len(result),
    "kernel.reflection_indices": lambda args, result: len(args[0]),
    "kernel.stab_count_line": lambda args, result: len(args[0]),
    "connect.numeric_closure": lambda args, result: result,
}


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.values = {}  # span index -> recorded count
        self.marks = []  # (first span index, operation id)
        self._stack = []
        self._restore = []

    def __len__(self):
        return len(self.start)

    def mark(self, op_id):
        """Spans recorded from now on belong to operation `op_id`."""
        self.marks.append((len(self.start), op_id))

    def _name(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def traced(self, name, fn):
        """A wrapper of `fn` that records one span per call."""
        nid = self._name(name)
        count = COUNTED.get(name)
        stack = self._stack
        start, end, parent, names = self.start, self.end, self.parent, self.name_id

        def wrapper(*args, **kwargs):
            idx = len(start)
            names.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if count is not None:
                self.values[idx] = count(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self, functions=FUNCTIONS, methods=METHODS):
        for modname, attr, name in functions:
            original = getattr(sys.modules[modname], attr)
            wrapper = self.traced(name, original)
            for mod in list(sys.modules.values()):
                if not getattr(mod, "__name__", "").startswith(modname.split(".")[0]):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapper)
        for modname, clsname, attrs, name in methods:
            cls = getattr(sys.modules[modname], clsname)
            original = cls.__dict__[attrs[0]]
            wrapper = self.traced(name, original)
            for attr in attrs:
                self._restore.append((cls, attr, cls.__dict__[attr]))
                setattr(cls, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def save(self, path, workload):
        """Write every span to an .npz file; `op` indexes `op_names`."""
        firsts = np.array([m[0] for m in self.marks], dtype=np.int64)
        op = np.searchsorted(firsts, np.arange(len(self.start)), side="right") - 1
        np.savez_compressed(
            path,
            workload=np.array(workload),
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.uint16),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=op.astype(np.int32),
            op_names=np.array([m[1] for m in self.marks]),
        )


def self_times(start, end, parent):
    """Duration of each span minus the part of it covered by its children.

    Children are clipped to their parent and overlapping children are
    counted once, so the result is right for nested and back-to-back
    spans alike.  Times are in seconds; the union is taken in integer
    nanoseconds, so millions of spans need neither a Python loop nor
    per-span objects.
    """
    start = np.asarray(start, dtype=np.float64)
    end = np.asarray(end, dtype=np.float64)
    parent = np.asarray(parent)
    child = np.flatnonzero(parent >= 0)
    par = parent[child]
    t0 = start.min() if len(start) else 0.0
    lo = np.maximum(start[child], start[par])
    hi = np.minimum(end[child], end[par])
    del child
    keep = hi > lo
    par, lo, hi = par[keep], lo[keep], hi[keep]
    del keep
    lo = np.round((lo - t0) * 1e9).astype(np.int64)
    hi = np.round((hi - t0) * 1e9).astype(np.int64)
    order = np.lexsort((lo, par))
    par, lo, hi = par[order], lo[order], hi[order]
    del order
    covered = np.zeros(len(start))
    if len(par):
        first = np.ones(len(par), dtype=bool)
        first[1:] = par[1:] != par[:-1]
        # running maximum of hi within each parent's children: shifting each
        # group above all earlier ones lets one accumulate serve every group
        shift = np.cumsum(first) - 1
        shift *= int(hi.max()) + 1
        reach = hi + shift
        np.maximum.accumulate(reach, out=reach)
        reach -= shift
        del shift
        before = np.empty_like(reach)
        before[1:] = reach[:-1]
        del reach
        before[first] = lo[first]
        np.maximum(lo, before, out=before)
        np.subtract(hi, before, out=before)
        np.maximum(before, 0, out=before)
        covered = np.bincount(par, weights=before, minlength=len(start)) / 1e9
    return (end - start) - covered


def layer_totals(tracer, first_pass_span, passes):
    """Per span name: calls, self time, inclusive time and recorded counts.

    Spans before `first_pass_span` belong to set-up and count once; the
    rest are averaged over `passes`, so each total is the cost of one
    set-up plus one timed pass.
    """
    start = np.frombuffer(tracer.start, dtype=np.float64)
    end = np.frombuffer(tracer.end, dtype=np.float64)
    name_id = np.frombuffer(tracer.name_id, dtype=np.uint16)
    selfs = self_times(start, end, np.frombuffer(tracer.parent, dtype=np.int32))
    weight = np.full(len(start), 1.0 / passes)
    weight[:first_pass_span] = 1.0
    n = len(tracer.names)
    calls = np.bincount(name_id, weights=weight, minlength=n)
    self_s = np.bincount(name_id, weights=weight * selfs, minlength=n)
    incl_s = np.bincount(name_id, weights=weight * (end - start), minlength=n)
    totals = {
        name: {"calls": float(calls[i]), "self_s": float(self_s[i]), "incl_s": float(incl_s[i]),
               "count": 0.0, "values": []}
        for i, name in enumerate(tracer.names)
    }
    for idx, value in tracer.values.items():
        t = totals[tracer.names[name_id[idx]]]
        t["count"] += weight[idx] * value
        t["values"].append(value)
    return totals


def layer_metrics(totals, verified_rows, traced_wall_s):
    """The per-layer metrics of BENCHMARK.json from `layer_totals` output.

    `verified_rows` is the number of orbit sizes the workload verified
    per set-up plus pass; `traced_wall_s` the traced median pass time.
    A layer the workload never calls reports 0.
    """
    empty = {"calls": 0.0, "self_s": 0.0, "incl_s": 0.0, "count": 0.0, "values": []}

    def t(name):
        return totals.get(name, empty)

    m = {}
    for name in ("cyclo.inverse", "cyclo.mul", "cyclo.add", "linalg.apply", "linalg.rref"):
        m[f"{name}.calls"] = (t(name)["calls"], "count")
        m[f"{name}.self_s"] = (t(name)["self_s"], "s")
    orbit = t("charvar.orbit")
    m["charvar.orbit.calls"] = (orbit["calls"], "count")
    m["charvar.orbit.points"] = (orbit["count"], "count")
    m["charvar.orbit.self_s"] = (orbit["self_s"], "s")
    m["charvar.orbit.ms_per_point"] = (
        1000.0 * orbit["incl_s"] / orbit["count"] if orbit["count"] else 0.0,
        "ms",
    )
    m["charvar.orbit.useful_ratio"] = (
        verified_rows / orbit["calls"] if orbit["calls"] else 0.0,
        "ratio",
    )
    m["classify.table_rows.self_s"] = (t("classify.table_rows")["self_s"], "s")
    m["kernel.closure.self_s"] = (t("kernel.closure")["self_s"], "s")
    m["kernel.closure.elements"] = (t("kernel.closure")["count"], "count")
    scans = ("kernel.reflection_indices", "kernel.stab_count_line")
    for name in scans:
        m[f"{name}.self_s"] = (t(name)["self_s"], "s")
    scanned = sum(t(name)["count"] for name in scans)
    scan_s = sum(t(name)["self_s"] for name in scans)
    m["kernel.scanned"] = (scanned, "count")
    m["kernel.scanned_per_s"] = (scanned / scan_s if scan_s else 0.0, "1/s")
    m["kernel.line_orbit.self_s"] = (t("kernel.line_orbit")["self_s"], "s")
    m["reflgrp.promote_s"] = (t("reflgrp.line_stabilizer_order")["self_s"], "s")
    m["reflgrp.stratify.self_s"] = (t("reflgrp.stratify")["self_s"], "s")
    m["connect.monodromy_numeric.self_s"] = (t("connect.monodromy_numeric")["self_s"], "s")
    m["connect.numeric_closure.self_s"] = (t("connect.numeric_closure")["self_s"], "s")
    sizes = t("connect.numeric_closure")["values"]
    m["connect.numeric_closure.size"] = (statistics.median(sizes) if sizes else 0, "count")
    m["trace.wall_s"] = (traced_wall_s, "s")
    return m
