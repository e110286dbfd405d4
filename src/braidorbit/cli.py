"""Command-line front end and table-reproduction harness."""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache
from math import gcd

from . import reflgrp
from .charvar import AffineRep, LinearPart, ProjClass, normalize, orbit
from .classify import NotFiniteCase, classify_n4, gate, table_rows
from .coalesce import CoalesceSpec, r_kl
from .cyclo import cyc, euler_phi, parse_cyclo, render
from .kernel import BACKEND, BoundExceeded


def _parse_values(text):
    return tuple(parse_cyclo(tok) for tok in text.split(","))


def _input_values(data, key, path):
    values = data.get(key)
    if values is None:
        raise ValueError(f"{path}: missing key {key!r}")
    if not isinstance(values, list) or not all(isinstance(v, str) for v in values):
        raise ValueError(f"{path}: {key!r} must be a list of cyclotomic literals")
    return tuple(parse_cyclo(v) for v in values)


def _load_rep(args):
    if getattr(args, "input", None):
        with open(args.input) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError(f"{args.input}: expected a JSON object with 'lambda' and 'tau'")
        lams, taus = (_input_values(data, key, args.input) for key in ("lambda", "tau"))
    else:
        if args.lam is None or args.tau is None:
            raise ValueError("pass --lambda and --tau, or --input")
        lams = _parse_values(args.lam)
        taus = _parse_values(args.tau)
    lp = LinearPart(lams)
    if len(taus) == lp.n:
        rep = AffineRep.from_full_tau(lp, taus)
    else:
        rep = AffineRep(lp, taus)
    return rep


@contextmanager
def _exact_output():
    """Print integers of any length while a payload is rendered and written.

    Python 3.11+ refuses int <-> str conversions past 4300 digits by
    default, and the points of a large orbit can pass that.  The limit is
    lifted only here, after the input has been parsed under it.
    """
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    if set_limit is None:
        yield
        return
    old = sys.get_int_max_str_digits()
    set_limit(0)
    try:
        yield
    finally:
        set_limit(old)


def _emit(payload, args, stream=None):
    stream = stream or sys.stdout
    fmt = getattr(args, "format", "json")
    if fmt == "json":
        json.dump(payload, stream, indent=2, default=str)
        stream.write("\n")
    elif fmt == "pretty":
        for key, value in payload.items():
            stream.write(f"{key}: {value}\n")
    else:
        raise ValueError(f"unsupported format {fmt!r} for this command")


@lru_cache(maxsize=None)
def _power_terms(conductor):
    """The text of zN^k for k = 0 .. phi(N) - 1, as `render` writes it."""
    return [""] + [
        f"z{conductor}" if k == 1 else f"z{conductor}^{k}" for k in range(1, euler_phi(conductor))
    ]


def _point_texts(vectors, conductor):
    """The printed points of nonzero canonical vectors (`kernel._canon`).

    Coordinate j is block j of w over the pivot, the first nonzero entry;
    each coefficient b / pivot is reduced by gcd(b, pivot), so the text is
    `render` of each coordinate of `kernel.line_coords(w, conductor)`,
    without building the values.  Each (block, pivot) is written once:
    the 25920 points of the README's large orbit hold 829 of them.
    """
    terms = _power_terms(conductor)
    phi = len(terms)

    @lru_cache(maxsize=None)
    def coord(block, pivot):
        text = ""
        for k, b in enumerate(block):
            if not b:
                continue
            g = gcd(b, pivot)
            mag = str(abs(b) // g) if g == pivot else f"{abs(b) // g}/{pivot // g}"
            if k:
                mag = terms[k] if mag == "1" else f"{mag}*{terms[k]}"
            if text:
                text += f" - {mag}" if b < 0 else f" + {mag}"
            else:
                text = f"-{mag}" if b < 0 else mag
        return text or "0"

    points = []
    for w in vectors:
        pivot = next(x for x in w if x)
        coords = [coord(w[i : i + phi], pivot) for i in range(0, len(w), phi)]
        points.append("[" + " : ".join(coords) + "]")
    return points


def cmd_orbit(args):
    rep = _load_rep(args)
    cls, rot = normalize(rep)
    linear = rep.linear.rotated(rot) if rot else rep.linear
    res = orbit(cls, linear, bound=args.bound)
    with _exact_output():
        start = "[0]" if cls.is_zero_class else "[" + " : ".join(map(render, cls.coords)) + "]"
        payload = {
            "n": rep.n,
            "lambda": [render(x) for x in rep.linear.lambdas],
            "tau": [render(x) for x in rep.tau],
            "tau_n": render(rep.tau_n()),
            "rotation": rot,
            "size": res.size,
            "exceeded_bound": res.exceeded_bound,
            "points": [start] + _point_texts(res.vectors, res.conductor),
        }
        _emit(payload, args)
    return 0


def cmd_classify4(args):
    lams = _parse_values(args.lam)
    lp = LinearPart(lams)
    c = classify_n4(lp)
    with _exact_output():
        payload = {
            "lambda": [render(x) for x in lams],
            "tag": c.tag,
            "p_value": render(c.p),
            "trace_squares": [render(t) for t in c.trace_squares],
        }
        if c.dihedral_order:
            payload["dihedral_order"] = c.dihedral_order
        try:
            fam = table_rows(lp)
            payload["table"] = {
                "family": fam.name,
                "rows": [
                    {"tau": [render(x) for x in row.rep.tau_full()], "size": row.size}
                    for row in fam.rows
                ],
                "generic_size": fam.generic_size,
            }
        except NotFiniteCase:
            pass
        _emit(payload, args)
    return 0


def cmd_gate(args):
    rep = _load_rep(args)
    verdict = gate(rep)
    with _exact_output():
        payload = {
            "lambda": [render(x) for x in rep.linear.lambdas],
            "tau": [render(x) for x in rep.tau],
            "verdict": verdict.kind,
            "size": verdict.size,
            "reason": verdict.reason,
            "rotation": verdict.rotation,
        }
        _emit(payload, args)
    return 0


def _build_group(which):
    return {"g25": reflgrp.build_g25, "g32": reflgrp.build_g32}[which]()


def cmd_group(args):
    g = _build_group(args.which)
    import math

    payload = {
        "group": g.name,
        "order": g.order,
        "reflections": len(g.reflections),
        "hyperplanes": len(g.hyperplanes),
        "degrees": list(g.degrees),
        "codegrees": list(g.codegrees),
        "degrees_product_equals_order": math.prod(g.degrees) == g.order,
        "kernel_backend": BACKEND,
    }
    if args.full:
        payload["proper_planes"] = len(g.proper_planes)
        payload["hyperplane_normals"] = [
            "[" + " : ".join(render(c) for c in n) + "]" for n in g.hyperplanes
        ]
    _emit(payload, args)
    return 0


def cmd_strata(args):
    g = _build_group(args.which)
    point = tuple(parse_cyclo(tok) for tok in args.point.strip("[]").split(":"))
    label = reflgrp.stratify(g, point)
    with _exact_output():
        payload = {
            "group": g.name,
            "point": "[" + " : ".join(render(c) for c in point) + "]",
            "orbit_size": label.orbit_size,
            "reflection_hyperplanes": label.num_hyperplanes,
            "proper_planes": label.num_proper_planes,
            "special_tag": label.special_tag,
            "in_table": label.in_table,
        }
        _emit(payload, args)
    return 0 if label.in_table else 1


def cmd_lattice(args):
    g = _build_group(args.which)
    census = reflgrp.lattice_census(g)
    payload = {
        "group": g.name,
        "hyperplanes": census["hyperplanes"],
        "codim2_incidences": {str(k): v for k, v in census["codim2_incidences"].items()},
        "codim3_incidences": {str(k): v for k, v in census["codim3_incidences"].items()},
        "orthogonality_consistent": census["orthogonality_consistent"],
    }
    _emit(payload, args)
    return 0


def cmd_coalesce(args):
    rep = _load_rep(args)
    spec = CoalesceSpec(args.n, args.k, args.l)
    if rep.n != args.n:
        raise ValueError("representation size and --n disagree")
    merged = r_kl(rep, spec)
    with _exact_output():
        payload = {
            "n": args.n,
            "k": args.k,
            "l": args.l,
            "lambda": [render(x) for x in merged.linear.lambdas],
            "tau": [render(x) for x in merged.tau_full()],
        }
        _emit(payload, args)
    return 0


def cmd_monodromy(args):
    import numpy as np

    from .connect import (
        ConnectionSpec,
        local_eigenvalues,
        monodromy_numeric,
        numeric_closure,
        residues_C,
    )

    theta = tuple(Fraction(t) for t in args.theta.split(","))
    spec = ConnectionSpec(theta)
    n = spec.n
    poles = [complex(p) for p in args.poles.split(",")]
    if len(poles) != n - 2:
        raise ValueError(f"need {n - 2} poles for {n - 1} exponents")
    fam = residues_C(spec)
    sign = 1 if args.sign == "+" else -1
    residues = []
    for j in range(2, n):
        c = fam[(1, j)]
        residues.append(
            -sign * np.array([[complex(e.to_complex()) for e in c.row(r)] for r in range(c.rows)])
        )
    monos = monodromy_numeric(poles, residues, local_tol=args.local_tol)
    closure_size = numeric_closure(monos, tol=args.tol, bound=args.bound)
    payload = {
        "theta": [str(t) for t in theta],
        "sign": args.sign,
        "poles": [str(p) for p in poles],
        "generators": [[[z.real, z.imag] for z in m.flatten()] for m in monos],
        "local_eigenvalues": [
            [[z.real, z.imag] for z in local_eigenvalues(m)] for m in monos
        ],
        "closure_size": closure_size,
    }
    _emit(payload, args)
    return 0


# ---- table regeneration --------------------------------------------------------


def _bfs_size(rep, bound=200):
    cls, rot = normalize(rep)
    linear = rep.linear.rotated(rot) if rot else rep.linear
    return orbit(cls, linear, bound=bound).size


def _table_123_cases(which):
    from .cyclo import zeta

    if which == 1:
        families = []
        for m in (10, 8):
            a = zeta(m, 1)
            families.append(LinearPart((a, -a.inverse(), -a.inverse(), a)))
        return families
    if which == 2:
        e12, z6, e24 = zeta(12, 1), zeta(6, 1), zeta(24, 1)
        return [
            LinearPart((e12, e12**5, e12**3, e12**3)),
            LinearPart((-cyc(1), z6, z6, z6)),
            LinearPart((e24, e24**5, e24**7, e24**11)),
            LinearPart((e12, -e12, e12**2, e12**2)),
        ]
    if which == 3:
        a60, a20, a30, a15, a5 = zeta(60, 1), zeta(20, 1), zeta(30, 1), zeta(15, 1), zeta(5, 1)
        return [
            LinearPart((a60, a60**29, a60**11, a60**19)),
            LinearPart((a20, a20**9, a20**7, a20**3)),
            LinearPart((a30**9, a30**9, a30, a30**11)),
            LinearPart((a30**5, a30**5, a30, a30**19)),
            LinearPart((a15, a15**4, a15**2, a15**8)),
            LinearPart((-a5, -a5, -a5, -(a5 * a5))),
        ]
    raise ValueError("orbit tables are 1, 2 or 3")


def _generic_representative(lp, generic_size):
    for c in range(2, 30):
        rep = AffineRep(lp, (cyc(0), cyc(1), cyc(c)))
        if _bfs_size(rep, bound=generic_size + 1) == generic_size:
            return rep
    raise RuntimeError("no generic representative found")


def cmd_tables(args):
    rows = []  # case id, lambda, tau, expected size, computed size, whether it passed
    if args.which in (1, 2, 3):
        for lp in _table_123_cases(args.which):
            lam = " ".join(render(x) for x in lp.lambdas)
            fam = table_rows(lp)
            cases = [(row.label, row.rep, row.size) for row in fam.rows]
            generic = _generic_representative(lp, fam.generic_size)
            cases.append((f"{fam.name}-generic", generic, fam.generic_size))
            for case_id, rep, expected in cases:
                size = _bfs_size(rep)
                tau = " ".join(render(x) for x in rep.tau_full())
                rows.append([case_id, lam, tau, expected, size, size == expected])
    elif args.which in (4, 5):
        g = _build_group("g25" if args.which == 4 else "g32")
        cases = (reflgrp.table4_cases if args.which == 4 else reflgrp.table5_cases)(g)
        for case_id, point, expected in cases:
            label = reflgrp.stratify(g, point)
            tau = "[" + " : ".join(render(cyc(x)) for x in point) + "]"
            ok = label.orbit_size == expected and label.in_table
            rows.append([case_id, g.name, tau, expected, label.orbit_size, ok])
    else:
        raise ValueError("tables are numbered 1 to 5")

    out_path = args.out or f"table{args.which}.csv"
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["case-id", "lambda", "tau", "expected_size", "computed_size", "status"])
        writer.writerows(row[:5] + ["PASS" if row[5] else "FAIL"] for row in rows)
    passed = sum(row[5] for row in rows)
    print(f"wrote {out_path}: {passed}/{len(rows)} PASS")
    return 0 if passed == len(rows) else 1


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="braidorbit",
        description="Exact braid orbits on affine character varieties, the "
        "reflection groups G25/G32, and monodromy checks.  Roots of unity "
        "are written zN (so zN^k = e^(2 pi i k / N)); exponents theta map "
        "to linear parts via lambda = e^(-2 pi i theta).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("orbit", help="BFS orbit of a conjugacy class")
    p.add_argument("--lambda", dest="lam", help="comma list of cyclotomic literals")
    p.add_argument("--tau", help="comma list of n-1 cyclotomic literals")
    p.add_argument("--input", help="JSON file with lambda/tau arrays")
    p.add_argument("--bound", type=int, default=200_000)
    p.add_argument("--format", default="json", choices=["json", "pretty"])
    p.set_defaults(fn=cmd_orbit)

    p = sub.add_parser("classify4", help="trace classification of a 4-puncture linear part")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--format", default="json", choices=["json", "pretty"])
    p.set_defaults(fn=cmd_classify4)

    p = sub.add_parser("gate", help="finiteness verdict for a class")
    p.add_argument("--lambda", dest="lam")
    p.add_argument("--tau")
    p.add_argument("--input")
    p.add_argument("--format", default="json", choices=["json", "pretty"])
    p.set_defaults(fn=cmd_gate)

    p = sub.add_parser("group", help="build and summarize G25 or G32")
    p.add_argument("--which", required=True, choices=["g25", "g32"])
    p.add_argument("--full", action="store_true")
    p.add_argument("--format", default="json", choices=["json", "pretty"])
    p.set_defaults(fn=cmd_group)

    p = sub.add_parser("strata", help="stratum of a projective point")
    p.add_argument("--which", required=True, choices=["g25", "g32"])
    p.add_argument("--point", required=True, help="colon-separated cyclotomic literals")
    p.add_argument("--format", default="json", choices=["json", "pretty"])
    p.set_defaults(fn=cmd_strata)

    p = sub.add_parser("lattice", help="hyperplane intersection census")
    p.add_argument("--which", required=True, choices=["g25", "g32"])
    p.add_argument("--format", default="json", choices=["json", "pretty"])
    p.set_defaults(fn=cmd_lattice)

    p = sub.add_parser("coalesce", help="merge punctures of a representation")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--lambda", dest="lam")
    p.add_argument("--tau")
    p.add_argument("--input")
    p.add_argument("--format", default="json", choices=["json", "pretty"])
    p.set_defaults(fn=cmd_coalesce)

    p = sub.add_parser("monodromy", help="numeric monodromy of the quotient connection")
    p.add_argument("--theta", required=True, help="comma list of rationals")
    p.add_argument("--poles", required=True, help="comma list of complex pole positions")
    p.add_argument("--sign", default="+", choices=["+", "-"])
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--local-tol", dest="local_tol", type=float, default=1e-12)
    p.add_argument("--bound", type=int, default=200_000)
    p.add_argument("--format", default="json", choices=["json", "pretty"])
    p.set_defaults(fn=cmd_monodromy)

    p = sub.add_parser("tables", help="regenerate an orbit table as CSV")
    p.add_argument("--which", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_tables)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, OverflowError, BoundExceeded, *_numeric_errors()) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _numeric_errors():
    # evaluated only when an exception reaches `main`, so the other
    # commands import numpy only for the batched levels of a large orbit
    from .connect import AmbiguousMatch, IntegrationFailure

    return AmbiguousMatch, IntegrationFailure


if __name__ == "__main__":
    sys.exit(main())
