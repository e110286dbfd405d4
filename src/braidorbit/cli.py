"""Command-line front end and table-reproduction harness."""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from fractions import Fraction

from . import reflgrp
from .charvar import AffineRep, LinearPart, ProjClass, normalize, orbit
from .classify import NotFiniteCase, classify_n4, gate, table_rows
from .coalesce import CoalesceSpec, r_kl
from .cyclo import cyc, parse_cyclo, render
from .kernel import BACKEND


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


def cmd_orbit(args):
    rep = _load_rep(args)
    cls, rot = normalize(rep)
    linear = rep.linear.rotated(rot) if rot else rep.linear
    res = orbit(cls, linear, bound=args.bound)
    payload = {
        "n": rep.n,
        "lambda": [render(x) for x in rep.linear.lambdas],
        "tau": [render(x) for x in rep.tau],
        "tau_n": render(rep.tau_n()),
        "rotation": rot,
        "size": res.size,
        "exceeded_bound": res.exceeded_bound,
        "points": [
            "[" + " : ".join(render(c) for c in p.coords) + "]"
            if not p.is_zero_class
            else "[0]"
            for p in res.points
        ],
    }
    _emit(payload, args)
    return 0


def cmd_classify4(args):
    lams = _parse_values(args.lam)
    lp = LinearPart(lams)
    c = classify_n4(lp)
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


def _build_group(which, cache_dir=None):
    if which == "g25":
        return reflgrp.build_g25()
    if which == "g32":
        return reflgrp.build_g32(cache_dir=cache_dir)
    raise ValueError("group must be g25 or g32")


def cmd_group(args):
    g = _build_group(args.which, args.cache_dir)
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
    g = _build_group(args.which, args.cache_dir)
    point = tuple(parse_cyclo(tok) for tok in args.point.strip("[]").split(":"))
    label = reflgrp.stratify(g, point)
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
    g = _build_group(args.which, args.cache_dir)
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
    if n - 2 == 4 and not args.long_running:
        raise SystemExit(
            "the rank-4 closure is a long-running check; pass --long-running"
        )
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
    rows_out = []
    status_ok = True
    if args.which in (1, 2, 3):
        for lp in _table_123_cases(args.which):
            fam = table_rows(lp)
            for row in fam.rows:
                size = _bfs_size(row.rep)
                ok = size == row.size
                status_ok &= ok
                rows_out.append(
                    {
                        "case-id": row.label,
                        "lambda": " ".join(render(x) for x in lp.lambdas),
                        "tau": " ".join(render(x) for x in row.rep.tau_full()),
                        "expected_size": row.size,
                        "computed_size": size,
                        "status": "PASS" if ok else "FAIL",
                    }
                )
            generic = _generic_representative(lp, fam.generic_size)
            size = _bfs_size(generic)
            ok = size == fam.generic_size
            status_ok &= ok
            rows_out.append(
                {
                    "case-id": f"{fam.name}-generic",
                    "lambda": " ".join(render(x) for x in lp.lambdas),
                    "tau": " ".join(render(x) for x in generic.tau_full()),
                    "expected_size": fam.generic_size,
                    "computed_size": size,
                    "status": "PASS" if ok else "FAIL",
                }
            )
    elif args.which in (4, 5):
        from .cyclo import zeta

        if args.which == 4:
            g = _build_group("g25", args.cache_dir)
            nu = zeta(9, 1)
            rep54, _ = reflgrp.g25_order12_representative(g)
            cases = [
                ("order-9-line", (nu, nu**2, cyc(1)), 72),
                ("order-12-line", rep54, 54),
                ("line-on-2-planes", (cyc(1), cyc(0), cyc(0)), 12),
                ("line-on-4-planes", (cyc(1), cyc(-1), cyc(0)), 9),
                ("plane-and-proper", (cyc(1), cyc(1), cyc(0)), 36),
                ("generic-in-plane", (cyc(1), cyc(2), cyc(0)), 72),
                ("generic-on-proper", (cyc(1), cyc(1), cyc(3)), 108),
                ("generic", (cyc(1), cyc(2), cyc(5)), 216),
            ]
        else:
            g = _build_group("g32", args.cache_dir)
            nu9, eta = zeta(9, 1), zeta(12, 1)
            v30, _, _, _ = reflgrp.g32_order30_representative()
            v24, _, _, _ = reflgrp.g32_order24_representative()
            basis, _ = reflgrp._g32_seed_plane()
            on_e = tuple(a + 2 * b for a, b in zip(basis[0], basis[1]))
            cases = [
                ("generic", (cyc(1), cyc(2), cyc(3), cyc(5)), 25920),
                ("order-30-line", v30, 5184),
                ("generic-on-proper", on_e, 12960),
                ("order-24-line", v24, 6480),
                ("generic-in-hyperplane", (cyc(1), cyc(2), cyc(5), cyc(0)), 8640),
                ("order-9-line", (nu9, nu9**2, cyc(1), cyc(0)), 2880),
                ("line-on-2-hyperplanes", (cyc(1), cyc(2), cyc(0), cyc(0)), 2880),
                ("on-2-and-3-proper", (cyc(1), eta, cyc(0), cyc(0)), 1440),
                ("line-on-4-hyperplanes", (cyc(2), cyc(1), cyc(1), cyc(0)), 1080),
                ("on-4-and-6-proper", _line_540(g), 540),
                ("line-on-5-hyperplanes", (cyc(1), cyc(1), cyc(0), cyc(0)), 360),
                ("line-on-12-hyperplanes", (cyc(0), cyc(1), cyc(0), cyc(0)), 40),
            ]
        for case_id, point, expected in cases:
            label = reflgrp.stratify(g, point)
            ok = label.orbit_size == expected and label.in_table
            status_ok &= ok
            rows_out.append(
                {
                    "case-id": case_id,
                    "lambda": g.name,
                    "tau": "[" + " : ".join(render(cyc(x)) for x in point) + "]",
                    "expected_size": expected,
                    "computed_size": label.orbit_size,
                    "status": "PASS" if ok else "FAIL",
                }
            )
    else:
        raise ValueError("tables are numbered 1 to 5")

    out_path = args.out or f"table{args.which}.csv"
    with open(out_path, "w", newline="") as fh:
        writer = csv.DictWriter(
            fh,
            fieldnames=["case-id", "lambda", "tau", "expected_size", "computed_size", "status"],
        )
        writer.writeheader()
        writer.writerows(rows_out)
    print(f"wrote {out_path}: {sum(r['status'] == 'PASS' for r in rows_out)}/{len(rows_out)} PASS")
    return 0 if status_ok else 1


def _line_540(g):
    basis, _ = reflgrp._g32_seed_plane()
    for a in range(-3, 4):
        for b in range(-3, 4):
            if a == 0 and b == 0:
                continue
            v = tuple(cyc(a) * x + cyc(b) * y for x, y in zip(basis[0], basis[1]))
            if reflgrp.hyperplanes_through(g, v) == 4:
                return v
    raise RuntimeError("no 540-line found")


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
    p.add_argument("--cache-dir", default=None)
    p.add_argument("--format", default="json", choices=["json", "pretty"])
    p.set_defaults(fn=cmd_group)

    p = sub.add_parser("strata", help="stratum of a projective point")
    p.add_argument("--which", required=True, choices=["g25", "g32"])
    p.add_argument("--point", required=True, help="colon-separated cyclotomic literals")
    p.add_argument("--cache-dir", default=None)
    p.add_argument("--format", default="json", choices=["json", "pretty"])
    p.set_defaults(fn=cmd_strata)

    p = sub.add_parser("lattice", help="hyperplane intersection census")
    p.add_argument("--which", required=True, choices=["g25", "g32"])
    p.add_argument("--cache-dir", default=None)
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
    p.add_argument("--long-running", action="store_true")
    p.add_argument("--format", default="json", choices=["json", "pretty"])
    p.set_defaults(fn=cmd_monodromy)

    p = sub.add_parser("tables", help="regenerate an orbit table as CSV")
    p.add_argument("--which", type=int, required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--cache-dir", default=None)
    p.set_defaults(fn=cmd_tables)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
