"""Kernel backend selection and Cyclotomic <-> blob conversion.

The hot loops (group closure, stabilizer scans, orbit enumeration over
small cyclotomic rings) run either in the compiled `_kernel` extension
or in the pure-Python `_kernel_py` twin.  The compiled one is picked
automatically when present; set BRAIDORBIT_KERNEL=py to force the
fallback.
"""

from __future__ import annotations

import os
from math import lcm

from .cyclo import Cyclotomic, _reduction_rows, cyc, euler_phi
from .linalg import Mat

if os.environ.get("BRAIDORBIT_KERNEL") == "py":
    from . import _kernel_py as _impl
else:
    try:
        from . import _kernel as _impl  # compiled extension
    except ImportError:
        from . import _kernel_py as _impl

BACKEND = _impl.BACKEND

# every function raises BoundExceeded past its bound
BoundExceeded = _impl.BoundExceeded

mat_mul = _impl.mat_mul
mat_vec = _impl.mat_vec
closure = _impl.closure
stab_count_line = _impl.stab_count_line
stab_count_point = _impl.stab_count_point
line_canon = _impl.line_canon
line_orbit = _impl.line_orbit
plane_canon = _impl.plane_canon
plane_orbit = _impl.plane_orbit
reflection_indices = _impl.reflection_indices
identity_blob = _impl.identity_blob

from ._kernel_py import pack_values, unpack_values  # layout helpers are shared


def ring_params(conductor):
    """(phi, red) for the power basis of Q(zeta_conductor).

    `red` is the flattened integer reduction table: row t gives
    x^(phi+t) in the power basis, t = 0 .. phi-2.
    """
    phi = euler_phi(conductor)
    if phi == 1:
        return 1, ()
    rows = _reduction_rows(conductor)
    return phi, tuple(x for row in rows for x in row)


def to_blob_matrix(m, conductor):
    phi = euler_phi(conductor)
    den = 1
    promoted = []
    for e in m.entries:
        pe = e.fit(conductor)
        promoted.append(pe)
        den = lcm(den, pe.den)
    nums = []
    for pe in promoted:
        f = den // pe.den
        nums.extend(c * f for c in pe.num)
    return pack_values(den, nums)


def from_blob_matrix(blob, d, conductor):
    phi = euler_phi(conductor)
    den, nums = unpack_values(blob)
    entries = [
        Cyclotomic._make(conductor, list(nums[phi * k : phi * (k + 1)]), den)
        for k in range(d * d)
    ]
    return Mat(d, d, entries)


def to_blob_vector(vec, conductor):
    den = 1
    promoted = []
    for e in vec:
        pe = cyc(e).fit(conductor)
        promoted.append(pe)
        den = lcm(den, pe.den)
    nums = []
    for pe in promoted:
        f = den // pe.den
        nums.extend(c * f for c in pe.num)
    return pack_values(den, nums)


def from_blob_vector(blob, conductor):
    phi = euler_phi(conductor)
    den, nums = unpack_values(blob)
    return tuple(
        Cyclotomic._make(conductor, list(nums[phi * k : phi * (k + 1)]), den)
        for k in range(len(nums) // phi)
    )

