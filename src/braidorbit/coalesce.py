"""Puncture merging on representations and its braid equivariance.

Merging the n-k+1 consecutive punctures starting at position l replaces
their loops by the product loop; on a representation this composes the
affine maps, giving the linear part
(lambda_1, ..., lambda_(l-1), lambda_l ... lambda_(l+n-k), ...) and the
matching telescoped translation entry.
"""

from __future__ import annotations

from dataclasses import dataclass

from .braid import phi_kl
from .charvar import AffineRep, LinearPart, apply_word_to_rep, normalize
from .cyclo import cyc

ONE = cyc(1)


@dataclass(frozen=True)
class CoalesceSpec:
    n: int
    k: int
    ell: int

    def __post_init__(self):
        if not (3 <= self.k < self.n):
            raise ValueError(f"need 3 <= k < n, got k={self.k}, n={self.n}")
        if not (1 <= self.ell <= self.k):
            raise ValueError(f"need 1 <= ell <= k, got {self.ell}")


def r_kl(rep, spec):
    """Merged representation over k punctures."""
    if rep.n != spec.n:
        raise ValueError("representation size does not match the spec")
    n, k, ell = spec.n, spec.k, spec.ell
    lam = rep.linear.lambdas
    tau = rep.tau_full()
    d = n - k
    merged_lam = ONE
    merged_tau = cyc(0)
    prefix = ONE
    for i in range(ell - 1, ell + d):
        merged_tau = merged_tau + prefix * tau[i]
        prefix = prefix * lam[i]
        merged_lam = merged_lam * lam[i]
    new_lam = lam[: ell - 1] + (merged_lam,) + lam[ell + d :]
    new_tau = tau[: ell - 1] + (merged_tau,) + tau[ell + d :]
    return AffineRep.from_full_tau(LinearPart(new_lam), new_tau)


def equivariance_check(rep, spec, pure_letters):
    """Exact check of beta . r(rho) == r(phi(beta) . rho) on classes."""
    beta_side = apply_pure_to_rep(r_kl(rep, spec), pure_letters)
    big = apply_word_to_rep(rep, phi_kl(pure_letters, spec.k, spec.ell, spec.n))
    phi_side = r_kl(big, spec)
    if beta_side.linear.iota() == 0:
        # trivial linear part: conjugation only rescales, so compare rays
        from .linalg import mat_parallel

        return phi_side.linear.iota() == 0 and mat_parallel(
            beta_side.tau_full(), phi_side.tau_full()
        )
    lhs, rot1 = normalize(beta_side)
    rhs, rot2 = normalize(phi_side)
    return rot1 == rot2 and lhs == rhs


def apply_pure_to_rep(rep, pure_letters):
    from .braid import pure_word_to_braid

    word = pure_word_to_braid(rep.n, list(pure_letters))
    return apply_word_to_rep(rep, word)
