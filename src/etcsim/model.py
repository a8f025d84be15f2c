"""Plant and trigger domain types, and the matrix exponentials of the loop.

Between communication events the closed loop is linear in (xhat, z):
the estimate follows the nominal feedback dynamics while the estimation
error z = x - xhat obeys zdot = A z independently of the input.  The error
has the closed-form transition block_matexp and the estimate expm of the
closed-loop matrix, so the engine propagates both free of integrator error.
expm and the engine's sub-step propagator sum the one Taylor kernel,
taylor_terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import (BoundInputs, _check_input, _levels, check_blocks, check_gains,
                     contraction_ladders)
from .errors import ConfigurationError

# States beyond this magnitude abort a run as diverged.
OVERFLOW_LIMIT = 1e12


@dataclass(frozen=True)
class JordanPlant:
    """Block-diagonal plant: one Jordan block per (eigenvalue, order) pair.

    Within a block of order p the error coordinates are chained,
    z_i' = lam*z_i + z_{i+1}, with the last coordinate purely exponential.
    All eigenvalues must be real and positive.  JordanPlant.scalar builds
    the first-order plant xdot = A x + B u, u = -K xhat.
    """

    blocks: tuple[tuple[float, int], ...]
    B: np.ndarray
    K: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "blocks", check_blocks(self.blocks))
        B, K = check_gains(self.n, self.B, self.K)
        m = len(B[0])
        object.__setattr__(self, "B", np.array(B, dtype=float).reshape(self.n, m))
        object.__setattr__(self, "K", np.array(K, dtype=float).reshape(m, self.n))
        with np.errstate(over="ignore", invalid="ignore"):
            finite = np.isfinite(self.closed_loop_matrix()).all()
        if not finite:
            raise ConfigurationError("the closed-loop matrix A - B K is not finite: B K overflows")

    @classmethod
    def scalar(cls, A: float, B: float, K: float) -> "JordanPlant":
        return cls(blocks=((A, 1),), B=[[B]], K=[[K]])

    @property
    def n(self) -> int:
        return sum(p for _, p in self.blocks)

    def a_matrix(self) -> np.ndarray:
        n = self.n
        A = np.zeros((n, n))
        at = 0
        for lam, p in self.blocks:
            for i in range(p):
                A[at + i, at + i] = lam
                if i + 1 < p:
                    A[at + i, at + i + 1] = 1.0
            at += p
        return A

    def closed_loop_matrix(self) -> np.ndarray:
        return self.a_matrix() - self.B @ self.K


@dataclass(frozen=True)
class TriggerConfig:
    """Exponential trigger threshold v0*exp(-sigma*t) and the jump design knobs.

    v0, a number (one level for every coordinate) or a sequence nested to any
    depth, is stored as the flat tuple of its levels in coordinate order.  rho0
    sets the post-jump contraction, gamma the known worst-case channel delay,
    and b > 1 the width factor of the time quantization windows.  rho_ladders,
    when given, lists per block the strictly increasing per-coordinate
    contraction values ending at rho0, stored as a tuple of tuples.
    """

    v0: tuple[float, ...]
    sigma: float
    rho0: float
    gamma: float
    b: float = 1.0001
    rho_ladders: tuple[tuple[float, ...], ...] | None = None

    def __post_init__(self):
        for name in ("sigma", "rho0", "gamma", "b"):
            object.__setattr__(self, name, _check_input(name, getattr(self, name)))
        object.__setattr__(self, "v0", _levels(self.v0))
        if self.rho_ladders is not None:
            # values only: the shape is checked against the plant in bound_inputs
            ladders = contraction_ladders(self.rho0, None, self.rho_ladders)
            object.__setattr__(self, "rho_ladders", ladders)

    def bound_inputs(self, blocks: tuple[tuple[float, int], ...], nu: float) -> BoundInputs:
        """The analytic-bound parameters of a run of this trigger on the given blocks."""
        return BoundInputs(blocks=blocks, sigma=self.sigma, rho0=self.rho0, gamma=self.gamma,
                           b=self.b, nu=nu, rho_ladders=self.rho_ladders)


def exp_or_inf(x: float) -> float:
    """math.exp(x), or inf where the result leaves float range (a run then diverges)."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def block_matexp(lam: float, p: int, h: float) -> np.ndarray:
    """exp(J*h) for a p x p Jordan block: exp(lam*h) times the upper
    triangular Toeplitz matrix with h^k/k! on the k-th superdiagonal."""
    M = np.zeros((p, p))
    for k in range(p):
        val = h**k / math.factorial(k)
        for i in range(p - k):
            M[i, i + k] = val
    return exp_or_inf(lam * h) * M


def taylor_terms(M: np.ndarray, theta: float) -> np.ndarray:
    """M^k/k! for k = 0..m, shape (m+1, n, n): the Taylor terms of exp(M t) for
    ||M||_1 t <= theta, where m is the lowest degree whose remainder bound
    theta^(m+1)/(m+1)! e^theta is below 2^-53 (Moler & Van Loan, SIAM Rev. 45(1), 2003)."""
    W = [np.eye(M.shape[0])]
    remainder = theta * math.exp(theta)
    while remainder >= 2.0**-53:
        W.append(W[-1] @ M / len(W))
        remainder *= theta / len(W)
    return np.array(W)


def expm(M: np.ndarray) -> np.ndarray:
    """exp(M) of a square matrix by scaling and squaring: M is halved s times
    until its 1-norm is at most 1/2, the Taylor sum of taylor_terms gives the
    exponential of that, and the result is squared s times.

    A diagonal M gives the elementwise exponential, exactly, and an infinite
    or NaN entry gives a matrix of NaN.  An exponential that leaves float
    range gives inf entries, or NaN where inf meets 0, as exp_or_inf does
    for a scalar, and raises no warning.
    """
    M = np.asarray(M, dtype=float)
    d = M.diagonal()
    with np.errstate(over="ignore", invalid="ignore"):
        if np.count_nonzero(M) == np.count_nonzero(d):
            return np.diag(np.exp(d))
        norm = float(np.abs(M).sum(axis=0).max())
        if not norm < math.inf:  # an infinite or NaN entry has no exponential
            return np.full(M.shape, np.nan)
        # norm > 0 here; log2(2*norm) would overflow for a norm above max/2
        s = max(0, math.ceil(math.log2(norm) + 1))
        E = taylor_terms(M * 2.0**-s, norm * 2.0**-s).sum(axis=0)
        for _ in range(s):
            E = E @ E
        return E
