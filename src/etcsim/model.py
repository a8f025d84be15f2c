"""Plant and trigger domain types, and the matrix exponentials of the loop.

Between communication events the closed loop is linear in (xhat, z):
the estimate follows the nominal feedback dynamics while the estimation
error z = x - xhat obeys zdot = A z independently of the input.  The error
has the closed-form transition block_matexp and the estimate expm of the
closed-loop matrix, so the engine propagates both free of integrator error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import BoundInputs, _check_input, check_blocks, check_gains, contraction_ladders
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

    @classmethod
    def scalar(cls, A: float, B: float, K: float) -> "JordanPlant":
        return cls(blocks=((A, 1),), B=[[B]], K=[[K]])

    @property
    def n(self) -> int:
        return sum(p for _, p in self.blocks)

    @property
    def trace(self) -> float:
        return sum(lam * p for lam, p in self.blocks)

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

    def block_slices(self) -> list[tuple[float, int, slice]]:
        out, at = [], 0
        for lam, p in self.blocks:
            out.append((lam, p, slice(at, at + p)))
            at += p
        return out


@dataclass(frozen=True)
class TriggerConfig:
    """Exponential trigger threshold v0*exp(-sigma*t) and the jump design knobs.

    v0 is a scalar for single-coordinate runs or a tuple of per-block tuples
    for vector runs.  rho0 sets the post-jump contraction, gamma the known
    worst-case channel delay, and b > 1 the width factor of the time
    quantization windows.  rho_ladders, when given, lists per block the
    strictly increasing per-coordinate contraction values ending at rho0.
    """

    v0: float | tuple[tuple[float, ...], ...]
    sigma: float
    rho0: float
    gamma: float
    b: float = 1.0001
    rho_ladders: tuple[tuple[float, ...], ...] | None = None

    def __post_init__(self):
        for name in ("sigma", "rho0", "gamma", "b"):
            _check_input(name, getattr(self, name))
        for v in self.v0_flat():
            if not 0 < v < math.inf:
                raise ConfigurationError(f"trigger levels v0 must be positive and finite, got {v}")
        if self.rho_ladders is not None:
            # values only: the shape is checked against the plant in bound_inputs
            contraction_ladders(self.rho0, [len(lad) for lad in self.rho_ladders], self.rho_ladders)

    def v0_flat(self) -> tuple[float, ...]:
        if isinstance(self.v0, (int, float)):
            return (float(self.v0),)
        return tuple(float(v) for block in self.v0 for v in block)

    def bound_inputs(self, blocks: tuple[tuple[float, int], ...], nu: float) -> BoundInputs:
        """The analytic-bound parameters of a run of this trigger on the given blocks."""
        return BoundInputs(blocks=blocks, sigma=self.sigma, rho0=self.rho0, gamma=self.gamma,
                           b=self.b, nu=nu, rho_ladders=self.rho_ladders)


def block_matexp(lam: float, p: int, h: float) -> np.ndarray:
    """exp(J*h) for a p x p Jordan block: exp(lam*h) times the upper
    triangular Toeplitz matrix with h^k/k! on the k-th superdiagonal."""
    M = np.zeros((p, p))
    for k in range(p):
        val = h**k / math.factorial(k)
        for i in range(p - k):
            M[i, i + k] = val
    return math.exp(lam * h) * M


# Higham (2005), Table 2.3: the largest 1-norm at which the [m/m] Pade
# approximant of exp, sum_k b_k M^k / sum_k b_k (-M)^k, is accurate to double
# precision; b_k = (2m-k)! / (k! (m-k)!) is an integer, rounded once to float.
_THETA = ((3, 1.495585217958292e-2), (5, 2.539398330063230e-1), (7, 9.504178996162932e-1),
          (9, 2.097847961257068e0), (13, 5.371920351148152e0))
_PADE = [(m, theta, [math.factorial(2 * m - k) / (math.factorial(k) * math.factorial(m - k))
                     for k in range(m + 1)]) for m, theta in _THETA]


def expm(M: np.ndarray) -> np.ndarray:
    """exp(M) of a square matrix by scaling and squaring (N. J. Higham,
    SIAM J. Matrix Anal. Appl. 26(4), 2005).

    The Pade degree is the lowest whose threshold covers the 1-norm; above
    the last threshold M is halved s times and the result squared s times.
    A diagonal M gives the elementwise exponential, exactly.
    """
    M = np.asarray(M, dtype=float)
    d = M.diagonal()
    if np.count_nonzero(M) == np.count_nonzero(d):
        return np.diag(np.exp(d))
    norm = float(np.abs(M).sum(axis=0).max())
    if not norm < math.inf:  # an infinite or NaN entry has no exponential
        return np.full(M.shape, np.nan)
    s = 0
    for m, theta, b in _PADE:
        if norm <= theta:
            break
    else:
        s = math.ceil(math.log2(norm / theta))
        M = M * 2.0**-s
    # numerator V + U and denominator V - U: U holds the odd powers of M, V the even
    M2 = M @ M
    P = np.eye(M.shape[0])
    U, V = b[1] * P, b[0] * P
    for k in range(1, m // 2 + 1):
        P = P @ M2
        U += b[2 * k + 1] * P
        V += b[2 * k] * P
    U = M @ U
    E = np.linalg.solve(V - U, V + U)
    for _ in range(s):
        E = E @ E
    return E
