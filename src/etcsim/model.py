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
from typing import Sequence

import numpy as np

from .errors import ConfigurationError

# States beyond this magnitude abort a run as diverged.
OVERFLOW_LIMIT = 1e12


@dataclass(frozen=True)
class ScalarPlant:
    """First-order unstable plant xdot = A x + B u with feedback u = -K xhat.

    A is the growth rate (1/s, positive).
    """

    A: float
    B: float
    K: float

    def __post_init__(self):
        if not 0 < self.A < math.inf:
            raise ConfigurationError(f"growth rate A must be positive and finite, got {self.A}")

    @property
    def n(self) -> int:
        return 1

    def as_jordan(self) -> "JordanPlant":
        return JordanPlant(
            blocks=((self.A, 1),),
            B=np.array([[self.B]], dtype=float),
            K=np.array([[self.K]], dtype=float),
        )


@dataclass(frozen=True)
class JordanPlant:
    """Block-diagonal plant: one Jordan block per (eigenvalue, order) pair.

    Within a block of order p the error coordinates are chained,
    z_i' = lam*z_i + z_{i+1}, with the last coordinate purely exponential.
    All eigenvalues must be real and positive.
    """

    blocks: tuple[tuple[float, int], ...]
    B: np.ndarray
    K: np.ndarray

    def __post_init__(self):
        if not self.blocks:
            raise ConfigurationError("at least one Jordan block is required")
        blocks = tuple((float(lam), int(p)) for lam, p in self.blocks)
        object.__setattr__(self, "blocks", blocks)
        for lam, p in blocks:
            if not 0 < lam < math.inf:
                raise ConfigurationError(f"eigenvalue must be positive and finite, got {lam}")
            if p < 1:
                raise ConfigurationError(f"block order must be >= 1, got {p}")
        B = np.atleast_2d(np.asarray(self.B, dtype=float))
        K = np.atleast_2d(np.asarray(self.K, dtype=float))
        n = self.n
        if B.shape[0] != n:
            raise ConfigurationError(f"input map B must have {n} rows, got shape {B.shape}")
        if K.shape != (B.shape[1], n):
            raise ConfigurationError(
                f"feedback gain K must have shape {(B.shape[1], n)}, got {K.shape}"
            )
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "K", K)

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

    def coord_map(self) -> list[tuple[int, float, int, int]]:
        """Per flat coordinate: (block index, eigenvalue, order, index-in-block)."""
        out = []
        for j, (lam, p) in enumerate(self.blocks):
            for i in range(p):
                out.append((j, lam, p, i))
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
        if not 0 < self.sigma < math.inf:
            raise ConfigurationError(
                f"decay rate sigma must be positive and finite, got {self.sigma}"
            )
        if not 0 < self.rho0 < 1:
            raise ConfigurationError(f"rho0 must lie in (0, 1), got {self.rho0}")
        if not 0 <= self.gamma < math.inf:
            raise ConfigurationError(f"delay bound gamma must be finite and >= 0, got {self.gamma}")
        if not 1 < self.b < math.inf:
            raise ConfigurationError(f"window factor b must be finite and exceed 1, got {self.b}")
        for v in self.v0_flat():
            if not 0 < v < math.inf:
                raise ConfigurationError(f"trigger levels v0 must be positive and finite, got {v}")
        if self.rho_ladders is not None:
            # values only: the shape is checked against the plant in rho_flat
            contraction_ladders(self.rho0, [len(lad) for lad in self.rho_ladders], self.rho_ladders)

    def v0_flat(self) -> tuple[float, ...]:
        if isinstance(self.v0, (int, float)):
            return (float(self.v0),)
        return tuple(float(v) for block in self.v0 for v in block)

    def v0_levels(self, blocks: tuple[tuple[float, int], ...]) -> tuple[float, ...]:
        """Per-coordinate trigger levels; a single level applies to every coordinate."""
        n = sum(p for _, p in blocks)
        levels = self.v0_flat()
        if len(levels) == 1:
            levels = levels * n
        if len(levels) != n:
            raise ConfigurationError(
                f"need one trigger level per coordinate ({n}), got {len(levels)}"
            )
        return levels

    def rho_flat(self, blocks: tuple[tuple[float, int], ...]) -> tuple[float, ...]:
        """Per-coordinate contraction values; defaults to rho0*i/p within a block."""
        ladders = contraction_ladders(self.rho0, [p for _, p in blocks], self.rho_ladders)
        return tuple(r for lad in ladders for r in lad)


def contraction_ladders(
    rho0: float,
    orders: Sequence[int],
    ladders: tuple[tuple[float, ...], ...] | None,
) -> tuple[tuple[float, ...], ...]:
    """Per block of the given orders, its per-coordinate contraction ladder.

    A ladder lies in (0, rho0], increases strictly and ends at rho0; without
    ladders a block of order p gets the default rho0*i/p, i = 1..p.  Given
    ladders are checked against the orders and these rules.
    """
    if ladders is None:
        return tuple(tuple(rho0 * i / p for i in range(1, p + 1)) for p in orders)
    if len(ladders) != len(orders) or any(len(lad) != p for lad, p in zip(ladders, orders)):
        raise ConfigurationError("rho_ladders shape must match the plant blocks")
    for ladder in ladders:
        if not ladder or any(not 0 < r <= rho0 for r in ladder):
            raise ConfigurationError(f"ladder values must lie in (0, rho0], got {ladder}")
        if any(a >= b for a, b in zip(ladder, ladder[1:])):
            raise ConfigurationError(f"ladder must be strictly increasing, got {ladder}")
        if ladder[-1] != rho0:
            raise ConfigurationError(f"ladder must end at rho0={rho0}, got {ladder}")
    return tuple(tuple(lad) for lad in ladders)


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
