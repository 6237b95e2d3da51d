"""Exact (non-approximate) t-SNE in plain numpy.

Small corpora only: everything is O(n^2) per iteration on purpose, so the
arithmetic stays auditable against hand-computed cases.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

P_FLOOR = 1e-12
CALIBRATION_TOL = 1e-5
CALIBRATION_MAX_ITERS = 50
# The optimiser schedule of van der Maaten & Hinton (2008): step size,
# momentum 0.5 then 0.8 from update 250 on, and P times 4 for the first
# 100 updates. The embedding is always 2-D, as the CSV writers expect.
LEARNING_RATE = 200.0
MOMENTUM_EARLY, MOMENTUM_LATE, MOMENTUM_SWITCH = 0.5, 0.8, 250
EXAGGERATION, EXAGGERATION_ITERS = 4.0, 100
OUT_DIM = 2


@dataclass(frozen=True)
class TsneConfig:
    perplexity: float = 30.0
    iterations: int = 1000

    def __post_init__(self) -> None:
        if self.perplexity <= 0:
            raise ValueError(f"perplexity must be positive, got {self.perplexity}")
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")


@dataclass
class TsneEmbedding:
    coords: np.ndarray
    kl_trace: list[float]
    p_matrix: np.ndarray
    q_matrix: np.ndarray
    config: TsneConfig = field(repr=False, default_factory=TsneConfig)


def perplexity_calibration(sq_dists: np.ndarray, perplexity: float) -> np.ndarray:
    """Soft-neighbor probabilities for one point's squared distances.

    Binary-searches the Gaussian precision beta so that 2**H(P) lands
    within 1e-5 of the requested perplexity, giving up after 50 halvings.
    Equal distances make the row uniform for every beta, so that case
    returns immediately.
    """
    d = np.asarray(sq_dists, dtype=float)
    if d.ndim != 1 or d.size == 0:
        raise ValueError("squared distances must be a non-empty 1-D array")
    if not np.all(np.isfinite(d)) or np.any(d < 0):
        raise ValueError("squared distances must be finite and non-negative")
    n = d.size
    if np.all(d == d[0]):
        return np.full(n, 1.0 / n)

    # Shifting distances by their minimum leaves the normalized row (and
    # hence the entropy) untouched but keeps exp() away from underflow.
    d = d - d.min()
    beta = 1.0
    beta_lo, beta_hi = 0.0, np.inf
    row = _gaussian_row(d, beta)
    for _ in range(CALIBRATION_MAX_ITERS):
        achieved = 2.0 ** _entropy_bits(row)
        if abs(achieved - perplexity) <= CALIBRATION_TOL:
            break
        if achieved > perplexity:
            beta_lo = beta
            beta = beta * 2.0 if beta_hi == np.inf else (beta + beta_hi) / 2.0
        else:
            beta_hi = beta
            beta = (beta + beta_lo) / 2.0
        row = _gaussian_row(d, beta)
    return row


def _gaussian_row(shifted_sq_dists: np.ndarray, beta: float) -> np.ndarray:
    p = np.exp(-beta * shifted_sq_dists)
    total = p.sum()
    if total <= 0:
        raise FloatingPointError("calibration underflow; distances too spread out")
    return p / total


def _entropy_bits(row: np.ndarray) -> float:
    nz = row[row > 0]
    return float(-(nz * np.log2(nz)).sum())


def _pairwise_sq_dists(x: np.ndarray) -> np.ndarray:
    sq = (x * x).sum(axis=1)
    d = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
    np.fill_diagonal(d, 0.0)
    return np.maximum(d, 0.0)


def joint_probabilities(x: np.ndarray, perplexity: float) -> np.ndarray:
    """Symmetrized input-space affinities P with zero diagonal."""
    n = x.shape[0]
    d = _pairwise_sq_dists(x)
    cond = np.zeros((n, n))
    idx = np.arange(n)
    for i in range(n):
        others = idx != i
        cond[i, others] = perplexity_calibration(d[i, others], perplexity)
    p = (cond + cond.T) / (2.0 * n)
    np.fill_diagonal(p, 0.0)
    return np.maximum(p, P_FLOOR * (1 - np.eye(n)))


def kl_divergence(p: np.ndarray, q: np.ndarray) -> float:
    """KL(P || Q) in nats with the 0*log(0) = 0 convention.

    Accepts matching-shape vectors or square matrices; for matrices the
    diagonal is excluded, matching how the embedding objective is scored.
    A zero in q wherever p is positive has infinite divergence and raises.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {q.shape}")
    if p.ndim == 2:
        if p.shape[0] != p.shape[1]:
            raise ValueError(f"matrix input must be square, got {p.shape}")
        mask = ~np.eye(p.shape[0], dtype=bool)
        p, q = p[mask], q[mask]
    elif p.ndim != 1:
        raise ValueError("expected a vector or a square matrix")
    support = p > 0
    if np.any(q[support] <= 0):
        raise ValueError("q is zero on p's support; divergence is infinite")
    ps, qs = p[support], q[support]
    return float((ps * np.log(ps / qs)).sum())


def tsne_fit(x: np.ndarray, config: TsneConfig | None = None, seed: int = 0) -> TsneEmbedding:
    """Embed the rows of x with exact gradient descent on KL(P || Q).

    Early exaggeration multiplies P for the first EXAGGERATION_ITERS
    updates; the KL trace is always scored against the true P, so trace[0]
    (the random init) and trace[-1] (the final layout) are comparable.
    """
    config = config or TsneConfig()
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError("input must be a 2-D array of row vectors")
    if not np.all(np.isfinite(x)):
        raise ValueError("input contains non-finite values")
    n = x.shape[0]
    needed = int(2 * config.perplexity + 1)
    if n < needed:
        raise ValueError(
            f"need at least {needed} points for perplexity {config.perplexity}, got {n}"
        )

    p = joint_probabilities(x, config.perplexity)
    rng = np.random.default_rng(seed)
    y = 1e-4 * rng.standard_normal((n, OUT_DIM))
    velocity = np.zeros_like(y)
    # Per-coordinate step-size gains, as in the reference implementation
    # the lr=200 convention comes from; without them that rate diverges.
    gains = np.ones_like(y)

    q, num = _low_dim_affinities(y)
    kl_trace = [kl_divergence(p, q)]
    for it in range(config.iterations):
        p_eff = p * EXAGGERATION if it < EXAGGERATION_ITERS else p
        grad = _kl_gradient(p_eff, q, num, y)
        momentum = MOMENTUM_EARLY if it < MOMENTUM_SWITCH else MOMENTUM_LATE
        same_dir = np.sign(grad) == np.sign(velocity)
        gains = np.where(same_dir, gains * 0.8, gains + 0.2)
        np.clip(gains, 0.01, None, out=gains)
        velocity = momentum * velocity - LEARNING_RATE * (gains * grad)
        y = y + velocity
        y = y - y.mean(axis=0)
        q, num = _low_dim_affinities(y)
        kl_trace.append(kl_divergence(p, q))

    return TsneEmbedding(coords=y, kl_trace=kl_trace, p_matrix=p, q_matrix=q, config=config)


def _low_dim_affinities(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Student-t affinities Q plus the unnormalized kernel (1 + d^2)^-1."""
    num = 1.0 / (1.0 + _pairwise_sq_dists(y))
    np.fill_diagonal(num, 0.0)
    q = num / num.sum()
    return np.maximum(q, P_FLOOR * (1 - np.eye(y.shape[0]))), num


def _kl_gradient(p: np.ndarray, q: np.ndarray, num: np.ndarray, y: np.ndarray) -> np.ndarray:
    # dKL/dy_i = 4 * sum_j (p_ij - q_ij) * (y_i - y_j) / (1 + |y_i - y_j|^2)
    pq = (p - q) * num
    return 4.0 * (np.diag(pq.sum(axis=1)) - pq) @ y
