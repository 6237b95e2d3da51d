"""Exact (non-approximate) t-SNE in plain numpy.

Small corpora only: everything is O(n^2) per iteration on purpose, so the
arithmetic stays auditable against hand-computed cases.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

P_FLOOR = 1e-12
CALIBRATION_TOL = 1e-5
CALIBRATION_MAX_ITERS = 50
EXP_ZERO_BELOW = -746.0  # exp(x) rounds to 0.0 for every double x below this
# The optimiser schedule of van der Maaten & Hinton (2008): step size,
# momentum 0.5 then 0.8 from update 250 on, and P times 4 for the first
# 100 updates. The embedding is always 2-D, as the CSV writers expect.
LEARNING_RATE = 200.0
MOMENTUM_EARLY, MOMENTUM_LATE, MOMENTUM_SWITCH = 0.5, 0.8, 250
EXAGGERATION, EXAGGERATION_ITERS = 4.0, 100
OUT_DIM = 2
# Seeds of one fit descend together while their stacked n x n work arrays
# hold at most this many cells each (three arrays of 512 KiB); past that,
# stacking ran slower than one seed at a time.
STACK_CELLS = 2**16


@dataclass(frozen=True)
class TsneConfig:
    perplexity: float = 30.0
    iterations: int = 1000

    def __post_init__(self) -> None:
        if self.perplexity <= 0:
            raise ValueError(f"perplexity must be positive, got {self.perplexity}")
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")

    @property
    def min_points(self) -> int:
        """The fewest points a fit at this perplexity accepts."""
        return int(2 * self.perplexity + 1)


@dataclass
class TsneEmbedding:
    coords: np.ndarray
    kl_trace: list[float]
    p_matrix: np.ndarray
    q_matrix: np.ndarray


def perplexity_calibration(sq_dists: np.ndarray, perplexity: float) -> np.ndarray:
    """Soft-neighbor probabilities for one point's squared distances.

    The Gaussian row whose perplexity lands within 1e-5 of the target: the
    one-row case of the search `joint_probabilities` runs on every row.
    """
    d = np.asarray(sq_dists, dtype=float)
    if d.ndim != 1:
        raise ValueError("squared distances must be a non-empty 1-D array")
    return _calibrate_rows(d[None, :], perplexity)[0]


def _calibrate_rows(d: np.ndarray, perplexity: float) -> np.ndarray:
    """Soft-neighbor probabilities for every row of squared distances d.

    Binary-searches each row's Gaussian precision beta so that 2**H(P)
    lands within 1e-5 of the requested perplexity, giving up after 50
    halvings. All rows search at once, each with its own beta and bracket,
    and a row leaves the search once it has converged. A row of equal
    distances is uniform for every beta, so it never enters the search.
    """
    if d.shape[1] == 0:
        raise ValueError("squared distances must be a non-empty 1-D array")
    if not np.all(np.isfinite(d)) or np.any(d < 0):
        raise ValueError("squared distances must be finite and non-negative")
    rows = np.full(d.shape, 1.0 / d.shape[1])
    live = np.flatnonzero((d != d[:, :1]).any(axis=1))
    # Shifting distances by their row minimum leaves the normalized row
    # (and hence the entropy) untouched but keeps exp() away from underflow.
    shifted = d[live]
    shifted -= shifted.min(axis=1, keepdims=True)
    beta = np.ones(live.size)
    beta_lo, beta_hi = np.zeros(live.size), np.full(live.size, np.inf)
    found = _gaussian_rows(shifted, beta)
    for _ in range(CALIBRATION_MAX_ITERS):
        # Python's float pow: numpy's power may round the last bit otherwise.
        achieved = np.array([2.0**h for h in _entropy_bits(found).tolist()])
        miss = np.abs(achieved - perplexity) > CALIBRATION_TOL
        if not miss.all():
            rows[live[~miss]] = found[~miss]
            live, shifted, achieved, beta, beta_lo, beta_hi = (
                a[miss] for a in (live, shifted, achieved, beta, beta_lo, beta_hi)
            )
        if live.size == 0:
            return rows
        wide = achieved > perplexity
        beta_lo = np.where(wide, beta, beta_lo)
        beta_hi = np.where(wide, beta_hi, beta)
        grown = np.where(beta_hi == np.inf, beta * 2.0, (beta + beta_hi) / 2.0)
        beta = np.where(wide, grown, (beta + beta_lo) / 2.0)
        found = _gaussian_rows(shifted, beta, out=found[: live.size])
    rows[live] = found
    return rows


def _gaussian_rows(shifted: np.ndarray, beta: np.ndarray, out=None) -> np.ndarray:
    rows = np.multiply(shifted, -beta[:, None], out=out)
    # exp(x) is 0.0 for every x below -746, and numpy's exp is slow on such
    # lanes, so they are set to 0.0 without it.
    dead = rows < EXP_ZERO_BELOW
    np.exp(rows, out=rows, where=~dead)
    np.copyto(rows, 0.0, where=dead)
    # Each row holds an exp(0) = 1, so no row sum is zero.
    rows /= rows.sum(axis=1)[:, None]
    return rows


def _entropy_bits(rows: np.ndarray) -> np.ndarray:
    """Each row's entropy in bits, over its positive entries only.

    Rows with the same number of positive entries are packed into one
    block and summed along its rows, so every sum runs over exactly the
    entries, in the order, that the row's own 1-D sum would.
    """
    positive = rows > 0
    counts = positive.sum(axis=1)
    h = np.empty(len(rows))
    for c in np.unique(counts):
        same = counts == c
        nz = rows[positive & same[:, None]].reshape(-1, c)
        terms = np.log2(nz)
        terms *= nz
        h[same] = terms.sum(axis=1)
    return -h


def _pairwise_sq_dists(x: np.ndarray) -> np.ndarray:
    sq = (x * x).sum(axis=1)
    d = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
    np.fill_diagonal(d, 0.0)
    return np.maximum(d, 0.0)


def joint_probabilities(x: np.ndarray, perplexity: float) -> np.ndarray:
    """Symmetrized input-space affinities P with zero diagonal."""
    n = x.shape[0]
    others = _off_diagonal(_pairwise_sq_dists(x)).reshape(n, n - 1)
    cond_rows = _calibrate_rows(others, perplexity)
    cond = np.zeros((n, n))
    _off_diagonal(cond)[:] = cond_rows.reshape(n - 1, n)
    p = cond + cond.T
    p /= 2.0 * n
    np.maximum(p, P_FLOOR, out=p)
    np.fill_diagonal(p, 0.0)
    return p


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


def tsne_fit(
    x: np.ndarray, config: TsneConfig | None = None, seeds: Sequence[int] = (0,)
) -> list[TsneEmbedding]:
    """Embed the rows of x once per seed with exact gradient descent on KL(P || Q).

    Returns one embedding per seed, in order; each starts from
    `default_rng(seed)`. Early exaggeration multiplies P for the first
    EXAGGERATION_ITERS updates; the KL trace is always scored against the
    true P, so trace[0] (the random init) and trace[-1] (the final layout)
    are comparable. P is computed once and shared, read-only, by every
    embedding. Consecutive seeds descend together in stacked work arrays of
    at most STACK_CELLS cells; every value is the one that `kl_divergence`
    and the textbook formulas give for that seed alone on fresh arrays, bit
    for bit.
    """
    config = config or TsneConfig()
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError("input must be a 2-D array of row vectors")
    if not np.all(np.isfinite(x)):
        raise ValueError("input contains non-finite values")
    n = x.shape[0]
    if n < config.min_points:
        raise ValueError(
            f"need at least {config.min_points} points for perplexity {config.perplexity}, got {n}"
        )

    p = joint_probabilities(x, config.perplexity)
    p.flags.writeable = False
    seeds = list(seeds)
    per_group = max(1, STACK_CELLS // (n * n))
    return [
        emb
        for at in range(0, len(seeds), per_group)
        for emb in _descend(p, seeds[at : at + per_group], config.iterations)
    ]


def _descend(p: np.ndarray, seeds: list[int], iterations: int) -> list[TsneEmbedding]:
    """Run the optimiser for each seed on P, stacked along a leading axis.

    Every operation acts on each (n, n) or (n, 2) slice as the one-seed
    loop would: products are per-slice matmuls, and every sum runs along
    one slice's own axis, in that slice's order.
    """
    b, n = len(seeds), p.shape[0]
    y = np.stack([np.random.default_rng(s).standard_normal((n, OUT_DIM)) for s in seeds])
    y *= 1e-4
    velocity = np.zeros_like(y)
    # Per-coordinate step-size gains, as in the reference implementation
    # the lr=200 convention comes from; without them that rate diverges.
    gains = np.ones_like(y)

    # P_FLOOR keeps every off-diagonal p positive, so P's support is the
    # whole off-diagonal and KL only needs its entries, in row-major order.
    # P and its off-diagonal get a leading axis of one: with B = 1 every
    # operand then has the same shape, which numpy runs without broadcasting.
    ps, p_stack = _off_diagonal(p).ravel()[None], p[None]
    num, q, pq = np.empty((b, n, n)), np.empty((b, n, n)), np.empty((b, n, n))
    num_diag, q_diag, pq_diag = (_diagonal(a) for a in (num, q, pq))
    # The KL terms borrow pq's first n(n-1) entries of each slice: KL is
    # scored after the gradient step has used pq and before the next one
    # refills it.
    terms = pq.reshape(b, -1)[:, : ps.size]
    q_off, terms_block = _off_diagonal(q), terms.reshape(b, n - 1, n)
    num_flat, num_sums = num.reshape(b, -1), np.empty((b, 1, 1))
    num_sums_flat = num_sums.reshape(b)
    y_sq, sq = np.empty_like(y), np.empty((b, n))
    sq_col, sq_row = sq[:, :, None], sq[:, None, :]
    kl_trace = np.empty((iterations + 1, b))
    y_t = y.transpose(0, 2, 1)

    def affinities() -> None:
        # Student-t kernel num = (1 + d^2)^-1 and Q = num / sum(num), with
        # zero diagonals; Q is floored at P_FLOOR off the diagonal. The old
        # Q is spent by now, so its array holds 2 y y^T until Q is written.
        np.multiply(y, y, out=y_sq).sum(axis=2, out=sq)
        np.add(sq_col, sq_row, out=num)
        np.matmul(y, y_t, out=q)
        np.multiply(q, 2.0, out=q)
        np.subtract(num, q, out=num)
        np.maximum(num, 0.0, out=num)
        np.add(num, 1.0, out=num)
        np.divide(1.0, num, out=num)
        num_diag.fill(0.0)
        num_flat.sum(axis=1, out=num_sums_flat)
        np.divide(num, num_sums, out=q)
        np.maximum(q, P_FLOOR, out=q)
        q_diag.fill(0.0)

    def kl(out: np.ndarray) -> None:
        np.copyto(terms_block, q_off)
        if terms.min() <= 0:
            raise ValueError("q is zero on p's support; divergence is infinite")
        np.divide(ps, terms, out=terms)
        np.log(terms, out=terms)
        np.multiply(ps, terms, out=terms)
        terms.sum(axis=1, out=out)

    affinities()
    kl(kl_trace[0])
    for it in range(iterations):
        # dKL/dy_i = 4 * sum_j (p_ij - q_ij) * (y_i - y_j) / (1 + |y_i - y_j|^2),
        # as (4 * (diag(rowsum(pq)) - pq)) @ y with pq = (p - q) * num.
        # pq's diagonal is exactly +0.0 (zero p, q and num), so the row sums
        # need no diagonal term taken out.
        if it < EXAGGERATION_ITERS:
            np.multiply(p_stack, EXAGGERATION, out=pq)
            pq -= q
        else:
            np.subtract(p_stack, q, out=pq)
        pq *= num
        row_sums = pq.sum(axis=2)
        np.subtract(0.0, pq, out=pq)
        pq_diag[:] = row_sums
        pq *= 4.0
        grad = pq @ y

        momentum = MOMENTUM_EARLY if it < MOMENTUM_SWITCH else MOMENTUM_LATE
        same_dir = np.sign(grad) == np.sign(velocity)
        gains = np.where(same_dir, gains * 0.8, gains + 0.2)
        np.maximum(gains, 0.01, out=gains)
        grad *= gains
        grad *= LEARNING_RATE
        velocity *= momentum
        velocity -= grad
        y += velocity
        y -= y.sum(axis=1, keepdims=True) / n  # y.mean(axis=1) in the same bits, minus its overhead
        affinities()
        kl(kl_trace[it + 1])

    return [
        TsneEmbedding(coords=y[i].copy(), kl_trace=trace, p_matrix=p, q_matrix=q[i].copy())
        for i, trace in enumerate(kl_trace.T.tolist())
    ]


def _diagonal(a: np.ndarray) -> np.ndarray:
    """Writable view of the diagonal of each trailing n x n block of a
    C-contiguous array."""
    n = a.shape[-1]
    return a.reshape(*a.shape[:-2], -1)[..., :: n + 1]


def _off_diagonal(a: np.ndarray) -> np.ndarray:
    """Writable (n-1) x n view of each trailing n x n block's off-diagonal
    entries in row-major order, for a C-contiguous array: dropping a[0, 0]
    leaves n-1 runs of n + 1 entries, each ending on the next diagonal entry."""
    lead, n = a.shape[:-2], a.shape[-1]
    return a.reshape(*lead, -1)[..., 1:].reshape(*lead, n - 1, n + 1)[..., :-1]
