"""The exact t-SNE keeps its float bits.

`tsne_fit` works in fit-scoped buffers and calibrates every row's
precision in one batched binary search. The references below are the
plain per-iteration loop and the one-row-at-a-time search that it
replaced, written with fresh arrays; the fit must reproduce their
coordinates, Q and KL trace byte for byte. The digests pin float bits,
which depend on the numpy and BLAS build.
"""

import hashlib

import numpy as np
import pytest

from hrl_lab.drive.tsne import (
    EXAGGERATION,
    EXAGGERATION_ITERS,
    LEARNING_RATE,
    MOMENTUM_EARLY,
    MOMENTUM_LATE,
    MOMENTUM_SWITCH,
    OUT_DIM,
    P_FLOOR,
    TsneConfig,
    _gaussian_rows,
    joint_probabilities,
    perplexity_calibration,
    tsne_fit,
)

# ------------------------------------------------------------- references


def ref_calibration(d, perplexity, tol=1e-5, max_iters=50):
    """One row's binary search on beta, on fresh arrays."""
    d = np.asarray(d, dtype=float)
    n = d.size
    if np.all(d == d[0]):
        return np.full(n, 1.0 / n)

    def gaussian(beta):
        p = np.exp(-beta * d)
        return p / p.sum()

    def entropy_bits(row):
        nz = row[row > 0]
        return float(-(nz * np.log2(nz)).sum())

    d = d - d.min()
    beta, lo, hi = 1.0, 0.0, np.inf
    row = gaussian(beta)
    for _ in range(max_iters):
        achieved = 2.0 ** entropy_bits(row)
        if abs(achieved - perplexity) <= tol:
            break
        if achieved > perplexity:
            lo = beta
            beta = beta * 2.0 if hi == np.inf else (beta + hi) / 2.0
        else:
            hi = beta
            beta = (beta + lo) / 2.0
        row = gaussian(beta)
    return row


def ref_sq_dists(x):
    sq = (x * x).sum(axis=1)
    d = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
    np.fill_diagonal(d, 0.0)
    return np.maximum(d, 0.0)


def ref_joint_probabilities(x, perplexity):
    n = x.shape[0]
    d = ref_sq_dists(x)
    cond = np.zeros((n, n))
    idx = np.arange(n)
    for i in range(n):
        others = idx != i
        cond[i, others] = ref_calibration(d[i, others], perplexity)
    p = (cond + cond.T) / (2.0 * n)
    np.fill_diagonal(p, 0.0)
    return np.maximum(p, P_FLOOR * (1 - np.eye(n)))


def ref_kl(p, q):
    mask = ~np.eye(p.shape[0], dtype=bool)
    p, q = p[mask], q[mask]
    support = p > 0
    ps, qs = p[support], q[support]
    return float((ps * np.log(ps / qs)).sum())


def ref_affinities(y):
    num = 1.0 / (1.0 + ref_sq_dists(y))
    np.fill_diagonal(num, 0.0)
    q = num / num.sum()
    return np.maximum(q, P_FLOOR * (1 - np.eye(y.shape[0]))), num


def ref_tsne_fit(x, perplexity, iterations, seed):
    """The per-iteration loop on fresh arrays: (coords, p, q, kl_trace)."""
    p = ref_joint_probabilities(x, perplexity)
    rng = np.random.default_rng(seed)
    y = 1e-4 * rng.standard_normal((x.shape[0], OUT_DIM))
    velocity = np.zeros_like(y)
    gains = np.ones_like(y)
    q, num = ref_affinities(y)
    trace = [ref_kl(p, q)]
    for it in range(iterations):
        p_eff = p * EXAGGERATION if it < EXAGGERATION_ITERS else p
        pq = (p_eff - q) * num
        grad = 4.0 * (np.diag(pq.sum(axis=1)) - pq) @ y
        momentum = MOMENTUM_EARLY if it < MOMENTUM_SWITCH else MOMENTUM_LATE
        same_dir = np.sign(grad) == np.sign(velocity)
        gains = np.where(same_dir, gains * 0.8, gains + 0.2)
        np.clip(gains, 0.01, None, out=gains)
        velocity = momentum * velocity - LEARNING_RATE * (gains * grad)
        y = y + velocity
        y = y - y.mean(axis=0)
        q, num = ref_affinities(y)
        trace.append(ref_kl(p, q))
    return y, p, q, trace


# ----------------------------------------------------------------- inputs


def blobs(n, dim, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    centers = 4.0 * rng.normal(size=(3, dim))
    x = centers[np.arange(n) % 3] + rng.normal(size=(n, dim))
    return scale * x


def star(dim):
    """The origin plus +-1 on each axis. The origin's row of distances is
    uniform (every beta gives the same row); the other rows are not."""
    return np.vstack([np.zeros(dim), np.eye(dim), -np.eye(dim)])


def golden_input():
    rng = np.random.default_rng(2008)
    centers = 4.0 * rng.normal(size=(3, 6))
    spreads = (0.5, 1.0, 2.0)
    return np.concatenate([c + s * rng.normal(size=(50, 6)) for c, s in zip(centers, spreads)])


def sha(arr):
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# ------------------------------------------------------------------ tests


def test_golden_fit_at_perplexity_30():
    """150 points, 300 updates: crosses the end of early exaggeration and
    the momentum switch. Digests recorded with the per-iteration loop."""
    emb = tsne_fit(golden_input(), TsneConfig(perplexity=30.0, iterations=300), seed=11)
    assert sha(emb.coords) == "270ec8066ed48bf79dfc73f94105381f279e75c8cd1636f089e8f6e94bcfa6c9"
    assert sha(emb.q_matrix) == "a4ca3d8d22229e055bfe5e23e9f0ff650adcb5fce5ec6eedbbb3d2629605974d"
    assert sha(emb.p_matrix) == "944efa8b6d0efa43d920506d39ebeda82cfafba8da05a4fd4260b34aa2ff8f0f"
    assert sha(emb.kl_trace) == "48ca512df474327a32e35df5e55eb12b03709b121854397f3692681e9829ba45"


FITS = [
    # (x, perplexity, iterations, seeds)
    pytest.param(blobs(12, 4, 0), 3.0, 300, (0, 1, 2), id="n12-perp3"),
    pytest.param(blobs(31, 30, 1), 5.0, 300, (0, 7), id="n31-perp5"),
    pytest.param(blobs(61, 8, 2), 10.0, 260, (3,), id="n61-perp10"),
    pytest.param(blobs(40, 5, 3, scale=30.0), 5.0, 120, (0, 1), id="n40-x30-underflow"),
    pytest.param(star(5), 4.0, 150, (0, 5), id="star-uniform-row"),
    pytest.param(np.zeros((9, 3)), 2.0, 40, (0,), id="all-equal"),
]


@pytest.mark.parametrize("x, perplexity, iterations, seeds", FITS)
def test_fit_matches_the_reference_loop_bitwise(x, perplexity, iterations, seeds):
    for seed in seeds:
        emb = tsne_fit(x, TsneConfig(perplexity=perplexity, iterations=iterations), seed=seed)
        coords, p, q, trace = ref_tsne_fit(x, perplexity, iterations, seed)
        assert same_bits(emb.p_matrix, p)
        assert same_bits(emb.coords, coords)
        assert same_bits(emb.q_matrix, q)
        assert same_bits(emb.kl_trace, trace)
        assert all(type(v) is float for v in emb.kl_trace)


AFFINITY_INPUTS = [
    pytest.param(blobs(30, 30, 4), 5.0, id="fixture-shaped"),
    pytest.param(blobs(300, 30, 5), 30.0, id="benchmark-shaped"),
    pytest.param(blobs(50, 4, 6, scale=10.0), 8.0, id="x10"),
    pytest.param(blobs(50, 4, 6, scale=30.0), 8.0, id="x30"),
    pytest.param(blobs(25, 3, 7, scale=30.0), 2.0, id="x30-perp2"),
    pytest.param(star(4), 3.0, id="star"),
    pytest.param(np.zeros((7, 2)), 2.0, id="all-equal"),
]


@pytest.mark.parametrize("x, perplexity", AFFINITY_INPUTS)
def test_batched_affinities_match_the_per_row_search_bitwise(x, perplexity):
    assert same_bits(joint_probabilities(x, perplexity), ref_joint_probabilities(x, perplexity))


def test_scaled_input_underflows_in_the_first_gaussian():
    """The x30 inputs above do exercise rows whose exp() underflows."""
    d = ref_sq_dists(blobs(50, 4, 6, scale=30.0))
    row = np.delete(d[0], 0)
    assert np.any(np.exp(-(row - row.min())) == 0.0)


def test_gaussian_rows_match_plain_exp_bitwise():
    """Lanes far enough below zero skip exp() and are written as 0.0; the
    rows must still equal plain exp-and-normalise bit for bit, across the
    subnormal range where exp() reaches 0."""
    rng = np.random.default_rng(5)
    d = np.concatenate([[0.0], np.linspace(700.0, 760.0, 601), rng.uniform(0.0, 900.0, 200)])
    shifted = np.stack([d, d / 2.0, d * 3.0])
    beta = np.array([1.0, 2.0, 1.0 / 3.0])
    plain = np.exp(shifted * -beta[:, None])
    plain /= plain.sum(axis=1)[:, None]
    assert np.any(plain == 0.0)
    assert np.any((plain > 0.0) & (plain < np.finfo(float).tiny))
    assert same_bits(_gaussian_rows(shifted, beta), plain)


@pytest.mark.parametrize("scale", [1.0, 10.0, 30.0])
def test_one_row_calibration_matches_the_reference_bitwise(scale):
    rng = np.random.default_rng(int(scale))
    for perplexity in (1.5, 3.0, 7.0):
        d = scale * scale * rng.uniform(0.0, 10.0, size=12)
        assert same_bits(perplexity_calibration(d, perplexity), ref_calibration(d, perplexity))
