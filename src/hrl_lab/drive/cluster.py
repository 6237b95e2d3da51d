"""K-means over embedded windows and the subroutine-ID lookup."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from hrl_lab.drive.tsne import TsneConfig, tsne_fit


@dataclass
class CentroidSet:
    """Fitted clustering: k centroids plus each point's assigned index.

    inertia_trace records the objective after every Lloyd update; absent
    empty-cluster reseeds it is non-increasing.
    """

    k: int
    centroids: np.ndarray
    assignment: np.ndarray
    inertia: float
    inertia_trace: list[float]


MAX_LLOYD_ITERS = 100
# k-means++ starts per fit. One start can settle with two well-separated
# groups under one centroid; the best of several rarely does.
N_INIT = 10


def kmeans_fit(points: np.ndarray, k: int, seed: int = 0) -> CentroidSet:
    """Lloyd's algorithm from N_INIT k-means++ starts; the lowest final
    inertia wins.

    All starts draw from one generator seeded with `seed`, one after the
    other, so the first start is the one a single-start fit would make; a
    later start replaces the best so far only when its inertia is
    strictly lower.
    Each start runs until the assignment stops changing or MAX_LLOYD_ITERS
    updates pass. A cluster that empties out is re-seeded to the point
    currently farthest from its own centroid. Distance ties assign to the
    lowest centroid index.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[0] == 0:
        raise ValueError("points must be a non-empty 2-D array")
    if not np.all(np.isfinite(points)):
        raise ValueError("points contain non-finite values")
    n = points.shape[0]
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > n:
        raise ValueError(f"k={k} exceeds the number of points ({n})")

    rng = np.random.default_rng(seed)
    best = None
    for _ in range(N_INIT):
        fit = _lloyd(points, _plus_plus_seed(points, k, rng))
        if best is None or fit.inertia < best.inertia:
            best = fit
    return best


def _lloyd(points: np.ndarray, centroids: np.ndarray) -> CentroidSet:
    n, k = points.shape[0], centroids.shape[0]
    assignment = _assign(points, centroids)
    trace = [_inertia(points, centroids, assignment)]
    for _ in range(MAX_LLOYD_ITERS):
        for c in range(k):
            members = points[assignment == c]
            if len(members) == 0:
                d = _sq_dists(points, centroids)
                centroids[c] = points[int(np.argmax(d[np.arange(n), assignment]))]
            else:
                centroids[c] = members.mean(axis=0)
        new_assignment = _assign(points, centroids)
        trace.append(_inertia(points, centroids, new_assignment))
        if np.array_equal(new_assignment, assignment):
            break
        assignment = new_assignment

    return CentroidSet(
        k=k,
        centroids=centroids,
        assignment=assignment,
        inertia=trace[-1],
        inertia_trace=trace,
    )


def _plus_plus_seed(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[rng.integers(n)]
    for c in range(1, k):
        d2 = _sq_dists(points, centroids[:c]).min(axis=1)
        total = d2.sum()
        if total == 0:
            # Every point coincides with a chosen centroid; any pick works.
            centroids[c] = points[rng.integers(n)]
        else:
            centroids[c] = points[rng.choice(n, p=d2 / total)]
    return centroids


def _sq_dists(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    diff = points[:, None, :] - centroids[None, :, :]
    return (diff * diff).sum(axis=2)


def _inertia(points: np.ndarray, centroids: np.ndarray, assignment: np.ndarray) -> float:
    return float(((points - centroids[assignment]) ** 2).sum())


def _assign(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    return np.argmin(_sq_dists(points, centroids), axis=1)


def assign_subroutine(cs: CentroidSet, tau: int) -> int:
    """Subroutine ID active while window tau plays out.

    The ID is the cluster of the previous window, so the signal attached
    to window tau never looks at window tau's own data. tau must be >= 1:
    the first window has no predecessor.
    """
    if tau < 1:
        raise ValueError(f"tau must be >= 1, got {tau}")
    if tau > len(cs.assignment):
        raise ValueError(
            f"tau={tau} is out of range; only {len(cs.assignment)} windows were fitted"
        )
    return int(cs.assignment[tau - 1])


def causal_subroutine_id(
    vectors: np.ndarray,
    tau: int,
    k: int,
    config: TsneConfig | None = None,
    seed: int = 0,
) -> int:
    """Subroutine ID for window tau computed from windows 0..tau-1 only.

    Batch t-SNE is transductive (every output coordinate depends on every
    input row), so the only way to honour "the ID at tau uses no data from
    tau onward" is to refit on the prefix. This helper does exactly that:
    embed vectors[:tau], cluster, and apply the shift rule.
    """
    vectors = np.asarray(vectors, dtype=float)
    if tau < 1:
        raise ValueError(f"tau must be >= 1, got {tau}")
    if tau > vectors.shape[0]:
        raise ValueError(f"tau={tau} exceeds the {vectors.shape[0]} available windows")
    emb = tsne_fit(vectors[:tau], config=config, seeds=(seed,))[0]
    cs = kmeans_fit(emb.coords, k=k, seed=seed)
    return assign_subroutine(cs, tau)
