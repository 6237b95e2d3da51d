import numpy as np
import pytest

from hrl_lab.drive import (
    CentroidSet,
    TelemetryWindow,
    TsneConfig,
    assign_subroutine,
    causal_subroutine_id,
    embedding_csv,
    kl_divergence,
    kmeans_fit,
    nearest_windows_report,
    perplexity_calibration,
    tsne_fit,
)
from hrl_lab.drive.report import EMBEDDING_HEADER, REPORT_HEADER
from hrl_lab.drive.tsne import joint_probabilities


def three_blobs(n_per=20, seed=0, spread=0.3):
    rng = np.random.default_rng(seed)
    centers = np.array([[0.0, 0.0], [8.0, 0.0], [0.0, 8.0]])
    pts = np.concatenate([c + spread * rng.normal(size=(n_per, 2)) for c in centers])
    labels = np.repeat(np.arange(3), n_per)
    return pts, labels


def test_calibration_equidistant_row_is_uniform():
    row = perplexity_calibration(np.full(4, 4.0), perplexity=2.0)
    assert np.allclose(row, 0.25)


def test_calibration_all_zero_distances_is_uniform():
    row = perplexity_calibration(np.zeros(5), perplexity=2.0)
    assert np.allclose(row, 0.2)


def test_calibration_hits_target_perplexity():
    rng = np.random.default_rng(1)
    d = rng.uniform(0.5, 10.0, size=8)
    row = perplexity_calibration(d, perplexity=3.0)
    assert row.sum() == pytest.approx(1.0, abs=1e-12)
    entropy = -(row * np.log2(row)).sum()
    assert abs(2.0**entropy - 3.0) <= 1e-5


def test_calibration_closer_points_get_more_mass():
    row = perplexity_calibration(np.array([0.1, 0.1, 5.0, 5.0, 5.0]), perplexity=2.0)
    assert row[0] > row[2]
    assert row[0] == pytest.approx(row[1])


def test_calibration_rejects_bad_input():
    with pytest.raises(ValueError):
        perplexity_calibration(np.array([1.0, -2.0]), perplexity=2.0)
    with pytest.raises(ValueError):
        perplexity_calibration(np.array([]), perplexity=2.0)


def test_kl_vector_oracle():
    # 0.5*ln(0.5/0.9) + 0.5*ln(0.5/0.1), worked out by hand
    got = kl_divergence(np.array([0.5, 0.5]), np.array([0.9, 0.1]))
    assert got == pytest.approx(0.5108256238, abs=1e-9)


def test_kl_identical_distributions_is_zero():
    p = np.array([0.2, 0.3, 0.5])
    assert kl_divergence(p, p) == 0.0


def test_kl_zero_p_terms_drop_out():
    got = kl_divergence(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
    assert got == pytest.approx(np.log(2.0))


def test_kl_infinite_support_mismatch_raises():
    with pytest.raises(ValueError, match="support"):
        kl_divergence(np.array([0.5, 0.5]), np.array([1.0, 0.0]))


def test_kl_shape_mismatch_raises():
    with pytest.raises(ValueError, match="shape"):
        kl_divergence(np.zeros(3), np.zeros(4))


def test_kl_matrix_ignores_diagonal():
    p_off = np.array([[0.0, 0.6], [0.4, 0.0]])
    q = np.array([[0.0, 0.5], [0.5, 0.0]])
    expected = 0.6 * np.log(0.6 / 0.5) + 0.4 * np.log(0.4 / 0.5)
    assert kl_divergence(p_off, q) == pytest.approx(expected, abs=1e-12)
    # Junk on p's diagonal would blow up (q's diagonal is zero) if it
    # were not excluded from the sum.
    p_diag = np.array([[0.7, 0.6], [0.4, 0.3]])
    assert kl_divergence(p_diag, q) == pytest.approx(expected, abs=1e-12)


def test_joint_probabilities_invariants():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(10, 4))
    p = joint_probabilities(x, perplexity=3.0)
    assert np.array_equal(p, p.T)
    assert np.all(p >= 0.0)
    assert np.all(np.diag(p) == 0.0)
    assert p.sum() == pytest.approx(1.0, abs=1e-6)


def small_cfg(iterations=200):
    return TsneConfig(perplexity=2.0, iterations=iterations)


def test_tsne_requires_enough_points():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="at least"):
        tsne_fit(rng.normal(size=(4, 3)), config=small_cfg())


def test_tsne_rejects_non_finite():
    x = np.zeros((6, 2))
    x[0, 0] = np.inf
    with pytest.raises(ValueError):
        tsne_fit(x, config=small_cfg())


def test_tsne_is_deterministic_per_seed():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(12, 5))
    a = tsne_fit(x, config=small_cfg(iterations=50), seeds=(9,))[0]
    b = tsne_fit(x, config=small_cfg(iterations=50), seeds=(9,))[0]
    c = tsne_fit(x, config=small_cfg(iterations=50), seeds=(10,))[0]
    assert np.array_equal(a.coords, b.coords)
    assert not np.array_equal(a.coords, c.coords)


def test_tsne_output_shape_and_trace_length():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(11, 3))
    emb = tsne_fit(x, config=small_cfg(iterations=40), seeds=(0,))[0]
    assert emb.coords.shape == (11, 2)
    assert len(emb.kl_trace) == 41


def test_tsne_final_kl_below_initial():
    x, _ = three_blobs(n_per=7, seed=3)
    for seed in range(3):
        emb = tsne_fit(x, config=small_cfg(), seeds=(seed,))[0]
        assert emb.kl_trace[-1] < emb.kl_trace[0]


def test_tsne_trace_matches_returned_matrices():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(12, 4))
    emb = tsne_fit(x, config=small_cfg(iterations=30), seeds=(1,))[0]
    assert kl_divergence(emb.p_matrix, emb.q_matrix) == pytest.approx(
        emb.kl_trace[-1], abs=1e-12
    )


def test_tsne_separates_blobs():
    x, labels = three_blobs(n_per=20, seed=8)
    emb = tsne_fit(x, config=TsneConfig(perplexity=8.0, iterations=400), seeds=(0,))[0]
    cs = kmeans_fit(emb.coords, k=3, seed=0)
    purity = 0
    for c in range(3):
        members = labels[cs.assignment == c]
        if len(members):
            purity += np.bincount(members).max()
    assert purity / len(labels) >= 0.9


def test_tsne_config_validation():
    with pytest.raises(ValueError):
        TsneConfig(perplexity=0.0)
    with pytest.raises(ValueError):
        TsneConfig(iterations=0)


def test_kmeans_four_point_symmetry():
    pts = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 0.0], [10.0, 1.0]])
    cs = kmeans_fit(pts, k=2, seed=0)
    got = sorted(map(tuple, cs.centroids))
    assert got == [(0.0, 0.5), (10.0, 0.5)]
    assert cs.inertia == pytest.approx(1.0)
    assert cs.assignment[0] == cs.assignment[1]
    assert cs.assignment[2] == cs.assignment[3]


def test_kmeans_k_equals_n_zero_inertia():
    rng = np.random.default_rng(12)
    pts = rng.normal(size=(6, 2))
    cs = kmeans_fit(pts, k=6, seed=0)
    assert cs.inertia == 0.0
    assert sorted(cs.assignment) == list(range(6))


def test_kmeans_k_bounds():
    pts = np.zeros((3, 2))
    with pytest.raises(ValueError):
        kmeans_fit(pts, k=4)
    with pytest.raises(ValueError):
        kmeans_fit(pts, k=0)


def test_kmeans_inertia_trace_non_increasing():
    pts, _ = three_blobs(n_per=15, seed=1)
    for seed in range(4):
        cs = kmeans_fit(pts, k=3, seed=seed)
        diffs = np.diff(cs.inertia_trace)
        assert np.all(diffs <= 1e-9)


def test_kmeans_assignment_is_nearest_centroid():
    rng = np.random.default_rng(13)
    pts = rng.normal(size=(40, 2))
    cs = kmeans_fit(pts, k=5, seed=2)
    d = ((pts[:, None, :] - cs.centroids[None, :, :]) ** 2).sum(axis=2)
    assert np.array_equal(cs.assignment, np.argmin(d, axis=1))


def test_kmeans_deterministic_per_seed():
    pts, _ = three_blobs(n_per=10, seed=2)
    a = kmeans_fit(pts, k=3, seed=5)
    b = kmeans_fit(pts, k=3, seed=5)
    assert np.array_equal(a.centroids, b.centroids)
    assert np.array_equal(a.assignment, b.assignment)


def test_kmeans_restarts_split_blobs_one_start_merges(monkeypatch):
    """Seed 4's first k-means++ start puts two centroids in one blob and
    leaves two blobs under the third; a later start finds the three blobs."""
    from hrl_lab.drive import cluster

    rng = np.random.default_rng(1)
    centers = np.array([[0.0, 0.0], [6.0, 0.0], [3.0, 5.0]])
    pts = np.concatenate([c + 0.5 * rng.normal(size=(15, 2)) for c in centers])
    labels = np.repeat(np.arange(3), 15)

    def blobs_split(cs):
        return sorted(len(set(labels[cs.assignment == c])) for c in range(3)) == [1, 1, 1]

    monkeypatch.setattr(cluster, "N_INIT", 1)
    first = kmeans_fit(pts, k=3, seed=4)
    monkeypatch.undo()
    best = kmeans_fit(pts, k=3, seed=4)
    assert cluster.N_INIT > 1
    assert not blobs_split(first)
    assert blobs_split(best)
    assert best.inertia < first.inertia
    assert best.inertia == best.inertia_trace[-1]


def test_kmeans_first_start_wins_unless_beaten(monkeypatch):
    """On blobs every start separates, later starts tie the first start's
    inertia at best, and the first start's fit is returned unchanged."""
    from hrl_lab.drive import cluster

    pts, _ = three_blobs(n_per=15, seed=1)
    monkeypatch.setattr(cluster, "N_INIT", 1)
    first = kmeans_fit(pts, k=3, seed=0)
    monkeypatch.undo()
    best = kmeans_fit(pts, k=3, seed=0)
    assert np.array_equal(best.centroids, first.centroids)
    assert np.array_equal(best.assignment, first.assignment)
    assert best.inertia_trace == first.inertia_trace


def handmade_cs(assignment, k=3):
    assignment = np.asarray(assignment)
    return CentroidSet(
        k=k,
        centroids=np.zeros((k, 2)),
        assignment=assignment,
        inertia=0.0,
        inertia_trace=[0.0],
    )


def test_assign_subroutine_shift_rule():
    cs = handmade_cs([2, 0, 1])
    assert assign_subroutine(cs, 1) == 2
    assert assign_subroutine(cs, 2) == 0
    assert assign_subroutine(cs, 3) == 1


def test_assign_subroutine_boundaries():
    cs = handmade_cs([2, 0, 1])
    with pytest.raises(ValueError):
        assign_subroutine(cs, 0)
    with pytest.raises(ValueError):
        assign_subroutine(cs, 4)


def test_causal_id_ignores_future_windows():
    rng = np.random.default_rng(21)
    vectors = rng.normal(size=(14, 6))
    cfg = TsneConfig(perplexity=2.0, iterations=60)
    tau = 12
    before = causal_subroutine_id(vectors, tau, k=3, config=cfg, seed=0)
    perturbed = vectors.copy()
    perturbed[tau:] = rng.normal(size=(14 - tau, 6)) * 50.0
    after = causal_subroutine_id(perturbed, tau, k=3, config=cfg, seed=0)
    assert before == after


def test_causal_id_bounds():
    vectors = np.zeros((5, 3))
    with pytest.raises(ValueError):
        causal_subroutine_id(vectors, 0, k=2)
    with pytest.raises(ValueError):
        causal_subroutine_id(vectors, 6, k=2)


def report_fixture():
    embedding = np.array(
        [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [10.0, 0.0], [10.0, 1.0], [11.0, 0.0]]
    )
    cs = kmeans_fit(embedding, k=2, seed=0)
    angle_blocks = [[0.5, 0.5], [0.0, 0.0], [-0.5, -0.5], [0.3, 0.3], [-0.2, 0.0], [0.0, 0.01]]
    windows = [
        TelemetryWindow(tau=i, vector=np.concatenate([a, np.zeros(2), np.zeros(2)]))
        for i, a in enumerate(map(np.array, angle_blocks))
    ]
    return embedding, cs, windows


def test_report_header_and_row_count():
    embedding, cs, windows = report_fixture()
    lines = nearest_windows_report(embedding, cs, windows, n_examples=2).splitlines()
    assert lines[0] == REPORT_HEADER
    assert len(lines) == 1 + 2 * 2


def test_report_small_clusters_yield_fewer_rows():
    embedding, cs, windows = report_fixture()
    lines = nearest_windows_report(embedding, cs, windows, n_examples=10).splitlines()
    assert len(lines) == 1 + 6


def test_report_rank_zero_is_nearest_member():
    embedding, cs, windows = report_fixture()
    lines = nearest_windows_report(embedding, cs, windows, n_examples=1).splitlines()[1:]
    for line in lines:
        fields = line.split(",")
        c, tau = int(fields[0]), int(fields[2])
        members = np.flatnonzero(cs.assignment == c)
        d = np.linalg.norm(embedding[members] - cs.centroids[c], axis=1)
        assert tau == members[np.argmin(d)]


def test_report_distances_are_ranked():
    embedding, cs, windows = report_fixture()
    lines = nearest_windows_report(embedding, cs, windows, n_examples=6).splitlines()[1:]
    by_centroid = {}
    for line in lines:
        fields = line.split(",")
        by_centroid.setdefault(fields[0], []).append(float(fields[6]))
    for dists in by_centroid.values():
        assert dists == sorted(dists)


def test_report_timestep_ranges_and_labels():
    embedding, cs, windows = report_fixture()
    lines = nearest_windows_report(embedding, cs, windows, n_examples=6).splitlines()[1:]
    expected_label = {0: "positive", 1: "near_zero", 2: "negative", 3: "positive", 4: "negative", 5: "near_zero"}
    for line in lines:
        fields = line.split(",")
        tau = int(fields[2])
        assert int(fields[3]) == tau * 2
        assert int(fields[4]) == (tau + 1) * 2
        assert fields[5] == expected_label[tau]


def test_report_rejects_bad_n_examples():
    embedding, cs, windows = report_fixture()
    with pytest.raises(ValueError):
        nearest_windows_report(embedding, cs, windows, n_examples=0)


def test_report_single_centroid_ranks_everything():
    embedding, _, windows = report_fixture()
    cs = kmeans_fit(embedding, k=1, seed=0)
    lines = nearest_windows_report(embedding, cs, windows, n_examples=99).splitlines()
    assert len(lines) == 7
    dists = [float(line.split(",")[6]) for line in lines[1:]]
    assert dists == sorted(dists)


def test_embedding_csv_contents():
    embedding, cs, windows = report_fixture()
    lines = embedding_csv(embedding, cs, windows).splitlines()
    assert lines[0] == EMBEDDING_HEADER
    assert len(lines) == 7
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[1]) == embedding[0, 0]
    assert float(first[2]) == embedding[0, 1]
    assert int(first[3]) == cs.assignment[0]
    assert first[4] == "positive"


def test_report_length_mismatch_raises():
    embedding, cs, windows = report_fixture()
    with pytest.raises(ValueError):
        nearest_windows_report(embedding[:-1], cs, windows, n_examples=1)
