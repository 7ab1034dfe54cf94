"""Ablations over the estimators' design choices (paper Section 8).

Beyond the paper's headline tables, these benchmarks quantify:

* **initialization** — random vs kr-k-means++-style seeding;
* **implementation mode** — time-efficient (materialized centroids) vs
  memory-efficient (on-the-fly chunks), which must agree numerically;
* **aggregator heuristic** — how reliably the Section 8 difference-
  invariance rule detects the generating aggregator;
* **Hadamard factor count q** — compression vs reconstruction trade-off
  for q ∈ {2, 3} (the paper recommends q=2 for stability).
"""

from __future__ import annotations

import numpy as np
from conftest import print_header, scaled

from repro import KhatriRaoKMeans
from repro.core import suggest_aggregator
from repro.datasets import make_blobs, make_khatri_rao_blobs
from repro.linalg import khatri_rao_combine
from repro.nn import build_autoencoder


def test_ablation_initialization(benchmark):
    X, _ = make_blobs(max(500, int(3000 * scaled(0.3))), n_features=2,
                      n_clusters=36, random_state=0)

    def run():
        rows = {}
        for init in ("random", "kr-k-means++"):
            inertias = [
                KhatriRaoKMeans((6, 6), init=init, n_init=1,
                                random_state=seed).fit(X).inertia_
                for seed in range(8)
            ]
            rows[init] = (float(np.mean(inertias)), float(np.min(inertias)))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print_header("Ablation: initialization strategy (8 single-restart runs)")
    print(f"{'init':<16}{'mean inertia':>14}{'best inertia':>14}")
    for init, (mean, best) in rows.items():
        print(f"{init:<16}{mean:>14.1f}{best:>14.1f}")
    # ++-style seeding should not be wildly worse on average.
    assert rows["kr-k-means++"][0] < 4.0 * rows["random"][0]


def test_ablation_time_vs_memory_mode(benchmark):
    X, _ = make_blobs(max(400, int(2000 * scaled(0.3))), n_features=5,
                      n_clusters=25, random_state=1)

    def run():
        time_model = KhatriRaoKMeans((5, 5), mode="time", n_init=3,
                                     random_state=3).fit(X)
        memory_model = KhatriRaoKMeans((5, 5), mode="memory", chunk_size=4,
                                       n_init=3, random_state=3).fit(X)
        return time_model, memory_model

    time_model, memory_model = benchmark.pedantic(run, rounds=1, iterations=1)
    print_header("Ablation: time-efficient vs memory-efficient implementation")
    print(f"time-mode inertia   : {time_model.inertia_:.4f}")
    print(f"memory-mode inertia : {memory_model.inertia_:.4f}")
    assert memory_model.inertia_ == time_model.inertia_
    np.testing.assert_array_equal(memory_model.labels_, time_model.labels_)


def test_ablation_aggregator_heuristic(benchmark):
    def run():
        correct = 0
        trials = 0
        for seed in range(10):
            for aggregator in ("sum", "product"):
                _, _, thetas = make_khatri_rao_blobs(
                    (3, 3), n_samples=90, n_features=4,
                    aggregator=aggregator, random_state=seed,
                )
                grid = khatri_rao_combine(thetas, aggregator)
                trials += 1
                if suggest_aggregator(grid, (3, 3)) == aggregator:
                    correct += 1
        return correct, trials

    correct, trials = benchmark.pedantic(run, rounds=1, iterations=1)
    print_header("Ablation: Section 8 aggregator-selection heuristic")
    print(f"correct detections: {correct}/{trials}")
    assert correct >= int(0.8 * trials)


def test_ablation_hadamard_factor_count(benchmark):
    rng = np.random.default_rng(0)
    X = rng.normal(size=(max(200, int(600 * scaled(0.5))), 64))

    def run():
        rows = []
        for q in (2, 3):
            ae = build_autoencoder(64, (32, 8), compressed=True,
                                   n_hadamard_factors=q, random_state=0)
            ae.pretrain(X, epochs=15, batch_size=128, random_state=0)
            rows.append((q, ae.parameter_count(), ae.reconstruction_loss(X)))
        dense = build_autoencoder(64, (32, 8), random_state=0)
        dense.pretrain(X, epochs=15, batch_size=128, random_state=0)
        rows.append(("dense", dense.parameter_count(),
                     dense.reconstruction_loss(X)))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print_header("Ablation: Hadamard factor count q (compression vs loss)")
    print(f"{'q':>6}{'params':>9}{'recon loss':>13}")
    for q, params, loss in rows:
        print(f"{str(q):>6}{params:>9}{loss:>13.5f}")
    dense_params = rows[-1][1]
    for q, params, loss in rows[:-1]:
        assert params < dense_params
        assert np.isfinite(loss)
