"""Pinned bytes of the path sweep.

Each value is the leading 16 hex digits of the sha256 of the closeness and
of the betweenness scores' float64 bytes, on graphs whose every component
steps by row gathers: the daily graphs of the bundled contact log, a BA
and a DD draw, and a graph of two components. A rewrite of the sweep that
moves one bit of either score fails here, whatever tolerance the oracle
tests allow.
"""

import hashlib

import numpy as np
import pytest

from vaxnet import centrality
from vaxnet.centrality import Metric, compute_many
from vaxnet.generators import gen_barabasi_albert, gen_duplication_divergence
from vaxnet.graph import Graph, from_arrays
from vaxnet.ingest import load_daily_graphs

PINNED = {
    "contacts_day1": ("e90bed7557408ad7", "b6bda5b4348dac50"),
    "contacts_day2": ("c08ad9e1d78d030e", "90c710e99c0eb971"),
    "contacts_day3": ("1fc18a0cf2d8f4a0", "74162230fc716479"),
    "ba_400_3": ("98d8107d1e26de22", "3b74343e0e72e9b0"),
    "dd_400_0.4": ("e0b429e6d5f26859", "2a92c52017e8e183"),
    "two_components": ("3cd6c7d9711bb3c1", "98d616649bfd7b56"),
}


def digest(values: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(values, np.float64).tobytes()).hexdigest()[:16]


def pinned_graphs(contact_files) -> dict:
    days = load_daily_graphs(contact_files).graphs
    ba, dd = gen_barabasi_albert(400, 3, seed=1), gen_duplication_divergence(400, 0.4, seed=1)
    # A 300-node BA draw on ids 0..299 beside a 200-node DD draw on 300..499.
    (u, v), (x, y) = gen_barabasi_albert(300, 2, seed=2).edges(), \
        gen_duplication_divergence(200, 0.4, seed=3).edges()
    two = from_arrays(np.concatenate([u, x + 300]), np.concatenate([v, y + 300]), n=500)
    graphs = {f"contacts_day{i + 1}": g for i, g in enumerate(days)}
    graphs.update({"ba_400_3": ba, "dd_400_0.4": dd, "two_components": two})
    return graphs


def test_pinned_graphs_step_by_row_gathers(contact_files):
    for name, g in pinned_graphs(contact_files).items():
        for nodes, indptr, indices in centrality._components(g):
            sub = Graph(nodes.size, indptr, indices)
            assert centrality._step(sub).__name__ == "gather", name


@pytest.mark.parametrize("name", sorted(PINNED))
def test_path_scores_pinned(name, contact_files):
    scores = compute_many(pinned_graphs(contact_files)[name],
                          [Metric.CLOSENESS, Metric.BETWEENNESS])
    got = (digest(scores[Metric.CLOSENESS].values), digest(scores[Metric.BETWEENNESS].values))
    assert got == PINNED[name]
