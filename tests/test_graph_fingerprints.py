"""Pinned topology fingerprints.

`Graph.fingerprint` hashes `n`, `indptr` and `indices`, so these values
pin the exact canonical CSR each construction path produces: every
generator family, the degree-preserving shuffle, an edge-list round trip
and the daily graphs of the bundled contact log. A rewrite of the CSR
constructor or of a generator's edge hand-over must leave them unchanged.
"""

import pytest

from vaxnet.generators import GenSpec, degree_preserving_shuffle, generate
from vaxnet.graph import read_edge_list, write_edge_list
from vaxnet.ingest import load_daily_graphs

PARAMS = {
    "gnp": {"p": 0.05},
    "erdos_renyi": {"p": 0.1},
    "duplication_divergence": {"p": 0.4},
    "barabasi_albert": {"m": 3},
    "random_geometric": {"radius": 0.15},
}

GENERATED = {
    ("gnp", 50, 1): "db26ef0938ccfcbb",
    ("gnp", 50, 97): "017e974c0844a508",
    ("gnp", 400, 1): "36fc36b4fee93da4",
    ("gnp", 400, 97): "81f8065591882b1b",
    ("erdos_renyi", 50, 1): "89b8e7e943e92ff0",
    ("erdos_renyi", 50, 97): "08bd9ff319512e71",
    ("erdos_renyi", 400, 1): "b2da97aa1ea09b65",
    ("erdos_renyi", 400, 97): "dce86c71e382657d",
    ("duplication_divergence", 50, 1): "70beda828c2e60fb",
    ("duplication_divergence", 50, 97): "f7bd1872724a2668",
    ("duplication_divergence", 400, 1): "239f7aa15b6e9d29",
    ("duplication_divergence", 400, 97): "1fa30290e68ac1d3",
    ("barabasi_albert", 50, 1): "35cefdfc0337d731",
    ("barabasi_albert", 50, 97): "eb8b82b547732b86",
    ("barabasi_albert", 400, 1): "438d2c506288f6bd",
    ("barabasi_albert", 400, 97): "39647d260315aca6",
    ("random_geometric", 50, 1): "f2bc82065ef6c09c",
    ("random_geometric", 50, 97): "789b24a3f7b79b5b",
    ("random_geometric", 400, 1): "c76d3d0acb2ee877",
    ("random_geometric", 400, 97): "c177c17560c1d91d",
}

CONTACT_DAYS = ["9b4ae13146096fb0", "3f6e74def275dbe6", "7e0ccd3547440b0f"]

CONTACT_TWO_HOUR_BUCKETS = [
    "a00d13ce16003996", "d997abffcabbe9c8", "4577fe224cfc528e", "27f9a95dcd9c6deb",
    "423bfe35d3ec8ed1", "1ccbe836bc48c9cf", "c7d73de0ae508b1b", "5c718a14bb6b0e17",
    "496540d042b98273", "7de369efa2bb0dc3", "b37eaf531b9ba2e1", "6a992509d70b5214",
]


@pytest.mark.parametrize("family, n, seed", sorted(GENERATED))
def test_generated_graph_fingerprint_pinned(family, n, seed):
    g = generate(GenSpec(family=family, n=n, seed=seed, **PARAMS[family]))
    assert g.fingerprint == GENERATED[family, n, seed]


def test_shuffled_graph_fingerprint_pinned():
    base = generate(GenSpec(family="barabasi_albert", n=200, m=3, seed=5))
    assert degree_preserving_shuffle(base, seed=7).fingerprint == "eb30c5514619df9a"


def test_edge_list_round_trip_fingerprint_pinned(tmp_path):
    g = generate(GenSpec(family="gnp", n=300, p=0.02, seed=3))
    path = tmp_path / "edges.txt"
    write_edge_list(g, path)
    back = read_edge_list(path)
    assert back == g
    assert back.fingerprint == "6fdaa712424c0216"


def test_contact_day_graph_fingerprints_pinned(contact_files):
    per_file = load_daily_graphs(contact_files)
    assert [g.fingerprint for g in per_file.graphs] == CONTACT_DAYS
    pooled = load_daily_graphs(contact_files, day_length=7200)
    assert [g.fingerprint for g in pooled.graphs] == CONTACT_TWO_HOUR_BUCKETS


# Large draws: `vaxnet simulate`'s DD(10000, 0.4) at config seed 1 (whose
# per-run graph seed is given), geometric graphs in two and three
# dimensions at a few thousand nodes, and ER(1000, 0.4) and BA(1000, 50),
# the sizes `table1` and `herd` draw, where BA's duplicate redraws are
# frequent.
LARGE = {
    GenSpec("duplication_divergence", 10000, p=0.4, seed=7025602488199766579):
        "a657a686937d5c11",
    GenSpec("duplication_divergence", 10000, p=0.4, seed=1): "800c78dd0ae0a20c",
    GenSpec("duplication_divergence", 10000, p=0.4, seed=97): "fd8e81fd406914e0",
    GenSpec("erdos_renyi", 1000, p=0.4, seed=1): "37cccc1e6a5bec63",
    GenSpec("erdos_renyi", 1000, p=0.4, seed=97): "3d320166d6d6832c",
    GenSpec("gnp", 1000, p=0.4, seed=1): "6b9142d7eb072116",
    GenSpec("random_geometric", 5000, seed=1): "88a8d4cbd90aeb92",
    GenSpec("random_geometric", 2000, radius=0.05, dim=3, seed=97): "4bdd263d08abcf22",
    GenSpec("barabasi_albert", 1000, m=50, seed=1): "a1adf93e5c60520e",
    GenSpec("barabasi_albert", 1000, m=50, seed=97): "3e2e3683b4405f17",
}


@pytest.mark.parametrize("spec", list(LARGE), ids=lambda s: f"{s.family}-{s.n}-{s.seed}")
def test_large_generated_graph_fingerprint_pinned(spec):
    assert generate(spec).fingerprint == LARGE[spec]
