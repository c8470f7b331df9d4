"""Benchmark workloads: the vaxnet command each one runs and its seeded inputs.

Every input file is a pure function of (workload, seed). Configs are written
as sorted-key JSON, which is valid YAML for `vaxnet --config`, and the
contact log is drawn with the standard library's Mersenne Twister, so the
same seed gives byte-identical files on any numpy or PyYAML version.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

DEFAULT_SEED = 1
HELDOUT_SEED = 97
NAMED_SEEDS = (DEFAULT_SEED, HELDOUT_SEED)

ALL_METRICS = ["degree", "betweenness", "closeness", "eigenvector"]

# Why each workload exists is written up in perfbench/README.md.
_CONFIGS = {
    "eigendrop": {
        "command": "table1",
        "config": {
            "replicates": 2,
            "k": 100,
            "metrics": ALL_METRICS,
            "networks": [
                {"family": "erdos_renyi", "n": 1000, "p": 0.4},
                {"family": "barabasi_albert", "n": 1000, "m": 50},
            ],
        },
    },
    "herd": {
        "command": "herd",
        "config": {
            "metrics": ["degree", "eigenvector"],
            "networks": [
                {"family": "erdos_renyi", "n": 1000, "p": 0.4},
                {"family": "barabasi_albert", "n": 1000, "m": 50},
            ],
            "herd": {"fraction": 0.7, "replicates": 5},
        },
    },
    "sir": {
        "command": "simulate",
        "config": {
            "networks": [
                {"family": "erdos_renyi", "n": 1000, "p": 0.4},
                {"family": "duplication_divergence", "n": 10000, "p": 0.4},
            ],
            "sir": {
                "tau": 0.4,
                "recovery_days": 14,
                "t_max": 30,
                "runs": 1,
                "metrics": ["degree"],
                "interventions": [{"time": 2.0, "k": 100}],
            },
        },
    },
    "contacts": {
        "command": "ingest",
        "config": {
            "metrics": ALL_METRICS,
            "ingest": {"columns": 3, "day_length": 86400, "replicates": 10},
        },
    },
}

WORKLOADS = tuple(_CONFIGS)

# Contact log shape, per day: people seen, and how many of them mix. Each
# mixing person seeks out CONTACT_MEAN_DEGREE / 2 others at random, so every
# mixer has at least that many contacts and the graph's diameter (the
# number of dense BFS levels) is 6 on every seed at these sizes. The others
# meet only within small groups (households, desks) of 2 to 6. Day 0 is
# above the 2048-node switch to the sparse per-source BFS; its groups keep
# that loop's share of a run small, since it slows with host load far more
# than the BLAS-bound dense path of the other days.
CONTACT_DAYS = ((2100, 300), (1600, 1600), (1400, 1400))
CONTACT_MEAN_DEGREE = 8
CONTACT_GROUP_SIZES = (2, 6)
CONTACT_POOL = 4000
CONTACT_T0 = 1_600_041_600          # a UTC midnight
DAY_SECONDS = 86_400


@dataclass
class Inputs:
    """Files one workload run reads, and facts the gate checks outputs against."""
    workload: str
    seed: int
    command: str
    config: dict
    config_path: Path
    contact_paths: list[Path] = field(default_factory=list)
    # Per contact day: distinct people and distinct pairs in the log.
    contact_days: list[dict] = field(default_factory=list)

    def cli_args(self, out_dir) -> list[str]:
        return ([self.command, "--config", str(self.config_path), "--out", str(out_dir),
                 "--workers", "1"] + [str(p) for p in self.contact_paths])


def config_for(workload: str, seed: int) -> dict:
    if workload not in _CONFIGS:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    return {**_CONFIGS[workload]["config"], "seed": int(seed), "workers": 1}


def contact_log(seed: int) -> tuple[str, list[dict]]:
    """A multi-day proximity log: `timestamp id_a id_b` lines sorted by time.

    Each day draws its people from one pool of external ids. Each mixing
    person links to new random mixers until it has started
    CONTACT_MEAN_DEGREE / 2 distinct pairs; the rest are split into
    groups in which everyone meets everyone. Every pair is seen 1 to 8
    times in the day, as sensor logs repeat a contact while two people stay
    close.
    """
    rng = random.Random(f"vaxnet-perfbench-contacts-{seed}")
    pool = rng.sample(range(100_000, 1_000_000), CONTACT_POOL)
    lines: list[tuple[int, int, int]] = []
    facts = []
    for day, (n_people, n_mixing) in enumerate(CONTACT_DAYS):
        people = rng.sample(pool, n_people)
        mixing, grouped = people[:n_mixing], people[n_mixing:]
        pairs: set[tuple[int, int]] = set()
        for a in mixing:
            started = 0
            while started < CONTACT_MEAN_DEGREE // 2:
                b = rng.choice(mixing)
                pair = (a, b) if a < b else (b, a)
                if a != b and pair not in pairs:
                    pairs.add(pair)
                    started += 1
        groups: list[list[int]] = []
        while grouped:
            size = rng.randint(*CONTACT_GROUP_SIZES)
            groups.append(grouped[:size])
            grouped = grouped[size:]
        if len(groups) > 1 and len(groups[-1]) == 1:
            groups[-2] += groups.pop()
        pairs.update((min(a, b), max(a, b)) for g in groups
                     for i, a in enumerate(g) for b in g[i + 1:])
        start = CONTACT_T0 + day * DAY_SECONDS
        for a, b in sorted(pairs):
            for _ in range(rng.randint(1, 8)):
                u, v = (a, b) if rng.random() < 0.5 else (b, a)
                lines.append((start + rng.randrange(DAY_SECONDS), u, v))
        seen = {x for pair in pairs for x in pair}
        facts.append({"day": day, "n": len(seen), "m": len(pairs)})
    # Day buckets are counted from the earliest timestamp, so pin it to
    # midnight of day 0.
    lines.sort()
    _, u, v = lines[0]
    lines[0] = (CONTACT_T0, u, v)
    text = "".join(f"{t}\t{a}\t{b}\n" for t, a, b in lines)
    return text, facts


def write_inputs(workload: str, seed: int, dest) -> Inputs:
    """Write the config (and contact log) for one workload and seed under `dest`."""
    dest = Path(dest)
    dest.mkdir(parents=True, exist_ok=True)
    config = config_for(workload, seed)
    config_path = dest / "config.yaml"
    config_path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n",
                           encoding="utf-8")
    inputs = Inputs(workload, int(seed), _CONFIGS[workload]["command"], config, config_path)
    if workload == "contacts":
        text, facts = contact_log(seed)
        log_path = dest / "contacts.tsv"
        log_path.write_text(text, encoding="utf-8")
        inputs.contact_paths = [log_path]
        inputs.contact_days = facts
    return inputs
