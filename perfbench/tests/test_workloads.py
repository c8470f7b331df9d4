import json
from collections import defaultdict

import workloads


def _files(inputs):
    return {p.name: p.read_bytes() for p in [inputs.config_path, *inputs.contact_paths]}


def test_inputs_are_byte_identical_for_a_seed(tmp_path):
    for name in workloads.WORKLOADS:
        a = workloads.write_inputs(name, 5, tmp_path / name / "a")
        b = workloads.write_inputs(name, 5, tmp_path / name / "b")
        c = workloads.write_inputs(name, 6, tmp_path / name / "c")
        assert _files(a) == _files(b)
        assert _files(a) != _files(c)
        assert json.loads(a.config_path.read_text()) == {**a.config, "seed": 5, "workers": 1}


def test_contact_facts_match_the_written_log(tmp_path):
    inputs = workloads.write_inputs("contacts", 3, tmp_path)
    ids, pairs = defaultdict(set), defaultdict(set)
    lines = inputs.contact_paths[0].read_text().splitlines()
    first = int(lines[0].split("\t")[0])
    assert first == workloads.CONTACT_T0
    for line in lines:
        ts, a, b = (int(x) for x in line.split("\t"))
        day = (ts - first) // workloads.DAY_SECONDS
        ids[day] |= {a, b}
        pairs[day].add((min(a, b), max(a, b)))
    assert len(lines) > sum(len(p) for p in pairs.values())   # repeated contacts
    assert inputs.contact_days == [{"day": d, "n": len(ids[d]), "m": len(pairs[d])}
                                   for d in sorted(ids)]
    # One day is on each side of vaxnet's dense/sparse BFS switch (2048 nodes).
    assert max(d["n"] for d in inputs.contact_days) > 2048
    assert min(d["n"] for d in inputs.contact_days) <= 2048
    # On days where everyone mixes, nobody has fewer contacts than they sought.
    for day, (n_people, n_mixing) in enumerate(workloads.CONTACT_DAYS):
        if n_mixing == n_people:
            degree = defaultdict(int)
            for a, b in pairs[day]:
                degree[a] += 1
                degree[b] += 1
            assert min(degree.values()) >= workloads.CONTACT_MEAN_DEGREE // 2
