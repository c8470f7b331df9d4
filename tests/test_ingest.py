"""Contact-list parsing and daily graph construction."""

import random

import numpy as np
import pytest

from vaxnet import (ZeroRecordsError, build_daily_graphs, load_daily_graphs,
                    parse_contacts, write_edge_list, read_edge_list)

from test_graph import check_csr_invariants


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


# -- parsing ------------------------------------------------------------------


def test_parse_single_line(tmp_path):
    path = write(tmp_path, "c.txt", "40\t1100\t1200\n")
    res = parse_contacts(path)
    assert res.records.tolist() == [[40, 1100, 1200]]
    assert res.warnings == []


def test_parse_space_separated(tmp_path):
    path = write(tmp_path, "c.txt", "40 1100 1200\n80 1100 1300\n")
    assert len(parse_contacts(path).records) == 2


def test_parse_skips_malformed_with_line_numbers(tmp_path):
    path = write(tmp_path, "c.txt",
                 "40\t1100\t1200\n"
                 "oops\n"
                 "50\t1100\n"
                 "60\t1100\t1100\n"
                 "70\t1100\tabc\n"
                 "80\t1200\t1300\n")
    res = parse_contacts(path)
    assert len(res.records) == 2
    assert len(res.warnings) == 4
    assert any(w.startswith("line 2:") for w in res.warnings)
    assert any("self contact" in w for w in res.warnings)


def test_parse_comments_and_blanks_ignored(tmp_path):
    path = write(tmp_path, "c.txt", "# header\n\n40\t1\t2\n")
    assert len(parse_contacts(path).records) == 1


def test_parse_two_column_mode(tmp_path):
    path = write(tmp_path, "c.txt", "1100\t1200\n1100\t1300\n")
    res = parse_contacts(path, columns=2)
    assert res.records[0].tolist() == [0, 1100, 1200]


def test_wrong_column_mode_fails_with_line_detail(tmp_path):
    path = write(tmp_path, "c.txt", "40\t1100\t1200\n41\t1100\t1300\n")
    with pytest.raises(ZeroRecordsError, match="line 1"):
        parse_contacts(path, columns=2)


def test_empty_file_rejected(tmp_path):
    path = write(tmp_path, "c.txt", "")
    with pytest.raises(ZeroRecordsError):
        parse_contacts(path)


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        parse_contacts(tmp_path / "nope.txt")


@pytest.mark.parametrize("line, columns", [
    (f"{2**63}\t1100\t1200", 3),
    (f"{-2**63 - 1}\t1100\t1200", 3),
    (f"40\t{2**63}\t1200", 3),
    (f"40\t1100\t{-2**63 - 1}", 3),
    (f"1100\t{2**63}", 2),
], ids=["timestamp_high", "timestamp_low", "id_a_high", "id_b_low", "two_column_id_high"])
def test_field_outside_int64_is_malformed(tmp_path, line, columns):
    good = "40\t1100\t1300" if columns == 3 else "1100\t1300"
    path = write(tmp_path, "c.txt", f"{good}\n{line}\n")
    res = parse_contacts(path, columns=columns)
    assert len(res.records) == 1
    assert res.warnings == ["line 2: field outside the int64 range"]


def test_int64_extremes_are_valid_ids(tmp_path):
    lo, hi = -2**63, 2**63 - 1
    path = write(tmp_path, "c.txt", f"{hi}\t{lo}\t{hi}\n{lo}\t{hi}\t7\n")
    res = parse_contacts(path)
    assert res.warnings == []
    ds = build_daily_graphs(res.records, day_length=None)
    assert ds.graphs[0].labels == (lo, 7, hi)
    assert ds.edge_weights[0] == {(0, 2): 1, (1, 2): 1}


@pytest.mark.parametrize("day_length", [None, 86_400])
def test_huge_timestamp_line_skipped_in_both_modes(tmp_path, day_length):
    # per-file mode ignores timestamps, but the line is still malformed
    path = write(tmp_path, "c.txt", f"40\t1100\t1200\n{2**64}\t1100\t1300\n")
    ds = load_daily_graphs([path], day_length=day_length)
    assert ds.days == [0]
    assert ds.graphs[0].labels == (1100, 1200)
    assert ds.warnings == [f"{path}: line 2: field outside the int64 range"]


def test_columns_argument_validated(tmp_path):
    path = write(tmp_path, "c.txt", "1 2 3\n")
    with pytest.raises(ValueError):
        parse_contacts(path, columns=4)


# -- daily graph construction ----------------------------------------------------


def test_repeated_contacts_collapse_to_weighted_edge():
    recs = [(0, 7, 9), (20, 9, 7), (40, 7, 9)]
    ds = build_daily_graphs(recs)
    assert len(ds.graphs) == 1
    g = ds.graphs[0]
    assert g.n == 2 and g.m == 1
    assert ds.edge_weights[0] == {(0, 1): 3}


def test_day_bucketing_by_timestamp():
    # buckets count from the earliest stamp: day = (t - t_min) // day_length
    day = 86_400
    recs = [(10, 1, 2), (10 + day + 5, 2, 3),
            (10 + 2 * day + 1, 1, 3), (15, 2, 3)]
    ds = build_daily_graphs(recs)
    assert ds.days == [0, 1, 2]
    assert [g.m for g in ds.graphs] == [2, 1, 1]


def test_day_zero_is_earliest_timestamp():
    recs = [(10 * 86_400, 1, 2), (11 * 86_400, 1, 2)]
    ds = build_daily_graphs(recs)
    assert ds.days == [0, 1]


@pytest.mark.parametrize("day_length", [1, 86_400, 2**63, np.int64(1), 2**64, 2**70])
def test_log_spanning_the_int64_range_does_not_wrap(tmp_path, day_length):
    # the offset from the first record is 2**64 - 1, beyond int64; a
    # day_length of 2**64 or more puts both records on day 0
    lo, hi = -2**63, 2**63 - 1
    path = write(tmp_path, "c.txt", f"{hi}\t2\t3\n{lo}\t1\t2\n")
    ds = load_daily_graphs([path], day_length=day_length)
    last = (2**64 - 1) // int(day_length)
    if last:
        assert ds.days == [0, last]
        assert [g.labels for g in ds.graphs] == [(1, 2), (2, 3)]
    else:
        assert ds.days == [0]
        assert [g.labels for g in ds.graphs] == [(1, 2, 3)]
    assert all(type(day) is int for day in ds.days)


@pytest.mark.parametrize("day_length",
                         [86_400, np.int64(86_400), np.uint64(86_400), 86_400.0])
def test_ordinary_log_days_are_offsets_from_the_first_record(day_length):
    # negative and positive stamps, unsorted; the same days as plain
    # integer arithmetic gives, as ints for a numpy integer or an integral
    # float length too
    stamps = [-3 * 86_400 + 7, 5, -3 * 86_400, 86_399 - 3 * 86_400, 4 * 86_400 - 1]
    recs = [(t, k, k + 1) for k, t in enumerate(stamps)]
    ds = build_daily_graphs(recs, day_length=day_length)
    want = sorted({(t - min(stamps)) // 86_400 for t in stamps})
    assert ds.days == want == [0, 3, 6]
    assert all(type(day) is int for day in ds.days)
    assert [g.m for g in ds.graphs] == [3, 1, 1]


def test_integral_float_day_length_buckets_like_the_int():
    recs = [(5, 1, 2), (86_400 + 3, 2, 3), (86_400 + 9, 1, 2), (3 * 86_400, 1, 3)]
    assert (build_daily_graphs(recs, day_length=86_400.0)
            == build_daily_graphs(recs, day_length=86_400))
    # floor division in float64 would put the last two stamps on one day
    recs = [(0, 1, 2), (2**62, 1, 2), (2**62 + 1, 1, 2)]
    assert build_daily_graphs(recs, day_length=1.0).days == [0, 2**62, 2**62 + 1]


@pytest.mark.parametrize("day_length", [True, 1.5, 0, -86_400])
def test_day_length_must_be_a_positive_integer(day_length):
    with pytest.raises(ValueError, match="day_length must be"):
        build_daily_graphs([(0, 1, 2), (9, 2, 3)], day_length=day_length)


def test_labels_map_back_to_external_ids():
    recs = [(0, 1500, 1200), (5, 1200, 1300)]
    ds = build_daily_graphs(recs)
    g = ds.graphs[0]
    assert g.labels == (1200, 1300, 1500)
    assert all(type(lbl) is int for lbl in g.labels)
    # the edge between externals 1500 and 1200 is internal (0, 2)
    assert g.has_edge(0, 2)
    assert ds.edge_weights[0] == {(0, 2): 1, (0, 1): 1}


def test_record_order_irrelevant():
    rng = np.random.default_rng(70)
    recs = [(int(t), int(a), int(b))
            for t, a, b in zip(rng.integers(0, 86_400, 50),
                               rng.integers(0, 30, 50), rng.integers(30, 60, 50))]
    ds1 = build_daily_graphs(recs)
    shuffled = [recs[i] for i in rng.permutation(len(recs))]
    ds2 = build_daily_graphs(shuffled)
    assert ds1.graphs[0] == ds2.graphs[0]
    assert ds1.edge_weights == ds2.edge_weights


def test_single_bucket_mode():
    recs = [(0, 1, 2), (5 * 86_400, 3, 4)]
    ds = build_daily_graphs(recs, day_length=None)
    assert ds.days == [0]
    assert ds.graphs[0].m == 2


def test_no_records_rejected():
    with pytest.raises(ZeroRecordsError):
        build_daily_graphs([])


@pytest.mark.parametrize("records", [[(1, 2), (3, 4), (5, 6)], [0, 1, 2], [[(0, 1, 2)]]],
                         ids=["pairs", "flat", "nested"])
def test_records_must_be_three_column_rows(records):
    # three (id_a, id_b) pairs hold six numbers, which would reshape into
    # two bogus records
    with pytest.raises(ValueError, match="rows, got shape"):
        build_daily_graphs(records)


@pytest.mark.parametrize("day_length", [None, 86_400])
def test_no_files_rejected_in_both_modes(day_length):
    with pytest.raises(ZeroRecordsError):
        load_daily_graphs([], day_length=day_length)


def reference_daily(records, day_length):
    """(day, labels, edge counts) per day, bucketed with plain dicts."""
    t0 = min(ts for ts, _, _ in records)
    by_day = {}
    for ts, a, b in records:
        day = 0 if day_length is None else (ts - t0) // day_length
        by_day.setdefault(day, []).append((a, b))
    out = []
    for day in sorted(by_day):
        sel = by_day[day]
        ids = sorted({a for a, _ in sel} | {b for _, b in sel})
        node = {ext: i for i, ext in enumerate(ids)}
        counts = {}
        for a, b in sel:
            key = tuple(sorted((node[a], node[b])))
            counts[key] = counts.get(key, 0) + 1
        out.append((day, tuple(ids), counts))
    return out


ID_POOLS = {
    "small_ids": list(range(40)),
    "negative_ids": list(range(-30, 10)),
    "large_ids": [2**63 - 1 - i for i in range(20)] + [-2**63 + i for i in range(20)],
}


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("day_length", [None, 3_600, 86_400])
@pytest.mark.parametrize("pool", sorted(ID_POOLS))
@pytest.mark.parametrize("columns", [2, 3])
def test_daily_graphs_match_dict_reference(pool, columns, day_length, seed):
    rng = random.Random(f"{pool}-{columns}-{seed}")
    ids = ID_POOLS[pool]
    recs = []
    while len(recs) < 300:
        a, b = rng.choice(ids), rng.choice(ids)
        if a != b:
            # a 2-column file parses with every timestamp 0
            ts = 10**9 + rng.randrange(3 * 86_400) if columns == 3 else 0
            recs.append((ts, a, b))
    want = reference_daily(recs, day_length)
    rng.shuffle(recs)
    ds = build_daily_graphs(recs, day_length=day_length)
    assert ds.days == [day for day, _, _ in want]
    assert [g.labels for g in ds.graphs] == [labels for _, labels, _ in want]
    assert ds.edge_weights == [counts for _, _, counts in want]
    for g, (_, _, counts) in zip(ds.graphs, want):
        check_csr_invariants(g)
        assert list(zip(*(x.tolist() for x in g.edges()))) == sorted(counts)
    assert all(type(k) is int for w in ds.edge_weights for pair in w for k in pair)
    assert all(type(lbl) is int for g in ds.graphs for lbl in g.labels)


# -- bundled fixtures and the file-per-day loader -------------------------------------


def test_fixture_files_one_day_each(contact_files):
    ds = load_daily_graphs(contact_files)
    assert ds.days == [0, 1, 2]
    assert len(ds.graphs) == 3
    for g in ds.graphs:
        check_csr_invariants(g)
        assert g.n == 150
        assert g.m == 584
        assert all(isinstance(lbl, int) and lbl >= 1000 for lbl in g.labels)


def test_fixture_weights_count_raw_lines(contact_files):
    ds = load_daily_graphs(contact_files)
    raw_lines = sum(1 for _ in open(contact_files[0]))
    assert sum(ds.edge_weights[0].values()) == raw_lines


def test_fixture_pooled_by_timestamp(contact_files):
    ds = load_daily_graphs(contact_files, day_length=86_400)
    assert ds.days == [0, 1, 2]
    assert [g.m for g in ds.graphs] == [584, 584, 584]
    # each fixture file holds one day, so pooling by day rebuilds per-file
    # mode; Graph equality includes the labels
    per_file = load_daily_graphs(contact_files)
    assert ds.graphs == per_file.graphs
    assert ds.edge_weights == per_file.edge_weights


def test_daily_graph_round_trips_through_edge_list(tmp_path, contact_files):
    ds = load_daily_graphs(contact_files)
    g = ds.graphs[0]
    out = tmp_path / "day0.edges"
    write_edge_list(g, out)
    back = read_edge_list(out)
    assert back.n == g.n
    assert np.array_equal(back.indices, g.indices)
