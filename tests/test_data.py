import json
import logging
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_impls import load_interactions_reference, load_social_reference

from serec import (
    DataFormatError,
    IdMap,
    InteractionMatrix,
    SocialGraph,
    dataset_stats,
    load_interactions,
    load_social,
    load_split,
    SocialLoadStats,
    prune_social,
    save_split,
    split_interactions,
    write_interactions,
    write_social,
)


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadInteractions:
    def test_basic_tsv(self, tmp_path):
        p = write(tmp_path / "y.tsv", "alice\tsong1\nbob\tsong2\nalice\tsong2\n")
        y, ids = load_interactions(p)
        assert (y.n_users, y.n_items, y.n_entries) == (2, 2, 3)
        assert ids.users == ["alice", "bob"]
        assert ids.items == ["song1", "song2"]
        assert (0, 0) in y and (1, 0) not in y

    def test_space_separated_and_comments(self, tmp_path):
        p = write(tmp_path / "y.txt", "# header\nu1 i1\n\nu2 i1\n")
        y, _ = load_interactions(p)
        assert y.n_entries == 2

    def test_duplicates_collapse(self, tmp_path):
        p = write(tmp_path / "y.tsv", "a\tx\na\tx\na\ty\n")
        y, _ = load_interactions(p)
        assert y.n_entries == 2

    def test_min_rating_filters_rows_and_ids(self, tmp_path):
        p = write(tmp_path / "y.tsv", "a\tx\t5\nb\ty\t2\na\tz\t4\n")
        y, ids = load_interactions(p, min_rating=4.0)
        assert y.n_entries == 2
        # user b never passes the threshold, so it claims no index
        assert ids.users == ["a"]
        assert ids.items == ["x", "z"]

    def test_malformed_line_names_line_number(self, tmp_path):
        p = write(tmp_path / "y.tsv", "a\tx\n\nonefield\n")
        with pytest.raises(DataFormatError, match=":3"):
            load_interactions(p)

    def test_bad_rating_value(self, tmp_path):
        p = write(tmp_path / "y.tsv", "a\tx\tmany\n")
        with pytest.raises(DataFormatError, match="rating"):
            load_interactions(p)

    def test_empty_file_rejected(self, tmp_path):
        p = write(tmp_path / "y.tsv", "# nothing here\n")
        with pytest.raises(DataFormatError, match="no interaction records"):
            load_interactions(p)

    def test_invalid_utf8_names_file_and_line(self, tmp_path):
        # lone CR and CRLF end lines too, as in text mode
        p = tmp_path / "y.tsv"
        p.write_bytes(b"a\tx\r\nb\ty\rc\xff\tz\n")
        with pytest.raises(DataFormatError, match=re.escape(f"{p}:3: not valid UTF-8")):
            load_interactions(p)


class TestInteractionMatrix:
    def test_adjacency_views(self, toy_matrix):
        assert toy_matrix.items_of(0).tolist() == [0, 2]
        assert toy_matrix.users_of(2).tolist() == [0, 1]
        assert toy_matrix.item_counts().tolist() == [2, 1, 2, 1, 1]
        assert toy_matrix.user_counts().tolist() == [2, 2, 1, 2]

    @pytest.mark.parametrize("n_items", [9, 70_000])  # radix-sorted and not
    def test_index_arrays_match_scipy(self, rng, n_items):
        import scipy.sparse as sp

        pairs = np.column_stack([rng.integers(0, 30, 500), rng.integers(0, n_items, 500)])
        y = InteractionMatrix(30, n_items, pairs)
        want = sp.coo_matrix((np.ones(len(pairs)), tuple(pairs.T)), shape=(30, n_items)).tocsr()
        want.data[:] = 1.0  # duplicates summed
        csc = want.tocsc()
        assert np.array_equal(y.csr_indptr, want.indptr)
        assert np.array_equal(y.item_idx, want.indices)
        assert np.array_equal(y.csc_indptr, csc.indptr)
        assert np.array_equal(y.csc_indices, csc.indices)
        assert (y.to_csr() != want).nnz == 0
        assert y.to_csr() is y.to_csr()
        probes = zip(rng.integers(0, 30, 200).tolist(), rng.integers(0, n_items, 200).tolist())
        assert all(((u, i) in y) == bool(want[u, i]) for u, i in [*probes, *pairs[:50].tolist()])
        graph = SocialGraph(30, pairs % 30)
        assert np.array_equal(graph.indptr, graph.adjacency().indptr)
        assert np.array_equal(graph.dst, graph.adjacency().indices)
        assert np.array_equal(graph.out_degree(), np.diff(graph.adjacency().indptr))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            InteractionMatrix(2, 2, [(0, 2)])
        with pytest.raises(ValueError):
            InteractionMatrix(2, 2, [(-1, 0)])

    def test_empty_matrix_allowed(self):
        y = InteractionMatrix(3, 4, [])
        assert y.n_entries == 0
        assert y.item_counts().tolist() == [0, 0, 0, 0]

    def test_dedup_keeps_np_unique_order(self, rng):
        pairs = rng.integers(0, 7, size=(400, 2))
        keys = np.unique(pairs[:, 0] * 7 + pairs[:, 1])
        y = InteractionMatrix(7, 7, pairs)
        assert np.array_equal(y.user_idx, keys // 7)
        assert np.array_equal(y.item_idx, keys % 7)
        off = pairs[pairs[:, 0] != pairs[:, 1]]
        keys = np.unique(off[:, 0] * 7 + off[:, 1])
        graph = SocialGraph(7, pairs)
        assert np.array_equal(graph.src, keys // 7)
        assert np.array_equal(graph.dst, keys % 7)


class TestLoadSocial:
    def test_drop_counts(self, tmp_path, caplog):
        y_path = write(tmp_path / "y.tsv", "a\tx\nb\tx\nc\ty\n")
        _, ids = load_interactions(y_path)
        s_path = write(
            tmp_path / "s.tsv",
            "a\tb\nb\ta\na\ta\na\tb\nghost\tb\na\tghost\n",
        )
        with caplog.at_level(logging.WARNING):
            graph, stats = load_social(s_path, ids)
        assert stats.n_kept == 2
        assert stats.n_self_loops == 1
        assert stats.n_duplicates == 1
        assert stats.n_unknown_users == 2
        assert graph.edge_set() == {(0, 1), (1, 0)}
        assert any("dropped 2" in rec.getMessage() for rec in caplog.records)

    def test_directed_semantics(self, toy_graph):
        assert toy_graph.friends_of(0).tolist() == [1]
        assert toy_graph.friends_of(1).tolist() == [0, 2]
        assert toy_graph.friends_of(2).tolist() == []
        assert toy_graph.out_degree().tolist() == [1, 2, 0, 1]

    def test_malformed_social_line(self, tmp_path):
        y_path = write(tmp_path / "y.tsv", "a\tx\n")
        _, ids = load_interactions(y_path)
        s_path = write(tmp_path / "s.tsv", "a b c\n")
        with pytest.raises(DataFormatError, match=":1"):
            load_social(s_path, ids)

    def test_zero_edge_graph_is_fine(self, tmp_path):
        y_path = write(tmp_path / "y.tsv", "a\tx\nb\tx\n")
        _, ids = load_interactions(y_path)
        s_path = write(tmp_path / "s.tsv", "a\ta\n")
        graph, stats = load_social(s_path, ids)
        assert graph.n_edges == 0
        assert stats.n_self_loops == 1


class TestSplit:
    def test_sizes_ten_entries(self):
        y = InteractionMatrix(5, 4, [(u, i) for u in range(5) for i in range(2)])
        split = split_interactions(y, ratios=(0.7, 0.2), seed=0)
        assert split.train.n_entries == 7
        assert split.validation.n_entries == 2
        assert split.test.n_entries == 1

    def test_sizes_match_flooring_at_large_count(self):
        n = 92_834
        pairs = np.column_stack([np.arange(n) // 200, np.arange(n) % 200])
        y = InteractionMatrix(465, 200, pairs)
        split = split_interactions(y)
        assert split.train.n_entries == 64_983
        assert split.validation.n_entries == 18_566
        assert split.test.n_entries == 9_285

    def test_deterministic_for_seed(self, rng):
        from conftest import random_interactions

        y = random_interactions(rng, 12, 9)
        a = split_interactions(y, seed=7)
        b = split_interactions(y, seed=7)
        assert a.train.entry_set() == b.train.entry_set()
        assert a.test.entry_set() == b.test.entry_set()
        c = split_interactions(y, seed=8)
        assert a.train.entry_set() != c.train.entry_set()

    @settings(max_examples=40, deadline=None)
    @given(
        pair_keys=st.sets(st.integers(min_value=0, max_value=63), min_size=1, max_size=64),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_partition_property(self, pair_keys, seed):
        pairs = [(k // 8, k % 8) for k in pair_keys]
        y = InteractionMatrix(8, 8, pairs)
        split = split_interactions(y, seed=seed)
        parts = [split.train.entry_set(), split.validation.entry_set(), split.test.entry_set()]
        assert parts[0] | parts[1] | parts[2] == y.entry_set()
        assert not (parts[0] & parts[1] or parts[0] & parts[2] or parts[1] & parts[2])
        n = y.n_entries
        assert split.train.n_entries == int(np.floor(0.7 * n))
        assert split.validation.n_entries == int(np.floor(0.2 * n))

    def test_bad_ratios(self, toy_matrix):
        for ratios in [(0.0, 0.2), (0.7, 0.0), (0.8, 0.3), (-0.1, 0.5)]:
            with pytest.raises(ValueError):
                split_interactions(toy_matrix, ratios=ratios)


class TestStats:
    def test_report_fields(self, toy_matrix, toy_graph):
        report = dataset_stats(toy_matrix, toy_graph)
        assert report.n_users == 4 and report.n_items == 5
        assert report.n_ratings == 7 and report.n_social_links == 4
        assert report.rating_density == pytest.approx(7 / 20)
        assert report.social_density == pytest.approx(4 / 16)
        assert report.avg_social_links == pytest.approx(1.0)
        assert report.s_impact == pytest.approx(1.0 * 7 / 20)
        parsed = json.loads(report.to_json())
        assert set(parsed) == {
            "n_users",
            "n_items",
            "n_ratings",
            "n_social_links",
            "rating_density",
            "social_density",
            "avg_social_links",
            "s_impact",
        }

    def test_user_count_mismatch(self, toy_matrix):
        with pytest.raises(ValueError):
            dataset_stats(toy_matrix, SocialGraph(5, [(0, 1)]))


class TestPrune:
    def test_keep_all_and_none(self, toy_graph):
        assert prune_social(toy_graph, 1.0).edge_set() == toy_graph.edge_set()
        assert prune_social(toy_graph, 0.0).n_edges == 0

    def test_subset_and_binomial_scale(self):
        edges = [(k // 199, k % 199 + (k % 199 >= k // 199)) for k in range(10_000)]
        g = SocialGraph(200, edges)
        pruned = prune_social(g, 0.6, seed=3)
        assert pruned.edge_set() <= g.edge_set()
        assert 5_700 <= pruned.n_edges <= 6_300

    def test_seeded(self, toy_graph):
        a = prune_social(toy_graph, 0.5, seed=1).edge_set()
        b = prune_social(toy_graph, 0.5, seed=1).edge_set()
        assert a == b


class TestRoundTrips:
    def test_interactions_file_round_trip(self, tmp_path, toy_matrix):
        ids = IdMap(users=list("abcd"), items=list("vwxyz"))
        path = tmp_path / "y.tsv"
        write_interactions(path, toy_matrix, ids)
        loaded, loaded_ids = load_interactions(path)
        # reload assigns first-seen indices, so compare raw id pairs
        raw = {(ids.users[u], ids.items[i]) for u, i in toy_matrix.entry_set()}
        raw_back = {(loaded_ids.users[u], loaded_ids.items[i]) for u, i in loaded.entry_set()}
        assert raw == raw_back

    def test_social_file_round_trip(self, tmp_path, toy_graph):
        path = tmp_path / "s.tsv"
        write_social(path, toy_graph)
        lines = [tuple(map(int, ln.split())) for ln in path.read_text().splitlines()]
        assert set(lines) == toy_graph.edge_set()

    def test_save_load_split(self, tmp_path, toy_matrix):
        ids = IdMap(users=list("abcd"), items=list("vwxyz"))
        split = split_interactions(toy_matrix, seed=11)
        save_split(tmp_path / "split", split, ids)
        meta = json.loads((tmp_path / "split" / "split-meta.json").read_text())
        assert meta["seed"] == 11
        assert meta["n_train"] == split.train.n_entries
        loaded, loaded_ids = load_split(tmp_path / "split")
        assert loaded.train.entry_set() == split.train.entry_set()
        assert loaded.validation.entry_set() == split.validation.entry_set()
        assert loaded.test.entry_set() == split.test.entry_set()
        assert loaded.seed == 11 and loaded.ratios == (0.7, 0.2)
        assert loaded_ids.users == ids.users

    @pytest.mark.parametrize(
        "line, message",
        [
            ("zz\tv\n", "unknown user id 'zz'"),
            ("a\tqq\n", "unknown item id 'qq'"),
            # the first faulty line wins; within a line, user before item
            ("zz\tqq\n", "unknown user id 'zz'"),
            ("a\tqq\nb\n", "unknown item id 'qq'"),
            ("a\nzz\tv\n", "expected 'user item'"),
            ("zz\tv\na\n", "unknown user id 'zz'"),
        ],
    )
    def test_load_split_unknown_id_names_file_and_line(self, tmp_path, toy_matrix, line, message):
        ids = IdMap(users=list("abcd"), items=list("vwxyz"))
        save_split(tmp_path / "split", split_interactions(toy_matrix, seed=11), ids)
        path = tmp_path / "split" / "validation.tsv"
        n_lines = len(path.read_text().splitlines())
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(line)
        with pytest.raises(DataFormatError, match=f"validation.tsv:{n_lines + 1}: {message}"):
            load_split(tmp_path / "split")

    @pytest.mark.parametrize(
        "name, lines, message",
        [
            ("users.tsv", "0\ta\n1 b\n", "users.tsv:2: expected 'index<TAB>id'"),
            ("items.tsv", "0\tv\nx\tw\n", "items.tsv:2: index 'x' is not an integer"),
        ],
    )
    def test_idmap_malformed_line_names_file_and_line(self, tmp_path, name, lines, message):
        IdMap(users=["a", "b"], items=["v", "w"]).save(tmp_path)
        write(tmp_path / name, lines)
        with pytest.raises(DataFormatError, match=re.escape(f"{tmp_path / message}")):
            IdMap.load(tmp_path)

    @pytest.mark.parametrize(
        "items, message",
        [
            ("0\tv\n2\tw\n1\tx\n2\ty\n", "items.tsv:4: index 2 repeats line 2"),
            ("0\tv\n1\tw\n3\tx\n", "items.tsv:3: index 3 is outside 0..2"),
            ("0\tv\n1\tw\n2\tx\n3\ty\n4\tz\n5\tu\n",
             "items.tsv: 6 ids, but split-meta.json has n_items = 5"),
        ],
    )
    def test_load_split_rejects_a_scrambled_item_map(self, tmp_path, toy_matrix, items, message):
        ids = IdMap(users=list("abcd"), items=list("vwxyz"))
        save_split(tmp_path, split_interactions(toy_matrix, seed=11), ids)
        write(tmp_path / "items.tsv", items)
        with pytest.raises(DataFormatError, match=re.escape(f"{tmp_path / message}")):
            load_split(tmp_path)

    @pytest.mark.parametrize("end", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
    def test_idmap_round_trip(self, tmp_path, end):
        ids = IdMap(users=["u9", "u1"], items=["i5"])
        ids.save(tmp_path)
        for name in ("users.tsv", "items.tsv"):  # line ends as text mode reads them
            path = tmp_path / name
            path.write_bytes(path.read_bytes().replace(b"\n", end))
        back = IdMap.load(tmp_path)
        assert back.users == ids.users and back.items == ids.items
        assert back.user_index == {"u9": 0, "u1": 1}


# Edge-list files for the reader differential: every layout the format allows,
# plus up to two faults, and CRLF or lone-CR line ends, a separator that
# is whitespace outside tab and space, or a non-ASCII id.
SEP = st.sampled_from(["\t", " ", "   ", " \t "])
PAD = st.sampled_from(["", " ", "\t", " \t  "])
RATING = st.sampled_from(["5", "1", "2", "3.5", "nan", "inf", "-inf", "1e3", "1_0"])
USER_IDS = ["a", "b", "c", "u1", "#x", "x#y"]


@st.composite
def edge_files(draw, ids, ratings):
    lines = []
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        kind = draw(st.sampled_from(["record"] * 4 + ["blank", "space", "comment"]))
        if kind == "record":
            fields = [draw(st.sampled_from(ids)), draw(st.sampled_from(ids))]
            if ratings and draw(st.booleans()):
                fields.append(draw(RATING))
            line = draw(SEP).join(fields)
        elif kind == "blank":
            line = ""
        elif kind == "space":
            line = draw(PAD)
        else:
            line = "#" + draw(SEP).join(draw(st.lists(st.sampled_from(ids), max_size=3)))
        lines.append(draw(PAD) + line + draw(PAD))
    for fault in draw(st.lists(st.sampled_from(["count"] + ["rating"] * ratings), max_size=2)):
        bad = {"count": ["a", "a b 1 2"] + ([] if ratings else ["b c d"]),
               "rating": ["a x many", "b y 1.2.3"]}[fault]
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(bad)))
    odd = draw(st.sampled_from(
        [None] * 4 + ["\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u00a0", "\u3000", "ü"]
    ))
    text = "\n".join(lines) + draw(st.sampled_from(["", "\n"]))
    if odd in ("\r\n", "\r"):
        text = f"a\tb{odd}" + text.replace("\n", odd)
    elif odd:
        text = ("ü\ta\n" if odd == "ü" else f"a{odd}b\n") + text
    return text


def _outcome(load, *args):
    """What a loader returns, in comparable form, or the message it raises."""
    try:
        result, extra = load(*args)
    except DataFormatError as exc:
        return str(exc)
    if isinstance(result, InteractionMatrix):
        return (result.n_users, result.n_items, result.user_idx.tolist(),
                result.item_idx.tolist(), extra.users, extra.items,
                list(extra.user_index.items()), list(extra.item_index.items()))
    return result.n_users, result.src.tolist(), result.dst.tolist(), extra


class TestReaderPaths:
    """The vectorized scan and a line-at-a-time oracle agree on every file:
    matrix, id maps in order, drop counts, and the message of the first
    fault."""

    @settings(max_examples=200, deadline=None)
    @given(text=edge_files(USER_IDS, ratings=True), min_rating=st.sampled_from([None, 2.0]))
    def test_interactions(self, text, min_rating):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "y.tsv"
            path.write_text(text, encoding="utf-8", newline="")
            try:
                users, items, pairs = load_interactions_reference(path, min_rating)
                y = InteractionMatrix(len(users), len(items), pairs)
                expected = (len(users), len(items), y.user_idx.tolist(), y.item_idx.tolist(),
                            users, items, [(u, k) for k, u in enumerate(users)],
                            [(i, k) for k, i in enumerate(items)])
            except ValueError as exc:
                expected = str(exc)
            assert _outcome(load_interactions, path, min_rating) == expected

    @settings(max_examples=200, deadline=None)
    @given(text=edge_files(USER_IDS + ["ghost"], ratings=False))
    def test_social(self, text):
        ids = IdMap(users=USER_IDS + ["ü"], items=["x"])
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "s.tsv"
            path.write_text(text, encoding="utf-8", newline="")
            try:
                edges, counts = load_social_reference(path, ids.users)
                graph = SocialGraph(len(ids.users), edges)
                expected = (graph.n_users, graph.src.tolist(), graph.dst.tolist(),
                            SocialLoadStats(n_kept=len(edges), **counts))
            except ValueError as exc:
                expected = str(exc)
            assert _outcome(load_social, path, ids) == expected


DEEP = 50_000  # records before the fault, far past any chunk a reader might take


def _deep_file(path, row, fault):
    path.write_text("".join(row(k) for k in range(DEEP)) + fault, encoding="utf-8")
    return path


@pytest.mark.parametrize(
    "fault, message",
    [
        ("a\n", "expected 'user item [rating]', got 1 fields"),
        ("a\tx\tmany\n", "rating 'many' is not a number"),
    ],
)
def test_load_interactions_fault_deep_in_file(tmp_path, fault, message):
    path = _deep_file(tmp_path / "y.tsv", lambda k: f"u{k % 997}\ti{k % 89}\t{k % 5}\n", fault)
    with pytest.raises(DataFormatError, match=re.escape(f"{path}:{DEEP + 1}: {message}")):
        load_interactions(path)


def test_load_social_fault_deep_in_file(tmp_path):
    ids = IdMap(users=[f"u{k}" for k in range(997)], items=["i0"])
    path = _deep_file(tmp_path / "s.tsv", lambda k: f"u{k % 997}\tu{k % 991}\n", "u1 u2 u3\n")
    message = f"{path}:{DEEP + 1}: expected 'truster trustee', got 3 fields"
    with pytest.raises(DataFormatError, match=re.escape(message)):
        load_social(path, ids)


@pytest.mark.parametrize(
    "fault, message", [("zz\ti1\n", "unknown user id 'zz'"), ("u1\tqq\n", "unknown item id 'qq'")]
)
def test_load_split_unknown_id_deep_in_file(tmp_path, fault, message):
    ids = IdMap(users=[f"u{k}" for k in range(997)], items=[f"i{k}" for k in range(89)])
    ids.save(tmp_path)
    meta = {"seed": 0, "ratios": [0.7, 0.2], "n_users": 997, "n_items": 89}
    (tmp_path / "split-meta.json").write_text(json.dumps(meta), encoding="utf-8")
    path = _deep_file(tmp_path / "train.tsv", lambda k: f"u{k % 997}\ti{k % 89}\n", fault)
    write(tmp_path / "validation.tsv", "u0\ti0\n")
    write(tmp_path / "test.tsv", "")
    with pytest.raises(DataFormatError, match=re.escape(f"{path}:{DEEP + 1}: {message}")):
        load_split(tmp_path)
