import io
import json
import logging
import re
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import edge_set, edit_npz, entry_set
import serec.data
from reference_impls import (
    friends_of,
    items_of,
    load_interactions_reference,
    load_social_reference,
)

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


def _npy_bytes(array):
    buf = io.BytesIO()
    np.save(buf, array)
    return buf.getvalue()


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
        assert entry_set(y) == {(0, 0), (0, 1), (1, 1)}

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
        assert items_of(toy_matrix, 0).tolist() == [0, 2]
        lo, hi = toy_matrix.csc_indptr[2:4]  # item 2's users, ascending
        assert toy_matrix.csc_indices[lo:hi].tolist() == [0, 1]
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
        edges = pairs % 30
        graph = SocialGraph(30, edges)
        edges = edges[edges[:, 0] != edges[:, 1]]  # self-loops are never stored
        adj = sp.coo_matrix((np.ones(len(edges)), tuple(edges.T)), shape=(30, 30)).tocsr()
        assert np.array_equal(graph.indptr, adj.indptr)
        assert np.array_equal(graph.dst, adj.indices)
        assert np.array_equal(graph.out_degree(), np.diff(adj.indptr))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            InteractionMatrix(2, 2, [(0, 2)])
        with pytest.raises(ValueError):
            InteractionMatrix(2, 2, [(-1, 0)])

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: InteractionMatrix(0, 2, []), "n_users and n_items must be positive"),
            (lambda: InteractionMatrix(2, -1, []), "n_users and n_items must be positive"),
            (lambda: InteractionMatrix(2, 2, [(2, 0)]), "interaction index out of range"),
            (lambda: SocialGraph(0, []), "n_users must be positive"),
            (lambda: SocialGraph(2, [(0, 2)]), "social edge index out of range"),
            (lambda: SocialGraph(2, [(-1, 0)]), "social edge index out of range"),
        ],
        ids=["no-users", "negative-items", "user-out-of-range", "graph-no-users",
             "edge-out-of-range", "edge-negative"],
    )
    def test_non_positive_size_or_out_of_range_index_rejected(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()

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
        assert edge_set(graph) == {(0, 1), (1, 0)}
        assert any("dropped 2" in rec.getMessage() for rec in caplog.records)

    def test_directed_semantics(self, toy_graph):
        assert friends_of(toy_graph, 0).tolist() == [1]
        assert friends_of(toy_graph, 1).tolist() == [0, 2]
        assert friends_of(toy_graph, 2).tolist() == []
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
        assert entry_set(a.train) == entry_set(b.train)
        assert entry_set(a.test) == entry_set(b.test)
        c = split_interactions(y, seed=8)
        assert entry_set(a.train) != entry_set(c.train)

    @settings(max_examples=40, deadline=None)
    @given(
        pair_keys=st.sets(st.integers(min_value=0, max_value=63), min_size=1, max_size=64),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_partition_property(self, pair_keys, seed):
        pairs = [(k // 8, k % 8) for k in pair_keys]
        y = InteractionMatrix(8, 8, pairs)
        split = split_interactions(y, seed=seed)
        parts = [entry_set(split.train), entry_set(split.validation), entry_set(split.test)]
        assert parts[0] | parts[1] | parts[2] == entry_set(y)
        assert not (parts[0] & parts[1] or parts[0] & parts[2] or parts[1] & parts[2])
        n = y.n_entries
        assert split.train.n_entries == int(np.floor(0.7 * n))
        assert split.validation.n_entries == int(np.floor(0.2 * n))

    def test_bad_ratios(self, toy_matrix):
        nan = float("nan")
        for ratios in [(0.0, 0.2), (0.7, 0.0), (0.8, 0.3), (-0.1, 0.5), (nan, 0.2), (0.7, nan)]:
            with pytest.raises(ValueError, match="ratios must be positive"):
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
        assert edge_set(prune_social(toy_graph, 1.0)) == edge_set(toy_graph)
        assert prune_social(toy_graph, 0.0).n_edges == 0

    def test_subset_and_binomial_scale(self):
        edges = [(k // 199, k % 199 + (k % 199 >= k // 199)) for k in range(10_000)]
        g = SocialGraph(200, edges)
        pruned = prune_social(g, 0.6, seed=3)
        assert edge_set(pruned) <= edge_set(g)
        assert 5_700 <= pruned.n_edges <= 6_300

    @pytest.mark.parametrize("keep_prob", [-0.1, 1.5, float("nan")])
    def test_keep_prob_outside_the_unit_interval_rejected(self, toy_graph, keep_prob):
        with pytest.raises(ValueError, match=r"keep_prob must be in \[0, 1\]"):
            prune_social(toy_graph, keep_prob)

    def test_seeded(self, toy_graph):
        a = edge_set(prune_social(toy_graph, 0.5, seed=1))
        b = edge_set(prune_social(toy_graph, 0.5, seed=1))
        assert a == b


class TestRoundTrips:
    def test_interactions_file_round_trip(self, tmp_path, toy_matrix):
        ids = IdMap(users=list("abcd"), items=list("vwxyz"))
        path = tmp_path / "y.tsv"
        write_interactions(path, toy_matrix, ids)
        loaded, loaded_ids = load_interactions(path)
        # reload assigns first-seen indices, so compare raw id pairs
        raw = {(ids.users[u], ids.items[i]) for u, i in entry_set(toy_matrix)}
        raw_back = {(loaded_ids.users[u], loaded_ids.items[i]) for u, i in entry_set(loaded)}
        assert raw == raw_back

    def test_social_file_round_trip(self, tmp_path, toy_graph):
        path = tmp_path / "s.tsv"
        write_social(path, toy_graph)
        lines = [tuple(map(int, ln.split())) for ln in path.read_text().splitlines()]
        assert set(lines) == edge_set(toy_graph)

    def test_save_load_split(self, tmp_path, toy_matrix):
        ids = IdMap(users=list("abcd"), items=list("vwxyz"))
        split = split_interactions(toy_matrix, seed=11)
        save_split(tmp_path / "split", split, ids)
        meta = json.loads((tmp_path / "split" / "split-meta.json").read_text())
        assert meta["seed"] == 11
        assert meta["n_train"] == split.train.n_entries
        loaded, loaded_ids = load_split(tmp_path / "split")
        assert entry_set(loaded.train) == entry_set(split.train)
        assert entry_set(loaded.validation) == entry_set(split.validation)
        assert entry_set(loaded.test) == entry_set(split.test)
        assert loaded.seed == 11 and loaded.ratios == (0.7, 0.2)
        assert loaded_ids.users == ids.users

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda a: a.pop("validation_item"), "no array 'validation_item'"),
            (lambda a: a.update(validation_user=a["validation_user"].astype(object)),
             "array 'validation_user': Object arrays cannot be loaded"),
            (lambda a: a.update(train_item=a["train_item"].astype(float)),
             "array 'train_item' is float64, expected int64"),
            (lambda a: a.update(train_user=a["train_user"][:, None]),
             "array 'train_user' has shape ({n_train}, 1), expected (n,)"),
            # user and item arrays of unequal length
            (lambda a: a.update(test_user=a["test_user"][1:]),
             "array 'test_item' has shape ({n_test},), but array 'test_user' has shape ({short},)"),
            (lambda a: a.update(test_item=a["test_item"][1:]),
             "array 'test_item' has shape ({short},), but array 'test_user' has shape ({n_test},)"),
            (lambda a: a["validation_user"].__setitem__(0, 4),
             "array 'validation_user' holds index 4 at position 0, outside 0..3"),
            (lambda a: a["train_item"].__setitem__(-1, -1),
             "array 'train_item' holds index -1 at position {last}, outside 0..4"),
            # the arrays an older serec did not write
            *[(lambda a, name=name: a.pop(name),
               f"no array {name!r} (files from an older serec lack it); run serec split again")
              for name in ("users", "items", "seed", "ratios")],
            (lambda a: a.update(users=a["users"].astype(np.int8)),
             "array 'users' is int8, expected uint8"),
            (lambda a: a.update(items=a["items"].astype(np.int64)),
             "array 'items' is int64, expected uint8"),
            (lambda a: a.update(seed=a["seed"].astype(np.uint64)),
             "array 'seed' is uint64, expected int64"),
            (lambda a: a.update(ratios=a["ratios"].astype(np.float32)),
             "array 'ratios' is float32, expected float64"),
            (lambda a: a.update(users=a["users"].reshape(1, -1)),
             "array 'users' has shape (1, 7), expected (n,)"),
            (lambda a: a.update(items=np.stack([a["items"]] * 2)),
             "array 'items' has shape (2, 9), expected (n,)"),
            (lambda a: a.update(seed=a["seed"][None]), "array 'seed' has shape (1,), expected ()"),
            (lambda a: a.update(ratios=a["ratios"][:1]),
             "array 'ratios' has shape (1,), expected (2,)"),
            (lambda a: a.update(users=a["users"][2:]),  # "b\nc\nd": 3 users
             "array 'train_user' holds index 3 at position {user3}, outside 0..2"),
            (lambda a: a["items"].__setitem__(0, 0xC3),  # a lead byte, then "\n"
             "array 'items' is not valid UTF-8 "
             "(byte 0xc3 at position 0: invalid continuation byte)"),
        ],
        ids=["missing", "object", "float", "2-d", "short", "unequal", "user-range",
             "item-negative", "no-users", "no-items", "no-seed", "no-ratios", "int8-users",
             "int64-items", "unsigned-seed", "float32-ratios", "2-d-users", "2-d-items",
             "1-d-seed", "one-ratio", "fewer-users", "utf8-items"],
    )
    def test_load_split_npz_fault_names_file_and_array(self, tmp_path, toy_matrix, edit, message):
        ids = IdMap(users=list("abcd"), items=list("vwxyz"))
        split = split_interactions(toy_matrix, seed=11)
        save_split(tmp_path, split, ids)
        edit_npz(tmp_path / "split.npz", edit)
        n_test = split.test.n_entries
        message = message.format(n_train=split.train.n_entries, last=split.train.n_entries - 1,
                                 n_test=n_test, short=n_test - 1,
                                 user3=np.flatnonzero(split.train.user_idx == 3)[0])
        path = tmp_path / "split.npz"
        with pytest.raises(DataFormatError, match=re.escape(f"{path}: {message}")):
            load_split(tmp_path)

    @pytest.mark.parametrize(
        "damage, message",
        [
            (lambda raw: b"", "No data left in file"),
            (lambda raw: raw[: len(raw) // 2], "File is not a zip file"),
            (lambda raw: raw[:100] + bytes([raw[100] ^ 0xFF]) + raw[101:], "Bad CRC-32"),
            (lambda raw: _npy_bytes(np.arange(3)), "not an .npz archive"),
        ],
        ids=["empty", "truncated", "bad-crc", "npy"],
    )
    def test_load_split_damaged_npz_names_the_file(self, tmp_path, toy_matrix, damage, message):
        ids = IdMap(users=list("abcd"), items=list("vwxyz"))
        save_split(tmp_path, split_interactions(toy_matrix, seed=11), ids)
        path = tmp_path / "split.npz"
        path.write_bytes(damage(path.read_bytes()))
        with pytest.raises(DataFormatError, match=re.escape(f"{path}: ") + ".*" + message):
            load_split(tmp_path)

    def test_load_split_reads_no_edge_list(self, tmp_path, toy_matrix):
        ids = IdMap(users=list("abcd"), items=list("vwxyz"))
        split = split_interactions(toy_matrix, seed=11)
        save_split(tmp_path, split, ids)
        for name in ("train.tsv", "validation.tsv", "test.tsv",
                     "users.tsv", "items.tsv", "split-meta.json"):
            (tmp_path / name).unlink()
        loaded, loaded_ids = load_split(tmp_path)
        assert entry_set(loaded.test) == entry_set(split.test)
        assert loaded_ids.users == ids.users and loaded_ids.items == ids.items
        (tmp_path / "split.npz").unlink()
        with pytest.raises(DataFormatError, match=re.escape(
            f"{tmp_path / 'split.npz'} is missing (directories from an older serec lack it); "
            "run serec split again"
        )):
            load_split(tmp_path)

    def test_split_round_trip_keeps_every_id(self, tmp_path):
        ids = IdMap(users=["ü", "u1", "日本\x00"], items=["#i5", "i\x00\x00", " x"])
        y = InteractionMatrix(3, 3, [(u, i) for u in range(3) for i in range(3)])
        split = split_interactions(y, seed=2**63 - 1)
        with mock.patch.object(serec.data, "WRITE_ROWS", 2):  # each TSV copy spans blocks
            save_split(tmp_path, split, ids)
        loaded, back = load_split(tmp_path)
        assert back.users == ids.users and back.items == ids.items
        assert back.user_index == {"ü": 0, "u1": 1, "日本\x00": 2}
        assert loaded.seed == 2**63 - 1
        text = lambda name: (tmp_path / name).read_text(encoding="utf-8")
        assert text("items.tsv") == "0\t#i5\n1\ti\x00\x00\n2\t x\n"
        train = split.train
        assert text("train.tsv") == "".join(
            f"{ids.users[u]}\t{ids.items[i]}\n" for u, i in zip(train.user_idx, train.item_idx)
        )

    @pytest.mark.parametrize(
        "seed, users, items, message",
        [
            (2**63, list("abcd"), list("vwxyz"), f"seed must fit in 64 bits, got {2**63}"),
            (-(2**63) - 1, list("abcd"), list("vwxyz"),
             f"seed must fit in 64 bits, got {-(2**63) - 1}"),
            (0, ["a", "b\nc", "d", "e"], list("vwxyz"), "an id in id_map.users holds a line end"),
            (0, list("abcd"), ["v", "w", "x", "y", "z\n"],
             "an id in id_map.items holds a line end"),
        ],
        ids=["seed-past-64-bits", "seed-below-64-bits", "id-with-a-line-end",
             "item-id-with-a-line-end"],
    )
    def test_save_split_rejects_what_split_npz_cannot_hold(
        self, tmp_path, toy_matrix, seed, users, items, message
    ):
        split = split_interactions(toy_matrix)
        split.seed = seed  # split_interactions' generator takes no negative seed
        with pytest.raises(ValueError, match=re.escape(message)):
            save_split(tmp_path, split, IdMap(users=users, items=items))
        assert not any(tmp_path.iterdir())


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
    fault, whatever blocks of lines the scan cuts the file into."""

    @settings(max_examples=200, deadline=None)
    @given(
        text=edge_files(USER_IDS, ratings=True),
        min_rating=st.sampled_from([None, 2.0]),
        scan_chars=st.integers(1, 64),
    )
    def test_interactions(self, text, min_rating, scan_chars):
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
            with mock.patch.object(serec.data, "SCAN_CHARS", scan_chars):
                assert _outcome(load_interactions, path, min_rating) == expected

    @settings(max_examples=200, deadline=None)
    @given(text=edge_files(USER_IDS + ["ghost"], ratings=False), scan_chars=st.integers(1, 64))
    def test_social(self, text, scan_chars):
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
            with mock.patch.object(serec.data, "SCAN_CHARS", scan_chars):
                assert _outcome(load_social, path, ids) == expected


class TestScanBlocks:
    """The reader parses one block of whole lines at a time: a block ends at
    the first line end that makes it at least ``SCAN_CHARS`` characters
    long."""

    @pytest.mark.parametrize(
        "lines, message",
        [
            ({11: "a"}, "11: expected 'user item [rating]', got 1 fields"),
            ({11: "a\tx\tmany"}, "11: rating 'many' is not a number"),
            # the first faulty line is named, whichever kind and block
            ({5: "a", 11: "a\tx\tmany"}, "5: expected 'user item [rating]', got 1 fields"),
            ({5: "a\tx\tmany", 11: "a"}, "5: rating 'many' is not a number"),
            ({5: "a", 6: "a\tx\tmany"}, "5: expected 'user item [rating]', got 1 fields"),
            ({5: "a\tx\tmany", 6: "a"}, "5: rating 'many' is not a number"),
        ],
    )
    def test_fault_in_a_later_block_names_its_file_line(self, tmp_path, monkeypatch, lines,
                                                        message):
        # 4-character lines, two to a block: line 11 is in block 6
        text = "".join(lines.get(k, "a\tx") + "\n" for k in range(1, 15))
        monkeypatch.setattr(serec.data, "SCAN_CHARS", 8)
        p = write(tmp_path / "y.tsv", text)
        with pytest.raises(DataFormatError, match=re.escape(f"{p}:{message}")):
            load_interactions(p)

    def test_social_fault_in_a_later_block_names_its_file_line(self, tmp_path, monkeypatch):
        monkeypatch.setattr(serec.data, "SCAN_CHARS", 8)
        p = write(tmp_path / "s.tsv", "a\tb\n" * 10 + "# c\n" + "a b c\n")
        with pytest.raises(DataFormatError, match=re.escape(f"{p}:12: expected 'truster")):
            load_social(p, IdMap(users=["a", "b"], items=["x"]))

    def test_id_dropped_in_one_block_and_kept_in_the_next(self, tmp_path, monkeypatch):
        # b and y first appear on a line min_rating drops, in block 1; their
        # first kept line is in block 2, after c and z's
        monkeypatch.setattr(serec.data, "SCAN_CHARS", 12)
        p = write(tmp_path / "y.tsv", "a\tx\t5\nb\ty\t1\nc\tz\t5\nb\ty\t4\n")
        y, ids = load_interactions(p, min_rating=3.0)
        assert (ids.users, ids.items) == (["a", "c", "b"], ["x", "z", "y"])
        assert ids.user_index == {"a": 0, "c": 1, "b": 2}
        assert entry_set(y) == {(0, 0), (1, 1), (2, 2)}
        users, items, _ = load_interactions_reference(p, 3.0)
        assert (users, items) == (ids.users, ids.items)

    def test_line_longer_than_a_block_parses_whole(self, tmp_path, monkeypatch):
        monkeypatch.setattr(serec.data, "SCAN_CHARS", 4)
        user, item = "u" * 40, "i" * 30
        p = write(tmp_path / "y.tsv", f"a\tx\n{user} \t {item}\t3\nb\t{item}\n")
        y, ids = load_interactions(p)
        assert (ids.users, ids.items) == (["a", user, "b"], ["x", item])
        assert entry_set(y) == {(0, 0), (1, 1), (2, 1)}

    def test_ingest_heap_stays_within_a_few_file_sizes(self, tmp_path, monkeypatch):
        # the text, one block's fields and the records' index arrays; a
        # whole-file parse held one str per field, 26 times the file's bytes
        monkeypatch.setattr(serec.data, "SCAN_CHARS", 1 << 12)
        p = tmp_path / "y.tsv"
        p.write_text("".join(f"u{k % 997}\ti{k * 7 % 1009}\t{k % 5}\n" for k in range(100_000)))
        tracemalloc.start()
        try:
            y, _ = load_interactions(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert y.n_entries > 0
        assert peak < 6 * p.stat().st_size


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


def test_load_split_index_out_of_range_deep_in_array(tmp_path):
    ids = IdMap(users=[f"u{k}" for k in range(997)], items=[f"i{k}" for k in range(89)])
    pairs = np.column_stack([np.arange(DEEP + 9) % 997, np.arange(DEEP + 9) % 89])
    y = InteractionMatrix(997, 89, pairs)
    save_split(tmp_path, split_interactions(y, seed=0), ids)
    n = json.loads((tmp_path / "split-meta.json").read_text())["n_train"]

    def edit(arrays):
        arrays["train_item"][n - 3] = 89  # the first of two faults is named
        arrays["train_item"][n - 1] = -1

    edit_npz(tmp_path / "split.npz", edit)
    message = f"array 'train_item' holds index 89 at position {n - 3}, outside 0..88"
    with pytest.raises(DataFormatError, match=re.escape(f"{tmp_path / 'split.npz'}: {message}")):
        load_split(tmp_path)
