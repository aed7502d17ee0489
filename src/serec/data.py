"""Interaction and trust-graph ingestion, splitting, and dataset statistics.

Input files are plain edge lists: one record per line, fields separated by
tabs or spaces, lines starting with ``#`` ignored.  Interactions are
``user item [rating]``; social links are ``truster trustee``.  Ids are
arbitrary strings mapped to dense indices in first-seen order.
"""

from __future__ import annotations

import itertools
import json
import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

logger = logging.getLogger(__name__)

SPLIT_META_NAME = "split-meta.json"


class DataFormatError(ValueError):
    """Raised for malformed or empty input files."""


@dataclass
class IdMap:
    """First-seen dense index assignment for user and item ids."""

    users: list[str]
    items: list[str]
    user_index: dict[str, int] = field(repr=False, default_factory=dict)
    item_index: dict[str, int] = field(repr=False, default_factory=dict)

    def __post_init__(self):
        if not self.user_index:
            self.user_index = {u: idx for idx, u in enumerate(self.users)}
        if not self.item_index:
            self.item_index = {i: idx for idx, i in enumerate(self.items)}

    def save(self, out_dir: str | Path) -> None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, ids in (("users.tsv", self.users), ("items.tsv", self.items)):
            with open(out_dir / name, "w", encoding="utf-8") as fh:
                for idx, raw in enumerate(ids):
                    fh.write(f"{idx}\t{raw}\n")

    @classmethod
    def load(cls, in_dir: str | Path) -> "IdMap":
        """Read ``users.tsv`` and ``items.tsv``, whose ``index<TAB>id`` lines
        must hold each index 0..n-1 exactly once, in any order."""
        in_dir = Path(in_dir)
        ids = []
        for name in ("users.tsv", "items.tsv"):
            path = in_dir / name
            rows: dict[int, tuple[int, str]] = {}  # index -> (line number, id)
            lines = _read_text(path).split("\n")
            if not lines[-1]:
                lines.pop()  # the empty remainder after the last line end
            for lineno, line in enumerate(lines, start=1):
                idx, tab, raw = line.partition("\t")
                if not tab:
                    raise DataFormatError(f"{path}:{lineno}: expected 'index<TAB>id'")
                try:
                    idx = int(idx)
                except ValueError:
                    raise DataFormatError(
                        f"{path}:{lineno}: index {idx!r} is not an integer"
                    ) from None
                if idx in rows:
                    raise DataFormatError(
                        f"{path}:{lineno}: index {idx} repeats line {rows[idx][0]}"
                    )
                rows[idx] = (lineno, raw)
            for idx, (lineno, _) in rows.items():
                if not 0 <= idx < len(rows):
                    raise DataFormatError(
                        f"{path}:{lineno}: index {idx} is outside 0..{len(rows) - 1}"
                    )
            ids.append([rows[idx][1] for idx in range(len(rows))])
        return cls(users=ids[0], items=ids[1])


def _sorted_unique(keys: np.ndarray) -> np.ndarray:
    """The distinct integer keys in ascending order, as ``np.unique`` gives
    them: a sort, then a mask that keeps each key unlike its predecessor."""
    keys = np.sort(keys)
    keep = np.ones(keys.size, dtype=bool)
    keep[1:] = keys[1:] != keys[:-1]
    return keys[keep]


def _offsets(rows: np.ndarray, n_rows: int) -> np.ndarray:
    """Offsets of the entries once sorted by ``rows``: row r's entries are
    ``[out[r], out[r + 1])``."""
    out = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n_rows), out=out[1:])
    return out


def csr_matrix(values: np.ndarray, indices: np.ndarray, indptr: np.ndarray, shape):
    """``scipy.sparse.csr_matrix((values, indices, indptr), shape=shape)``.

    scipy is imported here, on the first call: only the factor solves and
    serec-boost's prior multiply sparse matrices, so the other commands
    never load it.
    """
    import scipy.sparse as sp

    return sp.csr_matrix((values, indices, indptr), shape=shape)


class InteractionMatrix:
    """Sparse binary user-by-item click matrix.

    Stores the observed pairs once (deduplicated) in (user, item) order,
    which is CSR order: user u's items are ``item_idx[csr_indptr[u]:
    csr_indptr[u + 1]]``.  The item-major (CSC) layout is kept beside it:
    item i's users are ``csc_indices[csc_indptr[i]:csc_indptr[i + 1]]``.
    Immutable after construction; safe to share across threads read-only.
    """

    def __init__(self, n_users: int, n_items: int, pairs) -> None:
        if n_users <= 0 or n_items <= 0:
            raise ValueError("n_users and n_items must be positive")
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        if pairs.size:
            if pairs.min() < 0:
                raise ValueError("negative index in interaction pairs")
            if pairs[:, 0].max() >= n_users or pairs[:, 1].max() >= n_items:
                raise ValueError("interaction index out of range")
        keys = _sorted_unique(pairs[:, 0] * n_items + pairs[:, 1])
        self.n_users = int(n_users)
        self.n_items = int(n_items)
        self.user_idx = (keys // n_items).astype(np.int64)
        self.item_idx = (keys % n_items).astype(np.int64)
        self.csr_indptr = _offsets(self.user_idx, n_users)
        # a stable sort keeps each item's users ascending; on the smallest
        # unsigned type that holds the item indices, numpy sorts up to 2**16
        # items by radix in linear time
        by_item = np.argsort(
            self.item_idx.astype(np.min_scalar_type(n_items - 1)), kind="stable"
        )
        self.csc_indptr = _offsets(self.item_idx, n_items)
        self.csc_indices = self.user_idx[by_item]
        self._csr = None

    @property
    def n_entries(self) -> int:
        return len(self.user_idx)

    def __len__(self) -> int:
        return self.n_entries

    def items_of(self, u: int) -> np.ndarray:
        """Item indices clicked by user ``u`` (ascending)."""
        return self.item_idx[self.csr_indptr[u] : self.csr_indptr[u + 1]]

    def users_of(self, i: int) -> np.ndarray:
        """User indices that clicked item ``i`` (ascending)."""
        return self.csc_indices[self.csc_indptr[i] : self.csc_indptr[i + 1]]

    def item_counts(self) -> np.ndarray:
        """Per-item click counts n_i, shape (n_items,)."""
        return np.diff(self.csc_indptr)

    def user_counts(self) -> np.ndarray:
        return np.diff(self.csr_indptr)

    def to_csr(self):
        """The clicks as a ``scipy.sparse.csr_matrix`` of ones, built on the
        first call and cached.  Not for pool threads: build it first."""
        if self._csr is None:
            shape = (self.n_users, self.n_items)
            self._csr = csr_matrix(np.ones(self.n_entries), self.item_idx, self.csr_indptr, shape)
        return self._csr

    def entry_set(self) -> set[tuple[int, int]]:
        return set(zip(self.user_idx.tolist(), self.item_idx.tolist()))

    def __contains__(self, pair: tuple[int, int]) -> bool:
        u, i = pair
        items = self.items_of(u)
        k = np.searchsorted(items, i)
        return bool(k < len(items) and items[k] == i)


class SocialGraph:
    """Directed user-to-user trust adjacency.

    Edge (u, k) means u trusts/follows k; ``friends_of(u)`` are the
    out-neighbors of u, ``dst[indptr[u]:indptr[u + 1]]`` (CSR order).
    Self-loops and duplicates are never stored.
    """

    def __init__(self, n_users: int, edges) -> None:
        if n_users <= 0:
            raise ValueError("n_users must be positive")
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if edges.size:
            if edges.min() < 0 or edges.max() >= n_users:
                raise ValueError("social edge index out of range")
        edges = edges[edges[:, 0] != edges[:, 1]]
        keys = _sorted_unique(edges[:, 0] * n_users + edges[:, 1])
        self.n_users = int(n_users)
        self.src = (keys // n_users).astype(np.int64)
        self.dst = (keys % n_users).astype(np.int64)
        self.indptr = _offsets(self.src, n_users)
        self._adj = None

    @property
    def n_edges(self) -> int:
        return len(self.src)

    def friends_of(self, u: int) -> np.ndarray:
        """Out-neighbors of ``u`` (the users u trusts), ascending."""
        return self.dst[self.indptr[u] : self.indptr[u + 1]]

    def out_degree(self) -> np.ndarray:
        return np.diff(self.indptr)

    def adjacency(self):
        """Row u holds indicator of Friends(u), a ``scipy.sparse.csr_matrix``
        built on the first call and cached.  Not for pool threads: build it
        first."""
        if self._adj is None:
            self._adj = csr_matrix(
                np.ones(self.n_edges), self.dst, self.indptr, (self.n_users, self.n_users)
            )
        return self._adj

    def edge_set(self) -> set[tuple[int, int]]:
        return set(zip(self.src.tolist(), self.dst.tolist()))


@dataclass
class SocialLoadStats:
    """Counts of records dropped while reading a social edge list."""

    n_kept: int = 0
    n_self_loops: int = 0
    n_unknown_users: int = 0
    n_duplicates: int = 0


@dataclass
class DatasetSplit:
    train: InteractionMatrix
    validation: InteractionMatrix
    test: InteractionMatrix
    seed: int
    ratios: tuple[float, float] = (0.7, 0.2)

    @property
    def n_users(self) -> int:
        return self.train.n_users

    @property
    def n_items(self) -> int:
        return self.train.n_items


@dataclass
class StatsReport:
    """Dataset-level counts and the derived density / social-impact figures."""

    n_users: int
    n_items: int
    n_ratings: int
    n_social_links: int
    rating_density: float
    social_density: float
    avg_social_links: float
    s_impact: float

    def to_json(self) -> str:
        return json.dumps(self.__dict__, indent=2)


# str.isspace, which str.split splits on, by code point.  No code point past
# U+3000 is whitespace, so the last entry (U+3001) stands for all of them.
_WHITESPACE = np.array([chr(c).isspace() for c in range(0x3002)])


def _read_text(path: str | Path) -> str:
    """The text of ``path`` as text mode reads it: UTF-8, with ``\\r\\n`` and
    lone ``\\r`` line ends read as ``\\n``.  A byte that is not valid UTF-8
    is a :class:`DataFormatError` that names its line."""
    data = Path(path).read_bytes()
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise DataFormatError(
            f"{path}:{lineno}: not valid UTF-8 (byte {data[exc.start]:#04x}: {exc.reason})"
        ) from None


def _scan(path: str | Path, widths: tuple[int, ...], expected: str):
    """The records of an edge list, parsed without per-line Python.

    The file is read by :func:`_read_text`.  Fields are the runs of
    characters that are not whitespace, as ``str.split`` finds them, and only
    ``\\n`` ends a line, as in text mode's line iterator.  A line whose first
    field starts with ``#`` is a comment.

    Returns ``(columns, counts, lines, fault)`` for the records before the
    first one whose field count is not in ``widths``: ``counts[r]`` is the
    number of fields of record r and ``lines[r]`` its line number, and
    ``columns[j]`` lists field j of every record with more than j fields, in
    file order.  ``fault`` is the :class:`DataFormatError` of that first
    record, ``expected.format(count)`` after its line, or None; the caller
    raises it after any fault it finds in the records before it, so the first
    faulty line is named, as in a line-by-line parse.
    """
    text = _read_text(path)
    code = np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32)
    space = _WHITESPACE.take(code, mode="clip")
    starts = ~space
    starts[1:] &= space[:-1]
    starts = np.flatnonzero(starts)
    line = np.searchsorted(np.flatnonzero(code == 10), starts)
    first = np.flatnonzero(np.diff(line, prepend=-1))  # each line's first token
    counts = np.diff(first, append=starts.size)
    record = code[starts[first]] != ord("#")
    first, counts = first[record], counts[record]
    lines = line[first] + 1
    fault = None
    bad = np.flatnonzero(~np.isin(counts, widths))
    if bad.size:
        r = bad[0]
        fault = DataFormatError(f"{path}:{lines[r]}: " + expected.format(counts[r]))
        first, counts, lines = first[:r], counts[:r], lines[:r]
    tokens = np.array(text.split(), dtype=object)
    columns = [tokens[first[counts > j] + j].tolist() for j in range(max(widths))]
    return columns, counts, lines, fault


def _first_seen(ids: list[str]) -> dict[str, int]:
    """Dense indices for the distinct ``ids`` in first-seen order."""
    return dict(zip(dict.fromkeys(ids), itertools.count()))


def _indices(index: dict[str, int], ids: list[str]) -> np.ndarray:
    """``index[id]`` for every id, -1 for an id not in ``index``."""
    return np.fromiter(map(index.get, ids, itertools.repeat(-1)), dtype=np.int64, count=len(ids))


def _first_non_number(values: list[str]) -> int:
    """The index of the first value that ``float`` rejects."""
    for k, value in enumerate(values):
        try:
            float(value)
        except ValueError:
            return k


def load_interactions(
    path: str | Path, min_rating: float | None = None
) -> tuple[InteractionMatrix, IdMap]:
    """Read a ``user item [rating]`` edge list into a binary click matrix.

    Every line whose rating (if present) is >= ``min_rating`` becomes a
    click; with ``min_rating=None`` all lines count.  Duplicate pairs
    collapse to one entry.  Returns the matrix together with the
    first-seen id-to-index mapping.
    """
    (users, items, ratings), counts, lines, fault = _scan(
        path, (2, 3), "expected 'user item [rating]', got {} fields"
    )
    rated = np.flatnonzero(counts == 3)
    try:
        rating = np.fromiter(map(float, ratings), dtype=np.float64, count=len(ratings))
    except ValueError:
        k = _first_non_number(ratings)
        raise DataFormatError(
            f"{path}:{lines[rated[k]]}: rating {ratings[k]!r} is not a number"
        ) from None
    if fault:
        raise fault
    if min_rating is not None:
        keep = np.ones(counts.size, dtype=bool)
        keep[rated] = ~(rating < min_rating)  # a nan rating is kept
        users = list(itertools.compress(users, keep))
        items = list(itertools.compress(items, keep))
    if not users:
        raise DataFormatError(f"{path}: no interaction records")
    user_index, item_index = _first_seen(users), _first_seen(items)
    pairs = np.column_stack([_indices(user_index, users), _indices(item_index, items)])
    matrix = InteractionMatrix(len(user_index), len(item_index), pairs)
    id_map = IdMap(
        users=list(user_index),
        items=list(item_index),
        user_index=user_index,
        item_index=item_index,
    )
    return matrix, id_map


def load_social(path: str | Path, id_map: IdMap) -> tuple[SocialGraph, SocialLoadStats]:
    """Read a ``truster trustee`` edge list against an existing user id map.

    Edges naming users absent from the interaction data are dropped (trust
    networks overhang rating logs); self-loops and duplicates likewise,
    all counted in the returned stats.
    """
    columns, counts, _, fault = _scan(path, (2,), "expected 'truster trustee', got {} fields")
    if fault:
        raise fault
    src, dst = (_indices(id_map.user_index, ids) for ids in columns)
    known = (src >= 0) & (dst >= 0)
    self_loop = known & (src == dst)
    edges = np.column_stack([src, dst])[known & ~self_loop]
    graph = SocialGraph(len(id_map.users), edges)
    stats = SocialLoadStats(
        n_kept=graph.n_edges,
        n_self_loops=int(self_loop.sum()),
        n_unknown_users=int(counts.size - known.sum()),
        n_duplicates=len(edges) - graph.n_edges,
    )
    if stats.n_unknown_users:
        logger.warning(
            "%s: dropped %d social edges naming users absent from the interactions",
            path,
            stats.n_unknown_users,
        )
    return graph, stats


def split_interactions(
    src: InteractionMatrix, ratios: tuple[float, float] = (0.7, 0.2), seed: int = 0
) -> DatasetSplit:
    """Partition the entry set into train/validation/test by a seeded permutation.

    Sizes are floor(r_train * n) and floor(r_val * n); the remainder is the
    test set.  Deterministic for a fixed seed.
    """
    r_train, r_val = ratios
    if r_train <= 0 or r_val <= 0 or r_train + r_val >= 1:
        raise ValueError("ratios must be positive and sum to less than 1")
    n = src.n_entries
    order = np.random.default_rng(seed).permutation(n)
    n_train = int(np.floor(r_train * n))
    n_val = int(np.floor(r_val * n))
    pairs = np.column_stack([src.user_idx, src.item_idx])
    make = lambda sel: InteractionMatrix(src.n_users, src.n_items, pairs[sel])
    return DatasetSplit(
        train=make(order[:n_train]),
        validation=make(order[n_train : n_train + n_val]),
        test=make(order[n_train + n_val :]),
        seed=seed,
        ratios=(r_train, r_val),
    )


def dataset_stats(y: InteractionMatrix, s: SocialGraph) -> StatsReport:
    """Counts plus rating/social density, average out-degree, and their product."""
    if y.n_users != s.n_users:
        raise ValueError("interaction matrix and social graph disagree on n_users")
    if y.n_users == 0:
        raise ValueError("empty dataset")
    rating_density = y.n_entries / (y.n_users * y.n_items)
    social_density = s.n_edges / (s.n_users**2)
    avg_social_links = s.n_edges / s.n_users
    return StatsReport(
        n_users=y.n_users,
        n_items=y.n_items,
        n_ratings=y.n_entries,
        n_social_links=s.n_edges,
        rating_density=rating_density,
        social_density=social_density,
        avg_social_links=avg_social_links,
        s_impact=avg_social_links * rating_density,
    )


def prune_social(s: SocialGraph, keep_prob: float, seed: int = 0) -> SocialGraph:
    """Retain each edge independently with probability ``keep_prob`` (seeded)."""
    if not 0.0 <= keep_prob <= 1.0:
        raise ValueError("keep_prob must be in [0, 1]")
    if keep_prob == 1.0:
        return s
    keep = np.random.default_rng(seed).random(s.n_edges) < keep_prob
    edges = np.column_stack([s.src, s.dst])[keep]
    return SocialGraph(s.n_users, edges)


def _write_pairs(path: str | Path, left: np.ndarray, right: np.ndarray, left_ids, right_ids):
    """Write ``left_ids[l]<TAB>right_ids[r]`` lines, each id formatted once."""
    lhs = np.array([f"{raw}\t" for raw in left_ids], dtype=object)
    rhs = np.array([f"{raw}\n" for raw in right_ids], dtype=object)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join((lhs[left] + rhs[right]).tolist()))


def write_interactions(
    path: str | Path, matrix: InteractionMatrix, id_map: IdMap | None = None
) -> None:
    """Serialize the entry set back to a ``user item`` edge list."""
    users = id_map.users if id_map is not None else range(matrix.n_users)
    items = id_map.items if id_map is not None else range(matrix.n_items)
    _write_pairs(path, matrix.user_idx, matrix.item_idx, users, items)


def write_social(path: str | Path, graph: SocialGraph, id_map: IdMap | None = None) -> None:
    users = id_map.users if id_map is not None else range(graph.n_users)
    _write_pairs(path, graph.src, graph.dst, users, users)


def save_split(out_dir: str | Path, split: DatasetSplit, id_map: IdMap) -> None:
    """Write train/validation/test edge lists, the id maps, and split-meta.json."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, part in (
        ("train.tsv", split.train),
        ("validation.tsv", split.validation),
        ("test.tsv", split.test),
    ):
        write_interactions(out_dir / name, part, id_map)
    id_map.save(out_dir)
    meta = {
        "seed": split.seed,
        "ratios": list(split.ratios),
        "n_users": split.n_users,
        "n_items": split.n_items,
        "n_train": split.train.n_entries,
        "n_validation": split.validation.n_entries,
        "n_test": split.test.n_entries,
    }
    with open(out_dir / SPLIT_META_NAME, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2)


def load_split(in_dir: str | Path) -> tuple[DatasetSplit, IdMap]:
    """Inverse of :func:`save_split`; indices are restored via the stored id maps."""
    in_dir = Path(in_dir)
    meta_path = in_dir / SPLIT_META_NAME
    with open(meta_path, encoding="utf-8") as fh:
        try:
            meta = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"{meta_path}: not valid JSON: {exc}") from None
    if not isinstance(meta, dict):
        raise DataFormatError(f"{meta_path}: expected a JSON object")
    for key in ("n_users", "n_items", "seed", "ratios"):
        if key not in meta:
            raise DataFormatError(f"{meta_path}: missing key '{key}'")
    id_map = IdMap.load(in_dir)
    n_users, n_items = meta["n_users"], meta["n_items"]
    for name, ids, key in (
        ("users.tsv", id_map.users, "n_users"),
        ("items.tsv", id_map.items, "n_items"),
    ):
        if len(ids) != meta[key]:
            raise DataFormatError(
                f"{in_dir / name}: {len(ids)} ids, but {SPLIT_META_NAME} has {key} = {meta[key]}"
            )

    def read(name):
        path = in_dir / name
        (users, items), _, lines, fault = _scan(path, (2,), "expected 'user item'")
        user, item = _indices(id_map.user_index, users), _indices(id_map.item_index, items)
        unknown = np.flatnonzero((user < 0) | (item < 0))
        if unknown.size:
            r = unknown[0]
            what = f"user id '{users[r]}'" if user[r] < 0 else f"item id '{items[r]}'"
            raise DataFormatError(f"{path}:{lines[r]}: unknown {what}")
        if fault:
            raise fault
        return InteractionMatrix(n_users, n_items, np.column_stack([user, item]))

    split = DatasetSplit(
        train=read("train.tsv"),
        validation=read("validation.tsv"),
        test=read("test.tsv"),
        seed=meta["seed"],
        ratios=tuple(meta["ratios"]),
    )
    return split, id_map
