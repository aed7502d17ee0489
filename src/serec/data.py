"""Interaction and trust-graph ingestion, splitting, and dataset statistics.

Input files are plain edge lists: one record per line, fields separated by
tabs or spaces, lines starting with ``#`` ignored.  Interactions are
``user item [rating]``; social links are ``truster trustee``.  Ids are
arbitrary strings mapped to dense indices in first-seen order.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse as sp

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
        in_dir = Path(in_dir)
        ids = {}
        for name in ("users.tsv", "items.tsv"):
            rows = []
            with open(in_dir / name, encoding="utf-8") as fh:
                for line in fh:
                    idx, raw = line.rstrip("\n").split("\t", 1)
                    rows.append((int(idx), raw))
            rows.sort()
            ids[name] = [raw for _, raw in rows]
        return cls(users=ids["users.tsv"], items=ids["items.tsv"])


def _sorted_unique(keys: np.ndarray) -> np.ndarray:
    """The distinct integer keys in ascending order, as ``np.unique`` gives
    them: a sort, then a mask that keeps each key unlike its predecessor."""
    keys = np.sort(keys)
    keep = np.ones(keys.size, dtype=bool)
    keep[1:] = keys[1:] != keys[:-1]
    return keys[keep]


class InteractionMatrix:
    """Sparse binary user-by-item click matrix.

    Stores the observed pairs once (deduplicated), plus per-user and
    per-item adjacency for O(degree) iteration.  Immutable after
    construction; safe to share across threads read-only.
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
        self._csr = sp.csr_matrix(
            (np.ones(len(keys), dtype=np.float64), (self.user_idx, self.item_idx)),
            shape=(n_users, n_items),
        )
        self._csc = self._csr.tocsc()

    @property
    def n_entries(self) -> int:
        return len(self.user_idx)

    def __len__(self) -> int:
        return self.n_entries

    def items_of(self, u: int) -> np.ndarray:
        """Item indices clicked by user ``u`` (ascending)."""
        return self._csr.indices[self._csr.indptr[u] : self._csr.indptr[u + 1]]

    def users_of(self, i: int) -> np.ndarray:
        """User indices that clicked item ``i`` (ascending)."""
        return self._csc.indices[self._csc.indptr[i] : self._csc.indptr[i + 1]]

    def item_counts(self) -> np.ndarray:
        """Per-item click counts n_i, shape (n_items,)."""
        return np.diff(self._csc.indptr).astype(np.int64)

    def user_counts(self) -> np.ndarray:
        return np.diff(self._csr.indptr).astype(np.int64)

    def to_csr(self) -> sp.csr_matrix:
        return self._csr

    def to_csc(self) -> sp.csc_matrix:
        return self._csc

    def entry_set(self) -> set[tuple[int, int]]:
        return set(zip(self.user_idx.tolist(), self.item_idx.tolist()))

    def __contains__(self, pair: tuple[int, int]) -> bool:
        u, i = pair
        return bool(self._csr[u, i])


class SocialGraph:
    """Directed user-to-user trust adjacency.

    Edge (u, k) means u trusts/follows k; ``friends_of(u)`` are the
    out-neighbors of u.  Self-loops and duplicates are never stored.
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
        self._adj = sp.csr_matrix(
            (np.ones(len(keys), dtype=np.float64), (self.src, self.dst)),
            shape=(n_users, n_users),
        )

    @property
    def n_edges(self) -> int:
        return len(self.src)

    def friends_of(self, u: int) -> np.ndarray:
        """Out-neighbors of ``u`` (the users u trusts), ascending."""
        return self._adj.indices[self._adj.indptr[u] : self._adj.indptr[u + 1]]

    def out_degree(self) -> np.ndarray:
        return np.diff(self._adj.indptr).astype(np.int64)

    def adjacency(self) -> sp.csr_matrix:
        """Row u holds indicator of Friends(u)."""
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


def _records(path: str | Path):
    """Yield (line_number, fields) for non-comment, non-blank lines."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            yield lineno, stripped.split()


def load_interactions(
    path: str | Path, min_rating: float | None = None
) -> tuple[InteractionMatrix, IdMap]:
    """Read a ``user item [rating]`` edge list into a binary click matrix.

    Every line whose rating (if present) is >= ``min_rating`` becomes a
    click; with ``min_rating=None`` all lines count.  Duplicate pairs
    collapse to one entry.  Returns the matrix together with the
    first-seen id-to-index mapping.
    """
    users: list[str] = []
    items: list[str] = []
    user_index: dict[str, int] = {}
    item_index: dict[str, int] = {}
    pairs: list[tuple[int, int]] = []
    for lineno, fields in _records(path):
        if len(fields) not in (2, 3):
            raise DataFormatError(
                f"{path}:{lineno}: expected 'user item [rating]', got {len(fields)} fields"
            )
        if len(fields) == 3:
            try:
                rating = float(fields[2])
            except ValueError:
                raise DataFormatError(
                    f"{path}:{lineno}: rating {fields[2]!r} is not a number"
                ) from None
            if min_rating is not None and rating < min_rating:
                continue
        u_raw, i_raw = fields[0], fields[1]
        if u_raw not in user_index:
            user_index[u_raw] = len(users)
            users.append(u_raw)
        if i_raw not in item_index:
            item_index[i_raw] = len(items)
            items.append(i_raw)
        pairs.append((user_index[u_raw], item_index[i_raw]))
    if not pairs:
        raise DataFormatError(f"{path}: no interaction records")
    matrix = InteractionMatrix(len(users), len(items), pairs)
    return matrix, IdMap(users=users, items=items, user_index=user_index, item_index=item_index)


def load_social(path: str | Path, id_map: IdMap) -> tuple[SocialGraph, SocialLoadStats]:
    """Read a ``truster trustee`` edge list against an existing user id map.

    Edges naming users absent from the interaction data are dropped (trust
    networks overhang rating logs); self-loops and duplicates likewise,
    all counted in the returned stats.
    """
    stats = SocialLoadStats()
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, fields in _records(path):
        if len(fields) != 2:
            raise DataFormatError(
                f"{path}:{lineno}: expected 'truster trustee', got {len(fields)} fields"
            )
        src_raw, dst_raw = fields
        src = id_map.user_index.get(src_raw)
        dst = id_map.user_index.get(dst_raw)
        if src is None or dst is None:
            stats.n_unknown_users += 1
            continue
        if src == dst:
            stats.n_self_loops += 1
            continue
        if (src, dst) in seen:
            stats.n_duplicates += 1
            continue
        seen.add((src, dst))
        edges.append((src, dst))
    stats.n_kept = len(edges)
    if stats.n_unknown_users:
        logger.warning(
            "%s: dropped %d social edges naming users absent from the interactions",
            path,
            stats.n_unknown_users,
        )
    graph = SocialGraph(len(id_map.users), edges)
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


def write_interactions(
    path: str | Path, matrix: InteractionMatrix, id_map: IdMap | None = None
) -> None:
    """Serialize the entry set back to a ``user item`` edge list."""
    with open(path, "w", encoding="utf-8") as fh:
        for u, i in zip(matrix.user_idx.tolist(), matrix.item_idx.tolist()):
            if id_map is not None:
                fh.write(f"{id_map.users[u]}\t{id_map.items[i]}\n")
            else:
                fh.write(f"{u}\t{i}\n")


def write_social(path: str | Path, graph: SocialGraph, id_map: IdMap | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for u, k in zip(graph.src.tolist(), graph.dst.tolist()):
            if id_map is not None:
                fh.write(f"{id_map.users[u]}\t{id_map.users[k]}\n")
            else:
                fh.write(f"{u}\t{k}\n")


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
    with open(in_dir / SPLIT_META_NAME, encoding="utf-8") as fh:
        meta = json.load(fh)
    id_map = IdMap.load(in_dir)
    n_users, n_items = meta["n_users"], meta["n_items"]

    def read(name):
        path = in_dir / name
        pairs = []
        for lineno, fields in _records(path):
            if len(fields) != 2:
                raise DataFormatError(f"{path}:{lineno}: expected 'user item'")
            u = id_map.user_index.get(fields[0])
            i = id_map.item_index.get(fields[1])
            if u is None:
                raise DataFormatError(f"{path}:{lineno}: unknown user id '{fields[0]}'")
            if i is None:
                raise DataFormatError(f"{path}:{lineno}: unknown item id '{fields[1]}'")
            pairs.append((u, i))
        if not pairs:
            pairs = np.empty((0, 2), dtype=np.int64)
        return InteractionMatrix(n_users, n_items, pairs)

    split = DatasetSplit(
        train=read("train.tsv"),
        validation=read("validation.tsv"),
        test=read("test.tsv"),
        seed=meta["seed"],
        ratios=tuple(meta["ratios"]),
    )
    return split, id_map
