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
import zipfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

logger = logging.getLogger(__name__)

SPLIT_META_NAME = "split-meta.json"
SPLIT_NAME = "split.npz"  # the split: index arrays, ids, seed and ratios
SPLIT_PARTS = ("train", "validation", "test")


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
        """Write ``users.tsv`` and ``items.tsv``, ``index<TAB>id`` lines."""
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, ids in (("users.tsv", self.users), ("items.tsv", self.items)):
            rows = np.arange(len(ids))
            _write_pairs(out_dir / name, rows, rows, range(len(ids)), ids)


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

    @property
    def n_entries(self) -> int:
        return len(self.user_idx)

    def item_counts(self) -> np.ndarray:
        """Per-item click counts n_i, shape (n_items,)."""
        return np.diff(self.csc_indptr)

    def user_counts(self) -> np.ndarray:
        return np.diff(self.csr_indptr)


class SocialGraph:
    """Directed user-to-user trust adjacency.

    Edge (u, k) means u trusts/follows k; the out-neighbors of u, the
    users u trusts, are ``dst[indptr[u]:indptr[u + 1]]`` (CSR order).
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

    @property
    def n_edges(self) -> int:
        return len(self.src)

    def out_degree(self) -> np.ndarray:
        return np.diff(self.indptr)


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

# characters per block of lines that _scan parses at once: a block's arrays
# and field strings take about 25 bytes per character, 6.5 MB at this size
SCAN_CHARS = 1 << 18

# lines per block that _write_pairs builds at once: a block's strings and
# object arrays take about 90 bytes per line, 6 MB at this size
WRITE_ROWS = 1 << 16


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
    """The records of an edge list, parsed without per-line Python, one
    block of lines at a time.

    The file is read by :func:`_read_text` and cut into blocks of whole
    lines, each ending at the first line end that makes it at least
    ``SCAN_CHARS`` characters long (a longer line is one block), so only
    one block's fields exist as ``str`` at a time.  Fields are the runs of
    characters that are not whitespace, as ``str.split`` finds them, and
    only ``\\n`` ends a line, as in text mode's line iterator.  A line
    whose first field starts with ``#`` is a comment.

    Yields ``(columns, counts, lines, fault)`` per block, for its records
    before the first one whose field count is not in ``widths``:
    ``counts[r]`` is the number of fields of record r and ``lines[r]`` its
    line number in the file, and ``columns[j]`` lists field j of every
    record with more than j fields, in file order.  ``fault`` is the
    :class:`DataFormatError` of that first record, ``expected.format(count)``
    after its line, or None.  The caller raises it after any fault it finds
    in the records before it, so the first faulty line is named, as in a
    line-by-line parse, and no later block is read.
    """
    text = _read_text(path)
    start, line0 = 0, 0
    while start < len(text):
        end = text.find("\n", start + SCAN_CHARS - 1) + 1 or len(text)
        block = text[start:end]
        code = np.frombuffer(block.encode("utf-32-le"), dtype=np.uint32)
        space = _WHITESPACE.take(code, mode="clip")
        starts = ~space
        starts[1:] &= space[:-1]
        starts = np.flatnonzero(starts)
        ends = np.flatnonzero(code == 10)
        line = np.searchsorted(ends, starts)
        first = np.flatnonzero(np.diff(line, prepend=-1))  # each line's first token
        counts = np.diff(first, append=starts.size)
        record = code[starts[first]] != ord("#")
        first, counts = first[record], counts[record]
        lines = line[first] + line0 + 1
        fault = None
        bad = np.flatnonzero(~np.isin(counts, widths))
        if bad.size:
            r = bad[0]
            fault = DataFormatError(f"{path}:{lines[r]}: " + expected.format(counts[r]))
            first, counts, lines = first[:r], counts[:r], lines[:r]
        tokens = np.array(block.split(), dtype=object)
        columns = [tokens[first[counts > j] + j].tolist() for j in range(max(widths))]
        yield columns, counts, lines, fault
        start, line0 = end, line0 + ends.size


def _indices(index: dict[str, int], ids: list[str]) -> np.ndarray:
    """``index[id]`` for every id, -1 for an id not in ``index``."""
    return np.fromiter(map(index.get, ids, itertools.repeat(-1)), dtype=np.int64, count=len(ids))


def _add_indices(index: dict[str, int], ids: list[str]) -> np.ndarray:
    """``index[id]`` for every id, after giving each id not in ``index`` the
    next dense index in first-seen order."""
    new = itertools.filterfalse(index.__contains__, dict.fromkeys(ids))
    index.update(zip(new, itertools.count(len(index))))
    return _indices(index, ids)


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
    user_index, item_index = {}, {}
    pairs = [np.empty((0, 2), dtype=np.int64)]
    for (users, items, ratings), counts, lines, fault in _scan(
        path, (2, 3), "expected 'user item [rating]', got {} fields"
    ):
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
        pairs.append(
            np.column_stack([_add_indices(user_index, users), _add_indices(item_index, items)])
        )
    if not user_index:
        raise DataFormatError(f"{path}: no interaction records")
    pairs = np.concatenate(pairs)
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
    edges = [np.empty((0, 2), dtype=np.int64)]
    for columns, _, _, fault in _scan(path, (2,), "expected 'truster trustee', got {} fields"):
        if fault:
            raise fault
        edges.append(np.column_stack([_indices(id_map.user_index, ids) for ids in columns]))
    edges = np.concatenate(edges)
    src, dst = edges.T
    known = (src >= 0) & (dst >= 0)
    self_loop = known & (src == dst)
    edges = edges[known & ~self_loop]
    graph = SocialGraph(len(id_map.users), edges)
    stats = SocialLoadStats(
        n_kept=graph.n_edges,
        n_self_loops=int(self_loop.sum()),
        n_unknown_users=int(known.size - known.sum()),
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
    if not (r_train > 0 and r_val > 0 and r_train + r_val < 1):  # NaN fails each
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
    """Write ``left_ids[l]<TAB>right_ids[r]`` lines, each id formatted once,
    ``WRITE_ROWS`` lines at a time."""
    lhs = np.array([f"{raw}\t" for raw in left_ids], dtype=object)
    rhs = np.array([f"{raw}\n" for raw in right_ids], dtype=object)
    with open(path, "w", encoding="utf-8") as fh:
        for start in range(0, len(left), WRITE_ROWS):
            rows = slice(start, start + WRITE_ROWS)
            fh.write("".join((lhs[left[rows]] + rhs[right[rows]]).tolist()))


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


def read_json_object(path: Path, keys: tuple[str, ...]) -> dict:
    """The JSON object in ``path``, which must hold each of ``keys``; a
    fault names the file, and the key."""
    with open(path, encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise DataFormatError(f"{path}: expected a JSON object")
    for key in keys:
        if key not in obj:
            raise DataFormatError(f"{path}: missing key '{key}'")
    return obj


def write_matrix(path: str | Path, array: np.ndarray) -> None:
    """Write a float matrix as tab-separated rows in ``%.17g``, which reads
    back bit for bit."""
    np.savetxt(path, array, fmt="%.17g", delimiter="\t")


def save_arrays(path: str | Path, **arrays: np.ndarray) -> None:
    """Write named arrays to ``path`` in the format of ``np.savez``.  Every
    member carries the same fixed timestamp, so equal arrays give equal
    bytes."""
    with zipfile.ZipFile(path, "w") as zf:
        for name, array in arrays.items():
            with zf.open(zipfile.ZipInfo(f"{name}.npy"), "w", force_zip64=True) as fh:
                np.lib.format.write_array(fh, np.asarray(array), allow_pickle=False)


def load_arrays(path: Path, command: str, specs: dict[str, tuple]) -> dict[str, np.ndarray]:
    """The arrays of the ``.npz`` file ``path`` that ``specs`` names, each
    of the dtype and shape of its ``(dtype, sizes)`` pair: a tuple of sizes,
    None for a size that may be any.  A float array must hold finite
    numbers only.  Nothing is unpickled: an object array fails like any
    other malformed array.  A fault names the file and the array, and a
    non-finite entry its position; a missing file or array says to run
    ``serec <command>`` again."""
    if not path.exists():
        raise DataFormatError(
            f"{path} is missing (directories from an older serec lack it); "
            f"run serec {command} again"
        )
    arrays = {}
    try:
        npz = np.load(path, allow_pickle=False)
    except (EOFError, OSError, ValueError, zipfile.BadZipFile) as exc:
        raise DataFormatError(f"{path}: {exc}") from None
    if not isinstance(npz, np.lib.npyio.NpzFile):  # a lone .npy array
        raise DataFormatError(f"{path}: not an .npz archive")
    with npz:
        for name, (dtype, dims) in specs.items():
            try:
                array = npz[name]
            except KeyError:
                raise DataFormatError(
                    f"{path}: no array {name!r} (files from an older serec lack it); "
                    f"run serec {command} again"
                ) from None
            # an object array, which only pickle reads, or a damaged member
            except (OSError, ValueError, zipfile.BadZipFile) as exc:
                raise DataFormatError(f"{path}: array {name!r}: {exc}") from None
            if array.dtype != dtype:
                raise DataFormatError(
                    f"{path}: array {name!r} is {array.dtype}, expected {np.dtype(dtype)}"
                )
            sizes_ok = all(d in (None, n) for d, n in zip(dims, array.shape))
            if array.ndim != len(dims) or not sizes_ok:
                expected = f"expected {dims}".replace("None", "n")
                raise DataFormatError(f"{path}: array {name!r} has shape {array.shape}, {expected}")
            if array.dtype.kind == "f" and not np.isfinite(array).all():
                at = np.unravel_index(np.flatnonzero(~np.isfinite(array))[0], array.shape)
                raise DataFormatError(
                    f"{path}: array {name!r} holds {array[at]} at position "
                    f"{tuple(map(int, at))}, not a finite number"
                )
            arrays[name] = array
    return arrays


def save_split(out_dir: str | Path, split: DatasetSplit, id_map: IdMap) -> None:
    """Write ``split.npz``, the one file :func:`load_split` reads: each part
    as two int64 index arrays, ``train_user`` and ``train_item``, then
    ``validation_*`` and ``test_*``; ``users`` and ``items``, the UTF-8
    bytes of the ids joined by line ends, as uint8; ``seed``, a 0-d int64;
    and ``ratios``, two float64.  Also write readable copies that serec
    never reads back: the parts as edge lists, the id maps as
    ``users.tsv`` and ``items.tsv``, and ``split-meta.json``.  A seed that
    does not fit in 64 bits, or an id that holds a line end, is a
    ``ValueError`` raised before any file is written."""
    if not -(2**63) <= split.seed < 2**63:
        raise ValueError(f"seed must fit in 64 bits, got {split.seed}")
    ids = {}
    for name, raw in (("users", id_map.users), ("items", id_map.items)):
        text = "\n".join(raw)
        if text.count("\n") != len(raw) - 1:
            raise ValueError(f"an id in id_map.{name} holds a line end")
        ids[name] = np.frombuffer(text.encode("utf-8"), dtype=np.uint8)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    parts = dict(zip(SPLIT_PARTS, (split.train, split.validation, split.test)))
    arrays = {}
    for name, part in parts.items():
        write_interactions(out_dir / f"{name}.tsv", part, id_map)
        arrays[f"{name}_user"], arrays[f"{name}_item"] = part.user_idx, part.item_idx
    seed = np.asarray(split.seed, dtype=np.int64)
    ratios = np.asarray(split.ratios, dtype=np.float64)
    save_arrays(out_dir / SPLIT_NAME, **arrays, **ids, seed=seed, ratios=ratios)
    id_map.save(out_dir)
    meta = {
        "seed": split.seed,
        "ratios": list(split.ratios),
        "n_users": split.n_users,
        "n_items": split.n_items,
        **{f"n_{name}": part.n_entries for name, part in parts.items()},
    }
    with open(out_dir / SPLIT_META_NAME, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2)


def load_split(in_dir: str | Path) -> tuple[DatasetSplit, IdMap]:
    """Inverse of :func:`save_split`, read from ``split.npz`` alone in one
    :func:`load_arrays` call: the ids, the parts, whose user and item
    arrays must be of one length and hold indices below the number of ids,
    and the seed and ratios.  A fault names the file and the array; a file
    without the id arrays, as an older serec wrote, says to run ``serec
    split`` again."""
    path = Path(in_dir) / SPLIT_NAME
    specs = {name: (np.uint8, (None,)) for name in ("users", "items")}
    specs |= {f"{p}_{axis}": (np.int64, (None,)) for p in SPLIT_PARTS for axis in ("user", "item")}
    specs |= {"seed": (np.int64, ()), "ratios": (np.float64, (2,))}
    arrays = load_arrays(path, "split", specs)
    ids = {}
    for name in ("users", "items"):
        raw = arrays.pop(name).tobytes()
        try:
            ids[name] = raw.decode("utf-8").split("\n")
        except UnicodeDecodeError as exc:
            raise DataFormatError(
                f"{path}: array {name!r} is not valid UTF-8 "
                f"(byte {raw[exc.start]:#04x} at position {exc.start}: {exc.reason})"
            ) from None
    id_map = IdMap(users=ids["users"], items=ids["items"])
    n_users, n_items = len(id_map.users), len(id_map.items)
    seed, ratios = int(arrays.pop("seed")), arrays.pop("ratios")
    for name in SPLIT_PARTS:
        user, item = arrays[f"{name}_user"], arrays[f"{name}_item"]
        if user.shape != item.shape:
            raise DataFormatError(
                f"{path}: array '{name}_item' has shape {item.shape}, "
                f"but array '{name}_user' has shape {user.shape}"
            )
    for name, array in arrays.items():
        n = n_users if name.endswith("_user") else n_items
        if array.size and not (array.min() >= 0 and array.max() < n):
            at = np.flatnonzero((array < 0) | (array >= n))[0]
            raise DataFormatError(
                f"{path}: array {name!r} holds index {array[at]} at position {at}, "
                f"outside 0..{n - 1}"
            )
    parts = (
        InteractionMatrix(
            n_users, n_items, np.column_stack([arrays[f"{name}_user"], arrays[f"{name}_item"]])
        )
        for name in SPLIT_PARTS
    )
    return DatasetSplit(*parts, seed=seed, ratios=tuple(ratios.tolist())), id_map
