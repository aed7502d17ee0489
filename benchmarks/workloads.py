"""Seeded workload generator for the benchmark.

Independent of ``serec.synthetic`` on purpose: a change to the program's
own sampler must not change what the benchmark feeds it.  The program only
ever sees the two TSV files written here.

Clicks follow a community model with power-law item popularity and user
activity: users and items belong to one of ``N_GROUPS`` communities, a
click picks its user by activity weight and its item by popularity, from
the user's own community with probability ``Shape.in_group``.  Trust edges also
prefer the truster's community, so friends share tastes and the social
exposure models have a signal to find.

Every count below is hit exactly: candidates are drawn in batches and
deduplicated in draw order until the target number of distinct pairs is
reached.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

N_GROUPS = 20


@dataclass(frozen=True)
class Shape:
    """Exact sizes of one generated dataset."""

    n_users: int
    n_items: int
    n_clicks: int  # distinct (user, item) pairs
    n_duplicate_rows: int  # extra copies of existing pairs in the input file
    n_edges: int  # distinct directed trust edges, no self-loops
    item_exponent: float  # popularity weight of the r-th item is r ** -exponent
    user_exponent: float
    in_group: float  # share of clicks drawn from the user's own community


# lastfm counts from the paper's dataset table (REFERENCE_STATS in the tests)
LASTFM = Shape(1892, 17632, 92_834, 0, 25_434, item_exponent=1.2, user_exponent=0.5, in_group=0.9)
# a douban-shaped shard: 100 clicks and 13 trust edges per user, 10% duplicate rows
DOUBAN_SHARD = Shape(
    6_000, 2_000, 600_000, 60_000, 78_000, item_exponent=0.6, user_exponent=0.3, in_group=0.6
)


def _ranked(n: int, exponent: float, rng) -> tuple[np.ndarray, np.ndarray]:
    """Power-law weights and communities for n ids in a seeded random order.

    Communities are dealt round-robin down the popularity ranking, so every
    community holds the same share of heads and tails whatever the seed,
    and seeds differ only in which ids and pairs are drawn.
    """
    order = rng.permutation(n)  # order[r] is the id of rank r
    weights = np.empty(n)
    weights[order] = np.arange(1, n + 1, dtype=np.float64) ** -exponent
    groups = np.empty(n, dtype=np.int64)
    groups[order] = np.arange(n) % N_GROUPS
    return weights / weights.sum(), groups


def _draw(cdf: np.ndarray, size: int, rng) -> np.ndarray:
    return np.minimum(np.searchsorted(cdf, rng.random(size), side="right"), len(cdf) - 1)


class _Sampler:
    """Draws (user, item) candidates from the community model."""

    def __init__(self, shape: Shape, rng) -> None:
        self.rng = rng
        self.in_group = shape.in_group
        self.user_w, self.user_group = _ranked(shape.n_users, shape.user_exponent, rng)
        self.item_w, self.item_group = _ranked(shape.n_items, shape.item_exponent, rng)
        self.user_cdf = np.cumsum(self.user_w)
        self.item_cdf = np.cumsum(self.item_w)
        self.group_items = [np.flatnonzero(self.item_group == g) for g in range(N_GROUPS)]
        self.group_cdf = [np.cumsum(self.item_w[m]) / self.item_w[m].sum() for m in self.group_items]

    def items_for(self, users: np.ndarray) -> np.ndarray:
        rng = self.rng
        items = _draw(self.item_cdf, len(users), rng)
        local = rng.random(len(users)) < self.in_group
        groups = self.user_group[users]
        for g in range(N_GROUPS):
            sel = np.flatnonzero(local & (groups == g))
            if sel.size and self.group_items[g].size:
                items[sel] = self.group_items[g][_draw(self.group_cdf[g], sel.size, rng)]
        return items

    def users(self, size: int) -> np.ndarray:
        return _draw(self.user_cdf, size, self.rng)


def _fill_distinct(keys: np.ndarray, target: int, draw) -> np.ndarray:
    """Extend distinct ``keys`` with fresh draws, in draw order, to ``target``."""
    keys = _first_occurrences(keys)
    known = np.sort(keys)
    while len(keys) < target:
        need = target - len(keys)
        cand = _first_occurrences(draw(int(need * 1.3) + 1024))
        pos = np.minimum(np.searchsorted(known, cand), max(len(known) - 1, 0))
        fresh = cand if not len(known) else cand[known[pos] != cand]
        keys = np.concatenate([keys, fresh[:need]])
        known = np.sort(np.concatenate([known, fresh[:need]]))
    return keys


def _first_occurrences(keys: np.ndarray) -> np.ndarray:
    """Distinct keys in order of first appearance.

    A stable argsort rather than ``np.unique``, which is several times
    slower on the numpy 2.4 builds this was written against.
    """
    order = np.argsort(keys, kind="stable")
    ranked = keys[order]
    first = np.ones(len(keys), dtype=bool)
    first[1:] = ranked[1:] != ranked[:-1]
    return keys[np.sort(order[first])]


def generate(shape: Shape, seed: int):
    """Click rows (with duplicates, shuffled) and trust edges for one seed.

    Returns ``(rows, edges)``: int64 arrays of (user, item) and
    (truster, trustee) index pairs.
    """
    rng = np.random.default_rng([seed, shape.n_users, shape.n_items])
    s = _Sampler(shape, rng)
    u_n, i_n = shape.n_users, shape.n_items

    # coverage first: every item and every user appears in at least one click
    cover_u = np.concatenate([s.users(i_n), np.arange(u_n)])
    cover_i = np.concatenate([np.arange(i_n), s.items_for(np.arange(u_n))])
    seed_keys = _first_occurrences(cover_u * i_n + cover_i)

    def draw_clicks(m):
        users = s.users(m)
        return users * i_n + s.items_for(users)

    keys = _fill_distinct(seed_keys, shape.n_clicks, draw_clicks)
    dupes = keys[rng.integers(0, len(keys), shape.n_duplicate_rows)]
    rows = rng.permutation(np.concatenate([keys, dupes]))
    rows = np.column_stack([rows // i_n, rows % i_n])

    peers = [np.flatnonzero(s.user_group == g) for g in range(N_GROUPS)]

    def draw_edges(m):
        src = s.users(m)
        same = rng.random(m) < 0.7
        dst = rng.integers(0, u_n, m)
        for g in range(N_GROUPS):
            sel = np.flatnonzero(same & (s.user_group[src] == g))
            if sel.size and peers[g].size:
                dst[sel] = peers[g][rng.integers(0, peers[g].size, sel.size)]
        keep = src != dst
        return src[keep] * u_n + dst[keep]

    edge_keys = _fill_distinct(np.empty(0, dtype=np.int64), shape.n_edges, draw_edges)
    edges = np.column_stack([edge_keys // u_n, edge_keys % u_n])
    return rows, edges


def _edge_list(pairs: np.ndarray, left: str, right: str) -> bytes:
    """TSV bytes of prefixed id pairs, formatted once per distinct id."""
    lhs = np.array([f"{left}{n}\t" for n in range(pairs[:, 0].max() + 1)], dtype=object)
    rhs = np.array([f"{right}{n}\n" for n in range(pairs[:, 1].max() + 1)], dtype=object)
    return "".join((lhs[pairs[:, 0]] + rhs[pairs[:, 1]]).tolist()).encode()


def write_workload(shape: Shape, seed: int, out_dir: Path) -> dict:
    """Write ``interactions.tsv`` and ``social.tsv``; return their fingerprint."""
    rows, edges = generate(shape, seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    inter = _edge_list(rows, "u", "i")
    social = _edge_list(edges, "u", "u")
    (out_dir / "interactions.tsv").write_bytes(inter)
    (out_dir / "social.tsv").write_bytes(social)
    digest = hashlib.sha256(inter + b"\0" + social).hexdigest()
    return {
        "interaction_rows": int(len(rows)),
        "distinct_clicks": int(shape.n_clicks),
        "social_rows": int(len(edges)),
        "sha256": digest,
    }
