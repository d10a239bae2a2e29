"""Seeded random-network families and null models.

Every generator builds its own counter-based RNG from the seed
(numpy Philox), so calls are reproducible regardless of global RNG
state and of call order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .graph import WeightedGraph, as_weight, make_graph

__all__ = [
    "GeneratorConfig",
    "gen_ws_weighted",
    "gen_rgg",
    "gen_er_null",
    "spectral_rotation_null",
    "correlation_graph",
    "generate",
]


def _rng(seed: int) -> np.random.Generator:
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    return np.random.Generator(np.random.Philox(seed))


def gen_ws_weighted(n: int, k: int, p: float, seed: int) -> WeightedGraph:
    """Watts-Strogatz ring with distance-structured weights.

    Each vertex connects to its floor(k/2) nearest neighbors per side
    (odd k therefore rounds down); each lattice edge is rewired with
    probability p to a uniform non-neighbor. The weight of a final edge
    is 1 + circular lattice distance of its endpoints plus a uniform
    jitter in (0, 1e-6), drawn in canonical edge order, converted
    exactly. The jitter keeps weights distinct so filtration steps are
    simple; the integer part keeps the lattice scale.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    if not (2 <= k < n):
        raise ValueError("need 2 <= k < n")
    if not (0.0 <= p <= 1.0):
        raise ValueError("need 0 <= p <= 1")
    rng = _rng(seed)
    half = k // 2

    adj: list[set[int]] = [set() for _ in range(n)]

    def add(a: int, b: int) -> None:
        adj[a].add(b)
        adj[b].add(a)

    def drop(a: int, b: int) -> None:
        adj[a].discard(b)
        adj[b].discard(a)

    for j in range(1, half + 1):
        for u in range(n):
            add(u, (u + j) % n)

    for j in range(1, half + 1):
        for u in range(n):
            v = (u + j) % n
            if rng.random() >= p:
                continue
            free = [x for x in range(n) if x != u and x not in adj[u]]
            if not free:
                continue
            drop(u, v)
            add(u, free[int(rng.integers(len(free)))])

    pairs = sorted(
        (u, v) for u in range(n) for v in adj[u] if u < v
    )
    edges = []
    for u, v in pairs:
        circ = min(v - u, n - (v - u))
        w = as_weight(1 + circ) + as_weight(float(rng.uniform(0.0, 1e-6)))
        edges.append((u, v, w))
    return make_graph(n, edges)


def gen_rgg(n: int, threshold: float, dim: int = 2, seed: int = 0) -> WeightedGraph:
    """Random geometric graph in the unit cube.

    Points are uniform in [0,1]^dim; pairs closer than the threshold
    get an edge weighted by exact Euclidean distance (the float's exact
    binary rational).
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    if dim < 1:
        raise ValueError("dim must be >= 1")
    rng = _rng(seed)
    pts = rng.random((n, dim))
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            d = math.sqrt(float(np.sum((pts[u] - pts[v]) ** 2)))
            if d <= threshold:
                edges.append((u, v, as_weight(d)))
    return make_graph(n, edges)


def _pair_from_linear(t: int, n: int) -> tuple[int, int]:
    # row u covers indices [offset(u), offset(u) + n-1-u)
    u = 0
    remaining = t
    while remaining >= n - 1 - u:
        remaining -= n - 1 - u
        u += 1
    return u, u + 1 + remaining


def gen_er_null(n: int, m: int, seed: int) -> WeightedGraph:
    """Uniform random graph with exactly m unit-weight edges.

    Null model preserving vertex and edge counts of a reference graph
    while destroying all structure.
    """
    total = n * (n - 1) // 2
    if not (0 <= m <= total):
        raise ValueError(f"need 0 <= m <= {total}")
    rng = _rng(seed)
    chosen = rng.choice(total, size=m, replace=False)
    edges = [
        (*_pair_from_linear(int(t), n), as_weight(1)) for t in sorted(chosen)
    ]
    return make_graph(n, edges)


def spectral_rotation_null(corr: np.ndarray, seed: int) -> np.ndarray:
    """Rotate a correlation-like matrix to a random basis, keeping its
    spectrum.

    Conjugates by a Haar-distributed orthogonal matrix (QR of a
    Gaussian with sign-corrected diagonal) and symmetrizes explicitly
    to wash out float round-off. Rejects asymmetric input and matrices
    with an eigenvalue below -1e-9.
    """
    c = np.asarray(corr, dtype=float)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValueError("input must be a square matrix")
    if float(np.max(np.abs(c - c.T))) > 1e-12:
        raise ValueError("input matrix is not symmetric")
    if float(np.min(np.linalg.eigvalsh(c))) < -1e-9:
        raise ValueError("input matrix is not positive semidefinite")
    rng = _rng(seed)
    gauss = rng.standard_normal(c.shape)
    q, r = np.linalg.qr(gauss)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    q = q * signs
    rotated = q @ c @ q.T
    return (rotated + rotated.T) / 2.0


def correlation_graph(mat: np.ndarray) -> WeightedGraph:
    """Dissimilarity filtration graph of a dense affinity matrix.

    Every off-diagonal pair becomes an edge with weight
    max_offdiag - entry, so the strongest affinities enter the
    filtration first and weights stay nonnegative even after a
    spectral rotation pushes entries negative.
    """
    c = np.asarray(mat, dtype=float)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValueError("input must be a square matrix")
    if float(np.max(np.abs(c - c.T))) > 1e-12:
        raise ValueError("input matrix is not symmetric")
    n = c.shape[0]
    if n < 2:
        raise ValueError("need at least two rows")
    # entries may be negative after a rotation; subtract in plain
    # Fractions and validate only the difference
    w_max = Fraction(float(np.max(c[~np.eye(n, dtype=bool)])))
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            edges.append((u, v, as_weight(w_max - Fraction(float(c[u, v])))))
    return make_graph(n, edges)


# required params per model; rgg also takes an optional "dim"
MODEL_PARAMS = {"ws": ("n", "k", "p"), "rgg": ("n", "threshold"), "er": ("n", "m")}


@dataclass(frozen=True)
class GeneratorConfig:
    """Declarative generator request, JSON round-trippable.

    Construction checks the model and its required params, so a bad
    config fails with ValueError before any generator runs.
    """

    model: str
    params: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.model, str) or self.model not in MODEL_PARAMS:
            raise ValueError(f"unknown model {self.model!r}")
        if not isinstance(self.params, dict):
            raise ValueError("generator params must be a JSON object")
        missing = [k for k in MODEL_PARAMS[self.model] if self.params.get(k) is None]
        if missing:
            raise ValueError(f"model {self.model!r} needs {', '.join(missing)}")
        for k, v in self.params.items():
            if not isinstance(v, (int, float, str)):
                raise ValueError(f"generator param {k!r} is not a number: {v!r}")
        if not isinstance(self.seed, int):
            raise ValueError(f"generator seed {self.seed!r} is not an integer")

    @classmethod
    def from_json(cls, text: str) -> "GeneratorConfig":
        raw = json.loads(text)
        if not isinstance(raw, dict):
            raise ValueError("generator config must be a JSON object")
        return cls(
            model=raw.get("model"),
            params=raw.get("params", {}),
            seed=raw.get("seed", 0),
        )

    def to_json(self) -> str:
        return json.dumps(
            {"model": self.model, "params": self.params, "seed": self.seed}
        )


def generate(config: GeneratorConfig) -> WeightedGraph:
    """Dispatch a GeneratorConfig to the matching builder."""
    p = config.params
    if config.model == "ws":
        return gen_ws_weighted(
            n=int(p["n"]), k=int(p["k"]), p=float(p["p"]), seed=config.seed
        )
    if config.model == "rgg":
        return gen_rgg(
            n=int(p["n"]),
            threshold=float(p["threshold"]),
            dim=int(p.get("dim", 2)),
            seed=config.seed,
        )
    return gen_er_null(n=int(p["n"]), m=int(p["m"]), seed=config.seed)
