"""Parameter domains: the unit interval or a finite metric tree.

Both are represented as metric trees (the interval is a single unit edge),
so path and sweep logic is written once.  A point's scalar coordinate is its
arc distance from the base vertex (the first vertex listed); expressions
receive that scalar as x.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import deque
from functools import cached_property, partial
from itertools import repeat
from typing import NamedTuple, Optional

import numpy as np

from .errors import OutOfDomainError, ProblemValidationError

# the search node of an interior start point
_SEED = -1


class Edge(NamedTuple):
    u: int
    v: int
    length: float


class _PointFields(NamedTuple):
    vertex: int | None = None
    edge: int | None = None
    t: float = 0.0


class DomainPoint(_PointFields):
    """Canonical point: either a vertex, or strictly interior to an edge.

    Canonical form makes equality and hashing reliable: edge endpoints are
    always expressed as vertex points.  A named tuple (immutable, and
    equal to the plain tuple of its fields); the constructor and _replace
    check the form, _make does not.
    """

    __slots__ = ()

    def __new__(cls, vertex: int | None = None, edge: int | None = None, t: float = 0.0):
        if (vertex is None) == (edge is None):
            raise ValueError("point must set exactly one of vertex/edge")
        if edge is not None and not (0.0 < t < 1.0):
            raise ValueError("interior point needs 0 < t < 1")
        return super().__new__(cls, vertex, edge, t)

    def _replace(self, **changes) -> "DomainPoint":
        return DomainPoint(**{**self._asdict(), **changes})


class ParamDomain:
    """A finite metric tree (or the unit interval as the one-edge case)."""

    def __init__(self, kind: str, vertex_names: tuple[str, ...], edges: tuple[Edge, ...]):
        self.kind = kind
        self.vertex_names = vertex_names
        self.edges = edges
        self._validate()
        tree = self._search(DomainPoint(vertex=0))
        # with |E| = |V| - 1 this also rules out cycles
        if len(tree) != len(vertex_names):
            raise ProblemValidationError("domain graph is not connected")
        # search order puts each parent before its children
        self._depth = [0.0] * len(vertex_names)
        for v, link in tree.items():
            if link is not None:
                self._depth[v] = self._depth[link[0]] + link[1].length

    @classmethod
    def interval(cls) -> "ParamDomain":
        return cls("interval", ("0", "1"), (Edge(0, 1, 1.0),))

    @classmethod
    def tree(cls, vertices, edge_list) -> "ParamDomain":
        """Build a tree domain from vertex names and (u, v, length) triples."""
        names = tuple(str(v) for v in vertices)
        if len(set(names)) != len(names):
            raise ProblemValidationError("duplicate vertex names")
        index = {n: i for i, n in enumerate(names)}
        edges = []
        for item in edge_list:
            try:
                u, v, length = item
            except (TypeError, ValueError):
                raise ProblemValidationError(f"edge must be (u, v, length): {item!r}")
            for end in (u, v):
                if str(end) not in index:
                    raise ProblemValidationError(f"edge endpoint {end!r} not a vertex")
            edges.append(Edge(index[str(u)], index[str(v)], float(length)))
        return cls("tree", names, tuple(edges))

    def _validate(self):
        n = len(self.vertex_names)
        if n == 0:
            raise ProblemValidationError("domain needs at least one vertex")
        if len(self.edges) != n - 1:
            raise ProblemValidationError(
                f"a tree on {n} vertices needs {n - 1} edges, got {len(self.edges)}"
            )
        seen = set()
        for e in self.edges:
            if not (e.length > 0 and e.length < float("inf")):
                raise ProblemValidationError(f"edge length must be positive: {e}")
            if e.u == e.v:
                raise ProblemValidationError(f"self-loop at vertex {e.u}")
            key = (min(e.u, e.v), max(e.u, e.v))
            if key in seen:
                raise ProblemValidationError(f"duplicate edge {key}")
            seen.add(key)
        # the total bounds every depth and every sweep length
        total = sum(e.length for e in self.edges)
        if not math.isfinite(total):
            raise ProblemValidationError(f"total edge length {total} is not finite")

    def _search(self, x0: DomainPoint) -> dict[int, Optional[tuple[int, Piece]]]:
        """Breadth-first search of the tree from x0.

        Maps each reached node to its parent and the piece from the parent
        into it; x0 maps to None.  Nodes are vertex indices, and _SEED for an
        interior x0, which splits its edge in two.
        """
        links: dict[int, list[tuple[int, int, float, float]]] = {}
        for ei, e in enumerate(self.edges):
            chain = [(0.0, e.u), (1.0, e.v)]
            if ei == x0.edge:
                chain.insert(1, (x0.t, _SEED))
            for (t1, n1), (t2, n2) in zip(chain, chain[1:]):
                links.setdefault(n1, []).append((n2, ei, t1, t2))
                links.setdefault(n2, []).append((n1, ei, t2, t1))
        start = _SEED if x0.vertex is None else x0.vertex
        tree: dict[int, Optional[tuple[int, Piece]]] = {start: None}
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for other, ei, t_here, t_other in links.get(u, ()):
                if other not in tree:
                    length = abs(t_other - t_here) * self.edges[ei].length
                    tree[other] = (u, Piece(ei, t_here, t_other, length))
                    queue.append(other)
        return tree

    # -- points ------------------------------------------------------------

    def vertex_point(self, v) -> DomainPoint:
        if isinstance(v, str):
            try:
                v = self.vertex_names.index(v)
            except ValueError:
                raise OutOfDomainError(f"unknown vertex {v!r}")
        if not (0 <= v < len(self.vertex_names)):
            raise OutOfDomainError(f"vertex index {v} out of range")
        return DomainPoint(vertex=int(v))

    def edge_point(self, edge: int, t: float) -> DomainPoint:
        if not (0 <= edge < len(self.edges)):
            raise OutOfDomainError(f"edge index {edge} out of range")
        t = float(t)
        if not (0.0 <= t <= 1.0):
            raise OutOfDomainError(f"edge-local t must lie in [0, 1], got {t}")
        if t == 0.0:
            return DomainPoint(vertex=self.edges[edge].u)
        if t == 1.0:
            return DomainPoint(vertex=self.edges[edge].v)
        return DomainPoint(edge=edge, t=t)

    def interval_point(self, t: float) -> DomainPoint:
        if self.kind != "interval":
            raise OutOfDomainError("interval_point on a tree domain")
        return self.edge_point(0, t)

    def coordinate(self, p: DomainPoint) -> float:
        """Arc distance from the base vertex (vertex 0)."""
        if p.vertex is not None:
            return self._depth[p.vertex]
        e = self.edges[p.edge]
        du, dv = self._depth[e.u], self._depth[e.v]
        if dv >= du:
            return du + p.t * e.length
        return dv + (1.0 - p.t) * e.length

    def coordinate_range(self) -> tuple[float, float]:
        return 0.0, max(self._depth)

    def describe_point(self, p: DomainPoint) -> dict:
        """JSON-friendly rendering of a point."""
        if p.vertex is not None:
            return {"vertex": self.vertex_names[p.vertex], "coordinate": self.coordinate(p)}
        return {"edge": p.edge, "t": p.t, "coordinate": self.coordinate(p)}

    @property
    def leaves(self) -> list[int]:
        if len(self.vertex_names) == 1:
            return []
        degree = [0] * len(self.vertex_names)
        for e in self.edges:
            degree[e.u] += 1
            degree[e.v] += 1
        return [i for i, d in enumerate(degree) if d == 1]

    # -- sweeps ------------------------------------------------------------

    def sweep_targets(self, x0: DomainPoint) -> list[SweepSegment]:
        """Leaf-directed segments covering the domain, prefixes deduplicated.

        Segments run from x0 to each leaf other than x0, in vertex order.
        Each resumes at resume_arc, after the longest prefix of pieces
        already on an earlier segment, with the value recorded there.  Its
        stops are the arcs where later segments resume on it, so that steps
        land on them exactly.
        """
        tree = self._search(x0)
        paths: list[tuple[PathSegment, float, set[float]]] = []
        # node -> (index, arc) of the first segment through it, the one
        # that steps onto it and records the value there
        first: dict[int, tuple[int, float]] = {}
        for leaf in self.leaves:
            if x0 == DomainPoint(vertex=leaf):
                continue
            nodes, node = [], leaf
            while tree[node] is not None:
                nodes.append(node)
                node = tree[node][0]
            nodes.reverse()
            pieces = tuple(tree[n][1] for n in nodes)
            seg = PathSegment(self, x0, DomainPoint(vertex=leaf), pieces)
            k = 0
            while k < len(nodes) and nodes[k] in first:
                k += 1
            if k:
                i, arc = first[nodes[k - 1]]
                paths[i][2].add(arc)
            for j, n in enumerate(nodes):
                first.setdefault(n, (len(paths), seg.cum[j + 1]))
            paths.append((seg, seg.cum[k], set()))
        return [
            SweepSegment(seg, resume, tuple(sorted(stops)))
            for seg, resume, stops in paths
        ]


class Piece(NamedTuple):
    """One traversal of (part of) an edge, from t0 to t1 in edge-local units."""

    edge: int
    t0: float
    t1: float
    length: float


class _SegmentFields(NamedTuple):
    domain: ParamDomain
    a: DomainPoint
    b: DomainPoint
    pieces: tuple[Piece, ...]


class PathSegment(_SegmentFields):
    """An injective arc in the domain: ordered pieces from a to b.

    A named tuple with a __dict__, where cum and profile are kept once
    computed."""

    @cached_property
    def cum(self) -> tuple[float, ...]:
        acc = [0.0]
        for p in self.pieces:
            acc.append(acc[-1] + p.length)
        return tuple(acc)

    @property
    def length(self) -> float:
        return self.cum[-1]

    @cached_property
    def profile(self) -> tuple:
        """Everything coordinate(point_at(arc)) reads: the coordinates of a
        and b, and for each piece its length, t0 and t1, its edge's length
        and the depths of the edge's two ends.

        Two segments with equal profiles give equal coordinates at every
        arc, bit for bit, wherever in the domain they lie.
        """
        dom = self.domain
        pieces = []
        for p in self.pieces:
            e = dom.edges[p.edge]
            pieces.append((p.length, p.t0, p.t1, e.length, dom._depth[e.u], dom._depth[e.v]))
        return dom.coordinate(self.a), dom.coordinate(self.b), tuple(pieces)

    def point_at(self, arc: float) -> DomainPoint:
        """The point at the given arc distance from a (clamped to [0, len])."""
        if math.isnan(arc):
            raise OutOfDomainError("arc is NaN")
        if not self.pieces:
            return self.a
        arc = min(max(arc, 0.0), self.length)
        if arc == 0.0:
            return self.a
        if arc == self.length:
            return self.b
        i = bisect_right(self.cum, arc) - 1
        piece = self.pieces[i]
        if arc == self.cum[i]:
            return self.domain.edge_point(piece.edge, piece.t0)
        frac = (arc - self.cum[i]) / piece.length
        t = piece.t0 + (piece.t1 - piece.t0) * frac
        return self.domain.edge_point(piece.edge, min(max(t, 0.0), 1.0))

    def points_at(self, arcs) -> tuple[list[DomainPoint], np.ndarray]:
        """point_at of each arc, and the coordinate of each point.

        Equals point_at then ParamDomain.coordinate arc by arc, bit for
        bit, but clamps the arcs, finds their pieces and edge-local t and
        computes the coordinates in whole-array passes.  Only the points
        themselves are built one by one, by tuple.__new__ (no Python-level
        __new__, no check each), after one array test of every interior
        row's t.
        """
        arcs = np.asarray(arcs, dtype=np.float64)
        if np.isnan(arcs).any():
            raise OutOfDomainError("arc is NaN")
        dom = self.domain
        # a row at a vertex, at a or at b takes its point from here
        fixed = [DomainPoint(vertex=v) for v in range(len(dom.vertex_names))]
        fixed += [self.a, self.b]
        fixed_x = np.array([dom.coordinate(p) for p in fixed])
        if not self.pieces:
            return [self.a] * arcs.size, np.full(arcs.size, fixed_x[-2])
        arc = np.minimum(np.maximum(arcs, 0.0), self.length)
        cum = np.array(self.cum)
        # the last piece for arcs at b, which take b below
        i = np.minimum(np.searchsorted(cum, arc, "right") - 1, len(self.pieces) - 1)
        t0, t1, span, edge = (
            np.array([getattr(p, k) for p in self.pieces])
            for k in ("t0", "t1", "length", "edge")
        )
        # on a piece boundary t is the piece's t0
        t = t0[i]
        mid = np.flatnonzero((arc > 0.0) & (arc < self.length) & (arc != cum[i]))
        k = i[mid]
        frac = (arc[mid] - cum[k]) / span[k]
        t[mid] = np.minimum(np.maximum(t0[k] + (t1[k] - t0[k]) * frac, 0.0), 1.0)
        e = edge[i]
        eu, ev, elen = (
            np.array([getattr(d, k) for d in dom.edges]) for k in ("u", "v", "length")
        )
        du, dv, le = fixed_x[eu[e]], fixed_x[ev[e]], elen[e]
        # each side on its own rows: the other side may overflow
        up = dv >= du
        x = np.empty(arc.shape)
        x[up] = du[up] + t[up] * le[up]
        x[~up] = dv[~up] + (1.0 - t[~up]) * le[~up]
        # t of 0 or 1 is the edge's vertex; a wins over b, as in point_at
        code = np.where(t == 0.0, eu[e], np.where(t == 1.0, ev[e], -1))
        code[arc == self.length] = len(fixed) - 1
        code[arc == 0.0] = len(fixed) - 2
        at = code >= 0
        x[at] = fixed_x[code[at]]
        # DomainPoint's check, once for every interior row: tuple.__new__
        # builds each point without it
        inner = t[~at]
        if not ((inner > 0.0) & (inner < 1.0)).all():
            raise ValueError("interior point needs 0 < t < 1")
        make = partial(tuple.__new__, DomainPoint)
        points = list(map(make, zip(repeat(None), e.tolist(), t.tolist())))
        for k, c in zip(np.flatnonzero(at).tolist(), code[at].tolist()):
            points[k] = fixed[c]
        return points, x


class SweepSegment(NamedTuple):
    """A leaf-directed path, the arc where fresh (uncovered) ground starts,
    and the increasing arcs in (resume_arc, length) where later segments
    resume."""

    segment: PathSegment
    resume_arc: float
    stops: tuple[float, ...]
