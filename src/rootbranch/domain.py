"""Parameter domains: the unit interval or a finite metric tree.

Both are represented as metric trees (the interval is a single unit edge),
so path and sweep logic is written once.  A point's scalar coordinate is its
arc distance from the base vertex (the first vertex listed); expressions
receive that scalar as x.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from functools import cached_property

from .errors import OutOfDomainError, ProblemValidationError


@dataclass(frozen=True)
class Edge:
    u: int
    v: int
    length: float


@dataclass(frozen=True)
class DomainPoint:
    """Canonical point: either a vertex, or strictly interior to an edge.

    Canonical form makes equality and hashing reliable: edge endpoints are
    always expressed as vertex points.
    """

    vertex: int | None = None
    edge: int | None = None
    t: float = 0.0

    def __post_init__(self):
        if (self.vertex is None) == (self.edge is None):
            raise ValueError("point must set exactly one of vertex/edge")
        if self.edge is not None and not (0.0 < self.t < 1.0):
            raise ValueError("interior point needs 0 < t < 1")


class ParamDomain:
    """A finite metric tree (or the unit interval as the one-edge case)."""

    def __init__(self, kind: str, vertex_names: tuple[str, ...], edges: tuple[Edge, ...]):
        self.kind = kind
        self.vertex_names = vertex_names
        self.edges = edges
        self._validate()
        self._depth = self._compute_depths()

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
        # connectivity; with |E| = |V| - 1 this also rules out cycles
        if n > 1:
            adj = self._adjacency()
            reached = {0}
            queue = deque([0])
            while queue:
                u = queue.popleft()
                for _, other in adj[u]:
                    if other not in reached:
                        reached.add(other)
                        queue.append(other)
            if len(reached) != n:
                raise ProblemValidationError("domain graph is not connected")

    def _adjacency(self):
        adj: dict[int, list[tuple[int, int]]] = {i: [] for i in range(len(self.vertex_names))}
        for ei, e in enumerate(self.edges):
            adj[e.u].append((ei, e.v))
            adj[e.v].append((ei, e.u))
        return adj

    def _compute_depths(self):
        depth = [0.0] * len(self.vertex_names)
        if len(self.vertex_names) == 1:
            return depth
        adj = self._adjacency()
        seen = {0}
        queue = deque([0])
        while queue:
            u = queue.popleft()
            for ei, other in adj[u]:
                if other not in seen:
                    seen.add(other)
                    depth[other] = depth[u] + self.edges[ei].length
                    queue.append(other)
        return depth

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

    # -- paths ---------------------------------------------------------------

    def path_between(self, a: DomainPoint, b: DomainPoint) -> "PathSegment":
        """The unique arc from a to b, as ordered edge pieces."""
        if a == b:
            return PathSegment(self, a, b, ())
        # splice interior endpoints into the vertex graph, then BFS
        A_NODE, B_NODE = -1, -2
        extra: dict[int, list[tuple[float, int]]] = {}
        for node, p in ((A_NODE, a), (B_NODE, b)):
            if p.edge is not None:
                extra.setdefault(p.edge, []).append((p.t, node))

        def node_of(p: DomainPoint, default: int) -> int:
            return p.vertex if p.vertex is not None else default

        # links: node -> list of (other, edge, t_here, t_other)
        links: dict[int, list[tuple[int, int, float, float]]] = {}

        def link(n1, n2, e, t1, t2):
            links.setdefault(n1, []).append((n2, e, t1, t2))
            links.setdefault(n2, []).append((n1, e, t2, t1))

        for ei, e in enumerate(self.edges):
            chain = [(0.0, e.u)] + sorted(extra.get(ei, [])) + [(1.0, e.v)]
            for (t1, n1), (t2, n2) in zip(chain, chain[1:]):
                if t1 != t2 or n1 != n2:
                    link(n1, n2, ei, t1, t2)

        start = node_of(a, A_NODE)
        goal = node_of(b, B_NODE)
        parent: dict[int, tuple[int, int, float, float]] = {start: None}
        queue = deque([start])
        while queue and goal not in parent:
            u = queue.popleft()
            for other, e, t_here, t_other in links.get(u, ()):
                if other not in parent:
                    parent[other] = (u, e, t_here, t_other)
                    queue.append(other)
        if goal not in parent:
            raise OutOfDomainError("no path between points (disconnected?)")
        rev = []
        node = goal
        while parent[node] is not None:
            prev, e, t_prev, t_node = parent[node]
            rev.append(Piece(e, t_prev, t_node, abs(t_node - t_prev) * self.edges[e].length))
            node = prev
        return PathSegment(self, a, b, tuple(reversed(rev)))

    def sweep_targets(self, x0: DomainPoint) -> list["SweepSegment"]:
        """Leaf-directed segments covering the domain, prefixes deduplicated.

        Segments run from x0 to each leaf (sorted by vertex index).  Arcs
        already covered by earlier segments are skipped via resume_arc: the
        continuation restarts there with the junction value recorded by the
        segment that covered the shared prefix.
        """
        covered: dict[int, list[tuple[float, float]]] = {}

        def is_covered(piece: Piece) -> bool:
            lo, hi = sorted((piece.t0, piece.t1))
            return any(clo <= lo and hi <= chi for clo, chi in covered.get(piece.edge, ()))

        out = []
        for leaf in self.leaves:
            if x0 == self.vertex_point(leaf):
                continue
            path = self.path_between(x0, self.vertex_point(leaf))
            if not path.pieces:
                continue
            resume = 0.0
            for piece in path.pieces:
                if not is_covered(piece):
                    break
                resume += piece.length
            for piece in path.pieces:
                lo, hi = sorted((piece.t0, piece.t1))
                ivs = covered.setdefault(piece.edge, [])
                ivs.append((lo, hi))
            out.append(SweepSegment(path, resume))
        return out


@dataclass(frozen=True)
class Piece:
    """One traversal of (part of) an edge, from t0 to t1 in edge-local units."""

    edge: int
    t0: float
    t1: float
    length: float


@dataclass(frozen=True)
class PathSegment:
    """An injective arc in the domain: ordered pieces from a to b."""

    domain: ParamDomain
    a: DomainPoint
    b: DomainPoint
    pieces: tuple[Piece, ...]

    @cached_property
    def cum(self) -> tuple[float, ...]:
        acc = [0.0]
        for p in self.pieces:
            acc.append(acc[-1] + p.length)
        return tuple(acc)

    @property
    def length(self) -> float:
        return self.cum[-1]

    def point_at(self, arc: float) -> DomainPoint:
        """The point at the given arc distance from a (clamped to [0, len])."""
        if not self.pieces:
            return self.a
        arc = min(max(arc, 0.0), self.length)
        if arc == 0.0:
            return self.a
        if arc == self.length:
            return self.b
        i = bisect_right(self.cum, arc) - 1
        if i >= len(self.pieces):
            return self.b
        piece = self.pieces[i]
        if arc == self.cum[i]:
            return self.domain.edge_point(piece.edge, piece.t0)
        frac = (arc - self.cum[i]) / piece.length
        t = piece.t0 + (piece.t1 - piece.t0) * frac
        return self.domain.edge_point(piece.edge, min(max(t, 0.0), 1.0))

    def arc_of(self, p: DomainPoint) -> float:
        """Arc distance of a point known to lie on this segment."""
        if p == self.a:
            return 0.0
        if p == self.b:
            return self.length
        for i, piece in enumerate(self.pieces):
            lo, hi = sorted((piece.t0, piece.t1))
            if p.edge == piece.edge and lo <= p.t <= hi:
                return self.cum[i] + abs(p.t - piece.t0) * self.domain.edges[piece.edge].length
            if p.vertex is not None:
                start = self.domain.edge_point(piece.edge, piece.t0)
                if start == p:
                    return self.cum[i]
        raise OutOfDomainError("point does not lie on this segment")


@dataclass(frozen=True)
class SweepSegment:
    """A leaf-directed path plus the arc where fresh (uncovered) ground starts."""

    segment: PathSegment
    resume_arc: float
