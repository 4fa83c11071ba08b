import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootbranch import DomainPoint, OutOfDomainError, ParamDomain, ProblemValidationError


def ytree():
    return ParamDomain.tree(
        ["c", "a", "b", "d"],
        [["c", "a", 0.5], ["c", "b", 0.5], ["c", "d", 0.5]],
    )


def test_interval_basics():
    dom = ParamDomain.interval()
    assert dom.coordinate_range() == (0.0, 1.0)
    p = dom.interval_point(0.3)
    assert dom.coordinate(p) == pytest.approx(0.3)
    d = dom.describe_point(p)
    assert d["coordinate"] == pytest.approx(0.3)


def test_interval_point_bounds():
    dom = ParamDomain.interval()
    with pytest.raises(OutOfDomainError):
        dom.interval_point(1.5)
    with pytest.raises(OutOfDomainError):
        dom.interval_point(-0.1)


def test_tree_coordinates_are_distances_from_root_vertex():
    dom = ytree()
    assert dom.coordinate(dom.vertex_point("c")) == 0.0
    assert dom.coordinate(dom.vertex_point("a")) == pytest.approx(0.5)
    assert dom.coordinate(dom.edge_point(0, 0.25)) == pytest.approx(0.125)
    assert dom.coordinate_range() == (0.0, 0.5)


def sweep_from_a_to(dom, leaf):
    """The sweep from leaf a of the Y-tree to another leaf."""
    sweeps = dom.sweep_targets(dom.vertex_point("a"))
    return next(sw for sw in sweeps if sw.segment.b == dom.vertex_point(leaf))


def test_sweep_between_leaves_passes_junction():
    dom = ytree()
    seg = sweep_from_a_to(dom, "b").segment
    assert seg.length == pytest.approx(1.0)
    mid = seg.point_at(0.5)
    assert dom.describe_point(mid).get("vertex") == "c"
    # arc is measured from the seed: down to c, then up to b
    for arc in np.linspace(0.0, seg.length, 17):
        p = seg.point_at(float(arc))
        assert dom.coordinate(p) == pytest.approx(abs(0.5 - float(arc)), abs=1e-12)


def test_junction_arc_is_a_stop_of_the_earlier_sweep():
    dom = ytree()
    to_b, to_d = sweep_from_a_to(dom, "b"), sweep_from_a_to(dom, "d")
    # the sweep to d resumes at c, which the sweep to b passes at arc 0.5
    assert to_b.resume_arc == 0.0
    assert to_d.resume_arc == pytest.approx(0.5)
    assert to_d.segment.point_at(to_d.resume_arc) == dom.vertex_point("c")
    assert to_b.stops == (to_d.resume_arc,)
    assert to_d.stops == ()


def test_sweeps_cover_domain_once():
    dom = ytree()
    for seed in (dom.vertex_point("c"), dom.edge_point(0, 0.5), dom.vertex_point("a")):
        sweeps = dom.sweep_targets(seed)
        covered = sum(sw.segment.length - sw.resume_arc for sw in sweeps)
        assert covered == pytest.approx(1.5)


def test_sweeps_cover_interval():
    dom = ParamDomain.interval()
    sweeps = dom.sweep_targets(dom.interval_point(0.25))
    covered = sum(sw.segment.length - sw.resume_arc for sw in sweeps)
    assert covered == pytest.approx(1.0)
    ends = sorted(
        dom.coordinate(sw.segment.point_at(sw.segment.length)) for sw in sweeps
    )
    assert ends == [0.0, 1.0]


def test_sweeps_end_at_leaves():
    dom = ytree()
    sweeps = dom.sweep_targets(dom.edge_point(1, 0.5))
    leaf_names = set()
    for sw in sweeps:
        d = dom.describe_point(sw.segment.point_at(sw.segment.length))
        leaf_names.add(d.get("vertex"))
    assert leaf_names == {"a", "b", "d"}


def test_shared_prefix_resume_arcs():
    dom = ytree()
    # seed 0.25 from c on the a-edge; paths to b and d share [seed -> c]
    sweeps = dom.sweep_targets(dom.edge_point(0, 0.5))
    resumes = sorted(sw.resume_arc for sw in sweeps)
    assert resumes == pytest.approx([0.0, 0.0, 0.25])


def test_tree_validation():
    with pytest.raises(ProblemValidationError):
        ParamDomain.tree(["a", "b", "c"], [["a", "b", 1.0], ["b", "c", 1.0], ["c", "a", 1.0]])
    with pytest.raises(ProblemValidationError):
        ParamDomain.tree(["a", "b", "c"], [["a", "b", 1.0]])
    with pytest.raises(ProblemValidationError):
        ParamDomain.tree(["a", "b"], [["a", "b", -1.0]])
    with pytest.raises(ProblemValidationError):
        ParamDomain.tree(["a", "b"], [["a", "x", 1.0]])


def test_edge_point_validation():
    dom = ytree()
    with pytest.raises(OutOfDomainError):
        dom.edge_point(0, 1.5)
    with pytest.raises(OutOfDomainError):
        dom.edge_point(7, 0.5)


def test_junction_points_are_exact_vertices():
    dom = ytree()
    sw = sweep_from_a_to(dom, "b")
    p = sw.segment.point_at(sw.stops[0])
    assert p.vertex is not None
    assert p.edge is None


@st.composite
def trees(draw, lengths=st.floats(0.1, 3.0), flips=st.booleans()):
    """A random tree on 2-9 vertices, labels shuffled, each edge's
    direction reversed where ``flips`` draws True, its edge lengths drawn
    from ``lengths``."""
    n = draw(st.integers(2, 9))
    label = draw(st.permutations(range(n)))
    edges = []
    for v in range(1, n):
        u = draw(st.integers(0, v - 1))
        ends = [f"v{label[u]}", f"v{label[v]}"]
        if draw(flips):
            ends.reverse()
        edges.append([*ends, draw(lengths)])
    return ParamDomain.tree([f"v{i}" for i in range(n)], draw(st.permutations(edges)))


@settings(deadline=None)
@given(dom=trees(), t=st.floats(0.01, 0.99))
def test_sweep_plan_covers_once_and_resumes_at_stops(dom, t):
    seeds = [dom.vertex_point(v) for v in range(len(dom.vertex_names))]
    seeds += [dom.edge_point(e, t) for e in range(len(dom.edges))]
    for x0 in seeds:
        sweeps = dom.sweep_targets(x0)
        ends = [sw.segment.b for sw in sweeps]
        assert ends == [dom.vertex_point(v) for v in dom.leaves if dom.vertex_point(v) != x0]
        # the fresh pieces tile every edge exactly once
        fresh = {e: [] for e in range(len(dom.edges))}
        for sw in sweeps:
            seg = sw.segment
            for i, piece in enumerate(seg.pieces):
                if seg.cum[i] >= sw.resume_arc:
                    fresh[piece.edge].append(tuple(sorted((piece.t0, piece.t1))))
        for ivs in fresh.values():
            ivs.sort()
            assert ivs[0][0] == 0.0 and ivs[-1][1] == 1.0
            assert all(a[1] == b[0] for a, b in zip(ivs, ivs[1:]))
        for j, sw in enumerate(sweeps):
            stops = sw.stops
            assert all(sw.resume_arc < a < sw.segment.length for a in stops)
            assert all(a < b for a, b in zip(stops, stops[1:]))
            start = sw.segment.point_at(sw.resume_arc)
            at_stops = [sweeps[i].segment.point_at(a) for i in range(j) for a in sweeps[i].stops]
            assert start == x0 if sw.resume_arc == 0.0 else start in at_stops
            # and each stop is where some later sweep resumes
            later = [s.segment.point_at(s.resume_arc) for s in sweeps[j + 1:]]
            assert all(sw.segment.point_at(a) in later for a in stops)


def _arc_cases(sw, extra):
    """Arcs on and around every landmark of a sweep, plus extra ones."""
    seg = sw.segment
    marks = [0.0, -0.0, seg.length, *seg.cum, *sw.stops, sw.resume_arc]
    near = [np.nextafter(a, d) for a in marks for d in (-np.inf, np.inf)]
    return [*marks, *near, -1.0, -1e-300, seg.length + 1.0, 2.0 * seg.length, *extra]


def _assert_points_at_is_point_at(dom, x0, extra):
    for sw in dom.sweep_targets(x0):
        seg = sw.segment
        arcs = [float(a) for a in _arc_cases(sw, [a * seg.length for a in extra])]
        points, x = seg.points_at(arcs)
        assert len(points) == len(arcs) and x.dtype == np.float64
        for arc, p, xk in zip(arcs, points, x.tolist()):
            want = seg.point_at(arc)
            assert p == want, (arc, p, want)
            assert p.t.hex() == want.t.hex()
            assert xk.hex() == dom.coordinate(want).hex(), arc


_FRACTIONS = st.lists(st.floats(-0.2, 1.2), max_size=20)


@settings(deadline=None)
@given(extra=_FRACTIONS, t=st.floats(0.01, 0.99))
def test_points_at_is_point_at_bit_for_bit(extra, t):
    for dom in (ParamDomain.interval(), ytree()):
        seeds = [dom.vertex_point(v) for v in range(len(dom.vertex_names))]
        seeds += [dom.edge_point(e, t) for e in range(len(dom.edges))]
        for x0 in seeds:
            _assert_points_at_is_point_at(dom, x0, extra)


@settings(deadline=None)
@given(dom=trees(), data=st.data(), extra=_FRACTIONS)
def test_points_at_is_point_at_on_random_trees(dom, data, extra):
    vertex = data.draw(st.integers(0, len(dom.vertex_names) - 1))
    edge = data.draw(st.integers(0, len(dom.edges) - 1))
    t = data.draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    for x0 in (dom.vertex_point(vertex), dom.edge_point(edge, t)):
        _assert_points_at_is_point_at(dom, x0, extra)


def test_points_at_edge_cases():
    dom = ytree()
    seg = sweep_from_a_to(dom, "b").segment
    points, x = seg.points_at([])
    assert points == [] and x.shape == (0,)
    with pytest.raises(OutOfDomainError, match="NaN"):
        seg.point_at(float("nan"))
    with pytest.raises(OutOfDomainError, match="NaN"):
        seg.points_at([0.25, float("nan")])


def test_points_at_builds_the_points_point_at_builds():
    # points_at builds its interior points without the constructor's
    # check; each is still a DomainPoint that equals and hashes as
    # point_at's, at a vertex, at a, at b and inside every piece
    dom = ytree()
    seg = sweep_from_a_to(dom, "b").segment
    arcs = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, seg.length]
    points, _ = seg.points_at(arcs)
    kinds = set()
    for arc, p in zip(arcs, points):
        want = seg.point_at(arc)
        assert type(p) is type(want) is DomainPoint
        assert p == want and hash(p) == hash(want)
        kinds.add(p.vertex if p.edge is None else "edge")
    assert kinds == {1, 0, 2, "edge"}


def test_domain_point_is_a_checked_named_tuple():
    p = DomainPoint(edge=1, t=0.25)
    assert p == (None, 1, 0.25) and p[1] == 1 and tuple(p) == (None, 1, 0.25)
    assert repr(p) == "DomainPoint(vertex=None, edge=1, t=0.25)"
    assert DomainPoint(vertex=2) == DomainPoint(2, None, 0.0)
    assert hash(DomainPoint(vertex=2)) == hash(DomainPoint(vertex=2))
    for bad in (
        dict(vertex=0, edge=0),
        dict(),
        dict(edge=0, t=0.0),
        dict(edge=0, t=1.0),
        dict(edge=0, t=float("nan")),
    ):
        with pytest.raises(ValueError):
            DomainPoint(**bad)
    # _replace goes through the same check; _make is the unchecked way in
    assert p._replace(t=0.5) == DomainPoint(edge=1, t=0.5)
    with pytest.raises(ValueError):
        p._replace(t=1.0)
    with pytest.raises(ValueError):
        p._replace(vertex=0)
    for name in ("vertex", "edge", "t"):
        with pytest.raises(AttributeError):
            setattr(p, name, 0)
    with pytest.raises(AttributeError):
        p.other = 0
