import numpy as np
import pytest

from rootbranch import OutOfDomainError, ParamDomain, ProblemValidationError


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


def test_path_between_leaves_passes_junction():
    dom = ytree()
    seg = dom.path_between(dom.vertex_point("a"), dom.vertex_point("b"))
    assert seg.length == pytest.approx(1.0)
    mid = seg.point_at(0.5)
    assert dom.describe_point(mid).get("vertex") == "c"


def test_path_arc_of_inverts_point_at():
    dom = ytree()
    seg = dom.path_between(dom.vertex_point("a"), dom.vertex_point("d"))
    for arc in np.linspace(0.0, seg.length, 17):
        p = seg.point_at(float(arc))
        assert seg.arc_of(p) == pytest.approx(float(arc), abs=1e-12)


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
    seg = dom.path_between(dom.vertex_point("a"), dom.vertex_point("b"))
    p = seg.point_at(0.5)
    assert p.vertex is not None
    assert p.edge is None
