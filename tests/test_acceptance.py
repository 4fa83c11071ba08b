"""Acceptance gate: one test per criterion, run with -v for per-criterion lines."""

import json
import time

import numpy as np
import pytest

from rootbranch import (
    Circle,
    EngineConfig,
    ParamDomain,
    PowerSums,
    Status,
    build,
    continue_branch,
    count_zeros,
    fixture_names,
    get_fixture,
    local_monic_factor,
    newton_to_coeffs,
    parse_expression,
    parse_problem,
    resample_branch,
    select_radius,
)
from rootbranch.cli import EXIT_CODES, run
from rootbranch.expressions import Const, EntireFunction, SeriesForm


def poly_fn(coeffs_ascending):
    return SeriesForm(tuple(Const(complex(c)) for c in coeffs_ascending)).to_entire()


@pytest.fixture(scope="module")
def cli_runs(tmp_path_factory):
    """Each fixture through the CLI twice: (exit, elapsed, csv bytes, summary)."""
    out = {}
    for name in fixture_names():
        rec = []
        for tag in ("a", "b"):
            d = tmp_path_factory.mktemp(f"{name}-{tag}")
            spec = parse_problem({"fixture": name})
            t0 = time.time()
            code = run(spec, d)
            dt = time.time() - t0
            rec.append(
                (
                    code,
                    dt,
                    (d / "branch.csv").read_bytes(),
                    json.loads((d / "summary.json").read_text()),
                )
            )
        out[name] = rec
    return out


def test_criterion_1_contour_oracle_suite():
    rng = np.random.default_rng(1001)
    circle = Circle(0j, 2.0, 256)
    t0 = time.time()
    worst = 0.0
    for _ in range(200):
        deg = int(rng.integers(1, 9))
        rad = np.sqrt(rng.uniform(0.0, 1.0, deg))
        ang = rng.uniform(0.0, 2.0 * np.pi, deg)
        roots = rad * np.exp(1j * ang)  # unit disk, >= 1 away from |z| = 2
        coeffs = np.poly(roots)
        f = poly_fn(coeffs[::-1])
        assert count_zeros(f, 0.0, circle) == deg
        p = local_monic_factor(f, 0.0, circle)
        assert p.degree == deg
        err = float(np.max(np.abs(np.array(p.coeffs) - coeffs)))
        worst = max(worst, err)
        assert err <= 1e-8
    elapsed = time.time() - t0
    assert elapsed <= 10.0
    print(f"criterion 1 PASS: 200 factorizations, max coeff err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_newton_roundtrip():
    rng = np.random.default_rng(1002)
    t0 = time.time()
    worst = 0.0
    for _ in range(500):
        deg = int(rng.integers(1, 9))
        low = rng.uniform(-1, 1, deg) + 1j * rng.uniform(-1, 1, deg)
        coeffs = np.concatenate([[1.0 + 0j], low])
        roots = np.roots(coeffs)
        s = np.array(
            [deg] + [np.sum(roots**k) for k in range(1, deg + 1)], dtype=complex
        )
        back = newton_to_coeffs(PowerSums(s, 0j))
        err = float(np.max(np.abs(np.array(back.coeffs) - coeffs)))
        worst = max(worst, err)
        assert err <= 1e-9
    elapsed = time.time() - t0
    assert elapsed <= 5.0
    print(f"criterion 2 PASS: 500 roundtrips, max err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_3_multiplicity_fixture():
    f = EntireFunction(parse_expression("pow(z, 2) - x"))
    loc = select_radius(f, 0.0, 0.0, r_max=0.5)
    assert loc.n == 2
    err = float(np.max(np.abs(np.array(loc.poly.coeffs) - np.array([1.0, 0.0, 0.0]))))
    assert err <= 1e-8
    print(f"criterion 3 PASS: n=2, |P - z^2| = {err:.2e}")


def _linear_root_curves(rng, deg, x_hi):
    """Monic deg <= 5 polynomial whose roots move on well-separated lines."""
    while True:
        a = rng.uniform(-1.2, 1.2, deg) + 1j * rng.uniform(-1.2, 1.2, deg)
        b = rng.uniform(-0.6, 0.6, deg) + 1j * rng.uniform(-0.6, 0.6, deg)
        grid = np.linspace(0.0, x_hi, 33)
        vals = a[:, None] + b[:, None] * grid[None, :]
        sep = np.abs(vals[:, None, :] - vals[None, :, :])
        sep[np.arange(deg), np.arange(deg), :] = np.inf
        if sep.min() >= 0.3:
            return a, b


def _series_texts(a, b):
    """Coefficient texts of prod_j (z - (a_j + b_j x)), ascending in z."""
    cz = [np.array([1.0 + 0j])]  # cz[k]: ascending x-poly for the z^k coeff
    for aj, bj in zip(a, b):
        rho = np.array([aj, bj])
        nxt = []
        for k in range(len(cz) + 1):
            parts = []
            if k >= 1:
                parts.append(cz[k - 1])
            if k < len(cz):
                parts.append(-np.convolve(cz[k], rho))
            ln = max(len(p) for p in parts)
            acc = np.zeros(ln, dtype=complex)
            for p in parts:
                acc[: len(p)] += p
            nxt.append(acc)
        cz = nxt
    texts = []
    for xs in cz:
        terms = []
        for p, c in enumerate(xs):
            base = f"({float(c.real)!r} + {float(c.imag)!r}*i)"
            if p == 0:
                terms.append(base)
            elif p == 1:
                terms.append(f"{base}*x")
            else:
                terms.append(f"{base}*pow(x, {p})")
        texts.append(" + ".join(terms))
    return texts, cz


def _oracle_gap(dom, br, f, cz, n_samples):
    """Max distance from resampled branch values to the pointwise root sets."""
    grids = {
        i: np.linspace(0.0, sw.segment.length, k)
        for i, sw, k in _split_counts(br.sweeps, n_samples)
    }
    out = resample_branch(f, br, 0, arcs_by_segment=grids)
    assert len(out) == n_samples
    worst_gap = 0.0
    worst_res = 0.0
    for s in out:
        x = dom.coordinate(s.point)
        coeffs_desc = [np.polyval(c[::-1], x) for c in reversed(cz)]
        roots = np.roots(coeffs_desc)
        worst_gap = max(worst_gap, float(np.min(np.abs(roots - s.w))))
        worst_res = max(worst_res, s.residual)
    return worst_gap, worst_res


def _split_counts(sweeps, total):
    base = total // len(sweeps)
    rem = total - base * len(sweeps)
    for i, sw in enumerate(sweeps):
        yield i, sw, base + (1 if i < rem else 0)


def test_criterion_4_algebraically_closed_regression():
    rng = np.random.default_rng(1004)
    interval = ParamDomain.interval()
    ytree = ParamDomain.tree(
        ["c", "a", "b", "d"],
        [["c", "a", 0.5], ["c", "b", 0.5], ["c", "d", 0.5]],
    )
    t0 = time.time()
    worst_gap = 0.0
    worst_res = 0.0
    for case in range(20):
        deg = 2 + case % 4
        for dom, seed_pt, x_hi in (
            (interval, interval.interval_point(0.0), 1.0),
            (ytree, ytree.vertex_point("c"), 0.5),
        ):
            a, b = _linear_root_curves(rng, deg, x_hi)
            texts, cz = _series_texts(a, b)
            f = SeriesForm(tuple(parse_expression(t) for t in texts)).to_entire()
            br = continue_branch(f, dom, seed_pt, complex(a[0]))
            assert br.status.kind is Status.COMPLETED
            gap, res = _oracle_gap(dom, br, f, cz, 1000)
            worst_gap = max(worst_gap, gap)
            worst_res = max(worst_res, res)
            assert res <= 1e-8
            assert gap <= 1e-6
    elapsed = time.time() - t0
    assert elapsed <= 60.0
    print(
        f"criterion 4 PASS: 20 polynomials x 2 domains, max oracle gap "
        f"{worst_gap:.2e}, max residual {worst_res:.2e}, {elapsed:.1f}s"
    )


def test_criterion_5_fixture_statuses(cli_runs):
    expected = {
        "counterexample-x2z-x": ("AsymptoticBlowup", 2),
        "remark-exp": ("Completed", 0),
        "remark-exp-asymptotic": ("AsymptoticBlowup", 2),
        "example1-sin": ("NonConvergent", 4),
        "example2-phi": ("AsymptoticBlowup", 2),
    }
    for name, (status, code) in expected.items():
        got_code, dt, _, summary = cli_runs[name][0]
        assert summary["status"] == status, name
        assert got_code == code, name
        assert dt <= 30.0, name

    # remark-exp stays on the zero branch
    _, _, csv_a, _ = cli_runs["remark-exp"][0]
    rows = csv_a.decode().strip().splitlines()[1:]
    sup = max(
        abs(complex(float(r.split(",")[4]), float(r.split(",")[5]))) for r in rows
    )
    assert sup <= 1e-12

    # the sin example's unreachable endpoint x=0 is flagged degenerate, and
    # the run ends on the oscillation it shows, not on the step budget
    diag = cli_runs["example1-sin"][0][3]["diagnostics"]
    assert diag["endpoint_degenerate"] is True
    assert diag["endpoint_coordinate"] == 0.0
    assert diag["reason"] == "oscillation"
    assert diag["accepted_steps"] <= 1000

    # blowup locations sit at the expected domain ends
    loc = cli_runs["counterexample-x2z-x"][0][3]["status_location"]
    assert loc["coordinate"] <= 0.01
    loc = cli_runs["example2-phi"][0][3]["status_location"]
    assert loc["coordinate"] >= 0.9
    print("criterion 5 PASS: all example statuses, diagnostics, and timings")


def test_criterion_6_certified_steps():
    checked_total = 0
    for name in fixture_names():
        fx = get_fixture(name)
        prob = dict(fx.problem)
        prob["config"] = {**prob.get("config", {}), "certify_steps": True}
        f, dom, x0, z0, cfg = build(parse_problem(prob))
        br = continue_branch(f, dom, x0, z0, cfg)
        d = br.status.diagnostics
        assert d.get("certify_failures", 0) == 0, name
        checked_total += d.get("certify_checked", 0)
    assert checked_total > 0
    print(f"criterion 6 PASS: {checked_total} recounts, zero violations")


def test_criterion_7_derivative_check():
    rng = np.random.default_rng(1007)
    for name in fixture_names():
        f, dom, x0, z0, cfg = build(parse_problem({"fixture": name}))
        lo, hi = dom.coordinate_range()
        done = 0
        while done < 100:
            x = float(rng.uniform(lo, hi))
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            try:
                d = f.eval_dz(x, z)
                h = 1e-6 * (1.0 + abs(z))
                fd = (f.eval(x, z + h) - f.eval(x, z - h)) / (2.0 * h)
            except Exception:
                continue  # overflow probe, draw another
            if not (np.isfinite(d) and np.isfinite(fd)):
                continue
            assert abs(d - fd) <= 1e-6 * (1.0 + abs(d)), name
            done += 1
    print("criterion 7 PASS: 100 derivative probes per fixture")


def test_criterion_8_deterministic_csv(cli_runs):
    for name, rec in cli_runs.items():
        (code_a, _, csv_a, _), (code_b, _, csv_b, _) = rec
        assert code_a == code_b, name
        assert csv_a == csv_b, name
    print(f"criterion 8 PASS: byte-identical CSV for {len(cli_runs)} fixtures")
