import tracemalloc

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

from nslb.cli import forced_bump_solution, heat_bump_solution
from nslb import kernels
from nslb.cone import CylinderSpec
from nslb.kernels import (
    BoundReport,
    KernelSpec,
    _CylinderLattice,
    boundary_density,
    boundary_kernel_series,
    duhamel_residual,
    elliptic_integral_check,
    gaussian,
    gaussian_derivative,
    kernel_bound_check,
)

from oracles import accumulated_lattice_apply, dense_propagator, dense_sup_1d, midpoint_grid


def test_kernel_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec(nu_eff=0.0, n=2)
    with pytest.raises(ValueError):
        KernelSpec(nu_eff=1.0, n=4)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            KernelSpec(nu_eff=bad, n=2)


def test_gaussian_point_value_and_rejection():
    spec = KernelSpec(nu_eff=1.0 / (4 * np.pi), n=3)
    assert gaussian(1.0, np.zeros(3), spec) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        gaussian(0.0, np.zeros(3), spec)
    with pytest.raises(ValueError):
        gaussian_derivative(-1.0, np.zeros(3), 0, spec)
    # three 1-D points have shape (3, 1): one value each
    want = np.exp(-np.array([0.1, 0.2, 0.3]) ** 2 / 0.2) / np.sqrt(0.2 * np.pi)
    np.testing.assert_allclose(gaussian(0.1, [[0.1], [0.2], [0.3]], KernelSpec(nu_eff=0.5, n=1)), want, rtol=1e-15)


@settings(max_examples=60, deadline=None)
@given(
    n=st.sampled_from([1, 2, 3]),
    t=st.floats(1e-3, 10.0),
    nu=st.floats(1e-3, 10.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_one_point_and_one_row_agree_bit_for_bit(n, t, nu, seed):
    # a single point once took |y|^2 from a BLAS dot product, whose bits
    # differ from the row sum of squares in about one case in seven
    spec = KernelSpec(nu_eff=nu, n=n)
    ys = np.random.default_rng(seed).normal(size=(50, n)) * np.sqrt(4 * nu * t)
    for y in ys:
        assert np.asarray(gaussian(t, y, spec)).tobytes() == gaussian(t, y[None], spec)[0].tobytes()
        for j in range(n):
            one = gaussian_derivative(t, y, j, spec)
            assert np.asarray(one).tobytes() == gaussian_derivative(t, y[None], j, spec)[0].tobytes()


@pytest.mark.parametrize("n, y", [(2, [0.1, 0.2, 0.3]), (1, [0.1, 0.2, 0.3]), (3, [[0.1, 0.2]]), (2, 0.1)])
def test_gaussian_rejects_points_of_the_wrong_dimension(n, y):
    # the last axis holds the coordinates; a flat (3,) once came back as a
    # single value for every n
    spec = KernelSpec(nu_eff=0.5, n=n)
    with pytest.raises(ValueError, match=f"shape .* n = {n}"):
        gaussian(0.1, y, spec)
    with pytest.raises(ValueError, match=f"shape .* n = {n}"):
        gaussian_derivative(0.1, y, 0, spec)


def test_gaussian_symmetry_and_mass():
    spec = KernelSpec(nu_eff=0.7, n=2)
    y = np.array([0.3, -0.4])
    assert gaussian(0.5, y, spec) == gaussian(0.5, -y, spec)
    # radial quadrature of the mass: 2 pi int r G(r) dr = 1
    val, _ = scipy.integrate.quad(lambda r: 2 * np.pi * r * gaussian(0.5, np.array([r, 0.0]), spec), 0, 20)
    assert abs(val - 1.0) < 1e-8
    spec3 = KernelSpec(nu_eff=0.2, n=3)
    val3, _ = scipy.integrate.quad(
        lambda r: 4 * np.pi * r**2 * gaussian(0.3, np.array([r, 0.0, 0.0]), spec3), 0, 20
    )
    assert abs(val3 - 1.0) < 1e-8


def test_gaussian_derivative_properties():
    spec = KernelSpec(nu_eff=0.3, n=2)
    assert gaussian_derivative(0.9, np.array([0.0, 0.5]), 0, spec) == 0.0
    # odd in y_j, sign opposite to y_j
    y = np.array([0.4, -0.7])
    d = gaussian_derivative(0.9, y, 0, spec)
    d_ref = gaussian_derivative(0.9, np.array([-0.4, -0.7]), 0, spec)
    assert d == pytest.approx(-d_ref)
    assert np.sign(d) == -np.sign(y[0])
    # centered finite difference oracle
    h = 1e-6
    fd = (gaussian(0.9, y + [h, 0], spec) - gaussian(0.9, y - [h, 0], spec)) / (2 * h)
    assert abs(fd - d) <= 1e-8 * abs(d)


def test_semigroup_identity():
    spec = KernelSpec(nu_eff=0.5, n=2)
    a, b = 0.04, 0.06
    pts, cell = midpoint_grid(-1.5, 1.5, 192, 2)
    z = np.array([0.15, -0.1])
    v = np.array([-0.2, 0.05])
    comp = np.sum(gaussian(a, z - pts, spec) * gaussian(b, pts - v, spec)) * cell
    assert abs(comp - gaussian(a + b, z - v, spec)) <= 1e-6


@pytest.mark.parametrize("delta", [0.25, 0.5, 0.75, 0.9])
@pytest.mark.parametrize("kind", ["kernel", "derivative"])
def test_kernel_bounds_all_deltas(delta, kind):
    observed = []
    for nu in (0.01, 0.1, 1.0):
        rep = kernel_bound_check(delta, KernelSpec(nu_eff=nu, n=3), kind=kind)
        assert isinstance(rep, BoundReport)
        assert rep.passed, f"{kind} delta={delta} nu={nu}: {rep.c_observed} > {rep.c_predicted}"
        observed.append(rep.c_observed)
    # the weighted scan depends on (t, y) only through |y|^2/(4 nu t)
    assert (max(observed) - min(observed)) / max(observed) <= 1e-9


def test_kernel_bound_predicted_constant_example():
    rep = kernel_bound_check(0.75, KernelSpec(nu_eff=0.1, n=3), kind="derivative")
    # sup_z z^1.75 exp(-z^2) = (1.75 / 2e)^(1.75 / 2), at z^2 = 1.75 / 2
    assert rep.c_predicted == (1.75 / (2 * np.e)) ** (1.75 / 2)
    assert rep.c_predicted == pytest.approx(0.3709, abs=2e-4)


@pytest.mark.parametrize(
    "n, delta, kind",
    # the bounded audits: the kernel one needs delta <= n/2
    [
        (n, delta, kind)
        for n in (1, 2, 3)
        for delta in (0.1, 0.25, 0.5, 0.75, 0.9, 0.99)
        for kind in ("kernel", "derivative")
        if kind == "derivative" or delta <= n / 2
    ],
)
def test_kernel_bound_closed_forms_match_dense_scan(n, delta, kind):
    # the closed forms against dense 1-D maximization of the same profiles
    a = n / 2 - delta if kind == "kernel" else n / 2 + 1 - delta
    if kind == "kernel":
        scan = np.pi ** (delta - n / 2) * dense_sup_1d(lambda q: q**a * np.exp(-q))
    else:
        scan = dense_sup_1d(lambda z: z**a * np.exp(-(z**2)))
    closed = kernel_bound_check(delta, KernelSpec(nu_eff=0.1, n=n), kind=kind).c_predicted
    # where the maximiser is a grid node (n = 2, delta = 0.5: q = 0.5) the
    # scan reads 1 ulp above the correctly rounded sup, so allow round-off
    assert closed >= scan * (1 - 1e-15)
    if a > 0:
        assert closed <= scan * (1 + 1e-8)
    else:
        # a = 0: the sup is the limit q -> 0, where the scan's grid starts at 1e-4
        assert closed == 1.0 and scan == np.exp(-1e-4)


def test_kernel_bound_rejects_unbounded_kernel_audit():
    # delta > n/2 (reachable only with n = 1): |y|^(n - 2 delta) blows up at y = 0
    spec = KernelSpec(nu_eff=0.1, n=1)
    with pytest.raises(ValueError, match="infinite"):
        kernel_bound_check(0.75, spec, kind="kernel")
    assert kernel_bound_check(0.75, spec, kind="derivative").passed
    # delta = n/2: the weighted kernel is e^(-q), whose sup 1 sits at y = 0
    rep = kernel_bound_check(0.5, spec, kind="kernel")
    assert rep.c_predicted == 1.0
    assert rep.passed and rep.c_observed == pytest.approx(1.0, rel=1e-15)


@settings(max_examples=40, deadline=None)
@given(
    n=st.sampled_from([1, 2, 3]),
    delta=st.floats(1e-3, 1 - 1e-3),
    nu=st.floats(1e-3, 10.0),
    kind=st.sampled_from(["kernel", "derivative"]),
)
def test_kernel_bound_passes_with_tight_slack(n, delta, nu, kind):
    # both weighted kernels are c q^a e^(-q) in q = |y|^2 / (4 nu t), so the
    # scan, which holds the stationary radius q = a, finds c (a/e)^a; for the
    # kernel that is the printed constant itself, up to round-off
    if kind == "kernel" and delta > n / 2:
        return
    rep = kernel_bound_check(delta, KernelSpec(nu_eff=nu, n=n), kind=kind)
    assert rep.passed, f"{rep.c_observed} > {rep.c_predicted}"
    a = n / 2 - delta if kind == "kernel" else n / 2 + 1 - delta
    c = np.pi ** (delta - n / 2) if kind == "kernel" else 2 * np.pi**-a
    assert rep.c_observed == pytest.approx(c * (a / np.e) ** a, rel=1e-13)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("delta", [0.25, 0.5, 0.75, 0.9])
def test_derivative_audit_observes_the_sharp_constant(n, delta):
    # |d_1 G| / pi (4 pi nu t)^delta |y|^(n + 1 - 2 delta) = 2 pi^(-a) q^a e^(-q)
    # in q = |y|^2 / (4 nu t), a = n/2 + 1 - delta: the scan finds its sup
    # 2 pi^(-a) (a/e)^a, so a derivative kernel off by any factor moves it
    # (the reported c_predicted, (a/2e)^(a/2), is 2.7-3.7x larger)
    rep = kernel_bound_check(delta, KernelSpec(nu_eff=0.1, n=n), kind="derivative")
    a = n / 2 + 1 - delta
    assert rep.c_observed == pytest.approx(2 * np.pi**-a * (a / np.e) ** a, rel=1e-12)


def test_kernel_bound_edge_delta_finite():
    rep = kernel_bound_check(0.99, KernelSpec(nu_eff=0.1, n=2), kind="derivative")
    assert np.isfinite(rep.c_observed) and np.isfinite(rep.c_predicted)


def test_elliptic_integral_ball_volume():
    rep = elliptic_integral_check(0.0, 0.0, 1.0, [0.1, 0.5])
    assert np.allclose(rep.integrals, 4 * np.pi / 3, rtol=1e-8)
    assert rep.bound_holds


def test_elliptic_integral_two_pole_scaling():
    rep = elliptic_integral_check(2.0, 0.5, 1.0, [0.05, 0.1, 0.2, 0.3, 0.5, 1.0])
    # the |x|^{n-a-b} branch: measured against n - a - b = 0.5 within 15%
    assert abs(rep.small_x_slope - rep.predicted_slope) <= 0.15 * abs(rep.predicted_slope)
    assert rep.bound_holds


def test_elliptic_integral_far_field():
    # x far outside the ball: integral ~ |x|^{ -a } int |y|^{-b}
    a, b, radius = 2.0, 0.5, 1.0
    xs = [5.0, 10.0]
    rep = elliptic_integral_check(a, b, radius, xs)
    tail = 4 * np.pi * radius ** (3 - b) / (3 - b)  # int_B |y|^{-b} dy
    for x, val in zip(rep.x_values, rep.integrals):
        assert val == pytest.approx(tail / x**a, rel=0.05)


def _quad_elliptic_integrals(a, b, radius, xs, **quad_kw):
    """The radial integrals of ``elliptic_integral_check`` by adaptive
    ``scipy.integrate.quad`` on the same break points."""

    def sphere_factor(x, r):
        lo, hi = (x - r) ** 2 or 1e-30, (x + r) ** 2
        if a == 2.0:
            return np.pi / (x * r) * np.log(hi / lo)
        pw = 1.0 - a / 2.0
        return np.pi / (x * r) * (hi**pw - lo**pw) / pw

    out = []
    for x in xs:
        total, lo = 0.0, 0.0
        for hi in sorted({min(x, radius), radius}):
            if hi > lo:
                total += scipy.integrate.quad(lambda r: r ** (2 - b) * sphere_factor(x, r), lo, hi, **quad_kw)[0]
                lo = hi
        out.append(total)
    return np.array(out)


def test_elliptic_integral_matches_tight_quad_on_configured_case():
    xs = [0.05, 0.1, 0.2, 0.3, 0.5, 1.0]
    rep = elliptic_integral_check(2.0, 0.5, 1.0, xs)
    want = _quad_elliptic_integrals(2.0, 0.5, 1.0, xs, epsabs=0, epsrel=1e-13, limit=500)
    np.testing.assert_allclose(rep.integrals, want, rtol=1e-12, atol=0)


@pytest.mark.parametrize("b", [0.0, 0.5, 1.5])
def test_elliptic_integral_without_pole_at_x_is_closed_form(b):
    # a = 0: I(x) = int_B |y|^{-b} dy = 4 pi R^{3-b} / (3-b) for every x
    radius = 1.0
    rep = elliptic_integral_check(0.0, b, radius, [0.1, 0.5, 1.0, 5.0])
    np.testing.assert_allclose(rep.integrals, 4 * np.pi * radius ** (3 - b) / (3 - b), rtol=1e-13, atol=0)


@pytest.mark.parametrize("a", [0.0, 1.0, 2.0, 2.5, 2.9])
@pytest.mark.parametrize("b", [0.0, 0.5, 1.5, 2.5])
def test_elliptic_integral_matches_default_quad_on_pole_grid(a, b):
    # log (a = 2) and algebraic (a up to 2.9, b up to 2.5) endpoint poles at r = x and r = 0
    xs = [0.05, 0.3, 0.5, 1.0, 5.0]
    rep = elliptic_integral_check(a, b, 1.0, xs)
    assert np.all(np.isfinite(rep.integrals))
    np.testing.assert_allclose(rep.integrals, _quad_elliptic_integrals(a, b, 1.0, xs, limit=200), rtol=1e-7, atol=0)


def test_elliptic_integral_rejects_nonintegrable():
    with pytest.raises(ValueError):
        elliptic_integral_check(3.0, 0.5, 1.0, [0.1])
    with pytest.raises(ValueError):
        elliptic_integral_check(0.5, 3.2, 1.0, [0.1])


@pytest.mark.parametrize("a, b, radius", [(2.0, 0.5, 1.0), (0.5, 1.0, 2.0), (0.0, 0.0, 1.0), (1.5, 1.4, 0.7)])
def test_elliptic_integral_at_origin_is_closed_form(a, b, radius):
    # I(0) = int_B |y|^{-a-b} dy = 4 pi R^{3-a-b} / (3-a-b); the small-x fit
    # skips x = 0
    rep = elliptic_integral_check(a, b, radius, [0.0, 0.05, 0.1, 0.5])
    assert rep.integrals[0] == pytest.approx(4 * np.pi * radius ** (3 - a - b) / (3 - a - b), rel=1e-13)
    assert np.all(np.isfinite(rep.integrals))
    without_origin = elliptic_integral_check(a, b, radius, [0.05, 0.1, 0.5])
    np.testing.assert_array_equal(rep.integrals[1:], without_origin.integrals)
    np.testing.assert_equal(rep.small_x_slope, without_origin.small_x_slope)
    assert rep.bound_holds


@pytest.mark.parametrize("a, b", [(2.0, 1.0), (2.5, 0.9)])
def test_elliptic_integral_at_origin_rejects_divergent(a, b):
    with pytest.raises(ValueError, match="I\\(0\\) diverges"):
        elliptic_integral_check(a, b, 1.0, [0.0, 0.1])
    elliptic_integral_check(a, b, 1.0, [0.1, 0.2])  # x > 0 stays finite


def test_boundary_series_base_case_and_decay():
    spec = KernelSpec(nu_eff=0.5, n=2)
    cyl = CylinderSpec(t_in=1.0, r_0=0.5)
    target = (1.3, np.array([0.1, 0.0]))
    source = (1.0, np.array([-0.1, 0.05]))
    res1 = boundary_kernel_series(1, cyl, spec, target, source)
    assert res1.value == pytest.approx(gaussian(0.3, target[1] - source[1], spec))
    res6 = boundary_kernel_series(6, cyl, spec, target, source, m_x=16, m_t=8)
    tail = np.abs(res6.terms[-3:])
    assert tail[0] > tail[1] > tail[2]
    assert res6.tail_converged


def test_boundary_series_composition_bounded_by_free_kernel():
    # composing over the bounded base loses mass against the free composition
    spec = KernelSpec(nu_eff=0.5, n=2)
    cyl = CylinderSpec(t_in=1.0, r_0=0.5)
    target = (1.2, np.array([0.05, 0.0]))
    source = (1.0, np.array([-0.05, 0.0]))
    res = boundary_kernel_series(2, cyl, spec, target, source, m_x=20, m_t=10)
    # whole-space analogue of term 2: int_s^tau G(tau+s-2sigma...) collapses to
    # (tau - s) G(tau - s) by the semigroup identity
    free_term2 = (target[0] - source[0]) * gaussian(target[0] - source[0], target[1] - source[1], spec)
    assert res.terms[1] <= free_term2 * (1 + 1e-9)


@settings(max_examples=25, deadline=None)
@given(
    n=st.sampled_from([2, 3]),
    m_t=st.sampled_from([1, 2, 3, 6]),
    m_x=st.integers(8, 12),
    nu_eff=st.sampled_from([0.05, 0.5]),
    seed=st.integers(0, 2**32 - 1),
)
def test_lattice_apply_matches_dense_propagator(n, m_t, m_x, nu_eff, seed):
    # odd m_x puts a node at the ball's centre, even m_x does not; nu_eff =
    # 0.05 makes the kernel sharp on the grid; m_t = 1 has no gap at all
    spec = KernelSpec(nu_eff=nu_eff, n=n)
    lat = _CylinderLattice(CylinderSpec(t_in=1.0, r_0=0.5), spec, 1.0, 1.3, m_x, m_t)
    dense = dense_propagator(lat.pts, lat.mids, lat.cell, lat.dt, spec.nu_eff)
    x = np.random.default_rng(seed).normal(size=m_t * lat.n_nodes)
    want = dense @ x
    assert np.max(np.abs(lat.apply(x) - want)) <= 1e-13 * np.max(np.abs(want))


def test_series_and_density_match_dense_propagator_powers():
    # term k of the series is tw . P^(k-2) state0, and the density's series
    # part is sum_k tw . P^k bracket, with P the dense lattice propagator
    spec = KernelSpec(nu_eff=0.5, n=2)
    cyl = CylinderSpec(t_in=1.0, r_0=0.5)
    (tau, z), (s, v) = (1.3, np.array([0.1, 0.0])), (1.0, np.array([-0.1, 0.05]))
    lat = _CylinderLattice(cyl, spec, s, tau, 10, 6)
    dense = dense_propagator(lat.pts, lat.mids, lat.cell, lat.dt, spec.nu_eff)
    state = np.concatenate([gaussian(m - s, lat.pts - v, spec) for m in lat.mids])
    tw = lat.target_weights(z)
    want = [gaussian(tau - s, z - v, spec)]
    for _ in range(4):
        want.append(tw @ state)
        state = dense @ state
    got = boundary_kernel_series(5, cyl, spec, (tau, z), (s, v), m_x=10, m_t=6).terms
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-13

    def field(s, xi):
        xi = np.atleast_2d(xi)
        return np.cos(3 * xi[:, 0] + s) + xi[:, 1] ** 2

    def zero(s, xi):
        return np.zeros(len(np.atleast_2d(xi)))

    z_pts = cyl.r_0 * np.array([[1.0, 0.0], [0.0, 1.0], [-0.6, 0.8]])
    got = boundary_density(zero, field, zero, cyl, spec, 1.05, z_pts, series_order=3, m_x=10, m_t=6)
    lat = _CylinderLattice(cyl, spec, cyl.t_in, 1.05, 10, 6)
    dense = dense_propagator(lat.pts, lat.mids, lat.cell, lat.dt, spec.nu_eff)
    vals = np.concatenate([2.0 * field(m, lat.pts) for m in lat.mids])
    powers = [vals, dense @ vals, dense @ (dense @ vals)]
    want = 2.0 * field(1.05, z_pts) + [sum(lat.target_weights(zp) @ p for p in powers) for zp in z_pts]
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_boundary_series_3d_at_default_size():
    # the documented defaults m_x=16, m_t=8 in 3D: the lattice keeps the
    # m_t - 1 kernel spectra on the (2 m_x - 1)^3 box, and no array with
    # an entry per pair of nodes; a series with two propagator applications
    # holds the spectra, the state's modes and a few planes (4.26 MB, 2.59
    # spectra; 5.80 MB with the batched transforms and the kernel stack)
    spec = KernelSpec(nu_eff=0.5, n=3)
    cyl = CylinderSpec(t_in=1.0, r_0=0.5)
    target = (1.3, np.array([0.1, 0.0, 0.05]))
    source = (1.0, np.array([-0.1, 0.05, 0.0]))
    tracemalloc.start()
    try:
        res = boundary_kernel_series(4, cyl, spec, target, source)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.terms[0] == gaussian(target[0] - source[0], target[1] - source[1], spec)
    assert np.all(np.isfinite(res.terms)) and abs(res.terms[3]) < abs(res.terms[2]) < abs(res.terms[1]) < res.terms[0]
    lat = _CylinderLattice(cyl, spec, source[0], target[0], 16, 8)
    arrays = [a for a in vars(lat).values() if isinstance(a, np.ndarray)]
    assert arrays and all(a.size < lat.n_nodes**2 for a in arrays)
    size = 2 * 16 - 1
    assert lat.spectra.shape == (7, size, size, size // 2 + 1)
    assert lat.spectra.nbytes == 7 * size**2 * (size // 2 + 1) * 16
    assert peak <= 2.7 * lat.spectra.nbytes, (peak, lat.spectra.nbytes)


@settings(max_examples=20, deadline=None)
@given(n=st.sampled_from([2, 3]), m_t=st.sampled_from([1, 2, 3, 6, 8]), m_x=st.integers(8, 12), seed=st.integers(0, 2**32 - 1))
def test_lattice_apply_in_place_matches_accumulated_convolution(n, m_t, m_x, seed):
    # the in-place convolution sums each plane's gaps in the same order, from zero
    lat = _CylinderLattice(CylinderSpec(t_in=1.0, r_0=0.5), KernelSpec(nu_eff=0.5, n=n), 1.0, 1.3, m_x, m_t)
    x = np.random.default_rng(seed).normal(size=m_t * lat.n_nodes)
    assert lat.apply(x).tobytes() == accumulated_lattice_apply(lat, x).tobytes()


def test_lattice_apply_memory_stays_within_its_spectra():
    # the spectra are built one gap at a time: the stack and one gap's
    # kernel and transform temporaries (1.59 spectra; 2.20 with the kernel stack)
    lat = _CylinderLattice(CylinderSpec(t_in=1.0, r_0=0.5), KernelSpec(nu_eff=0.5, n=3), 1.0, 1.3, 14, 8)
    tracemalloc.start()
    try:
        spectra = lat.spectra
        build_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert build_peak <= 1.7 * spectra.nbytes, (build_peak, spectra.nbytes)
    # with the spectra built, apply holds the modes (one spectra's bytes),
    # one box, one work plane and its output; each time plane is transformed
    # on its own (1.35 spectra; 2.22 with batched transforms)
    x = np.random.default_rng(2).normal(size=lat.m_t * lat.n_nodes)
    tracemalloc.start()
    try:
        lat.apply(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * spectra.nbytes, (peak, spectra.nbytes)


def test_duhamel_residual_never_builds_the_lattice_spectra(monkeypatch):
    # the residual reads the nodes and quadrature weights only; the
    # gap-kernel spectra are built on the first apply
    lattices = []

    class Recorded(kernels._CylinderLattice):
        def __init__(self, *args):
            super().__init__(*args)
            lattices.append(self)

    monkeypatch.setattr(kernels, "_CylinderLattice", Recorded)
    spec = KernelSpec(nu_eff=0.5, n=2)
    cyl = CylinderSpec(t_in=1.0, r_0=0.5)
    state, source = forced_bump_solution(cyl, spec.nu_eff, sigma0=cyl.r_0 / 4.5)
    duhamel_residual(state, source, cyl, spec, cyl.t_in + 0.05, 17, 4, [[0.0, 0.0], [0.25, 0.0]])
    assert len(lattices) == 1 and "spectra" not in vars(lattices[0])
    boundary_kernel_series(3, cyl, spec, (1.05, np.array([0.1, 0.0])), (1.0, np.zeros(2)), m_x=10, m_t=4)
    assert len(lattices) == 2 and vars(lattices[1])["spectra"].shape == (3, 19, 10)
    # apply keeps nothing on the lattice but the spectra: its planes are its own
    assert set(vars(lattices[1])) == set(vars(lattices[0])) | {"spectra"}


def test_series_and_density_match_dense_propagator_in_3d():
    spec = KernelSpec(nu_eff=0.5, n=3)
    cyl = CylinderSpec(t_in=1.0, r_0=0.5)
    (tau, z), (s, v) = (1.3, np.array([0.1, 0.0, 0.05])), (1.0, np.array([-0.1, 0.05, 0.0]))
    lat = _CylinderLattice(cyl, spec, s, tau, 10, 4)
    dense = dense_propagator(lat.pts, lat.mids, lat.cell, lat.dt, spec.nu_eff)
    state = np.concatenate([gaussian(m - s, lat.pts - v, spec) for m in lat.mids])
    tw = lat.target_weights(z)
    want = [gaussian(tau - s, z - v, spec)]
    for _ in range(3):
        want.append(tw @ state)
        state = dense @ state
    got = boundary_kernel_series(4, cyl, spec, (tau, z), (s, v), m_x=10, m_t=4).terms
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-13

    def field(s, xi):
        return np.cos(3 * xi[:, 0] + s) + xi[:, 1] * xi[:, 2]

    def zero(s, xi):
        return np.zeros(len(xi))

    z_pts = cyl.r_0 * np.eye(3)
    got = boundary_density(zero, field, zero, cyl, spec, 1.05, z_pts, series_order=3, m_x=10, m_t=4)
    lat = _CylinderLattice(cyl, spec, cyl.t_in, 1.05, 10, 4)
    dense = dense_propagator(lat.pts, lat.mids, lat.cell, lat.dt, spec.nu_eff)
    vals = np.concatenate([2.0 * field(m, lat.pts) for m in lat.mids])
    powers = [vals, dense @ vals, dense @ (dense @ vals)]
    want = 2.0 * field(1.05, z_pts) + [sum(lat.target_weights(zp) @ p for p in powers) for zp in z_pts]
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def _zero(s, xi):
    return np.zeros(len(xi))


def _one(s, xi):
    return np.ones(len(xi))


@pytest.mark.parametrize("m_t", [0, -2])
def test_lattice_and_its_callers_reject_m_t_below_one(m_t):
    spec = KernelSpec(nu_eff=0.5, n=2)
    cyl = CylinderSpec(t_in=1.0, r_0=0.5)
    z = np.array([0.1, 0.0])
    with pytest.raises(ValueError, match="m_t"):
        _CylinderLattice(cyl, spec, 1.0, 1.3, 10, m_t)
    for K in (1, 3):
        with pytest.raises(ValueError, match="m_t"):
            boundary_kernel_series(K, cyl, spec, (1.3, z), (1.0, -z), m_x=10, m_t=m_t)
    with pytest.raises(ValueError, match="m_t"):
        boundary_density(_zero, _zero, _zero, cyl, spec, 1.05, [z], m_x=10, m_t=m_t)
    with pytest.raises(ValueError, match="m_t"):
        duhamel_residual(_zero, None, cyl, spec, 1.05, 10, m_t, [z])


def test_boundary_density_rejects_negative_series_order_and_early_tau():
    spec = KernelSpec(nu_eff=0.5, n=2)
    cyl = CylinderSpec(t_in=1.0, r_0=0.5)
    z_pts = [[0.5, 0.0]]
    with pytest.raises(ValueError, match="series_order"):
        boundary_density(_zero, _zero, _zero, cyl, spec, 1.05, z_pts, series_order=-1, m_x=10, m_t=4)
    for tau in (1.0, 0.9):
        with pytest.raises(ValueError, match="tau"):
            boundary_density(_zero, _zero, _zero, cyl, spec, tau, z_pts, m_x=10, m_t=4)
    # series_order = 0 is the density without the series
    np.testing.assert_array_equal(boundary_density(_zero, _one, _zero, cyl, spec, 1.05, z_pts, series_order=0), [2.0])


@pytest.mark.parametrize("point", [[0.5], [np.nan, 0.0, 0.0]])
def test_boundary_density_checks_its_points_as_duhamel_checks_probes(point):
    # in 3D a one-coordinate point was broadcast against every lattice node,
    # and a nan point gave a nan density
    spec = KernelSpec(nu_eff=0.5, n=3)
    cyl = CylinderSpec(t_in=1.0, r_0=0.5)
    with pytest.raises(ValueError, match="probes of shape|probe 0 .*not finite"):
        boundary_density(_one, _one, _one, cyl, spec, 1.05, [point])
    # a lateral point r_0 e_i lies in the closed base ball
    assert np.all(np.isfinite(boundary_density(_one, _one, _one, cyl, spec, 1.05, [[0.0, 0.0, cyl.r_0]])))


def test_duhamel_pure_heat_residual():
    spec = KernelSpec(nu_eff=0.5, n=2)
    cyl = CylinderSpec(t_in=1.0, r_0=0.5)
    probes = [[0.0, 0.0], [0.25, 0.0], [0.0, -0.25]]
    heat = heat_bump_solution(cyl, spec.nu_eff, sigma0=cyl.r_0 / 6.0)
    assert duhamel_residual(heat, None, cyl, spec, cyl.t_in + 0.05, 33, 8, probes) <= 1e-4


def test_duhamel_zero_everything():
    spec = KernelSpec(nu_eff=0.5, n=2)
    cyl = CylinderSpec(t_in=1.0, r_0=0.5)
    assert duhamel_residual(_zero, None, cyl, spec, cyl.t_in + 0.05, 17, 4, [[0.0, 0.0]]) == 0.0
    assert duhamel_residual(_zero, _zero, cyl, spec, cyl.t_in + 0.05, 17, 4, [[0.0, 0.0]]) == 0.0


def test_duhamel_constant_source_canary():
    # dropping a constant source from the right side shows up as c * elapsed
    spec = KernelSpec(nu_eff=0.5, n=2)
    cyl = CylinderSpec(t_in=1.0, r_0=0.5)
    horizon, c_src = 0.05, 0.8
    heat = heat_bump_solution(cyl, spec.nu_eff, sigma0=cyl.r_0 / 6.0)

    def state(s, xi):
        return heat(s, xi) + c_src * (s - cyl.t_in)

    def source(s, xi):
        return np.full(len(xi), c_src)

    probes = [[0.0, 0.0]]
    with_src = duhamel_residual(state, source, cyl, spec, cyl.t_in + horizon, 33, 8, probes)
    without_src = duhamel_residual(state, None, cyl, spec, cyl.t_in + horizon, 33, 8, probes)
    # the constant-source state does not vanish at the base rim, so a few
    # percent of kernel mass belongs to the (omitted) boundary term; the
    # canary still separates cleanly: dropping the source costs c * elapsed
    assert with_src <= 0.03 * c_src * horizon
    assert without_src == pytest.approx(c_src * horizon, rel=0.05)


def test_duhamel_forced_refinement_order():
    # separable manufactured solution: the residual is quadrature error and
    # falls at the midpoint rule's formal order under joint refinement
    spec = KernelSpec(nu_eff=0.5, n=2)
    cyl = CylinderSpec(t_in=1.0, r_0=0.5)
    state, source = forced_bump_solution(cyl, spec.nu_eff, sigma0=cyl.r_0 / 4.5)

    def run(m, m_t):
        return duhamel_residual(state, source, cyl, spec, cyl.t_in + 0.05, m, m_t, [[0.0, 0.0], [0.25, 0.0]])

    coarse = run(17, 4)
    fine = run(33, 8)
    assert fine < coarse
    assert coarse / fine >= 3.0  # formal order 2 modulo boundary leakage


@pytest.mark.parametrize("probe", [[0.45, 0.45], [2.0, 0.0], [np.nan, 0.0], [0.0, np.inf], [0.1], [0.1, 0.0, 0.0]])
def test_duhamel_rejects_probes_off_the_ball(probe):
    # (0.45, 0.45) lies just outside the radius-0.5 ball; [0.1] and
    # [0.1, 0, 0] have the wrong number of coordinates
    spec = KernelSpec(nu_eff=0.5, n=2)
    cyl = CylinderSpec(t_in=1.0, r_0=0.5)
    heat = heat_bump_solution(cyl, spec.nu_eff, sigma0=cyl.r_0 / 6.0)
    probes = [np.zeros(len(probe)), probe]  # the origin, in the probe's dimension, is accepted
    with pytest.raises(ValueError, match="probe 1 .*(off the base ball|not finite)|probes of shape"):
        duhamel_residual(heat, None, cyl, spec, cyl.t_in + 0.05, 33, 8, probes)
    # the rim of the closed ball, on a grid node or between nodes, is accepted
    rim = duhamel_residual(heat, None, cyl, spec, cyl.t_in + 0.05, 33, 8, [[0.5, 0.0], [0.0, -0.5], [0.3, 0.4]])
    assert rim <= 1e-4


@pytest.mark.parametrize("tau", [1.0, 0.9])
def test_duhamel_rejects_tau_at_or_before_entry(tau):
    spec = KernelSpec(nu_eff=0.5, n=2)
    cyl = CylinderSpec(t_in=1.0, r_0=0.5)
    with pytest.raises(ValueError, match="tau"):
        duhamel_residual(_zero, None, cyl, spec, tau, 17, 4, [[0.0, 0.0]])


def test_boundary_density_sign_variants():
    # both printed sign variants are evaluable; they coincide when the
    # nonlinear convolution vanishes and differ by 4x its value when it is
    # switched on; nothing here decides which sign is right
    spec = KernelSpec(nu_eff=0.5, n=2)
    cyl = CylinderSpec(t_in=1.0, r_0=0.5)
    tau = 1.05
    z_pts = cyl.r_0 * np.array([[1.0, 0.0], [0.0, 1.0]])

    def trace(s, xi):
        return np.full(len(np.atleast_2d(xi)), 0.01)

    def init_conv(s, xi):
        return np.full(len(np.atleast_2d(xi)), 0.02)

    def zero_nl(s, xi):
        return np.zeros(len(np.atleast_2d(xi)))

    def nl(s, xi):
        return np.full(len(np.atleast_2d(xi)), 0.005)

    base_plus = boundary_density(trace, init_conv, zero_nl, cyl, spec, tau, z_pts, n_term_sign=+1)
    base_minus = boundary_density(trace, init_conv, zero_nl, cyl, spec, tau, z_pts, n_term_sign=-1)
    assert np.allclose(base_plus, base_minus)
    with_nl_plus = boundary_density(trace, init_conv, nl, cyl, spec, tau, z_pts, n_term_sign=+1)
    with_nl_minus = boundary_density(trace, init_conv, nl, cyl, spec, tau, z_pts, n_term_sign=-1)
    assert np.max(np.abs(with_nl_plus - with_nl_minus)) == pytest.approx(4 * 0.005, rel=1e-9)
    with pytest.raises(ValueError):
        boundary_density(trace, init_conv, nl, cyl, spec, tau, z_pts, n_term_sign=0)
