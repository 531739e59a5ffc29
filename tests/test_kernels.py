"""Kernel evaluation: the two equivalent forms, the ladder family and its
specializations."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nvk.errors import DomainError
from nvk.kernels import (
    kernel_1d,
    kernel_nd_rational,
    kernel_nd_sum,
    ladder_kernel,
    ladder_kernel_full,
    ladder_weight,
    ladder_z_sum,
    require_upper_half,
)
from nvk.measures import integrate, lebesgue
from nvk.sampling import draw_ladder_coefficients, draw_upper_point, rng_for
from nvk.transform import ladder_matrix

PI = math.pi

upper_z = st.builds(
    complex,
    st.floats(min_value=-3, max_value=3),
    st.floats(min_value=0.05, max_value=4),
)


def test_kernel_1d_values():
    assert kernel_1d(1j, 0.0) == 1j
    assert abs(kernel_1d(2j, 1.0) - (-3 + 4j) / 10) < 1e-15
    v = kernel_1d(1 + 1j, 3.0)
    assert abs(v.imag - 1.0 / 5.0) < 1e-15  # Im z / |t - z|^2


@given(upper_z, st.floats(min_value=-5, max_value=5))
@settings(max_examples=100, deadline=None)
def test_kernel_1d_positive_imaginary_part(z, t):
    assert kernel_1d(z, t).imag > 0


@given(upper_z, st.floats(min_value=-5, max_value=5))
@settings(max_examples=100, deadline=None)
def test_kernel_1d_closed_fraction_identity(z, t):
    lhs = (1 + t * z) / ((1 + t * t) * (t - z))
    assert abs(lhs - kernel_1d(z, t)) < 1e-13 * (1 + abs(lhs))


def test_two_variable_spot_value_exact():
    assert kernel_nd_sum((1j, 1j), (0.0, 0.0)) == 1j
    assert kernel_nd_rational((1j, 1j), (0.0, 0.0)) == 1j
    assert np.all(kernel_nd_rational((1j, 1j), (np.zeros(4), 0.0)) == 1j)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_form_equivalence(n):
    rng = rng_for(100, n)
    worst = 0.0
    for _ in range(250):
        z = draw_upper_point(rng, n, re_box=(-3, 3), im_box=(0.1, 4))
        t = tuple(rng.uniform(-4, 4, n))
        a = kernel_nd_sum(z, t)
        b = kernel_nd_rational(z, t)
        worst = max(worst, abs(a - b) / (1.0 + abs(b)))
    assert worst <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_form_equivalence_on_arrays(n):
    # Node arrays as the quadrature passes them, and mixed scalar/array
    # coordinates as outer levels of a nest pass them.
    rng = rng_for(106, n)
    for _ in range(20):
        z = draw_upper_point(rng, n, re_box=(-3, 3), im_box=(0.1, 4))
        t = [rng.uniform(-40, 40, 64) for _ in range(n)]
        for scalars in range(n + 1):
            ts = tuple(float(tj[0]) if j < scalars else tj for j, tj in enumerate(t))
            a = np.broadcast_to(kernel_nd_sum(z, ts), (64,))
            b = kernel_nd_rational(z, ts)
            assert np.shape(b) == (() if scalars == n else (64,))
            assert np.max(np.abs(a - b) / (1.0 + np.abs(b))) <= 1e-12


def test_one_variable_reduction():
    rng = rng_for(101)
    for _ in range(20):
        z = rng.uniform(-3, 3) + 1j * rng.uniform(0.1, 4)
        t = rng.uniform(-5, 5)
        assert abs(kernel_nd_sum((z,), (t,)) - kernel_1d(z, t)) < 1e-14


def test_no_real_poles():
    rng = rng_for(102)
    for _ in range(200):
        n = int(rng.integers(1, 5))
        z = draw_upper_point(rng, n, im_box=(0.05, 5))
        t = tuple(rng.uniform(-50, 50, n))
        v = kernel_nd_rational(z, t)
        assert np.isfinite(v.real) and np.isfinite(v.imag)


def test_domain_error_outside_upper_half_plane():
    with pytest.raises(DomainError):
        kernel_1d(-1j, 0.0)
    with pytest.raises(DomainError):
        kernel_nd_rational((1j, 1.0 + 0j), (0.0, 0.0))


def test_near_pole_warning():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        kernel_1d(1.0 + 1e-13j, 1.0)
    assert any("ill-conditioned" in str(w.message) for w in caught)


def _pole_warnings(call) -> int:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        call()
    return sum("ill-conditioned" in str(w.message) for w in caught)


@pytest.mark.parametrize("im", [1e-13, 1e-12, 1e-6, 1.0])
def test_near_pole_warning_once_per_call(im):
    # The check is on the point, once per call: a sweep of nodes, or an
    # evaluation that calls the kernel once per atom, warns at most once.
    from nvk.measures import Atomic
    from nvk.representation import RepresentationData, evaluate

    nodes = np.linspace(-5.0, 5.0, 1001)
    z2, z3 = (0.3 + 1j * im, -0.2 + 1j), (0.3 + 1j * im, -0.2 + 1j, 0.1 + 0.5j)
    atoms = (((2.0,), 1.0), ((-1.0,), 0.5), ((4.0,), 2.0))
    calls = [
        lambda: kernel_nd_rational(z2, (nodes, 0.5)),
        lambda: kernel_nd_sum(z3, (nodes, nodes, -0.5)),
        lambda: evaluate(RepresentationData(0.0, (1.0,), Atomic(atoms)), (z2[0],)),
        lambda: evaluate(RepresentationData(0.0, (1.0, 0.0), Atomic(
            tuple(((x, -x), w) for (x,), w in atoms))), z2),
    ]
    for call in calls:
        assert _pole_warnings(call) == (1 if im < 1e-12 else 0)


def test_ladder_kernel_base_spot_values():
    z = (1j, 1j)
    assert ladder_kernel_full(z, (0.0, 0.0), (1.0,)) == 1j
    lhs = ladder_kernel_full(z, (1.0, 1.0), (1.0,))
    assert abs(lhs - kernel_nd_rational(z, (0.0, 2.0))) < 1e-15


def test_ladder_kernel_full_matches_matrix_composition():
    rng = rng_for(103)
    for _ in range(50):
        n = int(rng.integers(2, 5))
        z = draw_upper_point(rng, n)
        b = draw_ladder_coefficients(rng, n)
        t = rng.uniform(-3, 3, n)
        image = ladder_matrix(b) @ t
        a = ladder_kernel_full(z, tuple(t), b)
        c = kernel_nd_rational(z, tuple(image))
        assert abs(a - c) <= 1e-12 * (1 + abs(c))


def test_ladder_kernel_zero_integrations_specialization():
    rng = rng_for(104)
    for _ in range(200):
        n = int(rng.integers(2, 5))
        z = draw_upper_point(rng, n)
        b = draw_ladder_coefficients(rng, n)
        t = tuple(rng.uniform(-3, 3, n))
        # d = 0 has unit weight and plain coordinate sums.
        assert ladder_weight(n, 0, b) == 1.0
        assert ladder_z_sum(n, 0, b, z) == complex(z[-1])
        a = ladder_kernel(z, t, b, n, 0)
        c = ladder_kernel_full(z, t, b)
        assert abs(a - c) <= 1e-13 * (1 + abs(c))


def test_ladder_kernel_mid_rung_against_quadrature(cfg):
    # One integration of the three-variable composed kernel equals the
    # (2, 1) kernel with prefactor pi/b_2.
    z = (1j, 1j, 1j)
    b = (1.0, 1.0)
    assert ladder_weight(2, 1, b) == 2.0
    direct = ladder_kernel(z, (0.0, 0.0), b, 2, 1)
    r = integrate(lebesgue(), lambda x: ladder_kernel_full(z, (0.0, 0.0, x), b), cfg)
    assert r.converged
    assert abs(r.value / (PI / b[1]) - direct) < 1e-8


def test_ladder_kernel_finite_on_sweep():
    rng = rng_for(105)
    for _ in range(10_000):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(1, n + 1))
        d = n - m
        z = draw_upper_point(rng, n, im_box=(0.05, 5))
        b = draw_ladder_coefficients(rng, n)
        t = tuple(rng.uniform(-30, 30, m))
        v = ladder_kernel(z, t, b, m, d)
        assert np.isfinite(v.real) and np.isfinite(v.imag)


def test_ladder_kernel_validation():
    with pytest.raises(DomainError):
        ladder_kernel((1j, 1j), (0.0,), (1.0,), 2, 1)  # m + d != n
    with pytest.raises(DomainError):
        ladder_kernel_full((1j, 1j), (0.0, 0.0), (-1.0,))


# Values of the ladder kernels from the hand-derived single fraction they
# replaced, (z, b, t) drawn below; each row is the scalar-t value, then the
# values with t_m = (t_m, -t_m, t_m / 2) as one array.
_LADDER_PINS = {
    (2, 1): ((-0.020559181809406378+0.06629234260696297j), (-0.02055918180940638+0.06629234260696297j), (0.00013069154231860295+0.08818339591503238j), (-0.05238880868743315+0.17100881640491644j)),
    (2, 2): ((-0.00593417888803289+0.00544535729592586j), (-0.005934178888032892+0.005445357295925859j), (-0.0006396764260855536+0.0039001786126764016j), (-0.037992359584634296-0.0070851137023893755j)),
    (3, 1): ((0.04013373663730567+0.08048236398406854j), (0.04013373663730567+0.08048236398406852j), (-0.370011763754581+0.26121251313452454j), (-0.04092177009353202+0.10530086217829976j)),
    (3, 2): ((0.00772581991013306+0.0012294447473396408j), (0.00772581991013306+0.0012294447473396397j), (-0.0005734483653622709+0.005477976132602101j), (0.007955650477456354+0.007483228172463295j)),
    (3, 3): ((0.0001820445943829134+0.0007900663652251885j), (0.00018204459438291332+0.0007900663652251884j), (0.00025400202160668825+0.0018726042087276254j), (0.001964693701353738+0.0034744604704858334j)),
    (4, 1): ((0.04777384808040337+0.21882394635398028j), (0.047773848080403344+0.21882394635398028j), (-0.0768932840348941+0.22998700224625204j), (0.018364266519745875+0.22710999884028343j)),
    (4, 2): ((0.0004677101497764487+0.007642512911213809j), (0.0004677101497764487+0.007642512911213809j), (0.0037592020088069865+0.01115790824667941j), (0.0008020110539323541+0.008098712445620514j)),
    (4, 3): ((0.0007562202399502852+0.0010822991879172476j), (0.0007562202399502853+0.0010822991879172474j), (-0.00027461893178777017+0.0016698329205549881j), (0.002244390305855359+0.002147441641641724j)),
    (4, 4): ((-0.001126417226424017+0.00014226906501236072j), (-0.0011264172264240163+0.00014226906501236075j), (-0.0003213845972650399-1.7991532592044242e-05j), (-0.00076405300187206+8.3694784533508e-06j)),
    (5, 1): ((0.05722261333432112+0.13826970150339715j), (0.05722261333432114+0.13826970150339718j), (-0.054837374680888964+0.09098255962982445j), (0.12183813524757363+0.20310698410858216j)),
    (5, 2): ((-0.0014039968726799591+0.002953249152257265j), (-0.00140399687267996+0.002953249152257265j), (-0.0008712988318630682+0.003796070389712776j), (-0.014865652544366375+0.006088939476584207j)),
    (5, 3): ((0.00012480123045398154-2.0801100389053627e-05j), (0.00012480123045398154-2.080110038905363e-05j), (8.726044813544726e-05-3.428517504521195e-06j), (0.00018432881601658461-1.9637240904027313e-05j)),
    (5, 4): ((-3.9982699561551975e-05-5.361362669666352e-05j), (-3.9982699561551975e-05-5.3613626696663514e-05j), (-0.0001417291596362396-8.47647244217047e-05j), (-4.711454532355355e-05-7.519243600374627e-05j)),
    (5, 5): ((-2.853569576449494e-08+1.5265629151410017e-07j), (-2.8535695764494957e-08+1.526562915141002e-07j), (6.7116387545184045e-06+6.2388629294739575e-06j), (4.287102091589968e-08+6.2720112203119e-07j)),
}


def _ladder_pin_cases():
    rng = np.random.default_rng(2026)
    for n in range(2, 6):
        for m in range(1, n + 1):
            z = tuple(complex(x, y) for x, y in zip(rng.uniform(-3, 3, n), rng.uniform(0.05, 3, n)))
            b = tuple(float(x) for x in rng.uniform(0.2, 4, n - 1))
            t = tuple(float(x) for x in rng.uniform(-5, 5, m))
            yield n, m, z, b, t


def test_ladder_kernel_pinned_values():
    seen = set()
    for n, m, z, b, t in _ladder_pin_cases():
        want = _LADDER_PINS[(n, m)]
        last = np.array([t[-1], -t[-1], 0.5 * t[-1]])
        got = (ladder_kernel(z, t, b, m, n - m),) + tuple(
            ladder_kernel(z, t[:-1] + (last,), b, m, n - m))
        for g, w in zip(got, want, strict=True):
            assert abs(g - w) <= 1e-12 * abs(w)
        seen.add((n, m))
    assert seen == set(_LADDER_PINS)


def test_require_upper_half_rejects_empty_point():
    for empty in ((), [], np.array([])):
        for n in (0, 1):
            with pytest.raises(DomainError):
                require_upper_half(empty, n)


# b_j = inf or NaN, and a b_j whose reciprocal overflows, gave nan+nanj with
# RuntimeWarnings; every ladder kernel entry point now rejects them.
_BAD_LADDER_B = [math.inf, math.nan, 1e-320, 0.0, -1.0]


@pytest.mark.parametrize("bad", _BAD_LADDER_B, ids=["inf", "nan", "tiny", "zero", "negative"])
def test_ladder_kernels_reject_bad_coefficients(bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="ladder coefficients"):
            ladder_kernel_full((1j, 1j), (0.0, 1.0), (bad,))
        with pytest.raises(DomainError, match="ladder coefficients"):
            ladder_kernel((1j, 1j), (0.5,), (bad,), 1, 1)
        with pytest.raises(DomainError, match="ladder coefficients"):
            ladder_kernel((1j, 1j, 1j), (0.5, 0.2), (1.0, bad), 2, 1)
