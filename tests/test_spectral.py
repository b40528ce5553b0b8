"""Charge view, secular roots, and filtration-time estimates."""

import math
import warnings

import numpy as np
import pytest
import scipy.linalg as sla

from darkfilter.errors import NumericsError, ValidationError
from darkfilter.experiments import orthogonality_angle, tar2_optimal_angle
from darkfilter.filtration import full_setup, reduced_setup
from darkfilter.spectral import (
    DARK_OVERLAP_TOL,
    HULL_SLACK,
    TIE_MODULUS,
    bright_secular_roots,
    convex_hull_violation,
    degeneracy_groups,
    mode_spectrum,
    scaling_predictions,
)
from darkfilter.spin_model import ChainParams

from helpers import charge_order, hull_violation_loop, spectral_decomposition


def test_charge_view_binomial_weights():
    # h tau = pi/3 folds the L=6 ladder mod 3; weights sum binomials
    setup, _ = reduced_setup(ChainParams(L=6), (1, 3), 0.0)
    groups = degeneracy_groups(setup)
    assert groups.w == 3
    want = sorted([22.0 / 64.0, 21.0 / 64.0, 21.0 / 64.0])
    assert np.allclose(sorted(groups.charge_weights), want, atol=1e-14)
    assert abs(float(np.sum(groups.charge_weights)) - 1.0) < 1e-14
    # charge positions are the actual eigenphases of U(tau)
    for pos in np.exp(-1j * groups.charge_angles):
        assert np.min(np.abs(setup.phases * setup.global_phase - pos)) \
            < 1e-12


def test_removal_weights_are_validated():
    # the solver refuses charges that do not align or weigh less than 0
    with pytest.raises(ValidationError, match="align"):
        bright_secular_roots([0.0, 1.0], [1.0])
    with pytest.raises(ValidationError, match="negative"):
        bright_secular_roots([0.0, 1.0], [1.1, -0.1])
    with pytest.raises(ValidationError, match="charge"):
        bright_secular_roots([], [])


def test_two_charge_closed_form():
    # for two charges the equilibrium sits at the weighted swap point
    a1, a2, p1 = 0.4, 2.1, 0.3
    roots = bright_secular_roots(np.array([a1, a2]), np.array([p1, 1.0 - p1]))
    assert roots.size == 1
    want = p1 * np.exp(-1j * a2) + (1.0 - p1) * np.exp(-1j * a1)
    assert abs(roots[0] - want) < 1e-12


def test_single_charge_has_no_bright_root():
    assert bright_secular_roots(np.array([0.7]), np.array([1.0])).size == 0


def test_opposite_equal_charges_give_trivial_zero():
    roots = bright_secular_roots(np.array([0.0, math.pi]),
                                 np.array([0.5, 0.5]))
    assert roots.size == 1
    assert abs(roots[0]) < 1e-14


def test_root_on_a_pole_is_refused():
    # a charge of weight 0 leaves its pole an exact eigenvalue of the
    # compression: the force is 1/0 there, refused by name and silently
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericsError,
                           match=r"on the pole at angle 4 of weight 0\.000e\+00"):
            bright_secular_roots(np.array([0.0, 2.0, 4.0]),
                                 np.array([0.5, 0.5, 0.0]))


def test_clustered_charges_match_dense_eig():
    # 60 charges in an arc of 0.01 rad: a polynomial in the roots has
    # coefficients of binomial size; the compression does not
    w = 60
    angles, weights = np.linspace(0.0, 0.01, w), np.full(w, 1.0 / w)
    roots = bright_secular_roots(angles, weights)
    assert roots.size == w - 1
    poles = np.exp(-1j * angles)
    assert np.all(convex_hull_violation(roots, poles, HULL_SLACK) == 0.0)
    rho = np.sqrt(weights)
    dense = list(sla.eigvals((np.eye(w) - np.outer(rho, rho)) * poles))
    # the rank-one removal adds one zero the secular roots do not hold
    dense.pop(int(np.argmin(np.abs(dense))))
    for z in roots:
        gaps = np.abs(np.array(dense) - z)
        assert np.min(gaps) <= 1e-10
        dense.pop(int(np.argmin(gaps)))


@pytest.mark.parametrize("h_tau_q", [3, 4, 6])
def test_secular_roots_match_dense_bright_eigenvalues(h_tau_q):
    setup, psi0 = reduced_setup(ChainParams(L=6), (1, h_tau_q), 0.2)
    _, groups, secular = mode_spectrum(setup)
    assert secular.size == groups.w - 1
    spectrum = spectral_decomposition(setup, psi0)
    dense = spectrum.values[spectrum.select("bright")]
    assert dense.size == secular.size
    # near-tied moduli sort unstably across the two methods; match by angle
    a = dense[np.argsort(np.angle(dense))]
    b = secular[np.argsort(np.angle(secular))]
    assert np.max(np.abs(a - b)) < 1e-8


@pytest.mark.parametrize("make", [
    *[(lambda q=q: reduced_setup(ChainParams(L=12), (1, q), 0.3)[0])
      for q in range(1, 13)],
    lambda: full_setup(ChainParams(L=5), (1, 5), 0.3)[0],
    lambda: full_setup(ChainParams(L=8, J2=0.02), (1, 8), 0.3)[0],
], ids=[f"tower-q{q}" for q in range(1, 13)] + ["full-L5", "full-L8-J2"])
def test_charge_view_keeps_the_charge_picture_order(make):
    groups = degeneracy_groups(make())
    angles, weights, reached = charge_order(groups)
    assert np.array_equal(groups.charge_angles, angles)
    assert np.array_equal(groups.charge_weights, weights)
    assert np.array_equal(groups.charge_reached, reached)
    assert groups.w == np.count_nonzero(reached)


@pytest.mark.parametrize("q, angle, counts", [
    (7, orthogonality_angle, (1, 572)),
    (6, tar2_optimal_angle, (0, 573)),
], ids=["tar1", "tar2"])
def test_mode_spectrum_charges_every_reached_group(q, angle, counts):
    # J2 breaks the tower: at L = 7 each leg has two groups whose weight
    # is tiny (at most 1e-14) but above DARK_OVERLAP_TOL^2.  They are
    # charges, so dark, roots and the one zero number dim 574.
    setup, _ = full_setup(ChainParams(L=7, J2=0.005), (1, q), angle(7))
    groups = degeneracy_groups(setup)
    tiny = (groups.weights >= DARK_OVERLAP_TOL**2) & (groups.weights <= 1e-14)
    assert np.count_nonzero(tiny) == 2
    dark, groups, roots = mode_spectrum(setup)
    assert (dark.size, roots.size) == counts
    assert groups.w == np.count_nonzero(groups.reached) == roots.size + 1
    assert dark.size + roots.size + 1 == setup.dimension == 574


def test_convex_hull_violation_cases():
    square = np.exp(-1j * np.array([0.0, 0.5, 1.0, 1.5]) * math.pi)
    assert convex_hull_violation(0.0 + 0.0j, square) < 1e-12
    assert convex_hull_violation(0.5 + 0.2j, square) < 1e-12
    assert convex_hull_violation(1.2 + 0.0j, square) == pytest.approx(
        0.2 / math.sqrt(2.0)
    )
    # segment and point degeneracies
    pair = np.array([1.0 + 0.0j, -1.0 + 0.0j])
    assert convex_hull_violation(0.3 + 0.0j, pair) < 1e-12
    assert convex_hull_violation(0.3 + 0.4j, pair) == pytest.approx(0.4)
    single = np.array([1.0 + 0.0j])
    assert convex_hull_violation(1.0 + 0.0j, single) < 1e-12
    assert convex_hull_violation(0.0 + 0.0j, single) == pytest.approx(1.0)
    with pytest.raises(ValidationError):
        convex_hull_violation(0.0 + 0.0j, np.array([]))
    # an array of points gives the value of each point
    points = np.array([0.0, 0.5 + 0.2j, 1.2, 0.3 + 0.4j])
    for verts in (square, pair, single):
        each = [convex_hull_violation(z, verts) for z in points]
        assert np.array_equal(convex_hull_violation(points, verts), each)


def test_convex_hull_violation_matches_the_edge_loop():
    rng = np.random.Generator(np.random.Philox(key=3))
    verts = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, 40))
    points = 1.2 * (rng.standard_normal(500) + 1j * rng.standard_normal(500))
    want = [hull_violation_loop(z, verts) for z in points]
    assert np.max(np.abs(convex_hull_violation(points, verts) - want)) \
        <= 1e-15
    assert np.count_nonzero(want) > 100


def test_bright_spectrum_ordering_and_tie():
    # charges mirrored in the real axis give conjugate root pairs, whose
    # moduli agree to rounding: each pair is tied and leads with the
    # root of smaller angle in [0, 2 pi), the one above the axis
    angles = np.array([0.3, 1.1, 2.5, -2.5, -1.1, -0.3]) % (2.0 * math.pi)
    weights = np.array([0.1, 0.15, 0.25, 0.25, 0.15, 0.1])
    roots = bright_secular_roots(angles, weights)
    moduli = np.abs(roots)
    assert roots.size == 5
    tied = np.abs(np.diff(moduli)) <= TIE_MODULUS
    assert np.count_nonzero(tied) == 2
    assert np.all(np.diff(moduli)[~tied] < 0.0)
    for i in np.flatnonzero(tied):
        assert roots[i].imag > 0.0
        assert abs(roots[i + 1] - roots[i].conjugate()) < 1e-12


def test_untied_dominant():
    # the heavy pair pulls the dominant root to the right of the circle
    roots = bright_secular_roots(np.array([0.0, 0.2, math.pi]),
                                 np.array([0.45, 0.45, 0.1]))
    assert np.abs(roots[0]) > np.abs(roots[1]) + TIE_MODULUS
    assert roots[0].real > 0.0 > roots[1].real


def test_scaling_predictions_frozen_values():
    ortho = scaling_predictions(6, 2.0 * math.pi / 6.0, 0.01, "tar1-orthogonal")
    assert ortho == pytest.approx(17.058479080576390, rel=1e-12)
    general = scaling_predictions(8, math.pi / 16.0, 0.01, "tar1-general")
    assert general == pytest.approx(147.365445951618938, rel=1e-12)
    tar2 = scaling_predictions(14, 2.0 * math.pi / 13.0, 0.01, "tar2")
    assert tar2 == pytest.approx(1559.133446192063957, rel=1e-12)


def test_scaling_predictions_guard_rails():
    with pytest.raises(ValidationError):
        scaling_predictions(8, math.pi / 8.0, 0.01, "tar1-general")  # degenerate
    with pytest.raises(ValidationError):
        scaling_predictions(8, math.pi / 7.0, 0.01, "tar2")          # pole
    with pytest.raises(ValidationError):
        scaling_predictions(8, 0.1, 0.0, "tar1-general")
    with pytest.raises(ValidationError):
        scaling_predictions(1, 0.1, 0.01, "tar1-general")
    with pytest.raises(ValidationError):
        scaling_predictions(8, 0.1, 0.01, "tar9")


def test_degeneracy_groups_requires_a_setup():
    with pytest.raises(ValidationError):
        degeneracy_groups(np.eye(3))
