"""Charge picture, secular roots, and filtration-time estimates."""

import math

import numpy as np
import pytest
import scipy.linalg as sla

from darkfilter.errors import NumericsError, ValidationError
from darkfilter.experiments import orthogonality_angle, tar2_optimal_angle
from darkfilter.filtration import (
    DARK_OVERLAP_TOL,
    degeneracy_groups,
    full_setup,
    reduced_setup,
)
from darkfilter.spectral import (
    HULL_SLACK,
    BrightSpectrum,
    ChargePicture,
    bright_secular_roots,
    charge_picture,
    convex_hull_violation,
    mode_spectrum,
    scaling_predictions,
)
from darkfilter.spin_model import ChainParams

from helpers import hull_violation_loop, spectral_decomposition

# every hand-placed charge carries weight
ALL = np.ones(60, dtype=bool)


def test_charge_picture_binomial_weights():
    # h tau = pi/3 folds the L=6 ladder mod 3; weights sum binomials
    setup, _ = reduced_setup(ChainParams(L=6), math.pi / 3.0, 0.0)
    cp = charge_picture(degeneracy_groups(setup))
    assert cp.w == 3
    want = sorted([22.0 / 64.0, 21.0 / 64.0, 21.0 / 64.0])
    assert np.allclose(sorted(cp.weights), want, atol=1e-14)
    assert abs(float(np.sum(cp.weights)) - 1.0) < 1e-14
    # charge positions are the actual eigenphases of U(tau)
    for pos in np.exp(-1j * cp.angles):
        assert np.min(np.abs(setup.phases - pos)) < 1e-12


def test_charge_picture_validates_weights():
    with pytest.raises(NumericsError):
        ChargePicture(np.array([0.0, 1.0]), np.array([0.4, 0.4]), ALL[:2])
    with pytest.raises(ValidationError):
        ChargePicture(np.array([0.0, 1.0]), np.array([1.0]), ALL[:2])


def test_two_charge_closed_form():
    # for two charges the equilibrium sits at the weighted swap point
    a1, a2, p1 = 0.4, 2.1, 0.3
    cp = ChargePicture(np.array([a1, a2]), np.array([p1, 1.0 - p1]), ALL[:2])
    bs = bright_secular_roots(cp)
    assert bs.roots.size == 1
    want = p1 * np.exp(-1j * a2) + (1.0 - p1) * np.exp(-1j * a1)
    assert abs(bs.roots[0] - want) < 1e-12


def test_single_charge_has_no_bright_root():
    cp = ChargePicture(np.array([0.7]), np.array([1.0]), ALL[:1])
    bs = bright_secular_roots(cp)
    assert bs.roots.size == 0
    assert bs.dominant is None


def test_opposite_equal_charges_give_trivial_zero():
    cp = ChargePicture(np.array([0.0, math.pi]), np.array([0.5, 0.5]), ALL[:2])
    bs = bright_secular_roots(cp)
    assert bs.roots.size == 1
    assert abs(bs.roots[0]) < 1e-14


def test_clustered_charges_match_dense_eig():
    # 60 charges in an arc of 0.01 rad: a polynomial in the roots has
    # coefficients of binomial size; the compression does not
    w = 60
    cp = ChargePicture(np.linspace(0.0, 0.01, w), np.full(w, 1.0 / w), ALL[:w])
    bs = bright_secular_roots(cp)
    assert bs.roots.size == w - 1
    poles = np.exp(-1j * cp.angles)
    assert np.all(convex_hull_violation(bs.roots, poles, HULL_SLACK) == 0.0)
    rho = np.sqrt(cp.weights)
    dense = list(sla.eigvals((np.eye(w) - np.outer(rho, rho)) * poles))
    # the rank-one removal adds one zero the secular roots do not hold
    dense.pop(int(np.argmin(np.abs(dense))))
    for z in bs.roots:
        gaps = np.abs(np.array(dense) - z)
        assert np.min(gaps) <= 1e-10
        dense.pop(int(np.argmin(gaps)))


@pytest.mark.parametrize("h_tau_q", [3, 4, 6])
def test_secular_roots_match_dense_bright_eigenvalues(h_tau_q):
    setup, psi0 = reduced_setup(ChainParams(L=6), math.pi / h_tau_q, 0.2)
    cp = charge_picture(degeneracy_groups(setup))
    secular = bright_secular_roots(cp)
    assert secular.roots.size == cp.w - 1
    spectrum = spectral_decomposition(setup, psi0)
    dense = spectrum.values[spectrum.select("bright")]
    assert dense.size == secular.roots.size
    # near-tied moduli sort unstably across the two methods; match by angle
    a = dense[np.argsort(np.angle(dense))]
    b = secular.roots[np.argsort(np.angle(secular.roots))]
    assert np.max(np.abs(a - b)) < 1e-8


@pytest.mark.parametrize("q, angle, counts", [
    (7, orthogonality_angle, (1, 572)),
    (6, tar2_optimal_angle, (0, 573)),
], ids=["tar1", "tar2"])
def test_mode_spectrum_charges_every_reached_group(q, angle, counts):
    # J2 breaks the tower: at L = 7 each leg has two groups whose weight
    # is tiny (at most 1e-14) but above DARK_OVERLAP_TOL^2.  They are
    # charges, so dark, roots and the one zero number dim 574.
    setup, _ = full_setup(ChainParams(L=7, J2=0.005), math.pi / q, angle(7))
    groups = degeneracy_groups(setup)
    tiny = (groups.weights >= DARK_OVERLAP_TOL**2) & (groups.weights <= 1e-14)
    assert np.count_nonzero(tiny) == 2
    dark, cp, bright = mode_spectrum(setup)
    assert (dark.size, bright.roots.size) == counts
    assert cp.w == np.count_nonzero(groups.reached) == bright.roots.size + 1
    assert dark.size + bright.roots.size + 1 == setup.dimension == 574


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
    roots = np.array([0.5 + 0.1j, 0.2 + 0.0j, 0.5 - 0.1j])
    bs = BrightSpectrum.from_roots(roots)
    # ties resolve to the smallest angle in [0, 2 pi)
    assert bs.dominant == pytest.approx(0.5 + 0.1j)
    assert np.all(np.abs(bs.roots[:2]) >= np.abs(bs.roots[2]))
    # moduli within 1e-12 are tied as well, whichever one rounds larger
    near = np.array([(0.5 - 0.1j) * (1.0 + 5e-13), 0.5 + 0.1j])
    assert BrightSpectrum.from_roots(near).roots[0] == 0.5 + 0.1j


def test_untied_dominant():
    bs = BrightSpectrum.from_roots(np.array([0.3 + 0.0j, -0.6 + 0.0j]))
    assert bs.dominant == pytest.approx(-0.6 + 0.0j)


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


def test_charge_picture_requires_a_setup():
    with pytest.raises(ValidationError):
        charge_picture(np.eye(3))
