"""Property tests over random couplings, angles and resonances.

Each property is checked against something the library does not use to
compute it: the other engine, the complement oracle, the charge count,
or the dense eigendecomposition of F.
"""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from darkfilter.experiments import TARGETS, make_target
from darkfilter.filtration import full_setup, reduced_setup, run_filtration
from darkfilter.spectral import (
    HULL_SLACK,
    convex_hull_violation,
    dark_subspace,
    degeneracy_groups,
    mode_spectrum,
)
from darkfilter.spin_model import ChainParams

from helpers import (dark_complement, product_state, spectral_decomposition,
                     subset_tower_state)

COUPLING = st.floats(-0.3, 0.3)
THETA0 = st.floats(0.0, 2.0 * math.pi)


@st.composite
def resonances(draw, q_max=8):
    """h*tau = pi p/q as (p, q) with 1 <= p < q <= q_max."""
    q = draw(st.integers(2, q_max))
    return draw(st.integers(1, q - 1)), q


def _tower(L, h_tau, theta0, **couplings):
    params = ChainParams(L=L, **couplings)
    p, q = h_tau
    return reduced_setup(params, math.pi * p / (q * params.h), theta0)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(L=st.integers(3, 5), h_tau=resonances(), theta0=THETA0,
       D=COUPLING, J3=COUPLING, h=st.floats(0.5, 1.5))
def test_tower_and_full_engines_agree_everywhere(L, h_tau, theta0, D, J3, h):
    # J3 keeps the tower exact, so both engines run the same protocol
    params = ChainParams(L=L, h=h, D=D, J3=J3)
    tau = math.pi * h_tau[0] / (h_tau[1] * h)
    trajs = [run_filtration(*build(params, tau, theta0), 60)
             for build in (reduced_setup, full_setup)]
    tower, full = trajs
    assert np.max(np.abs(tower.survival - full.survival)) <= 1e-10
    # a normalized string is rounding noise once the state has depleted
    kept = tower.survival > 1e-4
    assert np.max(np.abs(tower.string - full.string)[kept]) <= 1e-10
    for traj in trajs:
        assert np.all(np.diff(traj.survival) <= 1e-12)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(L=st.integers(2, 12), h_tau=resonances(), theta0=THETA0)
def test_dark_count_is_dimension_minus_charges(L, h_tau, theta0):
    # every charged group of size g hosts g - 1 dark states, every
    # uncharged one g, so the count is dim - w
    setup, _ = _tower(L, h_tau, theta0)
    groups = degeneracy_groups(setup)
    dark = dark_subspace(groups)
    assert dark.count == setup.dimension - groups.w
    oracle, _ = dark_complement(setup.phases, setup.removal_eig)
    assert oracle.shape[1] == dark.count


@settings(max_examples=40, deadline=None, derandomize=True)
@given(L=st.integers(2, 8), h_tau=resonances(q_max=6), theta0=THETA0)
def test_secular_roots_are_the_dense_bright_spectrum(L, h_tau, theta0):
    setup, psi0 = _tower(L, h_tau, theta0)
    _, groups, roots = mode_spectrum(setup)
    assert roots.size == groups.w - 1
    for z in roots:
        assert convex_hull_violation(
            z, np.exp(-1j * groups.charge_angles)) <= HULL_SLACK
    # a root at zero meets the structural zero of the rank-one removal in
    # a Jordan block, which has no eigendecomposition to compare with
    assume(np.all(np.abs(roots) > 1e-8))
    spectrum = spectral_decomposition(setup, psi0)
    dense = list(spectrum.values[spectrum.select("bright")])
    assert len(dense) == roots.size
    for z in roots:
        gaps = [abs(z - d) for d in dense]
        assert min(gaps) <= 1e-8
        dense.pop(int(np.argmin(gaps)))


@settings(max_examples=20, deadline=None, derandomize=True)
@given(L=st.integers(3, 7), J2=COUPLING, J3=COUPLING, built=THETA0,
       theta0=THETA0, seed=st.integers(0, 2**32 - 1))
def test_engine_holds_every_leg_it_is_retuned_to(L, J2, J3, built, theta0,
                                                 seed):
    # perturbation_study builds the full engine at one angle and retunes
    # it to each leg's own: the protocol state at any angle, the tower
    # states and both targets must lie in the blocks it kept, which the
    # norm of their engine coordinates shows
    params = ChainParams(L=L, J2=J2, J3=J3)
    setup, _ = full_setup(params, math.pi / L, built)
    states = [product_state(L, theta0),
              *(subset_tower_state(L, n) for n in range(L + 1))]
    for which, rule in TARGETS.items():
        p, q = rule.resonance(L)
        leg = setup.retuned(math.pi * p / (q * params.h))
        states += make_target(leg, params, which, theta0).components
    for vec in states:
        coords = setup.to_eigen(vec)
        assert abs(np.vdot(vec, vec).real
                   - np.vdot(coords, coords).real) <= 1e-13
    # a noisy removal reaches every block
    rng = np.random.Generator(np.random.Philox(key=seed))
    noise = rng.standard_normal(3**L) + 1j * rng.standard_normal(3**L)
    removal = product_state(L, math.pi) + 0.05 * noise / np.linalg.norm(noise)
    removal /= np.linalg.norm(removal)
    engines = [full_setup(params, math.pi / L, built, removal=removal,
                          all_blocks=every)[0] for every in (False, True)]
    keys = [[(b.label, b.reflection, b.parity) for b in engine.sector_eigs]
            for engine in engines]
    assert keys[0] == keys[1]
    assert {b[1] for b in keys[0]} == {1.0, -1.0}
