import inspect
import math

import numpy as np

from twophoton import formulas
from twophoton.elements import BeamSplitterSpec
from twophoton.formulas import (
    bunch_path_amplitudes,
    p_classical,
    p_coincidence,
    p_double_trigger,
    p_no_polarizers,
    p_same_arm,
    p_same_arm_no_polarizers,
    p_unpolarized,
    p_unpolarized_5050,
    p_unpolarized_same_arm,
    pair_path_amplitudes,
)

TOL = 1e-12
BS = BeamSplitterSpec.fifty_fifty()
ASYM = BeamSplitterSpec.from_transmission(0.9, 0.6)
HALF_PI = math.pi / 2.0
RNG = np.random.default_rng(4242)


def _t_proj(bs, pol, ana):
    # transmitted projection of a pol-angle photon onto an ana-angle port
    return bs.tx * math.cos(pol) * math.cos(ana) + bs.ty * math.sin(pol) * math.sin(ana)


def _r_proj(bs, pol, ana):
    return bs.rx * math.cos(pol) * math.cos(ana) + bs.ry * math.sin(pol) * math.sin(ana)


def test_pair_path_amplitudes_factorize():
    # A: both transmitted; B: each photon reflected into the other analyzer.
    for pol1, pol2, ana1, ana2 in RNG.uniform(0.0, math.pi, size=(20, 4)):
        for bs in (BS, ASYM):
            a, b = pair_path_amplitudes(pol1, pol2, ana1, ana2, bs)
            assert abs(a - _t_proj(bs, pol1, ana1) * _t_proj(bs, pol2, ana2)) < TOL
            assert abs(b - _r_proj(bs, pol2, ana1) * _r_proj(bs, pol1, ana2)) < TOL


def test_bunch_path_amplitudes_factorize():
    # C/D: the two photon-to-detector pairings of a side-2 pair.
    for pol1, pol2, ta, tb in RNG.uniform(0.0, math.pi, size=(20, 4)):
        for bs in (BS, ASYM):
            c, d = bunch_path_amplitudes(pol1, pol2, ta, tb, bs)
            assert abs(c - _r_proj(bs, pol1, ta) * _t_proj(bs, pol2, tb)) < TOL
            assert abs(d - _r_proj(bs, pol1, tb) * _t_proj(bs, pol2, ta)) < TOL


def test_coincidence_fringe_between_path_amplitudes():
    for pol1, pol2, ana1, ana2, phi in RNG.uniform(0.0, math.pi, size=(20, 5)):
        a, b = pair_path_amplitudes(pol1, pol2, ana1, ana2, ASYM)
        expected = a * a + b * b - 2.0 * a * b * math.cos(phi)
        assert abs(p_coincidence(pol1, pol2, ana1, ana2, ASYM, phi) - expected) < TOL


def test_coincidence_pinned_values_5050():
    assert abs(p_coincidence(0.0, 0.0, 0.0, 0.0, BS, 0.0)) < TOL
    assert abs(p_coincidence(0.0, 0.0, 0.0, 0.0, BS, math.pi) - 1.0) < TOL
    assert abs(p_coincidence(0.0, 0.0, 0.0, 0.0, BS, HALF_PI) - 0.5) < TOL
    for phi in (0.0, HALF_PI, math.pi, 2.0):
        assert abs(p_coincidence(0.0, HALF_PI, 0.0, HALF_PI, BS, phi) - 0.25) < TOL


def test_no_polarizers_reduces_to_phase_and_relative_angle():
    # port-summed law: [1 - cos(phi) cos^2(pol1 - pol2)]/2
    for pol1, pol2, phi in RNG.uniform(0.0, math.pi, size=(20, 3)):
        c = math.cos(pol1 - pol2)
        expected = 0.5 * (1.0 - math.cos(phi) * c * c)
        assert abs(p_no_polarizers(pol1, pol2, phi) - expected) < TOL
    # zero-phase branch of the same law
    for pol1, pol2 in RNG.uniform(0.0, math.pi, size=(10, 2)):
        d = math.sin(pol1 - pol2)
        assert abs(p_no_polarizers(pol1, pol2, 0.0) - 0.5 * d * d) < TOL


def test_no_polarizers_pinned_values():
    assert abs(p_no_polarizers(0.0, HALF_PI, 0.0) - 0.5) < TOL
    assert abs(p_no_polarizers(0.0, 0.0, 0.0)) < TOL
    # aligned photons at pi fringe phase always split
    assert abs(p_no_polarizers(0.0, 0.0, math.pi) - 1.0) < TOL


def test_same_arm_fringe_between_pairing_amplitudes():
    for pol1, pol2, ta, tb, psi in RNG.uniform(0.0, math.pi, size=(20, 5)):
        c, d = bunch_path_amplitudes(pol1, pol2, ta, tb, ASYM)
        expected = 0.5 * (c * c + d * d + 2.0 * c * d * math.cos(psi))
        assert abs(p_same_arm(pol1, pol2, ta, tb, ASYM, psi) - expected) < TOL


def test_same_arm_pinned_values():
    assert abs(p_same_arm(0.0, 0.0, 0.0, 0.0, BS, 0.0) - 0.5) < TOL
    # crossed photon blocked by aligned analyzers
    assert abs(p_same_arm(0.0, HALF_PI, 0.0, 0.0, BS, 0.0)) < TOL
    # opposite pairing phase cancels identical pairings
    assert abs(p_same_arm(0.0, 0.0, 0.0, 0.0, BS, math.pi)) < TOL


def test_same_arm_no_polarizers_pinned_values():
    assert abs(p_same_arm_no_polarizers(0.0, 0.0) - 1.0) < TOL
    assert abs(p_same_arm_no_polarizers(0.0, math.pi / 4.0) - 0.75) < TOL
    assert abs(p_same_arm_no_polarizers(0.0, HALF_PI) - 0.5) < TOL


def test_splitting_and_bunching_rates_are_complementary():
    for pol1, pol2 in RNG.uniform(0.0, math.pi, size=(20, 2)):
        total = p_no_polarizers(pol1, pol2, 0.0) + p_same_arm_no_polarizers(pol1, pol2)
        assert abs(total - 1.0) < TOL


def test_double_trigger_pinned_values():
    assert abs(p_double_trigger(0.0, 0.0, 0.0) - 0.25) < TOL
    assert abs(p_double_trigger(0.0, 0.0, math.pi / 4.0) - 0.0625) < TOL
    assert abs(p_double_trigger(0.0, HALF_PI, HALF_PI)) < TOL


def test_double_trigger_pairing_phase_factor():
    # with both analyzers at theta the two pairings of the same-side form are
    # equal, so it carries the factor (1 + cos(psi)); the double trigger's two
    # pairings share one detector, so it takes that factor at psi = 0, halved
    for pol1, pol2, theta, psi in RNG.uniform(0.0, math.pi, size=(10, 4)):
        base = p_double_trigger(pol1, pol2, theta)
        got = 0.5 * p_same_arm(pol1, pol2, theta, theta, BS, psi)
        assert abs(got - base * 0.5 * (1.0 + math.cos(psi))) < TOL


def test_unpolarized_is_mixture_of_axis_products():
    for ana1, ana2, phi in RNG.uniform(0.0, math.pi, size=(20, 3)):
        for bs in (BS, ASYM):
            avg = 0.25 * sum(
                p_coincidence(a, b, ana1, ana2, bs, phi)
                for a in (0.0, HALF_PI)
                for b in (0.0, HALF_PI)
            )
            assert abs(p_unpolarized(ana1, ana2, bs, phi) - avg) < TOL


def test_unpolarized_5050_reduction():
    for ana1, ana2, phi in RNG.uniform(0.0, math.pi, size=(20, 3)):
        full = p_unpolarized(ana1, ana2, BS, phi)
        reduced = p_unpolarized_5050(ana1, ana2, phi)
        assert abs(full - reduced) < TOL


def test_unpolarized_5050_pinned_values():
    assert abs(p_unpolarized_5050(0.7, 0.7, 0.0)) < TOL
    assert abs(p_unpolarized_5050(0.0, HALF_PI, 0.0) - 0.125) < TOL
    # pi fringe phase: [1 + cos^2]/8 peaks at 1/4
    assert abs(p_unpolarized_5050(0.0, 0.0, math.pi) - 0.25) < TOL


def test_unpolarized_5050_prefactor_injection():
    for ana1, ana2, phi in RNG.uniform(0.0, math.pi, size=(5, 3)):
        bracket = 1.0 - math.cos(phi) * math.cos(ana2 - ana1) ** 2
        shifted = p_unpolarized_5050(ana1, ana2, phi, prefactor=0.13)
        assert abs(shifted - 0.13 * bracket) < TOL


def test_unpolarized_same_arm_pinned_values():
    assert abs(p_unpolarized_same_arm(0.0, 0.0) - 0.25) < TOL
    assert abs(p_unpolarized_same_arm(0.0, HALF_PI) - 0.125) < TOL


def test_classical_rate_floor_and_peak():
    # the classical benchmark never drops below 3
    for ana1, ana2 in RNG.uniform(0.0, math.pi, size=(20, 2)):
        assert p_classical(ana1, ana2, 0.0) == 3.0
        assert p_classical(ana1, ana2, math.pi) >= 3.0
    assert abs(p_classical(0.3, 0.3, math.pi) - 7.0) < TOL


def test_quantum_rate_nulls_where_classical_cannot():
    assert abs(p_unpolarized_5050(0.4, 0.4, 0.0)) < TOL
    assert p_classical(0.4, 0.4, 0.0) == 3.0


def test_every_closed_form_broadcasts_bitwise_like_its_scalar_calls():
    # sweep CSV stays byte-stable only if an array call rounds exactly as
    # the per-point calls
    n = 200
    transmissions = [(1.0, 1.0), (0.0, 0.0), *RNG.uniform(0.0, 1.0, size=(n - 4, 2))]
    splitters = [BS, ASYM, *(BeamSplitterSpec.from_transmission(*t) for t in transmissions)]
    bs_array = BeamSplitterSpec(*np.array([[b.tx, b.ty, b.rx, b.ry] for b in splitters]).T)
    phases = np.where(RNG.random(n) < 0.25, 0.0, RNG.uniform(0.0, 2.0 * math.pi, n))
    forms = [getattr(formulas, name) for name in dir(formulas) if name.startswith("p_")]
    assert len(forms) == 9
    for form in forms:
        args = {}
        for name, param in inspect.signature(form).parameters.items():
            if name == "bs":
                args[name] = bs_array
            elif name in ("phi", "psi"):
                args[name] = phases
            elif param.default is inspect.Parameter.empty:  # an angle
                args[name] = RNG.uniform(-math.pi, math.pi, n)
        got = form(**args)
        for i in range(n):
            point = {k: splitters[i] if k == "bs" else float(v[i]) for k, v in args.items()}
            assert got[i] == form(**point), (form.__name__, point)
