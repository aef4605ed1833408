"""Constructor boundaries over arbitrary floats (NaN, infinities and
subnormals included), None and strings: each either raises SimulationError
or returns finite, normalized values."""

import math

import numpy as np
from hypothesis import example, given, settings, strategies as st

from teleoptics.bellmode import BobSetting
from teleoptics.errors import SimulationError
from teleoptics.sampling import DetectorModel
from teleoptics.states import (
    NORM_EPS,
    JointState,
    JonesVector,
    ModeRegistry,
    PhotonState,
    Polarization,
)

H = Polarization.H

#: Any float, mixed with small ones so that accepting paths are reached too.
FLOATS = st.one_of(st.floats(), st.floats(-1.0, 1.0), st.sampled_from([0.0, 0.6, 0.8]))
VALUES = st.one_of(FLOATS, st.none(), st.text())


def cplx(re, im):
    """complex(re, im) for two floats; otherwise `re` as it is, so that the
    constructor under test meets the non-numeric value itself."""
    return complex(re, im) if isinstance(re, float) and isinstance(im, float) else re


def finite(*values) -> bool:
    return all(math.isfinite(complex(v).real) and math.isfinite(complex(v).imag)
               for v in values)


def check_jones(v: JonesVector) -> None:
    assert finite(v.alpha, v.beta)
    assert abs(abs(v.alpha) ** 2 + abs(v.beta) ** 2 - 1.0) <= NORM_EPS


def check_state(state) -> None:
    assert finite(*(amp for _, amp in state.items()))
    assert state.squared_norm() <= 1.0 + NORM_EPS


def check_setting(setting: BobSetting) -> None:
    assert finite(setting.theta, setting.phi)
    for axis in setting.basis():
        assert finite(*axis)
        assert abs(float(np.vdot(axis, axis).real) - 1.0) <= NORM_EPS


def check_detector(model: DetectorModel) -> None:
    assert 0.0 <= model.efficiency <= 1.0


@settings(max_examples=300, deadline=None)
@given(VALUES, VALUES, VALUES, VALUES)
@example(1.7e308, 1.7e308, 0.0, 0.0)  # magnitudes past the float range
@example(1.0, math.inf, 0.6, 0.8)  # an infinite phase angle
@example(None, "x", None, "0.5")  # values that are not numbers
def test_constructors_reject_or_return_finite_normalized_values(a, b, c, d):
    registry = ModeRegistry(frozenset(["a"]), frozenset(["c"]))
    builds = [
        (lambda: JonesVector(cplx(a, b), cplx(c, d)), check_jones),
        (lambda: JonesVector.from_components(a, b, c, d), check_jones),
        (lambda: JonesVector.from_bloch(a, b), check_jones),
        (lambda: JointState({("a", H, "c", H): cplx(a, b)}, registry), check_state),
        (lambda: PhotonState({("a", H): cplx(a, b)}, {"a"}), check_state),
        (lambda: DetectorModel(a), check_detector),
        (lambda: BobSetting(a, b), check_setting),
    ]
    for build, check in builds:
        try:
            value = build()
        except SimulationError:
            continue
        check(value)
