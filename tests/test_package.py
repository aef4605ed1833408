"""Package surface: what `from teleoptics import *` exports."""

import types

import teleoptics


def test_all_names_resolve_and_none_is_a_module():
    assert teleoptics.__all__
    for name in teleoptics.__all__:
        assert not isinstance(getattr(teleoptics, name), types.ModuleType), name
    assert "states" not in teleoptics.__all__
    assert "JointState" in teleoptics.__all__
