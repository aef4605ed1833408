"""Linear optical elements as explicit sparse maps on (mode, polarization) pairs.

An element is a matrix over a small labeled input/output basis. Applying it
to a state touches only the listed pairs; everything else passes through.
All physical elements here are unitary on their own basis, which the state
layer re-checks cheaply via norm conservation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ElementError
from .states import H, V, JonesVector, ModePol, Polarization

#: Pauli-style corrections in the (H, V) component order.
SIGN_FLIP_H = np.array([[-1.0, 0.0], [0.0, 1.0]], dtype=complex)
SWAP_H_V = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def _pairs(modes: Sequence[str]) -> tuple[ModePol, ...]:
    return tuple((m, p) for m in modes for p in (H, V))


def _require_distinct(kind: str, modes: Sequence[str]) -> None:
    if len(set(modes)) != len(modes):
        raise ElementError(f"{kind} requires distinct modes, got {tuple(modes)!r}")


@dataclass(frozen=True, eq=False)
class OnePhotonMap:
    """Sparse linear map: `matrix[row, col]` sends input pair `col` to
    output pair `row`. Pairs on `exclusive_modes` that are not in the
    input basis are rejected at application time instead of passed through.
    """

    input_basis: tuple[ModePol, ...]
    output_basis: tuple[ModePol, ...]
    matrix: np.ndarray
    exclusive_modes: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        matrix = np.array(self.matrix, dtype=complex)
        if matrix.shape != (len(self.output_basis), len(self.input_basis)):
            raise ElementError(
                f"matrix shape {matrix.shape} does not match bases "
                f"({len(self.output_basis)} out, {len(self.input_basis)} in)"
            )
        if len(set(self.input_basis)) != len(self.input_basis):
            raise ElementError("input basis contains duplicate pairs")
        if len(set(self.output_basis)) != len(self.output_basis):
            raise ElementError("output basis contains duplicate pairs")
        matrix.setflags(write=False)
        object.__setattr__(self, "matrix", matrix)

    def is_unitary(self, eps: float = 1e-12) -> bool:
        m = self.matrix
        if m.shape[0] != m.shape[1]:
            return False
        return bool(np.allclose(m.conj().T @ m, np.eye(m.shape[0]), atol=eps, rtol=0.0))


def jones_rotation(psi: JonesVector, modes: Sequence[str]) -> OnePhotonMap:
    """SU(2) rotation taking |H> to psi, applied identically on each mode."""
    _require_distinct("jones rotation", modes)
    if not modes:
        raise ElementError("jones rotation needs at least one mode")
    su2 = np.array(
        [[psi.alpha, -psi.beta.conjugate()], [psi.beta, psi.alpha.conjugate()]],
        dtype=complex,
    )
    block = np.kron(np.eye(len(modes), dtype=complex), su2)
    basis = _pairs(modes)
    return OnePhotonMap(basis, basis, block)


def pbs(input_mode: str, out_v: str, out_h: str) -> OnePhotonMap:
    """Polarizing splitter: V exits `out_v`, H exits `out_h`."""
    _require_distinct("pbs", (input_mode, out_v, out_h))
    return OnePhotonMap(
        ((input_mode, H), (input_mode, V)),
        ((out_h, H), (out_v, V)),
        np.eye(2, dtype=complex),
    )


def pol_rotate_to_h(mode: str) -> OnePhotonMap:
    """Rotate V on `mode` into H. Light already H passes through, so this
    is only safe downstream of a splitter that removed the H component."""
    return OnePhotonMap(((mode, V),), ((mode, H),), np.eye(1, dtype=complex))


def pol_rotate_h_to_v(mode: str) -> OnePhotonMap:
    """Rotate H on `mode` into V; inverse direction of pol_rotate_to_h."""
    return OnePhotonMap(((mode, H),), ((mode, V),), np.eye(1, dtype=complex))


def symmetric_bs(in1: str, in2: str, out1: str, out2: str) -> OnePhotonMap:
    """50/50 splitter, real symmetric convention:
    out1 = (in1 + in2)/sqrt(2), out2 = (in1 - in2)/sqrt(2), per polarization.
    """
    _require_distinct("beam splitter", (in1, in2, out1, out2))
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)
    block = np.kron(hadamard, np.eye(2, dtype=complex))
    return OnePhotonMap(_pairs((in1, in2)), _pairs((out1, out2)), block)


def phase_shift(mode: str, phi: float) -> OnePhotonMap:
    """Multiply both polarizations on `mode` by e^(i phi)."""
    basis = _pairs((mode,))
    factor = complex(math.cos(phi), math.sin(phi))
    return OnePhotonMap(basis, basis, factor * np.eye(2, dtype=complex))


def pockels_c1(mode: str) -> OnePhotonMap:
    """Correction cell flipping the sign of the H component."""
    basis = _pairs((mode,))
    return OnePhotonMap(basis, basis, SIGN_FLIP_H.copy())


def pockels_c2(mode: str) -> OnePhotonMap:
    """Correction cell exchanging the H and V components."""
    basis = _pairs((mode,))
    return OnePhotonMap(basis, basis, SWAP_H_V.copy())


def pbs_merge(in_v: str, in_h: str, out: str) -> OnePhotonMap:
    """Splitter run backwards: V from `in_v` and H from `in_h` combine on
    `out`. H on `in_v` or V on `in_h` would exit an unmonitored port, so
    the input modes are exclusive and such amplitude is rejected.
    """
    _require_distinct("pbs merge", (in_v, in_h, out))
    return OnePhotonMap(
        ((in_v, V), (in_h, H)),
        ((out, V), (out, H)),
        np.eye(2, dtype=complex),
        exclusive_modes=frozenset((in_v, in_h)),
    )


def relabel(old: str, new: str) -> OnePhotonMap:
    """Rename a spatial mode without touching amplitudes."""
    _require_distinct("relabel", (old, new))
    return OnePhotonMap(_pairs((old,)), _pairs((new,)), np.eye(2, dtype=complex))


_BUILDERS = {
    "jones": lambda args: jones_rotation(args[1], args[0]),
    "pbs": lambda args: pbs(*args),
    "rot_to_h": lambda args: pol_rotate_to_h(*args),
    "rot_h_to_v": lambda args: pol_rotate_h_to_v(*args),
    "bs": lambda args: symmetric_bs(*args),
    "phase": lambda args: phase_shift(*args),
    "c1": lambda args: pockels_c1(*args),
    "c2": lambda args: pockels_c2(*args),
    "merge": lambda args: pbs_merge(*args),
    "relabel": lambda args: relabel(*args),
}


@dataclass(frozen=True)
class ElementSpec:
    """Deferred element: which photon it acts on plus constructor arguments.
    Keeping specs declarative lets circuits be compared, printed, and built
    late, after all mode names are known.
    """

    kind: str
    photon: int
    args: tuple = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.kind not in _BUILDERS:
            raise ElementError(f"unknown element kind {self.kind!r}")
        if self.photon not in (1, 2):
            raise ElementError(f"photon must be 1 or 2, got {self.photon!r}")

    def build(self) -> OnePhotonMap:
        return _BUILDERS[self.kind](self.args)
