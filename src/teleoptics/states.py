"""Sparse two-photon states over (spatial mode, polarization) pairs.

Every state is an immutable value: transformations return new objects, so
states are safe to share across threads and to memoize. Amplitudes live in
a sparse map keyed by basis kets, which keeps desk-scale superpositions
exact and easy to inspect. Iteration order is fixed (kets sort ascending),
so repeated runs produce bit-for-bit identical results.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, NamedTuple

import numpy as np

from .errors import GuardViolation, NormalizationError, RegistryError

#: Amplitudes below this magnitude are dropped after each construction;
#: this removes exact-arithmetic zeros contaminated by rounding.
PRUNE_EPS = 1e-15

#: Tolerance when validating caller-supplied normalized quantities.
NORM_EPS = 1e-9

#: Tolerance for internal conservation (unitarity) checks.
CONSERVATION_EPS = 1e-12


class Polarization(enum.IntEnum):
    """Linear polarization tag; exactly two values."""

    H = 0
    V = 1

    def __str__(self) -> str:
        return self.name


H = Polarization.H
V = Polarization.V

#: A single photon's degree-of-freedom label: (mode name, polarization).
ModePol = tuple[str, Polarization]


def _check_photon(photon: int) -> None:
    if photon not in (1, 2):
        raise ValueError(f"photon must be 1 or 2, got {photon!r}")


@dataclass(frozen=True)
class ModeRegistry:
    """Per-photon sets of valid spatial mode names. Append-only: elements
    may introduce output modes but nothing is ever removed within a run."""

    photon1: frozenset[str] = frozenset()
    photon2: frozenset[str] = frozenset()

    def modes(self, photon: int) -> frozenset[str]:
        _check_photon(photon)
        return self.photon1 if photon == 1 else self.photon2

    def has(self, photon: int, mode: str) -> bool:
        return mode in self.modes(photon)

    def with_modes(self, photon: int, names: Iterable[str]) -> "ModeRegistry":
        added = frozenset(str(n) for n in names)
        for name in added:
            if not name:
                raise RegistryError("mode names must be non-empty")
        _check_photon(photon)
        if photon == 1:
            return ModeRegistry(self.photon1 | added, self.photon2)
        return ModeRegistry(self.photon1, self.photon2 | added)


class BasisKet(NamedTuple):
    """Product ket |mode1, pol1>|mode2, pol2>; tuples give a total order."""

    mode1: str
    pol1: Polarization
    mode2: str
    pol2: Polarization


def _coerce_ket(key) -> BasisKet:
    if isinstance(key, BasisKet):
        return key
    m1, p1, m2, p2 = key
    return BasisKet(str(m1), Polarization(p1), str(m2), Polarization(p2))


@dataclass(frozen=True)
class JonesVector:
    """Normalized polarization state alpha|H> + beta|V>.

    Global phase is kept as given; comparisons that should ignore it go
    through fidelity().
    """

    alpha: complex
    beta: complex

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", complex(self.alpha))
        object.__setattr__(self, "beta", complex(self.beta))
        nsq = abs(self.alpha) ** 2 + abs(self.beta) ** 2
        if not abs(nsq - 1.0) <= NORM_EPS:
            raise NormalizationError(
                f"|alpha|^2 + |beta|^2 = {nsq!r}, expected 1 within {NORM_EPS}"
            )

    @classmethod
    def from_bloch(cls, theta: float, phi: float) -> "JonesVector":
        """cos(theta/2)|H> + e^(i phi) sin(theta/2)|V>, theta in [0, pi]."""
        if not 0.0 <= theta <= math.pi:
            raise ValueError(f"theta must lie in [0, pi], got {theta!r}")
        return cls(
            complex(math.cos(theta / 2.0)),
            complex(math.cos(phi), math.sin(phi)) * math.sin(theta / 2.0),
        )

    @classmethod
    def from_components(cls, ar: float, ai: float, br: float, bi: float,
                        tol: float = 1e-6) -> "JonesVector":
        """Build from four reals.

        Literals within `tol` of unit norm are accepted; they are then
        renormalized unless already normalized to machine precision, so
        exactly-normalized inputs survive bit-for-bit.
        """
        a, b = complex(ar, ai), complex(br, bi)
        nsq = abs(a) ** 2 + abs(b) ** 2
        if not abs(nsq - 1.0) <= tol:
            raise NormalizationError(
                f"components give |psi|^2 = {nsq!r}, expected 1 within {tol}"
            )
        if abs(nsq - 1.0) > CONSERVATION_EPS:
            scale = 1.0 / math.sqrt(nsq)
            a, b = a * scale, b * scale
        return cls(a, b)

    def inner(self, other: "JonesVector") -> complex:
        """<self|other>; conjugate-linear in self."""
        return self.alpha.conjugate() * other.alpha + self.beta.conjugate() * other.beta

    def fidelity(self, other: "JonesVector") -> float:
        """|<self|other>|^2, insensitive to global phase."""
        return abs(self.inner(other)) ** 2

    def as_array(self) -> np.ndarray:
        return np.array([self.alpha, self.beta], dtype=complex)


def random_jones(rng: np.random.Generator) -> JonesVector:
    """Polarization state drawn Haar-uniformly from the qubit state space."""
    v = rng.normal(size=4)
    norm = math.sqrt(float(np.dot(v, v)))
    return JonesVector(complex(v[0], v[1]) / norm, complex(v[2], v[3]) / norm)


def _transform_amplitudes(amps, get_pair, put_pair, element) -> dict:
    """Shared map-application kernel for one- and two-photon states.

    Pairs in the element's input basis transform by the matrix column; all
    other pairs pass through unchanged. Two situations are rejected because
    they would break unitarity or silently misroute light:

    * amplitude on an `exclusive` mode outside the input basis (the element
      physically accepts nothing else there), and
    * a pass-through pair that coincides with an output pair actually
      receiving amplitude (coherent overlap out of thin air).
    """
    in_index = {pair: col for col, pair in enumerate(element.input_basis)}
    matrix = element.matrix
    populated_cols = sorted(
        {in_index[p] for p in (get_pair(k) for k in amps) if p in in_index}
    )
    receiving = set()
    for row, out_pair in enumerate(element.output_basis):
        if any(matrix[row, col] != 0 for col in populated_cols):
            receiving.add(out_pair)
    out: dict = {}
    for key, amp in amps.items():
        pair = get_pair(key)
        col = in_index.get(pair)
        if col is not None:
            for row, out_pair in enumerate(element.output_basis):
                weight = matrix[row, col]
                if weight == 0:
                    continue
                new_key = put_pair(key, out_pair)
                out[new_key] = out.get(new_key, 0j) + complex(weight) * amp
        elif pair[0] in element.exclusive_modes:
            raise GuardViolation(
                f"element does not accept amplitude on {pair[0]!r}/{pair[1]}"
            )
        elif pair in receiving:
            raise GuardViolation(
                f"element output {pair[0]!r}/{pair[1]} would overlap amplitude "
                "already present on that pair"
            )
        else:
            out[key] = out.get(key, 0j) + amp
    return out


class JointState:
    """Immutable sparse amplitude map for the photon pair.

    Construction sorts, prunes, and validates; the squared norm may sit
    below 1 (unnormalized conditionals) but never above 1 + NORM_EPS.
    """

    __slots__ = ("_amps", "registry")

    def __init__(self, amplitudes: Mapping, registry: ModeRegistry) -> None:
        entries = [(_coerce_ket(k), complex(v)) for k, v in amplitudes.items()]
        entries.sort(key=lambda kv: kv[0])
        amps: dict[BasisKet, complex] = {}
        for ket, value in entries:
            if abs(value) < PRUNE_EPS:
                continue
            if ket in amps:
                raise ValueError(f"duplicate basis ket {ket!r}")
            if ket.mode1 not in registry.photon1:
                raise RegistryError(f"mode {ket.mode1!r} is not registered to photon 1")
            if ket.mode2 not in registry.photon2:
                raise RegistryError(f"mode {ket.mode2!r} is not registered to photon 2")
            amps[ket] = value
        nsq = sum(v.real * v.real + v.imag * v.imag for v in amps.values())
        if not nsq <= 1.0 + NORM_EPS:
            raise NormalizationError(f"squared norm {nsq!r} exceeds 1 + {NORM_EPS}")
        object.__setattr__(self, "_amps", amps)
        object.__setattr__(self, "registry", registry)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("JointState is immutable")

    def __len__(self) -> int:
        return len(self._amps)

    def __eq__(self, other) -> bool:
        if not isinstance(other, JointState):
            return NotImplemented
        return self._amps == other._amps and self.registry == other.registry

    def __hash__(self):
        return hash((tuple(self._amps.items()), self.registry))

    def items(self) -> Iterator[tuple[BasisKet, complex]]:
        """Kets in ascending order with their amplitudes; order is stable."""
        return iter(self._amps.items())

    def kets(self) -> tuple[BasisKet, ...]:
        return tuple(self._amps.keys())

    def amplitude(self, ket) -> complex:
        return self._amps.get(_coerce_ket(ket), 0j)

    def squared_norm(self) -> float:
        return float(sum(v.real * v.real + v.imag * v.imag for v in self._amps.values()))

    def inner_product(self, other: "JointState") -> complex:
        """<self|other>; conjugate-linear in self. Registries must match."""
        if self.registry != other.registry:
            raise RegistryError("inner product requires identical mode registries")
        total = 0j
        for ket, amp in self._amps.items():
            o = other._amps.get(ket)
            if o is not None:
                total += amp.conjugate() * o
        return total

    def with_modes(self, photon: int, names: Iterable[str]) -> "JointState":
        return JointState(self._amps, self.registry.with_modes(photon, names))

    def apply_one_photon_map(self, photon: int, element) -> "JointState":
        """Apply an element to one photon; the other photon is untouched."""
        _check_photon(photon)
        for mode, _ in element.input_basis:
            if not self.registry.has(photon, mode):
                raise RegistryError(
                    f"input mode {mode!r} is not registered to photon {photon}"
                )
        registry = self.registry.with_modes(
            photon, (mode for mode, _ in element.output_basis)
        )
        if photon == 1:
            def get_pair(ket):
                return (ket.mode1, ket.pol1)

            def put_pair(ket, pair):
                return BasisKet(pair[0], pair[1], ket.mode2, ket.pol2)
        else:
            def get_pair(ket):
                return (ket.mode2, ket.pol2)

            def put_pair(ket, pair):
                return BasisKet(ket.mode1, ket.pol1, pair[0], pair[1])
        return JointState(_transform_amplitudes(self._amps, get_pair, put_pair, element), registry)


class PhotonState:
    """Sparse single-photon state over (mode, polarization) pairs."""

    __slots__ = ("_amps", "modes")

    def __init__(self, amplitudes: Mapping, modes: Iterable[str]) -> None:
        mode_set = frozenset(str(m) for m in modes)
        entries = [((str(k[0]), Polarization(k[1])), complex(v)) for k, v in amplitudes.items()]
        entries.sort(key=lambda kv: kv[0])
        amps: dict[ModePol, complex] = {}
        for pair, value in entries:
            if abs(value) < PRUNE_EPS:
                continue
            if pair in amps:
                raise ValueError(f"duplicate pair {pair!r}")
            if pair[0] not in mode_set:
                raise RegistryError(f"mode {pair[0]!r} is not registered")
            amps[pair] = value
        nsq = sum(v.real * v.real + v.imag * v.imag for v in amps.values())
        if not nsq <= 1.0 + NORM_EPS:
            raise NormalizationError(f"squared norm {nsq!r} exceeds 1 + {NORM_EPS}")
        object.__setattr__(self, "_amps", amps)
        object.__setattr__(self, "modes", mode_set)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("PhotonState is immutable")

    def __len__(self) -> int:
        return len(self._amps)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PhotonState):
            return NotImplemented
        return self._amps == other._amps and self.modes == other.modes

    def __hash__(self):
        return hash((tuple(self._amps.items()), self.modes))

    def items(self) -> Iterator[tuple[ModePol, complex]]:
        return iter(self._amps.items())

    def amplitude(self, pair) -> complex:
        return self._amps.get((str(pair[0]), Polarization(pair[1])), 0j)

    def squared_norm(self) -> float:
        return float(sum(v.real * v.real + v.imag * v.imag for v in self._amps.values()))

    def inner_product(self, other: "PhotonState") -> complex:
        if self.modes != other.modes:
            raise RegistryError("inner product requires identical mode registries")
        total = 0j
        for pair, amp in self._amps.items():
            o = other._amps.get(pair)
            if o is not None:
                total += amp.conjugate() * o
        return total

    def apply_map(self, element) -> "PhotonState":
        for mode, _ in element.input_basis:
            if mode not in self.modes:
                raise RegistryError(f"input mode {mode!r} is not registered")
        modes = self.modes | {mode for mode, _ in element.output_basis}
        amps = _transform_amplitudes(
            self._amps, lambda pair: pair, lambda _old, pair: pair, element
        )
        return PhotonState(amps, modes)

    def normalized(self) -> "PhotonState":
        nsq = self.squared_norm()
        if nsq <= 0.0:
            raise NormalizationError("cannot normalize an empty state")
        scale = 1.0 / math.sqrt(nsq)
        return PhotonState({k: v * scale for k, v in self._amps.items()}, self.modes)

    def to_jones(self, mode: str) -> JonesVector:
        """Polarization state on `mode`; rejects amplitude elsewhere."""
        for (m, _), _amp in self._amps.items():
            if m != mode:
                raise GuardViolation(
                    f"amplitude on {m!r} prevents reading a pure polarization "
                    f"state off {mode!r}"
                )
        return JonesVector(self.amplitude((mode, H)), self.amplitude((mode, V)))

    def direction_vector(self, first: str, second: str) -> np.ndarray:
        """Amplitude pair on two H-polarized rails, as a length-2 array."""
        vec = np.zeros(2, dtype=complex)
        for (mode, pol), amp in self._amps.items():
            if pol is not H or mode not in (first, second):
                raise GuardViolation(
                    f"state is not confined to H-polarized rails {first!r}, {second!r}"
                )
            vec[0 if mode == first else 1] = amp
        return vec


def make_pair_state(mode_a1: str, mode_b1: str, mode_a2: str, mode_b2: str,
                    registry: ModeRegistry | None = None) -> JointState:
    """Direction-entangled source: (|a1,a2> + |b1,b2>)/sqrt(2), both photons H.

    With no registry given, one is created holding exactly these modes;
    otherwise the modes must already be registered to the right photons.
    """
    names = (mode_a1, mode_b1, mode_a2, mode_b2)
    if len(set(names)) != 4:
        raise RegistryError(f"source modes must be distinct, got {names!r}")
    if registry is None:
        registry = ModeRegistry(frozenset((mode_a1, mode_b1)), frozenset((mode_a2, mode_b2)))
    else:
        for photon, mode in ((1, mode_a1), (1, mode_b1), (2, mode_a2), (2, mode_b2)):
            if not registry.has(photon, mode):
                other = 2 if photon == 1 else 1
                if registry.has(other, mode):
                    raise RegistryError(
                        f"mode {mode!r} is registered to photon {other}, not photon {photon}"
                    )
                raise RegistryError(f"mode {mode!r} is not registered to photon {photon}")
    amp = 1.0 / math.sqrt(2.0)
    return JointState(
        {(mode_a1, H, mode_a2, H): amp, (mode_b1, H, mode_b2, H): amp}, registry
    )


def equal_up_to_global_phase(first, second, tol: float = CONSERVATION_EPS) -> bool:
    """True when |<first|second>|^2 matches the norm product within tol."""
    overlap = abs(first.inner_product(second)) ** 2
    return abs(overlap - first.squared_norm() * second.squared_norm()) <= tol
