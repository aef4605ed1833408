"""Sparse one- and two-photon states over (spatial mode, polarization) slots.

One private container, `_SparseAmplitudes`, stores, validates, compares and
contracts every sparse amplitude map. A key is a tuple of per-photon
(mode, polarization) slots: photon p of a two-photon `BasisKet` sits at
key[2p - 2 : 2p], and a one-photon key is a single slot, so elements address
a photon by its slot offset. States are immutable values, safe to share and
memoize, and keys iterate in ascending order, so runs are bit-for-bit
repeatable.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from operator import attrgetter, itemgetter
from typing import Iterable, Iterator, Mapping, NamedTuple

import numpy as np

from .errors import GuardViolation, NormalizationError, RegistryError, SimulationError

#: Amplitudes below this magnitude are dropped after each construction;
#: this removes exact-arithmetic zeros contaminated by rounding.
PRUNE_EPS = 1e-15
_PRUNE_SQ = PRUNE_EPS * PRUNE_EPS

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


@dataclass(frozen=True)
class ModeRegistry:
    """Per-photon sets of valid spatial mode names. Append-only: elements
    may introduce output modes but nothing is ever removed within a run."""

    photon1: frozenset[str] = frozenset()
    photon2: frozenset[str] = frozenset()

    def modes(self, photon: int) -> frozenset[str]:
        if photon == 1:
            return self.photon1
        if photon == 2:
            return self.photon2
        raise RegistryError(f"photon must be 1 or 2, got {photon!r}")

    def has(self, photon: int, mode: str) -> bool:
        return mode in self.modes(photon)

    def with_modes(self, photon: int, names: Iterable[str]) -> "ModeRegistry":
        added = frozenset(str(n) for n in names)
        if "" in added:
            raise RegistryError("mode names must be non-empty")
        grown = self.modes(photon) | added
        if photon == 1:
            return ModeRegistry(grown, self.photon2)
        return ModeRegistry(self.photon1, grown)


class BasisKet(NamedTuple):
    """Product ket |mode1, pol1>|mode2, pol2>; tuples give a total order."""

    mode1: str
    pol1: Polarization
    mode2: str
    pol2: Polarization


@dataclass(frozen=True)
class JonesVector:
    """Normalized polarization state alpha|H> + beta|V>.

    Global phase is kept as given; comparisons that should ignore it go
    through fidelity().
    """

    alpha: complex
    beta: complex

    def __post_init__(self) -> None:
        try:
            a, b = complex(self.alpha), complex(self.beta)
        except (TypeError, ValueError):
            raise SimulationError(
                f"Jones components must be numbers, got {self.alpha!r}, {self.beta!r}"
            ) from None
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "beta", b)
        nsq = a.real * a.real + a.imag * a.imag + b.real * b.real + b.imag * b.imag
        if not abs(nsq - 1.0) <= NORM_EPS:
            raise NormalizationError(
                f"|alpha|^2 + |beta|^2 = {nsq!r}, expected 1 within {NORM_EPS}"
            )

    @classmethod
    def from_bloch(cls, theta: float, phi: float) -> "JonesVector":
        """cos(theta/2)|H> + e^(i phi) sin(theta/2)|V>, theta in [0, pi]."""
        try:
            theta_ok, phi_ok = 0.0 <= theta <= math.pi, math.isfinite(phi)
        except TypeError:
            raise SimulationError(
                f"Bloch angles must be real numbers, got {theta!r}, {phi!r}"
            ) from None
        if not theta_ok:
            raise SimulationError(f"theta must lie in [0, pi], got {theta!r}")
        if not phi_ok:
            raise NormalizationError(f"phi must be finite, got {phi!r}")
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
        try:
            a, b = complex(ar, ai), complex(br, bi)
        except (TypeError, ValueError):
            raise SimulationError(
                f"components must be real numbers, got {(ar, ai, br, bi)!r}"
            ) from None
        try:
            nsq = abs(a) ** 2 + abs(b) ** 2
        except OverflowError:  # a component near the float maximum
            nsq = math.inf
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


def _transform_amplitudes(amps, lo, element) -> dict:
    """Apply `element` to the (mode, polarization) slot at `key[lo:lo + 2]`
    of every key; the other slots ride along unchanged. Offset 0 is photon 1
    of a `BasisKet` or the only slot of a one-photon key, offset 2 photon 2.

    Pairs in the element's input basis transform by the matrix column; all
    other pairs pass through unchanged. Two situations are rejected because
    they would break unitarity or silently misroute light:

    * amplitude on an `exclusive` mode outside the input basis (the element
      physically accepts nothing else there), and
    * a pass-through pair that coincides with an output pair actually
      receiving amplitude (coherent overlap out of thin air).
    """
    hi = lo + 2
    in_index = {pair: col for col, pair in enumerate(element.input_basis)}
    matrix = element.matrix
    populated_cols = sorted(
        {in_index[p] for p in (k[lo:hi] for k in amps) if p in in_index}
    )
    receiving = set()
    for row, out_pair in enumerate(element.output_basis):
        if any(matrix[row, col] != 0 for col in populated_cols):
            receiving.add(out_pair)
    out: dict = {}
    for key, amp in amps.items():
        pair = key[lo:hi]
        col = in_index.get(pair)
        if col is not None:
            head, tail = key[:lo], key[hi:]
            for row, out_pair in enumerate(element.output_basis):
                weight = matrix[row, col]
                if weight == 0:
                    continue
                # Slices are plain tuples; rebuild the key as its own type, so
                # a BasisKet stays one and skips coercion on construction.
                new_key = tuple.__new__(type(key), head + out_pair + tail)
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


class _SparseAmplitudes:
    """Immutable sparse amplitude map over slot-tuple keys, plus a frame
    naming the modes the keys may use.

    Construction coerces keys, sorts, prunes, and validates; the squared
    norm may sit below 1 (unnormalized conditionals) but never above
    1 + NORM_EPS. Subclasses supply `_coerce` (key normalization),
    `_check_key` (mode membership in the frame) and `_KEY_NAME`.
    """

    __slots__ = ("_amps", "_frame")

    def __init__(self, amplitudes: Mapping, frame) -> None:
        try:
            entries = [(self._coerce(k), complex(v)) for k, v in amplitudes.items()]
        except (TypeError, ValueError) as exc:
            raise SimulationError(f"bad {self._KEY_NAME} or amplitude: {exc}") from None
        entries.sort(key=itemgetter(0))
        amps: dict = {}
        nsq = 0.0
        for key, value in entries:
            # Compared squared, so a magnitude past the float range cannot
            # raise; it fails the norm ceiling instead.
            weight = value.real * value.real + value.imag * value.imag
            if weight < _PRUNE_SQ:
                continue
            if key in amps:
                raise RegistryError(f"duplicate {self._KEY_NAME} {key!r}")
            self._check_key(key, frame)
            amps[key] = value
            nsq += weight
        if not nsq <= 1.0 + NORM_EPS:
            raise NormalizationError(f"squared norm {nsq!r} exceeds 1 + {NORM_EPS}")
        object.__setattr__(self, "_amps", amps)
        object.__setattr__(self, "_frame", frame)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        # Rebuild through the validating constructor; the default slot-state
        # restore would go through the immutability guard above.
        return type(self), (self._amps, self._frame)

    def __len__(self) -> int:
        return len(self._amps)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._amps == other._amps and self._frame == other._frame

    def __hash__(self):
        return hash((tuple(self._amps.items()), self._frame))

    def items(self) -> Iterator[tuple]:
        """Keys in ascending order with their amplitudes; order is stable."""
        return iter(self._amps.items())

    def amplitude(self, key) -> complex:
        return self._amps.get(self._coerce(key), 0j)

    def squared_norm(self) -> float:
        return float(sum(v.real * v.real + v.imag * v.imag for v in self._amps.values()))

    def inner_product(self, other) -> complex:
        """<self|other>; conjugate-linear in self. Frames must match."""
        if self._frame != other._frame:
            raise RegistryError("inner product requires identical mode registries")
        total = 0j
        for key, amp in self._amps.items():
            o = other._amps.get(key)
            if o is not None:
                total += amp.conjugate() * o
        return total


class JointState(_SparseAmplitudes):
    """Immutable sparse amplitude map for the photon pair, keyed by
    `BasisKet` over the modes of a `ModeRegistry`."""

    __slots__ = ()
    _KEY_NAME = "basis ket"
    registry = property(attrgetter("_frame"), doc="The pair's `ModeRegistry`.")

    def __init__(self, amplitudes: Mapping, registry: ModeRegistry) -> None:
        super().__init__(amplitudes, registry)

    @staticmethod
    def _coerce(key) -> BasisKet:
        if isinstance(key, BasisKet):
            return key
        m1, p1, m2, p2 = key
        return BasisKet(str(m1), Polarization(p1), str(m2), Polarization(p2))

    @staticmethod
    def _check_key(ket: BasisKet, registry: ModeRegistry) -> None:
        if ket.mode1 not in registry.photon1:
            raise RegistryError(f"mode {ket.mode1!r} is not registered to photon 1")
        if ket.mode2 not in registry.photon2:
            raise RegistryError(f"mode {ket.mode2!r} is not registered to photon 2")

    def kets(self) -> tuple[BasisKet, ...]:
        return tuple(self._amps.keys())

    def with_modes(self, photon: int, names: Iterable[str]) -> "JointState":
        return JointState(self._amps, self.registry.with_modes(photon, names))

    def apply_one_photon_map(self, photon: int, element) -> "JointState":
        """Apply an element to one photon; the other photon is untouched."""
        modes = self.registry.modes(photon)
        for mode, _ in element.input_basis:
            if mode not in modes:
                raise RegistryError(
                    f"input mode {mode!r} is not registered to photon {photon}"
                )
        registry = self.registry.with_modes(
            photon, (mode for mode, _ in element.output_basis)
        )
        lo = 0 if photon == 1 else 2
        return JointState(_transform_amplitudes(self._amps, lo, element), registry)


class PhotonState(_SparseAmplitudes):
    """Sparse single-photon state over (mode, polarization) pairs."""

    __slots__ = ()
    _KEY_NAME = "pair"
    modes = property(attrgetter("_frame"), doc="The photon's mode names.")

    def __init__(self, amplitudes: Mapping, modes: Iterable[str]) -> None:
        super().__init__(amplitudes, frozenset(str(m) for m in modes))

    @staticmethod
    def _coerce(key) -> ModePol:
        return (str(key[0]), Polarization(key[1]))

    @staticmethod
    def _check_key(pair: ModePol, modes: frozenset[str]) -> None:
        if pair[0] not in modes:
            raise RegistryError(f"mode {pair[0]!r} is not registered")

    def apply_map(self, element) -> "PhotonState":
        for mode, _ in element.input_basis:
            if mode not in self.modes:
                raise RegistryError(f"input mode {mode!r} is not registered")
        modes = self.modes | {mode for mode, _ in element.output_basis}
        return PhotonState(_transform_amplitudes(self._amps, 0, element), modes)

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
