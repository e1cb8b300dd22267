"""Wave-plate Jones calculus and device compilation.

A wave-plate with retardation phase phi and orientation angle theta acts on
the (h, v) mode amplitudes with the Jones matrix

    W = z+ I + z- (c sigma_z + s sigma_x),
    z+- = (1 +- e^{i phi}) / 2,  c = cos 2 theta,  s = sin 2 theta.

The induced rotation of Pauli expectation vectors is always derived
numerically from W as R_ab = Re Tr[sigma_a W sigma_b W^dag] / 2.  The
closed-form 3x3 matrix often quoted for this rotation has an entry at row
1, column 2 (1-based) that is inconsistent with orthogonality: it reads
-c cos(phi) where the derivation gives -c sin(phi).  Deriving from W keeps
R in SO(3) by construction; a regression test records the disagreement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .algebra import _check_real, dagger, pauli, pauli_coefficients
from .channels import QuantumChannel

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class WavePlate:
    """Retardation phase phi (= 2 pi delta / lambda) and orientation theta, radians."""

    phi: float
    theta: float

    def __post_init__(self):
        if not (np.isfinite(self.phi) and np.isfinite(self.theta)):
            raise ValueError("wave-plate angles must be finite")
        object.__setattr__(self, "phi", float(self.phi) % TWO_PI)
        object.__setattr__(self, "theta", float(self.theta))


@dataclass(frozen=True)
class DeviceSpec:
    """An optical device built from a stack of wave-plates.

    Light traverses the plates in list order, so the compiled Jones matrix
    is the reversed product W_k ... W_2 W_1.
    """

    plates: tuple[WavePlate, ...]
    label: Optional[str] = None

    def __post_init__(self):
        object.__setattr__(self, "plates", tuple(self.plates))
        if len(self.plates) == 0:
            raise ValueError("device needs at least one wave-plate")

    @classmethod
    def from_config(cls, items: Sequence[dict]) -> "DeviceSpec":
        """Plates from config entries, angles in units of pi; a non-real angle,
        a bool or a string among them, is a ValueError."""
        plates = []
        for it in items:
            for key in ("phi_over_pi", "theta_over_pi"):
                _check_real(key, it[key])
            plates.append(
                WavePlate(
                    phi=float(it["phi_over_pi"]) * np.pi,
                    theta=float(it["theta_over_pi"]) * np.pi,
                )
            )
        return cls(plates=tuple(plates))


def waveplate_jones(p: WavePlate) -> np.ndarray:
    """2x2 Jones matrix of a wave-plate acting on the (h, v) amplitudes."""
    zp = 0.5 * (1.0 + np.exp(1j * p.phi))
    zm = 0.5 * (1.0 - np.exp(1j * p.phi))
    c = np.cos(2.0 * p.theta)
    s = np.sin(2.0 * p.theta)
    return np.array([[zp + c * zm, s * zm], [s * zm, zp - c * zm]])


def waveplate_bloch(p: WavePlate) -> np.ndarray:
    """3x3 rotation of Pauli expectation vectors induced by the plate.

    Derived from the Jones matrix, never from the printed closed form (see
    module docstring); the result is orthogonal with det +1.
    """
    w = waveplate_jones(p)
    return np.stack([pauli_coefficients(w @ pauli(b) @ dagger(w))[1:] / 2 for b in (1, 2, 3)], 1)


def compile_device(d: DeviceSpec) -> QuantumChannel:
    """Unitary channel of a wave-plate stack (first-traversed plate applied first)."""
    u = np.eye(2, dtype=complex)
    for p in d.plates:
        u = waveplate_jones(p) @ u
    return QuantumChannel.from_kraus([u])
