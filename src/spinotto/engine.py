"""The four-stroke spin engine: its configuration, state preparation,
flip-flop power strokes, bath resets and the record of one cycle.

One cycle runs hot preparation -> power stroke -> cold reset -> power stroke
on the joint medium (x) battery state. Work is the change of the battery's
mean energy over the full cycle, reported in units of hbar*omega_B.

Conventions fixed package-wide: basis order |m b> in {|00>,|01>,|10>,|11>},
|0> the +1 eigenstate of sigma_z (excited, energy +hbar*omega/2), states
parameterized as rho = I/2 + P.sigma with |P| <= 1/2. The flip-flop stroke is
defined directly as the unitary that rotates the {|01>,|10>} subspace by the
angle theta and leaves |00>, |11> untouched; this corresponds to the exchange
Hamiltonian g(s+ s- + s- s+) with the standard halved ladder operators
s+- = (sigma^x +- i sigma^y)/2 and theta = g*t.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Sequence

import numpy as np

from .diagnostics import (
    Polarization,
    concurrence,
    ergotropy,
    relative_entropy_of_coherence,
)
from .linalg import (
    ValidationError,
    kron,
    partial_trace,
    validate_density,
)


_IDENTITY4 = np.eye(4, dtype=complex)


class ConfigError(ValidationError):
    """An engine configuration violates one of its invariants."""


@dataclass(frozen=True)
class NoiseConfig:
    """Phenomenological imperfection channels for multi-cycle runs.

    battery_dephasing_per_reset multiplies the battery's energy-basis
    coherences at each medium reset (hot and cold), standing in for residual
    transverse coupling during the reset. battery_t2_per_cycle applies the
    same channel once per cycle for ambient decoherence. Both equal to 1 is
    the ideal (noise-free) engine.
    """

    battery_dephasing_per_reset: float = 1.0
    battery_t2_per_cycle: float = 1.0

    def __post_init__(self):
        for name in ("battery_dephasing_per_reset", "battery_t2_per_cycle"):
            value = _check_finite(name, getattr(self, name))
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must lie in [0, 1], got {value}")
            object.__setattr__(self, name, value)


def _check_finite(name: str, value) -> float:
    """float(value), or a ConfigError naming the field if value is not a finite
    real number. Strings and bools are rejected, not converted. float and int
    are tested before numbers.Real, whose abstract-class check is about ten
    times slower."""
    if isinstance(value, bool) or not isinstance(value, (float, int, numbers.Real)) or not math.isfinite(value):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def _check_populations(name: str, pops) -> tuple[float, float]:
    try:
        a, b = pops
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must be a pair of numbers, got {pops!r}") from None
    a, b = _check_finite(name, a), _check_finite(name, b)
    if not (0.0 <= a <= 1.0 and 0.0 <= b <= 1.0):
        raise ConfigError(f"{name} entries must lie in [0, 1], got ({a}, {b})")
    if abs(a + b - 1.0) > 1e-10:
        raise ConfigError(f"{name} must sum to 1, got {a} + {b} = {a + b}")
    return (a, b)


def _check_p_mx(p_mx, populations: tuple[float, float]) -> float:
    """p_mx as a float, or a ConfigError naming it if it breaks positivity."""
    p_mx = _check_finite("p_mx", p_mx)
    p0, p1 = populations
    bound = math.sqrt(p0 * p1)
    if abs(p_mx) > bound + 1e-12:
        raise ConfigError(
            f"p_mx: |p_mx| = {abs(p_mx)} exceeds the positivity bound "
            f"sqrt(p0*p1) = {bound:.12g} for hot populations ({p0}, {p1})"
        )
    return p_mx


def _check_battery(p) -> Polarization:
    """p as a Polarization, or a ConfigError naming battery_init if |P| > 1/2."""
    p = Polarization(*(_check_finite("battery_init", x) for x in p))
    if p.norm() > 0.5 + 1e-12:
        raise ConfigError(f"battery_init: polarization magnitude {p.norm():.12g} exceeds 1/2")
    return p


@dataclass(frozen=True)
class EngineConfig:
    """All physical and protocol parameters of an engine run.

    Every reported energy is expressed in units of hbar*omega of the respective
    qubit, so the qubit frequencies never enter. Bath populations are listed in
    basis order (excited, ground); the defaults are the experimental bath
    diagonals diag(0.485, 0.515) and diag(0.03, 0.97).
    """

    theta: float = math.pi / 4
    theta_compression: float | None = None
    p_mx: float = 0.45
    hot_populations: tuple[float, float] = (0.485, 0.515)
    cold_populations: tuple[float, float] = (0.03, 0.97)
    battery_init: Polarization = Polarization(0.0, 0.0, -0.5)
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    cycles: int = 1

    def __post_init__(self):
        for name in ("theta", "theta_compression"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, _check_finite(name, value))
        cycles = self.cycles
        if isinstance(cycles, bool) or not isinstance(cycles, numbers.Integral) or cycles < 1:
            raise ConfigError(f"cycles must be a positive integer, got {cycles!r}")
        object.__setattr__(self, "cycles", int(cycles))
        object.__setattr__(self, "hot_populations", _check_populations("hot_populations", self.hot_populations))
        object.__setattr__(self, "cold_populations", _check_populations("cold_populations", self.cold_populations))
        object.__setattr__(self, "battery_init", _check_battery(self.battery_init))
        object.__setattr__(self, "p_mx", _check_p_mx(self.p_mx, self.hot_populations))

    @property
    def compression_theta(self) -> float:
        """Second-stroke angle; equals theta unless explicitly overridden."""
        return self.theta if self.theta_compression is None else self.theta_compression

    def with_p_mx(self, p_mx: float) -> "EngineConfig":
        return replace(self, p_mx=p_mx)


class CycleRecord(NamedTuple):
    """Every diagnostic recorded for one engine cycle: its index, then the 19
    columns of a trace CSV row under their column names.

    Correlators and concurrence are measured immediately after the first
    power stroke (the state-verification point); the battery polarization
    p_b, ergotropy and coherence refer to the battery at the end of the cycle.
    corr_mj and corr_bj are the single-spin <sigma^j> of medium and battery,
    corr_jj the pair correlator <sigma_M^j sigma_B^j>.
    """

    cycle_index: int
    cycle_work: float
    cumulative_work: float
    p_bx: float
    p_by: float
    p_bz: float
    ergotropy_total: float
    ergotropy_incoherent: float
    ergotropy_coherent: float
    rel_entropy_coherence: float
    concurrence: float
    corr_mx: float
    corr_my: float
    corr_mz: float
    corr_bx: float
    corr_by: float
    corr_bz: float
    corr_xx: float
    corr_yy: float
    corr_zz: float


def prepare_hot_medium(p_mx, populations) -> np.ndarray:
    """Coherently heated medium state diag(p0, p1) + p_mx * sigma_x.

    Positivity requires |p_mx| <= sqrt(p0*p1); violating inputs raise a
    ConfigError naming that bound. A sequence of k values of p_mx with k
    population pairs gives the (k, 2, 2) stack of their states.
    """
    stacked = np.ndim(p_mx) > 0
    p_mx, populations = (p_mx, populations) if stacked else ([p_mx], [populations])
    pops = [_check_populations("hot_populations", p) for p in populations]
    coherences = [_check_p_mx(x, p) for x, p in zip(p_mx, pops, strict=True)]
    rho = validate_density(
        np.array([[[p0, x], [x, p1]] for (p0, p1), x in zip(pops, coherences)], dtype=complex)
    )
    return rho if stacked else rho[0]


def prepare_cold_medium(populations) -> np.ndarray:
    """Diagonal cold-bath state diag(q0, q1); a sequence of k population pairs
    gives the (k, 2, 2) stack of their states."""
    stacked = np.ndim(populations) > 1
    pops = [_check_populations("cold_populations", p) for p in (populations if stacked else [populations])]
    rho = np.array([[[q0, 0.0], [0.0, q1]] for q0, q1 in pops], dtype=complex)
    return rho if stacked else rho[0]


def prepare_battery(p: Polarization | Sequence[float]) -> np.ndarray:
    """Battery state I/2 + px*sx + py*sy + pz*sz for |P| <= 1/2."""
    p = _check_battery(p)
    return validate_density(np.array([[0.5 + p.pz, p.px - 1j * p.py], [p.px + 1j * p.py, 0.5 - p.pz]]))


def _cos_sin(theta) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of every stroke angle, each as an array of theta's shape.
    A non-finite angle raises a ConfigError naming theta and the value."""
    theta = np.asarray(theta, dtype=float)
    angles = [_check_finite("theta", t) for t in theta.ravel().tolist()]
    return tuple(np.array([f(t) for t in angles]).reshape(theta.shape) for f in (math.cos, math.sin))


def flip_flop_propagator(theta) -> np.ndarray:
    """Unitary of one power stroke: rotation by theta on the {|01>,|10>} subspace.

    Acts as the identity on |00> and |11>; on the one-excitation subspace it is
    [[cos(theta), -i sin(theta)], [-i sin(theta), cos(theta)]]. theta = pi/2 is
    a full population swap between medium and battery. An array of angles
    gives one unitary per angle, stacked along its axes. A non-finite angle
    raises a ConfigError naming theta and the value.
    """
    cos, sin = _cos_sin(theta)
    u = np.empty(cos.shape + (4, 4), dtype=complex)
    u[...] = _IDENTITY4
    u[..., 1, 1] = u[..., 2, 2] = cos
    u[..., 1, 2] = u[..., 2, 1] = -1j * sin
    return u


def power_stroke(joint: np.ndarray, theta) -> np.ndarray:
    """Conjugate the joint state by the flip-flop unitary U = flip_flop_propagator(theta).

    U is the identity outside the one-excitation block, so only rows and
    columns 1 and 2 change: each pair is mixed with cos theta and -i sin theta,
    without the two dense 4x4 products (validate's stroke check compares the
    result with the dense U joint U^dagger). theta is one angle, or an array of
    angles whose axes run along the leading batch axes of joint (one angle per
    config of a (k, ..., 4, 4) stack).
    """
    joint = validate_density(joint, check_spectrum=False, caller="power_stroke")
    cos, sin = _cos_sin(theta)
    if joint.shape[-1] != 4 or cos.shape != joint.shape[:-2][: cos.ndim]:
        raise ValidationError(f"theta of shape {cos.shape} does not match two-qubit states {joint.shape}")
    cos, isin = (x.reshape(x.shape + (1,) * (joint.ndim - x.ndim - 1)) for x in (cos, 1j * sin))
    out = joint.copy()
    r1, r2 = joint[..., 1, :], joint[..., 2, :]
    out[..., 1, :], out[..., 2, :] = cos * r1 - isin * r2, cos * r2 - isin * r1  # U joint
    c1, c2 = out[..., 1], out[..., 2]
    out[..., 1], out[..., 2] = cos * c1 + isin * c2, cos * c2 + isin * c1  # (U joint) U^dagger
    return out


def reset_medium(joint: np.ndarray, fresh: np.ndarray) -> np.ndarray:
    """Replace the medium marginal with a fresh bath state.

    Equivalent to a SWAP with an uncorrelated ancilla: the battery marginal is
    preserved exactly and all medium-battery correlations are discarded.
    """
    joint = validate_density(joint, check_spectrum=False, caller="reset_medium")
    return kron(fresh, partial_trace(joint, "battery"))


def make_cycle_record(
    index: int,
    energy_in: float,
    work_before: float,
    battery: Polarization,
    post_stroke_joint: np.ndarray,
    correlators: Sequence[float],
) -> CycleRecord:
    """Assemble the full diagnostic record for one completed cycle.

    energy_in is the battery energy when the cycle began, work_before the
    cumulative work of the earlier cycles, battery the Bloch vector of the
    battery at the end of the cycle, and correlators the nine of the state
    right after the first power stroke, in correlator_sets order. Work,
    ergotropy and coherence are read off the Bloch vector; concurrence needs
    the post-stroke state itself.
    """
    work = battery.pz - energy_in
    return CycleRecord(
        index,
        work,
        work_before + work,
        *battery,
        *ergotropy(battery),
        relative_entropy_of_coherence(battery),
        concurrence(post_stroke_joint),
        *correlators,
    )
