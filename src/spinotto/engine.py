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
from dataclasses import dataclass, fields, replace
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


# The shape of one row of each ConfigBatch field that is not a scalar.
_ROW_SHAPES = {"hot_populations": (2,), "cold_populations": (2,), "battery_init": (3,)}
# The largest count _check_count admits: (MAX_COUNT + 1) * 3 * 8 bytes is the
# most that fits below numpy's array size limit of 2**63 - 1 bytes.
MAX_COUNT = (2**63 - 1) // 24 - 1
# The fields of the two imperfection channels; a scenario file states them in
# [noise], and a summary JSON echoes them under "noise".
NOISE_FIELDS = ("battery_dephasing_per_reset", "battery_t2_per_cycle")


# Conversions: each takes a field's name and a value, and returns the value as
# the field stores it, or raises a ConfigError naming the field. Strings and
# bools are rejected, not converted.
def _number(name: str, value) -> float:
    """float(value) for a real number. float and int are tested before
    numbers.Real, whose abstract-class check is about ten times slower."""
    if isinstance(value, bool) or not isinstance(value, (float, int, numbers.Real)):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def _count(name: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be a positive integer, got {value!r}")
    _check_count(name, value)
    return int(value)


def _numbers(name: str, values, n: int) -> tuple[float, ...]:
    try:
        if len(values) == n:
            return tuple(_number(name, x) for x in values)
    except TypeError:  # no len(): not a sequence
        pass
    raise ConfigError(f"{name} must be {n} numbers, got {values!r}")


def _column(name: str, value, rows: int) -> np.ndarray:
    """value as the read-only array that ConfigBatch holds under name, with
    the given number of rows: ints for cycles, floats for the rest. The
    entries of a list or tuple go through _count or _number one by one; an
    array must hold integers or numbers, and an array of counts obeys
    _check_count before it is converted to int64."""
    shape, count = (rows,) + _ROW_SHAPES.get(name, ()), name == "cycles"
    a = value if isinstance(value, np.ndarray) else np.asarray(value, dtype=object)
    if a.shape != shape:
        raise ConfigError(f"{name} must be an array of numbers of shape {shape}, got {a.shape}")
    if a.dtype == object:
        for i, row in enumerate(a.reshape(len(a), -1).tolist()):
            for x in row:
                (_count if count else _number)(f"{name}[{i}]", x)
    elif a.dtype.kind not in ("iu" if count else "fiu"):
        raise ConfigError(f"{name} must be an array of {'integers' if count else 'numbers'}, got {a.dtype}")
    elif count:
        _check_count(name, a)
    a = a.astype(int if count else float)
    a.flags.writeable = False
    return a


# The rules. Each takes one config's numbers (floats, a pair, a Polarization)
# or a batch's columns (arrays with one row per config), so a config and a
# batch obey the same rules, evaluated once over the whole batch. A NaN breaks
# every rule.
def _require(name: str, ok, values, rule: str) -> None:
    """Raise a ConfigError naming the field and its value where ok is False;
    for arrays, the first row where it is False, and that row's value."""
    if not isinstance(ok, np.ndarray):
        if not ok:
            raise ConfigError(f"{name} {rule}, got {values!r}")
    elif not ok.all():
        row = int(ok.argmin())
        raise ConfigError(f"{name}[{row}] {rule}, got {values[row].tolist()}")


def _parts(v):
    """The components of a pair or vector, or the columns of a batch's (k, n) array."""
    return v.T if isinstance(v, np.ndarray) else v


def _check_count(name: str, n) -> None:
    """A count of cycles, draws or applications: at least 1, and small
    enough that numpy can describe the (n + 1, 3) float64 array of the
    battery vectors P_0 ... P_n of an n-cycle run (below 2**63 bytes). A
    smaller count, or a block of runs padded to it, can still be too large
    for memory: multicycle.stack_runs then raises a ConfigError."""
    _require(name, (1 <= n) & (n <= MAX_COUNT), n, f"must be a positive integer up to {MAX_COUNT}")


def _check_factor(name: str, f) -> None:
    _require(name, (0.0 <= f) & (f <= 1.0), f, "must lie in [0, 1]")


def _check_populations(name: str, pops) -> None:
    a, b = _parts(pops)
    ok = (0.0 <= a) & (a <= 1.0) & (0.0 <= b) & (b <= 1.0) & (abs(a + b - 1.0) <= 1e-10)
    _require(name, ok, pops, "must be two numbers in [0, 1] that sum to 1")


def _check_hot(p_mx, pops) -> None:
    """The hot populations, and p_mx within the bound sqrt(p0*p1) that keeps
    the hot state positive."""
    _check_populations("hot_populations", pops)
    a, b = _parts(pops)
    _require("p_mx", abs(p_mx) <= (a * b) ** 0.5 + 1e-12, p_mx, "exceeds the positivity bound sqrt(p0*p1)")


def _check_battery(p) -> None:
    x, y, z = _parts(p)
    _require("battery_init", (x * x + y * y + z * z) ** 0.5 <= 0.5 + 1e-12, p, "has |P| above 1/2")


def _check_config(c, compression: str = "compression_theta") -> None:
    """Every rule of an EngineConfig or a ConfigBatch c; compression names
    the second stroke's angle. The cycle count obeys _check_count as it is
    converted, before any rule runs."""
    _require("theta", abs(c.theta) < math.inf, c.theta, "must be a finite number")
    _require(compression, abs(c.compression_theta) < math.inf, c.compression_theta, "must be a finite number")
    _check_hot(c.p_mx, c.hot_populations)
    _check_populations("cold_populations", c.cold_populations)
    _check_battery(c.battery_init)
    for name in NOISE_FIELDS:
        _check_factor(name, getattr(c, name))


@dataclass(frozen=True)
class EngineConfig:
    """All physical and protocol parameters of an engine run.

    Every reported energy is expressed in units of hbar*omega of the respective
    qubit, so the qubit frequencies never enter. Bath populations are listed in
    basis order (excited, ground); the defaults are the experimental bath
    diagonals diag(0.485, 0.515) and diag(0.03, 0.97).

    The two noise factors are phenomenological imperfection channels for
    multi-cycle runs. battery_dephasing_per_reset multiplies the battery's
    energy-basis coherences at each medium reset (hot and cold), standing in
    for residual transverse coupling during the reset. battery_t2_per_cycle
    applies the same channel once per cycle for ambient decoherence. Both lie
    in [0, 1], and both equal to 1 is the ideal (noise-free) engine.
    """

    theta: float = math.pi / 4
    theta_compression: float | None = None
    p_mx: float = 0.45
    hot_populations: tuple[float, float] = (0.485, 0.515)
    cold_populations: tuple[float, float] = (0.03, 0.97)
    battery_init: Polarization = Polarization(0.0, 0.0, -0.5)
    battery_dephasing_per_reset: float = 1.0
    battery_t2_per_cycle: float = 1.0
    cycles: int = 1

    def __post_init__(self):
        for name in ("theta", "p_mx", *NOISE_FIELDS):
            object.__setattr__(self, name, _number(name, getattr(self, name)))
        if self.theta_compression is not None:
            object.__setattr__(self, "theta_compression", _number("theta_compression", self.theta_compression))
        for name in ("hot_populations", "cold_populations"):
            object.__setattr__(self, name, _numbers(name, getattr(self, name), 2))
        object.__setattr__(self, "battery_init", Polarization(*_numbers("battery_init", self.battery_init, 3)))
        object.__setattr__(self, "cycles", _count("cycles", self.cycles))
        _check_config(self, "theta_compression")

    @property
    def compression_theta(self) -> float:
        """Second-stroke angle; equals theta unless explicitly overridden."""
        return self.theta if self.theta_compression is None else self.theta_compression

    def with_p_mx(self, p_mx: float) -> "EngineConfig":
        return replace(self, p_mx=p_mx)


# The config fields a sweep sets: every EngineConfig field but the populations
# and battery_init, whose components it sets as battery_px/py/pz.
_BATTERY_COMPONENTS = tuple(f"battery_{axis}" for axis in Polarization._fields)
SWEEPABLE_FIELDS = ("theta", "theta_compression", "p_mx") + _BATTERY_COMPONENTS + NOISE_FIELDS + ("cycles",)
# Every name with_fields takes: the sweepable fields and the [engine] keys of
# a scenario file that a sweep cannot vary.
_CONFIG_FIELDS = SWEEPABLE_FIELDS + ("hot_populations", "cold_populations", "battery_init")


def with_fields(config: EngineConfig, **values) -> EngineConfig:
    """config with the named fields set to the given values: EngineConfig's
    fields and the battery components (_CONFIG_FIELDS), in one EngineConfig
    construction however many names are given. A battery component applies
    on top of a battery_init given with it."""
    unknown = [name for name in values if name not in _CONFIG_FIELDS]
    if unknown:
        raise ConfigError(f"unknown field {unknown[0]!r}; expected one of {', '.join(_CONFIG_FIELDS)}")
    battery = {name.removeprefix("battery_"): values.pop(name) for name in _BATTERY_COMPONENTS if name in values}
    if battery:
        values["battery_init"] = Polarization(*values.get("battery_init", config.battery_init))._replace(**battery)
    # scenario files give counts like 2.0; EngineConfig checks the rest
    if isinstance(values.get("cycles"), float) and values["cycles"].is_integer():
        values["cycles"] = int(values["cycles"])
    return replace(config, **values)


@dataclass(frozen=True, eq=False)
class ConfigBatch:
    """EngineConfig's fields as arrays, one row per config, in EngineConfig's
    order: the input of every stacked map. theta, compression_theta (the
    resolved angle, in place of theta_compression), p_mx, the two noise
    factors and cycles have shape (k,), the populations (k, 2) and
    battery_init (k, 3).

    The constructor checks the batch by the rules of EngineConfig (the one
    _check_config), each evaluated once over all rows; a failure raises a
    ConfigError that names the field, the first bad row and its value. A list
    entry that is no number (a bool, a string) is rejected, and cycles must be
    integers. The arrays are stored read-only (cycles as int), so a batch
    stays checked; dataclasses.replace checks anew. ConfigBatch.of(configs)
    and batch.configs() are the conversions. of hands the constructor arrays,
    so checking its configs' numbers again costs a few numpy calls per rule
    and no Python work per config.
    """

    theta: np.ndarray
    compression_theta: np.ndarray
    p_mx: np.ndarray
    hot_populations: np.ndarray
    cold_populations: np.ndarray
    battery_init: np.ndarray
    battery_dephasing_per_reset: np.ndarray
    battery_t2_per_cycle: np.ndarray
    cycles: np.ndarray

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, _column(f.name, getattr(self, f.name), np.size(self.theta)))
        _check_config(self)

    @classmethod
    def of(cls, configs: Sequence[EngineConfig]) -> "ConfigBatch":
        """The batch of one or more configs, one row each, in order."""
        return cls(*(np.array([getattr(c, f.name) for c in configs]) for f in fields(cls)))

    def configs(self) -> list[EngineConfig]:
        """One EngineConfig per row, in order; theta_compression is set to the
        row's compression_theta."""
        return [EngineConfig(*row) for row in zip(*(getattr(self, f.name).tolist() for f in fields(self)))]

    def __len__(self) -> int:
        return len(self.theta)


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
    population pairs gives the (k, 2, 2) stack of their states, checked by
    the rules of ConfigBatch.
    """
    stacked = np.ndim(p_mx) > 0
    p_mx = _column("p_mx", p_mx if stacked else [p_mx], np.size(p_mx))
    pops = _column("hot_populations", populations if stacked else [populations], len(p_mx))
    _check_hot(p_mx, pops)
    rho = np.zeros((len(p_mx), 2, 2), dtype=complex)
    rho[:, 0, 0], rho[:, 1, 1] = pops.T
    rho[:, 0, 1] = rho[:, 1, 0] = p_mx
    rho = validate_density(rho)
    return rho if stacked else rho[0]


def prepare_cold_medium(populations) -> np.ndarray:
    """Diagonal cold-bath state diag(q0, q1); a sequence of k population pairs
    gives the (k, 2, 2) stack of their states."""
    stacked = np.ndim(populations) > 1
    pops = _column("cold_populations", populations if stacked else [populations], np.size(populations) // 2)
    _check_populations("cold_populations", pops)
    rho = np.zeros((len(pops), 2, 2), dtype=complex)
    rho[:, 0, 0], rho[:, 1, 1] = pops.T
    return rho if stacked else rho[0]


def prepare_battery(p: Polarization | Sequence[float]) -> np.ndarray:
    """Battery state I/2 + px*sx + py*sy + pz*sz for |P| <= 1/2.

    It needs no validate_density: the matrix is Hermitian by construction
    (its off-diagonal entries are complex conjugates), its trace is
    (1/2 + pz) + (1/2 - pz), within one ulp of 1, and its eigenvalues are
    1/2 +- |P|, so the check |P| <= 1/2 + 1e-12 keeps lambda_min >= -1e-12,
    above PSD_CLAMP.
    """
    p = Polarization(*_numbers("battery_init", p, 3))
    _check_battery(p)
    return np.array([[0.5 + p.pz, p.px - 1j * p.py], [p.px + 1j * p.py, 0.5 - p.pz]])


def _cos_sin(theta) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of every stroke angle, each as an array of theta's shape.
    A non-finite angle raises a ConfigError naming theta, the flat index of
    the first one and its value."""
    theta = np.asarray(theta, dtype=float)
    flat = theta.ravel()
    _require("theta", np.isfinite(flat), flat, "must be a finite number")
    angles = flat.tolist()
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
