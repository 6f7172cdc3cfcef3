"""Seeded workload inputs for the spinotto benchmark.

Every input is plain `.scn` text; the program under test never sees the seed.
Numbers are written with `repr(float(x))`, which round-trips exactly and is
what the scenario parser accepts (a numpy scalar repr such as
`np.float64(0.1)` is not).

The same seed always gives the same text. Every config stays strictly inside
the validity bounds the program enforces: populations sum to 1,
|p_mx| <= sqrt(p0*p1) and |P| <= 1/2, each with a margin, so no operation is
expected to fail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

WORKLOADS = ("trajectory", "grid", "selfcheck")

TRAJECTORY_CONFIGS = 3
TRAJECTORY_CYCLES = 200
GRID_AXES = {"theta": 6, "p_mx": 5, "battery_dephasing_per_reset": 3, "battery_t2_per_cycle": 3}
GRID_MAX_CYCLES = 2


@dataclass(frozen=True)
class Config:
    """One engine configuration, as the reference needs it."""

    theta: float
    theta_compression: float | None
    p_mx: float
    hot: tuple[float, float]
    cold: tuple[float, float]
    battery: tuple[float, float, float]
    reset_f: float
    t2_f: float
    cycles: int

    @property
    def compression(self) -> float:
        return self.theta if self.theta_compression is None else self.theta_compression


@dataclass(frozen=True)
class Grid:
    """A search-advantage scenario: a base config and the four sorted axes."""

    base: Config
    theta: tuple[float, ...]
    p_mx: tuple[float, ...]
    reset_f: tuple[float, ...]
    t2_f: tuple[float, ...]
    max_cycles: int

    def points(self) -> list[tuple[float, float, float, float]]:
        """Grid points in the order the program writes them (lexicographic)."""
        return [
            (t, p, rd, t2)
            for t in self.theta
            for p in self.p_mx
            for rd in self.reset_f
            for t2 in self.t2_f
        ]


@dataclass(frozen=True)
class Workload:
    """Generated inputs of one workload.

    scenarios maps a file name to its `.scn` text. ops is the number of
    operations one repetition attempts; records the number of cycle records
    it produces (both engines of every compare counted).
    """

    name: str
    seed: int
    scenarios: dict[str, str] = field(default_factory=dict)
    configs: tuple[Config, ...] = ()
    grid: Grid | None = None
    ops: int = 0
    records: int = 0


def _f(x: float) -> str:
    return repr(float(x))


def _rng(name: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([WORKLOADS.index(name), int(seed)])


def _populations(rng: np.random.Generator, lo: float, hi: float, off_half: bool) -> tuple[float, float]:
    if off_half:
        p0 = 0.5 + float(rng.choice([-1.0, 1.0])) * float(rng.uniform(lo, hi))
    else:
        p0 = float(rng.uniform(lo, hi))
    return (p0, 1.0 - p0)


def _battery(rng: np.random.Generator, rmin: float, rmax: float, max_cos_z: float = 1.0) -> tuple[float, float, float]:
    """Polarization of radius in [rmin, rmax] with pz/|P| <= max_cos_z."""
    while True:
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        if direction[2] <= max_cos_z:
            break
    r = float(rng.uniform(rmin, rmax))
    return tuple(float(r * d) for d in direction)


def check_bounds(c: Config) -> None:
    """Raise ValueError if a generated config leaves the validity region."""
    p0, p1 = c.hot
    q0, q1 = c.cold
    if not (0.0 <= p0 <= 1.0 and 0.0 <= q0 <= 1.0):
        raise ValueError(f"population out of [0, 1]: {c}")
    if abs(p0 + p1 - 1.0) > 1e-12 or abs(q0 + q1 - 1.0) > 1e-12:
        raise ValueError(f"populations do not sum to 1: {c}")
    if abs(c.p_mx) > math.sqrt(p0 * p1):
        raise ValueError(f"|p_mx| exceeds sqrt(p0*p1): {c}")
    if math.sqrt(sum(x * x for x in c.battery)) > 0.5:
        raise ValueError(f"|P| exceeds 1/2: {c}")
    if not (0.0 <= c.reset_f <= 1.0 and 0.0 <= c.t2_f <= 1.0):
        raise ValueError(f"noise factor out of [0, 1]: {c}")


def _bath_lines(c: Config) -> list[str]:
    """The [engine] keys a trajectory config and a grid base share."""
    return [
        f"hot_populations = {_f(c.hot[0])}, {_f(c.hot[1])}",
        f"cold_populations = {_f(c.cold[0])}, {_f(c.cold[1])}",
        f"battery_init = {', '.join(_f(x) for x in c.battery)}",
    ]


def trajectory_config(rng: np.random.Generator, index: int) -> Config:
    """A non-ideal compare config: hot populations off 1/2, impure cold bath,
    noise below 1, an arbitrary battery direction, and on every other config
    a separate compression angle."""
    hot = _populations(rng, 0.03, 0.2, off_half=True)
    cold = _populations(rng, 0.02, 0.2, off_half=False)
    bound = math.sqrt(hot[0] * hot[1])
    c = Config(
        theta=float(rng.uniform(0.2, 1.3)),
        theta_compression=float(rng.uniform(0.2, 1.3)) if index % 2 else None,
        p_mx=float(rng.choice([-1.0, 1.0])) * float(rng.uniform(0.2, 0.9)) * bound,
        hot=hot,
        cold=cold,
        battery=_battery(rng, 0.2, 0.45),
        reset_f=float(rng.uniform(0.85, 0.99)),
        t2_f=float(rng.uniform(0.8, 0.99)),
        cycles=TRAJECTORY_CYCLES,
    )
    check_bounds(c)
    return c


def trajectory_scn(c: Config, prefix: str) -> str:
    lines = ["schema_version = 1", "scenario = compare", "", "[engine]", f"theta = {_f(c.theta)}"]
    if c.theta_compression is not None:
        lines.append(f"theta_compression = {_f(c.theta_compression)}")
    lines += [f"p_mx = {_f(c.p_mx)}"] + _bath_lines(c) + [f"cycles = {c.cycles}", ""]
    lines += [
        "[noise]",
        f"battery_dephasing_per_reset = {_f(c.reset_f)}",
        f"battery_t2_per_cycle = {_f(c.t2_f)}",
        "",
        "[output]",
        f"prefix = {prefix}",
        "formats = csv, json",
    ]
    return "\n".join(lines) + "\n"


def _axis(rng: np.random.Generator, n: int, lo: float, hi: float) -> tuple[float, ...]:
    # equal strata with a jitter keep the values distinct and spread out
    edges = np.linspace(lo, hi, n + 1)
    return tuple(float(rng.uniform(a, b)) for a, b in zip(edges[:-1], edges[1:]))


def grid_spec(rng: np.random.Generator) -> Grid:
    hot = _populations(rng, 0.03, 0.2, off_half=True)
    cold = _populations(rng, 0.02, 0.2, off_half=False)
    bound = math.sqrt(hot[0] * hot[1])
    base = Config(
        theta=0.0,
        theta_compression=None,
        p_mx=0.0,
        hot=hot,
        cold=cold,
        # mostly discharged, so the incoherent engine charges it and the
        # advantage ratio is defined at most grid points
        battery=_battery(rng, 0.3, 0.45, max_cos_z=-0.6),
        reset_f=1.0,
        t2_f=1.0,
        cycles=GRID_MAX_CYCLES,
    )
    grid = Grid(
        base=base,
        theta=_axis(rng, GRID_AXES["theta"], 0.15, 1.4),
        p_mx=_axis(rng, GRID_AXES["p_mx"], 0.05 * bound, 0.95 * bound),
        reset_f=_axis(rng, GRID_AXES["battery_dephasing_per_reset"], 0.8, 1.0),
        t2_f=_axis(rng, GRID_AXES["battery_t2_per_cycle"], 0.8, 1.0),
        max_cycles=GRID_MAX_CYCLES,
    )
    for t, p, rd, t2 in grid.points():
        check_bounds(grid_config(grid, (t, p, rd, t2)))
    return grid


def grid_config(grid: Grid, point: tuple[float, float, float, float]) -> Config:
    t, p, rd, t2 = point
    return replace(grid.base, theta=t, p_mx=p, reset_f=rd, t2_f=t2)


def grid_scn(grid: Grid, prefix: str) -> str:
    lines = ["schema_version = 1", "scenario = search-advantage", "", "[engine]"] + _bath_lines(grid.base)
    lines += [
        "",
        "[search]",
        f"theta = {', '.join(_f(x) for x in grid.theta)}",
        f"p_mx = {', '.join(_f(x) for x in grid.p_mx)}",
        f"battery_dephasing_per_reset = {', '.join(_f(x) for x in grid.reset_f)}",
        f"battery_t2_per_cycle = {', '.join(_f(x) for x in grid.t2_f)}",
        f"max_cycles = {grid.max_cycles}",
        "",
        "[output]",
        f"prefix = {prefix}",
        "formats = csv",
    ]
    return "\n".join(lines) + "\n"


def make_workload(name: str, seed: int) -> Workload:
    """Generate the inputs of the named workload from the seed."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(WORKLOADS)}")
    rng = _rng(name, seed)
    if name == "trajectory":
        configs = tuple(trajectory_config(rng, i) for i in range(TRAJECTORY_CONFIGS))
        scenarios = {f"traj{i}.scn": trajectory_scn(c, f"traj{i}") for i, c in enumerate(configs)}
        return Workload(
            name,
            seed,
            scenarios=scenarios,
            configs=configs,
            ops=len(configs),
            records=sum(2 * c.cycles for c in configs),
        )
    if name == "grid":
        grid = grid_spec(rng)
        n = len(grid.points())
        return Workload(
            name,
            seed,
            scenarios={"grid.scn": grid_scn(grid, "grid")},
            grid=grid,
            ops=n,
            records=2 * n * grid.max_cycles,
        )
    # selfcheck: the program's own check suite, driven by the seed alone
    return Workload(name, seed, ops=0, records=0)
