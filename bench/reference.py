"""Independent reference for every number the benchmark workloads write.

Plain numpy only: nothing here imports spinotto. The engine is re-derived
from its physics and batched over a leading config axis:

* the power stroke is exp(-i*theta*H) with H = (XX + YY)/2, built from
  `np.linalg.eigh` of H rather than from the explicit rotation;
* each cycle is hot reset, stroke, cold reset, stroke, with the battery
  dephased at both resets and once more at the end of the cycle;
* battery diagnostics use the qubit closed forms in the Bloch vector P:
  ergotropy pz + |P|, its incoherent part pz + |pz|, and the relative
  entropy of coherence H(1/2 +- pz) - H(1/2 +- |P|);
* concurrence is Wootters' formula with `np.linalg.eigh`/`eigvalsh`.

Every comparison has its own tolerance, scaled by how well conditioned the
quantity is: linear readouts get 64 ulps per cycle of history, entropies pick up the
log-derivative of the binary entropy, concurrence the square root of an
eigenvalue error, and the advantage ratio 1/W_incoh.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import os
import re

import numpy as np

from gen import Config, Grid, Workload, grid_config

EPS = float(np.finfo(float).eps)
LIN_TOL = 64 * EPS           # a readout linear in the state, per cycle of history
EIG_TOL = 64 * EPS           # eigenvalue error of a 4x4 Hermitian solve, relative to its norm
ADVANTAGE_FLOOR = 1e-12      # the program leaves the ratio undefined at or below this W_incoh

TRACE_COLUMNS = (
    "cycle_index",
    "cycle_work",
    "cumulative_work",
    "p_bx",
    "p_by",
    "p_bz",
    "ergotropy_total",
    "ergotropy_incoherent",
    "ergotropy_coherent",
    "rel_entropy_coherence",
    "concurrence",
    "corr_mx",
    "corr_my",
    "corr_mz",
    "corr_bx",
    "corr_by",
    "corr_bz",
    "corr_xx",
    "corr_yy",
    "corr_zz",
)
ADVANTAGE_COLUMNS = ("cycle_index", "work_coherent", "work_incoherent", "advantage_ratio", "advantage_defined")
GRID_COLUMNS = (
    "theta",
    "p_mx",
    "battery_dephasing_per_reset",
    "battery_t2_per_cycle",
    "peak_ratio",
    "peak_cycle",
    "defined",
)

_I2 = np.eye(2, dtype=complex)
_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)
_PAULIS = (_SX, _SY, _SZ)
_YY = np.kron(_SY, _SY)
_FLIP_FLOP = (np.kron(_SX, _SX) + np.kron(_SY, _SY)) / 2
_FF_W, _FF_V = np.linalg.eigh(_FLIP_FLOP)
# True where row and column differ in the battery (right) factor of |m b>.
_BATTERY_OFFDIAG = (np.arange(4)[:, None] % 2) != (np.arange(4)[None, :] % 2)


class Mismatch(AssertionError):
    """An output disagrees with the reference beyond its tolerance."""


# --------------------------------------------------------------------------
# simulation


def _stroke(theta: np.ndarray) -> np.ndarray:
    phases = np.exp(-1j * theta[:, None] * _FF_W[None, :])
    return np.einsum("ij,nj,kj->nik", _FF_V, phases, _FF_V.conj())


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("nij,nkl->nikjl", a, b).reshape(-1, 4, 4)


def _battery_marginal(joint: np.ndarray) -> np.ndarray:
    return np.einsum("...mbmd->...bd", joint.reshape(joint.shape[:-2] + (2, 2, 2, 2)))


def _medium_marginal(joint: np.ndarray) -> np.ndarray:
    return np.einsum("...mbnb->...mn", joint.reshape(joint.shape[:-2] + (2, 2, 2, 2)))


def _dephaser(f: np.ndarray) -> np.ndarray:
    return np.where(_BATTERY_OFFDIAG[None], f[:, None, None], 1.0)


def _expect(rho: np.ndarray, op: np.ndarray) -> np.ndarray:
    return np.einsum("...ij,ji->...", rho, op).real


@dataclasses.dataclass
class Trajectories:
    """Per-cycle results of a batch of engines; leading axes (config, cycle)."""

    work: np.ndarray         # (N, C)
    battery: np.ndarray      # (N, C, 2, 2) battery at the end of each cycle
    post_stroke: np.ndarray  # (N, C, 4, 4) joint state after the first stroke


def simulate(configs: list[Config]) -> Trajectories:
    """Run every config for its cycles; all configs must share the cycle count."""
    cycles = {c.cycles for c in configs}
    if len(cycles) != 1:
        raise ValueError("simulate needs one cycle count for the whole batch")
    (n_cycles,) = cycles
    col = lambda key: np.array([key(c) for c in configs], dtype=float)  # noqa: E731
    p0, p1, pmx = col(lambda c: c.hot[0]), col(lambda c: c.hot[1]), col(lambda c: c.p_mx)
    hot = np.zeros((len(configs), 2, 2), dtype=complex)
    hot[:, 0, 0], hot[:, 1, 1], hot[:, 0, 1], hot[:, 1, 0] = p0, p1, pmx, pmx
    cold = np.zeros_like(hot)
    cold[:, 0, 0], cold[:, 1, 1] = col(lambda c: c.cold[0]), col(lambda c: c.cold[1])
    p = np.array([c.battery for c in configs], dtype=float)
    battery = 0.5 * _I2 + np.einsum("nj,jab->nab", p, np.array(_PAULIS))
    u1, u2 = _stroke(col(lambda c: c.theta)), _stroke(col(lambda c: c.compression))
    d_reset, d_t2 = _dephaser(col(lambda c: c.reset_f)), _dephaser(col(lambda c: c.t2_f))

    work = np.empty((len(configs), n_cycles))
    batteries = np.empty((len(configs), n_cycles, 2, 2), dtype=complex)
    posts = np.empty((len(configs), n_cycles, 4, 4), dtype=complex)
    for n in range(n_cycles):
        energy_in = 0.5 * _expect(battery, _SZ)
        joint = _kron(hot, battery) * d_reset
        joint = u1 @ joint @ u1.conj().transpose(0, 2, 1)
        posts[:, n] = joint
        joint = _kron(cold, _battery_marginal(joint)) * d_reset
        joint = u2 @ joint @ u2.conj().transpose(0, 2, 1)
        battery = _battery_marginal(joint * d_t2)
        work[:, n] = 0.5 * _expect(battery, _SZ) - energy_in
        batteries[:, n] = battery
    return Trajectories(work, batteries, posts)


def _binary_entropy(r: np.ndarray) -> np.ndarray:
    out = np.zeros_like(r)
    for lam in (0.5 + r, 0.5 - r):
        pos = lam > 0
        out[pos] -= lam[pos] * np.log(lam[pos])
    return out


def _entropy_slope(r: np.ndarray) -> np.ndarray:
    """|dH/dr| of the binary entropy at eigenvalues 1/2 +- r (capped at the ulp scale)."""
    lo = np.maximum(0.5 - np.abs(r), EPS)
    return np.abs(np.log((0.5 + np.abs(r)) / lo))


def concurrence(joint: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Wootters concurrence and its tolerance for a stack of 4x4 states."""
    w, v = np.linalg.eigh(joint)
    root = np.einsum("...ij,...j,...kj->...ik", v, np.sqrt(np.clip(w, 0.0, None)), v.conj())
    tilde = _YY @ joint.conj() @ _YY
    m = root @ tilde @ root
    m = (m + np.swapaxes(m, -1, -2).conj()) / 2
    lam = np.clip(np.linalg.eigvalsh(m), 0.0, None)
    roots = np.sqrt(lam)[..., ::-1]
    c = np.maximum(0.0, roots[..., 0] - roots[..., 1:].sum(axis=-1))
    # An eigenvalue error delta moves its root by min(sqrt(delta), delta/(2 sqrt(lam))).
    # delta grows as the square root of the state amplifies the errors of its
    # smallest eigenvalue mu: delta ~ EIG_TOL * (1 + 1/sqrt(mu)).
    mu = np.clip(w[..., 0], EPS, None)
    delta = EIG_TOL * (1.0 + 1.0 / np.sqrt(mu))
    per_root = np.minimum(np.sqrt(delta)[..., None], delta[..., None] / (2 * np.sqrt(np.clip(lam, EPS, None))))
    return c, per_root.sum(axis=-1) + LIN_TOL


def trace_table(t: Trajectories, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Expected values and tolerances of every trace-CSV column of config k.

    Both arrays have shape (cycles, len(TRACE_COLUMNS)); column 0 is the cycle index.
    """
    n_cycles = t.work.shape[1]
    idx = np.arange(1, n_cycles + 1, dtype=float)
    bat, post = t.battery[k], t.post_stroke[k]
    pol = np.stack([0.5 * _expect(bat, s) for s in _PAULIS], axis=-1)
    pz = pol[:, 2]
    r = np.linalg.norm(pol, axis=-1)
    rho_m, rho_b = _medium_marginal(post), _battery_marginal(post)
    conc, conc_tol = concurrence(post)
    # state errors accumulate at most linearly with the cycles behind them
    lin = LIN_TOL * idx
    values = np.column_stack(
        [
            idx,
            t.work[k],
            np.cumsum(t.work[k]),
            pol,
            pz + r,
            pz + np.abs(pz),
            r - np.abs(pz),
            _binary_entropy(pz) - _binary_entropy(r),
            conc,
            *[_expect(rho_m, s) for s in _PAULIS],
            *[_expect(rho_b, s) for s in _PAULIS],
            *[_expect(post, np.kron(s, s)) for s in _PAULIS],
        ]
    )
    tol = np.column_stack(
        [
            np.zeros(n_cycles),
            lin,
            np.cumsum(lin),
            lin, lin, lin,
            2 * lin,
            2 * lin,
            4 * lin,
            lin * (1.0 + _entropy_slope(pz) + _entropy_slope(r)),
            conc_tol + lin,
            *[2 * lin] * 9,
        ]
    )
    return values, tol


@dataclasses.dataclass
class Advantage:
    """Per-cycle advantage ratio with its tolerance and definedness.

    defined is +1 (surely defined), -1 (surely undefined) or 0 (W_incoh lies
    within its tolerance of the floor, so either reading is right).
    """

    ratio: np.ndarray
    tol: np.ndarray
    defined: np.ndarray


def advantage(w_coh: np.ndarray, w_inc: np.ndarray, w_tol: np.ndarray) -> Advantage:
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = (w_coh - w_inc) / w_inc
        tol = w_tol * (1.0 / np.abs(w_inc) + np.abs(w_coh) / w_inc**2) + 4 * EPS * np.abs(ratio)
    defined = np.where(
        np.abs(w_inc - ADVANTAGE_FLOOR) <= w_tol, 0, np.where(w_inc > ADVANTAGE_FLOOR, 1, -1)
    )
    return Advantage(ratio, tol, defined)


# --------------------------------------------------------------------------
# output checks


def read_csv(path: str, header: tuple[str, ...]) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or tuple(rows[0]) != header:
        raise Mismatch(f"{os.path.basename(path)}: header {rows[:1]} != {list(header)}")
    return rows[1:]


def _close(name: str, got: float, want: float, tol: float) -> None:
    if not (abs(got - want) <= tol):
        raise Mismatch(f"{name}: got {got!r}, reference {float(want)!r}, |diff| {abs(got - want):.3e} > tol {tol:.3e}")


def check_trace_csv(path: str, values: np.ndarray, tol: np.ndarray) -> None:
    rows = read_csv(path, TRACE_COLUMNS)
    if len(rows) != values.shape[0]:
        raise Mismatch(f"{os.path.basename(path)}: {len(rows)} rows, expected {values.shape[0]}")
    base = os.path.basename(path)
    for i, row in enumerate(rows):
        if int(row[0]) != i + 1:
            raise Mismatch(f"{base} row {i + 1}: cycle_index {row[0]}")
        for j in range(1, len(TRACE_COLUMNS)):
            _close(f"{base} row {i + 1} {TRACE_COLUMNS[j]}", float(row[j]), values[i, j], tol[i, j])


def _check_ratio(name: str, text_ratio: str, text_defined: str, adv: Advantage, i: int) -> None:
    if text_defined not in ("0", "1"):
        raise Mismatch(f"{name}: defined flag {text_defined!r}")
    got_defined = text_defined == "1"
    if (adv.defined[i] == 1 and not got_defined) or (adv.defined[i] == -1 and got_defined):
        raise Mismatch(f"{name}: defined={text_defined}, reference W_incoh is {'above' if adv.defined[i] > 0 else 'below'} the floor")
    if got_defined:
        _close(name, float(text_ratio), adv.ratio[i], adv.tol[i])
    elif text_ratio != "nan":
        raise Mismatch(f"{name}: undefined ratio written as {text_ratio!r}")


def check_advantage_csv(path: str, coh: np.ndarray, inc: np.ndarray, coh_tol: np.ndarray, inc_tol: np.ndarray, adv: Advantage) -> None:
    rows = read_csv(path, ADVANTAGE_COLUMNS)
    base = os.path.basename(path)
    if len(rows) != len(coh):
        raise Mismatch(f"{base}: {len(rows)} rows, expected {len(coh)}")
    for i, row in enumerate(rows):
        if int(row[0]) != i + 1:
            raise Mismatch(f"{base} row {i + 1}: cycle_index {row[0]}")
        _close(f"{base} row {i + 1} work_coherent", float(row[1]), coh[i], coh_tol[i])
        _close(f"{base} row {i + 1} work_incoherent", float(row[2]), inc[i], inc_tol[i])
        _check_ratio(f"{base} row {i + 1} advantage_ratio", row[3], row[4], adv, i)


def _peak_ok(adv: Advantage, got_ratio: float, got_cycle: int) -> bool:
    """Is (ratio, cycle) a peak the reference allows? Cycles are 1-based."""
    k = got_cycle - 1
    if not 0 <= k < len(adv.ratio) or adv.defined[k] == -1:
        return False
    if not abs(got_ratio - adv.ratio[k]) <= adv.tol[k]:
        return False
    sure = adv.defined == 1
    return bool(np.all(adv.ratio[sure] - adv.tol[sure] <= got_ratio + adv.tol[k]))


def check_summary_json(path: str, config: Config, coh_cum: float, inc_cum: float, cum_tol: float, adv: Advantage) -> None:
    with open(path, encoding="utf-8") as fh:
        summary = json.load(fh)
    base = os.path.basename(path)
    if summary.get("scenario") != "compare":
        raise Mismatch(f"{base}: scenario {summary.get('scenario')!r}")
    echo = summary["config"]
    expected = {
        "theta": config.theta,
        "theta_compression": config.theta_compression,
        "p_mx": config.p_mx,
        "hot_populations": list(config.hot),
        "cold_populations": list(config.cold),
        "battery_init": list(config.battery),
        "cycles": config.cycles,
    }
    for key, want in expected.items():
        if echo.get(key) != want:
            raise Mismatch(f"{base}: config.{key} = {echo.get(key)!r}, generated {want!r}")
    noise = echo.get("noise", {})
    if noise.get("battery_dephasing_per_reset") != config.reset_f or noise.get("battery_t2_per_cycle") != config.t2_f:
        raise Mismatch(f"{base}: config.noise = {noise!r}")
    res = summary["results"]
    _close(f"{base} cumulative_work_coherent", res["cumulative_work_coherent"], coh_cum, cum_tol)
    _close(f"{base} cumulative_work_incoherent", res["cumulative_work_incoherent"], inc_cum, cum_tol)
    ratio, cycle = res["peak_advantage_ratio"], res["peak_advantage_cycle"]
    if ratio is None:
        if cycle is not None or np.any(adv.defined == 1):
            raise Mismatch(f"{base}: no peak reported, reference has defined ratios")
    elif not _peak_ok(adv, ratio, cycle):
        raise Mismatch(f"{base}: peak {ratio!r} at cycle {cycle} disagrees with the reference")


def check_compare_outputs(outdir: str, prefix: str, config: Config, t: Trajectories, k_coh: int, k_inc: int) -> None:
    """Check the trace, advantage and summary files of one compare run."""
    tables = {}
    for tag, k in (("coherent", k_coh), ("incoherent", k_inc)):
        values, tol = trace_table(t, k)
        check_trace_csv(os.path.join(outdir, f"{prefix}_{tag}.csv"), values, tol)
        tables[tag] = (values, tol)
    (vc, tc), (vi, ti) = tables["coherent"], tables["incoherent"]
    adv = advantage(vc[:, 1], vi[:, 1], np.maximum(tc[:, 1], ti[:, 1]))
    check_advantage_csv(os.path.join(outdir, f"{prefix}_advantage.csv"), vc[:, 1], vi[:, 1], tc[:, 1], ti[:, 1], adv)
    check_summary_json(os.path.join(outdir, f"{prefix}_summary.json"), config, vc[-1, 2], vi[-1, 2], tc[-1, 2], adv)


def _incoherent(c: Config) -> Config:
    return dataclasses.replace(c, p_mx=0.0)


def check_trajectory(w: Workload, outdirs: list[str]) -> list[str | None]:
    """Check every config's outputs; one error message (or None) per config."""
    configs = list(w.configs)
    t = simulate(configs + [_incoherent(c) for c in configs])
    errors: list[str | None] = []
    for k, (c, outdir) in enumerate(zip(configs, outdirs)):
        try:
            check_compare_outputs(outdir, f"traj{k}", c, t, k, k + len(configs))
            errors.append(None)
        except (Mismatch, OSError, KeyError, ValueError, TypeError) as exc:
            errors.append(f"{type(exc).__name__}: {exc}")
    return errors


_BEST_RE = re.compile(
    r"best grid point theta=(\S+) p_mx=(\S+) reset=(\S+) t2=(\S+): advantage (\S+) at cycle (\d+)"
)


def grid_reference(grid: Grid) -> list[Advantage]:
    points = grid.points()
    configs = [grid_config(grid, pt) for pt in points]
    t = simulate(configs + [_incoherent(c) for c in configs])
    n = len(points)
    w_tol = LIN_TOL * np.arange(1, grid.max_cycles + 1)
    return [advantage(t.work[i], t.work[i + n], w_tol) for i in range(n)]


def check_grid(w: Workload, outdir: str, stdout: str) -> list[str | None]:
    """Check every grid row and the reported argmax; one error (or None) per point."""
    grid = w.grid
    points = grid.points()
    advs = grid_reference(grid)
    path = os.path.join(outdir, "grid_grid.csv")
    try:
        rows = read_csv(path, GRID_COLUMNS)
    except (Mismatch, OSError) as exc:
        return [f"{type(exc).__name__}: {exc}"] * len(points)
    if len(rows) != len(points):
        return [f"Mismatch: {len(rows)} grid rows, expected {len(points)}"] * len(points)

    errors: list[str | None] = []
    peaks = np.full(len(points), -np.inf)
    for i, (row, point, adv) in enumerate(zip(rows, points, advs)):
        name = f"grid row {i + 1}"
        try:
            if tuple(float(x) for x in row[:4]) != point:
                raise Mismatch(f"{name}: point {row[:4]} != generated {point}")
            if row[6] == "1":
                ratio, cycle = float(row[4]), int(row[5])
                if not _peak_ok(adv, ratio, cycle):
                    raise Mismatch(f"{name}: peak {ratio!r} at cycle {cycle} disagrees with the reference")
                peaks[i] = ratio
            elif row[6] == "0":
                if row[4] != "nan" or row[5] != "0" or np.any(adv.defined == 1):
                    raise Mismatch(f"{name}: marked undefined, reference has a defined ratio")
            else:
                raise Mismatch(f"{name}: defined flag {row[6]!r}")
            errors.append(None)
        except (Mismatch, ValueError, IndexError) as exc:
            errors.append(f"{type(exc).__name__}: {exc}")

    argmax_error = _check_argmax(rows, points, peaks, advs, stdout)
    if argmax_error is not None:
        errors[0] = errors[0] or f"Mismatch: {argmax_error}"
    return errors


def _check_argmax(rows, points, peaks: np.ndarray, advs: list[Advantage], stdout: str) -> str | None:
    """The CLI's best point must be the first row with the largest peak, and
    the reference must not know a point whose peak is surely larger."""
    best = _BEST_RE.search(stdout)
    if not np.isfinite(peaks).any():
        return None if best is None else "a best point was reported, but no row has a defined ratio"
    if best is None:
        return "no best grid point reported"
    i = int(np.argmax(peaks))
    t, p, rd, t2 = points[i]
    want = (
        f"best grid point theta={t:.6g} p_mx={p:.6g} reset={rd:.6g} t2={t2:.6g}: "
        f"advantage {peaks[i]:.4g} at cycle {rows[i][5]}"
    )
    if best.group(0) != want:
        return f"best line {best.group(0)!r}, grid argmax is {want!r}"
    ref_peak, ref_tol = np.full(len(advs), -np.inf), np.zeros(len(advs))
    for n, a in enumerate(advs):
        live = np.flatnonzero(a.defined != -1)
        if live.size:
            k = live[np.argmax(a.ratio[live])]
            ref_peak[n], ref_tol[n] = a.ratio[k], a.tol[k]
    j = int(np.argmax(ref_peak))
    if ref_peak[j] - ref_tol[j] > ref_peak[i] + ref_tol[i]:
        return f"reference argmax is grid row {j + 1} ({ref_peak[j]!r}), the CLI chose row {i + 1}"
    return None


# Every residual the self-check suite reports is in e-notation; the loosest
# tolerance the suite states for any of them is 1e-10.
_RESIDUAL_RE = re.compile(r"[-+]?\d\.\d+e[-+]\d+")
SELFCHECK_TOL = 1e-10


def check_selfcheck(checks: list[dict]) -> list[str | None]:
    """Re-derive each check's verdict from the residuals it reports."""
    errors: list[str | None] = []
    for c in checks:
        if not c["passed"]:
            errors.append(f"check {c['name']} failed: {c['detail']}")
            continue
        residuals = [float(x) for x in _RESIDUAL_RE.findall(c["detail"])]
        bad = [x for x in residuals if not abs(x) <= SELFCHECK_TOL]
        if not residuals:
            errors.append(f"check {c['name']} reports no residual: {c['detail']!r}")
        elif bad:
            errors.append(f"check {c['name']} passed with residual {bad[0]:.3e} > {SELFCHECK_TOL:.0e}")
        else:
            errors.append(None)
    return errors
