"""Closed-loop ADRC: the one loop value `AdrcConfig` and its engine.

Loop per sample: read y, advance the observer, apply the outer proportional
law u0 = K*(v_d - z1) and the compensating inner law
u = (u0 - z2 - q_hat) / b, then advance the plant under held u.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .artifacts import write_csv
from .observers import Feso, Ieso, Ifeso
from .plant import DisturbanceSignal, FracPlant, check_plant

DIVERGENCE_LIMIT = 1e9

TRAJECTORY_COLUMNS = ("t", "v_d", "y", "u", "u0", "z1", "z2", "q_hat", "d")


class AdrcVariant(enum.Enum):
    IADRC = "iadrc"
    FADRC = "fadrc"
    IFADRC = "ifadrc"


class SimulationDiverged(RuntimeError):
    """Closed-loop output left the finite/bounded region."""

    def __init__(self, step_index: int, value: float):
        super().__init__(f"simulation diverged at step {step_index} "
                         f"(y={value!r})")
        self.step_index = step_index
        self.value = value


@dataclass
class AdrcConfig:
    """One closed loop: the controller, the plant b_o / (s**mu + a_o), Ts
    and the horizon.  Defaults match the reference bench setup: K = 150,
    omega_o = 400 rad/s, b = 1, plant 1/(s**0.8 + 10), 8 kHz, 1 s."""

    variant: AdrcVariant = AdrcVariant.IFADRC
    K: float = 150.0
    omega_o: float = 400.0
    b: float = 1.0
    Ts: float = 1.0 / 8000.0
    horizon: float = 1.0
    a_o: float = 10.0
    b_o: float = 1.0
    mu: float = 0.8

    def __post_init__(self):
        variant = self.variant
        self.variant = AdrcVariant(variant.lower() if isinstance(variant, str)
                                   else variant)
        for name in ("K", "omega_o", "Ts", "horizon"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be positive and finite, "
                                 f"got {value}")
        if not (math.isfinite(self.b) and self.b != 0.0):
            raise ValueError(f"b must be nonzero and finite, got {self.b}")
        check_plant(self.a_o, self.b_o, self.mu, self.Ts)
        for name in ("K", "omega_o", "b", "Ts", "horizon", "a_o", "b_o",
                     "mu"):
            setattr(self, name, float(getattr(self, name)))

    def samples(self) -> int:
        """Samples a run simulates, horizon / Ts rounded: two at least, for
        the step metrics' gradient, and no more than one array holds."""
        count = self.horizon / self.Ts
        if count > np.iinfo(np.intp).max // 8:  # bytes per float64
            raise ValueError(f"horizon {self.horizon} s at Ts {self.Ts} s is "
                             f"{count:.4g} samples, more than one array holds")
        n = int(round(count))
        if n < 2:
            raise ValueError("horizon shorter than two samples")
        return n


@dataclass
class Trajectory:
    """Aligned per-sample record of one closed-loop run."""

    t: np.ndarray
    v_d: np.ndarray
    y: np.ndarray
    u: np.ndarray
    u0: np.ndarray
    z1: np.ndarray
    z2: np.ndarray
    q_hat: np.ndarray
    d: np.ndarray
    Ts: float

    def __post_init__(self):
        n = self.t.size
        for name in TRAJECTORY_COLUMNS:
            if getattr(self, name).size != n:
                raise ValueError(f"column {name} length != {n}")

    def __len__(self) -> int:
        return self.t.size

    def to_csv(self, path) -> None:
        """Write all columns as CSV, each cell the shortest text that reads
        back as its double (repr's text), made by `artifacts.write_csv`'s
        block kernel."""
        write_csv(path, TRAJECTORY_COLUMNS,
                  [getattr(self, name) for name in TRAJECTORY_COLUMNS])

    @classmethod
    def from_csv(cls, path) -> "Trajectory":
        data = np.genfromtxt(path, delimiter=",", names=True)
        cols = {name: np.asarray(data[name], dtype=float)
                for name in TRAJECTORY_COLUMNS}
        t = cols["t"]
        if t.size < 2:
            raise ValueError("trajectory CSV needs at least 2 rows")
        return cls(Ts=float(t[1] - t[0]), **cols)


def _observer(cfg: AdrcConfig):
    """The fresh observer of cfg.variant."""
    if cfg.variant is AdrcVariant.IADRC:
        return Ieso(cfg.omega_o, cfg.b, cfg.Ts)
    cls = Feso if cfg.variant is AdrcVariant.FADRC else Ifeso
    return cls(cfg.omega_o, cfg.b, cfg.mu, cfg.Ts)


def run_closed_loop(cfg: AdrcConfig, plant: FracPlant | None = None, *,
                    v_d: float = 1.0,
                    d: DisturbanceSignal | None = None) -> Trajectory:
    """Simulate the loop `cfg` and record every signal per sample.

    `v_d` is the constant reference, a finite number; `d` is a
    DisturbanceSignal (None for no disturbance).  A sinusoid at or above
    the Nyquist frequency pi/Ts, or a step whose onset falls after the last
    sample time, raises ValueError before any step.  Raises
    SimulationDiverged once |y| exceeds DIVERGENCE_LIMIT * max(1, |v_d|,
    max |d|) or y is not finite.  A `plant` (the benchmark harness's call
    form) only lends cfg its a_o, b_o and mu, at cfg's Ts; it is never stepped.
    """
    if plant is not None:
        if abs(plant.Ts - cfg.Ts) > 1e-15:
            raise ValueError(f"plant Ts {plant.Ts} != config Ts {cfg.Ts}")
        cfg = replace(cfg, a_o=plant.a_o, b_o=plant.b_o, mu=plant.mu)
    n = cfg.samples()
    v_d = float(v_d)
    if not math.isfinite(v_d):
        raise ValueError(f"reference must be finite, got {v_d}")
    t = np.arange(n) * cfg.Ts
    vd = np.full(n, v_d)
    if d is None:
        d = DisturbanceSignal()
    if not isinstance(d, DisturbanceSignal):
        raise TypeError(f"d must be a DisturbanceSignal or None, "
                        f"got {type(d).__name__}")
    # disturbances the sampled loop cannot see fail before any step
    if d.kind == "sinusoid" and abs(d.frequency) >= math.pi / cfg.Ts:
        raise ValueError(f"disturbance frequency {d.frequency} rad/s is not "
                         f"below the Nyquist limit pi/Ts = "
                         f"{math.pi / cfg.Ts} rad/s")
    if d.kind == "step" and d.onset > t[-1]:
        raise ValueError(f"disturbance onset {d.onset} s is after the last "
                         f"sample time {float(t[-1])} s")
    darr = d.render(t)
    dview = memoryview(darr)
    limit = min(DIVERGENCE_LIMIT * max(1.0, abs(v_d), float(max(
        darr.max(), -darr.min()))), float(np.finfo(float).max))  # inf fails

    obs, plant = _observer(cfg), FracPlant(cfg.a_o, cfg.b_o, cfg.mu, cfg.Ts)
    # six separate columns, each written through a memoryview: a store of
    # a Python float costs less there than through the numpy array
    ya, ua, u0a, z1a, z2a, qha = (np.empty(n) for _ in range(6))
    yv, uv, u0v, z1v, z2v, qhv = map(memoryview, (ya, ua, u0a, z1a, z2a, qha))
    obs_step, plant_step, K, b = obs.loop_step, plant.step, cfg.K, cfg.b

    y = 0.0
    u_prev = 0.0
    for k in range(n):
        # stepping on the previous u keeps the improved observer's drive
        # +q_hat aligned with the -q_hat the control carries
        obs_step(u_prev, y)
        z1, z2, q_hat = obs.z1, obs.z2, obs.q_hat
        u0 = K * (v_d - z1)
        u = (u0 - z2 - q_hat) / b
        yv[k] = y
        uv[k] = u
        u0v[k] = u0
        z1v[k] = z1
        z2v[k] = z2
        qhv[k] = q_hat
        # a Python float: darr[k] is a numpy float64 and slows every state
        y = plant_step(u, dview[k])
        # a NaN fails both comparisons: one test catches NaN, +-inf and
        # |y| beyond the limit
        if not -limit <= y <= limit:
            raise SimulationDiverged(k, float(y))
        u_prev = u
    return Trajectory(t=t, v_d=vd, y=ya, u=ua, u0=u0a, z1=z1a, z2=z2a,
                      q_hat=qha, d=darr, Ts=cfg.Ts)


def loop_symbol(cfg: AdrcConfig, zeta=None, s=None) -> np.ndarray:
    """One 5 x 5 complex matrix per point over (Y, Z1, Z2, Q_hat, U), mapping
    them to (zeta*d, 0, 0, 0, K*v_d), for the loop run_closed_loop(cfg)
    runs: sampled at delays `zeta` (D = (1 - zeta)/Ts), or continuous at
    Laplace points `s` (zeta = 1, D = s); D^mu = D**mu, principal branch."""
    if (zeta is None) == (s is None):
        raise ValueError("pass exactly one of zeta and s")
    zeta = np.asarray(1.0 if zeta is None else zeta, dtype=complex)
    D = (1.0 - zeta) / cfg.Ts if s is None else np.asarray(s, dtype=complex)
    Dmu = D ** cfg.mu
    # the control row: b*U + K*Z1 + Z2 + Q_hat = K*v_d
    plant = FracPlant(cfg.a_o, cfg.b_o, cfg.mu, cfg.Ts)
    rows = (plant.symbol_rows(zeta, D, Dmu)
            + _observer(cfg).symbol_rows(zeta, D, Dmu)
            + [(0, cfg.K, 1, 1, cfg.b)])
    M = [[np.broadcast_to(entry, D.shape) for entry in row] for row in rows]
    return np.moveaxis(np.array(M, dtype=complex), (0, 1), (-2, -1))
