"""Closed-loop ADRC structures and the fixed-step simulation engine.

Loop per sample: read y, advance the observer, apply the outer proportional
law u0 = K*(v_d - z1) and the compensating inner law
u = (u0 - z2 - q_hat) / b, then advance the plant under held u.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .artifacts import write_csv
from .observers import Feso, Ieso, Ifeso
from .plant import DisturbanceSignal, FracPlant

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
    """Controller parameters.  Defaults match the reference bench setup:
    K = 150, omega_o = 400 rad/s, matched gain b = 1, 8 kHz sampling,
    1 s horizon."""

    variant: AdrcVariant = AdrcVariant.IFADRC
    K: float = 150.0
    omega_o: float = 400.0
    b: float = 1.0
    Ts: float = 1.0 / 8000.0
    horizon: float = 1.0

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
        for name in ("K", "omega_o", "b", "Ts", "horizon"):
            setattr(self, name, float(getattr(self, name)))

    def samples(self) -> int:
        """Number of samples a run simulates: horizon / Ts, rounded.  A
        run needs two, since its step metrics take a numerical gradient."""
        n = int(round(self.horizon / self.Ts))
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
        """Write all columns in full double precision (round-trip reprs)."""
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


def _observer(cfg: AdrcConfig, plant: FracPlant):
    """The fresh observer of cfg.variant; its order follows the plant."""
    if cfg.variant is AdrcVariant.IADRC:
        return Ieso(cfg.omega_o, cfg.b, cfg.Ts)
    cls = Feso if cfg.variant is AdrcVariant.FADRC else Ifeso
    return cls(cfg.omega_o, cfg.b, plant.mu, cfg.Ts)


def run_closed_loop(cfg: AdrcConfig, plant: FracPlant, v_d: float = 1.0,
                    d: DisturbanceSignal | None = None) -> Trajectory:
    """Simulate one closed loop and record every signal per sample.

    The plant must be fresh (zero history) and share the config sample
    time; the observer order follows the plant.  `v_d` is the constant
    reference, a finite number; `d` is a DisturbanceSignal (None for no
    disturbance).  Raises SimulationDiverged as soon as the output goes
    non-finite or beyond DIVERGENCE_LIMIT.
    """
    if abs(plant.Ts - cfg.Ts) > 1e-15:
        raise ValueError(f"plant Ts {plant.Ts} != config Ts {cfg.Ts}")
    if plant.gl.size:
        raise ValueError("plant carries history; pass a fresh instance")
    n = cfg.samples()
    v_d = float(v_d)
    if not math.isfinite(v_d):
        raise ValueError(f"reference must be finite, got {v_d}")
    t = np.arange(n) * cfg.Ts
    vd = np.full(n, v_d)
    if d is not None and not isinstance(d, DisturbanceSignal):
        raise TypeError(f"d must be a DisturbanceSignal or None, "
                        f"got {type(d).__name__}")
    darr = (d if d is not None else DisturbanceSignal()).render(t)
    dview = memoryview(darr)

    obs = _observer(cfg, plant)
    ya = np.empty(n)
    ua = np.empty(n)
    u0a = np.empty(n)
    z1a = np.empty(n)
    z2a = np.empty(n)
    qha = np.empty(n)

    y = 0.0
    u_prev = 0.0
    for k in range(n):
        # stepping on the previous u keeps the improved observer's drive
        # +q_hat aligned with the -q_hat the control carries
        obs.loop_step(u_prev, y)
        u0 = cfg.K * (v_d - obs.z1)
        u = (u0 - obs.z2 - obs.q_hat) / cfg.b
        ya[k] = y
        ua[k] = u
        u0a[k] = u0
        z1a[k] = obs.z1
        z2a[k] = obs.z2
        qha[k] = obs.q_hat
        # a Python float: darr[k] is a numpy float64 and slows every state
        y = plant.step(u, dview[k])
        if not math.isfinite(y) or abs(y) > DIVERGENCE_LIMIT:
            raise SimulationDiverged(k, float(y))
        u_prev = u
    return Trajectory(t=t, v_d=vd, y=ya, u=ua, u0=u0a, z1=z1a, z2=z2a,
                      q_hat=qha, d=darr, Ts=cfg.Ts)


def loop_symbol(cfg: AdrcConfig, plant: FracPlant, zeta=None,
                s=None) -> np.ndarray:
    """One 5 x 5 complex matrix per point over (Y, Z1, Z2, Q_hat, U), mapping
    them to (zeta*d, 0, 0, 0, K*v_d), for the loop run_closed_loop(cfg, plant)
    runs: sampled at delays `zeta` (D = (1 - zeta)/Ts), or continuous at
    Laplace points `s` (zeta = 1, D = s); D^mu = D**mu, principal branch."""
    if (zeta is None) == (s is None):
        raise ValueError("pass exactly one of zeta and s")
    zeta = np.asarray(1.0 if zeta is None else zeta, dtype=complex)
    D = (1.0 - zeta) / cfg.Ts if s is None else np.asarray(s, dtype=complex)
    Dmu = D ** plant.mu
    # the control row: b*U + K*Z1 + Z2 + Q_hat = K*v_d
    rows = (plant.symbol_rows(zeta, D, Dmu)
            + _observer(cfg, plant).symbol_rows(zeta, D, Dmu)
            + [(0, cfg.K, 1, 1, cfg.b)])
    M = [[np.broadcast_to(entry, D.shape) for entry in row] for row in rows]
    return np.moveaxis(np.array(M, dtype=complex), (0, 1), (-2, -1))
