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
from .observers import EsoVariant, bandwidth_gains, make_observer
from .plant import DisturbanceSignal, FracPlant

DIVERGENCE_LIMIT = 1e9

TRAJECTORY_COLUMNS = ("t", "v_d", "y", "u", "u0", "z1", "z2", "q_hat", "d")


class AdrcVariant(enum.Enum):
    IADRC = "iadrc"
    FADRC = "fadrc"
    IFADRC = "ifadrc"

    @property
    def observer(self) -> EsoVariant:
        return {AdrcVariant.IADRC: EsoVariant.IESO,
                AdrcVariant.FADRC: EsoVariant.FESO,
                AdrcVariant.IFADRC: EsoVariant.IFESO}[self]


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
        if isinstance(self.variant, str):
            self.variant = AdrcVariant(self.variant.lower())
        for name in ("K", "omega_o", "Ts", "horizon"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be positive and finite, "
                                 f"got {value}")
        if not (math.isfinite(self.b) and self.b != 0.0):
            raise ValueError(f"b must be nonzero and finite, got {self.b}")


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
        if data.ndim == 0:
            data = data.reshape(1)
        cols = {name: np.asarray(data[name], dtype=float)
                for name in TRAJECTORY_COLUMNS}
        t = cols["t"]
        if t.size < 2:
            raise ValueError("trajectory CSV needs at least 2 rows")
        return cls(Ts=float(t[1] - t[0]), **cols)


def control_law(u0: float, z2: float, q_hat: float, b: float) -> float:
    """Disturbance-compensating inner law u = (u0 - z2 - q_hat) / b."""
    if b == 0.0:
        raise ValueError("b must be nonzero")
    return (u0 - z2 - q_hat) / b


def render_reference(v_d, t: np.ndarray) -> np.ndarray:
    """Reference signal on grid `t`: scalar (constant), array, or callable.
    Every rendered value must be finite."""
    if callable(v_d):
        vd = np.asarray([float(v_d(tk)) for tk in t])
    else:
        arr = np.asarray(v_d, dtype=float)
        if arr.ndim == 0:
            vd = np.full(t.size, float(arr))
        elif arr.size < t.size:
            raise ValueError("reference record shorter than horizon")
        else:
            vd = arr[: t.size].astype(float)
    if not np.all(np.isfinite(vd)):
        raise ValueError("reference must be finite")
    return vd


def run_closed_loop(cfg: AdrcConfig, plant: FracPlant, v_d=1.0, d=None,
                    divergence_limit: float = DIVERGENCE_LIMIT) -> Trajectory:
    """Simulate one closed loop and record every signal per sample.

    The plant must be fresh (zero history) and share the config sample
    time; the observer order follows the plant.  Raises SimulationDiverged
    as soon as the output goes non-finite or beyond `divergence_limit`.
    """
    if abs(plant.Ts - cfg.Ts) > 1e-15:
        raise ValueError(f"plant Ts {plant.Ts} != config Ts {cfg.Ts}")
    if plant.gl.size:
        raise ValueError("plant carries history; pass a fresh instance")
    n = int(round(cfg.horizon / cfg.Ts))
    if n < 1:
        raise ValueError("horizon shorter than one sample")
    t = np.arange(n) * cfg.Ts
    vd = render_reference(v_d, t)
    dsig = d if d is not None else DisturbanceSignal.zero()
    darr = dsig.render(t) if isinstance(dsig, DisturbanceSignal) \
        else np.asarray(dsig, dtype=float)[:n]
    if darr.size != n:
        raise ValueError("disturbance record shorter than horizon")
    if not np.all(np.isfinite(darr)):
        raise ValueError("disturbance must be finite")

    obs = make_observer(cfg.variant.observer, bandwidth_gains(cfg.omega_o),
                        cfg.b, plant.mu, cfg.Ts)
    ya = np.empty(n)
    ua = np.empty(n)
    u0a = np.empty(n)
    z1a = np.empty(n)
    z2a = np.empty(n)
    qha = np.empty(n)

    y = 0.0
    u_prev = 0.0
    for k in range(n):
        # in-loop observer form: for the q_hat-bearing observer this keeps
        # the drive's +q_hat aligned with the -q_hat the control carries
        obs.loop_step(u_prev, y)
        u0 = cfg.K * (vd[k] - obs.z1)
        u = control_law(u0, obs.z2, obs.q_hat, cfg.b)
        ya[k] = y
        ua[k] = u
        u0a[k] = u0
        z1a[k] = obs.z1
        z2a[k] = obs.z2
        qha[k] = obs.q_hat
        y = plant.step(u, darr[k])
        if not math.isfinite(y) or abs(y) > divergence_limit:
            raise SimulationDiverged(k, float(y))
        u_prev = u
    return Trajectory(t=t, v_d=vd, y=ya, u=ua, u0=u0a, z1=z1a, z2=z2a,
                      q_hat=qha, d=darr, Ts=cfg.Ts)


def loop_gain_variants(cfg: AdrcConfig, plant: FracPlant, scales, v_d=1.0,
                       d=None) -> list[Trajectory]:
    """Re-run the loop with the true plant gain scaled while the controller
    keeps its nominal b; one trajectory per scale."""
    scales = [float(s) for s in scales]
    if not scales:
        raise ValueError("scales must be nonempty")
    if any(s <= 0.0 for s in scales):
        raise ValueError(f"scales must be positive, got {scales}")
    return [run_closed_loop(cfg, plant.with_gain_scale(s), v_d, d)
            for s in scales]
