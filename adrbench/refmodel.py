"""Independent reference model of the ADR link, written from the paper's closed forms.

Nothing here imports ``adrdesign``: every constant and formula is restated
from the paper's system model, so an answer of the library is checked against
a second derivation rather than against itself.

Model chain at a design point (B, FOV):

* Gaussian beam through a thin lens: z_R = pi w0^2 / lambda,
  M = f / sqrt((d - f)^2 + z_R^2), w0' = M w0, z_R' = M^2 z_R,
  z0' = f + M^2 (d - f), and w(L) = w0' sqrt(1 + ((L - z0') / z_R')^2) at
  the receiver, a link distance L behind the lens.
* Concentrator: theta = FOV / (2 N_tier + 1), PD side 1 / (K_PD B), exit
  aperture D2 = side sqrt(N_PD / FF), entrance aperture D1 = n D2 / sin theta,
  height (D1 + D2) / (2 tan theta), top area pi D1^2 / 4 times the ring sum
  1 + sum_i 6 i cos(2 i theta). Truncation scales the height by tau and the
  entrance area (so the top area and the collected aperture) by gamma.
* Link: P_r = FF P_t (1 - exp(-2 rho^2 / w^2)) with rho the entrance radius,
  N0 = 4 k T F N_PD / R_L (+ 2 q R P_r + RIN (R P_r)^2 for full noise),
  SNR = (R P_r)^2 / (N0 B), rate = B log2(1 + SNR / Gamma).

Two oracles build on it: :func:`feasible` is the exact feasibility test of a
constraint set, and :func:`brute_force` brackets the constrained maximum rate
by a dense scan over (B, FOV).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

BOLTZMANN = 1.380649e-23  # [J/K]
CHARGE = 1.602176634e-19  # [C]

# Standard parameter set of the paper's simulations.
WAIST = 10e-6  # VCSEL waist radius [m]
WAVELENGTH = 950e-9  # [m]
LENS_FOCAL = 33e-3  # [m]
LENS_DISTANCE = 0.0  # waist-to-lens distance [m]
LINK_DISTANCE = 3.0  # lens to receiver [m]
RESPONSIVITY = 0.6  # [A/W]
SNR_GAP = 2.6
TEMPERATURE = 300.0  # [K]
LOAD = 1150.0  # TIA load [ohm]
NOISE_FIGURE = 10 ** (5.0 / 10)  # 5 dB
FILL = 0.7
N_CPC = 1.7
K_PD = 1.746e-6  # area-bandwidth constant [s/m]
TAU = 0.6  # truncated length ratio
GAMMA = 0.9  # truncated gain retention

# Bandwidth range the paper's designs are searched over [Hz].
B_MIN, B_MAX = 0.1e9, 20e9

# The paper's receiver configurations: (tiers, PDs per array).
CONFIGS = {
    "config1": (1, 4), "config2": (1, 16), "config3": (1, 64),
    "config4": (2, 4), "config5": (2, 16), "config6": (3, 4),
}


@dataclass(frozen=True)
class Design:
    """A receiver configuration and the link it sits in."""

    n_tier: int
    n_pd: int
    truncated: bool = False
    pt: float = 0.010  # transmit power [W]
    full_noise: bool = False
    rin: Optional[float] = None  # [1/Hz], used with full noise only


@dataclass(frozen=True)
class Caps:
    """A constraint set: minimum FOV [rad], height cap [m], top-area cap [m^2]."""

    fov_min: float
    l_max: Optional[float] = None
    a_max: Optional[float] = None


def spot_radius() -> float:
    """1/e^2 beam radius at the receiver plane [m]."""
    z_r = math.pi * WAIST**2 / WAVELENGTH
    mag = LENS_FOCAL / math.sqrt((LENS_DISTANCE - LENS_FOCAL) ** 2 + z_r**2)
    waist = mag * WAIST
    z_r2 = mag**2 * z_r
    z_waist = LENS_FOCAL + mag**2 * (LENS_DISTANCE - LENS_FOCAL)
    return waist * math.sqrt(1.0 + ((LINK_DISTANCE - z_waist) / z_r2) ** 2)


SPOT = spot_radius()


def fov_cap(n_tier: int) -> float:
    """Widest half-angle FOV: 90 deg, or 30 deg per acceptance cone."""
    return min(math.pi / 2, (2 * n_tier + 1) * math.pi / 6)


def _apertures(d: Design, b, fov):
    theta = np.asarray(fov, dtype=float) / (2 * d.n_tier + 1)
    d2 = math.sqrt(d.n_pd / FILL) / (K_PD * np.asarray(b, dtype=float))
    d1 = N_CPC * d2 / np.sin(theta)
    return theta, d2, d1


def dimensions(d: Design, b, fov):
    """(height [m], top area [m^2]) at design points; broadcasts b and fov."""
    theta, d2, d1 = _apertures(d, b, fov)
    height = (d1 + d2) / (2.0 * np.tan(theta))
    ring = 1.0 + sum(6 * i * np.cos(2 * i * theta) for i in range(1, d.n_tier + 1))
    area = np.pi * d1**2 / 4.0 * ring
    if d.truncated:
        height, area = TAU * height, GAMMA * area
    return height, area


def received_power(d: Design, b, fov):
    """Power collected by the aligned central element [W]."""
    _, _, d1 = _apertures(d, b, fov)
    rho2 = (GAMMA if d.truncated else 1.0) * (d1 / 2.0) ** 2
    return FILL * d.pt * (1.0 - np.exp(-2.0 * rho2 / SPOT**2))


def snr(d: Design, b, fov):
    """Electrical SNR; falls with both B and FOV."""
    current = RESPONSIVITY * received_power(d, b, fov)
    n0 = 4.0 * BOLTZMANN * TEMPERATURE / LOAD * NOISE_FIGURE * d.n_pd
    if d.full_noise:
        n0 = n0 + 2.0 * CHARGE * current
        if d.rin is not None:
            n0 = n0 + d.rin * current**2
    return current**2 / (n0 * np.asarray(b, dtype=float))


def rate(d: Design, b, fov):
    """Achievable rate B log2(1 + SNR / Gamma) [bit/s]."""
    return np.asarray(b, dtype=float) * np.log2(1.0 + snr(d, b, fov) / SNR_GAP)


def violation(d: Design, caps: Caps, b, fov):
    """Largest relative cap excess max(h / l_max, a / a_max) - 1 (<= 0 is inside)."""
    height, area = dimensions(d, b, fov)
    worst = np.full(np.broadcast(height, area).shape, -np.inf)
    if caps.l_max is not None:
        worst = np.maximum(worst, height / caps.l_max - 1.0)
    if caps.a_max is not None:
        worst = np.maximum(worst, area / caps.a_max - 1.0)
    return worst


def feasible(d: Design, caps: Caps) -> bool:
    """Exact feasibility of a constraint set over the search range.

    Both dimensions fall with B and FOV, so some point satisfies the caps
    exactly when the corner (B_MAX, FOV cap) does and fov_min <= cap.
    """
    cap = fov_cap(d.n_tier)
    return caps.fov_min <= cap and float(violation(d, caps, B_MAX, cap)) <= 0.0


def feasibility_margin(d: Design, caps: Caps) -> float:
    """Distance of a constraint set from the feasibility edge, relative."""
    cap = fov_cap(d.n_tier)
    return min(abs(float(violation(d, caps, B_MAX, cap))), abs(caps.fov_min / cap - 1.0))


@dataclass(frozen=True)
class Bracket:
    """Bounds on the constrained maximum rate from dense (B, FOV) scans.

    lower is the best rate at a feasible grid point.
    upper bounds the rate of every feasible point: a grid cell holds a
    feasible point only if its (high B, high FOV) corner is feasible, and over
    the cell the rate is at most B_high log2(1 + SNR(B_low, FOV_low) / Gamma)
    because the SNR falls with B and FOV.
    """

    lower: float
    upper: float


def _scan(d: Design, caps: Caps, box, n: int, chunk: int = 50):
    """Best feasible grid rate and per-cell rate bounds over one box.

    box is (b_lo, b_hi, fov_lo, fov_hi); B is log-spaced, FOV linear, and
    both grids include the box corners. Rows are scanned in chunks so that
    the scan's memory stays small.
    """
    bs = np.geomspace(box[0], box[1], n)
    fs = np.linspace(box[2], box[3], n)
    best = -math.inf
    cell_upper = np.full((n - 1, n - 1), -math.inf)
    for i0 in range(0, n - 1, chunk):
        rows = bs[i0:min(i0 + chunk + 1, n)][:, None]
        ok = violation(d, caps, rows, fs[None, :]) <= 0.0
        s = snr(d, rows, fs[None, :])
        best = max(best, float(np.where(ok, rows * np.log2(1.0 + s / SNR_GAP), -np.inf).max()))
        top = rows[1:] * np.log2(1.0 + s[:-1, :-1] / SNR_GAP)
        cell_upper[i0:i0 + len(rows) - 1] = np.where(ok[1:, 1:], top, -np.inf)
    return best, cell_upper, bs, fs


def brute_force(d: Design, caps: Caps, n: int = 300, rel: float = 1e-3,
                levels: int = 8) -> Optional[Bracket]:
    """Dense feasible scan over B in [B_MIN, B_MAX] and FOV in [fov_min, cap].

    After the first scan, the cells whose upper bound still exceeds the best
    feasible rate by more than ``rel`` are rescanned at the same grid size
    inside their bounding box, until the bracket is that tight. Returns None
    when no grid point is feasible, which happens exactly when the constraint
    set is infeasible, since the corner (B_MAX, cap) is a grid point.
    """
    cap = fov_cap(d.n_tier)
    if caps.fov_min > cap:
        return None
    box = (B_MIN, B_MAX, caps.fov_min, cap)
    best = -math.inf
    settled = -math.inf  # largest bound among cells no longer rescanned
    for _ in range(levels):
        found, cell_upper, bs, fs = _scan(d, caps, box, n)
        best = max(best, found)
        if not math.isfinite(best):
            return None
        open_cells = cell_upper > best * (1 + rel)
        if open_cells.all() or not open_cells.any():
            break
        settled = max(settled, float(cell_upper[~open_cells].max()))
        ii, jj = np.nonzero(open_cells)
        box = (bs[ii.min()], bs[ii.max() + 1], fs[jj.min()], fs[jj.max() + 1])
    return Bracket(lower=best, upper=max(settled, float(cell_upper.max()), best))
