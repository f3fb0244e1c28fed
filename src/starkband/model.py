"""Model parameters and the closed-form effective-model predictions.

This module is the single home of the closed forms: the dressed gap and the
dimensionless hopping ratios (properties of ModelParams), the exact 2x2
TwoLevelModel behind both the off-resonant Rabi formula and the resonant
two-level reduction, the resonance condition, and the universal
revival/collapse time estimates.  Everything here is pure arithmetic on
immutable parameter records.  Energies are in recoil units with hbar = 1, so
times are inverse recoil energies; the Bloch period T_B = 2*pi/F is the
natural time unit of the driven problem.
"""

import json
import math
from dataclasses import dataclass, fields
from numbers import Integral, Real
from pathlib import Path

import numpy as np

__all__ = [
    "bessel_j",
    "ModelParams",
    "TwoLevelModel",
    "preset_v0_4",
    "PRESETS",
    "resonant_force",
    "rabi_occupation",
    "build_resonant_two_level",
    "revival_estimate_universal",
    "collapse_from_revival",
    "load_params",
]


def _require_number(name: str, value, integral: bool):
    """Reject bools, non-numbers, non-finite values and non-integer counts."""
    kind = Integral if integral else Real
    if isinstance(value, bool) or not isinstance(value, kind) or not math.isfinite(value):
        what = "an integer" if integral else "a finite real number"
        raise ValueError(f"{name} must be {what}, got {value!r}")


def _bessel_j(n: int, x: float) -> float:
    order, half = abs(n), 0.5 * x
    # the first term (x/2)^|n| / |n|! as one int ratio, which true division rounds once
    num, den = half.as_integer_ratio()
    term = num**order / (den**order * math.factorial(order))
    terms, peak, k = [term], abs(term), 0
    # the terms grow while k < |x|/2, then fall off faster than geometrically
    while term != 0.0 and (k < abs(half) or abs(term) > 1e-20 * peak):
        k += 1
        term *= -half * half / (k * (order + k))
        terms.append(term)
        peak = max(peak, abs(term))
    value = math.fsum(terms)
    return -value if n < 0 and order % 2 else value


def bessel_j(n, x: float):
    """Bessel function of the first kind J_n(x) for integer n (an int or an
    array of them) and real x, from the ascending series
    sum_k (-x^2/4)^k (x/2)^|n| / (k! (k+|n|)!), summed exactly by math.fsum
    until the terms fall below 1e-20 of the largest; J_-n = (-1)^n J_n.
    For |x| <= 1 it is within an ulp of the exact value; tests/test_bessel.py
    pins it to scipy.special.jv.  An array of orders is evaluated once per
    distinct order.
    """
    orders = np.asarray(n)
    distinct, inverse = np.unique(orders.ravel(), return_inverse=True)
    values = np.array([_bessel_j(int(m), float(x)) for m in distinct])[inverse]
    values = values.reshape(orders.shape)
    return values if orders.ndim else float(values)


@dataclass(frozen=True)
class ModelParams:
    """Coefficients of the tilted two-band Bose-Hubbard Hamiltonian.

    delta        band gap (recoil energies)
    c0           dimensionless inter-band coupling (enters as c0*force)
    t_a, t_b     hopping strengths of lower/upper band (recoil energies)
    w_a, w_b     on-site repulsion within lower/upper band
    w_x          inter-band two-body interaction strength
    g            dimensionless scale multiplying all interaction terms
    force        Stark force F (recoil energies)
    n_particles  total boson number N
    n_sites      sites per band L

    On-site energies are +-delta/2 + l*force; the tilt part is removed in the
    interaction picture used for the ring geometry.
    """

    delta: float
    c0: float
    t_a: float
    t_b: float
    w_a: float
    w_b: float
    w_x: float
    g: float
    force: float
    n_particles: int
    n_sites: int

    def __post_init__(self):
        for f in fields(self):
            _require_number(f.name, getattr(self, f.name), integral=f.type is int)
        if not (self.delta > 0):
            raise ValueError(f"band gap must be positive, got {self.delta}")
        if not (self.force > 0):
            raise ValueError(f"Stark force must be positive, got {self.force}")
        if not (self.t_a > 0 and self.t_b > 0):
            raise ValueError(f"hopping strengths must be positive, got t_a={self.t_a}, t_b={self.t_b}")
        if self.w_a < 0 or self.w_b < 0 or self.w_x < 0:
            raise ValueError("interaction strengths must be non-negative (repulsive)")
        if self.g < 0:
            raise ValueError(f"interaction scale g must be non-negative, got {self.g}")
        if self.n_particles < 1:
            raise ValueError(f"need at least one particle, got {self.n_particles}")
        # A single site still defines a valid (hopping-free) model; it is
        # needed for the smallest pair-exchange test systems.
        if self.n_sites < 1:
            raise ValueError(f"need at least one site per band, got {self.n_sites}")

    @property
    def t_bloch(self) -> float:
        return 2.0 * math.pi / self.force

    @property
    def delta_tilde(self) -> float:
        """Dressed gap sqrt(delta^2 + 4 c0^2 F^2)."""
        return math.hypot(self.delta, 2.0 * self.c0 * self.force)

    @property
    def x_a(self) -> float:
        return self.t_a / self.force

    @property
    def x_b(self) -> float:
        return self.t_b / self.force

    @property
    def delta_x(self) -> float:
        """Bessel argument (t_a + t_b)/F of the dressed inter-band couplings."""
        return self.x_a + self.x_b


@dataclass(frozen=True)
class TwoLevelModel:
    """Exact two-level problem [[-detuning/2, coupling], [coupling, +detuning/2]].

    Off resonance it is the bare on-site pair (detuning = delta, coupling =
    c0 * F); at the order-r resonance it is one resonant pair of dressed
    sites (detuning = delta_tilde - r*F, coupling = c0 * F * J_r(delta_x)).
    At zero detuning the eigenstates are the symmetric/antisymmetric
    combinations of the pair, split by 2|coupling|.
    """

    detuning: float
    coupling: float

    @property
    def gap(self) -> float:
        """Energy splitting sqrt(detuning^2 + 4*coupling^2) of the doublet."""
        return math.hypot(self.detuning, 2.0 * self.coupling)

    @property
    def amplitude(self) -> float:
        """Peak population transfer 4 V^2 / (detuning^2 + 4 V^2)."""
        if self.gap == 0.0:
            return 0.0
        return (2.0 * self.coupling / self.gap) ** 2

    @property
    def period(self) -> float:
        """Population oscillation period 2*pi/gap (pi/|V| on resonance)."""
        return 2.0 * math.pi / self.gap if self.gap > 0.0 else math.inf

    def occupation(self, t):
        """Transferred population amplitude * sin^2(gap * t / 2)."""
        if self.gap == 0.0:
            return np.zeros_like(np.asarray(t, dtype=float)) if np.ndim(t) else 0.0
        return self.amplitude * np.sin(0.5 * self.gap * np.asarray(t)) ** 2


def preset_v0_4(g: float = 0.0) -> ModelParams:
    """Parameter set for a lattice of depth 4 recoil energies, N = L = 5.

    The force 2.2207 is the tuned value sitting on the order-2 resonance of
    the finite system; the analytic resonance condition gives 2.2201 (see
    resonant_force).  The interaction scale g is the control knob and is left
    to the caller.
    """
    return ModelParams(
        delta=4.39,
        c0=-0.15,
        t_a=0.062,
        t_b=0.62,
        w_a=0.030,
        w_b=0.018,
        w_x=0.012,
        g=g,
        force=2.2207,
        n_particles=5,
        n_sites=5,
    )


PRESETS = {"v0_4": preset_v0_4}


def resonant_force(delta: float, c0: float, order: int) -> float:
    """Force at which the dressed gap equals an integer multiple of the force.

    Solves sqrt(delta^2 + 4 c0^2 F^2) = order * F for F > 0, giving
    F = delta / sqrt(order^2 - 4 c0^2).  Requires order > 2|c0|.
    """
    if order <= 0:
        raise ValueError(f"resonance order must be a positive integer, got {order}")
    disc = order * order - 4.0 * c0 * c0
    if disc <= 0:
        raise ValueError(
            f"no resonant force exists for order {order} with |c0| = {abs(c0)}: need order > 2|c0|"
        )
    return delta / math.sqrt(disc)


def rabi_occupation(t, params: ModelParams):
    """Off-resonant upper-band occupation (4 c0^2 F^2 / dt^2) sin^2(dt*t/2).

    The bare on-site pair, dt the dressed gap sqrt(delta^2 + 4 c0^2 F^2).
    Accepts scalar or array times; 0 for all t when c0 = 0.
    """
    return TwoLevelModel(params.delta, params.c0 * params.force).occupation(t)


def build_resonant_two_level(params: ModelParams, order: int) -> TwoLevelModel:
    """Two-level model of the order-r resonance of the dressed-site ladder."""
    return TwoLevelModel(
        detuning=params.delta_tilde - order * params.force,
        coupling=params.c0 * params.force * bessel_j(order, params.delta_x),
    )


def revival_estimate_universal(params: ModelParams) -> float:
    """System-size-independent revival time 4*pi / (g W_x J0^2(x_a) J0^2(x_b)).

    Exact 1/g scaling by construction.  Without interactions (g*w_x = 0) the
    oscillation never collapses, so no revival time exists, nor past a float.
    """
    if params.g * params.w_x == 0.0:
        raise ValueError("no revival without interactions: g*w_x must be positive")
    rate = params.g * params.w_x * bessel_j(0, params.x_a) ** 2 * bessel_j(0, params.x_b) ** 2
    t_rev = 4.0 * math.pi / rate if rate else math.inf
    if not math.isfinite(t_rev):
        raise ValueError(f"the revival time 4 pi / {rate:.3g} overflows a float")
    return t_rev


def collapse_from_revival(t_rev: float, delta_n: float) -> float:
    """Collapse time t_rev / (pi * delta_n^2) from the coefficient-width delta_n."""
    if delta_n <= 0:
        raise ValueError(f"coefficient-distribution width must be positive, got {delta_n}")
    return t_rev / (math.pi * delta_n * delta_n)


def load_params(path) -> tuple[ModelParams, int | None]:
    """Read a ModelParams record from a JSON parameter file.

    The schema is strict: exactly the ModelParams field names, with `force`
    optionally replaced by `resonance_order` (the force is then computed from
    the analytic resonance condition).  Exactly one of the two must be given.
    Returns (params, resonance_order or None).
    """
    text = Path(path).read_text()
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError(f"parameter file {path} must hold a single JSON object")
    types = {f.name: f.type for f in fields(ModelParams)}
    allowed = set(types) | {"resonance_order"}
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise ValueError(f"unknown keys in parameter file {path}: {', '.join(unknown)}")

    # checked before resonant_force computes with them; resonance_order is an integer
    for key, value in data.items():
        _require_number(key, value, integral=types.get(key, int) is int)
    order = data.pop("resonance_order", None)
    if "force" in data and order is not None:
        raise ValueError("give exactly one of 'force' and 'resonance_order', not both")
    if "force" not in data and order is None:
        raise ValueError("parameter file needs either 'force' or 'resonance_order'")

    missing = sorted(k for k in types if k not in data and k != "force")
    if missing:
        raise ValueError(f"missing keys in parameter file {path}: {', '.join(missing)}")
    if "force" not in data:
        data["force"] = resonant_force(data["delta"], data["c0"], order)
    return ModelParams(**data), order
