"""Heat-weighted mass functional and its monotone inversion.

For a density n0 and a point z, the functional

    H(s) = integral exp(-|x - z|^2 / (4 s)) n0(x) dx

is continuous, strictly increasing in s, with range (0, M).  Its
inverse at the supercritical threshold drives every critical-time
bound in `bounds`.

`HeatMassCurve` evaluates H in one of two modes.  "auto" takes the
datum's closed form where it has one (`InitialDatum.closed_heat_mass`:
the analytic families at their symmetry center, the gaussian about
every point) and integrates numerically elsewhere.  "quadrature"
always integrates, to cross-validate the closed forms.  Grid data are
summed cell by cell in both modes.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .datum import _WEIGHT_REACH
from .errors import (
    BracketFailureError,
    NonPositiveTimeError,
    TargetOutOfRangeError,
)
from .quadrature import integrate_panels, merged_edges, panel_edges


@dataclass(frozen=True)
class InversionConfig:
    """Tolerances for the monotone inversion of the heat-mass curve."""

    rel_tol: float = 1e-10
    max_bracket_steps: int = 200
    max_refine_steps: int = 400

    def __post_init__(self):
        if self.rel_tol <= 0.0:
            raise ValueError("tolerance must be positive")


def _radial_quadrature(d, delta, s):
    rmax = d.tail_radius()
    edges = merged_edges(
        panel_edges(d.radial_breakpoints(), rmax, d._scale_radius()),
        np.clip(np.linspace(delta - _WEIGHT_REACH * math.sqrt(s),
                            delta + _WEIGHT_REACH * math.sqrt(s), 33),
                0.0, rmax),
        [min(delta, rmax)])

    if delta == 0.0:
        def integrand(r):
            return d.profile(r) * r * np.exp(-r * r / (4.0 * s))
    else:
        # angular integral of the gaussian weight gives a Bessel factor;
        # the exponentially scaled i0e keeps large arguments finite
        def integrand(r):
            arg = r * delta / (2.0 * s)
            return (d.profile(r) * r
                    * np.exp(-(r - delta) ** 2 / (4.0 * s))
                    * special.i0e(arg))

    return 2.0 * math.pi * integrate_panels(integrand, edges, order=48)


class HeatMassCurve:
    """Evaluator for s -> H(s) at a fixed center, with monotone inversion.

    ``mode`` selects the evaluation path: "auto" prefers the datum's
    closed form and falls back to quadrature, "quadrature" forces
    numerical integration (used for cross-validation).  The center
    defaults to the datum's center (the barycenter of a grid).
    """

    MODES = ("auto", "quadrature")

    def __init__(self, density, z=None, mode="auto"):
        if mode not in self.MODES:
            raise ValueError(f"unknown mode {mode!r}")
        self.datum = density
        c = density.center
        if z is None:
            z = c
        self.z = (float(z[0]), float(z[1]))
        self.mode = mode
        self._mass = density.mass()
        self._delta = math.hypot(self.z[0] - c[0], self.z[1] - c[1])

    @property
    def mass(self):
        return self._mass

    def evaluate(self, s):
        if s <= 0.0:
            raise NonPositiveTimeError("heat-mass time must be positive")
        d = self.datum
        if self.mode == "auto":
            val = d.closed_heat_mass(self._delta, s)
            if val is not None:
                return val
        if not d.is_radial:
            return d.heat_mass_sum(self.z, s)
        return _radial_quadrature(d, self._delta, s)

    __call__ = evaluate

    def invert(self, target, config=None):
        """Unique s with H(s) = target, for target in (0, M)."""
        cfg = config or InversionConfig()
        if not 0.0 < target < self._mass:
            raise TargetOutOfRangeError(
                f"target must lie in (0, {self._mass:.6g})")

        # geometric bracket growth from the natural time unit
        lo = hi = 1.0
        v = self.evaluate(1.0)
        if v < target:
            for _ in range(cfg.max_bracket_steps):
                hi *= 4.0
                if self.evaluate(hi) >= target:
                    lo = hi / 4.0
                    break
            else:
                raise BracketFailureError("bracket growth budget exhausted")
        elif v > target:
            for _ in range(cfg.max_bracket_steps):
                lo /= 4.0
                if self.evaluate(lo) <= target:
                    hi = lo * 4.0
                    break
            else:
                raise BracketFailureError("bracket shrink budget exhausted")
        else:
            return 1.0

        f_lo = self.evaluate(lo) - target
        f_hi = self.evaluate(hi) - target
        s = 0.5 * (lo + hi)
        for step in range(cfg.max_refine_steps):
            # secant proposal on odd steps, guarded bisection otherwise,
            # so the bracket provably contracts
            cand = 0.5 * (lo + hi)
            if step % 2 and f_hi != f_lo:
                secant = lo - f_lo * (hi - lo) / (f_hi - f_lo)
                if lo + 1e-3 * (hi - lo) < secant < hi - 1e-3 * (hi - lo):
                    cand = secant
            f_cand = self.evaluate(cand) - target
            s = cand
            if abs(f_cand) <= cfg.rel_tol * target:
                break
            if f_cand < 0.0:
                lo, f_lo = cand, f_cand
            else:
                hi, f_hi = cand, f_cand
        return s
