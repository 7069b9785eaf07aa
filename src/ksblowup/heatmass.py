"""Heat-weighted mass functional and its monotone inversion.

For a density n0 and a point z, the functional

    H(s) = integral exp(-|x - z|^2 / (4 s)) n0(x) dx

is continuous, strictly increasing in s, with range (0, M).  Its
inverse at the supercritical threshold drives every critical-time
bound in `bounds`.

`HeatMassCurve` fixes the center and inverts H; the datum evaluates it.
In "auto" mode a curve takes the datum's closed form where it has one
(`InitialDatum.closed_heat_mass`: the analytic families at their
symmetry center, the gaussian about every point), else
`InitialDatum.heat_mass`: radial panel quadrature, or for a grid one
matrix-vector product over its occupied block.  "quadrature" mode
always calls `heat_mass`, to cross-validate the closed forms.
"""

import math

from .errors import (
    BracketFailureError,
    NonPositiveTimeError,
    TargetOutOfRangeError,
)
# unused here since H moved to `datum`; benchmarks/test_bench.py checks
# that the span patcher replaces this name in every importing module
from .quadrature import integrate_panels  # noqa: F401


# The inversion stops once |H(s) - target| <= _INVERT_REL_TOL * target,
# or after the step budgets of its two phases.
_INVERT_REL_TOL = 1e-10
_BRACKET_STEPS = 200     # factor-4 steps while growing or shrinking the bracket
_REFINE_STEPS = 400      # secant/bisection steps inside the bracket


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
        if self.mode == "auto":
            val = self.datum.closed_heat_mass(self._delta, s)
            if val is not None:
                return val
        return self.datum.heat_mass(self.z, s)

    __call__ = evaluate

    def invert(self, target):
        """Unique s with H(s) = target, for target in (0, M)."""
        if not 0.0 < target < self._mass:
            raise TargetOutOfRangeError(
                f"target must lie in (0, {self._mass:.6g})")

        # geometric bracket growth from the natural time unit; the ends
        # are exact powers of 4, so each keeps the H value computed when
        # it was first reached
        lo = hi = 1.0
        v = self.evaluate(1.0)
        f_lo = f_hi = v - target
        if v < target:
            for _ in range(_BRACKET_STEPS):
                lo, f_lo = hi, f_hi
                hi *= 4.0
                f_hi = self.evaluate(hi) - target
                if f_hi >= 0.0:
                    break
            else:
                raise BracketFailureError("bracket growth budget exhausted")
        elif v > target:
            for _ in range(_BRACKET_STEPS):
                hi, f_hi = lo, f_lo
                lo /= 4.0
                f_lo = self.evaluate(lo) - target
                if f_lo <= 0.0:
                    break
            else:
                raise BracketFailureError("bracket shrink budget exhausted")
        else:
            return 1.0

        s = 0.5 * (lo + hi)
        for step in range(_REFINE_STEPS):
            # secant proposal on odd steps, guarded bisection otherwise,
            # so the bracket provably contracts
            cand = 0.5 * (lo + hi)
            if step % 2 and f_hi != f_lo:
                secant = lo - f_lo * (hi - lo) / (f_hi - f_lo)
                if lo + 1e-3 * (hi - lo) < secant < hi - 1e-3 * (hi - lo):
                    cand = secant
            f_cand = self.evaluate(cand) - target
            s = cand
            if abs(f_cand) <= _INVERT_REL_TOL * target:
                break
            if f_cand < 0.0:
                lo, f_lo = cand, f_cand
            else:
                hi, f_hi = cand, f_cand
        return s
