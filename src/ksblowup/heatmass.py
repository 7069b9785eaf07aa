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

Every inversion goes through `invert_increasing`: factor-4 bracket
growth from s = 1, then Brent's method (Brent, *Algorithms for
Minimization without Derivatives*, 1973) on the bracket.  It stops once
the bracket is narrower than `_WIDTH_REL_TOL` times its upper end and
returns that upper end, a time at which the function was evaluated and
reached the target.  An upper bound read from it is therefore on the
safe side of the root, never below it by more than the rounding of the
evaluation itself.
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


_BRACKET_STEPS = 200     # factor-4 steps while growing or shrinking the bracket
# the root finder stops once hi - lo <= _WIDTH_REL_TOL * hi
_WIDTH_REL_TOL = 1e-13


def invert_increasing(fn, target):
    """The upper end of a narrow bracket on fn(s) = target, fn increasing.

    The result is the upper end of a bracket [lo, hi] with
    fn(lo) < target <= fn(hi) and hi - lo <= _WIDTH_REL_TOL * hi, so it
    lies above the root by at most that width.  Should ``fn`` only
    estimate an increasing function from below, the result still
    carries an evaluation that reached the target.
    """
    # geometric bracket growth from the natural time unit; the ends
    # are exact powers of 4, so each keeps the value computed when it
    # was first reached
    lo = hi = 1.0
    f_lo = f_hi = fn(1.0) - target
    if f_hi < 0.0:
        for _ in range(_BRACKET_STEPS):
            lo, f_lo = hi, f_hi
            hi *= 4.0
            f_hi = fn(hi) - target
            if f_hi >= 0.0:
                break
        else:
            raise BracketFailureError("bracket growth budget exhausted")
    else:
        for _ in range(_BRACKET_STEPS):
            hi, f_hi = lo, f_lo
            lo /= 4.0
            f_lo = fn(lo) - target
            if f_lo < 0.0:
                break
        else:
            raise BracketFailureError("bracket shrink budget exhausted")
    return _brent(fn, target, lo, f_lo, hi, f_hi)


def _brent(fn, target, a, fa, b, fb):
    """Brent's zero finder on fa < 0 <= fb, returning the end with f >= 0.

    ``b`` is the best iterate and ``c`` the opposite end of the bracket;
    ``a`` is the previous iterate, kept for the inverse quadratic step.
    """
    c, fc = a, fa
    d = e = b - a
    while True:
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = 0.5 * _WIDTH_REL_TOL * abs(b)
        m = 0.5 * (c - b)
        if abs(m) <= tol or fb == 0.0:
            return b if fb >= 0.0 else c
        if abs(e) < tol or abs(fa) <= abs(fb):
            d = e = m
        else:
            # secant step when only two points are distinct, else inverse
            # quadratic interpolation through a, b and c
            r = fb / fa
            if a == c:
                p, q = 2.0 * m * r, 1.0 - r
            else:
                qa, rb = fa / fc, fb / fc
                p = r * (2.0 * m * qa * (qa - rb) - (b - a) * (rb - 1.0))
                q = (qa - 1.0) * (rb - 1.0) * (r - 1.0)
            if p > 0.0:
                q = -q
            else:
                p = -p
            if 2.0 * p < min(3.0 * m * q - abs(tol * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, m)
        fb = fn(b) - target
        if (fb >= 0.0) == (fc >= 0.0):
            c, fc = a, fa
            d = e = b - a


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
        """The upper end of a narrow bracket on H(s) = target, for target
        in (0, M): H(s) >= target there; see `invert_increasing`."""
        if not 0.0 < target < self._mass:
            raise TargetOutOfRangeError(
                f"target must lie in (0, {self._mass:.6g})")
        return invert_increasing(self.evaluate, target)
