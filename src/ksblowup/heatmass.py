"""Heat-weighted mass functional at a fixed center and its inversion.

For a density n0 and a point z, the functional

    H(s) = integral exp(-|x - z|^2 / (4 s)) n0(x) dx

is continuous, strictly increasing in s, with range (0, M).  Its
inverse at the supercritical threshold drives every critical-time
bound in `bounds`.

`HeatMassCurve` fixes the center and inverts H.  The datum evaluates
it, in one entry point: `InitialDatum.heat_mass(z, s)` chooses between a
family's closed form and its quadrature, and a grid sums its cells.  The
inversion is `searches.invert_increasing`, which returns a time at which
H was evaluated and reached the target.  Radial ``tc`` inverts it at the
symmetry center, and off it only where an offset beats it; grid ``tc``
the largest H at the peaks `CartesianGrid.heat_mass_peak` climbs to.
Every ``tc`` search ends with a bisection of this curve at its winner.
"""

from .errors import NonPositiveTimeError, TargetOutOfRangeError
# unused here since H moved to `datum`; benchmarks/test_bench.py checks
# that the span patcher replaces this name in every importing module
from .quadrature import integrate_panels  # noqa: F401
from .searches import invert_increasing


class HeatMassCurve:
    """Evaluator for s -> H(s) at a fixed center, with monotone inversion.

    The center defaults to the datum's center (the barycenter of a grid).
    Each evaluation is `datum.heat_mass(z, s)`.
    """

    def __init__(self, density, z=None):
        self.datum = density
        if z is None:
            z = density.center
        self.z = (float(z[0]), float(z[1]))

    def evaluate(self, s):
        if s <= 0.0:
            raise NonPositiveTimeError("heat-mass time must be positive")
        return self.datum.heat_mass(self.z, s)

    __call__ = evaluate

    def invert(self, target):
        """The upper end of a narrow bracket on H(s) = target, for target
        in (0, M): H(s) >= target there; see `invert_increasing`."""
        mass = self.datum.mass()
        if not 0.0 < target < mass:
            raise TargetOutOfRangeError(f"target must lie in (0, {mass:.6g})")
        return invert_increasing(self.evaluate, target)
