"""Bounds on the blow-up time of the planar Keller-Segel model.

The package evaluates the heat-kernel weighted mass functional of an
initial density, inverts it at the supercritical-mass threshold, and
derives a family of upper and lower bounds on the critical time,
together with closed-form reference values for the analytic example
families and a CLI that emits machine-readable reports.
"""

from .bounds import (
    BoundEstimate,
    BoundReport,
    FMethodBound,
    MassConstants,
    SearchConfig,
    f_method_bound,
    full_report,
    heat_constant,
    lower_bound,
    mass_constants,
    tc1_bound,
    tc1_value,
    tc2_bound,
    tc2_forms,
    tc3_bound,
    tc4_bound,
    tc_bound,
    virial_bound,
)
from .datum import (
    Annulus,
    CartesianGrid,
    DiffGaussians,
    DiskIndicator,
    FAMILIES,
    Gaussian,
    InitialDatum,
    PolyGaussian,
    RadialProfile,
)
from .geometry import SupportGeometry
from .heatmass import HeatMassCurve, InversionConfig

__version__ = "0.1.0"

__all__ = [
    "Annulus",
    "BoundEstimate",
    "BoundReport",
    "CartesianGrid",
    "DiffGaussians",
    "DiskIndicator",
    "FAMILIES",
    "FMethodBound",
    "Gaussian",
    "HeatMassCurve",
    "InitialDatum",
    "InversionConfig",
    "MassConstants",
    "PolyGaussian",
    "RadialProfile",
    "SearchConfig",
    "SupportGeometry",
    "f_method_bound",
    "full_report",
    "heat_constant",
    "lower_bound",
    "mass_constants",
    "tc1_bound",
    "tc1_value",
    "tc2_bound",
    "tc2_forms",
    "tc3_bound",
    "tc4_bound",
    "tc_bound",
    "virial_bound",
]
