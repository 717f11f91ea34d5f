"""Calculus of polar-analytic functions on the log-polar half-plane.

The package provides, in layers:

* ``core``      polar and Mellin polar derivatives, generalized Stirling
                tables, Cauchy-Riemann residuals, Taylor-type expansions;
* ``functions`` closed-form test functions, Mellin-Bernstein class metadata,
                the space-preserving transformations;
* ``contours``  curves in the (log r, theta) chart with exact winding
                numbers, contour quadrature by one 16-point Gauss-Legendre
                rule under global bisection, Cauchy integral formulas,
                c-residues of logarithmic poles and the residue-theorem defect;
* ``sampling``  Boas-type and Valiron-derived differentiation series,
                Valiron reconstruction with lin-kernel forms, Bernstein
                inequality checks, truncation with a-priori error bounds;
* ``cli``       the ``mellin-polar`` experiment runner (deterministic CSV).
"""

__version__ = "0.1.0"

from .core import (
    ConditioningWarning,
    DegenerateInputError,
    Domain,
    DomainError,
    GeneralizedStirlingTable,
    PolarFunction,
    PolarPoint,
    PreconditionError,
    TaylorExpansion,
    ToleranceNotMetError,
    cauchy_riemann_residual,
    higher_mellin_derivative,
    mellin_derivative,
    polar_derivative_fd,
    stirling_table,
    taylor_expand,
)
from .functions import (
    LogGrid,
    MellinBernsteinMember,
    make_lin,
    make_mellin_sine,
    make_power,
    make_sine_blend,
    mellin_dilate,
    mellin_translate,
    power_member,
    theta_shift,
)
from .contours import (
    ArcSegment,
    Curve,
    LineSegment,
    LogPoleSpec,
    LogRectangle,
    QuadratureSpec,
    boas_kernel,
    cauchy_derivative,
    cauchy_value,
    extract_derivative,
    line_integral,
    log_circle,
    residue_from_factor,
    residue_numeric,
    residue_theorem_check,
)
from .sampling import (
    ConvergenceRow,
    SampleSet,
    TruncationReport,
    bernstein_check,
    boas_derivative,
    convergence_study,
    fit_loglog_slope,
    fourier_valiron_derivative,
    theta_oracle,
    valiron_derivative,
    valiron_lin_form,
    valiron_reconstruct,
)

__all__ = [name for name in dir() if not name.startswith("_")]
