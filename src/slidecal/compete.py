"""The pinched competitor family for the half-T cone.

Pushing the half-T down onto the sliding plane produces a small horizontal
equilateral triangle of apothem x0 and bends the three sloping folds along
the profile

    z(x) = x / sqrt(2) + c * log(3 x / sqrt(2)),

chosen so that z(sqrt(2)/3) = 1/3 for every c > 0; x0 is the unique zero
of z, which ties c and x0 together.  The weighted area of the competitor,
minus the cone's (4/3) sqrt(2), admits the closed-form upper bound

    gap(x0) = 3 x0^2 * (-sqrt(2) - sqrt(2)/log(3 x0/sqrt(2)) + alpha sqrt(3)),

negative exactly when alpha < sqrt(2/3) * (1 + 1/log(3 x0 / sqrt(2))).
As x0 -> 0 the bracket tends to sqrt(2/3) from below, so a strictly better
competitor exists for every alpha below sqrt(2/3) and for none at or above
it.  Near the threshold the winning x0 collapses like exp(-K/(threshold -
alpha)) and the energy gap underflows double precision long before the
bracket does, so certification switches from quadrature comparison to the
sign of the bracket, evaluated in log space when x0 itself underflows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import geom

SQ2 = math.sqrt(2.0)
SQ3 = math.sqrt(3.0)

X_TOP = SQ2 / 3.0                      # outer per-fold coordinate of the folds
J_CONE = 4.0 * SQ2 / 3.0               # weighted area of the cone, any alpha
ALPHA_THRESHOLD = math.sqrt(2.0 / 3.0)

_QUAD_OPTS = dict(epsabs=1e-12, epsrel=1e-12, limit=500)
_GAP_RESOLVABLE = 1e-12 * J_CONE       # below this, energies cannot resolve


def _log_term(x: float) -> float:
    return math.log(3.0 * x / SQ2)


def profile(x: float, c: float) -> tuple[float, float]:
    """The bending profile and its derivative: (z(x), z'(x))."""
    if x <= 0.0:
        raise ValueError(f"x must be positive, got {x}")
    if c < 0.0:
        raise ValueError(f"c must be nonnegative, got {c}")
    return x / SQ2 + c * _log_term(x), 1.0 / SQ2 + c / x


def c_from_x0(x0: float) -> float:
    """Profile constant making x0 the zero of z; positive on (0, sqrt2/3)."""
    if not 0.0 < x0 < X_TOP:
        raise ValueError(f"x0 must lie in (0, sqrt(2)/3), got {x0}")
    return -x0 / (SQ2 * _log_term(x0))


def solve_x0(c: float) -> float:
    """The unique zero of z(.; c) in (0, sqrt(2)/3): bisection to 1e-14
    then a Newton polish.  z is strictly increasing there, from -inf to
    1/3, so the root is unique."""
    if c <= 0.0:
        raise ValueError(f"c must be positive, got {c}")

    def z(x):
        return x / SQ2 + c * _log_term(x)

    lo, hi = 1e-300, X_TOP
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if z(mid) < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-14 * hi:
            break
    x = 0.5 * (lo + hi)
    for _ in range(3):
        zx, dz = profile(x, c)
        step = zx / dz
        if 0.0 < x - step < X_TOP:
            x -= step
    return x


@dataclass(frozen=True)
class CompetitorParams:
    """Consistent (c, x0) pair of the family; z(x0) = 0 and z at the outer
    edge is 1/3 by construction."""

    x0: float
    c: float

    def __post_init__(self):
        z0, _ = profile(self.x0, self.c)
        ztop, _ = profile(X_TOP, self.c)
        if abs(z0) > 1e-12:
            raise ValueError(f"z(x0) = {z0:.3g}, not 0")
        if abs(ztop - 1.0 / 3.0) > 1e-12:
            raise ValueError(f"z at the outer edge is {ztop:.15g}, not 1/3")


def params_from_x0(x0: float) -> CompetitorParams:
    return CompetitorParams(x0=x0, c=c_from_x0(x0))


@dataclass(frozen=True)
class FoldAreas:
    """Areas of one bent fold and one vertical fold of the competitor.

    area_B and area_V come from adaptive quadrature; area_V_closed is the
    exact antiderivative (the two must agree to 1e-11); area_B_bound is the
    closed-form upper bound obtained from
    sqrt(3/2 x^2 + sqrt2 c x + c^2) <= sqrt(3/2) x + c/sqrt3 + sqrt(2/3) c^2/x.
    """

    area_B: float
    area_V: float
    area_V_closed: float
    area_B_bound: float


def fold_areas(x0: float) -> FoldAreas:
    from scipy.integrate import quad   # deferred: costs 0.4 s at import

    c = c_from_x0(x0)

    def b_integrand(x):
        return 2.0 * SQ3 * math.sqrt(1.5 * x * x + SQ2 * c * x + c * c)

    def v_integrand(x):
        return 2.0 * (x / SQ2 + c * _log_term(x))

    area_b = quad(b_integrand, x0, X_TOP, **_QUAD_OPTS)[0]
    area_v = quad(v_integrand, x0, X_TOP, **_QUAD_OPTS)[0]

    def v_anti(x):
        return 2.0 * (x * x / (2.0 * SQ2) + c * x * _log_term(x) - c * x)

    def b_bound_anti(x):
        return 2.0 * SQ3 * (0.5 * math.sqrt(1.5) * x * x + c / SQ3 * x
                            + math.sqrt(2.0 / 3.0) * c * c * _log_term(x))

    return FoldAreas(area_B=area_b, area_V=area_v,
                     area_V_closed=v_anti(X_TOP) - v_anti(x0),
                     area_B_bound=b_bound_anti(X_TOP) - b_bound_anti(x0))


def gap_bracket(x0: float, alpha: float) -> float:
    """The bracket whose sign decides the competitor: gap = 3 x0^2 * bracket."""
    return -SQ2 - SQ2 / _log_term(x0) + alpha * SQ3


def gap_bracket_log10(log10_x0: float, alpha: float) -> float:
    """Same bracket with x0 given as log10(x0), usable far below the
    double-precision underflow threshold."""
    log_term = math.log(3.0 / SQ2) + log10_x0 * math.log(10.0)
    return -SQ2 - SQ2 / log_term + alpha * SQ3


def threshold_alpha(x0: float) -> float:
    """Largest alpha beaten by the competitor at parameter x0:
    sqrt(2/3) * (1 + 1/log(3 x0/sqrt(2))).  Increases to sqrt(2/3) as
    x0 decreases to 0."""
    return ALPHA_THRESHOLD * (1.0 + 1.0 / _log_term(x0))


def threshold_alpha_log10(log10_x0: float) -> float:
    log_term = math.log(3.0 / SQ2) + log10_x0 * math.log(10.0)
    return ALPHA_THRESHOLD * (1.0 + 1.0 / log_term)


@dataclass(frozen=True)
class GapReport:
    """Energies of one competitor against the cone.

    gap_bound is the closed-form 3 x0^2 * bracket; it equals
    j_competitor_bound - j_cone, and j_competitor_quadrature never exceeds
    j_competitor_bound.
    """

    alpha: float
    x0: float
    c: float
    j_competitor_quadrature: float
    j_competitor_bound: float
    j_cone: float
    gap_bound: float


def competitor_energy(x0: float, alpha: float) -> GapReport:
    """Weighted area of the competitor at (x0, alpha): three bent folds,
    three vertical folds, and the weighted triangle of apothem x0."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    params = params_from_x0(x0)
    areas = fold_areas(x0)
    triangle = 3.0 * SQ3 * x0 * x0
    j_quad = 3.0 * areas.area_B + 3.0 * areas.area_V + alpha * triangle
    j_bound = 3.0 * areas.area_B_bound + 3.0 * areas.area_V_closed + alpha * triangle
    return GapReport(alpha=alpha, x0=x0, c=params.c,
                     j_competitor_quadrature=j_quad,
                     j_competitor_bound=j_bound,
                     j_cone=J_CONE,
                     gap_bound=3.0 * x0 * x0 * gap_bracket(x0, alpha))


@dataclass(frozen=True)
class BetterCompetitor:
    """A competitor strictly beating the cone at the given alpha.

    ``certified_by`` is "quadrature" when the energy gap is resolvable in
    double precision (and the quadrature comparison was asserted), or
    "bracket" when only the closed-form sign certifies it.  ``x0`` is 0.0
    when the winning parameter underflows; log10_x0 is always finite.
    """

    alpha: float
    x0: float
    log10_x0: float
    certified_by: str
    report: Optional[GapReport] = None


_GRID_X0 = np.logspace(-8, math.log10(0.4), 200)


def find_better_competitor(alpha: float) -> Optional[BetterCompetitor]:
    """A member of the family with less energy than the cone, or None.

    For alpha at or above sqrt(2/3) (minus 1e-12 slack) there is none.
    Otherwise the largest grid parameter with a negative closed-form gap
    wins; when even the smallest grid parameter is too large (alpha very
    close to the threshold) the parameter is placed in log space where the
    bracket is still computable exactly.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    if alpha >= ALPHA_THRESHOLD - 1e-12:
        return None
    winners = [x0 for x0 in _GRID_X0
               if alpha <= threshold_alpha(x0) and gap_bracket(x0, alpha) < 0.0]
    if winners:
        x0 = float(max(winners))
        report = competitor_energy(x0, alpha)
        if abs(report.gap_bound) > _GAP_RESOLVABLE:
            if not report.j_competitor_quadrature < report.j_cone:
                raise AssertionError(
                    "closed-form gap negative but quadrature disagrees")
            return BetterCompetitor(alpha, x0, math.log10(x0), "quadrature", report)
        return BetterCompetitor(alpha, x0, math.log10(x0), "bracket", report)
    # place the parameter twice as deep (in log space) as the bracket needs
    ratio = alpha / ALPHA_THRESHOLD - 1.0          # negative
    log_term = 2.0 / ratio
    log10_x0 = (log_term - math.log(3.0 / SQ2)) / math.log(10.0)
    if gap_bracket_log10(log10_x0, alpha) >= 0.0:
        raise AssertionError("log-space bracket unexpectedly nonnegative")
    x0 = math.exp(log_term) * SQ2 / 3.0            # may underflow to 0.0
    return BetterCompetitor(alpha, x0, log10_x0, "bracket", None)


# ---------------------------------------------------------------------------
# Mesh realization of the competitor
# ---------------------------------------------------------------------------

def competitor_mesh(x0: float, radial: int = 400) -> geom.Mesh:
    """Triangulated competitor: the weighted triangle, three bent folds and
    three vertical folds, with log-spaced radial samples so the profile is
    resolved near x0."""
    if radial < 2:
        raise ValueError("need at least 2 radial samples")
    c = c_from_x0(x0)
    xs = np.exp(np.linspace(math.log(x0), math.log(X_TOP), radial + 1))
    xs[0], xs[-1] = x0, X_TOP
    zs = xs / SQ2 + c * np.log(3.0 * xs / SQ2)
    zs[0] = 0.0
    zs = np.maximum(zs, 0.0)

    fold_axes = [math.pi / 3, math.pi, 5 * math.pi / 3]      # bent folds
    trace_axes = [0.0, 2 * math.pi / 3, 4 * math.pi / 3]     # vertical folds

    verts, tris, flags = [], [], []

    def add(p):
        verts.append(np.asarray(p, dtype=float))
        return len(verts) - 1

    def add_tri(i, j, k, g):
        tris.append((i, j, k))
        flags.append(g)

    # weighted triangle: fan around the origin between consecutive corners
    corners = [add((2 * x0 * math.cos(t), 2 * x0 * math.sin(t), 0.0))
               for t in trace_axes]
    o = add((0.0, 0.0, 0.0))
    for k in range(3):
        add_tri(o, corners[k], corners[(k + 1) % 3], True)

    for t in fold_axes:
        d = np.array([math.cos(t), math.sin(t), 0.0])
        dp = np.array([-math.sin(t), math.cos(t), 0.0])
        row_prev = None
        for x, z in zip(xs, zs):
            left = add(x * d - SQ3 * x * dp + np.array([0, 0, z]))
            right = add(x * d + SQ3 * x * dp + np.array([0, 0, z]))
            if row_prev is not None:
                l0, r0 = row_prev
                add_tri(l0, r0, right, False)
                add_tri(l0, right, left, False)
            row_prev = (left, right)

    for t in trace_axes:
        e = np.array([math.cos(t), math.sin(t), 0.0])
        row_prev = None
        for x, z in zip(xs, zs):
            bot = add(2 * x * e)
            if z > 0.0:
                top = add(2 * x * e + np.array([0, 0, z]))
            else:
                top = bot
            if row_prev is not None:
                b0, t0 = row_prev
                if t0 != b0:
                    add_tri(b0, bot, top, False)
                    add_tri(b0, top, t0, False)
                else:
                    add_tri(b0, bot, top, False)
            row_prev = (bot, top)

    return geom.Mesh(np.array(verts), np.array(tris), np.array(flags))
