"""One-dimensional sliding cones in the half-plane.

The half-plane is {(x, y): y >= 0} with sliding line Gamma = {y = 0}.
A cone is a finite union of half-lines (branches) from the origin.  The
minimal catalog, for weight alpha with theta_alpha = arccos(alpha):

  (i)   Gamma itself;
  (ii)  the vertical half-line;
  (iii) Gamma plus the vertical half-line;
  (iv)  a half-line at angle theta_alpha plus a horizontal half-line;
  (v)   the symmetric vee V_theta for theta_alpha <= theta <= pi/6.

Everything else loses to one of three explicit competitors, recorded as
witness tags: pinching two branches into a Y junction, pushing branches
down onto Gamma (growing a weighted run inside it), or projecting a branch
onto Gamma/retracting within it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

GAMMA = "gamma"
VERTICAL = "vertical"
GAMMA_PLUS_VERTICAL = "gamma_plus_vertical"
SLOPED_PLUS_HORIZONTAL = "sloped_plus_horizontal"
VEE = "vee"

_VARIANTS = (GAMMA, VERTICAL, GAMMA_PLUS_VERTICAL, SLOPED_PLUS_HORIZONTAL, VEE)
_THETA_VARIANTS = (SLOPED_PLUS_HORIZONTAL, VEE)

WITNESS_PINCH = "pinch_Y"
WITNESS_PUSH = "push_to_gamma"
WITNESS_PROJECT = "project_to_gamma"

_EQ_TOL = 1e-12


def theta_alpha(alpha: float) -> float:
    """The angle with cos(theta_alpha) = alpha."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    return math.acos(alpha)


@dataclass(frozen=True)
class Cone1D:
    """A member of the half-plane catalog; theta only for the two sloped
    variants, measured from Gamma, in (0, pi/2]."""

    variant: str
    theta: Optional[float] = None

    def __post_init__(self):
        if self.variant not in _VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.variant in _THETA_VARIANTS:
            if self.theta is None:
                raise ValueError(f"{self.variant} requires theta")
            if not 0.0 < self.theta <= math.pi / 2:
                raise ValueError(f"theta must lie in (0, pi/2], got {self.theta}")
        elif self.theta is not None:
            raise ValueError(f"{self.variant} does not carry theta")


def _check_two_segment_domain(theta: float, alpha: float):
    if not 0.0 < theta <= math.pi / 2:
        raise ValueError(f"theta must lie in (0, pi/2], got {theta}")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")


def two_segment_energy(theta: float, x: float, alpha: float) -> float:
    """Energy of the two-segment competitor to the sloped-plus-horizontal
    cone: segments A=(-1,0) -> C=(x,0) on Gamma and C -> B=(cos t, sin t).

        J(x) = alpha*(1+x) + sqrt((x - cos t)^2 + sin^2 t)
    """
    _check_two_segment_domain(theta, alpha)
    if not -1.0 < x < 1.0:
        raise ValueError(f"x must lie in (-1, 1), got {x}")
    return alpha * (1.0 + x) + math.hypot(x - math.cos(theta), math.sin(theta))


def two_segment_derivatives(theta: float, alpha: float) -> tuple[float, float]:
    """First and second derivative of the two-segment energy at x = 0:
    (alpha - cos(theta), sin(theta)^2).  The junction is critical exactly
    when cos(theta) = alpha, and always a strict local minimum."""
    _check_two_segment_domain(theta, alpha)
    return alpha - math.cos(theta), math.sin(theta) ** 2


def is_minimal(cone: Cone1D, alpha: float) -> bool:
    """Membership in the minimal catalog at weight alpha (1e-12 slack on
    the equality/range conditions)."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    if cone.variant in (GAMMA, VERTICAL, GAMMA_PLUS_VERTICAL):
        return True
    if cone.variant == SLOPED_PLUS_HORIZONTAL:
        return abs(math.cos(cone.theta) - alpha) <= _EQ_TOL
    # vee
    return theta_alpha(alpha) - _EQ_TOL <= cone.theta <= math.pi / 6 + _EQ_TOL


@dataclass(frozen=True)
class BranchCone:
    """A one-dimensional cone given by its ray angles in [0, pi], measured
    from the positive Gamma direction; 0 and pi denote rays inside Gamma."""

    rays: tuple

    def __post_init__(self):
        try:
            rays = tuple(float(r) for r in self.rays)
        except (TypeError, ValueError):
            raise ValueError("rays must be a sequence of angles") from None
        object.__setattr__(self, "rays", rays)
        if not 1 <= len(rays) <= 6:
            raise ValueError(f"need 1..6 rays, got {len(rays)}")
        if any(not 0.0 <= r <= math.pi for r in rays):
            raise ValueError("ray angles must lie in [0, pi]")
        if any(b <= a for a, b in zip(rays, rays[1:])):
            raise ValueError("ray angles must be strictly increasing")


@dataclass(frozen=True)
class Verdict:
    minimal: bool
    cone: Optional[Cone1D] = None
    witness: Optional[str] = None


def _minimal(cone: Cone1D) -> Verdict:
    return Verdict(minimal=True, cone=cone)


def _beaten(witness: str) -> Verdict:
    return Verdict(minimal=False, witness=witness)


def classify_branches(cone: BranchCone, alpha: float, tol: float = _EQ_TOL) -> Verdict:
    """Case analysis by branch count and position relative to Gamma.

    One branch is minimal only if vertical; two branches only as the types
    (i)/(iv)/(v); three only as type (iii); four or more never.  Witness
    tags name the beating deformation.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    rays = cone.rays
    in_gamma = [r <= tol or r >= math.pi - tol for r in rays]
    off = [r for r, g in zip(rays, in_gamma) if not g]
    n, n_in = len(rays), sum(in_gamma)
    t_alpha = theta_alpha(alpha)

    if n == 1:
        (r,) = rays
        if in_gamma[0]:
            return _beaten(WITNESS_PROJECT)  # retract the tip within Gamma
        if abs(r - math.pi / 2) <= tol:
            return _minimal(Cone1D(VERTICAL))
        return _beaten(WITNESS_PROJECT)      # drop the far end onto Gamma

    if n == 2:
        if n_in == 2:
            return _minimal(Cone1D(GAMMA))
        if n_in == 1:
            theta = rays[1] if in_gamma[0] else rays[0]
            horizontal_at_pi = (not in_gamma[0])
            # angle between the sloped ray and the bare Gamma direction
            a = theta if horizontal_at_pi else math.pi - theta
            if abs(math.cos(a) - alpha) <= tol:
                return _minimal(Cone1D(SLOPED_PLUS_HORIZONTAL, theta=a))
            if math.cos(a) > alpha:
                return _beaten(WITNESS_PUSH)   # junction slides along Gamma
            return _beaten(WITNESS_PINCH)      # junction pulls the branches together
        # both branches off Gamma
        t1, t2 = rays
        symmetric = abs(t1 + t2 - math.pi) <= tol
        if symmetric and t_alpha - tol <= t1 <= math.pi / 6 + tol:
            return _minimal(Cone1D(VEE, theta=min(t1, math.pi / 2)))
        if t2 - t1 < 2 * math.pi / 3 - tol:
            return _beaten(WITNESS_PINCH)
        return _beaten(WITNESS_PUSH)

    if n == 3:
        if n_in == 0:
            return _beaten(WITNESS_PINCH)  # some pair spans less than 120 degrees
        if n_in == 2:
            theta = off[0]
            if abs(theta - math.pi / 2) <= tol:
                return _minimal(Cone1D(GAMMA_PLUS_VERTICAL))
            return _beaten(WITNESS_PROJECT)
        # exactly one branch inside Gamma: never minimal
        base = 0.0 if rays[0] <= tol else math.pi
        a = [t if base == 0.0 else math.pi - t for t in off]
        if all(x < math.pi / 2 - tol for x in a):
            return _beaten(WITNESS_PINCH)
        if any(x > math.pi / 2 + tol for x in a):
            return _beaten(WITNESS_PUSH)
        return _beaten(WITNESS_PINCH)  # one branch vertical: pair spans < 120 degrees

    # four or more branches
    if n - n_in >= 3:
        return _beaten(WITNESS_PINCH)
    return _beaten(WITNESS_PROJECT)


def brute_force_minimum(theta: float, alpha: float, grid_n: int = 2000) -> tuple[float, float]:
    """Grid scan plus golden-section refinement of the two-segment energy
    over x in [-0.999, cos(theta)]; the minimizer is located to 1e-10.

    This is the independent oracle against which the criticality condition
    cos(theta) = alpha is checked.
    """
    _check_two_segment_domain(theta, alpha)
    if grid_n < 1000:
        raise ValueError(f"grid_n must be >= 1000, got {grid_n}")
    ct, st2 = math.cos(theta), math.sin(theta) ** 2

    def f(x):
        return alpha * (1.0 + x) + np.sqrt((x - ct) ** 2 + st2)

    xs = np.linspace(-0.999, ct, grid_n + 1)
    i = int(np.argmin(f(xs)))
    lo = xs[max(i - 1, 0)]
    hi = xs[min(i + 1, grid_n)]
    # golden-section search to interval width 1e-12
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = float(f(c)), float(f(d))
    while b - a > 1e-12:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = float(f(c))
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = float(f(d))
    x_star = 0.5 * (a + b)
    return x_star, float(f(x_star))
