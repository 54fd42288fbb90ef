"""Numeric fibration probes: transversality of the near-zero fibers of f
with spheres, and the argument coverage of f near a point of its zero set.

Both are sampling estimates in floats on numpy, separate from the exact arc
algebra of ``arcs``: a probe reports what its samples saw and certifies
nothing.  Of the commands, only `transversality` and `openness` load this
module, and with it numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .degeneracy import _aligned_residual_float, _unit_rows, real_span_residual
from .errors import (
    AllValuesZeroError,
    BadRequestError,
    DimensionMismatchError,
    NonFiniteValuesError,
    SingularFiberError,
    require_positive,
)
from .poly import MixedPoly

__all__ = [
    "transversality_residual",
    "transversality_scan",
    "boundary_openness_probe",
    "TransversalityReport",
    "OpennessReport",
]

# transversality_scan draws at most MAX_DRAWS sphere points in blocks from FIRST_BLOCK
# doubling to MAX_BLOCK, scored and projected in batches whose arrays SCORE_ENTRIES bounds
MAX_DRAWS = 40_000_000
FIRST_BLOCK, MAX_BLOCK, SCORE_ENTRIES = 4_096, 200_000, 2**20
# a short first block is followed by projection rounds (transversality_scan) of at least
# PROJECTION_ROUND draws, PROJECTION_STEPS Gauss-Newton steps each; a projected draw
# costs about PROJECTION_COST rejection draws
PROJECTION_ROUND, PROJECTION_STEPS, PROJECTION_COST, PROJECTION_EVIDENCE = 64, 6, 100, 512
# boundary_openness_probe sorts arg f into this many equal sectors
OPENNESS_BINS = 256
# a point whose aligned gradient residual is at most this is numerically mixed-critical
REGULARITY_THRESHOLD = 1e-12


# ---------------------------------------------------------------------------
# Transversality of nearby fibers
# ---------------------------------------------------------------------------


def _screened_values(f: MixedPoly, pts, region):
    """Values of f at the (N, n) points, their moduli and the largest finite
    modulus.  A block with no finite nonzero value shows only that floats
    underflowed (AllValuesZeroError: every value is exactly zero) or
    overflowed (NonFiniteValuesError), so it is an error in both probes."""
    with np.errstate(over="ignore", invalid="ignore"):
        vals = f.evaluate_many(pts)
    mags = np.abs(vals)
    scale = float(np.max(mags, where=np.isfinite(mags), initial=0.0))
    if scale == 0.0:
        if np.isfinite(mags).all():
            raise AllValuesZeroError(f"f vanished on every sample of the {region}")
        raise NonFiniteValuesError(f"f has no finite nonzero value on the {region} samples")
    return vals, mags, scale


def _transversality_residuals(f: MixedPoly, pts):
    """transversality_residual at each row of the (N, n) points, and nan at
    the rows that are numerically mixed-critical (or have no finite gradients)."""
    grads = f.gradients(pts)
    regular = _aligned_residual_float(np.conj(grads.d_z), grads.d_zbar) > REGULARITY_THRESHOLD
    rows, scale = _unit_rows(pts)  # at unit scale, so no square under- or overflows
    norms = np.linalg.norm(rows.view(np.complex128), axis=-1) / scale[..., 0]
    if np.any(regular & (norms == 0)):
        raise ValueError("transversality residual is undefined at the origin")
    span = real_span_residual(pts, *grads.real_imag_zbar())
    return np.divide(span, norms, out=np.full_like(span, np.nan), where=regular)


def transversality_residual(f: MixedPoly, p) -> float:
    """Normalized distance of p from the tangent span of its fiber.

    Zero exactly when the sphere through p is tangent to the fiber of f at
    p (the radius vector lies in span_R of the two gradient covectors).
    Raises SingularFiberError at points that are numerically mixed-critical.
    """
    res = _transversality_residuals(f, np.asarray(p, dtype=np.complex128)[None])[0]
    if np.isnan(res):
        raise SingularFiberError("point is numerically a mixed critical point")
    return float(res)


@dataclass(frozen=True)
class TransversalityReport:
    samples_drawn: int
    accepted: int
    skipped_singular: int
    min_residual: float | None  # None when no point was accepted
    mean_residual: float | None


def _sphere(rng, size, n, radius):
    """size uniform points on the radius sphere in C^n."""
    block = rng.normal(size=(size, 2 * n))
    pts = block[:, :n] + 1j * block[:, n:]
    with np.errstate(over="ignore"):  # non-finite points are screened with their values
        return pts * (radius / np.linalg.norm(pts, axis=1))[:, None]


def _project(f: MixedPoly, u, radius, eta):
    """Points of the radius sphere near f = eta: PROJECTION_STEPS minimum-norm Gauss-Newton
    steps from the unit-sphere points u on (Re, Im f(radius u) - eta, |u|^2 - 1), then
    renormalized.  Unit rows (each Jacobian row scaled with its residual) keep every
    square in float range; a point with dependent nonzero rows or a non-finite step is dropped."""
    x = np.concatenate([u.real, u.imag], axis=1)
    with np.errstate(all="ignore"):
        for _ in range(PROJECTION_STEPS):
            z = radius * (x[:, : f.n] + 1j * x[:, f.n :])
            grads = f.gradients(z)
            jac = np.concatenate([grads.d_z + grads.d_zbar, 1j * (grads.d_z - grads.d_zbar)], axis=1)
            res = (f.evaluate_many(z) - eta) / radius
            aug = np.concatenate([np.stack([jac.real, jac.imag, 2 * x]),
                                  np.stack([res.real, res.imag, (x * x).sum(axis=1) - 1])[..., None]], axis=2)
            # a row that is exactly 0 (Im f of a real f) cannot be met: left out, as by pinv
            scale = np.max(np.abs(aug[..., :-1]), axis=2, keepdims=True)
            aug /= np.where(scale > 0, scale, np.inf)
            aug /= np.maximum(np.linalg.norm(aug[..., :-1], axis=2, keepdims=True), 1)
            rows = aug[..., :-1]
            a, b, c = ((rows[i] * rows[j]).sum(axis=1) for i, j in ((0, 1), (0, 2), (1, 2)))
            # adjugate and determinant of the Gram matrix [[1, a, b], [a, 1, c], [b, c, 1]]
            adj = np.array([[1 - c * c, b * c - a, a * c - b], [b * c - a, 1 - b * b, a * b - c],
                            [a * c - b, a * b - c, 1 - a * a]])
            det = 1 + 2 * a * b * c - a * a - b * b - c * c
            step = np.einsum("in,ink->nk", np.einsum("ijn,jn->in", adj, aug[..., -1]) / det, rows)
            ok = (det > REGULARITY_THRESHOLD) & np.isfinite(step).all(axis=1)
            x, eta = x[ok] - step[ok], eta[ok]
    u = x[:, : f.n] + 1j * x[:, f.n :]
    return u * (radius / np.linalg.norm(u, axis=1))[:, None]


def transversality_scan(
    f: MixedPoly,
    radius: float = 1.0,
    delta: float = 1e-3,
    samples: int = 10_000,
    seed: int = 0,
) -> TransversalityReport:
    """Minimum fiber/sphere transversality residual over near-zero fibers.

    Draws uniform points on the radius sphere, keeps those with |f| <= delta
    (rejection sampling), and reports residual statistics over the accepted
    points, skipping numerically singular ones.  A block of draws on which f
    has no finite nonzero value is an error (see _screened_values).

    When the first block of FIRST_BLOCK draws falls short, later draws are projected onto
    the band (_project) in rounds sized from their yield, until that yield per draw is below
    PROJECTION_COST times the first block's rate or a round loses every point; rejection blocks
    then run to the end.  After an empty first block, PROJECTION_EVIDENCE misses stop the scan.
    """
    require_positive(radius=radius, delta=delta, samples=samples)
    rng = np.random.default_rng(seed)
    accepted = drawn = skipped = projected = survived = hits = 0
    first_rate, projecting = None, False
    min_res = math.inf
    total = 0.0
    batch = max(1, SCORE_ENTRIES // (4 * f.n**2 * max(1, len(f.terms))))
    while accepted < samples and drawn < MAX_DRAWS:
        if not projecting:
            size = min(drawn + FIRST_BLOCK, MAX_BLOCK, MAX_DRAWS - drawn)
            pts = _sphere(rng, size, f.n, radius)
            _, mags, _ = _screened_values(f, pts, "sphere")
        else:
            # 5/4 of the draws the yield so far predicts (all of them land, until one does)
            need = math.ceil(1.25 * (samples - accepted) / (hits / projected if hits else 1.0))
            size = min(max(PROJECTION_ROUND, need), MAX_BLOCK, MAX_DRAWS - drawn)
            eta = delta * np.sqrt(rng.uniform(size=size)) * np.exp(2j * np.pi * rng.uniform(size=size))
            u = _sphere(rng, size, f.n, 1.0)
            # projected in scoring batches, which bound the arrays of each step
            pts = np.concatenate([_project(f, u[i : i + batch], radius, eta[i : i + batch])
                                  for i in range(0, size, batch)])
            # f == 0 is a hit here, not a sign of underflow, but only a point that
            # stays in the band with each term off by REGULARITY_THRESHOLD of its size
            nu, mu, coeff = f._arrays()
            with np.errstate(over="ignore", invalid="ignore"):
                terms = (np.abs(coeff) * np.prod(np.abs(pts)[:, None] ** (nu + mu), axis=2)).sum(axis=1)
                mags = np.abs(f.evaluate_many(pts)) + REGULARITY_THRESHOLD * terms
        drawn += size
        before = accepted
        keep = pts[mags <= delta]
        # score the kept points in order, never more than are still needed,
        # so that no point after the samples-th regular one is scored
        while accepted < samples and len(keep):
            rows, keep = np.split(keep, [min(samples - accepted, batch)])
            for res in _transversality_residuals(f, rows).tolist():
                if math.isnan(res):
                    skipped += 1
                    continue
                accepted += 1
                total += res
                min_res = min(min_res, res)
        if first_rate is None:
            first_rate, projecting = accepted / size, True
        elif projecting:
            projected, survived, hits = projected + size, survived + len(pts), hits + accepted - before
            if hits == 0 == first_rate and survived >= PROJECTION_EVIDENCE:
                break
            # a round whose points were all dropped says nothing of the band
            projecting = len(pts) > 0 and hits >= PROJECTION_COST * first_rate * projected
    return TransversalityReport(
        samples_drawn=drawn,
        accepted=accepted,
        skipped_singular=skipped,
        min_residual=float(min_res) if accepted else None,
        mean_residual=float(total / accepted) if accepted else None,
    )


# ---------------------------------------------------------------------------
# Boundary openness probe
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OpennessReport:
    arg_coverage: float
    sector_halfwidth: float | None
    nonzero_samples: int


def boundary_openness_probe(
    f: MixedPoly,
    p,
    epsilon: float,
    samples: int = 20_000,
    seed: int = 0,
) -> OpennessReport:
    """Fraction of the argument circle covered by f over an epsilon-polydisc.

    Samples the polydisc around p (a point of the zero set), collects
    arg f over the nonzero values into OPENNESS_BINS bins of equal width, and
    reports the covered fraction.  When the coverage is not full, the
    half-width of the smallest sector containing all observed arguments is
    estimated from the raw values (largest circular gap).  The samples are
    drawn in one block, so more than MAX_BLOCK is a BadRequestError.
    """
    require_positive(epsilon=epsilon, samples=samples)
    if samples > MAX_BLOCK:
        raise BadRequestError(f"samples must be at most {MAX_BLOCK}, got {samples}")
    p = np.asarray(p, dtype=np.complex128)
    if p.shape != (f.n,):
        raise DimensionMismatchError(f"point has {p.size} coordinates, f has {f.n} variables")
    rng = np.random.default_rng(seed)
    radii = epsilon * np.sqrt(rng.uniform(size=(samples, f.n)))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(samples, f.n))
    pts = p[None, :] + radii * np.exp(1j * phases)
    vals, mags, scale = _screened_values(f, pts, "polydisc")
    # scale is the largest finite modulus, so mags <= scale drops inf and nan
    nonzero = vals[(mags > 1e-14 * scale) & (mags <= scale)]
    args = np.mod(np.angle(nonzero), 2.0 * np.pi)
    bins = OPENNESS_BINS
    hist = np.bincount((args / (2.0 * np.pi / bins)).astype(int) % bins, minlength=bins)
    coverage = float(np.count_nonzero(hist)) / bins
    halfwidth = None
    if coverage < 1.0:
        ordered = np.sort(args)
        gaps = np.diff(ordered)
        wrap = ordered[0] + 2.0 * np.pi - ordered[-1]
        largest = max(float(np.max(gaps)) if gaps.size else 0.0, float(wrap))
        halfwidth = (2.0 * np.pi - largest) / 2.0
    return OpennessReport(
        arg_coverage=coverage,
        sector_halfwidth=halfwidth,
        nonzero_samples=int(nonzero.size),
    )
