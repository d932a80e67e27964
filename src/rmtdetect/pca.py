"""Supervised comparison method: principal-subspace pilot selection,
regression of the remaining sensors on the pilots, residual-based judging.

Training picks m' pilot channels whose projections onto the top-m principal
subspace are as mutually orthogonal as possible (greedy max-min-angle,
ties broken by node order), then fits each non-pilot channel on the raw
pilot block by least squares through the normal equations. Judging
compares each non-pilot node's per-sample |residual| with k times its
training residual RMS.

The method's structural blind spot: any transformation that preserves the
fitted linear relation between pilots and non-pilots (a global sign flip
being the canonical case) leaves every residual bitwise unchanged, so no
flag can ever be raised for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import ParameterError
from .ingest import DataSource

COND_LIMIT = 1e8

# Share of the spectrum's mass the default principal subspace captures.
VARIANCE_SHARE = 0.95


@dataclass(frozen=True)
class PilotModel:
    pilot_ids: Tuple[str, ...]
    nonpilot_ids: Tuple[str, ...]
    coefficients: np.ndarray        # (m', n_nonpilot): column j regresses nonpilot j
    train_residual_std: np.ndarray  # per non-pilot node, RMS over the training range
    train_range: Tuple[int, int]    # half-open sample range
    subspace_dim: int               # m
    condition_number: float         # of the pilot basis on the training range


def _principal_projection(y: np.ndarray, m: int) -> np.ndarray:
    """Project each column of y (time x nodes) onto the top-m PC subspace."""
    c = y.T @ y
    w, p = np.linalg.eigh(c)
    order = np.argsort(w)[::-1]
    scores = y @ p[:, order[:m]]
    q, _ = np.linalg.qr(scores)
    return q @ (q.T @ y)


def _greedy_pilots(proj: np.ndarray, m_prime: int) -> list:
    """Pick column indices minimizing the maximum pairwise |cos| greedily."""
    n = proj.shape[1]
    norms = np.linalg.norm(proj, axis=0)
    safe = np.where(norms > 0, norms, 1.0)
    units = proj / safe
    cos = np.abs(units.T @ units)
    if m_prime == 1:
        return [0]  # ties broken by node order; a single pilot has no angles
    masked = cos + 2.0 * np.eye(n)
    i, j = np.unravel_index(np.argmin(masked), masked.shape)
    chosen = sorted((int(i), int(j)))
    while len(chosen) < m_prime:
        best, best_val = None, np.inf
        for k in range(n):
            if k in chosen:
                continue
            val = max(float(cos[k, c_]) for c_ in chosen)
            if val < best_val:  # strict: earlier node order wins ties
                best, best_val = k, val
        chosen.append(best)
    return sorted(chosen)


def train(
    src: DataSource,
    train_range: Tuple[int, int],
    m_prime: int,
    m: Optional[int] = None,
) -> PilotModel:
    """Fit the pilot regression on the half-open sample range [start, end).

    m defaults to the number of eigenvalues needed to capture
    VARIANCE_SHARE of the spectrum's mass.
    """
    lo, hi = train_range
    if not 0 <= lo < hi <= src.t:
        raise ParameterError(f"pca: training range [{lo}, {hi}) outside 0..{src.t}")
    if hi - lo < m_prime:
        raise ParameterError(
            f"pca: training range holds {hi - lo} samples; need at least m'={m_prime}"
        )
    y = src.values[:, lo:hi].T  # time x nodes
    n_nodes = y.shape[1]
    if not 1 <= m_prime <= n_nodes - 1:
        raise ParameterError(
            f"pca: m' (--m-prime) must satisfy 1 <= m' <= N-1 = {n_nodes - 1}, so that there "
            f"is a pilot and a non-pilot node; got m'={m_prime}"
        )
    c = y.T @ y
    w = np.linalg.eigvalsh(c)[::-1]
    if m is None:
        frac = np.cumsum(w) / w.sum()
        m = int(np.searchsorted(frac, VARIANCE_SHARE) + 1)
    if not m_prime <= m <= n_nodes:
        raise ParameterError(f"pca: need m' <= m <= N, got m'={m_prime}, m={m}, N={n_nodes}")

    proj = _principal_projection(y, m)
    pilots = _greedy_pilots(proj, m_prime)
    nonpilots = [k for k in range(n_nodes) if k not in pilots]

    yb = y[:, pilots]
    cond = float(np.linalg.cond(yb))
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise ParameterError(
            f"pca: pilot basis is ill-conditioned (condition number {cond:.3e})"
        )
    gram = yb.T @ yb
    coef = np.linalg.solve(gram, yb.T @ y[:, nonpilots])
    resid = y[:, nonpilots] - yb @ coef
    rms = np.sqrt((resid**2).mean(axis=0))
    return PilotModel(
        pilot_ids=tuple(src.node_ids[k] for k in pilots),
        nonpilot_ids=tuple(src.node_ids[k] for k in nonpilots),
        coefficients=coef,
        train_residual_std=rms,
        train_range=(lo, hi),
        subspace_dim=m,
        condition_number=cond,
    )


def residual_series(
    model: PilotModel,
    src: DataSource,
    sample_range: Optional[Tuple[int, int]] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-sample |residual| for each non-pilot node (nodes x samples).

    This is the per-timestamp analogue of the detector's indicator series.
    """
    lo, hi = sample_range if sample_range is not None else (0, src.t)
    if not 0 <= lo < hi <= src.t:
        raise ParameterError(f"pca: residual range [{lo}, {hi}) outside 0..{src.t}")
    rows_b = [src.row_index(nid) for nid in model.pilot_ids]
    rows_c = [src.row_index(nid) for nid in model.nonpilot_ids]
    yb = src.values[rows_b, lo:hi]
    yc = src.values[rows_c, lo:hi]
    resid = np.abs(yc - model.coefficients.T @ yb)
    return np.arange(lo, hi), resid
