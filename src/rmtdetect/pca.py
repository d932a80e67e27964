"""Supervised comparison method: principal-subspace pilot selection,
regression of the remaining sensors on the pilots, residual-based judging.

Training picks m' pilot channels whose projections onto the top-m principal
subspace are as mutually orthogonal as possible (greedy max-min-angle,
ties broken by node order, the angles from the training Gram's
eigendecomposition), then fits each non-pilot channel on the raw pilot
block by least squares through the normal equations. Judging
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
    subspace_dim: int               # m
    condition_number: float         # of the pilot basis on the training range


def _greedy_pilots(gram: np.ndarray, m_prime: int) -> list:
    """Pick node indices minimizing the maximum pairwise |cos| greedily, the
    angles read from gram, the Gram matrix of the nodes' projections."""
    if m_prime == 1:
        return [0]  # ties broken by node order; a single pilot has no angles
    norms = np.sqrt(np.maximum(np.diagonal(gram), 0.0))
    safe = np.where(norms > 0, norms, 1.0)
    cos = np.abs(gram / safe / safe[:, None])
    np.fill_diagonal(cos, np.inf)  # a node is never its own partner
    chosen = list(np.unravel_index(np.argmin(cos), cos.shape))
    while len(chosen) < m_prime:
        # a chosen node's row holds its own inf; the first minimum keeps
        # earlier node order winning ties
        chosen.append(np.argmin(cos[:, chosen].max(axis=1)))
    return sorted(int(k) for k in chosen)


def train(
    src: DataSource,
    train_range: Tuple[int, int],
    m_prime: int,
    m: Optional[int] = None,
) -> PilotModel:
    """Fit the pilot regression on the half-open sample range [start, end),
    which must hold more than m_prime samples.

    m defaults to the number of eigenvalues needed to capture
    VARIANCE_SHARE of the spectrum's mass.
    """
    lo, hi = train_range
    if not 0 <= lo < hi <= src.t:
        raise ParameterError(f"pca: training range [{lo}, {hi}) outside 0..{src.t}")
    if hi - lo <= m_prime:
        # with m' samples the pilots fit every node exactly: each training
        # residual is 0 and nearly every later sample would flag
        raise ParameterError(
            f"pca: training range (--train) holds {hi - lo} samples; need more than "
            f"m'={m_prime}"
        )
    y = src.values[:, lo:hi].T  # time x nodes
    n_nodes = y.shape[1]
    if not 1 <= m_prime <= n_nodes - 1:
        raise ParameterError(
            f"pca: m' (--m-prime) must satisfy 1 <= m' <= N-1 = {n_nodes - 1}, so that there "
            f"is a pilot and a non-pilot node; got m'={m_prime}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        c = y.T @ y
    if not np.isfinite(c).all():
        raise ParameterError(
            f"pca: the Gram matrix of the training range (--train) [{lo}, {hi}) overflows "
            "float64; rescale the data"
        )
    w, p = np.linalg.eigh(c)
    w, p = w[::-1], p[:, ::-1]  # eigh returns them ascending
    if not w.sum() > 0:
        raise ParameterError(
            f"pca: the training range (--train) [{lo}, {hi}) has no variance: every sample is 0 "
            "or too small to square in float64"
        )
    if m is None:
        frac = np.cumsum(w) / w.sum()
        m = int(np.searchsorted(frac, VARIANCE_SHARE) + 1)
        if m < m_prime:
            raise ParameterError(
                f"pca: the default m (--m), the count of eigenvalues holding "
                f"{VARIANCE_SHARE:.0%} of the training variance, is {m}, below m'={m_prime} "
                f"(--m-prime); give --m between {m_prime} and {n_nodes}, or a smaller --m-prime"
            )
    if not m_prime <= m <= n_nodes:
        raise ParameterError(
            f"pca: need m' <= m <= N, got m'={m_prime} (--m-prime), m={m} (--m), N={n_nodes}"
        )

    # the projections onto the top-m principal scores have Gram P_m W_m P_m^T;
    # a node whose samples are all 0 keeps norm and |cos| 0
    p[np.diagonal(c) == 0] = 0.0
    pilots = _greedy_pilots((p[:, :m] * w[:m]) @ p[:, :m].T, m_prime)
    nonpilots = [k for k in range(n_nodes) if k not in pilots]

    yb = y[:, pilots]
    cond = float(np.linalg.cond(yb))
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise ParameterError(
            f"pca: pilot basis {[src.node_ids[k] for k in pilots]} is ill-conditioned "
            f"(condition number {cond:.3e})"
        )
    gram = yb.T @ yb
    if not (np.diagonal(gram) >= np.finfo(float).tiny).all():
        # the condition number is scale-free; a subnormal Gram solves to NaN
        raise ParameterError(
            f"pca: the pilots' Gram matrix on the training range (--train) [{lo}, {hi}) "
            "underflows float64 (a diagonal entry is subnormal); rescale the data"
        )
    coef = np.linalg.solve(gram, yb.T @ y[:, nonpilots])
    resid = y[:, nonpilots] - yb @ coef
    rms = np.sqrt((resid**2).mean(axis=0))
    faint = (rms**2 < np.finfo(float).tiny) & (resid != 0).any(axis=0)
    if faint.any():
        # a zero or subnormal band: every later nonzero residual would flag
        nodes = [src.node_ids[nonpilots[j]] for j in np.flatnonzero(faint)]
        raise ParameterError(
            f"pca: the training residual RMS of nodes {nodes} on the training range (--train) "
            f"[{lo}, {hi}) underflows float64 (its square is 0 or subnormal); rescale the data"
        )
    return PilotModel(
        pilot_ids=tuple(src.node_ids[k] for k in pilots),
        nonpilot_ids=tuple(src.node_ids[k] for k in nonpilots),
        coefficients=coef,
        train_residual_std=rms,
        subspace_dim=m,
        condition_number=cond,
    )


def residual_series(model: PilotModel, src: DataSource) -> Tuple[np.ndarray, np.ndarray]:
    """Sample indices and the per-sample |residual| of each non-pilot node
    (nodes x samples) over the whole source.

    This is the per-timestamp analogue of the detector's indicator series.
    Each node's residual overwrites its row of the fitted values, so the
    result is the only nodes x samples array made.
    """
    rows_b = [src.row_index(nid) for nid in model.pilot_ids]
    out = model.coefficients.T @ src.values[rows_b]
    for j, nid in enumerate(model.nonpilot_ids):
        np.subtract(src.values[src.row_index(nid)], out[j], out=out[j])
    return np.arange(src.t), np.abs(out, out=out)
