"""Synthetic single-shot qutrit readout and assignment-error mitigation.

Integrated quadrature pairs (u, v) are modelled as a mixture of three
Gaussians with shared covariance, so maximum-a-posteriori classification is
one affine discriminant per model, cutting the plane into three
straight-edged regions.  Assignment matrices hold P(assigned s' | prepared
s) with prepared states as columns, so measured frequencies obey
M = R @ rho_diag and mitigation is rho_diag = R^-1 @ M.  The shipped
default models are data: five parameters per node (Sigma = I), fitted once
to the measured single-qutrit assignment tables by ``calibrate_to_targets``
and stored, so loading them runs no fit and imports no optimizer.
"""

from __future__ import annotations

import csv
import functools
import json
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

LABELS = ("g", "e", "f")

# measured single-qutrit assignment probabilities (prepared as columns)
TABLE_R_A = np.array(
    [
        [0.982, 0.050, 0.013],
        [0.010, 0.933, 0.048],
        [0.008, 0.017, 0.940],
    ]
)
TABLE_R_B = np.array(
    [
        [0.985, 0.039, 0.012],
        [0.009, 0.935, 0.061],
        [0.006, 0.025, 0.927],
    ]
)

# measured two-qutrit assignment probabilities (percent, prepared as columns,
# basis order gg, ge, gf, eg, ee, ef, fg, fe, ff)
TABLE_R_TWO_NODE_PERCENT = np.array(
    [
        [96.8, 3.9, 1.1, 4.9, 0.2, 0.1, 1.2, 0.0, 0.0],
        [0.9, 91.9, 6.0, 0.0, 4.7, 0.3, 0.0, 1.2, 0.1],
        [0.6, 2.5, 91.1, 0.0, 0.1, 4.6, 0.0, 0.0, 1.2],
        [1.0, 0.0, 0.0, 91.9, 3.7, 1.1, 4.7, 0.2, 0.1],
        [0.0, 0.9, 0.1, 0.8, 87.3, 5.7, 0.0, 4.5, 0.3],
        [0.0, 0.0, 0.9, 0.6, 2.4, 86.5, 0.0, 0.1, 4.4],
        [0.8, 0.0, 0.0, 1.6, 0.1, 0.0, 92.5, 3.7, 1.1],
        [0.0, 0.7, 0.0, 0.0, 1.6, 0.1, 0.8, 87.9, 5.8],
        [0.0, 0.0, 0.7, 0.0, 0.0, 1.6, 0.6, 2.4, 87.1],
    ]
)


@dataclass(frozen=True)
class MixtureModel:
    """Three-component Gaussian mixture in the u-v plane with shared covariance."""

    weights: np.ndarray   # (3,)
    means: np.ndarray     # (3, 2)
    cov: np.ndarray       # (2, 2) positive definite

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        mu = np.asarray(self.means, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", mu)
        object.__setattr__(self, "cov", cov)
        if w.shape != (3,) or np.any(w < 0):
            raise ValueError("weights must be three nonnegative numbers")
        if mu.shape != (3, 2):
            raise ValueError("means must be three 2-vectors")
        if cov.shape != (2, 2) or np.abs(cov - cov.T).max() > 1e-12:
            raise ValueError("covariance must be symmetric 2x2")
        if np.linalg.eigvalsh(cov).min() <= 0:
            raise ValueError("covariance must be positive definite")

    def discriminant(self):
        """Affine parts (W, h, log w) of the MAP discriminant: component s
        scores W_s.x - h_s + log w_s, its Gaussian log-density less the term
        -x' Sigma^-1 x / 2 all share, with W = mu Sigma^-1 and h_s = W_s.mu_s / 2.
        """
        w = self.means @ np.linalg.inv(self.cov)
        h = 0.5 * (w * self.means).sum(axis=1)
        return w, h, np.log(np.clip(self.weights, 1e-300, None))

    def draw(self, comp, rng) -> np.ndarray:
        """One (u, v) shot per entry of ``comp``, drawn from that component."""
        chol = np.linalg.cholesky(self.cov)
        return self.means[comp] + rng.standard_normal((len(comp), 2)) @ chol.T


def classify(shots, model: MixtureModel) -> np.ndarray:
    """Maximum-a-posteriori labels (0=g, 1=e, 2=f); ties break toward g<e<f."""
    x = np.atleast_2d(np.asarray(shots, dtype=float))
    w, h, logw = model.discriminant()
    # log w is added last: folding it into h first moves exact ties
    return np.argmax((x @ w.T - h) + logw, axis=1)


def assignment_probabilities(model: MixtureModel) -> np.ndarray:
    """Analytic P(assign s' | drawn from component s) under MAP classification.

    With shared covariance the pairwise discriminant differences are affine
    in the shot, so each probability is a bivariate-normal orthant integral,
    evaluated here with deterministic Gauss-Legendre quadrature.
    """
    w, h, logw = model.discriminant()
    r = np.empty((3, 3))
    for j in range(3):
        # shot assigned j iff a @ x + c >= 0 row-wise: j beats each other i
        others = [i for i in range(3) if i != j]
        a = w[j] - w[others]
        c = (logw[j] - logw[others]) - (h[j] - h[others])
        cov = a @ model.cov @ a.T
        for s in range(3):
            r[j, s] = _orthant_probability(a @ model.means[s] + c, cov)
    return r


# 201-node Gauss-Legendre rule on [-1, 1] for the orthant integrals
_LEGGAUSS = np.polynomial.legendre.leggauss(201)


def _orthant_probability(mean, cov):
    """P(u1 >= 0, u2 >= 0) for (u1, u2) ~ N(mean, cov), deterministic."""
    s1, s2 = np.sqrt(cov[0, 0]), np.sqrt(cov[1, 1])
    rho = np.clip(cov[0, 1] / (s1 * s2), -1 + 1e-12, 1 - 1e-12)
    lo = max(-mean[0] / s1, -9.0)
    if lo > 9.0:
        return 0.0
    z, w = _LEGGAUSS
    z = 0.5 * (z + 1.0) * (9.0 - lo) + lo
    w = 0.5 * (9.0 - lo) * w
    phi = np.exp(-0.5 * z * z) / np.sqrt(2 * np.pi)
    cond = ndtr((mean[1] / s2 + rho * z) / np.sqrt(1.0 - rho * rho))
    return float(np.sum(w * phi * cond))


def assignment_matrix(counts) -> np.ndarray:
    """Empirical assignment matrix from labelled counts.

    ``counts[prepared][assigned]`` are shot counts; returns R with
    R[assigned, prepared], columns summing to one.
    """
    c = np.asarray(counts, dtype=float)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValueError("counts must be square (prepared x assigned)")
    if np.any(c < 0):
        raise ValueError("counts must be nonnegative")
    col_tot = c.sum(axis=1)
    if np.any(col_tot <= 0):
        raise ValueError("every prepared state needs at least one shot")
    return (c / col_tot[:, None]).T


def kron(*matrices) -> np.ndarray:
    """Multi-node matrix of per-node 3x3 matrices, A-major: their Kronecker product."""
    return functools.reduce(np.kron, [np.asarray(m, float) for m in matrices])


@dataclass(frozen=True)
class MitigationResult:
    populations: np.ndarray
    condition_number: float
    error_score: float  # (1/6)||I - R||_1, the mean misassignment probability


def mitigate(measured, r: np.ndarray) -> MitigationResult:
    """Invert readout errors: populations = R^-1 @ measured frequencies.

    ``measured`` is one frequency vector or a matrix of them as columns (one
    per tomography setting, say), mitigated by one solve.  Mitigated
    populations may be slightly unphysical (negative) from statistical
    noise; values outside [-0.02, 1.02] trigger a warning but are returned
    raw, leaving any clipping to the MLE reconstruction stage.  A singular R
    raises numpy.linalg.LinAlgError, a ValueError.
    """
    r = np.asarray(r, dtype=float)
    m = np.asarray(measured, dtype=float)
    if not np.all(np.isfinite(m)):
        raise ValueError("measured frequencies must be finite")
    try:
        pops = np.linalg.solve(r, m)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(f"assignment matrix not invertible: {exc}") from exc
    if np.any(pops < -0.02) or np.any(pops > 1.02):
        warnings.warn(
            "mitigated populations outside [-0.02, 1.02]; statistics beyond tolerance",
            stacklevel=2,
        )
    eye = np.eye(r.shape[0])
    return MitigationResult(
        populations=pops,
        condition_number=float(np.linalg.cond(r)),
        error_score=float(np.abs(eye - r).sum() / (2 * r.shape[0])),
    )


# ---------------------------------------------------------------------------
# calibration of the synthetic default models

@dataclass(frozen=True)
class ReadoutCalibration:
    """A mixture model plus preparation-conditioned cluster weights.

    A shared-covariance MAP classifier has five effective degrees of freedom
    (those ``calibrate_to_targets`` fits), which cannot reproduce all six
    independent misassignment asymmetries of the measured tables; the excess
    asymmetry is physical, coming from transmon decay during the readout
    window, and is carried here by ``prep_weights``: column s holds the
    cluster occupation probabilities when |s> is prepared.  The composed
    pipeline then reproduces the target table exactly in expectation:
    assignment = overlap_matrix @ prep_weights.
    """

    model: MixtureModel
    prep_weights: np.ndarray  # (3, 3), columns per prepared state

    def analytic_assignment(self) -> np.ndarray:
        return assignment_probabilities(self.model) @ self.prep_weights

    def simulate_shots(self, rho_diag, n: int, seed) -> np.ndarray:
        """n (u, v) shots of this node in a state with level populations
        ``rho_diag``: ``joint_shots`` for the one node."""
        return joint_shots([self], rho_diag, n, seed)[0]

    def shots_for_prepared_sequence(self, prepared, rng) -> np.ndarray:
        """One (u, v) shot per entry of a per-repetition prepared-state array,
        from the column-normalized ``prep_weights``.  No protocol calls it; it
        stays only as a target of the benchmark's tracer."""
        prepared = np.asarray(prepared, dtype=int)
        cols = self.prep_weights / self.prep_weights.sum(axis=0, keepdims=True)
        cum = np.cumsum(cols, axis=0)  # (cluster, prepared)
        u = rng.random(len(prepared))
        comp = (u[:, None] > cum.T[prepared]).sum(axis=1)
        return self.model.draw(comp, rng)


def _joint_clusters(cals, p, n: int, seed):
    """The draw that ``joint_shots`` and ``joint_counts`` share: one joint
    cluster per shot from the normalized kron(prep_1, ..., prep_k) @ p, split
    into each node's cluster index, in node order, and the Generator the
    nodes' Gaussian draws continue."""
    k = len(cals)
    p = np.asarray(p, dtype=float)
    if not np.all(np.isfinite(p)):
        raise ValueError("p must be finite")
    # weights are normalized below: 1e-5 admits trace drift and clipped Born probabilities
    if p.shape != (3**k,) or np.any(p < -1e-12) or abs(p.sum() - 1.0) > 1e-5:
        raise ValueError(f"p must be a probability {3**k}-vector")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    w = kron(*[cal.prep_weights for cal in cals]) @ p
    w = np.clip(w / w.sum(), 0, None)
    joint = rng.choice(3**k, size=n, p=w / w.sum())
    levels = np.arange(3**k)
    return [(levels // 3 ** (k - 1 - i) % 3).take(joint) for i in range(k)], rng


def joint_shots(cals, p, n: int, seed) -> list[np.ndarray]:
    """n joint shots of the nodes ``cals``, one (n, 2) array of (u, v) per node.

    ``p`` holds the populations of the 3**k joint levels, A-major in the order
    of ``cals``.  One draw picks a joint cluster per shot from the normalized
    kron(prep_1, ..., prep_k) @ p, so the labels follow the Kronecker product
    of the nodes' ``analytic_assignment()``; each node then draws its Gaussian
    shots, in node order.  ``seed`` is a seed or a numpy Generator.  Where
    only the label counts are needed, ``joint_counts`` gives them from the
    same draws without building the shots.
    """
    comps, rng = _joint_clusters(cals, p, n, seed)
    return [cal.model.draw(comp, rng) for cal, comp in zip(cals, comps)]


def joint_counts(cals, p, n: int, seed) -> np.ndarray:
    """Counts of the 3**k A-major labels of n joint shots of the nodes ``cals``.

    Consumes exactly the draws of ``joint_shots(cals, p, n, seed)`` and gives
    the ``bincount`` of its node-by-node ``classify`` labels, combined
    A-major, but labels each node's shots from their cluster index and
    normal draw without building them (``_labels``).
    """
    comps, rng = _joint_clusters(cals, p, n, seed)
    labels = 0
    for cal, comp in zip(cals, comps):
        labels = 3 * labels + _labels(cal.model, comp, rng.standard_normal((n, 2)))
    return np.bincount(labels, minlength=3 ** len(cals))


def _labels(model: MixtureModel, comp, z) -> np.ndarray:
    """``classify(means[comp] + z @ L.T, model)``, L the Cholesky factor of
    Sigma, without forming the shots.

    The discriminant folds into a gain L.T W.T and an offset table
    mu W.T - h + log w read by component, both as differences to g's score;
    the first maximum of (0, e - g, f - g) wins, the g<e<f tie rule of
    ``argmax``.
    """
    w, h, logw = model.discriminant()
    gain = np.linalg.cholesky(model.cov).T @ w.T
    offset = model.means @ w.T - h
    # log w is added last, as in classify: equal weights then keep exact ties
    offset = (offset[:, 1:] - offset[:, :1]) + (logw[1:] - logw[0])
    d = z @ (gain[:, 1:] - gain[:, :1]) + offset.take(comp, axis=0)
    return np.where(d[:, 1] > np.maximum(d[:, 0], 0), 2, d[:, 0] > 0)


def _table_model(theta) -> MixtureModel:
    """The model of parameters (d, fx, fy, log w_e/w_g, log w_f/w_g): clusters
    at g = (0, 0), e = (d, 0) and f = (fx, fy) with Sigma = I."""
    d, fx, fy, le, lf = theta
    means = np.array([[0.0, 0.0], [d, 0.0], [fx, fy]])
    w = np.exp([0.0, le, lf])
    return MixtureModel(weights=w / w.sum(), means=means, cov=np.eye(2))


def _calibration(theta, r_target) -> ReadoutCalibration:
    """The model of ``theta`` with the cluster weights that make it reproduce
    ``r_target``, solved exactly from overlap_matrix @ prep_weights = r_target;
    raises RuntimeError on a negative weight or a table residual above 1e-6."""
    model = _table_model(theta)
    prep = np.linalg.solve(assignment_probabilities(model), r_target)
    if prep.min() < -1e-6:
        raise RuntimeError(
            f"mixture calibration failed: negative preparation weight {prep.min():.2e}"
        )
    # keep the target's column sums (tables carry rounding at the 0.1% level);
    # joint_shots normalizes the cluster weights per call
    prep = np.clip(prep, 0.0, None)
    cal = ReadoutCalibration(model=model, prep_weights=prep)
    err = np.abs(cal.analytic_assignment() - r_target).max()
    if err > 1e-6:
        raise RuntimeError(f"mixture calibration failed: residual {err:.2e}")
    return cal


def calibrate_to_targets(r_target: np.ndarray, x0) -> ReadoutCalibration:
    """Calibrate the synthetic readout so it reproduces a target assignment table.

    The five parameters of ``_table_model`` (Sigma = I loses nothing: no
    label changes under an affine map of the plane) are least-squares
    fitted from the start ``x0`` so that Gaussian overlap
    accounts for 60% of each off-diagonal entry (the overlap/decay split is
    not identifiable from the table alone); the remainder goes into the
    cluster weights.  This fit produced the shipped ``_TABLE_FITS``.
    """
    # imported here: start-up never fits, it loads the stored parameters
    from scipy import optimize

    r_target = np.asarray(r_target, dtype=float)
    off = [(j, s) for s in range(3) for j in range(3) if j != s]

    def residual(theta):
        probs = assignment_probabilities(_table_model(theta))
        return [probs[j, s] - 0.6 * r_target[j, s] for j, s in off]

    sol = optimize.least_squares(residual, x0, xtol=1e-14, ftol=1e-14, gtol=1e-14)
    return _calibration(sol.x, r_target)


# each node's measured table and the (d, fx, fy, log w_e/w_g, log w_f/w_g)
# that calibrate_to_targets fits to it, stored at full precision
_TABLE_FITS = {
    "A": (TABLE_R_A, (4.3564307283004915, 3.5847723443031487, 4.092667494079147,
                      -1.3144083389912038, -2.1884371777984573)),
    "B": (TABLE_R_B, (4.496405202737812, 3.791579047013598, 3.860036473151258,
                      -1.1957785221757098, -1.944767175660755)),
}


def _table_fit(node: str):
    if node not in _TABLE_FITS:
        raise ValueError("node must be 'A' or 'B'")
    return _TABLE_FITS[node]


@functools.lru_cache()
def default_calibration(node: str) -> ReadoutCalibration:
    """Calibrated readout reproducing the measured assignment table of a node.

    Built from the stored fitted parameters, with no fit at start-up; the
    cluster weights are solved and checked as ``calibrate_to_targets`` does.
    """
    table, theta = _table_fit(node)
    return _calibration(theta, table)


def table_assignment_matrix(node: str) -> np.ndarray:
    """The measured single-qutrit assignment table of node 'A' or 'B'."""
    return _table_fit(node)[0].copy()


def write_shots_csv(path, shots, prepared, assigned):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["u", "v", "prepared", "assigned"])
        for (u, v), p, a in zip(shots, prepared, assigned):
            writer.writerow([f"{u:.9g}", f"{v:.9g}", LABELS[p], LABELS[a]])


def write_assignment_json(path, r: np.ndarray, labels=None):
    labels = labels or LABELS
    payload = {
        "convention": "entries R[assigned][prepared]; columns are prepared states",
        "labels": list(labels),
        "matrix": np.asarray(r, float).tolist(),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
