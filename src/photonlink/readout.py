"""Synthetic single-shot qutrit readout and assignment-error mitigation.

Integrated quadrature pairs (u, v) are modelled as a mixture of three
Gaussians with shared covariance; maximum-a-posteriori classification then
cuts the plane into three straight-edged regions.  Assignment matrices hold
P(assigned s' | prepared s) with prepared states as columns, so measured
frequencies obey M = R @ rho_diag and mitigation is rho_diag = R^-1 @ M.
The shipped default models are calibrated so that their analytic
misassignment probabilities reproduce the measured single-qutrit assignment
tables.
"""

from __future__ import annotations

import csv
import functools
import json
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import optimize
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

    def discriminants(self, shots: np.ndarray) -> np.ndarray:
        """log w_s - (x-mu_s)' Sigma^-1 (x-mu_s)/2 for each component."""
        x = np.atleast_2d(np.asarray(shots, dtype=float))
        inv = np.linalg.inv(self.cov)
        out = np.empty((x.shape[0], 3))
        logw = np.log(np.clip(self.weights, 1e-300, None))
        for s in range(3):
            d = x - self.means[s]
            out[:, s] = logw[s] - 0.5 * np.einsum("ni,ij,nj->n", d, inv, d)
        return out


def sample_shots(rho_diag, model: MixtureModel, n: int, seed) -> np.ndarray:
    """Draw n (u, v) shots with component probabilities given by rho_diag."""
    p = np.asarray(rho_diag, dtype=float)
    if p.shape != (3,) or np.any(p < -1e-12) or abs(p.sum() - 1.0) > 1e-9:
        raise ValueError("rho_diag must be a probability 3-vector")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    comp = rng.choice(3, size=n, p=np.clip(p, 0, None) / np.clip(p, 0, None).sum())
    chol = np.linalg.cholesky(model.cov)
    return model.means[comp] + rng.standard_normal((n, 2)) @ chol.T


def classify(shots, model: MixtureModel) -> np.ndarray:
    """Maximum-a-posteriori labels (0=g, 1=e, 2=f); ties break toward g<e<f."""
    disc = model.discriminants(shots)
    return np.argmax(disc, axis=1)


def assignment_probabilities(model: MixtureModel) -> np.ndarray:
    """Analytic P(assign s' | drawn from component s) under MAP classification.

    With shared covariance the pairwise discriminant differences are affine
    in the shot, so each probability is a bivariate-normal orthant integral,
    evaluated here with deterministic Gauss-Legendre quadrature.
    """
    inv = np.linalg.inv(model.cov)
    logw = np.log(np.clip(model.weights, 1e-300, None))
    r = np.empty((3, 3))
    for s in range(3):
        for j in range(3):
            others = [i for i in range(3) if i != j]
            a = np.empty((2, 2))
            b = np.empty(2)
            for row, i in enumerate(others):
                a[row] = inv @ (model.means[j] - model.means[i])
                b[row] = (logw[j] - logw[i]) - 0.5 * (
                    model.means[j] @ inv @ model.means[j]
                    - model.means[i] @ inv @ model.means[i]
                )
            mean = a @ model.means[s] + b
            cov = a @ model.cov @ a.T
            r[j, s] = _orthant_probability(mean, cov)
    return r


def _orthant_probability(mean, cov, nodes=201):
    """P(u1 >= 0, u2 >= 0) for (u1, u2) ~ N(mean, cov), deterministic."""
    s1, s2 = np.sqrt(cov[0, 0]), np.sqrt(cov[1, 1])
    rho = np.clip(cov[0, 1] / (s1 * s2), -1 + 1e-12, 1 - 1e-12)
    lo = max(-mean[0] / s1, -9.0)
    if lo > 9.0:
        return 0.0
    z, w = np.polynomial.legendre.leggauss(nodes)
    z = 0.5 * (z + 1.0) * (9.0 - lo) + lo
    w = 0.5 * (9.0 - lo) * w
    phi = np.exp(-0.5 * z * z) / np.sqrt(2 * np.pi)
    cond = ndtr((mean[1] / s2 + rho * z) / np.sqrt(1.0 - rho * rho))
    return float(np.sum(w * phi * cond))


def fit_mixture(shots_by_state) -> MixtureModel:
    """Labelled maximum-likelihood fit: per-component means, pooled covariance.

    ``shots_by_state`` is a sequence of three (n_s, 2) arrays of shots taken
    with the qutrit prepared in g, e, f.  Requires at least 3 shots per
    state; raises on a degenerate (singular) pooled covariance.
    """
    if len(shots_by_state) != 3:
        raise ValueError("need shots for the three prepared states")
    groups = [np.atleast_2d(np.asarray(s, dtype=float)) for s in shots_by_state]
    if any(g.shape[0] < 3 for g in groups):
        raise ValueError("need at least 3 shots per prepared state")
    total = sum(g.shape[0] for g in groups)
    means = np.stack([g.mean(axis=0) for g in groups])
    cov = np.zeros((2, 2))
    for g, mu in zip(groups, means):
        d = g - mu
        cov += d.T @ d
    cov /= total
    if np.linalg.eigvalsh(cov).min() < 1e-12:
        raise ValueError("degenerate covariance: shots do not span the plane")
    weights = np.array([g.shape[0] / total for g in groups])
    return MixtureModel(weights=weights, means=means, cov=cov)


def log_likelihood(model: MixtureModel, shots, labels=None) -> float:
    """Log-likelihood of shots under the model.

    Without labels, the mixture density is used; with per-shot preparation
    labels, the labelled likelihood (the one fit_mixture maximizes).
    """
    x = np.atleast_2d(np.asarray(shots, dtype=float))
    inv = np.linalg.inv(model.cov)
    norm = 1.0 / (2 * np.pi * np.sqrt(np.linalg.det(model.cov)))
    if labels is None:
        dens = np.zeros(x.shape[0])
        for s in range(3):
            d = x - model.means[s]
            dens += model.weights[s] * norm * np.exp(
                -0.5 * np.einsum("ni,ij,nj->n", d, inv, d)
            )
        return float(np.log(np.clip(dens, 1e-300, None)).sum())
    labels = np.asarray(labels, dtype=int)
    d = x - model.means[labels]
    quad = np.einsum("ni,ij,nj->n", d, inv, d)
    logw = np.log(np.clip(model.weights, 1e-300, None))
    return float(np.sum(logw[labels] + np.log(norm) - 0.5 * quad))


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


def two_node(r_a: np.ndarray, r_b: np.ndarray) -> np.ndarray:
    """9x9 two-node assignment matrix as the tensor product of the nodes'."""
    return np.kron(np.asarray(r_a, float), np.asarray(r_b, float))


@dataclass(frozen=True)
class MitigationResult:
    populations: np.ndarray
    condition_number: float
    error_score: float  # (1/6)||I - R||_1, the mean misassignment probability


def mitigate(measured, r: np.ndarray) -> MitigationResult:
    """Invert readout errors: populations = R^-1 @ measured frequencies.

    Mitigated populations may be slightly unphysical (negative) from
    statistical noise; values outside [-0.02, 1.02] trigger a warning but
    are returned raw, leaving any clipping to the MLE reconstruction stage.
    """
    r = np.asarray(r, dtype=float)
    m = np.asarray(measured, dtype=float)
    try:
        pops = np.linalg.solve(r, m)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"assignment matrix not invertible: {exc}") from exc
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
    (triangle shape plus two weight logits), which cannot reproduce all six
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

    def cluster_weights(self, rho_diag) -> np.ndarray:
        """Effective cluster occupation for a state with diagonal rho_diag."""
        w = self.prep_weights @ np.asarray(rho_diag, dtype=float)
        return w / w.sum()

    def simulate_shots(self, rho_diag, n: int, seed) -> np.ndarray:
        return sample_shots(self.cluster_weights(rho_diag), self.model, n, seed)

    def shots_for_prepared_sequence(self, prepared, rng) -> np.ndarray:
        """One (u, v) shot per entry of a per-repetition prepared-state array.

        Keeps shot-by-shot correlations intact for joint multi-node counts.
        """
        prepared = np.asarray(prepared, dtype=int)
        cols = self.prep_weights / self.prep_weights.sum(axis=0, keepdims=True)
        cum = np.cumsum(cols, axis=0)  # (cluster, prepared)
        u = rng.random(len(prepared))
        comp = (u[:, None] > cum.T[prepared]).sum(axis=1)
        chol = np.linalg.cholesky(self.model.cov)
        return self.model.means[comp] + rng.standard_normal((len(prepared), 2)) @ chol.T


def calibrate_to_targets(r_target: np.ndarray, x0=None, overlap_fraction=0.6) -> ReadoutCalibration:
    """Calibrate the synthetic readout so it reproduces a target assignment table.

    The cluster geometry and classifier weights are least-squares fitted so
    that Gaussian overlap accounts for ``overlap_fraction`` of each
    off-diagonal entry (the overlap/decay split is not identifiable from the
    table alone); the remainder goes into the preparation-conditioned cluster
    weights, solved exactly from overlap_matrix @ prep_weights = r_target.
    """
    r_target = np.asarray(r_target, dtype=float)
    off = [(j, s) for s in range(3) for j in range(3) if j != s]

    def build(theta):
        d, fx, fy, log_sy, le, lf = theta
        means = np.array([[0.0, 0.0], [d, 0.0], [fx, fy]])
        cov = np.diag([1.0, np.exp(2 * log_sy)])
        w = np.exp([0.0, le, lf])
        return MixtureModel(weights=w / w.sum(), means=means, cov=cov)

    def residual(theta):
        probs = assignment_probabilities(build(theta))
        return [probs[j, s] - overlap_fraction * r_target[j, s] for j, s in off]

    if x0 is None:
        x0 = [3.8, 2.9, 3.6, 0.0, -1.0, -2.0]
    sol = optimize.least_squares(residual, x0, xtol=1e-14, ftol=1e-14, gtol=1e-14)
    model = build(sol.x)
    overlap = assignment_probabilities(model)
    prep = np.linalg.solve(overlap, r_target)
    if prep.min() < -1e-6:
        raise RuntimeError(
            f"mixture calibration failed: negative preparation weight {prep.min():.2e}"
        )
    # keep the target's column sums (tables carry rounding at the 0.1% level);
    # sampling normalizes per call
    prep = np.clip(prep, 0.0, None)
    cal = ReadoutCalibration(model=model, prep_weights=prep)
    err = np.abs(cal.analytic_assignment() - r_target).max()
    if err > 1e-6:
        raise RuntimeError(f"mixture calibration failed: residual {err:.2e}")
    return cal


# converged geometry parameters, stored to make reloading fast
_CALIBRATED_X0 = {
    "A": [4.35643073, 3.58477234, 4.52479697, 0.10037575, -1.31440833, -2.18843717],
    "B": [4.4964052, 3.79157905, 5.20704027, 0.29933498, -1.19577853, -1.94476718],
}


@functools.lru_cache()
def default_calibration(node: str) -> ReadoutCalibration:
    """Calibrated readout reproducing the measured assignment table of a node."""
    if node not in ("A", "B"):
        raise ValueError("node must be 'A' or 'B'")
    return calibrate_to_targets(
        TABLE_R_A if node == "A" else TABLE_R_B, x0=_CALIBRATED_X0[node]
    )


def table_assignment_matrix(node: str) -> np.ndarray:
    return (TABLE_R_A if node == "A" else TABLE_R_B).copy()


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
