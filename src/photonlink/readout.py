"""Synthetic single-shot qutrit readout and assignment-error mitigation.

Integrated quadrature pairs (u, v) are modelled as a mixture of three
Gaussians with unit covariance, so maximum-a-posteriori classification is
one affine discriminant per model, cutting the plane into three
straight-edged regions.  Unit covariance loses nothing against a shared
one: an affine map of the plane changes no MAP label.  Assignment matrices
hold P(assigned s' | prepared s) with prepared states as columns, so
measured frequencies obey M = R @ rho_diag and mitigation is
rho_diag = R^-1 @ M.  The shipped default models are data: five parameters
per node, fitted once to the measured single-qutrit assignment tables by
``calibrate_to_targets`` and stored, so loading them runs no fit and
imports no optimizer; the module needs only numpy and the standard library.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import InitVar, dataclass

import numpy as np

from .qops import kron

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
TABLE_R_A.flags.writeable = False
TABLE_R_B.flags.writeable = False


@dataclass(frozen=True, eq=False)
class MixtureModel:
    """Three-component Gaussian mixture in the u-v plane with unit
    covariance, holding read-only copies of its weights and means."""

    weights: np.ndarray   # (3,)
    means: np.ndarray     # (3, 2)

    def __post_init__(self):
        w = np.array(self.weights, dtype=float)
        mu = np.array(self.means, dtype=float)
        for name, value in (("weights", w), ("means", mu)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)
        if w.shape != (3,) or not np.all(np.isfinite(w)) or np.any(w < 0):
            raise ValueError("weights must be three finite nonnegative numbers")
        if mu.shape != (3, 2) or not np.all(np.isfinite(mu)):
            raise ValueError("means must be three finite 2-vectors")

    def discriminant(self):
        """Affine parts (W, h, log w) of the MAP discriminant: component s
        scores W_s.x - h_s + log w_s, its Gaussian log-density less the term
        -|x|^2 / 2 all share, with W = mu and h_s = |mu_s|^2 / 2.
        """
        h = 0.5 * (self.means * self.means).sum(axis=1)
        return self.means, h, np.log(np.clip(self.weights, 1e-300, None))

    def draw(self, comp, rng) -> np.ndarray:
        """One (u, v) shot per entry of ``comp``, drawn from that component."""
        return self.means[comp] + rng.standard_normal((len(comp), 2))


def _differences(model: MixtureModel):
    """Gain (2, 2) and bias (2,) of the e - g and f - g score differences:
    x @ gain + bias.  log w is added last: folding it in earlier moves exact
    ties."""
    w, h, logw = model.discriminant()
    # C order: x @ gain runs about 3x faster than on the transposed view
    return (w[1:] - w[0]).T.copy(), (h[0] - h[1:]) + (logw[1:] - logw[0])


def _decide(d, scratch=None) -> np.ndarray:
    """MAP labels (0=g, 1=e, 2=f, as uint8) from the (n, 2) score differences
    to g: the first maximum of (0, d_e, d_f), so ties break toward g<e<f.
    In bits, f = d_f > max(d_e, 0), e = d_e > 0 and the label is
    2f | (e & ~f).  ``scratch``, an (n,) float array or None, receives
    max(d_e, 0)."""
    d_e, d_f = d.T
    f = d_f > np.maximum(d_e, 0, out=scratch)
    e = d_e > 0
    return (f.view(np.uint8) << 1) | (e & ~f)


def classify(shots, model: MixtureModel) -> np.ndarray:
    """Maximum-a-posteriori labels (0=g, 1=e, 2=f); ties break toward g<e<f."""
    x = np.atleast_2d(np.asarray(shots, dtype=float))
    gain, bias = _differences(model)
    return _decide(x @ gain + bias).astype(np.intp)


def assignment_probabilities(model: MixtureModel) -> np.ndarray:
    """Analytic P(assign s' | drawn from component s) under MAP classification.

    With unit covariance the pairwise discriminant differences are affine
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
        cov = a @ a.T
        for s in range(3):
            r[j, s] = _orthant_probability(a @ model.means[s] + c, cov)
    return r


@functools.cache
def _leggauss():
    """The 201-node Gauss-Legendre rule on [-1, 1] for the orthant
    integrals, built by the first one and shared read-only: a run with exact
    readout builds none."""
    rule = np.polynomial.legendre.leggauss(201)
    for part in rule:
        part.flags.writeable = False
    return rule


def _orthant_probability(mean, cov):
    """P(u1 >= 0, u2 >= 0) for (u1, u2) ~ N(mean, cov), deterministic."""
    s1, s2 = np.sqrt(cov[0, 0]), np.sqrt(cov[1, 1])
    rho = np.clip(cov[0, 1] / (s1 * s2), -1 + 1e-12, 1 - 1e-12)
    lo = max(-mean[0] / s1, -9.0)
    if lo > 9.0:
        return 0.0
    z, w = _leggauss()
    z = 0.5 * (z + 1.0) * (9.0 - lo) + lo
    w = 0.5 * (9.0 - lo) * w
    phi = np.exp(-0.5 * z * z) / np.sqrt(2 * np.pi)
    x = (mean[1] / s2 + rho * z) / np.sqrt(1.0 - rho * rho)
    cond = [0.5 * math.erfc(-v / math.sqrt(2.0)) for v in x.tolist()]  # Phi(x)
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


@dataclass(frozen=True, eq=False)
class MitigationResult:
    populations: np.ndarray
    condition_number: float
    # sum |I - R| / (2 d) over the entries of a d x d R (1/6 for one node, 1/18
    # for two): the mean misassignment probability
    error_score: float


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

@dataclass(frozen=True, eq=False)
class ReadoutCalibration:
    """A mixture model plus preparation-conditioned cluster weights.

    A unit-covariance MAP classifier has five effective degrees of freedom
    (those ``calibrate_to_targets`` fits), which cannot reproduce all six
    independent misassignment asymmetries of the measured tables; the excess
    asymmetry is physical, coming from transmon decay during the readout
    window, and is carried here by ``prep_weights``: column s holds the
    cluster occupation probabilities when |s> is prepared.  The composed
    pipeline then reproduces the target table exactly in expectation:
    assignment = overlap_matrix @ prep_weights, computed once, when the
    calibration is made, from ``overlap``, the model's
    ``assignment_probabilities`` (computed here when not given).  The label
    tables of ``count_table`` are built then too: the (2, 2) gain of the
    model's score differences to g and their (3, 2) value at each cluster
    mean, so a shot z away from the mean of cluster c scores
    z @ gain + offset[c].  The calibration holds a read-only copy of
    ``prep_weights``.
    """

    model: MixtureModel
    prep_weights: np.ndarray  # (3, 3), columns per prepared state
    overlap: InitVar[np.ndarray | None] = None

    def __post_init__(self, overlap):
        if overlap is None:
            overlap = assignment_probabilities(self.model)
        gain, bias = _differences(self.model)
        prep = np.array(self.prep_weights, dtype=float)
        tables = {
            "prep_weights": prep,
            "_assignment": overlap @ prep,
            "_label_gain": gain,
            "_label_offset": self.model.means @ gain + bias,
        }
        for name, table in tables.items():
            table.flags.writeable = False
            object.__setattr__(self, name, table)

    def analytic_assignment(self) -> np.ndarray:
        """The assignment matrix overlap_matrix @ prep_weights, read-only."""
        return self._assignment

    def simulate_shots(self, rho_diag, n: int, seed) -> np.ndarray:
        """n (u, v) shots of this node in a state with level populations
        ``rho_diag``: each shot's cluster is an inverse-CDF draw on
        ``Generator.random(n)`` from the normalized prep_weights @ rho_diag,
        so the labels follow ``analytic_assignment()``, and the model then
        draws the shot.  ``seed`` is a seed or a numpy Generator."""
        cdf = _cluster_cdf(self.prep_weights, rho_diag)
        rng = np.random.default_rng(seed)  # a Generator is returned unchanged
        clusters = _joint_clusters(cdf, rng.random(n), np.empty(n, _cluster_dtype(1)))
        return self.model.draw(clusters, rng)

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


def _cluster_cdf(prep, p) -> np.ndarray:
    """The CDF that ``simulate_shots`` and ``count_table`` draw a joint
    cluster from: the normalized cluster weights prep @ p, with ``prep`` the
    kron(prep_1, ..., prep_k) of the nodes' preparation weights and ``p``
    the populations of the 3**k joint levels.  Raises ValueError on a ``p``
    that is not finite or not a probability vector, and on weights that are
    not finite or sum to 0."""
    p = np.asarray(p, dtype=float)
    if not np.all(np.isfinite(p)):
        raise ValueError("p must be finite")
    # weights are normalized below: 1e-5 admits trace drift and clipped Born probabilities
    if p.shape != (len(prep),) or np.any(p < -1e-12) or abs(p.sum() - 1.0) > 1e-5:
        raise ValueError(f"p must be a probability {len(prep)}-vector")
    w = prep @ p
    w = np.clip(w / w.sum(), 0, None)
    cdf = (w / w.sum()).cumsum()
    cdf /= cdf[-1]
    # NaN where the weights are not finite or sum to 0
    if not np.isfinite(cdf[-1]):
        raise ValueError("cluster weights must be finite with a positive sum")
    return cdf


def _joint_clusters(cdf, u, out) -> np.ndarray:
    """The joint cluster of each uniform in ``u``, written into ``out``: the
    number of edges of ``cdf`` at or below it.

    That is what ``Generator.choice(len(cdf), size=n, p=w)`` computes from
    n uniforms (cumsum, divided by its last entry, then
    ``searchsorted(side="right")``), so the indices, and the Generator's
    state after ``Generator.random(n)``, are those of ``choice``.  ``out``'s
    dtype, ``_cluster_dtype``, is unsigned and holds len(cdf) - 1.
    """
    out.fill(0)
    # the last edge, 1, lies above every uniform
    for edge in cdf[:-1]:
        out += u >= edge
    return out


def _cluster_dtype(k: int):
    """The smallest unsigned dtype that holds a joint cluster of k nodes."""
    return np.min_scalar_type(3**k - 1)


def count_table(cals, probabilities, shots: int, seed) -> np.ndarray:
    """Counts of the 3**k A-major labels of ``shots`` joint shots of the
    nodes ``cals`` for each row of ``probabilities``: an (R, 3**k) array for
    R rows of joint level populations, a whole gate set at once.

    The rows are drawn in order on one Generator (``seed`` is a seed or a
    numpy Generator), each with the inverse-CDF cluster draw on
    ``Generator.random`` from the normalized kron(prep_1, ..., prep_k) @ row
    (the labels follow the Kronecker product of the nodes'
    ``analytic_assignment()``), then each node's normal draw z, in node
    order: for one node, the draws of ``simulate_shots(row, shots, rng)``.
    A row's counts are the ``bincount`` of the node-by-node ``classify``
    labels of those shots, combined A-major, but the shots are never built:
    ``classify`` scores (means[c] + z) @ gain + bias, read here as
    z @ gain plus the offset table row of cluster c, both tables built once
    per calibration.  Every row is checked before the first draw.  The
    draws go into two float buffers made once per table, the normal draws'
    and the scores': the uniforms, and then max(d_e, 0) for ``_decide``,
    take the first half of the normal draws' buffer, which holds nothing
    live while they do, and the offsets take all of it once z @ gain is
    formed.
    """
    k = len(cals)
    prep = kron(*[cal.prep_weights for cal in cals])
    cdfs = [_cluster_cdf(prep, p) for p in np.asarray(probabilities, dtype=float)]
    rng = np.random.default_rng(seed)
    # each node's offset rows at the 3**k A-major joint clusters, whose
    # digit i is node i's cluster
    digits = [np.arange(3**k) // 3 ** (k - 1 - i) % 3 for i in range(k)]
    offsets = [cal._label_offset[node] for cal, node in zip(cals, digits)]
    z, d = np.empty((shots, 2)), np.empty((shots, 2))
    u = z.reshape(-1)[:shots]
    joint = np.empty(shots, _cluster_dtype(k))
    labels = np.empty_like(joint)
    counts = np.empty((len(cdfs), 3**k), dtype=np.intp)
    for row, cdf in zip(counts, cdfs):
        _joint_clusters(cdf, rng.random(out=u), joint)
        labels.fill(0)
        for cal, offset in zip(cals, offsets):
            np.matmul(rng.standard_normal(out=z), cal._label_gain, out=d)
            # every index is a cluster: "clip" takes into z unbuffered
            d += offset.take(joint, axis=0, out=z, mode="clip")
            labels *= 3
            labels += _decide(d, scratch=u)
        row[:] = np.bincount(labels, minlength=3**k)
    return counts


def _table_model(theta) -> MixtureModel:
    """The model of parameters (d, fx, fy, log w_e/w_g, log w_f/w_g): clusters
    at g = (0, 0), e = (d, 0) and f = (fx, fy)."""
    d, fx, fy, le, lf = theta
    means = np.array([[0.0, 0.0], [d, 0.0], [fx, fy]])
    w = np.exp([0.0, le, lf])
    return MixtureModel(weights=w / w.sum(), means=means)


def _calibration(theta, r_target) -> ReadoutCalibration:
    """The model of ``theta`` with the cluster weights that make it reproduce
    ``r_target``, solved exactly from overlap_matrix @ prep_weights = r_target;
    raises RuntimeError on a negative weight or a table residual above 1e-6."""
    model = _table_model(theta)
    overlap = assignment_probabilities(model)
    prep = np.linalg.solve(overlap, r_target)
    if prep.min() < -1e-6:
        raise RuntimeError(
            f"mixture calibration failed: negative preparation weight {prep.min():.2e}"
        )
    # keep the target's column sums (tables carry rounding at the 0.1% level);
    # the samplers normalize the cluster weights per call
    prep = np.clip(prep, 0.0, None)
    cal = ReadoutCalibration(model=model, prep_weights=prep, overlap=overlap)
    err = np.abs(cal.analytic_assignment() - r_target).max()
    if err > 1e-6:
        raise RuntimeError(f"mixture calibration failed: residual {err:.2e}")
    return cal


def calibrate_to_targets(r_target: np.ndarray, x0) -> ReadoutCalibration:
    """Calibrate the synthetic readout so it reproduces a target assignment table.

    The five parameters of ``_table_model`` (unit covariance loses nothing:
    no label changes under an affine map of the plane) are least-squares
    fitted from the start ``x0`` so that Gaussian overlap
    accounts for 60% of each off-diagonal entry (the overlap/decay split is
    not identifiable from the table alone); the remainder goes into the
    cluster weights.  This fit produced the shipped ``_TABLE_FITS``.  It
    needs scipy, which no run imports and the ``test`` extra installs.
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
