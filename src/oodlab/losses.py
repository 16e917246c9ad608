"""Training objectives with hand-derived analytic gradients.

Everything here operates on one scene of n points with c inlier classes.
The head's logits are one (n, c+1) array, c inlier columns yhat and then
the outlier logit ohat (``HeadOutput``), and every loss gradient is one
array of the same layout (``LossResult.grad``). The (c+1)-way softmax over
a row yields inlier probabilities p^y and the outlier probability p^o. One
logsumexp pass over the inlier logits gives every quantity the losses
share:

    alpha_i = -log sum_j exp(yhat_ij)       (the point-wise penalty)
    s_ij    = exp(yhat_ij + alpha_i)        (the inlier softmax)
    p^o_i   = sigmoid(ohat_i + alpha_i),    p^y_ij = s_ij (1 - p^o_i)

The abstain term is the gambler's loss (Liu et al., Deep Gamblers, 2019)
with the point-wise payoff o = max(1, alpha^2): abstaining earns p^o / o
in place of a class probability, so the lower a point's energy, the dearer
abstaining is, and the reward never exceeds 1, the top of the gambler's
range (the bare 1/alpha^2 grows without bound as alpha -> 0).
The penalty losses push alpha below m_in for inliers and above the outlier
margins for (resized / asset-synthesized) outliers via hinges (Liu et al.,
Energy-based OOD Detection, 2020), whose margins follow the class count
(``margins``). Gradients are exact analytic derivatives with respect to
the inlier logits, the outlier logit and, for the dynamic penalty, the
three margin weights beta; they flow through both the softmax and alpha.
Hinge and payoff subgradients at a kink are 0.

``total_loss`` is the one home of the trainer's loss modes (``LOSS_MODES``):
the abstain term, weighted by ``LossConfig.weight_abstain``, plus the
static or the dynamic penalty at weight 1, or the calibration-CE baseline
(``cce_loss``) with its calibration term at weight 1 or 0. The abstain
family has one straight-line path, ``_objective``: weight_abstain * abstain
plus weight_penalty * (hinges on the thresholds beta * margins + a prior on
beta). The static penalty is the dynamic one at beta = 1, where the prior is
0, with one outlier margin: (m_in, m_out, m_out) for (m_in, m_rout, m_sout).
A weight scales its term and never skips it, so the public losses of the
family differ only in the weights and beta they pass.

The trainer steps on one scene at a time, so the values here are plain
means over one scene's points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import LabelSpace, RngStream

_TINY = np.finfo(np.float64).tiny


@dataclass
class HeadOutput:
    """The head's per-point logits (n, c+1): c inlier columns yhat, then the
    outlier logit ohat."""

    logits: np.ndarray

    def __post_init__(self):
        self.logits = np.asarray(self.logits, dtype=np.float64)
        if self.logits.ndim != 2:
            raise ValueError("logits must be (n, c+1)")
        n, width = self.logits.shape
        if n < 1 or width < 2:
            raise ValueError("need n >= 1 points and c >= 1 classes")
        if not np.all(np.isfinite(self.logits)):
            raise ValueError("logits must be finite")

    @property
    def inlier_logits(self) -> np.ndarray:
        return self.logits[:, :-1]

    @property
    def outlier_logit(self) -> np.ndarray:
        return self.logits[:, -1]

    @property
    def num_points(self) -> int:
        return self.logits.shape[0]

    @property
    def num_classes(self) -> int:
        return self.logits.shape[1] - 1


@dataclass
class HeadStats:
    """The per-point quantities every loss term shares (module docstring):
    alpha (n,), the inlier softmax s (n, c), p^o (n,) and q = 1 - p^o,
    which is computed directly so that it keeps its precision as p^o -> 1.
    ``p_inlier`` (n, c) and ``p_o`` are the (c+1)-way softmax's columns."""

    alpha: np.ndarray
    s: np.ndarray
    p_o: np.ndarray
    q: np.ndarray

    @cached_property
    def p_inlier(self) -> np.ndarray:
        return self.s * self.q[:, None]


def _row_reduce(ufunc, a: np.ndarray) -> np.ndarray:
    """``ufunc`` folded over the columns of ``a``, left to right.

    The heads here have a handful of columns, where numpy's axis-1
    reduction is over ten times slower than this loop over columns; below 8
    columns the sum is also bit-identical to ``a.sum(axis=1)``.
    """
    out = a[:, 0].copy()
    for j in range(1, a.shape[1]):
        ufunc(out, a[:, j], out=out)
    return out


def _logsumexp_parts(y: np.ndarray):
    """Row maxima m of y, exp(y - m) and its row sums."""
    m = _row_reduce(np.maximum, y)
    e = np.exp(y - m[:, None])
    return m, e, _row_reduce(np.add, e)


def softmax_head(head: HeadOutput) -> HeadStats:
    """Row-wise softmax over [yhat, ohat], from one max-shifted logsumexp
    pass over the inlier logits: ``p_inlier`` and ``p_o`` hold its c inlier
    columns and its outlier column."""
    m, e, total = _logsumexp_parts(head.inlier_logits)
    alpha = -(m + np.log(total))
    x = head.outlier_logit + alpha
    t = np.exp(-np.abs(x))
    big = 1.0 / (1.0 + t)
    small = t * big
    pos = x >= 0.0
    return HeadStats(
        alpha=alpha,
        s=e / total[:, None],
        p_o=np.where(pos, big, small),
        q=np.where(pos, small, big),
    )


# (m_in, m_out, m_rout, m_sout) of the reference recipe
REFERENCE_MARGINS = (-12.0, -6.0, -6.0, -7.0)

# lambda, the strength of the dynamic penalty's quadratic prior on beta
BETA_PRIOR = 1.0


# the trainer's loss modes: abstain plus the static or the dynamic penalty,
# and cross entropy with or without the calibration term
LOSS_MODES = ("abstain+static", "abstain+dynamic", "ce+cce", "ce")


def margins(num_classes: int) -> tuple[float, float, float, float]:
    """(m_in, m_out, m_rout, m_sout) for c = ``num_classes``: the static
    margins (m_in, m_out) and the dynamic ones for resized (m_rout) and
    asset (m_sout) outliers.

    Each is the reference margin scaled by sqrt(c / (12 * 7)), which puts c
    at the geometric mean of m_in^2 and m_sout^2: the squares keep the
    reference's ratios and straddle c by the same factor 12/7 on both
    sides, for every c.

    Why they must straddle c: with s the inlier softmax and the payoff
    o = max(1, alpha^2), descent raises the outlier logit on an inlier of
    class y only where s_y < 1/o, and on an outlier (which pays
    -sum_j log(p^y_j + p^o / o)) where sum_j 1/s_j > c * o. Since
    sum_j 1/s_j >= c^2, abstaining pays on every outlier with alpha^2 <= c
    and on an inlier only where it is misclassified. The margins therefore
    work as intended only if m_in^2 > c and every outlier margin squared
    is below c. The reference margins -12 / -6 / -6 / -7 suit c between
    49 and 144; at c = 3 every outlier margin's payoff is 12 to 16 times
    c, abstaining never pays on a flat s, and the outlier head stays dead.
    """
    scale = math.sqrt(num_classes / (REFERENCE_MARGINS[0] * REFERENCE_MARGINS[3]))
    return tuple(scale * m for m in REFERENCE_MARGINS)


@dataclass
class LossConfig:
    """The two loss settings whose callers need different values.

    ``weight_abstain`` scales the abstain term against the penalty, whose
    weight is 1, as are the dynamic penalty's and the calibration term's
    (the source recipe leaves them unstated). ``clamp_beta`` keeps the
    margin weights beta at or above 0 during training. The margins follow
    the class count (``margins``).
    """

    weight_abstain: float = 1.0
    clamp_beta: bool = False

    def __post_init__(self):
        if not self.weight_abstain >= 0:
            raise ValueError("weight_abstain must be >= 0")


@dataclass
class LossResult:
    """A loss value, its (n, c+1) gradient wrt ``HeadOutput.logits`` and,
    for the dynamic penalty, its gradient wrt beta."""

    value: float
    grad: np.ndarray
    grad_beta: np.ndarray | None = None


def compute_alpha(inlier_logits: np.ndarray) -> np.ndarray:
    """alpha_i = -logsumexp of the i-th row of the inlier logits."""
    m, _, total = _logsumexp_parts(np.asarray(inlier_logits, dtype=np.float64))
    return -(m + np.log(total))


def _check_labels(labels, space: LabelSpace, n: int) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (n,):
        raise ValueError("labels length must match logit rows")
    space.validate(labels)
    return labels


def _abstain_payoff(alpha):
    """The payoff o = max(1, alpha^2) and d(1/o)/d(alpha).

    The floor keeps the reward 1/o at most 1, the top of the gambler's
    range, where the bare 1/alpha^2 grows without bound as alpha -> 0.
    """
    square = alpha * alpha
    payoff = np.maximum(square, 1.0)
    above = square > 1.0
    d_reward = np.where(above, -2.0 / (np.where(above, alpha, 1.0) * payoff), 0.0)
    return payoff, d_reward


def _abstain(st: HeadStats, labels):
    """Per-point abstain values and their (n, c+1) gradient, unscaled."""
    n, c = st.s.shape
    payoff, d_reward = _abstain_payoff(st.alpha)
    reward = 1.0 / payoff
    s, p_o, q = st.s, st.p_o, st.q
    p = st.p_inlier
    abstain = p_o * reward
    # d(abstain)/d(yhat_j) = -k s_j and d(abstain)/d(ohat) = reward p^o q
    k = p_o * (reward * q + d_reward)

    # the inlier branch on every row; the outlier rows are redone below
    rows = np.arange(n)
    cols = np.minimum(labels, c) - 1
    p_true = p[rows, cols]
    t = p_true + abstain
    t_safe = np.maximum(t, _TINY)
    values = -np.log(t_safe)
    w = np.where(t > _TINY, 1.0 / t_safe, 0.0)
    grad = np.empty((n, c + 1))
    np.multiply(s, (w * (q * p_true + k))[:, None], out=grad[:, :c])
    grad[rows, cols] -= w * p_true
    grad[:, c] = -w * p_o * (reward * q - p_true)

    out = np.flatnonzero(labels > c)
    p_out = p[out]
    t = p_out + abstain[out, None]
    t_safe = np.maximum(t, _TINY)
    values[out] = -np.log(t_safe).sum(axis=1)
    w = np.where(t > _TINY, 1.0 / t_safe, 0.0)
    s1 = w.sum(axis=1)
    s2 = (w * p_out).sum(axis=1)
    grad[out, :c] = s[out] * (q[out] * s2 + s1 * k[out])[:, None] - w * p_out
    grad[out, c] = p_o[out] * (s2 - reward[out] * q[out] * s1)
    return values, grad


def _penalty(st: HeadStats, labels, space: LabelSpace, thresholds):
    """Hinges of alpha against the per-type ``thresholds`` (t_in, t_rout,
    t_sout): inliers pay alpha - t_in above t_in, resized and asset outliers
    t_k - alpha below t_k. Returns the per-point values and (n, c) gradient
    wrt the inlier logits, unscaled, and per type the point count and the
    count of active hinges.
    """
    inlier = labels <= space.num_classes
    types = np.where(inlier, 0, np.where(labels == space.resized_outlier, 1, 2))
    sign = np.where(inlier, 1.0, -1.0)
    excess = sign * (st.alpha - thresholds[types])
    active = excess > 0.0
    values = np.where(active, excess, 0.0)
    # d(alpha)/d(yhat_j) = -s_j
    grad = -(sign * active)[:, None] * st.s
    return (values, grad, np.bincount(types, minlength=3),
            np.bincount(types[active], minlength=3))


def _objective(head: HeadOutput, labels, space: LabelSpace, weight_abstain: float,
               weight_penalty: float, beta=None) -> LossResult:
    """The one path of the abstain-family objectives: the mean over the
    scene's points of weight_abstain * abstain + weight_penalty * penalty,
    where the penalty hinges alpha on the thresholds beta * margins and adds
    the prior on beta divided by n (``dynamic_penalty_loss``).

    With ``beta`` the penalty is the dynamic one, over the margins
    (m_in, m_rout, m_sout), and the result carries ``grad_beta``. Without
    it the penalty is the static one: beta = 1, where the prior and its
    gradient are 0, over the margins (m_in, m_out, m_out). Both terms are
    computed at every weight; a weight only scales its term.
    """
    n, c = head.num_points, head.num_classes
    labels = _check_labels(labels, space, n)
    m_in, m_out, m_rout, m_sout = margins(space.num_classes)
    if beta is None:
        m, b = np.array([m_in, m_out, m_out]), np.ones(3)
    else:
        m, b = np.array([m_in, m_rout, m_sout]), np.asarray(beta, dtype=np.float64)
    if b.shape != (3,):
        raise ValueError("beta must have shape (3,)")
    st = softmax_head(head)
    values, grad = _abstain(st, labels)
    pen, pen_grad, counts, active = _penalty(st, labels, space, b * m)
    values = weight_abstain * values + weight_penalty * pen
    grad *= weight_abstain
    grad[:, :c] += weight_penalty * pen_grad
    # the hinge's beta gradient: d(t_in - alpha)/d(beta_in) = m_in for
    # inliers, d(alpha - t_k)/d(beta_k) = -m_k for outliers; and the
    # quadratic prior (lambda / 2) sum_k n_k |m_k| (beta_k - 1)^2
    weight = BETA_PRIOR * counts * np.abs(m)
    prior = 0.5 * float(np.sum(weight * (b - 1.0) ** 2))
    grad_beta = np.array([-1.0, 1.0, 1.0]) * m * active + weight * (b - 1.0)
    return LossResult(float(values.mean()) + weight_penalty * prior / n, grad / n,
                      None if beta is None else weight_penalty * grad_beta / n)


def abstain_loss(head: HeadOutput, labels, space: LabelSpace) -> LossResult:
    """Point-wise abstain loss.

    Inlier points pay -log(p^y_true + p^o / o); outlier points (both
    outlier labels) pay -sum_j log(p^y_j + p^o / o) over the c inlier
    classes, with the payoff o = max(1, alpha^2). Log arguments
    are floored at the smallest positive double so the value stays finite
    for any finite logits, with the gradient gated off at the floor.
    """
    return _objective(head, labels, space, 1.0, 0.0)


def penalty_loss(head: HeadOutput, labels, space: LabelSpace) -> LossResult:
    """Static point-wise penalty: hinge alpha below m_in for inliers,
    above m_out for outliers (both outlier labels)."""
    return _objective(head, labels, space, 0.0, 1.0)


def dynamic_penalty_loss(head: HeadOutput, labels, space: LabelSpace, beta) -> LossResult:
    """Three-way penalty with learnable margin weights beta, plus a
    quadratic prior that holds beta near 1.

    Inliers hinge on beta_in * m_in, resized outliers (label c+1) on
    beta_rout * m_rout, asset outliers (label c+2) on beta_sout * m_sout.
    Alone, the hinges' beta gradient always loosens every margin, so beta
    would run away instead of alpha moving. The prior
    (lambda / 2n) sum_k n_k |m_k| (beta_k - 1)^2 over the n_k points of
    type k (lambda = ``BETA_PRIOR``) gives each weight a finite
    optimum: beta_k = 1 -/+ f_k / lambda, where f_k is the fraction of type
    k's points whose hinge is active, so a margin loosens only as far as
    its points fail it. ``grad_beta`` holds the derivatives with respect
    to the three weights.
    """
    if beta is None:
        raise ValueError("beta must have shape (3,)")
    return _objective(head, labels, space, 0.0, 1.0, beta)


def total_loss(
    head: HeadOutput,
    labels,
    space: LabelSpace,
    cfg: LossConfig,
    mode: str = "abstain+static",
    beta=None,
) -> LossResult:
    """The objective of training mode ``mode`` (one of ``LOSS_MODES``).

    "abstain+static" and "abstain+dynamic" give weight_abstain * abstain
    plus the static or the dynamic penalty, from one ``softmax_head`` pass;
    the dynamic one needs ``beta``. "ce+cce" and "ce" give ``cce_loss``
    with calibration weight 1 and 0.
    """
    if mode not in LOSS_MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "ce+cce":
        return cce_loss(head, labels, space, 1.0)
    if mode == "ce":
        return cce_loss(head, labels, space, 0.0)
    if mode == "abstain+static":
        beta = None
    elif beta is None:
        raise ValueError("abstain+dynamic mode requires beta")
    return _objective(head, labels, space, cfg.weight_abstain, 1.0, beta)


def cce_loss(head: HeadOutput, labels, space: LabelSpace, weight_cce: float = 1.0) -> LossResult:
    """The calibration-CE baseline: (c+1)-way cross entropy plus, for inlier
    points only, a term that drives the outlier logit toward the largest of
    the remaining logits.

    Both outlier labels collapse to c+1 here, since this baseline knows a
    single outlier class. weight_cce = 0 gives plain cross entropy.
    """
    n, c = head.num_points, head.num_classes
    labels = _check_labels(labels, space, n)
    merged = np.minimum(labels, space.num_classes + 1)
    cols = merged - 1

    z = head.logits
    z_max, e, denom = _logsumexp_parts(z)
    lse = np.log(denom) + z_max

    rows = np.arange(n)
    ce = lse - z[rows, cols]
    grad = e
    grad /= denom[:, None]  # the softmax
    grad[rows, cols] -= 1.0

    inlier = cols < c
    cce = np.zeros(n)
    if weight_cce != 0.0:
        # every row, with the outlier rows masked out at the end: cheaper
        # than gathering the inlier rows and scattering them back
        z_ex = z.copy()
        z_ex[rows, cols] = -np.inf
        m, e_ex, sum_ex = _logsumexp_parts(z_ex)
        cce = np.where(inlier, m + np.log(sum_ex) - z[:, c], 0.0)
        w = e_ex
        w /= sum_ex[:, None]
        w[:, c] -= 1.0
        w = weight_cce * w
        w *= inlier[:, None]
        grad += w

    value = float((ce + weight_cce * cce).mean())
    grad /= n
    return LossResult(value, grad)


# the gradient check's logit scale (``random_instance``) and central-difference
# step (``finite_difference_grads``)
GRADCHECK_SIGMA = 3.0
GRADCHECK_STEP = 1e-5


def finite_difference_grads(value_fn, head: HeadOutput, beta=None,
                            probes: int | None = None, rng=None):
    """Central-difference gradients of ``value_fn(head, beta)`` at step
    ``GRADCHECK_STEP``: an (n, c+1) array over the logits and, when beta is
    given, one over beta.

    The oracle side of every gradient check: it consumes loss *values*
    only, never analytic gradients. With ``probes`` set, that many
    seeded-random inlier entries and then that many outlier entries are
    probed (NaN marks unprobed entries); beta entries are always probed
    when beta is given.
    """
    z0 = head.logits
    n, c = head.num_points, head.num_classes
    if probes is None:
        idx = list(np.ndindex(n, c + 1))
        fill = 0.0
    else:
        gen = np.random.default_rng(0) if rng is None else rng
        flat = gen.choice(n * c, size=min(probes, n * c), replace=False)
        rows = gen.choice(n, size=min(probes, n), replace=False)
        idx = [(int(k) // c, int(k) % c) for k in flat] + [(int(i), c) for i in rows]
        fill = np.nan

    step = GRADCHECK_STEP
    fd = np.full_like(z0, fill)
    for i, j in idx:
        hi = z0.copy(); hi[i, j] += step
        lo = z0.copy(); lo[i, j] -= step
        fd[i, j] = (value_fn(HeadOutput(hi), beta) - value_fn(HeadOutput(lo), beta)) / (2 * step)

    fd_b = None
    if beta is not None:
        beta = np.asarray(beta, dtype=np.float64)
        fd_b = np.zeros_like(beta)
        for i in range(beta.size):
            hi = beta.copy(); hi[i] += step
            lo = beta.copy(); lo[i] -= step
            fd_b[i] = (value_fn(head, hi) - value_fn(head, lo)) / (2 * step)
    return fd, fd_b


def max_relative_error(result: LossResult, fd_grads) -> float:
    """max |analytic - fd| / max(1, |analytic|) over every probed entry."""
    fd, fd_b = fd_grads
    blocks = [(result.grad, fd)]
    if fd_b is not None:
        if result.grad_beta is None:
            raise ValueError("loss produced no beta gradient to compare")
        blocks.append((result.grad_beta, fd_b))
    worst = 0.0
    for analytic, fd in blocks:
        probed = ~np.isnan(fd)
        if not probed.any():
            continue
        err = (np.abs(analytic - fd)[probed]
               / np.maximum(1.0, np.abs(analytic)[probed]))
        worst = max(worst, float(err.max()))
    return worst


def random_instance(space: LabelSpace, stream: RngStream, max_points: int = 64):
    """One seeded random (head, labels, beta) instance for gradient checks:
    2 to ``max_points`` points with logits ~ N(0, GRADCHECK_SIGMA^2), labels
    uniform over the label space and beta ~ U(0.5, 1.5)^3."""
    gen = stream.generator()
    n = int(gen.integers(2, max_points + 1))
    c = space.num_classes
    head = HeadOutput(np.column_stack([
        gen.normal(0.0, GRADCHECK_SIGMA, size=(n, c)),
        gen.normal(0.0, GRADCHECK_SIGMA, size=n),
    ]))
    labels = gen.integers(1, space.max_label + 1, size=n)
    beta = gen.uniform(0.5, 1.5, size=3)
    return head, labels, beta


def run_gradient_checks(
    num_instances: int = 100,
    max_points: int = 64,
    num_classes: int = 4,
    seed: int = 0,
) -> dict[str, tuple[float, int]]:
    """Check every loss's analytic gradients against central differences
    (step ``GRADCHECK_STEP``) on seeded random instances
    (``random_instance``, logit scale ``GRADCHECK_SIGMA``).

    12 randomly chosen logit entries are probed per instance and loss, which
    keeps 100 instances well under half a minute while still covering ~1000
    entries per loss.
    Returns {loss name: (max relative error, stream id of the worst
    instance)}; the stream id replays the instance via
    ``random_instance(space, RngStream(seed, stream_id))``.
    """
    space = LabelSpace(num_classes)
    cfg = LossConfig()
    # {name: (loss of (head, labels, beta), whether it takes beta)}; the
    # losses are looked up when called, so a test can monkeypatch one
    table = {
        "cce": (lambda h, lab, b: cce_loss(h, lab, space), False),
        "abstain": (lambda h, lab, b: abstain_loss(h, lab, space), False),
        "penalty": (lambda h, lab, b: penalty_loss(h, lab, space), False),
        "dynamic_penalty": (lambda h, lab, b: dynamic_penalty_loss(h, lab, space, b), True),
        "total_static": (
            lambda h, lab, b: total_loss(h, lab, space, cfg, "abstain+static"), False),
        "total_dynamic": (
            lambda h, lab, b: total_loss(h, lab, space, cfg, "abstain+dynamic", b), True),
    }

    results = {name: (0.0, -1) for name in table}
    for k in range(num_instances):
        stream = RngStream(seed, k)
        head, labels, beta = random_instance(space, stream, max_points=max_points)
        probe_rng = np.random.default_rng([seed, k])
        for name, (loss_fn, uses_beta) in table.items():
            b = beta if uses_beta else None
            analytic = loss_fn(head, labels, b)
            fd = finite_difference_grads(
                lambda hh, bb: loss_fn(hh, labels, bb).value, head, beta=b,
                probes=12, rng=probe_rng,
            )
            err = max_relative_error(analytic, fd)
            if err > results[name][0]:
                results[name] = (err, k)
    return results
