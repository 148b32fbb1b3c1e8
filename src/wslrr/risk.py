"""Loss families, corrected losses, and exact / rewritten / empirical risks.

Every risk is one weighted loss sum_i W[i] . loss(g(x_i)) over an (n_x, K)
table W, with its gradient; the risks differ only in the table.  The exact
risk reads joint.T.  A rewrite moves the risk onto the observed channels,
and it is exact because decontamination recovers the clean joint:
:func:`rewrite_table` is D(x_i) . observed(x_i) at every instance, and the
rewritten risk is its weighted loss.  For Sconf the pair law is the product
p(x) p(x') and the pair diagonal is affine in the confidence, so the sum
over the partner factors: row x is p(x) times the diagonal at the
partner-averaged confidence, and the table is linear in n_x.  The empirical
table, :func:`weight_table`, weighs each draw by a column of the same D(x); for
Sconf and the confidence family, by the same diagonal kernel evaluated at
the confidences the dataset stores; each weight once per key, times the
key's draw count.  The corrected losses at x_i are ``lam[:, i] @ D(x_i)``
with ``lam`` the (K, n_x) :func:`loss_matrix`; closed forms for them are
kept for each concrete scenario as an independent cross-check of the
generic product.
"""

from __future__ import annotations

from functools import cached_property
from typing import ClassVar, Optional

import numpy as np

from .core import FiniteJoint, Marginals, record
from .datagen import CONF_POINTS, PAIRS, dataset_channels, _keyed
from .decontam import _conf_weights, _decontaminate, _sconf_weights
from .errors import (
    EmptyChannel,
    IndexOutOfRange,
    NonDifferentiableLoss,
    NonFiniteConfidence,
    NonFiniteScore,
    ShapeMismatch,
    SpecMismatch,
    UnsupportedScenario,
    WrongFamily,
    ZeroConfidence,
)
from .scenarios import (
    FAMILY_CCN,
    FAMILY_MCD,
    FAMILY_SCONF,
    METHOD_SCONF,
    CL,
    MCD,
    MCL,
    PCPL,
    PPL,
    Pconf,
    SCConf,
    Soft,
    SubConf,
    UU,
    ScenarioSpec,
    compound_label_space,
    specs_equal,
    _System,
    _sconf_confidences,
    _superclass_probability,
    _system,
)

LOSS_NAMES = ("zero-one", "logistic", "squared")


@record()
class LossSpec:
    """A per-class loss family over score vectors g(x) in R^K.

    zero-one: miss/hit of the argmax (lowest index wins ties);
    logistic: one-vs-all sum, softplus(-g_k) plus softplus(g_j) over j != k;
    squared: squared distance of the scores to the one-hot target.
    """
    name: str

    differentiable: ClassVar[dict] = {"zero-one": False, "logistic": True, "squared": True}

    def __post_init__(self):
        if self.name not in LOSS_NAMES:
            raise UnsupportedScenario(f"unknown loss {self.name!r}; choose from {LOSS_NAMES}")

    @property
    def is_differentiable(self) -> bool:
        return self.differentiable[self.name]


def _check_scores(scores) -> np.ndarray:
    """Finite float64 scores: an (n, K) table, or a (B, n, K) stack of them."""
    g = np.asarray(scores, dtype=np.float64)
    if g.ndim not in (2, 3):
        raise ShapeMismatch(f"scores must be an (n, K) table or a stack of them, got {g.shape}")
    if not np.isfinite(g).all():
        raise NonFiniteScore("scores contain NaN or infinity")
    return g


def _loss_parts(ls: LossSpec, g: np.ndarray, slope: bool = False) -> tuple:
    """(table, base, scale) at the (..., K) scores ``g``.  Entry (..., k) of
    the table is the loss when the true class is k+1; with ``slope``, the
    gradient of that entry in the scores is base - scale * e_k (base is None
    without it).

    The logistic loss takes exp(g) and exp(-g) once, for the softplus table
    log1p(exp(+-g)) and for the sigmoid, 1 / (1 + exp(-g)) where g >= 0 and
    exp(g) / (1 + exp(g)) elsewhere, so neither exponential overflows where
    it is read.  Overflow deliberately propagates to +inf in the table;
    training reports it as Diverged."""
    if slope and not ls.is_differentiable:
        raise NonDifferentiableLoss("zero-one loss has no gradient")
    if ls.name == "zero-one":
        table = np.ones(g.shape)
        rows = table.reshape(-1, g.shape[-1])  # a view of the fresh table
        rows[np.arange(rows.shape[0]), np.argmax(g, axis=-1).ravel()] = 0.0
        return table, None, 0.0
    if ls.name == "logistic":
        with np.errstate(over="ignore", invalid="ignore"):  # inf - inf, inf / inf on overflow
            ep, em = np.exp(g), np.exp(-g)
            sp, sm = np.log1p(ep), np.log1p(em)
            table = sp.sum(axis=-1, keepdims=True) - sp + sm
            base = np.where(g >= 0, 1.0 / (1.0 + em), ep / (1.0 + ep)) if slope else None
        return table, base, 1.0
    table = np.einsum("...k,...k->...", g, g)[..., None] - 2.0 * g + 1.0
    return table, 2.0 * g if slope else None, 2.0


def _loss_table(ls: LossSpec, g: np.ndarray) -> np.ndarray:
    """(..., K) losses at the (..., K) scores ``g``: entry (..., i, k) is the
    loss at x_i when the true class is k+1."""
    return _loss_parts(ls, g)[0]


def score_matrix(model, j: FiniteJoint) -> np.ndarray:
    """(n_x, K) scores of a linear model on every instance; (B, n_x, K) for
    a stack of B models, with (B, K, d) weights and (B, K) bias."""
    return j.features @ np.asarray(model.weights).swapaxes(-1, -2) + np.asarray(model.bias)[..., None, :]


def loss_matrix(ls: LossSpec, model, j: FiniteJoint) -> np.ndarray:
    """(K, n_x) table of per-class losses at every instance."""
    scores = _check_scores(score_matrix(model, j))
    return np.ascontiguousarray(_loss_table(ls, scores).T)


def weighted_loss(W: np.ndarray, model, ls: LossSpec, j: FiniteJoint, grad: bool = False):
    """The weighted loss sum_i W[i] . loss(g(x_i)) for an (n_x, K) table W.

    W is joint.T for the exact risk and :func:`weight_table` for the
    empirical one.  With ``grad`` this returns (value, dW, db), where
    (dW, db) is the gradient in the linear model's parameters.  A
    (B, n_x, K) stack of tables and a stack of B models (see
    :func:`score_matrix`) give B values and gradients; with a C-ordered
    stack, each has the bits of its own call.
    """
    table, bases, scale = _loss_parts(ls, _check_scores(score_matrix(model, j)), slope=grad)
    value = (W * table).sum(axis=(-2, -1))
    value = float(value) if value.ndim == 0 else value
    if not grad:
        return value
    # the gradient of loss entry k in the scores is base(g) - scale * e_k
    dscores = W.sum(axis=-1)[..., None] * bases - scale * W  # (..., n_x, K)
    return value, dscores.swapaxes(-1, -2) @ j.features, dscores.sum(axis=-2)


# ---------------------------------------------------------------------------
# Exact risks
# ---------------------------------------------------------------------------

def classification_risk(j: FiniteJoint, model, ls: LossSpec) -> float:
    """Exact risk: the double sum of joint mass times per-class loss."""
    return weighted_loss(j.joint.T, model, ls, j)


def rewrite_table(spec: ScenarioSpec, j: FiniteJoint, method: str = "auto") -> np.ndarray:
    """The (n_x, K) table D(x_i) . observed(x_i) of the rewrite, which equals
    joint.T whenever decontamination by ``method`` succeeded.  It reads the
    system the joint keeps for ``spec``, so the spec is validated, and M(x),
    the observed masses and each method's D(x) are built, once per joint.

    Sconf's only method is sconf-special; any other raises WrongFamily.  Its
    pair law p(x) p(x') is a product and the pair diagonal is affine in the
    confidence, so the sum over the partner is p(x) times the diagonal at the
    partner-averaged confidence r(x) = pi_p P(+|x) + pi_n P(-|x): one row per
    instance, never a pair object."""
    return _rewrite_table(_system(spec, j), method)


def _rewrite_table(s: _System, method: str = "auto") -> np.ndarray:
    """:func:`rewrite_table` on a validated system."""
    if s.spec.family == FAMILY_SCONF:
        if method not in ("auto", METHOD_SCONF):
            raise WrongFamily(f"Sconf is decontaminated by {METHOD_SCONF} only, not {method!r}")
        m = s.m
        return m.instance_marginal[:, None] * _sconf_weights(m.priors, m.priors @ m.class_probabilities)
    return np.einsum("ikm,im->ik", _decontaminate(s, method).matrices, s.observed)


def rewritten_risk(spec: ScenarioSpec, j: FiniteJoint, model, ls: LossSpec,
                   method: str = "auto") -> float:
    """Risk recomputed from the observed channels: the weighted loss of
    :func:`rewrite_table`.  Equals :func:`classification_risk` whenever
    decontamination succeeded."""
    return weighted_loss(rewrite_table(spec, j, method), model, ls, j)


# ---------------------------------------------------------------------------
# Closed-form corrected losses (cross-check against the generic product)
# ---------------------------------------------------------------------------

def closed_form_corrected_loss(spec: ScenarioSpec, m: Marginals, i: int, L,
                               i2: Optional[int] = None) -> np.ndarray:
    """Hand-coded corrected losses per scenario.

    Matches the generic product ``lam[:, i] @ D(x_i)`` entrywise, except CL
    and MCL where this returns the inversion-based weights (the marginal-chain
    ones legitimately differ entry by entry while giving the same risk).  Sconf
    is pair-shaped and needs ``i2``.
    """
    L = np.asarray(L, dtype=np.float64)
    K = m.K
    if spec.family == FAMILY_MCD or spec.family == FAMILY_SCONF:
        pi_p, pi_n = float(m.priors[0]), float(m.priors[1])
        lp, ln = float(L[0]), float(L[1])
        s2 = pi_p * pi_p + pi_n * pi_n
        if isinstance(spec, (UU, MCD)):
            g1, g2 = (getattr(spec, f) for f in spec._fields)  # the rates of the first and the second channel
            den = 1.0 - g1 - g2
            return np.array([((1.0 - g2) * pi_p * lp - g2 * pi_n * ln) / den,
                             (-g1 * pi_p * lp + (1.0 - g1) * pi_n * ln) / den])
        if spec.name == "PU":
            return np.array([pi_p * lp - pi_p * ln, ln])
        if spec.name == "SU":
            den = 2.0 * pi_p - 1.0
            return np.array([s2 * (lp - ln) / den, (-pi_n * lp + pi_p * ln) / den])
        if spec.name == "DU":
            den = pi_n - pi_p
            return np.array([2.0 * pi_p * pi_n * (lp - ln) / den,
                             (-pi_p * lp + pi_n * ln) / den])
        if spec.name == "SD":
            den = pi_p - pi_n
            return np.array([s2 * (pi_p * lp - pi_n * ln) / den,
                             2.0 * pi_p * pi_n * (-pi_n * lp + pi_p * ln) / den])
        if spec.name == "Pcomp":
            return np.array([lp - pi_p * ln, -pi_n * lp + ln])
        # Sconf
        if i2 is None:
            raise ShapeMismatch("Sconf closed form needs the pair partner index i2")
        r = float(_sconf_confidences(m, [i], [i2])[0, 0])
        return np.array([(r - pi_n) / (pi_p - pi_n) * lp, (pi_p - r) / (pi_p - pi_n) * ln])

    if spec.family == FAMILY_CCN:
        if isinstance(spec, CL):
            return L.sum() - (K - 1) * L
        if isinstance(spec, MCL):
            space = compound_label_space(K)
            out = np.empty(len(space))
            for jdx, sbar in enumerate(space):
                d = len(sbar)
                inside = sum(L[c - 1] for c in sbar)
                out[jdx] = (L.sum() - inside) - (K - 1 - d) / d * inside
            return out
        if isinstance(spec, (PPL, PCPL)):
            space = compound_label_space(K)
            r = m.class_probabilities[:, i]
            out = np.zeros(len(space))
            for jdx, s in enumerate(space):
                idx = [c - 1 for c in s]
                den = float(r[idx].sum())
                if den > 0.0:
                    out[jdx] = float((r[idx] * L[idx]).sum() / den)
            return out
        raise UnsupportedScenario(f"no closed form for {spec.name}")

    # confidence family
    r = m.class_probabilities[:, i]
    if isinstance(spec, SubConf):
        den = float(sum(r[c - 1] for c in spec.Y_s))
    elif isinstance(spec, SCConf):
        den = float(r[spec.y_s - 1])
    elif isinstance(spec, Pconf):
        den = float(r[0])
    elif isinstance(spec, Soft):
        den = 1.0
    else:
        raise UnsupportedScenario(f"no closed form for {spec.name}")
    if den <= 0.0:
        raise ZeroConfidence(f"super-class probability is zero at instance {i}")
    return (r / den) * L


# ---------------------------------------------------------------------------
# Empirical estimators
# ---------------------------------------------------------------------------

@record(eq=False)
class ChannelTerms:
    """A channel's estimator terms, keyed.  A draw is one entry, or two for
    a pair (every first entry, then every second); entry e has the key
    ``rows[e]``, which weighs the losses at instance ``inst[rows[e]]`` by
    ``table[rows[e]]``.  The channel's estimate is the mean over its
    n_draws draws of their entries' table[key] . loss(g(x_inst[key])), and
    the full estimator is the sum of the channel estimates.  The fold and the
    Monte-Carlo spread count the keys, so no (n, K) per-draw weights are made."""
    label: str
    n_draws: int
    rows: np.ndarray   # (n_entries,) the key of every entry
    table: np.ndarray  # (n_keys, K) the weights of each key, a broadcast view when all share one row
    inst: np.ndarray   # (n_keys,) the instance of each key

    @property
    def idx(self) -> np.ndarray:
        """(n_entries,) the instance of every entry."""
        return self.inst[self.rows]

    @cached_property
    def counts(self) -> np.ndarray:
        """(n_keys,) the number of entries with each key."""
        return np.bincount(self.rows, minlength=len(self.table))


def channel_terms(ds, spec: ScenarioSpec, j: FiniteJoint) -> list:
    """Estimator terms for every channel of a weak dataset.

    A draw from observed channel c at x weighs the losses by column c of the
    decontamination matrix D(x) that the rewrite uses, so the estimate is the
    sample version of the rewritten risk; Sconf and the confidence family
    evaluate the rewrite's diagonal kernels at the dataset's own confidences.
    The weights already fold in channel masses (reciprocal priors for the
    mixture family, the super-class prior for confidence data), so the risk
    estimate is simply the sum over channels of per-channel means.
    """
    if not specs_equal(ds.spec, spec):
        raise SpecMismatch(f"dataset was generated for {ds.spec.name}, not {spec.name}")
    return _channel_terms(ds, _system(spec, j))


def _channel_terms(ds, s: _System) -> list:
    """:func:`channel_terms` on a validated system, for a dataset of its spec."""
    spec, j, m = s.spec, s.j, s.m
    found, expected = tuple((c.label, c.kind) for c in ds.channels), dataset_channels(spec, j.K)
    if found != expected:
        raise SpecMismatch(f"dataset channels {found} do not match {spec.name} on a K={j.K} joint, "
                           f"which has {expected}")
    for c in ds.channels:
        for arr in (c.indices, c.pairs):
            if arr is not None and arr.size and (arr.min() < 0 or arr.max() >= j.n_x):
                bad = arr[(arr < 0) | (arr >= j.n_x)][0]
                raise IndexOutOfRange(f"channel {c.label!r} names instance {bad}, outside 0..{j.n_x - 1}")
    inst = np.arange(j.n_x)

    if spec.family == FAMILY_MCD:
        dag = _decontaminate(s, spec.estimator).matrices[0]  # the same at every x
        if spec.streams:
            # one stream of pairs: the first element is a draw from observed channel 0
            # (Pcomp's Sup), the second from channel 1 (Inf); key p * n_x + i is element p at x_i
            pairs = ds.channels[0].pairs
            return [ChannelTerms(spec.streams[0], len(pairs), (pairs + [0, j.n_x]).T.ravel(),
                                 np.repeat(dag.T, j.n_x, axis=0), np.concatenate([inst, inst]))]
        # dataset channel k is observed channel k: points, or pairs whose two
        # instances carry half the weight each; keyed by instance
        terms = []
        for k, c in enumerate(ds.channels):
            rows, w = (c.pairs.T.ravel(), dag[:, k] / 2.0) if c.kind == PAIRS else (c.indices, dag[:, k])
            terms.append(ChannelTerms(c.label, c.n_draws, rows, np.broadcast_to(w, (j.n_x, j.K)), inst))
        return terms

    if spec.family == FAMILY_CCN:
        # one stream over all label channels, each draw weighed by its channel's
        # column of the record's estimator decontamination (the blockwise
        # inverse for CL and MCL, as in the literature, else the marginal chain)
        dag = _decontaminate(s, spec.estimator).matrices  # (n_x, K, m)
        if not any(c.n_draws for c in ds.channels):
            raise EmptyChannel("dataset has no draws in any label channel")
        # key i*m + c, (instance, label), reads D(x_i)[:, c] in the (n_x*m, K) table of columns
        m_chan = len(ds.channels)
        rows = np.concatenate([c.indices for c in ds.channels])
        rows *= m_chan
        rows += np.repeat(np.arange(m_chan, dtype=np.min_scalar_type(m_chan)), [c.n_draws for c in ds.channels])
        return [ChannelTerms("SX", len(rows), rows, dag.transpose(0, 2, 1).reshape(-1, j.K),
                             np.repeat(inst, m_chan))]

    # Sconf and the confidence family: one channel whose draws read a table of
    # confidences by code, each code keyed once at its instance or pair
    ch = ds.channels[0]
    conf, codes = ch.table, ch.codes
    if ch.kind == CONF_POINTS and ch.n_draws and conf.shape[1] != j.K:
        raise ShapeMismatch(f"channel {ch.label!r} has {conf.shape[1]} confidences per draw, not K={j.K}")
    if not np.isfinite(conf).all():
        raise NonFiniteConfidence(f"channel {ch.label!r} holds a NaN or infinite confidence")
    at = ch.indices if ch.kind == CONF_POINTS else ch.pairs[:, 0] * j.n_x + ch.pairs[:, 1]
    if ch.n_draws == 0:  # which the fold refuses
        return [ChannelTerms(ch.label, 0, codes, np.zeros((0, j.K)), codes)]
    key, one = _keyed(codes, len(conf))
    if codes is not at and not np.array_equal(at[one[key]], at):  # a code at two places: key by both
        key, one = _keyed(at * len(one) + key, (j.n_x if ch.kind == CONF_POINTS else j.n_x ** 2) * len(one))
    rows = conf[codes[one]]  # the entry of each key (draw 0's for a key no draw has)

    if spec.family == FAMILY_SCONF:
        # each instance of a pair carries half the pair diagonal at its confidence:
        # key 2k + p is the pair's element p
        w = _sconf_weights(m.priors, rows) / 2.0
        return [ChannelTerms(ch.label, len(key), np.concatenate([2 * key, 2 * key + 1]),
                             np.repeat(w, 2, axis=0), ch.pairs[one].ravel())]
    coeff = float(_superclass_probability(spec, m.priors[:, None])[0])  # the super-class prior
    return [ChannelTerms(ch.label, len(key), key, coeff * _conf_weights(spec, rows, ch.indices, key),
                         ch.indices[one])]


def weight_table(ds, spec: ScenarioSpec, j: FiniteJoint) -> np.ndarray:
    """The (n_x, K) table W with empirical risk sum_i W[i] . loss(g(x_i)):
    every channel's estimator terms over its draw count, summed per instance
    (see :func:`_fold`).  Raises EmptyChannel when a channel that enters as
    a mean has no draws, SpecMismatch when the dataset belongs to another
    scenario."""
    return _fold(channel_terms(ds, spec, j), j)


def _fold(terms_list: list, j: FiniteJoint) -> np.ndarray:
    """:func:`weight_table` from the channels' terms: ``np.bincount`` of each
    channel's keys times its table, summed into the keys' instances in key
    order, over its draw count; O(n + n_keys K) and never the (n, K)
    per-draw weights."""
    W = np.zeros((j.n_x, j.K))
    for t in terms_list:
        if t.n_draws == 0:
            raise EmptyChannel(f"channel {t.label!r} has no samples")
        part = t.counts[:, None] * t.table
        W += np.stack([np.bincount(t.inst, w, j.n_x) for w in part.T], axis=1) / t.n_draws
    return W


def empirical_risk(ds, spec: ScenarioSpec, model, ls: LossSpec, j: FiniteJoint) -> float:
    """Sample estimate of the risk from a weak dataset; raises as
    :func:`weight_table` does."""
    return weighted_loss(weight_table(ds, spec, j), model, ls, j)
