"""Batched instance-axis kernels against independent per-instance references.

The whole-joint operations build every instance in one numpy pass.  These
tests compare instance i of each batch with the paper's formulas typed in
below and evaluated one instance at a time with plain numpy (a per-instance
Gauss-Jordan loop and a 2x2 adjugate for the inversions), check that every
decontamination still reconstructs the joint, that the typed errors are
unchanged, that validation runs a constant number of times per call
whatever the instance count, and that the system a joint keeps for its last
spec gives, bit for bit, what a fresh joint gives.  The kernels that use the structure of their
matrices (the diagonal M_trsf, Sconf's product pair law, steps of
Gauss-Jordan with nothing to do) are also compared with the dense formulas
they replace, typed in below: bit for bit where the arithmetic is the same.
"""

import itertools
import math

import numpy as np
import pytest

import wslrr.decontam
import wslrr.scenarios
from wslrr.core import marginals, validate_joint
from wslrr.datagen import dataset_to_json, sample_weak_dataset
from wslrr.decontam import _invert_stack, decontaminate
from wslrr.errors import DegenerateParams, NonSquare, NotBinary, Singular, ZeroConfidence, ZeroPairMass
from wslrr.risk import (
    LOSS_NAMES,
    LossSpec,
    classification_risk,
    loss_matrix,
    rewrite_table,
    rewritten_risk,
    weight_table,
)
from wslrr.scenarios import CCN, CL, MCL, PCPL, PU, SCConf, Sconf, Soft, observed_distribution, specs_equal
from wslrr.verify import (
    ABSTRACT_SCENARIO_NAMES,
    ALL_SCENARIO_NAMES,
    VerifyConfig,
    build_registry,
    make_spec,
    random_joint,
    scenario_joint,
    seeded_model,
)

NAMES = ALL_SCENARIO_NAMES + ABSTRACT_SCENARIO_NAMES
TOL_SAME = 1e-15
TOL_MATRIX = 1e-12
TOL_RISK = 1e-10
MIXTURE = ("UU", "MCD", "PU", "SU", "DU", "SD", "Pcomp")


def _case(name, nx):
    j = scenario_joint(name, 4, nx, 3, seed=17, trial=nx)
    return make_spec(name, j, 17, nx), j


def _methods(name):
    """The methods whose reconstruction the harness checks on ``name``, plus
    the inversion for the settings listed here."""
    extra = {"CCN": ("inversion",), "Pconf": ("inversion",), "SCConf": ("inversion",),
             "SubConf": ("inversion",), "Soft": ("inversion",)}
    harness = tuple(task.split(":")[2] for task, _ in build_registry(VerifyConfig(trials=1))
                    if task.startswith(f"reconstruction:{name}:"))
    return harness + extra.get(name, ())


def _close(got, ref, rel):
    """Entrywise agreement within ``rel`` times the reference's scale (at least 1)."""
    ref = np.asarray(ref, dtype=np.float64)
    return float(np.max(np.abs(got - ref))) <= rel * max(1.0, float(np.max(np.abs(ref))))


# ---------------------------------------------------------------------------
# Per-instance references: the paper's formulas, one instance at a time
# ---------------------------------------------------------------------------

def _labels(K):
    """The compound labels in canonical order: by size, then lexicographic."""
    return [s for d in range(1, K) for s in itertools.combinations(range(1, K + 1), d)]


def _reference_matrix(spec, j, i):
    """M(x_i) of every non-pair setting."""
    K, name = j.K, spec.name
    pp, pn = (float(v) for v in j.joint.sum(axis=1)[:2])
    r = j.joint[:, i] / j.joint[:, i].sum()
    s2 = pp * pp + pn * pn
    rows = {
        "UU": lambda: [[1 - spec.gamma_1, spec.gamma_1], [spec.gamma_2, 1 - spec.gamma_2]],
        "MCD": lambda: [[1 - spec.gamma_p, spec.gamma_p], [spec.gamma_n, 1 - spec.gamma_n]],
        "PU": lambda: [[1.0, 0.0], [pp, pn]],
        "SU": lambda: [[pp * pp / s2, pn * pn / s2], [pp, pn]],
        "DU": lambda: [[0.5, 0.5], [pp, pn]],
        "SD": lambda: [[pp * pp / s2, pn * pn / s2], [0.5, 0.5]],
        "Pcomp": lambda: [[pp / (pp + pn * pn), pn * pn / (pp + pn * pn)],
                          [pp * pp / (pp * pp + pn), pn / (pp * pp + pn)]],
        "CCN": lambda: spec.flip[i],
        "GCCN": lambda: spec.cond[i],
        "PPL": lambda: [[spec.C[jdx, i] * (k in s) for k in range(1, K + 1)]
                        for jdx, s in enumerate(_labels(K))],
        "PCPL": lambda: [[(k in s) / (2 ** (K - 1) - 1) for k in range(1, K + 1)] for s in _labels(K)],
        "MCL": lambda: [[spec.q[len(s) - 1] / math.comb(K - 1, len(s)) * (k not in s)
                         for k in range(1, K + 1)] for s in _labels(K)],
        "CL": lambda: [[(k != c) / (K - 1) for k in range(K)] for c in range(K)],
    }
    if name in rows:
        return np.array(rows[name](), dtype=np.float64)
    return np.diag(_superclass_probability(spec, r) / r)


def _superclass_probability(spec, r):
    """P(the sampled super-class | x) from the class probabilities ``r`` at x."""
    return {"SubConf": lambda: sum(r[c - 1] for c in spec.Y_s), "SCConf": lambda: r[spec.y_s - 1],
            "Pconf": lambda: r[0], "Soft": lambda: 1.0}[spec.name]()


def _reference_transform(name, j):
    """M_trsf(x): the reciprocal priors for the mixture family, else the identity."""
    return np.diag(1.0 / j.joint.sum(axis=1)) if name in MIXTURE else np.eye(j.K)


def _pair_confidence(j, i, i2):
    """P(same label | x_i, x_i2), enumerating the label pairs."""
    num = sum(j.joint[y, i] * j.joint[y, i2] for y in range(2))
    return num / (j.joint[:, i].sum() * j.joint[:, i2].sum())


def _reference_pair_matrix(j, i, i2):
    """The Sconf matrix of the pair (x_i, x_i2): both rows map the class
    conditionals at x_i to the pair mass."""
    pp, pn = (float(v) for v in j.joint.sum(axis=1))
    cp, cn = j.joint[0, i2] / pp, j.joint[1, i2] / pn
    r = _pair_confidence(j, i, i2)
    return np.array([[pp * (pp ** 2 * cp - pn ** 2 * cn) / (r - pn), pp * (pn ** 2 * cn - pn ** 2 * cp) / (r - pn)],
                     [pn * (pp ** 2 * cn - pp ** 2 * cp) / (pp - r), pn * (pp ** 2 * cp - pn ** 2 * cn) / (pp - r)]])


def _adjugate_inverse(a):
    det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    return np.array([[a[1, 1], -a[0, 1]], [-a[1, 0], a[0, 0]]]) / det


def _gauss_jordan_loop(a):
    """The per-instance partial-pivot elimination, one matrix at a time."""
    n = a.shape[0]
    scale = np.max(np.abs(a), axis=1)
    work = a / scale[:, None]
    inv = np.eye(n) / scale[:, None]
    for col in range(n):
        pivot = col + int(np.argmax(np.abs(work[col:, col])))
        if pivot != col:
            work[[col, pivot]] = work[[pivot, col]]
            inv[[col, pivot]] = inv[[pivot, col]]
        p = work[col, col]
        work[col] /= p
        inv[col] /= p
        for r in range(n):
            if r != col and work[r, col] != 0.0:
                f = work[r, col]
                work[r] -= f * work[col]
                inv[r] -= f * inv[col]
    return inv


def _reference_decontamination(method, spec, j, i):
    """D(x_i) by ``method``, from the per-instance references above."""
    K = j.K
    mat = _reference_matrix(spec, j, i)
    if method == "inversion":
        a = mat @ _reference_transform(spec.name, j)
        return _adjugate_inverse(a) if K == 2 else _gauss_jordan_loop(a)
    if method == "marginal-chain":  # D[k, c] = P(Y=k | S=s_c, x_i)
        terms = j.joint[:, i][:, None] * mat.T
        mass = terms.sum(axis=0)
        return np.where(mass > 0.0, terms / np.where(mass > 0.0, mass, 1.0), 0.0)
    if method == "conf-diagonal":
        r = j.joint[:, i] / j.joint[:, i].sum()
        return np.diag(r / _superclass_probability(spec, r))
    # mcl-blockwise: 1 - (K-1)/d on the classes of a size-d excluded set, 1 elsewhere
    sets = _labels(K) if spec.name == "MCL" else [(c,) for c in range(1, K + 1)]
    return np.array([[1.0 - (K - 1) / len(s) * (k in s) for s in sets] for k in range(1, K + 1)])


def _reference_losses(name, g):
    """The loss of every true class at the scores ``g`` of one instance."""
    K = len(g)
    if name == "zero-one":
        return [float(k != int(np.argmax(g))) for k in range(K)]
    if name == "logistic":  # one-vs-all: softplus(-g_k) plus softplus(g_c) over c != k
        return [math.log1p(math.exp(-g[k])) + sum(math.log1p(math.exp(g[c])) for c in range(K) if c != k)
                for k in range(K)]
    return [sum((g[c] - float(c == k)) ** 2 for c in range(K)) for k in range(K)]


# ---------------------------------------------------------------------------
# Batches against the references
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("nx", [1, 5, 23])
def test_batched_contamination_matches_per_instance(name, nx):
    spec, j = _case(name, nx)
    cm = observed_distribution(spec, j)
    if spec.family == "Sconf-pairwise":
        for i in range(nx):
            for i2 in range(nx):
                assert abs(cm.pair_confidence[i, i2] - _pair_confidence(j, i, i2)) <= TOL_MATRIX
                assert _close(cm.pair_matrix[i, i2], _reference_pair_matrix(j, i, i2), TOL_MATRIX)
        return
    trsf = _reference_transform(name, j)
    assert cm.transform.shape == (j.K, j.K) and _close(cm.transform, trsf, TOL_SAME)
    for i in range(nx):
        mat = _reference_matrix(spec, j, i)
        assert _close(cm.matrix[i], mat, TOL_SAME)
        assert np.max(np.abs(mat @ trsf @ j.joint[:, i] - cm.observed[i])) <= TOL_MATRIX


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("nx", [1, 5, 23])
def test_batched_decontamination_matches_per_instance(name, nx):
    spec, j = _case(name, nx)
    cm = observed_distribution(spec, j)
    for method in _methods(name):
        dr = decontaminate(spec, j, method=method)
        if method == "sconf-special":
            pp, pn = (float(v) for v in j.joint.sum(axis=1))
            inv_prior = np.diag([1.0 / pp, 1.0 / pn])
            for i in range(nx):
                acc = np.zeros((2, 2))
                for i2 in range(nx):
                    r = _pair_confidence(j, i, i2)
                    one = np.diag([(r - pn) / (pp - pn), (pp - r) / (pp - pn)])
                    assert _close(dr.pair_matrices[i, i2], one, TOL_MATRIX)
                    acc += dr.pair_matrices[i, i2] @ inv_prior @ cm.pair_matrix[i, i2]
                assert np.max(np.abs(acc - np.eye(2))) <= TOL_MATRIX
            continue
        for i in range(nx):
            ref = _reference_decontamination(method, spec, j, i)
            assert _close(dr.matrices[i], ref, TOL_SAME), method
            rec = dr.matrices[i] @ cm.observed[i]
            assert np.max(np.abs(rec - j.joint[:, i])) <= TOL_MATRIX, method


@pytest.mark.parametrize("name", NAMES)
def test_loss_table_and_rewritten_risk(name):
    spec, j = _case(name, 9)
    model = seeded_model(j, 17, 2)
    for loss in LOSS_NAMES:
        ls = LossSpec(loss)
        lam = loss_matrix(ls, model, j)
        for i in range(j.n_x):
            scores = model.weights @ j.features[i] + model.bias
            assert _close(lam[:, i], _reference_losses(loss, scores), TOL_SAME * 4)
        exact = classification_risk(j, model, ls)
        for method in _methods(name):
            assert abs(rewritten_risk(spec, j, model, ls, method=method) - exact) <= TOL_RISK


@pytest.mark.parametrize("k", [2, 3, 5])
def test_inverse_stack_matches_the_loop(k):
    rng = np.random.default_rng(k)
    a = rng.normal(size=(40, k, k))
    a[::3] = a[::3][:, ::-1]  # rows reversed: the pivots differ between instances
    inv = _invert_stack(a)
    for i in range(a.shape[0]):
        assert np.array_equal(inv[i], _adjugate_inverse(a[i]) if k == 2 else _gauss_jordan_loop(a[i]))
        assert np.max(np.abs(inv[i] @ a[i] - np.eye(k))) <= TOL_MATRIX


def test_singular_instance_in_a_stack():
    a = np.tile(np.eye(3), (6, 1, 1))
    a[4] = [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 1.0, 1.0]]
    with pytest.raises(Singular):
        _invert_stack(a)
    j = random_joint(2, 6, 3, seed=3, stream=0)
    flip = np.tile([[0.8, 0.1], [0.2, 0.9]], (6, 1, 1))
    flip[3] = [[0.5, 0.5], [0.5, 0.5]]
    with pytest.raises(Singular):
        decontaminate(CCN(flip=flip), j, method="inversion")
    # the marginal chain needs no invertibility
    decontaminate(CCN(flip=flip), j, method="marginal-chain")


def test_zero_confidence_names_the_first_instance():
    joint = np.array([[0.1, 0.1, 0.0, 0.2, 0.0],
                      [0.1, 0.1, 0.2, 0.1, 0.1]])
    j = validate_joint(2, np.zeros((5, 1)), joint)
    with pytest.raises(ZeroConfidence, match="instance 2 "):
        observed_distribution(Soft(), j)
    with pytest.raises(ZeroConfidence, match="instance 2$"):
        decontaminate(SCConf(y_s=1), j, method="conf-diagonal")
    last = validate_joint(2, np.zeros((5, 1)), [[0.1, 0.1, 0.1, 0.2, 0.0],
                                                [0.1, 0.1, 0.1, 0.1, 0.1]])
    with pytest.raises(ZeroConfidence, match="instance 4$"):
        decontaminate(SCConf(y_s=1), last, method="conf-diagonal")


def test_sconf_prior_coincidence_is_degenerate():
    # x_0 is purely positive and P(+ | x_1) equals the positive prior, so the
    # pair confidence r(x_0, x_1) coincides with the prior
    joint = np.array([[0.2, 0.3, 0.1], [0.0, 0.2, 0.2]])
    j = validate_joint(2, np.zeros((3, 1)), joint)
    for call in (lambda: observed_distribution(Sconf(), j),
                 lambda: decontaminate(Sconf(), j)):
        with pytest.raises(DegenerateParams):
            call()
    # a singularity of the pair matrix, not of D: the rewrite never builds it
    assert np.max(np.abs(rewrite_table(Sconf(), j) - j.joint.T)) <= TOL_MATRIX


def test_sconf_zero_pair_mass():
    joint = np.array([[0.3, 1e-170, 0.3], [0.2, 0.0, 0.2]])
    j = validate_joint(2, np.zeros((3, 1)), joint)
    for call in (lambda: observed_distribution(Sconf(), j),
                 lambda: decontaminate(Sconf(), j)):
        with pytest.raises(ZeroPairMass, match=r"pair \(1, 1\)"):
            call()
    assert np.max(np.abs(rewrite_table(Sconf(), j) - j.joint.T)) <= TOL_MATRIX


@pytest.mark.parametrize("name", ["GCCN", "CCN", "PPL", "Soft", "PU", "Sconf"])
def test_validation_runs_a_constant_number_of_times(name, monkeypatch):
    calls = []
    real = wslrr.scenarios.validate_spec

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    # decontam and risk validate through scenarios._System, which reads this name
    monkeypatch.setattr(wslrr.scenarios, "validate_spec", counting)
    counts = []
    for nx in (4, 12):
        spec, j = _case(name, nx)
        per_call = []
        for method in ("auto",) + _methods(name):
            calls.clear()
            decontaminate(spec, j, method=method)
            per_call.append(len(calls))
        calls.clear()
        observed_distribution(spec, j)
        per_call.append(len(calls))
        counts.append(per_call)
    assert counts[0] == counts[1]
    assert max(counts[0]) == 1


# ---------------------------------------------------------------------------
# Structure-aware kernels against the dense formulas they replace
# ---------------------------------------------------------------------------

def _einsum_observed(cm, j):
    """observed(x) = M(x) M_trsf P(x) as one three-operand einsum over the
    transform tiled to every instance, K^2 products per channel."""
    trsf = np.tile(cm.transform, (j.n_x, 1, 1))
    return np.einsum("imb,ibk,ki->im", cm.matrix, trsf, j.joint)


def _pair_sum_sconf_table(j):
    """Sconf's rewrite table as the pair law times the pair diagonal, summed
    over the partner: (n_x, n_x) objects for an (n_x, K) table."""
    pair = observed_distribution(Sconf(), j).pair.matrix
    diag = np.diagonal(decontaminate(Sconf(), j).pair_matrices, axis1=2, axis2=3)
    return np.einsum("ab,abk->ak", pair, diag)


def _unskipped_gauss_jordan(a):
    """Batched Gauss-Jordan that swaps and eliminates at every column, even
    where there is nothing to swap or eliminate."""
    n, k = a.shape[0], a.shape[1]
    if a.shape[2] != k:
        raise NonSquare("not square")
    scale = np.max(np.abs(a), axis=2)
    if np.any(scale == 0.0):
        raise Singular("all-zero row")
    work = a / scale[:, :, None]
    inv = np.eye(k) / scale[:, :, None]
    det_scaled = np.ones(n)
    rows = np.arange(n)
    for col in range(k):
        pivot = col + np.argmax(np.abs(work[:, col:, col]), axis=1)
        for arr in (work, inv):
            arr[rows, col], arr[rows, pivot] = arr[rows, pivot], arr[rows, col]
        det_scaled = np.where(pivot != col, -det_scaled, det_scaled)
        p = work[rows, col, col]
        det_scaled *= p
        if np.any(np.abs(p) <= 1e-12):
            raise Singular("pivot")
        work[:, col] /= p[:, None]
        inv[:, col] /= p[:, None]
        f = work[:, :, col].copy()
        f[:, col] = 0.0
        work -= f[:, :, None] * work[:, None, col]
        inv -= f[:, :, None] * inv[:, None, col]
    if np.any(np.abs(det_scaled) <= 1e-12):
        raise Singular("determinant")
    return inv


def _summed_marginal_chain(mats, j):
    """P(Y=k | S=s_j, x) with the channel masses summed from the terms in
    the (n_x, K, m) layout."""
    terms = j.joint.T[:, :, None] * mats.transpose(0, 2, 1)
    masses = terms.sum(axis=1, keepdims=True)
    out = np.zeros(terms.shape)
    np.divide(terms, masses, out=out, where=masses > 0.0)
    return out


def _skewed_joint(K, nx, seed):
    """A dense joint whose positive prior is well away from 1/2."""
    rng = np.random.default_rng(seed)
    joint = rng.random((K, nx)) + 0.05
    joint[0] *= 1.6
    return validate_joint(K, rng.normal(size=(nx, 2)), joint / joint.sum())


def _with_class_counts(names):
    """(name, K) for K = 2, 3 and 5, or K = 2 alone for a binary setting."""
    return [(name, K) for name in names
            for K in ((2,) if wslrr.scenarios.SCENARIO_TYPES[name].binary_only else (2, 3, 5))]


@pytest.mark.parametrize("name, K", _with_class_counts(n for n in NAMES if n != "Sconf"))
@pytest.mark.parametrize("nx", [3, 40, 400])
def test_observed_masses_match_the_einsum(name, K, nx):
    j = _skewed_joint(K, nx, seed=1000 * K + nx)
    spec = make_spec(name, j, K, nx)
    cm = observed_distribution(spec, j)
    t = 1.0 / marginals(j).priors if name in MIXTURE else np.ones(K)
    assert cm.transform.shape == (K, K) and np.array_equal(cm.transform, np.diag(t))
    assert np.array_equal(cm.observed, _einsum_observed(cm, j))


@pytest.mark.parametrize("nx", [2, 5, 23, 60])
@pytest.mark.parametrize("seed", range(3))
def test_sconf_table_matches_the_pair_sum(nx, seed):
    j = _skewed_joint(2, nx, seed)
    table = rewrite_table(Sconf(), j)
    assert table.shape == (nx, 2)
    assert np.max(np.abs(table - _pair_sum_sconf_table(j))) <= TOL_SAME
    assert np.max(np.abs(table - j.joint.T)) <= TOL_MATRIX
    assert np.array_equal(rewrite_table(Sconf(), j, "sconf-special"), table)


def _stacks(k, n=30):
    """Dense, diagonal and (scaled) permutation stacks, and one mixing all three."""
    rng = np.random.default_rng(k)
    dense = rng.normal(size=(n, k, k))
    diagonal = np.zeros((n, k, k))
    diagonal[:, np.arange(k), np.arange(k)] = rng.random((n, k)) + 0.1
    perms = np.array([np.eye(k)[rng.permutation(k)] for _ in range(n)])
    permutation = perms * (rng.random((n, 1, k)) + 0.1)
    mixed = np.concatenate([dense[:5], diagonal[:5], permutation[:5]])
    return {"dense": dense, "diagonal": diagonal, "permutation": permutation, "mixed": mixed}


@pytest.mark.parametrize("k", [3, 4, 5])
def test_inverse_stack_matches_the_unskipped_loop(k):
    for kind, a in _stacks(k).items():
        assert np.array_equal(_invert_stack(a), _unskipped_gauss_jordan(a)), kind
        assert np.array_equal(_invert_stack(a[:1]), _unskipped_gauss_jordan(a[:1])), kind


def test_skipped_steps_keep_the_errors():
    singular = np.tile(np.eye(3), (4, 1, 1))  # diagonal instances: nothing to swap or eliminate ...
    singular[2] = [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 1.0, 1.0]]  # ... but one singular instance
    zero_row = np.tile(np.eye(3), (4, 1, 1))
    zero_row[1, 0] = 0.0
    for a, error in ((singular, Singular), (zero_row, Singular), (np.ones((4, 3, 4)), NonSquare)):
        for invert in (_invert_stack, _unskipped_gauss_jordan):
            with pytest.raises(error):
                invert(a)


@pytest.mark.parametrize("name, K", _with_class_counts(("CCN", "GCCN", "PPL", "PCPL", "MCL", "CL")))
@pytest.mark.parametrize("nx", [1, 7, 120])
def test_marginal_chain_matches_the_summed_masses(name, K, nx):
    j = _skewed_joint(K, nx, seed=7 * K + nx)
    spec = make_spec(name, j, K, nx)
    mats = observed_distribution(spec, j).matrix
    got = decontaminate(spec, j, "marginal-chain").matrices
    assert got.flags.c_contiguous and np.array_equal(got, _summed_marginal_chain(mats, j))


def test_marginal_chain_zero_mass_channels_match():
    """Channels without mass (excluded-set sizes of probability zero) are
    zero in both."""
    j = _skewed_joint(4, 9, seed=3)
    for spec in (MCL(q=(0.7, 0.3, 0.0)), MCL(q=(0.0, 0.0, 1.0))):
        mats = observed_distribution(spec, j).matrix
        got = decontaminate(spec, j, "marginal-chain").matrices
        assert np.array_equal(got, _summed_marginal_chain(mats, j))
        assert np.any(np.all(got == 0.0, axis=1))


# ---------------------------------------------------------------------------
# The system a joint keeps for its last spec
# ---------------------------------------------------------------------------

def _kernel_outputs(spec, j, methods):
    """What every public kernel that reads the spec's system on ``j`` returns,
    by name: the contamination model's arrays, D(x) by each of ``methods``,
    the rewritten risk of every loss, a sample (as its JSON bytes) and the
    sample's weight table."""
    cm = observed_distribution(spec, j)
    out = {f"observed.{f}": getattr(cm, f) for f in ("matrix", "transform", "observed",
                                                     "pair_matrix", "pair_confidence")}
    out["observed.pair"] = None if cm.pair is None else cm.pair.matrix
    for method in methods:
        dr = decontaminate(spec, j, method)
        out[f"{method}.matrices"], out[f"{method}.pair_matrices"] = dr.matrices, dr.pair_matrices
    model = seeded_model(j, 5, 0)
    for loss in LOSS_NAMES:
        out[f"risk.{loss}"] = np.float64(rewritten_risk(spec, j, model, LossSpec(loss)))
    ds = sample_weak_dataset(spec, j, 40, seed=1)
    out["sample"] = np.frombuffer(dataset_to_json(ds).encode(), np.uint8)
    out["weight_table"] = weight_table(ds, spec, j)
    return out


def _same_bits(a, b):
    if a is None or b is None:
        return a is b
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _fresh(j):
    """The same joint as a new object, which keeps no system yet."""
    return validate_joint(j.K, j.features, j.joint)


def _other_spec(name):
    """A setting valid on every joint of the scenarios' generator, other than ``name``."""
    return PCPL() if name == "CL" else CL()


@pytest.mark.parametrize("name", NAMES)
def test_every_public_kernel_validates_a_spec_once_per_joint(name, monkeypatch):
    spec, j = _case(name, 5)
    j, methods = _fresh(j), _methods(name)
    validated, real = [], wslrr.scenarios.validate_spec
    monkeypatch.setattr(wslrr.scenarios, "validate_spec", lambda *a: validated.append(1) or real(*a))
    _kernel_outputs(spec, j, methods)
    decontaminate(spec, j)
    assert len(validated) == 1


@pytest.mark.parametrize("name", NAMES)
def test_kept_systems_give_what_fresh_joints_give(name):
    """A -> B -> A on one joint returns, bit for bit, what each spec returns on
    a joint that has kept nothing."""
    a, j = _case(name, 5)
    b, methods = _other_spec(name), _methods(name)
    for spec in (a, b, a, a):
        got = _kernel_outputs(spec, j, methods if spec is a else ())
        ref = _kernel_outputs(spec, _fresh(j), methods if spec is a else ())
        assert got.keys() == ref.keys()
        for key in got:
            assert _same_bits(got[key], ref[key]), (spec.name, key)
        assert j.__dict__["_system"].spec is spec


@pytest.mark.parametrize("name", NAMES)
def test_an_equal_spec_object_takes_the_one_slot(name):
    spec, j = _case(name, 5)
    j = _fresh(j)
    decontaminate(spec, j)
    kept = j.__dict__["_system"]
    twin = make_spec(name, j, 17, 5)
    assert twin is not spec and specs_equal(twin, spec)
    decontaminate(twin, j)
    assert j.__dict__["_system"] is not kept and j.__dict__["_system"].spec is twin
    assert [type(v) for v in vars(j).values()].count(wslrr.scenarios._System) == 1


@pytest.mark.parametrize("name", NAMES)
def test_shared_results_are_read_only(name):
    spec, j = _case(name, 5)
    j, methods = _fresh(j), _methods(name)
    first, second = _kernel_outputs(spec, j, methods), _kernel_outputs(spec, j, methods)
    shared = [key for key in first if first[key] is not None and first[key] is second[key]]
    kept = {"observed.matrix", "observed.observed"} | {f"{m}.matrices" for m in methods}
    assert {k for k in kept if first[k] is not None} <= set(shared)
    for key in shared:
        assert not first[key].flags.writeable, key


def test_an_invalid_spec_raises_on_every_call_and_keeps_nothing():
    j = _fresh(scenario_joint("CL", 4, 5, 3, seed=17, trial=0))
    decontaminate(CL(), j)
    kept = j.__dict__["_system"]
    binary = scenario_joint("PU", 2, 5, 3, seed=17, trial=0)
    ds = sample_weak_dataset(PU(), binary, 20, seed=1)
    bad, model = PU(), seeded_model(j, 5, 0)
    calls = (lambda: observed_distribution(bad, j), lambda: decontaminate(bad, j),
             lambda: rewrite_table(bad, j), lambda: rewritten_risk(bad, j, model, LossSpec("logistic")),
             lambda: sample_weak_dataset(bad, j, 20, seed=1), lambda: weight_table(ds, bad, j))
    for _ in range(2):
        for call in calls:
            with pytest.raises(NotBinary):
                call()
            assert j.__dict__["_system"] is kept
