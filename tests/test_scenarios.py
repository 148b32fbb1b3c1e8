import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wslrr.core import marginals, validate_joint
from wslrr.errors import (
    DegenerateParams,
    KTooLarge,
    NotAnEdge,
    NotBinary,
    SchemaMismatch,
    ShapeMismatch,
    ValidationError,
)
from wslrr.scenarios import (
    CCN,
    CL,
    DU,
    GCCN,
    MCD,
    MCL,
    PCPL,
    PPL,
    PU,
    Pconf,
    Pcomp,
    SCConf,
    SD,
    SU,
    Sconf,
    Soft,
    SubConf,
    UU,
    compound_label_space,
    observed_distribution,
    pair_distribution,
    reduce_spec,
    scenario_from_json,
    scenario_to_json,
    specs_equal,
    validate_spec,
)
from wslrr.verify import make_spec, random_joint


class TestCompoundLabelSpace:
    def test_k2(self):
        assert compound_label_space(2) == ((1,), (2,))

    def test_k3_order(self):
        assert compound_label_space(3) == ((1,), (2,), (3,), (1, 2), (1, 3), (2, 3))

    def test_too_large(self):
        # K = 8 is the cap: its 254 labels are built, and K = 9's are refused
        assert len(compound_label_space(8)) == 2 ** 8 - 2 == 254
        with pytest.raises(KTooLarge):
            compound_label_space(9)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 7))
    def test_count_and_order(self, K):
        space = compound_label_space(K)
        assert len(space) == 2 ** K - 2
        assert len(set(space)) == len(space)
        sizes = [len(s) for s in space]
        assert sizes == sorted(sizes)
        for s in space:
            assert 1 <= len(s) <= K - 1 and all(1 <= c <= K for c in s)


class TestBaseAndTransform:
    """The base distributions B(x_i) = M_trsf P(x_i), read from the model's
    ``transform``, the one (b, K) matrix shared by every instance."""

    @staticmethod
    def _base(spec, j, i):
        return observed_distribution(spec, j).transform @ j.joint[:, i]

    def test_pu_base_is_class_conditionals(self, toy_joint):
        # spec's derivation oracle: 0.3/0.4 and 0.2/0.6
        assert np.allclose(self._base(PU(), toy_joint, 0), [0.3 / 0.4, 0.2 / 0.6], atol=1e-15)

    def test_cl_base_is_risk_vector(self, multi_joint):
        assert np.allclose(self._base(CL(), multi_joint, 2), multi_joint.joint[:, 2], atol=1e-15)

    def test_soft_base_uniform(self, uniform_joint):
        assert np.allclose(self._base(Soft(), uniform_joint, 1), [0.25, 0.25], atol=1e-15)

    def test_pu_transform_reciprocal_priors(self, toy_joint):
        t = observed_distribution(PU(), toy_joint).transform
        assert np.allclose(t, np.diag([2.5, 5.0 / 3.0]), atol=1e-15)

    def test_ppl_transform_identity(self, multi_joint):
        t = observed_distribution(make_spec("PPL", multi_joint, 1, 0), multi_joint).transform
        assert t.shape == (4, 4) and np.array_equal(t, np.eye(4))

    def test_mcd_transform_uniform(self, uniform_joint):
        t = observed_distribution(UU(gamma_1=0.1, gamma_2=0.2), uniform_joint).transform
        assert np.allclose(t, np.diag([2.0, 2.0]))


class TestContaminationMatrix:
    def test_pu_matrix(self, toy_joint):
        mat = observed_distribution(PU(), toy_joint).matrix
        assert np.allclose(mat, [[1.0, 0.0], [0.4, 0.6]], atol=1e-15)

    def test_uu_noise_free_is_identity(self, toy_joint):
        mat = observed_distribution(UU(gamma_1=0.0, gamma_2=0.0), toy_joint).matrix
        assert np.array_equal(mat, np.broadcast_to(np.eye(2), mat.shape))

    def test_cl_k4(self, multi_joint):
        mat = observed_distribution(CL(), multi_joint).matrix
        assert np.array_equal(mat, np.broadcast_to((np.ones((4, 4)) - np.eye(4)) / 3.0, mat.shape))

    def test_mcl_column_stochastic(self, multi_joint):
        spec = make_spec("MCL", multi_joint, 7, 0)
        mat = observed_distribution(spec, multi_joint).matrix
        assert mat.shape == (multi_joint.n_x, 14, 4)
        assert np.allclose(mat.sum(axis=1), 1.0, atol=1e-12)

    def test_conf_diagonal(self, toy_joint):
        m = marginals(toy_joint)
        mat = observed_distribution(Soft(), toy_joint).matrix[1]
        assert np.allclose(mat, np.diag(1.0 / m.class_probabilities[:, 1]))

    @pytest.mark.parametrize("make, joint, expect", [
        # mixture family: rows are the channels' weights on (p(x|+), p(x|-)); p = priors
        (lambda: UU(gamma_1=0.2, gamma_2=0.3), "toy_joint", lambda p, r: [[0.8, 0.2], [0.3, 0.7]]),
        (lambda: MCD(gamma_p=0.1, gamma_n=0.25), "binary_joint", lambda p, r: [[0.9, 0.1], [0.25, 0.75]]),
        (SU, "toy_joint", lambda p, r: [[p[0] ** 2 / (p[0] ** 2 + p[1] ** 2),
                                         p[1] ** 2 / (p[0] ** 2 + p[1] ** 2)], [p[0], p[1]]]),
        (DU, "binary_joint", lambda p, r: [[0.5, 0.5], [p[0], p[1]]]),
        (SD, "binary_joint", lambda p, r: [[p[0] ** 2 / (p[0] ** 2 + p[1] ** 2),
                                            p[1] ** 2 / (p[0] ** 2 + p[1] ** 2)], [0.5, 0.5]]),
        (Pcomp, "toy_joint", lambda p, r: [[p[0] / (p[0] + p[1] ** 2), p[1] ** 2 / (p[0] + p[1] ** 2)],
                                           [p[0] ** 2 / (p[0] ** 2 + p[1]), p[1] / (p[0] ** 2 + p[1])]]),
        # PCPL: every compound label holding the class, uniformly: 1 / (2^(K-1) - 1)
        (PCPL, "multi_joint", lambda p, r: [[float(k in s) / 7.0 for k in (1, 2, 3, 4)]
                                            for d in (1, 2, 3) for s in itertools.combinations((1, 2, 3, 4), d)]),
        # confidence family: diag(P(super-class | x) / P(Y=k | x))
        (lambda: SCConf(y_s=2), "multi_joint", lambda p, r: np.diag(r[1] / r)),
        (lambda: SubConf(Y_s=(1, 3)), "multi_joint", lambda p, r: np.diag((r[0] + r[2]) / r)),
    ])
    def test_paper_matrices(self, make, joint, expect, request):
        j = request.getfixturevalue(joint)
        p = [float(v) for v in j.joint.sum(axis=1)]
        mats = observed_distribution(make(), j).matrix
        for i in range(j.n_x):
            r = j.joint[:, i] / j.joint[:, i].sum()
            assert np.max(np.abs(mats[i] - np.array(expect(p, r)))) <= 1e-15

    def test_sconf_needs_pair(self, binary_joint):
        # Sconf is pair-shaped: one 2x2 matrix per pair, none per instance
        cm = observed_distribution(Sconf(), binary_joint)
        n = binary_joint.n_x
        assert cm.matrix is None and cm.observed is None
        assert cm.pair_matrix.shape == (n, n, 2, 2) and cm.pair_confidence.shape == (n, n)


class TestSpecValidation:
    def test_uu_degenerate(self, toy_joint):
        with pytest.raises(DegenerateParams):
            validate_spec(UU(gamma_1=0.4, gamma_2=0.6), marginals(toy_joint))

    def test_binary_only(self, multi_joint):
        with pytest.raises(NotBinary):
            validate_spec(PU(), marginals(multi_joint))

    def test_su_needs_offcenter_prior(self, uniform_joint):
        with pytest.raises(DegenerateParams):
            validate_spec(SU(), marginals(uniform_joint))

    def test_ppl_properness_enforced(self, multi_joint):
        m = marginals(multi_joint)
        n_s = len(compound_label_space(4))
        with pytest.raises(DegenerateParams):
            validate_spec(PPL(C=np.full((n_s, multi_joint.n_x), 0.05)), m)

    def test_mcl_q_must_be_distribution(self, multi_joint):
        with pytest.raises(DegenerateParams):
            validate_spec(MCL(q=(0.5, 0.2, 0.1)), marginals(multi_joint))

    def test_subconf_strict_subset(self, multi_joint):
        with pytest.raises(DegenerateParams):
            validate_spec(SubConf(Y_s=(1, 2, 3, 4)), marginals(multi_joint))

    # each record's own checks, one row per branch: (K, spec, error, message);
    # the K = 2 joint has 5 instances, the K = 4 joint 6
    @pytest.mark.parametrize("K, make, error, match", [
        (2, lambda: MCD(1.5, 0.1), DegenerateParams, "MCD mixing rates must lie in"),
        (2, lambda: MCD(0.6, 0.5), DegenerateParams, r"gamma_p \+ gamma_n < 1"),
        (2, lambda: UU(1.5, 0.1), DegenerateParams, "UU mixing rates must lie in"),
        (2, lambda: CCN(np.full((1, 2, 2), 0.5)), ShapeMismatch, r"CCN flip tensor must be \(5, 2, 2\)"),
        (4, lambda: GCCN(np.full((6, 2, 4), 0.5)), ShapeMismatch, r"GCCN cond tensor must be \(6, 14, 4\)"),
        (4, lambda: PPL(np.full((14, 1), 0.5)), ShapeMismatch, r"PPL weight table must be \(14, 6\)"),
        (4, lambda: MCL((0.5, 0.5)), ShapeMismatch, "K-1=3 entries"),
        (4, lambda: SubConf(()), DegenerateParams, "must be nonempty"),
        (4, lambda: SubConf((1, 9)), ShapeMismatch, "not a set of classes"),
        (4, lambda: SubConf((1, 1)), ShapeMismatch, "not a set of classes"),
        (4, lambda: SCConf(9), ShapeMismatch, "outside 1..4"),
    ])
    def test_record_checks_raise_their_typed_error(self, K, make, error, match, binary_joint, multi_joint):
        with pytest.raises(error, match=match):
            validate_spec(make(), marginals(binary_joint if K == 2 else multi_joint))

    @pytest.mark.parametrize("make", [
        lambda: UU(gamma_1="0.1", gamma_2=0.2),
        lambda: UU(gamma_1=0.1, gamma_2=None),
        lambda: MCD(gamma_p=0.1, gamma_n=np.True_),
        lambda: SCConf(y_s=1.0),
        lambda: SCConf(y_s=False),
        lambda: SubConf(Y_s=(1, 2.5)),
        lambda: MCL(q=("0.5", 0.5)),
        lambda: MCL(q=(True, 0.0)),
        lambda: SubConf(Y_s=1),
        lambda: MCL(q=0.5),
        lambda: CCN(flip=[["a"]]),
        lambda: GCCN(cond=[[1], [1, 2]]),
        lambda: PPL(C=[["x"]]),
        lambda: PPL(C={"a": 1}),
        lambda: CCN(flip=[[["0.9", "0.2"], ["0.1", "0.8"]]]),
        lambda: GCCN(cond=np.ones((1, 2, 2), dtype=bool)),
        lambda: PPL(C=[[True, False]]),
        lambda: PPL(C=[[0.5, None]]),
    ])
    def test_wrongly_typed_params_on_construction(self, make):
        with pytest.raises(SchemaMismatch):
            make()

    @pytest.mark.parametrize("name, field", [("MCL", "q"), ("CCN", "flip"), ("GCCN", "cond"), ("PPL", "C")])
    def test_nan_params_are_degenerate(self, name, field, multi_joint, binary_joint):
        # every comparison with NaN is false, so NaN entries must be refused explicitly
        j = binary_joint if name == "CCN" else multi_joint
        spec = make_spec(name, j, 3, 0)
        values = np.array(getattr(spec, field), dtype=np.float64)
        values.flat[0] = np.nan
        bad = type(spec)(**{field: tuple(values) if name == "MCL" else values})
        with pytest.raises(DegenerateParams):
            validate_spec(bad, marginals(j))
        with pytest.raises(DegenerateParams):
            observed_distribution(bad, j)

    def test_numpy_scalars_accepted(self):
        assert UU(gamma_1=np.float64(0.1), gamma_2=np.int64(0)).gamma_2 == 0
        assert MCD(gamma_p=np.float32(0.25), gamma_n=0).gamma_p == 0.25
        assert SCConf(y_s=np.int64(2)).y_s == 2 and type(SCConf(y_s=np.int64(2)).y_s) is int
        assert SubConf(Y_s=(np.int32(3), 1)).Y_s == (1, 3)

    @pytest.mark.parametrize("cls, field, shape", [(CCN, "flip", (1, 2, 2)), (GCCN, "cond", (1, 2, 2)),
                                                   (PPL, "C", (2, 3))])
    def test_array_params_are_the_specs_own_read_only_copy(self, cls, field, shape):
        a = np.full(shape, 0.5)
        spec = cls(**{field: a})
        held = getattr(spec, field)
        assert held.dtype == np.float64 and not np.shares_memory(held, a)
        a[(0,) * a.ndim] = 7.0  # the caller's later write does not reach the spec
        assert np.array_equal(held, np.full(shape, 0.5))
        with pytest.raises(ValueError):  # and the spec's array refuses one in place
            held[(0,) * a.ndim] = 7.0
        assert not getattr(cls(**{field: np.ones(shape, dtype=np.int64)}), field).flags.writeable


class TestObservedDistribution:
    def test_pu_channels(self, toy_joint):
        cm = observed_distribution(PU(), toy_joint)
        m = marginals(toy_joint)
        assert cm.channels == ("P", "U")
        assert np.allclose(cm.observed[:, 0], m.class_conditionals[0], atol=1e-12)
        assert np.allclose(cm.observed[:, 1], m.instance_marginal, atol=1e-12)

    def test_uu_noise_free_observes_conditionals(self, toy_joint):
        cm = observed_distribution(UU(gamma_1=0.0, gamma_2=0.0), toy_joint)
        m = marginals(toy_joint)
        assert np.allclose(cm.observed.T, m.class_conditionals, atol=1e-15)

    def test_cl_channel_masses(self):
        j = validate_joint(4, [[0.0]], np.full((4, 1), 0.25))
        cm = observed_distribution(CL(), j)
        # each complementary channel carries (sum of the other three masses)/3
        assert np.allclose(cm.observed[0], 0.25, atol=1e-15)

    @pytest.mark.parametrize("name,field", [("CCN", "flip"), ("GCCN", "cond"), ("PPL", "C")])
    def test_matrix_is_not_the_record_array(self, name, field, multi_joint):
        j = random_joint(2, multi_joint.n_x, 3, seed=5, stream=0) if name == "CCN" else multi_joint
        spec = make_spec(name, j, 3, 1)
        assert not np.shares_memory(observed_distribution(spec, j).matrix, getattr(spec, field))

    def test_identity_product(self, multi_joint):
        spec = make_spec("GCCN", multi_joint, 3, 1)
        cm = observed_distribution(spec, multi_joint)
        for i in range(multi_joint.n_x):
            lhs = cm.matrix[i] @ cm.transform @ multi_joint.joint[:, i]
            assert np.max(np.abs(lhs - cm.observed[i])) <= 1e-12


class TestPairDistributions:
    def test_similar_symmetric_normalized(self, binary_joint):
        q = pair_distribution(SU(), binary_joint).matrix
        assert np.array_equal(q, q.T)
        assert q.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(q >= 0.0)

    @pytest.mark.parametrize("nx", [9, 400])
    @pytest.mark.parametrize("spec, channel", [(SU(), "S"), (SD(), "S"), (DU(), "D"), (SD(), "D"), (Sconf(), "XX")])
    def test_a_symmetric_law_is_exactly_symmetric(self, spec, channel, nx):
        q = pair_distribution(spec, random_joint(2, nx, 3, seed=41, stream=nx), channel).matrix
        assert np.array_equal(q, q.T)

    def test_uniform_joint_pair_law_is_defined(self, uniform_joint):
        # the pair law itself does not need the prior away from 1/2
        q = pair_distribution(SU(), uniform_joint).matrix
        assert np.array_equal(q, q.T)
        assert q.sum() == pytest.approx(1.0, abs=1e-12)

    def test_dissimilar_diagonal_formula(self, binary_joint):
        m = marginals(binary_joint)
        q = pair_distribution(DU(), binary_joint).matrix
        for i in range(binary_joint.n_x):
            expect = m.class_conditionals[0, i] * m.class_conditionals[1, i]
            assert q[i, i] == pytest.approx(expect, abs=1e-15)

    def test_pcomp_denominator(self):
        j = validate_joint(2, [[0.0], [1.0]][:2], [[0.3, 0.2], [0.2, 0.3]])
        m = marginals(j)
        q = pair_distribution(Pcomp(), j).matrix
        cp, cn = m.class_conditionals[0], m.class_conditionals[1]
        expect = (0.25 * np.outer(cp, cp) + 0.25 * np.outer(cp, cn)
                  + 0.25 * np.outer(cn, cn)) / 0.75
        assert np.allclose(q, expect, atol=1e-15)

    def test_sd_requires_channel(self, binary_joint):
        with pytest.raises(ValidationError):
            pair_distribution(SD(), binary_joint)
        assert pair_distribution(SD(), binary_joint, channel="D").tag == "D"

    def test_not_binary(self, multi_joint):
        with pytest.raises(NotBinary):
            pair_distribution(SU(), multi_joint)


class TestSconfConfidence:
    @staticmethod
    def _pure_label_joint():
        # instances 0, 1 purely positive; instance 2 purely negative
        feats = [[0.0], [1.0], [2.0]]
        return validate_joint(2, feats, [[0.3, 0.3, 0.0], [0.0, 0.0, 0.4]])

    @staticmethod
    def _confidence(j):
        return observed_distribution(Sconf(), j).pair_confidence

    def test_same_label_pair_has_confidence_one(self):
        assert self._confidence(self._pure_label_joint())[0, 1] == pytest.approx(1.0, abs=1e-15)

    def test_opposite_pair_has_confidence_zero(self):
        assert self._confidence(self._pure_label_joint())[0, 2] == pytest.approx(0.0, abs=1e-15)

    def test_matches_label_pair_enumeration(self, binary_joint):
        m = marginals(binary_joint)
        conf = self._confidence(binary_joint)
        for i in range(binary_joint.n_x):
            for i2 in range(binary_joint.n_x):
                num = sum(binary_joint.joint[y, i] * binary_joint.joint[y, i2] for y in range(2))
                expect = num / (m.instance_marginal[i] * m.instance_marginal[i2])
                assert conf[i, i2] == pytest.approx(expect, abs=1e-12)

    def test_sconf_rows_hit_pair_mass(self, binary_joint):
        m = marginals(binary_joint)
        cm = observed_distribution(Sconf(), binary_joint)
        for i in range(binary_joint.n_x):
            b = m.class_conditionals[:, i]
            for i2 in range(binary_joint.n_x):
                target = m.instance_marginal[i] * m.instance_marginal[i2]
                assert np.max(np.abs(cm.pair_matrix[i, i2] @ b - target)) <= 1e-12


class TestReduce:
    def test_uu_to_pu_assignments(self):
        j = validate_joint(2, [[0.0], [1.0]][:2], [[0.3, 0.1], [0.2, 0.4]])
        red = reduce_spec(PU(), marginals(j))
        assert red.assignments == {"gamma_1": 0.0, "gamma_2": pytest.approx(0.4, abs=1e-15)}

    def test_mcl_to_cl_size_law(self, multi_joint):
        red = reduce_spec(CL(), marginals(multi_joint))
        assert red.assignments["q"] == (1.0, 0.0, 0.0)

    def test_not_an_edge(self, toy_joint):
        # a root of the graph has no parent, and Sconf is not on the graph
        for spec in (UU(gamma_1=0.2, gamma_2=0.3), Sconf()):
            with pytest.raises(NotAnEdge):
                reduce_spec(spec, marginals(toy_joint))

    def test_binary_only_child_on_more_classes(self, multi_joint):
        # CCN -> GCCN needs the 2x2 flips, so a K = 4 joint is refused, not reduced
        with pytest.raises(NotBinary, match="CCN requires K=2, got K=4"):
            reduce_spec(CCN(np.full((6, 2, 2), 0.5)), marginals(multi_joint))

    def test_uu_to_mcd_carries_the_rates_over(self, toy_joint):
        red = reduce_spec(MCD(gamma_p=0.2, gamma_n=0.3), marginals(toy_joint))
        assert red.assignments == {"gamma_p": 0.2, "gamma_n": 0.3}
        assert specs_equal(red.parent, UU(gamma_1=0.2, gamma_2=0.3))

    def test_ppl_to_mcl_row_map_is_complement(self, multi_joint):
        m = marginals(multi_joint)
        child = make_spec("MCL", multi_joint, 5, 0)
        red = reduce_spec(child, m)
        space = compound_label_space(4)
        for jdx, sbar in enumerate(space):
            partner = space[red.row_map[jdx]]
            assert set(partner) == set(range(1, 5)) - set(sbar)


class TestChannelsAndJson:
    def test_channel_orders(self, multi_joint):
        assert PU().labels(2) == ("P", "U")
        assert Pcomp().labels(2) == ("Sup", "Inf")
        assert CL().labels(4) == ("1", "2", "3", "4")
        assert PCPL().labels(3) == ("1", "2", "3", "1,2", "1,3", "2,3")
        assert observed_distribution(CL(), multi_joint).channels == ("1", "2", "3", "4")

    def test_round_trip_simple(self):
        spec = UU(gamma_1=0.25, gamma_2=0.125)
        assert specs_equal(scenario_from_json(scenario_to_json(spec)), spec)

    def test_round_trip_table(self, multi_joint):
        spec = make_spec("PPL", multi_joint, 9, 2)
        back = scenario_from_json(scenario_to_json(spec))
        assert specs_equal(back, spec)

    def test_aliases(self):
        assert isinstance(scenario_from_json('{"name": "sub-conf", "params": {"Y_s": [1]}}'), SubConf)
        assert isinstance(scenario_from_json('{"name": "pconf", "params": {}}'), Pconf)

    def test_unknown_name(self):
        with pytest.raises(SchemaMismatch):
            scenario_from_json('{"name": "nope", "params": {}}')

    def test_unknown_param(self):
        with pytest.raises(SchemaMismatch):
            scenario_from_json('{"name": "UU", "params": {"gamma_1": 0.1, "gamma_2": 0.1, "x": 1}}')


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_observed_equals_matrix_product_everywhere(seed):
    """The defining identity holds for seeded joints and scenario params."""
    j = random_joint(3, 4, 2, seed=seed, stream=2)
    spec = make_spec("PCPL", j, seed, 0)
    cm = observed_distribution(spec, j)
    for i in range(j.n_x):
        lhs = cm.matrix[i] @ cm.transform @ j.joint[:, i]
        assert np.max(np.abs(lhs - cm.observed[i])) <= 1e-12
