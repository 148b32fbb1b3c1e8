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
    CL,
    DU,
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
    base_distributions,
    channel_labels,
    compound_label_space,
    contamination_matrix,
    observed_distribution,
    pair_distribution,
    reduce_spec,
    scenario_from_json,
    scenario_to_json,
    sconf_confidence,
    specs_equal,
    transform_matrix,
    validate_spec,
)
from wslrr.verify import make_spec, random_joint


class TestCompoundLabelSpace:
    def test_k2(self):
        assert compound_label_space(2) == ((1,), (2,))

    def test_k3_order(self):
        assert compound_label_space(3) == ((1,), (2,), (3,), (1, 2), (1, 3), (2, 3))

    def test_too_large(self):
        with pytest.raises(KTooLarge):
            compound_label_space(9)
        assert len(compound_label_space(9, k_max=9)) == 2 ** 9 - 2

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
    def test_pu_base_is_class_conditionals(self, toy_joint):
        # spec's derivation oracle: 0.3/0.4 and 0.2/0.6
        b = base_distributions(PU(), marginals(toy_joint), 0)
        assert np.allclose(b, [0.3 / 0.4, 0.2 / 0.6], atol=1e-15)

    def test_cl_base_is_risk_vector(self, multi_joint):
        b = base_distributions(CL(), marginals(multi_joint), 2)
        assert np.allclose(b, multi_joint.joint[:, 2], atol=1e-15)

    def test_soft_base_uniform(self, uniform_joint):
        b = base_distributions(Soft(), marginals(uniform_joint), 1)
        assert np.allclose(b, [0.25, 0.25], atol=1e-15)

    def test_pu_transform_reciprocal_priors(self, toy_joint):
        t = transform_matrix(PU(), marginals(toy_joint), 0)
        assert np.allclose(t, np.diag([2.5, 5.0 / 3.0]), atol=1e-15)

    def test_ppl_transform_identity(self, multi_joint):
        m = marginals(multi_joint)
        t = transform_matrix(make_spec("PPL", multi_joint, 1, 0), m, 0)
        assert np.array_equal(t, np.eye(4))

    def test_mcd_transform_uniform(self, uniform_joint):
        t = transform_matrix(UU(gamma_1=0.1, gamma_2=0.2), marginals(uniform_joint), 0)
        assert np.allclose(t, np.diag([2.0, 2.0]))


class TestContaminationMatrix:
    def test_pu_matrix(self, toy_joint):
        mat = contamination_matrix(PU(), marginals(toy_joint), 0)
        assert np.allclose(mat, [[1.0, 0.0], [0.4, 0.6]], atol=1e-15)

    def test_uu_noise_free_is_identity(self, toy_joint):
        mat = contamination_matrix(UU(gamma_1=0.0, gamma_2=0.0), marginals(toy_joint), 0)
        assert np.array_equal(mat, np.eye(2))

    def test_cl_k4(self, multi_joint):
        mat = contamination_matrix(CL(), marginals(multi_joint), 0)
        assert np.array_equal(mat, (np.ones((4, 4)) - np.eye(4)) / 3.0)

    def test_mcl_column_stochastic(self, multi_joint):
        spec = make_spec("MCL", multi_joint, 7, 0)
        mat = contamination_matrix(spec, marginals(multi_joint), 0)
        assert mat.shape == (14, 4)
        assert np.allclose(mat.sum(axis=0), 1.0, atol=1e-12)

    def test_conf_diagonal(self, toy_joint):
        m = marginals(toy_joint)
        mat = contamination_matrix(Soft(), m, 1)
        assert np.allclose(mat, np.diag(1.0 / m.class_probabilities[:, 1]))

    def test_sconf_needs_pair(self, binary_joint):
        with pytest.raises(ShapeMismatch):
            contamination_matrix(Sconf(), marginals(binary_joint), 0)


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

    @pytest.mark.parametrize("make", [
        lambda: UU(gamma_1="0.1", gamma_2=0.2),
        lambda: UU(gamma_1=0.1, gamma_2=None),
        lambda: MCD(gamma_p=0.1, gamma_n=np.True_),
        lambda: SCConf(y_s=1.0),
        lambda: SCConf(y_s=False),
        lambda: SubConf(Y_s=(1, 2.5)),
        lambda: MCL(q=("0.5", 0.5)),
        lambda: MCL(q=(True, 0.0)),
    ])
    def test_wrongly_typed_params_on_construction(self, make):
        with pytest.raises(SchemaMismatch):
            make()

    def test_numpy_scalars_accepted(self):
        assert UU(gamma_1=np.float64(0.1), gamma_2=np.int64(0)).gamma_2 == 0
        assert MCD(gamma_p=np.float32(0.25), gamma_n=0).gamma_p == 0.25
        assert SCConf(y_s=np.int64(2)).y_s == 2 and type(SCConf(y_s=np.int64(2)).y_s) is int
        assert SubConf(Y_s=(np.int32(3), 1)).Y_s == (1, 3)


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

    def test_identity_product(self, multi_joint):
        spec = make_spec("GCCN", multi_joint, 3, 1)
        cm = observed_distribution(spec, multi_joint)
        for i in range(multi_joint.n_x):
            lhs = cm.matrix[i] @ cm.transform[i] @ multi_joint.joint[:, i]
            assert np.max(np.abs(lhs - cm.observed[i])) <= 1e-12


class TestPairDistributions:
    def test_similar_symmetric_normalized(self, binary_joint):
        q = pair_distribution(SU(), binary_joint).matrix
        assert np.array_equal(q, q.T)
        assert q.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(q >= 0.0)

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

    def test_same_label_pair_has_confidence_one(self):
        j = self._pure_label_joint()
        assert sconf_confidence(j, 0, 1) == pytest.approx(1.0, abs=1e-15)

    def test_opposite_pair_has_confidence_zero(self):
        j = self._pure_label_joint()
        assert sconf_confidence(j, 0, 2) == pytest.approx(0.0, abs=1e-15)

    def test_matches_label_pair_enumeration(self, binary_joint):
        m = marginals(binary_joint)
        for i, i2 in ((0, 1), (2, 3), (1, 4)):
            num = sum(binary_joint.joint[y, i] * binary_joint.joint[y, i2] for y in range(2))
            expect = num / (m.instance_marginal[i] * m.instance_marginal[i2])
            assert sconf_confidence(binary_joint, i, i2) == pytest.approx(expect, abs=1e-12)

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
        red = reduce_spec("UU", "PU", marginals(j))
        assert red.assignments == {"gamma_1": 0.0, "gamma_2": pytest.approx(0.4, abs=1e-15)}

    def test_mcl_to_cl_size_law(self, multi_joint):
        red = reduce_spec("MCL", "CL", marginals(multi_joint))
        assert red.assignments["q"] == (1.0, 0.0, 0.0)

    def test_not_an_edge(self, toy_joint):
        with pytest.raises(NotAnEdge):
            reduce_spec("UU", "CL", marginals(toy_joint))

    def test_ppl_to_mcl_row_map_is_complement(self, multi_joint):
        m = marginals(multi_joint)
        child = make_spec("MCL", multi_joint, 5, 0)
        red = reduce_spec("PPL", child, m)
        space = compound_label_space(4)
        for jdx, sbar in enumerate(space):
            partner = space[red.row_map[jdx]]
            assert set(partner) == set(range(1, 5)) - set(sbar)


class TestChannelsAndJson:
    def test_channel_orders(self, multi_joint):
        assert channel_labels(PU(), 2) == ("P", "U")
        assert channel_labels(Pcomp(), 2) == ("Sup", "Inf")
        assert channel_labels(CL(), 4) == ("1", "2", "3", "4")
        labels = channel_labels(PCPL(), 3)
        assert labels == ("1", "2", "3", "1,2", "1,3", "2,3")

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
        lhs = cm.matrix[i] @ cm.transform[i] @ j.joint[:, i]
        assert np.max(np.abs(lhs - cm.observed[i])) <= 1e-12
