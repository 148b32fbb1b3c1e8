import numpy as np
import pytest

from wslrr.core import marginals, validate_joint
from wslrr.decontam import (
    METHOD_INVERSION,
    METHOD_MARGINAL_CHAIN,
    METHOD_MCL_BLOCKWISE,
    conf_diagonal_inverse,
    decontaminate,
    decontaminate_inversion,
    decontaminate_marginal_chain,
    invert_square,
    mcl_block,
    mcl_block_inverse,
    mcl_inverse,
    sconf_decontamination,
)
from wslrr.errors import BadSize, DegenerateParams, NonSquare, Singular, WrongFamily
from wslrr.scenarios import (
    CL,
    MCL,
    PPL,
    PU,
    Pconf,
    SCConf,
    Soft,
    UU,
    compound_label_space,
    observed_distribution,
)
from wslrr.verify import make_spec, random_joint


class TestInvertSquare:
    def test_matches_known_2x2(self):
        inv = invert_square(np.array([[1.0, 0.0], [0.4, 0.6]]))
        assert np.allclose(inv, [[1.0, 0.0], [-2.0 / 3.0, 5.0 / 3.0]], atol=1e-15)

    def test_larger_system(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(5, 5)) + 5 * np.eye(5)
        assert np.max(np.abs(invert_square(a) @ a - np.eye(5))) < 1e-12

    def test_non_square(self):
        with pytest.raises(NonSquare):
            invert_square(np.ones((2, 3)))

    def test_singular(self):
        with pytest.raises(Singular):
            invert_square(np.array([[1.0, 1.0], [1.0, 1.0]]))


class TestInversion:
    def test_pu_decontamination(self, toy_joint):
        cm = observed_distribution(PU(), toy_joint)
        dag = decontaminate_inversion(cm, 0)
        assert np.allclose(dag, [[0.4, 0.0], [-0.4, 1.0]], atol=1e-15)
        for i in range(toy_joint.n_x):
            assert np.max(np.abs(dag @ cm.observed[i] - toy_joint.joint[:, i])) <= 1e-12

    def test_identity_contamination(self, toy_joint):
        cm = observed_distribution(UU(gamma_1=0.0, gamma_2=0.0), toy_joint)
        dag = decontaminate_inversion(cm, 0)
        # inverse of the reciprocal-prior transform alone
        assert np.allclose(dag, np.diag([0.4, 0.6]), atol=1e-15)

    def test_cl_k4_inverse(self, multi_joint):
        cm = observed_distribution(CL(), multi_joint)
        dag = decontaminate_inversion(cm, 0)
        expect = np.ones((4, 4)) - 3.0 * np.eye(4)
        assert np.max(np.abs(dag - expect)) <= 1e-12

    def test_collapsed_channels_are_singular(self, toy_joint):
        # a coin-flip label channel carries no class information
        from wslrr.scenarios import CCN

        flip = np.full((toy_joint.n_x, 2, 2), 0.5)
        cm = observed_distribution(CCN(flip=flip), toy_joint)
        with pytest.raises(Singular):
            decontaminate_inversion(cm, 0)

    def test_near_degenerate_mixture_rejected_upfront(self, toy_joint):
        from wslrr.errors import DegenerateParams as DP

        with pytest.raises(DP):
            observed_distribution(UU(gamma_1=0.5, gamma_2=0.5 - 1e-14), toy_joint)


class TestMarginalChain:
    def test_cl_uniform(self):
        j = validate_joint(4, [[0.0]], np.full((4, 1), 0.25))
        dag = decontaminate_marginal_chain(CL(), j, 0)
        assert np.allclose(dag[~np.eye(4, dtype=bool)], 1.0 / 3.0, atol=1e-15)
        assert np.allclose(np.diag(dag), 0.0)

    def test_ppl_confidence_ratios(self):
        # r = (0.5, 0.3, 0.2) at the single instance; the {1,2} column
        j = validate_joint(3, [[0.0]], np.array([[0.5], [0.3], [0.2]]))
        spec = PPL(C=np.full((6, 1), 1.0 / 3.0))  # the uniform (proper) table
        dag = decontaminate_marginal_chain(spec, j, 0)
        col = dag[:, compound_label_space(3).index((1, 2))]
        assert np.allclose(col, [0.625, 0.375, 0.0], atol=1e-15)

    def test_zero_mass_channel_gets_zero_column(self, multi_joint):
        q = (1.0, 0.0, 0.0)  # only singleton exclusions ever observed
        dag = decontaminate_marginal_chain(MCL(q=q), multi_joint, 0)
        assert np.array_equal(dag[:, 4:], np.zeros((4, 10)))

    def test_wrong_family(self, toy_joint):
        with pytest.raises(WrongFamily):
            decontaminate_marginal_chain(PU(), toy_joint, 0)


class TestMclBlocks:
    def test_k4_d1(self):
        inv = mcl_block_inverse(4, 1)
        assert np.array_equal(inv, np.ones((4, 4)) - 3.0 * np.eye(4))

    def test_k3_d2_entries_and_identity(self):
        inv = mcl_block_inverse(3, 2)
        assert set(np.unique(inv)) == {0.0, 1.0}
        assert np.max(np.abs(inv @ mcl_block(3, 2) - np.eye(3))) <= 1e-12

    @pytest.mark.parametrize("K", range(2, 7))
    def test_left_inverse_everywhere(self, K):
        for d in range(1, K):
            prod = mcl_block_inverse(K, d) @ mcl_block(K, d)
            assert np.max(np.abs(prod - np.eye(K))) <= 1e-12

    def test_bad_size(self):
        with pytest.raises(BadSize):
            mcl_block_inverse(4, 4)

    def test_mcl_inverse_reduces_to_cl_block(self):
        inv = mcl_inverse(MCL(q=(1.0, 0.0, 0.0)), 4)
        assert inv.shape == (4, 14)
        assert np.array_equal(inv[:, :4], mcl_block_inverse(4, 1))

    def test_mcl_inverse_left_inverts(self, multi_joint):
        spec = make_spec("MCL", multi_joint, 11, 0)
        inv = mcl_inverse(spec, 4)
        cm = observed_distribution(spec, multi_joint)
        prod = inv @ cm.matrix[0]
        assert np.max(np.abs(prod - np.eye(4))) <= 1e-12

    def test_k2_shape(self):
        assert mcl_inverse(MCL(q=(1.0,)), 2).shape == (2, 2)


class TestSconfDecontamination:
    def test_confidence_at_negative_prior(self):
        assert np.allclose(sconf_decontamination(0.7, 0.3), np.diag([0.0, 1.0]), atol=1e-15)

    def test_confidence_at_positive_prior(self):
        assert np.allclose(sconf_decontamination(0.7, 0.7), np.diag([1.0, 0.0]), atol=1e-15)

    def test_interior_value(self):
        assert np.allclose(sconf_decontamination(0.6, 0.5), np.diag([0.5, 0.5]), atol=1e-12)

    def test_degenerate_prior(self):
        with pytest.raises(DegenerateParams):
            sconf_decontamination(0.5, 0.4)


class TestConfDiagonal:
    def test_soft_is_confidence_diagonal(self, toy_joint):
        m = marginals(toy_joint)
        dag = conf_diagonal_inverse(Soft(), m, 0)
        assert np.allclose(dag, np.diag(m.class_probabilities[:, 0]), atol=1e-15)

    def test_pconf_ratio(self):
        j = validate_joint(2, [[0.0], [1.0]][:2], [[0.4, 0.1], [0.1, 0.4]])
        m = marginals(j)
        dag = conf_diagonal_inverse(Pconf(), m, 0)
        assert np.allclose(dag, np.diag([1.0, 0.25]), atol=1e-14)

    def test_scconf_entries(self):
        j = validate_joint(3, [[0.0]], np.array([[0.3], [0.6], [0.1]]))
        dag = conf_diagonal_inverse(SCConf(y_s=2), marginals(j), 0)
        assert np.allclose(dag, np.diag([0.5, 1.0, 1.0 / 6.0]), atol=1e-14)


class TestDecontaminateDispatch:
    @pytest.mark.parametrize("name,method", [
        ("PU", METHOD_INVERSION), ("CL", METHOD_MARGINAL_CHAIN),
        ("Soft", "conf-diagonal"), ("MCL", METHOD_MCL_BLOCKWISE),
    ])
    def test_methods_reconstruct(self, name, method, multi_joint, binary_joint):
        j = binary_joint if name in ("PU",) else multi_joint
        spec = make_spec(name, j, 5, 0)
        cm = observed_distribution(spec, j)
        dr = decontaminate(spec, j, method=method)
        for i in range(j.n_x):
            rec = dr.matrices[i] @ cm.observed[i]
            assert np.max(np.abs(rec - j.joint[:, i])) <= 1e-12

    def test_auto_matches_family_default(self, binary_joint):
        assert decontaminate(PU(), binary_joint).method == METHOD_INVERSION
        assert decontaminate(CL(), random_joint(4, 4, 2, 1, 0)).method == METHOD_MARGINAL_CHAIN

    def test_wrong_method_family(self, binary_joint):
        with pytest.raises(WrongFamily):
            decontaminate(PU(), binary_joint, method=METHOD_MARGINAL_CHAIN)

    @pytest.mark.parametrize("K", [2, 3, 4, 6])
    def test_cl_blockwise_is_the_size_one_block(self, K):
        # the MCL -> CL edge: CL keeps only the excluded sets of size 1
        j = random_joint(K, 5, 2, seed=8, stream=K)
        dr = decontaminate(CL(), j, method=METHOD_MCL_BLOCKWISE)
        assert dr.matrices.shape == (j.n_x, K, K)
        for i in range(j.n_x):
            assert np.array_equal(dr.matrices[i], mcl_block_inverse(K, 1))
        rec = dr.matrices @ observed_distribution(CL(), j).observed[:, :, None]
        assert np.max(np.abs(rec[:, :, 0] - j.joint.T)) <= 1e-12

    @pytest.mark.parametrize("name", ["PU", "PPL", "PCPL", "GCCN", "Soft"])
    def test_blockwise_needs_cl_or_mcl(self, name, multi_joint, binary_joint):
        j = binary_joint if name == "PU" else multi_joint
        with pytest.raises(WrongFamily):
            decontaminate(make_spec(name, j, 5, 0), j, method=METHOD_MCL_BLOCKWISE)
