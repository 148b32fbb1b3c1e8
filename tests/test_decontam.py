import numpy as np
import pytest

import wslrr.decontam
from wslrr.core import marginals, validate_joint
from wslrr.decontam import (
    METHOD_DIAGONAL,
    METHOD_INVERSION,
    METHOD_MARGINAL_CHAIN,
    METHOD_MCL_BLOCKWISE,
    METHOD_SCONF,
    _invert_stack,
    decontaminate,
    mcl_block,
    mcl_block_inverse,
    mcl_inverse,
)
from wslrr.errors import BadSize, DegenerateParams, NonSquare, Singular, WrongFamily
from wslrr.scenarios import (
    CCN,
    CL,
    MCL,
    PPL,
    PU,
    Pconf,
    SCConf,
    Sconf,
    Soft,
    UU,
    _System,
    _transform_diagonal,
    compound_label_space,
    observed_distribution,
)
from wslrr.risk import LossSpec, classification_risk, rewritten_risk
from wslrr.verify import (
    ABSTRACT_SCENARIO_NAMES,
    ALL_SCENARIO_NAMES,
    TOL_RISK,
    make_spec,
    random_joint,
    scenario_joint,
    seeded_model,
)

METHODS = {METHOD_INVERSION, METHOD_MARGINAL_CHAIN, METHOD_MCL_BLOCKWISE, METHOD_DIAGONAL, METHOD_SCONF}


class TestInvertSquare:
    """The batched inversion kernel on one-matrix stacks."""

    def test_matches_known_2x2(self):
        inv = _invert_stack(np.array([[[1.0, 0.0], [0.4, 0.6]]]))[0]
        assert np.allclose(inv, [[1.0, 0.0], [-2.0 / 3.0, 5.0 / 3.0]], atol=1e-15)

    def test_larger_system(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(5, 5)) + 5 * np.eye(5)
        assert np.max(np.abs(_invert_stack(a[None])[0] @ a - np.eye(5))) < 1e-12

    def test_non_square(self):
        with pytest.raises(NonSquare):
            _invert_stack(np.ones((1, 2, 3)))

    def test_singular(self):
        with pytest.raises(Singular):
            _invert_stack(np.array([[[1.0, 1.0], [1.0, 1.0]]]))


class TestInversion:
    def test_pu_decontamination(self, toy_joint):
        cm = observed_distribution(PU(), toy_joint)
        dag = decontaminate(PU(), toy_joint, METHOD_INVERSION).matrices[0]
        assert np.allclose(dag, [[0.4, 0.0], [-0.4, 1.0]], atol=1e-15)
        for i in range(toy_joint.n_x):
            assert np.max(np.abs(dag @ cm.observed[i] - toy_joint.joint[:, i])) <= 1e-12

    def test_identity_contamination(self, toy_joint):
        dag = decontaminate(UU(gamma_1=0.0, gamma_2=0.0), toy_joint, METHOD_INVERSION).matrices[0]
        # inverse of the reciprocal-prior transform alone
        assert np.allclose(dag, np.diag([0.4, 0.6]), atol=1e-15)

    def test_cl_k4_inverse(self, multi_joint):
        dag = decontaminate(CL(), multi_joint, METHOD_INVERSION).matrices[0]
        expect = np.ones((4, 4)) - 3.0 * np.eye(4)
        assert np.max(np.abs(dag - expect)) <= 1e-12

    @pytest.mark.parametrize("name", ["MCL", "GCCN", "PPL", "PCPL"])
    def test_more_channels_than_classes_is_non_square(self, name):
        j = random_joint(3, 5, 2, seed=11, stream=0)
        with pytest.raises(NonSquare):
            decontaminate(make_spec(name, j, 3, 0), j, METHOD_INVERSION)

    def test_collapsed_channels_are_singular(self, toy_joint):
        # a coin-flip label channel carries no class information
        flip = np.full((toy_joint.n_x, 2, 2), 0.5)
        with pytest.raises(Singular):
            decontaminate(CCN(flip=flip), toy_joint, METHOD_INVERSION)

    def test_near_degenerate_mixture_rejected_upfront(self, toy_joint):
        from wslrr.errors import DegenerateParams as DP

        with pytest.raises(DP):
            observed_distribution(UU(gamma_1=0.5, gamma_2=0.5 - 1e-14), toy_joint)


class TestMarginalChain:
    def test_cl_uniform(self):
        j = validate_joint(4, [[0.0]], np.full((4, 1), 0.25))
        dag = decontaminate(CL(), j, METHOD_MARGINAL_CHAIN).matrices[0]
        assert np.allclose(dag[~np.eye(4, dtype=bool)], 1.0 / 3.0, atol=1e-15)
        assert np.allclose(np.diag(dag), 0.0)

    def test_ppl_confidence_ratios(self):
        # r = (0.5, 0.3, 0.2) at the single instance; the {1,2} column
        j = validate_joint(3, [[0.0]], np.array([[0.5], [0.3], [0.2]]))
        spec = PPL(C=np.full((6, 1), 1.0 / 3.0))  # the uniform (proper) table
        dag = decontaminate(spec, j, METHOD_MARGINAL_CHAIN).matrices[0]
        col = dag[:, compound_label_space(3).index((1, 2))]
        assert np.allclose(col, [0.625, 0.375, 0.0], atol=1e-15)

    def test_zero_mass_channel_gets_zero_column(self, multi_joint):
        q = (1.0, 0.0, 0.0)  # only singleton exclusions ever observed
        dag = decontaminate(MCL(q=q), multi_joint, METHOD_MARGINAL_CHAIN).matrices
        assert np.array_equal(dag[:, :, 4:], np.zeros((multi_joint.n_x, 4, 10)))

    def test_wrong_family(self, toy_joint):
        with pytest.raises(WrongFamily):
            decontaminate(PU(), toy_joint, METHOD_MARGINAL_CHAIN)


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
    """The pair diagonal diag((r - pi_n)/(pi_p - pi_n), (pi_p - r)/(pi_p - pi_n))
    at pairs of known confidence r; it is undefined where r meets a prior."""

    def test_confidence_at_negative_prior(self):
        # x_0 is purely negative and P(- | x_1) = pi_n = 0.4, so r(x_0, x_1) = pi_n
        j = validate_joint(2, np.zeros((3, 1)), [[0.0, 0.3, 0.3], [0.2, 0.2, 0.0]])
        with pytest.raises(DegenerateParams, match="coincides with a prior"):
            decontaminate(Sconf(), j)

    def test_confidence_at_positive_prior(self):
        # x_0 is purely positive and P(+ | x_1) = pi_p = 0.6, so r(x_0, x_1) = pi_p
        j = validate_joint(2, np.zeros((3, 1)), [[0.2, 0.3, 0.1], [0.0, 0.2, 0.2]])
        with pytest.raises(DegenerateParams, match="coincides with a prior"):
            decontaminate(Sconf(), j)

    def test_interior_value(self):
        # pi_p = 0.6; x_0 is purely positive, P(+ | x_1) = 1/2 and x_2 is purely
        # negative, so r is 1, 1/2 and 0 on the pairs (x_0, x_0), (x_0, x_1), (x_0, x_2)
        j = validate_joint(2, np.zeros((3, 1)), [[0.4, 0.2, 0.0], [0.0, 0.2, 0.2]])
        d = decontaminate(Sconf(), j).pair_matrices[0]
        assert np.allclose(d[0], np.diag([3.0, -2.0]), atol=1e-12)
        assert np.allclose(d[1], np.diag([0.5, 0.5]), atol=1e-12)
        assert np.allclose(d[2], np.diag([-2.0, 3.0]), atol=1e-12)

    def test_degenerate_prior(self, uniform_joint):
        with pytest.raises(DegenerateParams):
            decontaminate(Sconf(), uniform_joint)

    def test_diagonal_reads_the_negative_prior(self):
        """Bit for bit the diagonal at pi_n = P(Y=2), on a joint where the
        rounded 1 - pi_p differs from it."""
        j = scenario_joint("Sconf", 2, 6, 2, seed=17, trial=3)
        pi_p, pi_n = j.joint[0].sum(), j.joint[1].sum()
        assert 1.0 - pi_p != pi_n
        r = observed_distribution(Sconf(), j).pair_confidence
        d = decontaminate(Sconf(), j).pair_matrices
        assert np.array_equal(d[..., 0, 0], (r - pi_n) / (pi_p - pi_n))
        assert np.array_equal(d[..., 1, 1], (pi_p - r) / (pi_p - pi_n))
        assert not np.any(d[..., [0, 1], [1, 0]])


class TestConfDiagonal:
    def test_soft_is_confidence_diagonal(self, toy_joint):
        m = marginals(toy_joint)
        dag = decontaminate(Soft(), toy_joint, METHOD_DIAGONAL).matrices[0]
        assert np.allclose(dag, np.diag(m.class_probabilities[:, 0]), atol=1e-15)

    def test_pconf_ratio(self):
        j = validate_joint(2, [[0.0], [1.0]][:2], [[0.4, 0.1], [0.1, 0.4]])
        dag = decontaminate(Pconf(), j, METHOD_DIAGONAL).matrices[0]
        assert np.allclose(dag, np.diag([1.0, 0.25]), atol=1e-14)

    def test_scconf_entries(self):
        j = validate_joint(3, [[0.0]], np.array([[0.3], [0.6], [0.1]]))
        dag = decontaminate(SCConf(y_s=2), j, METHOD_DIAGONAL).matrices[0]
        assert np.allclose(dag, np.diag([0.5, 1.0, 1.0 / 6.0]), atol=1e-14)


def _gauss_jordan(spec, j) -> np.ndarray:
    """Gauss-Jordan (or the 2x2 closed form) on the whole stack M(x) M_trsf."""
    s = _System(spec, j)
    return _invert_stack(s.tensor * _transform_diagonal(spec, s.m))


class TestDiagonalInversion:
    """The confidence family's M(x) M_trsf is diagonal at every x, and its
    declared diagonal is inverted entrywise, as Gauss-Jordan would: each row
    scales to a pivot of 1 with nothing to eliminate."""

    @pytest.mark.parametrize("nx", [5, 400])
    @pytest.mark.parametrize("K", range(3, 9))
    @pytest.mark.parametrize("name", ["SCConf", "SubConf", "Soft"])
    def test_bit_identical_to_gauss_jordan(self, name, K, nx):
        j = scenario_joint(name, K, nx, 2, 43, K)
        spec = make_spec(name, j, 43, K)
        got = decontaminate(spec, j, METHOD_INVERSION).matrices
        want = _gauss_jordan(spec, j)
        assert got.shape == want.shape == (nx, K, K) and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", ["Pconf", "Soft"])
    def test_binary_systems_within_one_ulp_of_the_closed_form(self, name):
        """At K = 2 the adjugate divides by a rounded determinant: an entry may
        move by 1 ulp, and an off-diagonal -0.0 becomes 0.0."""
        j = scenario_joint(name, 2, 400, 2, 43, 0)
        spec = make_spec(name, j, 43, 0)
        got, want = decontaminate(spec, j, METHOD_INVERSION).matrices, _gauss_jordan(spec, j)
        assert np.all(np.abs(got - want) <= np.spacing(np.abs(want)))

    def test_only_the_confidence_family_skips_gauss_jordan(self, monkeypatch):
        def refused(a):
            raise AssertionError("Gauss-Jordan ran")

        monkeypatch.setattr(wslrr.decontam, "_invert_stack", refused)
        for name, K in [("Pconf", 2), ("SCConf", 4), ("SubConf", 4), ("Soft", 4)]:
            j = scenario_joint(name, K, 30, 2, 43, 1)
            spec = make_spec(name, j, 43, 1)
            dag = decontaminate(spec, j, METHOD_INVERSION).matrices
            assert np.max(np.abs(dag @ _System(spec, j).tensor - np.eye(K))) < 1e-12
        for name, K in [("CCN", 2), ("CL", 4), ("MCD", 2)]:
            j = scenario_joint(name, K, 30, 2, 43, 1)
            with pytest.raises(AssertionError, match="Gauss-Jordan ran"):
                decontaminate(make_spec(name, j, 43, 1), j, METHOD_INVERSION)

    def test_zero_diagonal_entry_is_singular(self, monkeypatch):
        j = scenario_joint("Soft", 3, 5, 2, 43, 0)
        diagonal = Soft.diagonal
        monkeypatch.setattr(Soft, "diagonal", lambda self, m: diagonal(self, m) * (np.arange(5) != 2))
        with pytest.raises(Singular, match="all-zero row"):
            decontaminate(Soft(), j, METHOD_INVERSION)

    @pytest.mark.parametrize("name", ["Pconf", "SCConf", "SubConf", "Soft"])
    def test_rewritten_risk_equals_the_risk(self, name):
        ls = LossSpec("logistic")
        j = scenario_joint(name, 2 if name == "Pconf" else 4, 400, 3, 7, 1)
        model = seeded_model(j, 7, 1)
        risk = rewritten_risk(make_spec(name, j, 7, 1), j, model, ls, METHOD_INVERSION)
        assert abs(risk - classification_risk(j, model, ls)) <= TOL_RISK


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

    @pytest.mark.parametrize("name", ALL_SCENARIO_NAMES + ABSTRACT_SCENARIO_NAMES)
    def test_every_declared_method_is_accepted(self, name):
        """Every record attribute naming a decontamination method names one
        that decontaminates an admissible joint of the record."""
        j = scenario_joint(name, 4, 5, 2, seed=19, trial=1)
        spec = make_spec(name, j, 19, 1)
        declared = {getattr(spec, a) for a in dir(spec) if isinstance(getattr(spec, a), str)} & METHODS
        assert {spec.method, spec.estimator} <= declared
        for method in declared:
            rec = decontaminate(spec, j, method=method)
            assert rec.method == method

    @pytest.mark.parametrize("name", ["PU", "PPL", "PCPL", "GCCN", "Soft"])
    def test_blockwise_needs_cl_or_mcl(self, name, multi_joint, binary_joint):
        j = binary_joint if name == "PU" else multi_joint
        with pytest.raises(WrongFamily):
            decontaminate(make_spec(name, j, 5, 0), j, method=METHOD_MCL_BLOCKWISE)
