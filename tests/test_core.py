import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wslrr.core import (
    joint_from_json,
    joint_to_json,
    marginals,
    validate_joint,
)
from wslrr.errors import (
    EmptyClass,
    NegativeEntry,
    NonNormalized,
    ParseError,
    SchemaMismatch,
    ShapeMismatch,
    ZeroInstanceMass,
)

FEATS2 = [[0.0, 1.0], [1.0, 0.0]]


class TestValidateJoint:
    def test_uniform_joint_valid(self):
        j = validate_joint(2, FEATS2, [[0.25, 0.25], [0.25, 0.25]])
        assert j.K == 2 and j.n_x == 2 and j.d_feat == 2

    def test_non_normalized(self):
        with pytest.raises(NonNormalized):
            validate_joint(2, FEATS2, [[0.6, 0.6], [0.0, 0.0]])

    def test_huge_entries_refused_without_an_overflow_warning(self):
        # pyproject turns warnings into errors, so an overflow in the sum fails this test
        with pytest.raises(NonNormalized):
            validate_joint(2, FEATS2, [[1e308, 1e308], [1e308, 1e308]])

    def test_zero_instance_mass(self):
        feats = [[0.0], [1.0], [2.0]]
        with pytest.raises(ZeroInstanceMass):
            validate_joint(3, feats, [[0.5, 0.0, 0.1], [0.2, 0.0, 0.1], [0.05, 0.0, 0.05]])

    def test_negative_entry(self):
        with pytest.raises(NegativeEntry):
            validate_joint(2, FEATS2, [[0.6, 0.5], [-0.05, -0.05]])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            validate_joint(3, FEATS2, [[0.5, 0.5], [0.0, 0.0]])

    def test_arrays_frozen(self):
        j = validate_joint(2, FEATS2, [[0.25, 0.25], [0.25, 0.25]])
        with pytest.raises(ValueError):
            j.joint[0, 0] = 1.0

    def test_caller_arrays_are_copied(self):
        feats = np.array(FEATS2)
        a = np.array([[0.3, 0.1], [0.2, 0.4]])
        j = validate_joint(2, feats, a)
        assert j.joint is not a and j.features is not feats
        assert a.flags.writeable and feats.flags.writeable
        priors = marginals(j).priors.copy()
        a[0, 0] = 0.5
        feats[0, 0] = 9.0
        assert j.joint[0, 0] == 0.3 and j.features[0, 0] == 0.0
        assert np.array_equal(marginals(j).priors, priors)
        assert np.array_equal(marginals(j).priors, j.joint.sum(axis=1))


class TestMarginals:
    def test_uniform(self, uniform_joint):
        m = marginals(uniform_joint)
        assert np.allclose(m.priors, [0.5, 0.5])
        assert np.allclose(m.class_conditionals, 0.5)
        assert np.allclose(m.class_probabilities, 0.5)

    def test_toy_values(self, toy_joint):
        m = marginals(toy_joint)
        assert np.allclose(m.priors, [0.4, 0.6])
        assert m.class_probabilities[0, 0] == pytest.approx(0.3 / 0.5, abs=1e-15)

    def test_empty_class(self):
        j = validate_joint(2, FEATS2, [[0.5, 0.5], [0.0, 0.0]])
        with pytest.raises(EmptyClass):
            marginals(j)

    def test_rows_and_columns_normalized(self, binary_joint):
        m = marginals(binary_joint)
        assert np.allclose(m.class_conditionals.sum(axis=1), 1.0, atol=1e-12)
        assert np.allclose(m.class_probabilities.sum(axis=0), 1.0, atol=1e-12)

    def test_deterministic(self, toy_joint):
        a, b = marginals(toy_joint), marginals(toy_joint)
        assert np.array_equal(a.class_probabilities, b.class_probabilities)

    def test_computed_once_per_joint(self, toy_joint):
        assert marginals(toy_joint) is marginals(toy_joint)
        same = validate_joint(2, toy_joint.features, toy_joint.joint)
        assert marginals(same) is not marginals(toy_joint)

    def test_shared_arrays_are_read_only(self, toy_joint):
        m = marginals(toy_joint)
        for arr in (m.priors, m.instance_marginal, m.class_conditionals, m.class_probabilities):
            with pytest.raises(ValueError):
                arr[0] = 0.0
        assert m.priors[0] == pytest.approx(0.4, abs=1e-15)

    def test_empty_class_raised_on_every_call(self):
        j = validate_joint(2, FEATS2, [[0.5, 0.5], [0.0, 0.0]])
        for _ in range(2):
            with pytest.raises(EmptyClass):
                marginals(j)


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 4), st.integers(1, 6), st.integers(0, 2 ** 32 - 1))
def test_reconstruction_identities(K, nx, seed):
    """prior * conditional and confidence * marginal both rebuild the joint."""
    rng = np.random.default_rng(seed)
    raw = rng.uniform(0.05, 1.0, size=(K, nx))
    raw /= raw.sum()
    j = validate_joint(K, rng.normal(size=(nx, 2)), raw / raw.sum())
    m = marginals(j)
    rebuilt_a = m.priors[:, None] * m.class_conditionals
    rebuilt_b = m.class_probabilities * m.instance_marginal[None, :]
    assert np.max(np.abs(rebuilt_a - j.joint)) <= 1e-14
    assert np.max(np.abs(rebuilt_b - j.joint)) <= 1e-14


class TestJointJson:
    def test_round_trip(self, toy_joint):
        back = joint_from_json(joint_to_json(toy_joint))
        assert np.array_equal(back.joint, toy_joint.joint)
        assert np.array_equal(back.features, toy_joint.features)

    def test_parse_error(self):
        with pytest.raises(ParseError):
            joint_from_json("{not json")

    def test_schema_mismatch(self):
        with pytest.raises(SchemaMismatch):
            joint_from_json('{"K": 2}')
