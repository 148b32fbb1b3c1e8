import json
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wslrr.datagen
import wslrr.scenarios
from wslrr.core import marginals, validate_joint
from wslrr.datagen import (
    CONF_PAIRS,
    CONF_POINTS,
    PAIRS,
    POINTS,
    DatasetChannel,
    WeakDataset,
    _categorical,
    _read_carved,
    _read_generic,
    _uniforms,
    dataset_from_json,
    dataset_to_json,
    datasets_equal,
    philox_uniforms,
    philox_words,
    sample_weak_dataset,
    sampling_channels,
)
from wslrr.errors import ParseError, SchemaMismatch, ShapeMismatch, ValidationError, ZeroChannelMass
from wslrr.scenarios import (CL, MCL, PU, SD, Pcomp, Sconf, Soft, compound_label_space, observed_distribution,
                             scenario_to_json, specs_equal)
from wslrr.verify import ABSTRACT_SCENARIO_NAMES, ALL_SCENARIO_NAMES, make_spec, scenario_joint


def _words(u):
    """The Philox words whose uniforms are ``u``: (u * 2**53) << 11, exact
    for the multiples of 2**-53 in [0, 1) every case here uses."""
    w = (np.asarray(u, dtype=np.float64) * 2.0 ** 53).astype(np.uint64) << np.uint64(11)
    assert _same_bits(_uniforms(w), np.asarray(u, dtype=np.float64))
    return w


class TestRng:
    def test_reproducible(self):
        a = philox_words(42, 3, 100)
        b = philox_words(42, 3, 100)
        assert a.dtype == np.uint64 and np.array_equal(a, b)
        assert _same_bits(philox_uniforms(42, 3, 100), _uniforms(a))

    def test_streams_differ(self):
        assert not np.array_equal(philox_words(42, 0, 10), philox_words(42, 1, 10))

    def test_range(self):
        u = _uniforms(philox_words(7, 0, 10_000))
        assert np.all((0.0 <= u) & (u < 1.0))
        assert _uniforms(np.array([0, 2 ** 64 - 1], dtype=np.uint64)).tolist() == [0.0, 1.0 - 2.0 ** -53]

    def test_zero_mass_guard(self):
        with pytest.raises(ZeroChannelMass):
            _categorical(np.zeros(4), philox_words(0, 0, 3), "empty channel")

    def test_clamp_skips_zero_mass_tail(self):
        # ten masses of 0.1 sum to 1 - eps/2, so a uniform at or above the last
        # cumulative value exists; it must not select the zero-mass tail
        probs = np.array([0.1] * 10 + [0.0, 0.0])
        cum = np.cumsum(probs / probs.sum())
        assert cum[-1] < 1.0
        u = np.array([cum[-1], np.nextafter(1.0, 0.0)])
        assert np.array_equal(_categorical(probs, _words(u), "tail"), [9, 9])


def _searched(probs, u):
    """The unbucketed inversion: a binary search for every draw, clamped to
    the last item with mass."""
    cum = np.cumsum(probs / probs.sum())
    return np.minimum(np.searchsorted(cum, u, side="right"), np.flatnonzero(probs > 0)[-1])


def _on_grid(values, bits):
    """``values`` rounded down to multiples of 2**-bits."""
    return np.floor(np.asarray(values) * 2.0 ** bits) * 2.0 ** -bits


class TestBucketedInversion:
    """_categorical buckets the search when there are at least 4 draws per
    item; on the words of the uniforms it must return what the binary search
    returns at the uniforms, bit for bit."""

    @staticmethod
    def _assert_same(probs, u):
        got, want = _categorical(probs, _words(u), "law"), _searched(probs, u)
        assert got.dtype == want.dtype and _same_bits(got, want)

    @pytest.mark.parametrize("n_cat", [1, 2, 48, 10_000])
    def test_random_laws(self, n_cat):
        u = philox_uniforms(11, n_cat, 8 * n_cat + 1000)
        probs = philox_uniforms(12, n_cat, n_cat)
        self._assert_same(probs, u)
        # the raw words, whose low 11 bits the uniforms drop, give the same draws
        w = philox_words(11, n_cat, 8 * n_cat + 1000)
        assert _same_bits(_categorical(probs, w, "law"), _searched(probs, u))

    @pytest.mark.parametrize("n_cat", [2, 48, 10_000])
    def test_zero_mass_categories(self, n_cat):
        probs = philox_uniforms(13, n_cat, n_cat)
        probs[1::3] = 0.0
        probs[-1] = 0.0  # a zero-mass tail, so the clamp matters
        u = philox_uniforms(14, n_cat, 8 * n_cat + 1000)
        self._assert_same(probs, u)

    @staticmethod
    def _edge_law(n_cat, seed):
        """(bits, probs): dyadic masses on a grid twice as fine as the 2**bits
        buckets, so every cumulative value is exact and about half of them lie
        on bucket edges."""
        bits = min((4 * n_cat - 1).bit_length(), wslrr.datagen.MAX_BUCKET_BITS)
        cuts = _on_grid(philox_uniforms(seed, n_cat, n_cat - 1), bits + 1)
        return bits, np.diff(np.concatenate([[0.0], np.sort(cuts), [1.0]]))  # zero masses where cuts coincide

    @pytest.mark.parametrize("n_cat", [2, 48, 10_000])
    def test_cumulative_values_on_bucket_edges(self, n_cat):
        bits, probs = self._edge_law(n_cat, 15)
        cum = np.cumsum(probs / probs.sum())
        on_edge = cum * 2.0 ** bits == np.floor(cum * 2.0 ** bits)
        assert probs.size == n_cat and on_edge.any() and (n_cat < 3 or not on_edge.all())
        # the uniforms hit the cuts, their neighbours on the 2**-53 grid, and random points
        hits = np.concatenate([cum, cum - 2.0 ** -53, cum + 2.0 ** -53,
                               philox_uniforms(16, n_cat, 4 * n_cat)])
        self._assert_same(probs, np.clip(hits, 0.0, 1.0 - 2.0 ** -53))

    @pytest.mark.parametrize("n_cat", [1, 2, 48, 10_000])
    def test_word_edges(self, n_cat):
        # the words 0 and 2**64 - 1, every bucket's lower edge b << (64 - bits),
        # and the word one below each edge, the last word of the bucket before
        bits, probs = self._edge_law(n_cat, 21)
        edges = np.arange(2 ** bits, dtype=np.uint64) << np.uint64(64 - bits)
        w = np.concatenate([np.array([0, 2 ** 64 - 1], dtype=np.uint64), edges, edges[1:] - np.uint64(1)])
        u = _uniforms(w)
        assert np.array_equal(w >> np.uint64(64 - bits), np.floor(u * 2.0 ** bits))  # the bucket is the floor
        assert w.size >= 4 * n_cat  # bucketed
        got, want = _categorical(probs, w, "law"), _searched(probs, u)
        assert got.dtype == want.dtype and _same_bits(got, want)

    @pytest.mark.parametrize("n_cat", [1, 2, 48, 10_000])
    def test_extreme_uniforms(self, n_cat):
        probs = philox_uniforms(17, n_cat, n_cat) + 0.01
        u = np.resize([0.0, 1.0 - 2.0 ** -53, 0.5, 2.0 ** -53], 4 * n_cat)
        self._assert_same(probs, u)

    def test_last_cumulative_value_below_one(self):
        # ten masses of 0.1 sum to 1 - eps/2: the top uniforms lie above cum[-1]
        probs = np.array([0.1] * 10 + [0.0, 0.0])
        cum = np.cumsum(probs / probs.sum())
        assert cum[-1] < 1.0
        # 0.3 is not on the 2**-53 grid of a word's uniform, so the grid value below it
        u = np.resize([cum[-1], 1.0 - 2.0 ** -53, _on_grid(0.3, 53), 0.0], 4 * probs.size)
        self._assert_same(probs, u)
        assert np.array_equal(_categorical(probs, _words(u), "tail")[:2], [9, 9])

    @pytest.mark.parametrize("n_cat", [1, 2, 48, 10_000])
    def test_both_sides_of_the_draw_count_threshold(self, n_cat):
        # below 4 draws per item every draw is searched, from 4 on they are bucketed
        probs = philox_uniforms(18, n_cat, n_cat)
        for n in (4 * n_cat - 1, 4 * n_cat):
            self._assert_same(probs, philox_uniforms(19, n, n))

    def test_searches_only_draws_in_buckets_that_hold_a_value(self, monkeypatch):
        # 1000 draws: 1000 // 32 rounds up to 32 buckets
        self._assert_no_draw_searched(monkeypatch, 1000, 32)

    # at least 4 buckets per item (16 here), about n / 32 in all, a power of two
    @pytest.mark.parametrize("n, buckets", [(16, 16), (100, 16), (100_000, 4096)])
    def test_bucket_count_follows_the_draw_count(self, monkeypatch, n, buckets):
        self._assert_no_draw_searched(monkeypatch, n, buckets)

    @staticmethod
    def _assert_no_draw_searched(monkeypatch, n, buckets):
        # 4 equal masses: every cumulative value lies on a bucket edge, so no
        # bucket holds one inside and no draw is searched
        probs = np.full(4, 0.25)
        u = philox_uniforms(20, 0, n)
        w = _words(u)
        searched = []
        real = np.searchsorted

        def counting(a, v, side="left", sorter=None):
            searched.append(np.size(v))
            return real(a, v, side=side, sorter=sorter)

        monkeypatch.setattr(wslrr.datagen.np, "searchsorted", counting)
        got = _categorical(probs, w, "law")
        monkeypatch.undo()
        # two searches build the table over the bucket edges; the third searches no draw
        assert searched == [buckets, buckets, 0]
        assert _same_bits(got, _searched(probs, u))


M64 = 2 ** 64 - 1


def _philox_reference(seed, stream, n):
    """A fresh generator per call, mapped to [0, 1) by the top 53 bits.  The
    key is built as uint64 explicitly: a list holding 2**64 - 1 is cast
    through float64 and keys another generator."""
    key = np.array([seed & M64, stream & M64], dtype=np.uint64)
    raw = np.random.Philox(key=key).random_raw(n)
    return (raw >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestPhiloxReference:
    """The re-keyed per-thread generator draws what a fresh one draws."""

    @pytest.mark.parametrize("seed", [0, 1, 2 ** 63, M64])
    @pytest.mark.parametrize("stream", [0, 1, 17, 5000, M64])
    def test_bit_exact(self, seed, stream):
        for n in (0, 1, 3, 5, 1000):
            assert _same_bits(philox_uniforms(seed, stream, n), _philox_reference(seed, stream, n))

    @pytest.mark.parametrize("seed", [-1, 2 ** 64, 2 ** 64 + 7])
    @pytest.mark.parametrize("stream", [0, 1, 17, 5000, M64])
    def test_key_outside_u64_rejected(self, seed, stream):
        # reduced modulo 2**64, -1 would draw the words of 2**64 - 1 and 2**64 + 7 those of 7
        with pytest.raises(ValidationError, match="seed"):
            philox_uniforms(seed, stream, 3)
        with pytest.raises(ValidationError, match="stream"):
            philox_uniforms(stream, seed, 3)

    @pytest.mark.parametrize("key", [1.0, 7.5, "3", None, np.float64(2.0)])
    def test_key_of_another_type_rejected(self, key):
        with pytest.raises(ValidationError):
            philox_uniforms(key, 0, 3)
        with pytest.raises(ValidationError):
            philox_uniforms(0, key, 3)

    @pytest.mark.parametrize("n", [-5, -1, 2 ** 60, 2 ** 62, 2 ** 63, 2 ** 64, 99999999999999999999,
                                   2.0, 3.5, True, "3", None])
    def test_draw_count_outside_the_range_rejected(self, n):
        # checked before numpy allocates anything
        with pytest.raises(ValidationError, match="draw count"):
            philox_uniforms(1, 0, n)

    def test_boolean_keys_rejected(self):
        with pytest.raises(ValidationError, match="seed"):
            philox_uniforms(True, 0, 3)
        with pytest.raises(ValidationError, match="stream"):
            philox_uniforms(0, False, 3)

    def test_numpy_integer_keys(self):
        want = _philox_reference(M64, 5, 10)
        assert _same_bits(philox_uniforms(np.uint64(M64), np.int64(5), 10), want)

    def test_interleaved_keys(self):
        # a short draw leaves words in the generator's buffer; the next key must not see them
        calls = [(3, 0, 3), (3, 1, 5), (M64, 2, 1), (3, 0, 3), (0, 0, 1000), (3, 1, 5), (M64, M64, 1)]
        for seed, stream, n in calls * 2:
            assert _same_bits(philox_uniforms(seed, stream, n), _philox_reference(seed, stream, n))

    def test_two_threads_at_once(self):
        calls = [(seed, stream, n) for seed in (5, 2 ** 63) for stream in range(20) for n in (1, 5, 300)]
        want = [_philox_reference(*c) for c in calls]
        start = threading.Barrier(2)
        results = [None, None]

        def draw(slot, order):
            start.wait()
            results[slot] = [(i, philox_uniforms(*calls[i])) for i in order for _ in range(3)]

        threads = [threading.Thread(target=draw, args=(0, range(len(calls)))),
                   threading.Thread(target=draw, args=(1, range(len(calls) - 1, -1, -1)))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads between nearly every bytecode
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for got in results:
            assert len(got) == 3 * len(calls)
            assert all(_same_bits(u, want[i]) for i, u in got)


class TestSampling:
    def test_deterministic_across_runs(self, binary_joint):
        a = sample_weak_dataset(PU(), binary_joint, 500, seed=9)
        b = sample_weak_dataset(PU(), binary_joint, 500, seed=9)
        assert datasets_equal(a, b)
        assert dataset_to_json(a) == dataset_to_json(b)

    def test_seed_changes_data(self, binary_joint):
        a = sample_weak_dataset(PU(), binary_joint, 500, seed=9)
        b = sample_weak_dataset(PU(), binary_joint, 500, seed=10)
        assert not datasets_equal(a, b)

    def test_pu_deterministic_joint(self):
        # one purely positive and one purely negative instance
        j = validate_joint(2, [[1.0], [-1.0]][:2], [[0.5, 0.0], [0.0, 0.5]])
        ds = sample_weak_dataset(PU(), j, {"P": 50, "U": 50}, seed=2)
        assert np.all(ds.channel("P").indices == 0)

    def test_soft_confidences_are_oracle(self, multi_joint):
        m = marginals(multi_joint)
        ds = sample_weak_dataset(Soft(), multi_joint, 64, seed=5)
        ch = ds.channel("X")
        assert np.array_equal(ch.confidences, m.class_probabilities[:, ch.indices].T)

    def test_sconf_pairs_carry_pair_confidence(self, binary_joint):
        ds = sample_weak_dataset(make_spec("Sconf", binary_joint, 1, 0), binary_joint, 32, seed=5)
        ch = ds.channel("XX")
        P = binary_joint.joint
        for (a, b), r in zip(ch.pairs[:10], ch.confidences[:10]):
            # P(same label | x_a, x_b), enumerating the label pairs
            same = (P[0, a] * P[0, b] + P[1, a] * P[1, b]) / (P[:, a].sum() * P[:, b].sum())
            assert r == pytest.approx(same, abs=1e-12)

    @pytest.mark.parametrize("name", ["PU", "CL", "Soft", "Pcomp", "MCL"])
    def test_channel_frequencies_match_exact_law(self, name):
        """Empirical frequencies within 5 sqrt(p(1-p)/n) of every support point."""
        n = 100_000
        j = scenario_joint(name, 4, 5, 3, seed=77, trial=0)
        spec = make_spec(name, j, 77, 0)
        ds = sample_weak_dataset(spec, j, n, seed=31)
        cm = observed_distribution(spec, j)

        if name in ("PU",):
            for c, ch in enumerate(ds.channels):
                probs = cm.observed[:, c]
                counts = np.bincount(ch.indices, minlength=j.n_x)
                _check_freqs(counts, probs, n)
        elif name in ("CL", "MCL"):
            flat = cm.observed.T.ravel()
            counts = np.zeros(flat.size)
            for c, ch in enumerate(ds.channels):
                bc = np.bincount(ch.indices, minlength=j.n_x)
                counts[c * j.n_x:(c + 1) * j.n_x] = bc
            _check_freqs(counts, flat, n)
        elif name == "Soft":
            probs = marginals(j).instance_marginal
            counts = np.bincount(ds.channel("X").indices, minlength=j.n_x)
            _check_freqs(counts, probs, n)
        else:  # Pcomp pairs
            from wslrr.scenarios import pair_distribution
            q = pair_distribution(spec, j, channel="PC").matrix.ravel()
            pairs = ds.channel("PC").pairs
            counts = np.bincount(pairs[:, 0] * j.n_x + pairs[:, 1], minlength=q.size)
            _check_freqs(counts, q, n)

    @pytest.mark.parametrize("name", ["PU", "Sconf", "CL", "Pcomp", "SD"])
    def test_one_validation_per_sample(self, name, monkeypatch):
        """Every channel reads one validated system: mixture densities, pair
        laws and the label stream alike."""
        calls = []
        real = wslrr.scenarios.validate_spec

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(wslrr.scenarios, "validate_spec", counting)
        # a name datagen imports itself would bypass the patch above
        monkeypatch.setattr(wslrr.datagen, "validate_spec", counting, raising=False)
        j = scenario_joint(name, 4, 6, 2, seed=5, trial=0)
        spec = make_spec(name, j, 5, 0)
        sample_weak_dataset(spec, j, 20, seed=1)
        assert len(calls) == 1

    def test_unknown_channel_name(self, binary_joint):
        with pytest.raises(ValidationError):
            sample_weak_dataset(PU(), binary_joint, {"Q": 10}, seed=0)

    @pytest.mark.parametrize("n", [2.5, 3.0, True, "3", None, -1, np.float64(4.0),
                                   {"P": 2.5}, {"P": True}, {"U": -1}, {"P": "10"}])
    def test_size_not_a_nonnegative_integer(self, binary_joint, n):
        with pytest.raises(ValidationError, match="sample size"):
            sample_weak_dataset(PU(), binary_joint, n, seed=0)

    @pytest.mark.parametrize("n", [2 ** 60, 2 ** 63, {"P": 2 ** 60}, {"U": 2 ** 62}, 99999999999999999999])
    def test_size_beyond_the_draw_range(self, binary_joint, n):
        with pytest.raises(ValidationError, match="draw count"):
            sample_weak_dataset(PU(), binary_joint, n, seed=0)

    def test_numpy_integer_sizes(self, binary_joint):
        ds = sample_weak_dataset(PU(), binary_joint, {"P": np.int64(7), "U": np.uint8(3)}, seed=0)
        assert [c.n_draws for c in ds.channels] == [7, 3]

    def test_sampling_channel_names(self, binary_joint, multi_joint):
        assert sampling_channels(PU(), 2) == ("P", "U")
        assert sampling_channels(Pcomp(), 2) == ("PC",)
        assert sampling_channels(CL(), 4) == ("SX",)
        assert sampling_channels(Soft(), 4) == ("X",)

    def test_mcl_size_counts_follow_q(self, multi_joint):
        spec = MCL(q=(0.7, 0.3, 0.0))
        ds = sample_weak_dataset(spec, multi_joint, 20_000, seed=3)
        sizes = np.zeros(3)
        from wslrr.scenarios import compound_label_space
        for c, ch in enumerate(ds.channels):
            d = len(compound_label_space(4)[c])
            sizes[d - 1] += len(ch.indices)
        assert sizes[2] == 0
        _check_freqs(sizes, np.array([0.7, 0.3, 0.0]), 20_000)

    @pytest.mark.parametrize("case", ["GCCN", "MCL", "MCL, no size-3 draws", "CL, no draws"])
    def test_label_split_is_the_mask_of_each_label(self, case):
        """Every label channel holds ``inst[chan == c]`` of the stream, bit for
        bit: GCCN at K = 4 (14 labels), MCL's two-stage draw, labels with no
        draws, and a count of 0."""
        name = case.split(",")[0]
        j = scenario_joint(name, 4, 7, 2, seed=61, trial=2)
        spec = MCL(q=(0.7, 0.3, 0.0)) if "size-3" in case else make_spec(name, j, 61, 2)
        count = 0 if "no draws" in case else 20_000
        ds = sample_weak_dataset(spec, j, count, seed=13)
        chan, inst = _label_stream_reference(spec, j, count, seed=13)
        assert len(ds.channels) == len(spec.labels(4)) == (14 if name != "CL" else 4)
        for c, ch in enumerate(ds.channels):
            assert _same_bits(ch.indices, inst[chan == c])
        empty = [ch.n_draws == 0 for ch in ds.channels]
        assert sum(empty) == {"GCCN": 0, "MCL": 0, "MCL, no size-3 draws": 4, "CL, no draws": 4}[case]

    @pytest.mark.parametrize("name", ["CCN", "GCCN", "MCD", "UU"])
    def test_abstractions_sample_and_estimate(self, name):
        """The noise-model abstractions run end to end: sample, estimate,
        and the estimator is close to the exact risk."""
        from wslrr.risk import LossSpec, classification_risk, empirical_risk
        from wslrr.verify import seeded_model

        j = scenario_joint(name, 3, 4, 2, seed=55, trial=0)
        spec = make_spec(name, j, 55, 0)
        ds = sample_weak_dataset(spec, j, 50_000, seed=8)
        model = seeded_model(j, 55, 0)
        ls = LossSpec("logistic")
        exact = classification_risk(j, model, ls)
        assert empirical_risk(ds, spec, model, ls, j) == pytest.approx(exact, abs=0.05)


def _label_stream_reference(spec, j, count, seed):
    """(label, instance) of every draw of a label stream, in stream order;
    MCL's excluded-set sizes first, then each size's draws by its own mask."""
    flat = observed_distribution(spec, j).observed.T
    if spec.size_law is None:
        pos = _categorical(flat, philox_words(seed, 0, count), "stream")
        return pos // j.n_x, pos % j.n_x
    sizes = np.array([len(s) for s in compound_label_space(j.K)])
    d_draw = _categorical(np.asarray(spec.size_law), philox_words(seed, 0, count), "sizes") + 1
    u2 = philox_words(seed, 1, count)
    chan, inst = np.empty(count, dtype=int), np.empty(count, dtype=int)
    for d in range(1, j.K):
        mask = d_draw == d
        if mask.any():
            rows = np.nonzero(sizes == d)[0]
            pos = _categorical(flat[rows], u2[mask], f"size {d}")
            chan[mask], inst[mask] = rows[pos // j.n_x], pos % j.n_x
    return chan, inst


def _check_freqs(counts, probs, n):
    freqs = counts / n
    band = 5.0 * np.sqrt(probs * (1.0 - probs) / n)
    assert np.all(np.abs(freqs - probs) <= band + 1e-12)


class TestJson:
    @pytest.mark.parametrize("name", ["PU", "SU", "Pcomp", "Sconf", "CL", "PPL", "SubConf", "Soft"])
    def test_round_trip(self, name):
        j = scenario_joint(name, 3, 4, 2, seed=13, trial=1)
        spec = make_spec(name, j, 13, 1)
        ds = sample_weak_dataset(spec, j, 25, seed=4)
        back = dataset_from_json(dataset_to_json(ds))
        assert datasets_equal(back, ds)

    def test_truncated(self):
        with pytest.raises(ParseError):
            dataset_from_json('{"spec": {"name": "PU"')

    def test_wrong_spec_name(self):
        with pytest.raises(SchemaMismatch):
            dataset_from_json('{"spec": {"name": "NOPE", "params": {}}, "seed": 1, "channels": []}')

    @pytest.mark.parametrize("channels", ["5", "null"])
    def test_channels_not_a_list(self, channels):
        with pytest.raises(SchemaMismatch):
            dataset_from_json('{"spec": {"name": "PU", "params": {}}, "seed": 1, "channels": %s}' % channels)

    def test_bad_channel_kind(self):
        text = ('{"spec": {"name": "PU", "params": {}}, "seed": 1, '
                '"channels": [{"label": "P", "kind": "wat", "items": []}]}')
        with pytest.raises(SchemaMismatch):
            dataset_from_json(text)


# ---------------------------------------------------------------------------
# References: the list-of-dicts writer and a plain json.loads reader
# ---------------------------------------------------------------------------

def _reference_to_json(ds: WeakDataset) -> str:
    """json.dumps of the whole dataset as nested lists and dicts."""
    channels = []
    for c in ds.channels:
        if c.kind == POINTS:
            items = c.indices.tolist()
        elif c.kind == PAIRS:
            items = c.pairs.tolist()
        elif c.kind == CONF_POINTS:
            items = [{"index": i, "confidences": row}
                     for i, row in zip(c.indices.tolist(), c.confidences.tolist())]
        else:
            items = [{"pair": p, "confidence": r}
                     for p, r in zip(c.pairs.tolist(), c.confidences.tolist())]
        channels.append({"label": c.label, "kind": c.kind, "items": items})
    return json.dumps(
        {"spec": json.loads(scenario_to_json(ds.spec)), "seed": ds.seed, "channels": channels},
        check_circular=False,
    )


def _reference_arrays(text: str) -> list:
    """(label, kind, field, array) of every channel field, parsed by json.loads."""
    out = []
    for c in json.loads(text)["channels"]:
        items, kind = c["items"], c["kind"]
        if kind in (POINTS, PAIRS):
            fields = {"indices" if kind == POINTS else "pairs": (items, np.int64)}
        elif kind == CONF_POINTS:
            fields = {"indices": ([it["index"] for it in items], np.int64),
                      "confidences": ([it["confidences"] for it in items], np.float64)}
        else:
            fields = {"pairs": ([it["pair"] for it in items], np.int64),
                      "confidences": ([it["confidence"] for it in items], np.float64)}
        out += [(c["label"], kind, f, np.array(v, dtype=t)) for f, (v, t) in fields.items()]
    return out


def _assert_read_bits(text: str) -> None:
    """dataset_from_json gives the reference's arrays, bit for bit."""
    ds = dataset_from_json(text)
    got = [(c.label, c.kind, f, getattr(c, f)) for c in ds.channels
           for f in ("indices", "pairs", "confidences") if getattr(c, f) is not None]
    want = _reference_arrays(text)
    assert [g[:3] for g in got] == [w[:3] for w in want]
    for (*_, a), (*_, b) in zip(got, want):
        if b.size:
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        else:
            assert a.size == 0


def _assert_same_dataset(a: WeakDataset, b: WeakDataset) -> None:
    """Equal specs and seeds, and channels equal bit for bit."""
    assert specs_equal(a.spec, b.spec) and type(a.seed) is type(b.seed) and a.seed == b.seed
    assert [(c.label, c.kind) for c in a.channels] == [(c.label, c.kind) for c in b.channels]
    for ca, cb in zip(a.channels, b.channels):
        for f in ("indices", "pairs", "confidences"):
            va, vb = getattr(ca, f), getattr(cb, f)
            assert (va is None) == (vb is None)
            if va is not None:
                assert va.dtype == vb.dtype and va.shape == vb.shape and va.tobytes() == vb.tobytes()


def _assert_carved(text: str) -> None:
    """The writer's layout is read piecewise, to the generic reader's bits."""
    ds = _read_carved(text)
    assert ds is not None
    _assert_same_dataset(ds, _read_generic(text))


def _conf_points(indices, rows):
    return WeakDataset(Soft(), 7, (DatasetChannel("X", CONF_POINTS, indices=np.asarray(indices),
                                                table=np.asarray(rows, dtype=np.float64),
                                                codes=np.arange(len(rows))),))


def _conf_pairs(pairs, values):
    return WeakDataset(Sconf(), 7, (DatasetChannel("XX", CONF_PAIRS, pairs=np.asarray(pairs),
                                                   table=np.asarray(values, dtype=np.float64),
                                                   codes=np.arange(len(values))),))


_RNG = np.random.default_rng(5)

HAND_BUILT = {
    "empty conf-points": _conf_points(np.empty(0, dtype=np.int64), np.empty((0, 4))),
    "empty conf-points, no width": _conf_points(np.empty(0, dtype=np.int64), np.empty((0, 0))),
    "empty conf-pairs": _conf_pairs(np.empty((0, 2), dtype=np.int64), np.empty(0)),
    "all rows distinct": _conf_points(np.arange(50), _RNG.dirichlet(np.ones(3), 50)),
    "all pair values distinct": _conf_pairs(_RNG.integers(0, 9, (50, 2)), _RNG.uniform(size=50)),
    "signed zeros": _conf_points([1, 1, 1, 0, 0], [[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0],
                                                  [-0.0, -0.0], [0.0, 0.0]]),
    "signed zero pairs": _conf_pairs([[0, 1], [0, 1], [2, 2], [1, 0]], [0.0, -0.0, -0.0, 0.0]),
    "nan and inf": _conf_points([0, 0, 1, 1, 0], [[np.nan, 1.0], [np.inf, -np.inf], [np.nan, 1.0],
                                                  [-np.nan, 0.5], [np.nan, 1.0]]),
    "nan and inf pairs": _conf_pairs([[0, 0], [1, 1], [0, 1], [1, 0], [0, 0]],
                                     [np.nan, np.inf, -np.inf, np.nan, 5e-324]),
    "rows not a function of the index": _conf_points([0, 0, 1, 1, 2, 0], [[0.25, 0.75], [0.75, 0.25],
                                                                          [0.25, 0.75], [0.25, 0.75],
                                                                          [0.1, 0.9], [0.25, 0.75]]),
    "rows a function of the index": _conf_points([5, 0, 5, 2, 0], [[0.5, 0.5], [0.2, 0.8], [0.5, 0.5],
                                                                   [0.1, 0.9], [0.2, 0.8]]),
    "pair values a function of the pair": _conf_pairs([[1, 2], [2, 1], [1, 2], [0, 0]], [0.3, 0.3, 0.3, 0.9]),
    "an index beyond the key range": _conf_points([0, 200, 0], [[0.5, 0.5], [0.2, 0.8], [0.5, 0.5]]),
    "a negative index": _conf_points([-1, 2, -1], [[0.5, 0.5], [0.2, 0.8], [0.5, 0.5]]),
    "int32 conf-points indices": _conf_points(np.array([3, 1, 3, 2], dtype=np.int32),
                                              [[0.5, 0.5], [0.2, 0.8], [0.5, 0.5], [0.2, 0.8]]),
    "int32 conf-pairs": _conf_pairs(np.array([[1, 2], [2, 1], [1, 2]], dtype=np.int32), [0.3, 0.3, 0.7]),
    "int32 points and pairs": WeakDataset(PU(), 7, (
        DatasetChannel("P", POINTS, indices=np.array([2, 0, 2], dtype=np.int32)),
        DatasetChannel("U", PAIRS, pairs=np.array([[1, 2], [0, 0]], dtype=np.int32)))),
    "multi-channel points": WeakDataset(PU(), 7, (
        DatasetChannel("P", POINTS, indices=np.array([2, 0, 2, 1])),
        DatasetChannel("U", POINTS, indices=np.array([0, 1, 1])))),
    "SD pairs": WeakDataset(SD(), 7, (
        DatasetChannel("S", PAIRS, pairs=np.array([[0, 1], [2, 2], [1, 0]])),
        DatasetChannel("D", PAIRS, pairs=np.array([[1, 2], [0, 0]])))),
    "wide and negative indices": WeakDataset(PU(), 7, (
        DatasetChannel("P", POINTS, indices=np.array([-3, 2 ** 63 - 1, -2 ** 63, 0, -3])),
        DatasetChannel("U", PAIRS, pairs=np.array([[-1, 10 ** 12], [5, -1]])))),
    "empty points and pairs": WeakDataset(PU(), 7, (
        DatasetChannel("P", POINTS, indices=np.empty(0, dtype=np.int64)),
        DatasetChannel("U", PAIRS, pairs=np.empty((0, 2), dtype=np.int64)))),
}


class TestJsonAgainstReference:
    @pytest.mark.parametrize("n", [0, 600])
    @pytest.mark.parametrize("name", ALL_SCENARIO_NAMES + ABSTRACT_SCENARIO_NAMES)
    def test_sampled_text_and_arrays(self, name, n):
        j = scenario_joint(name, 4, 9, 3, seed=13, trial=2)
        ds = sample_weak_dataset(make_spec(name, j, 13, 2), j, n, seed=29)
        text = dataset_to_json(ds)
        assert text == _reference_to_json(ds)
        _assert_read_bits(text)
        _assert_carved(text)

    @pytest.mark.parametrize("case", sorted(HAND_BUILT))
    def test_hand_built_text_and_arrays(self, case):
        ds = HAND_BUILT[case]
        text = dataset_to_json(ds)
        assert text == _reference_to_json(ds)
        _assert_read_bits(text)
        _assert_carved(text)

    def test_read_literals(self):
        # equal values spelled differently, a negative zero, non-finite and
        # integer confidences
        text = ('{"spec": {"name": "Soft", "params": {}}, "seed": 7, "channels": [{"label": "X", '
                '"kind": "conf-points", "items": [{"index": 0, "confidences": [0.5, 5e-1, -0.0]}, '
                '{"index": 1, "confidences": [5E-1, 0.0, 0.50]}, {"index": 0, "confidences": '
                '[-0.0, NaN, Infinity]}, {"index": 2, "confidences": [1, -5e-1, 4.9e-324]}]}]}')
        _assert_read_bits(text)
        conf = dataset_from_json(text).channels[0].confidences
        assert np.signbit(conf[[0, 2], [2, 0]]).all() and not np.signbit(conf[1, 1])
        text = ('{"spec": {"name": "Sconf", "params": {}}, "seed": 7, "channels": [{"label": "XX", '
                '"kind": "conf-pairs", "items": [{"pair": [0, 1], "confidence": 0.5}, '
                '{"pair": [1, 0], "confidence": 5e-1}, {"pair": [1, 1], "confidence": -0.0}]}]}')
        _assert_read_bits(text)


# ---------------------------------------------------------------------------
# The piecewise reader against the generic one
# ---------------------------------------------------------------------------

_SOFT_TEXT = dataset_to_json(_conf_points([2, 0, 2, 1, 2], [[0.25, 0.75], [0.5, 0.5], [0.25, 0.75],
                                                            [0.125, 0.875], [0.25, 0.75]]))


def _edited(edit) -> str:
    """The Soft text parsed, changed in place by ``edit`` and written by json.dumps."""
    raw = json.loads(_SOFT_TEXT)
    edit(raw)
    return json.dumps(raw)


def _set_item(key, value, at=1):
    return lambda raw: raw["channels"][0]["items"][at].__setitem__(key, value)


# texts that depart from the writer's layout, or hold values the piecewise
# reader must not misread: dataset_from_json decides each as _read_generic does
DEPARTURES = {
    "indent=2": json.dumps(json.loads(_SOFT_TEXT), indent=2),
    "compact separators": json.dumps(json.loads(_SOFT_TEXT), separators=(",", ":")),
    "reordered top-level keys": json.dumps({k: json.loads(_SOFT_TEXT)[k] for k in ("seed", "channels", "spec")}),
    "extra key in a conf-points item": _edited(_set_item("extra", 1)),
    "extra key first in a conf-points item": _edited(
        lambda raw: raw["channels"][0]["items"].__setitem__(0, {"x": 0, **raw["channels"][0]["items"][0]})),
    "label holding the channel separator": _edited(
        lambda raw: raw["channels"][0].__setitem__("label", ']}, {"label": ')),
    "string holding the item separator": _edited(_set_item("note", "}, {")),
    "string holding the list end": _edited(_set_item("note", "}]}", at=-1)),
    "leading and trailing whitespace": " \n" + _SOFT_TEXT + " \t\n",
    "trailing whitespace": _SOFT_TEXT + "\n\r\t ",
    "trailing garbage": _SOFT_TEXT + " x",
    "duplicated seed": _SOFT_TEXT.replace('"seed": 7, ', '"seed": 7, "seed": 8, '),
    "no channels": _SOFT_TEXT[:_SOFT_TEXT.index('"channels": ')] + '"channels": []}',
    "index of 2**63": _edited(_set_item("index", 2 ** 63)),
    "index of 2**64": _edited(_set_item("index", 2 ** 64)),
    "index of -2**63 - 1": _edited(_set_item("index", -2 ** 63 - 1)),
    "true as an index": _edited(_set_item("index", True)),
    "true as the only index": _edited(lambda raw: raw["channels"][0].__setitem__(
        "items", [{"index": True, "confidences": [0.5, 0.5]}] * 3)),
    "float index": _edited(_set_item("index", 1.0)),
    "ragged confidences": _edited(_set_item("confidences", [0.5])),
    "missing confidences": _edited(lambda raw: raw["channels"][0]["items"][1].pop("confidences")),
    "duplicated index key": _SOFT_TEXT.replace('{"index": 0, ', '{"index": 0, "index": 1, '),
    "item not an object": _SOFT_TEXT.replace('{"index": 0, "confidences": [0.5, 0.5]}', "[0, 1]"),
    "truncated inside the items": _SOFT_TEXT[:-30],
    "unknown kind": _SOFT_TEXT.replace('"conf-points"', '"wat"'),
    "kind not a string": _SOFT_TEXT.replace('"conf-points"', '["conf-points"]'),
    "seed of another type": _SOFT_TEXT.replace('"seed": 7', '"seed": 7.0'),
    "unknown spec": _SOFT_TEXT.replace('"Soft"', '"NOPE"'),
    "points channel with an index of 2**63": dataset_to_json(HAND_BUILT["int32 points and pairs"]).replace(
        "[2, 0, 2]", f"[2, {2 ** 63}, 2]"),
}

_POINTS_TEXT = dataset_to_json(HAND_BUILT["multi-channel points"])
_PAIRS_TEXT = dataset_to_json(HAND_BUILT["SD pairs"])
_CONF_PAIRS_TEXT = dataset_to_json(_conf_pairs([[0, 1], [1, 0], [2, 2]], [0.5, 0.25, 0.75]))
# spellings of an index that are not the writer's, and values that are not int64s
for _index in ("-0", "1.0", "1e0", str(2 ** 63), str(-2 ** 63 - 1), "NaN", "true", "+1", "01"):
    DEPARTURES[f"points index {_index}"] = _POINTS_TEXT.replace("[2, 0, 2, 1]", f"[2, {_index}, 2, 1]")
    DEPARTURES[f"pairs index {_index}"] = _PAIRS_TEXT.replace("[2, 2]", f"[2, {_index}]")
for _conf in ("1", "-0", "5e-1", "0.50", "1E400", "-0.0", "NaN", "-Infinity", "true", "2.5e-01"):
    DEPARTURES[f"conf-pairs confidence {_conf}"] = _CONF_PAIRS_TEXT.replace(
        '"confidence": 0.25', f'"confidence": {_conf}')
DEPARTURES.update({
    "compact pair": _PAIRS_TEXT.replace("[2, 2]", "[2,2]"),
    "compact first pair": _PAIRS_TEXT.replace("[[0, 1]", "[[0,1]"),
    "3-element pair": _PAIRS_TEXT.replace("[2, 2]", "[2, 2, 2]"),
    "1-element pair": _PAIRS_TEXT.replace("[2, 2]", "[2]"),
    "3-element pair in conf-pairs": _CONF_PAIRS_TEXT.replace("[1, 0]", "[1, 0, 1]"),
    "points list holding a pair": _POINTS_TEXT.replace("[2, 0, 2, 1]", "[2, [0, 1], 1]"),
    "points list with a trailing comma": _POINTS_TEXT.replace("[2, 0, 2, 1]", "[2, 0, 2, 1, ]"),
    "points list with an empty slot": _POINTS_TEXT.replace("[2, 0, 2, 1]", "[2, , 2, 1]"),
    "points separated by a space": _POINTS_TEXT.replace("[2, 0, 2, 1]", "[2, 0 2, 1]"),
    "pair values as a nested list": _PAIRS_TEXT.replace("[2, 2]", "[[2], 2]"),
    "conf-pairs item with an extra key": _CONF_PAIRS_TEXT.replace(
        '"confidence": 0.25}', '"confidence": 0.25, "x": 1}'),
    "conf-pairs keys reordered": _CONF_PAIRS_TEXT.replace(
        '{"pair": [1, 0], "confidence": 0.25}', '{"confidence": 0.25, "pair": [1, 0]}'),
    "pairs list as points": _PAIRS_TEXT.replace('"kind": "pairs"', '"kind": "points"', 1),
    "points list as pairs": _POINTS_TEXT.replace('"kind": "points"', '"kind": "pairs"', 1),
    "points list as conf-pairs": _POINTS_TEXT.replace('"kind": "points"', '"kind": "conf-pairs"', 1),
    "empty pair list as points": _PAIRS_TEXT.replace("[[0, 1], [2, 2], [1, 0]]", "[]"),
    "points list inside a list": _POINTS_TEXT.replace("[2, 0, 2, 1]", "[[2, 0, 2, 1]]"),
})


def _outcome(read, text):
    """The dataset read, or the (type, message) of the error raised."""
    try:
        return read(text)
    except Exception as e:  # noqa: BLE001 - the error itself is the outcome compared
        return type(e), str(e)


class TestCarvedReader:
    @pytest.mark.parametrize("case", sorted(DEPARTURES))
    def test_decided_as_the_generic_path_decides(self, case):
        text = DEPARTURES[case]
        got, want = _outcome(dataset_from_json, text), _outcome(_read_generic, text)
        if isinstance(want, WeakDataset):
            assert isinstance(got, WeakDataset)
            _assert_same_dataset(got, want)
        else:
            assert got == want and _read_carved(text) is None

    @pytest.mark.parametrize("case", ["signed zeros", "nan and inf pairs", "int32 points and pairs",
                                      "multi-channel points", "SD pairs"])
    def test_every_one_character_edit(self, case):
        """Deleting, replacing or inserting one structural character anywhere
        in a text of each kind: read as the generic path reads it."""
        base = dataset_to_json(HAND_BUILT[case])
        for i in range(len(base) + 1):
            for c in ("", ",", "}", "]", " ", '"', "1"):
                for text in {base[:i] + c + base[i + 1:], base[:i] + c + base[i:]}:
                    got, want = _outcome(dataset_from_json, text), _outcome(_read_generic, text)
                    if isinstance(want, WeakDataset):
                        _assert_same_dataset(got, want)
                    else:
                        assert got == want, text

    def test_the_layout_is_read_piecewise(self):
        # the base text and its trailing newline, as `simulate --out` writes it
        for text in (_SOFT_TEXT, _SOFT_TEXT + "\n"):
            _assert_carved(text)

    @staticmethod
    def _decoded(monkeypatch, text: str) -> list:
        """The first characters of every text the piecewise reader decodes."""
        decoded = []
        real = json.JSONDecoder.raw_decode

        def raw_decode(self, s, idx=0):
            decoded.append(s[idx:idx + 12])
            return real(self, s, idx)

        monkeypatch.setattr(json.JSONDecoder, "raw_decode", raw_decode)
        assert _read_carved(text) is not None
        monkeypatch.undo()
        return decoded

    @classmethod
    def _assert_item_lists_not_decoded(cls, monkeypatch, text: str) -> None:
        """The decoder reads the spec, the seed, every label and kind, and each
        distinct confidence item text once; no item list reaches it whole."""
        decoded = cls._decoded(monkeypatch, text)
        channels = json.loads(text)["channels"]
        distinct = sum(len({json.dumps(it) for it in c["items"]}) for c in channels
                       if c["kind"] in (CONF_POINTS, CONF_PAIRS))
        assert not any(d.startswith("[") for d in decoded)
        assert sum(d.startswith(('{"index": ', '{"pair": ')) for d in decoded) == distinct
        assert len(decoded) == 2 + 2 * len(channels) + distinct

    def test_each_distinct_item_is_decoded_once(self, monkeypatch):
        decoded = self._decoded(monkeypatch, _SOFT_TEXT)
        # spec, seed, label, kind, then the three distinct of five items
        assert sum(d.startswith('{"index": ') for d in decoded) == 3 and len(decoded) == 7
        text = dataset_to_json(_conf_pairs([[0, 1], [2, 2], [0, 1], [1, 0], [0, 1]],
                                           [0.5, 0.25, 0.5, 0.75, 0.5]))
        decoded = self._decoded(monkeypatch, text)
        assert sum(d.startswith('{"pair": ') for d in decoded) == 3 and len(decoded) == 7

    @pytest.mark.parametrize("name", ALL_SCENARIO_NAMES + ABSTRACT_SCENARIO_NAMES)
    def test_number_lists_are_read_as_arrays(self, name, monkeypatch):
        """No item list of the writer's reaches the decoder: points and pairs
        lists are read as arrays (a numpy whose parse the array path rejected
        would slow reads down without changing a result), and confidence
        lists one distinct item at a time."""
        j = scenario_joint(name, 4, 9, 3, seed=13, trial=2)
        ds = sample_weak_dataset(make_spec(name, j, 13, 2), j, 600, seed=29)
        self._assert_item_lists_not_decoded(monkeypatch, dataset_to_json(ds))

    @pytest.mark.parametrize("case", sorted(HAND_BUILT))
    def test_hand_built_number_lists_are_read_as_arrays(self, case, monkeypatch):
        self._assert_item_lists_not_decoded(monkeypatch, dataset_to_json(HAND_BUILT[case]))


# ---------------------------------------------------------------------------
# The codec on random channels of every kind
# ---------------------------------------------------------------------------

_INT64 = st.integers(-2 ** 63, 2 ** 63 - 1)
_INT32 = st.integers(-2 ** 31, 2 ** 31 - 1)
_BITS = st.integers(0, 2 ** 64 - 1)  # float64 bit patterns: signed zeros, NaNs, infinities, subnormals


def _floats(bits) -> np.ndarray:
    return np.array(bits, dtype=np.uint64).view(np.float64)


@st.composite
def _random_channel(draw, label: str) -> DatasetChannel:
    kind = draw(st.sampled_from([POINTS, PAIRS, CONF_POINTS, CONF_PAIRS]))
    n = draw(st.sampled_from([0, 1, 2, 5, 40]))
    dtype = draw(st.sampled_from([np.int64, np.int32]))
    values = _INT64 if dtype is np.int64 else _INT32
    if draw(st.booleans()):  # few distinct values, as sampled channels have
        values = st.sampled_from(draw(st.lists(values, min_size=1, max_size=4)))
    elif draw(st.booleans()):  # small indices, which the writer keys confidences by
        values = st.integers(0, 3)
    ints = lambda count: np.array(draw(st.lists(values, min_size=count, max_size=count)), dtype=dtype)
    bits = _BITS if draw(st.booleans()) else st.sampled_from(draw(st.lists(_BITS, min_size=1, max_size=3)))
    floats = lambda count: _floats(draw(st.lists(bits, min_size=count, max_size=count)))
    if kind == POINTS:
        return DatasetChannel(label, kind, indices=ints(n))
    if kind == PAIRS:
        return DatasetChannel(label, kind, pairs=ints(2 * n).reshape(n, 2))
    if kind == CONF_PAIRS:
        return DatasetChannel(label, kind, pairs=ints(2 * n).reshape(n, 2), table=floats(n), codes=np.arange(n))
    width = draw(st.integers(1, 3))
    return DatasetChannel(label, kind, indices=ints(n), table=floats(n * width).reshape(n, width),
                          codes=np.arange(n))


@st.composite
def _random_dataset(draw) -> WeakDataset:
    count = draw(st.integers(0, 3))
    channels = tuple(draw(_random_channel(f"c{i}")) for i in range(count))
    return WeakDataset(PU(), draw(st.integers(0, 2 ** 64 - 1)), channels)


@settings(max_examples=200, deadline=None)
@given(_random_dataset())
def test_codec_on_random_channels(ds):
    """The writer's text is json.dumps's and the reader's arrays json.loads's,
    bit for bit, and the writer's layout is read piecewise."""
    text = dataset_to_json(ds)
    assert text == _reference_to_json(ds)
    _assert_read_bits(text)
    _assert_carved(text)


# ---------------------------------------------------------------------------
# Channels: checked against their kind when built, kept keyed
# ---------------------------------------------------------------------------

_IDX = np.array([0, 1, 1])
_ARANGE3 = np.arange(3)
_PAIRS3 = np.array([[0, 1], [1, 1], [0, 1]])
BAD_CHANNELS = {
    "2-D indices on a points channel": lambda: DatasetChannel("P", POINTS, indices=_IDX.reshape(3, 1)),
    "float indices": lambda: DatasetChannel("P", POINTS, indices=_IDX.astype(float)),
    "pairs on a points channel": lambda: DatasetChannel("P", POINTS, indices=_IDX, pairs=_PAIRS3),
    "confidences on a points channel": lambda: DatasetChannel("P", POINTS, indices=_IDX, table=np.ones((3, 2)),
                                                              codes=_ARANGE3),
    "3-column pairs": lambda: DatasetChannel("S", PAIRS, pairs=np.zeros((3, 3), dtype=int)),
    "(n, 2) conf-pairs confidences": lambda: DatasetChannel("XX", CONF_PAIRS, pairs=_PAIRS3,
                                                            table=np.full((3, 2), 0.5), codes=_ARANGE3),
    "conf-pairs confidences of another length": lambda: DatasetChannel("XX", CONF_PAIRS, pairs=_PAIRS3,
                                                                       table=np.full(4, 0.5), codes=np.arange(4)),
    "conf-points confidences of another length": lambda: DatasetChannel("X", CONF_POINTS, indices=_IDX,
                                                                        table=np.full((2, 2), 0.5),
                                                                        codes=np.arange(2)),
    "1-D conf-points confidences": lambda: DatasetChannel("X", CONF_POINTS, indices=_IDX,
                                                          table=np.full(3, 0.5), codes=_ARANGE3),
    "conf-points draws without confidences": lambda: DatasetChannel("X", CONF_POINTS, indices=_IDX),
    "string confidences": lambda: DatasetChannel("X", CONF_POINTS, indices=_IDX,
                                                 table=np.full((3, 2), "0.5"), codes=_ARANGE3),
    "a code beyond the table": lambda: DatasetChannel("X", CONF_POINTS, indices=_IDX, table=np.ones((2, 2)),
                                                      codes=np.array([0, 2, 1])),
    "a negative code": lambda: DatasetChannel("X", CONF_POINTS, indices=_IDX, table=np.ones((2, 2)),
                                              codes=np.array([0, -1, 1])),
    "codes of another length": lambda: DatasetChannel("X", CONF_POINTS, indices=_IDX, table=np.ones((2, 2)),
                                                      codes=np.array([0, 1])),
    "a table without codes": lambda: DatasetChannel("X", CONF_POINTS, indices=_IDX, table=np.ones((2, 2))),
    "a 1-D table of rows": lambda: DatasetChannel("X", CONF_POINTS, indices=_IDX, table=np.ones(2),
                                                  codes=np.array([0, 1, 1])),
    "an unsigned index of 2**63": lambda: DatasetChannel("P", POINTS, indices=np.array([0, 2 ** 63], np.uint64)),
    "an unsigned code of 2**63": lambda: DatasetChannel("X", CONF_POINTS, indices=_IDX, table=np.ones((2, 2)),
                                                        codes=np.array([0, 2 ** 63, 1], np.uint64)),
}


@pytest.mark.parametrize("case", sorted(BAD_CHANNELS))
def test_channel_arrays_are_checked_against_the_kind(case):
    with pytest.raises(ShapeMismatch):
        BAD_CHANNELS[case]()


def test_channels_that_fit_their_kind():
    # every kind with no draws, with no arrays at all, and a table read by codes
    for kind in (POINTS, PAIRS, CONF_POINTS, CONF_PAIRS):
        assert DatasetChannel("c", kind).n_draws == 0
    c = DatasetChannel("X", CONF_POINTS, indices=_IDX, table=np.array([[0.5, 0.5], [0.1, 0.9]]),
                       codes=np.array([1, 0, 0]))
    assert c.n_draws == 3 and c.confidences.tolist() == [[0.1, 0.9], [0.5, 0.5], [0.5, 0.5]]
    # unsigned integers, as int64
    for dtype in (np.uint8, np.uint32, np.uint64):
        c = DatasetChannel("P", POINTS, indices=_IDX.astype(dtype))
        assert c.indices.dtype == np.int64 and c.indices.tolist() == [0, 1, 1]
        c = DatasetChannel("XX", CONF_PAIRS, pairs=_PAIRS3.astype(dtype), table=[0.25, 0.5],
                           codes=np.array([0, 1, 0], dtype))
        assert c.pairs.dtype == c.codes.dtype == np.int64 and c.confidences.tolist() == [0.25, 0.5, 0.25]
    c = DatasetChannel("P", POINTS, indices=np.array([2 ** 63 - 1], np.uint64))
    assert c.indices.tolist() == [2 ** 63 - 1]


@pytest.mark.parametrize("reader", ["channel_terms", "dataset_to_json"])
def test_confidences_set_later_are_checked_too(reader):
    """Confidences are not assigned to a channel but given to a new one, and
    per-draw confidences that do not fit its draws are a ShapeMismatch, not
    numpy's ValueError, before any reader sees them."""
    from wslrr.risk import channel_terms
    j = scenario_joint("Soft", 3, 5, 2, seed=43, trial=0)
    ds = sample_weak_dataset(Soft(), j, 30, seed=9)
    c = ds.channels[0]
    with pytest.raises(AttributeError):
        c.confidences = np.full((30, 3), 1.0 / 3)
    with pytest.raises(ShapeMismatch, match="codes"):
        DatasetChannel(c.label, c.kind, indices=c.indices, table=np.full((31, 3), 1.0 / 3), codes=np.arange(31))
    ds = WeakDataset(ds.spec, ds.seed, (DatasetChannel(c.label, c.kind, indices=c.indices,
                                                       table=np.full((30, 3), 1.0 / 3), codes=np.arange(30)),))
    if reader == "channel_terms":  # Soft weighs the losses by the stored row itself
        assert np.all(channel_terms(ds, Soft(), j)[0].table == 1.0 / 3)
    else:
        assert np.all(dataset_from_json(dataset_to_json(ds)).channels[0].confidences == 1.0 / 3)


@pytest.mark.parametrize("field", ["table", "codes", "indices"])
def test_a_sampled_channel_refuses_assignment(field):
    """A channel and its dataset are frozen: arrays assigned after building
    would skip the checks against the kind, so assignment raises and leaves
    the channel as sampled, and the same arrays given to a new channel are a
    ShapeMismatch."""
    from wslrr.risk import channel_terms
    j = scenario_joint("Soft", 3, 5, 2, seed=43, trial=0)
    ds = sample_weak_dataset(Soft(), j, 30, seed=9)
    c = ds.channels[0]
    before = dataset_to_json(ds)
    bad = {"table": np.full((31, 3), 1.0 / 3), "codes": np.arange(31), "indices": np.arange(31)}
    with pytest.raises(AttributeError, match=field):
        setattr(c, field, bad[field])
    with pytest.raises(AttributeError, match="channels"):
        ds.channels = ()
    with pytest.raises(AttributeError):
        delattr(c, field)
    assert dataset_to_json(ds) == before and len(channel_terms(ds, Soft(), j)[0].idx) == 30
    with pytest.raises(ShapeMismatch, match="codes"):
        DatasetChannel(c.label, c.kind, indices=c.indices, table=bad["table"], codes=bad["codes"])
    with pytest.raises(ShapeMismatch, match="codes"):
        DatasetChannel(c.label, c.kind, indices=bad["indices"], table=c.table, codes=c.codes)


def test_a_misshapen_channel_exits_2_through_the_cli(tmp_path, monkeypatch, capsys):
    from wslrr.cli import main
    from wslrr.core import joint_to_json
    path = tmp_path / "j.json"
    path.write_text(joint_to_json(scenario_joint("PU", 2, 5, 2, seed=7, trial=0)))
    real = wslrr.datagen._categorical
    monkeypatch.setattr(wslrr.datagen, "_categorical", lambda *a: real(*a).reshape(-1, 1))  # 2-D indices
    assert main(["simulate", "--joint", str(path), "--scenario", "PU", "--n", "10", "--seed", "1"]) == 2
    assert "ShapeMismatch" in capsys.readouterr().err


def _rebuilt(ds: WeakDataset, edit=lambda conf: conf) -> WeakDataset:
    """A copy of a dataset built from its per-draw arrays, one code per draw,
    the confidences passed through ``edit``."""
    def copy(c):
        if c.kind not in (CONF_POINTS, CONF_PAIRS):
            return DatasetChannel(c.label, c.kind, indices=c.indices, pairs=c.pairs)
        return DatasetChannel(c.label, c.kind, indices=c.indices, pairs=c.pairs, table=edit(c.confidences),
                              codes=np.arange(c.n_draws))
    return WeakDataset(ds.spec, ds.seed, tuple(copy(c) for c in ds.channels))


class TestDatasetsEqualBitForBit:
    @pytest.mark.parametrize("case", ["nan and inf", "nan and inf pairs"])
    def test_a_nan_equals_itself(self, case):
        ds = HAND_BUILT[case]
        assert datasets_equal(ds, ds) and datasets_equal(ds, _rebuilt(ds))

    @pytest.mark.parametrize("case", ["signed zeros", "signed zero pairs"])
    def test_signed_zeros_differ(self, case):
        ds = HAND_BUILT[case]
        assert datasets_equal(ds, dataset_from_json(dataset_to_json(ds)))
        flipped = _rebuilt(ds, lambda conf: np.abs(conf))  # -0.0 -> 0.0, equal as floats
        assert not datasets_equal(ds, flipped) and not datasets_equal(flipped, ds)
        assert datasets_equal(flipped, _rebuilt(flipped))

    def test_equal_draws_under_other_codes(self):
        # a sampled channel codes its draws by instance, a read one by distinct item
        j = scenario_joint("Soft", 3, 5, 2, seed=43, trial=0)
        ds = sample_weak_dataset(Soft(), j, 200, seed=9)
        back = dataset_from_json(dataset_to_json(ds))
        assert len(back.channels[0].table) < len(ds.channels[0].table) or not np.array_equal(
            back.channels[0].codes, ds.channels[0].codes)
        assert datasets_equal(ds, back) and datasets_equal(back, ds)
        assert not datasets_equal(ds, _rebuilt(ds, lambda conf: np.where(conf == conf[7, 0], 0.5, conf)))

    @pytest.mark.parametrize("name", ["Soft", "Pconf", "SubConf", "SCConf", "Sconf"])
    def test_an_empty_channel_round_trips(self, name):
        # a sampled channel with no draws keeps its (n_x, K) table, a read one an empty table
        j = scenario_joint(name, 4, 9, 3, seed=13, trial=2)
        ds = sample_weak_dataset(make_spec(name, j, 13, 2), j, 0, seed=29)
        back = dataset_from_json(dataset_to_json(ds))
        assert datasets_equal(ds, back) and datasets_equal(back, ds)


@pytest.mark.parametrize("name", ["Soft", "SubConf", "Sconf"])
def test_carved_and_generic_reads_weigh_alike(name):
    """The generic reader codes every draw, the carved one every distinct
    item: the same per-draw confidences, and weight tables equal to 1e-12."""
    from wslrr.risk import weight_table
    j = scenario_joint(name, 4, 9, 3, seed=13, trial=2)
    spec = make_spec(name, j, 13, 2)
    text = dataset_to_json(sample_weak_dataset(spec, j, 3000, seed=29))
    carved, generic = _read_carved(text), _read_generic(text)
    c, g = carved.channels[0], generic.channels[0]
    assert len(c.table) < len(g.table) and np.array_equal(g.codes, np.arange(g.n_draws))
    assert np.array_equal(c.confidences, g.confidences)
    W_c, W_g = weight_table(carved, spec, j), weight_table(generic, spec, j)
    assert np.all(np.abs(W_c - W_g) <= 1e-12 * np.abs(W_g))


def test_reading_confidences_leaves_the_channel_keyed():
    """Soft at 100k draws holds its instances and the (n_x, K) table, not an
    (n, K) copy: less than half of one in the traced memory kept, and less
    than one at the peak.  Reading ``confidences`` makes a fresh read-only
    per-draw array and leaves the table and codes in place."""
    j = scenario_joint("Soft", 4, 6, 3, seed=7, trial=17)
    sample_weak_dataset(Soft(), j, 1000, seed=5)  # warm every code path
    n, K = 100_000, 4
    tracemalloc.start()
    try:
        ds = sample_weak_dataset(Soft(), j, n, seed=5)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept < n * K * 8 / 2 and peak < n * K * 8
    c = ds.channels[0]
    table, codes = c.table, c.codes
    assert codes is c.indices and table.shape == (6, 4)
    conf = c.confidences
    assert np.array_equal(conf, marginals(j).class_probabilities[:, c.indices].T)
    with pytest.raises(ValueError):
        conf[0] = 0.5
    assert c.confidences is not conf and c.table is table and c.codes is codes
    assert np.array_equal(c.confidences, conf) and not np.shares_memory(conf, table)
