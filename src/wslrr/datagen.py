"""Weak dataset sampling from the exact channel distributions.

Sampling is integer-only and platform-stable: a counter-based Philox
generator keyed by (seed, stream index), both in [0, 2**64), produces raw
64-bit words, inverted against the channel's cumulative probabilities in a
fixed order.  The same (spec, joint, n, seed) always yields the same dataset.

The inversion is exact, and O(1) per draw for large draws.  A word w
stands for the uniform u = (w >> 11) * 2**-53; for B <= 53 its bucket
[b/2**B, (b+1)/2**B) is b = w >> (64 - B).  A table holds, per bucket, the
number of cumulative values <= its lower edge, the count for every u in it,
or -1 when one lies strictly inside; only those draws are converted to u
and searched, for ``searchsorted(cum, u, "right")``.  The table is counted
in O(items + buckets), and built when searching every draw costs more.

A confidence channel is keyed: it holds a table of confidence rows or pair
values and one code per draw, and makes a per-draw copy only when one is read.
Datasets are written to and read from one line of JSON.  The writer builds
each item list from per-field text tables joined once.  The reader parses a
list of integers as one array, accepted when the writer gives back its
exact text, and decodes each distinct confidence item once.
"""

from __future__ import annotations

import json
import threading
from collections.abc import Mapping
from typing import Optional, Union

import numpy as np

from .core import FiniteJoint, parse_json, record
from .errors import (
    EmptyChannel,
    SchemaMismatch,
    ShapeMismatch,
    ValidationError,
    ZeroChannelMass,
)
from .scenarios import (
    FAMILY_CCN,
    FAMILY_MCD,
    ScenarioSpec,
    compound_label_space,
    _System,
    _pair_law,
    _scenario_from_object,
    _sconf_confidences,
    _spec_object,
    _superclass_probability,
    _system,
)

POINTS = "points"
PAIRS = "pairs"
CONF_POINTS = "conf-points"
CONF_PAIRS = "conf-pairs"


_thread = threading.local()  # one Philox generator per thread, re-keyed on every call


def _is_integer(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def philox_words(seed: int, stream: int, n: int) -> np.ndarray:
    """n raw uint64 words of the Philox counter generator keyed by
    (seed, stream); draw index is the counter position.  A seed or stream
    that is not an integer in [0, 2**64) is a ValidationError: reduced
    modulo 2**64 it would silently draw another key's words.  So is a count
    ``n`` that is not an integer in [0, 2**60): numpy sizes an array in
    signed 64-bit bytes, so it cannot shape 2**60 eight-byte words.
    Booleans are not integers here.

    The words are those of ``np.random.Philox(key=key).random_raw(n)``: the
    thread's generator is set to that fresh state (counter 0, empty buffer)
    rather than built anew, which costs several times more."""
    for what, value, bound in (("seed", seed, 2 ** 64), ("stream", stream, 2 ** 64),
                               ("draw count", n, 2 ** 60)):
        if not (_is_integer(value) and 0 <= int(value) < bound):
            raise ValidationError(f"Philox {what} must be an integer in "
                                  f"[0, 2**{bound.bit_length() - 1}), got {value!r}")
    key = np.array([int(seed), int(stream)], dtype=np.uint64)
    if not hasattr(_thread, "philox"):
        _thread.philox = np.random.Philox(0)
    bg = _thread.philox
    bg.state = {"bit_generator": "Philox",
                "state": {"counter": np.zeros(4, dtype=np.uint64), "key": key},
                "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
                "has_uint32": 0, "uinteger": 0}
    return bg.random_raw(n)


def _uniforms(words: np.ndarray) -> np.ndarray:
    """The uniform in [0, 1) of each word: its top 53 bits times 2**-53."""
    return (words >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)


def philox_uniforms(seed: int, stream: int, n: int) -> np.ndarray:
    """The uniforms of :func:`philox_words` (seed, stream, n)."""
    return _uniforms(philox_words(seed, stream, n))


MAX_BUCKET_BITS = 16  # at most 2**16 buckets: a 512 kB table


def _categorical(probs: np.ndarray, words: np.ndarray, what: str) -> np.ndarray:
    """Invert Philox words against the cumulative of a flat probability
    vector: ``np.searchsorted(cum, u, side="right")`` at their uniforms u,
    bit for bit, clamped to the last item that has mass.  The search is
    bucketed as the module docstring says, into n/32 buckets, at least 4 per
    item and at most 2**16, when that costs less: a step per bucket and 2**13
    for the table's numpy calls, against bit_length(items) steps per draw."""
    flat = probs.ravel()
    total = float(flat.sum())
    if total <= 0.0:
        raise ZeroChannelMass(f"{what} has zero total probability")
    cum = np.cumsum(flat / total)
    bits = min((max(4 * cum.size, words.size // 32) - 1).bit_length(), MAX_BUCKET_BITS)
    if words.size * cum.size.bit_length() < 2 ** bits + 2 ** 13:
        pos = np.searchsorted(cum, _uniforms(words), side="right")
    else:  # entry b counts the s = cum * 2**bits <= b (ceil(s) <= b), or is -1 if one is in (b, b + 1)
        s = cum * 2.0 ** bits  # exact; an s above 2**bits (cum[-1] > 1) is counted past the table, unread
        table = np.bincount(np.ceil(s).astype(np.intp), minlength=2 ** bits)
        np.cumsum(table, out=table)
        table[np.floor(s[s % 1 > 0]).astype(np.intp)] = -1
        # each word's bucket, replaced in place by its table entry: an entry reads only its own
        # bucket, and "clip" (a no-op on these buckets), unlike "raise", writes ``out`` directly
        pos = (words >> np.uint64(64 - bits)).view(np.int64)
        np.take(table, pos, out=pos, mode="clip")
        hard = np.flatnonzero(pos < 0)
        pos[hard] = np.searchsorted(cum, _uniforms(words[hard]), side="right")
    # u >= cum[-1] < 1 by rounding: take the last item that has mass
    return np.minimum(pos, np.flatnonzero(flat > 0)[-1], out=pos)


@record(eq=False)
class DatasetChannel:
    """One channel's draws: the (n,) ``indices`` of points and conf-points,
    or the (n, 2) index ``pairs`` of pairs and conf-pairs.  A confidence
    channel holds ``table``, its confidence rows (T, K) or pair values (T,),
    and ``codes``, the table entry of every draw; a channel built from
    per-draw confidences passes them as the table with ``codes=np.arange(n)``.
    Arrays that do not fit the kind raise ShapeMismatch; the record is
    frozen, so every array it holds was checked when it was built."""
    label: str
    kind: str
    indices: Optional[np.ndarray] = None  # (n,) instance indices
    pairs: Optional[np.ndarray] = None    # (n, 2) index pairs
    table: Optional[np.ndarray] = None    # (T, K) rows or (T,) pair values
    codes: Optional[np.ndarray] = None    # (n,) the table entry of every draw

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in _CHANNEL_FIELDS:
            raise SchemaMismatch(f"unknown channel kind {self.kind!r}")
        (where, _, _, shape), *keyed = _CHANNEL_FIELDS[self.kind]
        stray = ("pairs" if where == "indices" else "indices",) + (() if keyed else ("table", "codes"))
        if any(getattr(self, f) is not None for f in stray):
            raise ShapeMismatch(f"a {self.kind} channel holds no {' or '.join(stray)}")
        at = getattr(self, where)
        at = np.empty((0,) + shape[1:], dtype=np.int64) if at is None else np.asarray(at)
        object.__setattr__(self, where, _checked(at, where, "i", shape))
        if keyed:
            table, codes = self.table, self.codes
            if table is None and codes is None:  # none, for no draws
                table, codes = np.empty((0,) * len(keyed[0][3])), np.empty(0, dtype=np.intp)
            table = _checked(np.asarray(table), "table", "f", (None,) + keyed[0][3][1:])
            object.__setattr__(self, "table", table)
            object.__setattr__(self, "codes", _checked(np.asarray(codes), "codes", "i", (self.n_draws,)))
            if self.n_draws and not 0 <= self.codes.min() <= self.codes.max() < len(self.table):
                raise ShapeMismatch(f"channel {self.label!r} has codes outside its table")

    @property
    def confidences(self) -> Optional[np.ndarray]:
        """The (n, K) rows or (n,) pair values of every draw, ``table[codes]``:
        a fresh read-only array, so that an edit in place raises instead of
        missing the table."""
        if self.table is None:
            return None
        conf = self.table[self.codes]
        conf.flags.writeable = False
        return conf

    @property
    def n_draws(self) -> int:
        return len(self.indices if self.kind in (POINTS, CONF_POINTS) else self.pairs)


def _checked(arr: np.ndarray, what: str, kind: str, shape: tuple, error=ShapeMismatch) -> np.ndarray:
    """``arr`` as integers (``kind`` "i", unsigned ones as int64) or float64
    numbers ("f") of shape ``shape``, None matching any length; anything
    else, or an integer of 2**63 or more, raises ``error``."""
    if (arr.dtype.kind not in ("iu" if kind == "i" else "if") or arr.ndim != len(shape)
            or any(n not in (None, m) for n, m in zip(shape, arr.shape))):
        raise error(f"channel {what} must be {'integers' if kind == 'i' else 'numbers'} "
                    f"of shape {shape}, got {arr.dtype} values of shape {arr.shape}")
    if arr.dtype.kind == "u":
        if arr.size and int(arr.max()) >= 2 ** 63:
            raise error(f"channel {what} must be integers below 2**63, got {int(arr.max())}")
        arr = arr.astype(np.int64)
    return arr if kind == "i" else arr.astype(np.float64, copy=False)


def _keyed(key: np.ndarray, size: int) -> tuple:
    """(the rank of every draw's integer key in [0, size), a draw of each
    rank).  Below max(2 n, 2**16) a key is its own rank, and a rank no draw
    has reads draw 0; from there on the keys are ranked by a sort."""
    if size >= max(2 * len(key), 2 ** 16):
        distinct, key = np.unique(key, return_inverse=True)
        key, size = key.ravel(), len(distinct)  # the inverse's shape varies with numpy
    one = np.zeros(size, dtype=np.intp)
    one[key] = np.arange(len(key))
    return key, one


@record(eq=False)
class WeakDataset:
    spec: ScenarioSpec
    seed: int
    channels: tuple

    def channel(self, label: str) -> DatasetChannel:
        for c in self.channels:
            if c.label == label:
                return c
        raise EmptyChannel(f"no channel {label!r} in dataset")


def datasets_equal(a: WeakDataset, b: WeakDataset) -> bool:
    """Same spec, seed and draws, with confidences equal bit for bit (0.0
    and -0.0 differ, a NaN equals itself): once per distinct pair of codes."""
    from .scenarios import specs_equal
    if not specs_equal(a.spec, b.spec) or a.seed != b.seed or len(a.channels) != len(b.channels):
        return False
    for ca, cb in zip(a.channels, b.channels):
        if (ca.label, ca.kind) != (cb.label, cb.kind) or not np.array_equal(
                *(c.indices if c.kind in (POINTS, CONF_POINTS) else c.pairs for c in (ca, cb))):
            return False
        if ca.kind in (CONF_POINTS, CONF_PAIRS) and ca.n_draws:  # no draws read no table
            (ta, ka), (tb, kb) = (ca.table, ca.codes), (cb.table, cb.codes)
            if ta.shape[1:] != tb.shape[1:]:
                return False
            if np.array_equal(ka, kb) and ta.tobytes() == tb.tobytes():  # as two samples of a system are
                continue
            _, one = _keyed(ka * len(tb) + kb, len(ta) * len(tb))
            if ta[ka[one]].tobytes() != tb[kb[one]].tobytes():
                return False
    return True


def sampling_channels(spec: ScenarioSpec, K: int) -> tuple:
    """Channel names a sample-size request may address: the record's streams,
    or its observed channels when each is sampled on its own."""
    return spec.streams or spec.labels(K)


def dataset_channels(spec: ScenarioSpec, K: int) -> tuple:
    """(label, kind) of every channel of a sampled dataset, in order: the
    label channels' one stream grouped by label; otherwise every sampling
    channel, pairs or points, with the oracle confidences attached outside
    the mixture family."""
    if spec.family == FAMILY_CCN:
        return tuple((label, POINTS) for label in spec.labels(K))
    pairs, points = (PAIRS, POINTS) if spec.family == FAMILY_MCD else (CONF_PAIRS, CONF_POINTS)
    return tuple((label, pairs if label in spec.pair_channels else points)
                 for label in sampling_channels(spec, K))


def _resolve_sizes(spec: ScenarioSpec, K: int, n: Union[int, dict]) -> dict:
    """Every sampling channel's size: ``n`` for each, or ``n``'s entry (0 if
    absent).  A size that is not a nonnegative integer is a ValidationError,
    not rounded or converted."""
    names = sampling_channels(spec, K)
    if isinstance(n, Mapping):
        unknown = set(n) - set(names)
        if unknown:
            raise ValidationError(f"unknown channel names {sorted(unknown)}; this scenario has {list(names)}")
        sizes = {name: n.get(name, 0) for name in names}
    else:
        sizes = dict.fromkeys(names, n)
    for name, size in sizes.items():
        if not (_is_integer(size) and size >= 0):
            raise ValidationError(f"sample size of channel {name} must be a nonnegative integer, "
                                  f"got {size!r}")
    return {name: int(size) for name, size in sizes.items()}


def sample_weak_dataset(spec: ScenarioSpec, j: FiniteJoint, n: Union[int, dict], seed: int) -> WeakDataset:
    """Draw a weak dataset under the scenario's data-generating process.

    ``n`` is a per-channel size map (or one size for every channel); channel
    names follow :func:`sampling_channels`.  Mixture channels sample
    instances from their exact densities, pair channels sample index pairs
    from the exact pair law, label channels sample (compound label, x)
    jointly, and confidence channels code each draw into the oracle class
    probabilities (by instance) or pair confidences (by flat pair code).
    Every channel reads the one validated system the joint keeps for ``spec``.
    """
    return _sample(_system(spec, j), n, seed)


def _sample(system: _System, n: Union[int, dict], seed: int) -> WeakDataset:
    """:func:`sample_weak_dataset` from a validated system."""
    spec, j, m = system.spec, system.j, system.m
    sizes = _resolve_sizes(spec, j.K, n)
    n_x = j.n_x
    if spec.family == FAMILY_CCN:
        return _sample_label_stream(system, sizes["SX"], seed)

    # every other channel is drawn by its kind, one Philox stream per channel
    channels = []
    for stream, (label, kind) in enumerate(dataset_channels(spec, j.K)):
        w = philox_words(seed, stream, sizes[label])
        if kind in (PAIRS, CONF_PAIRS):
            pos = _categorical(_pair_law(m, label), w, f"pair channel {label}")
            pairs = np.stack([pos // n_x, pos % n_x], axis=1)
            keyed = ({"table": _sconf_confidences(m, np.arange(n_x), np.arange(n_x)).ravel(), "codes": pos}
                     if kind == CONF_PAIRS else {})  # flat pair codes into the raveled table
            channels.append(DatasetChannel(label, kind, pairs=pairs, **keyed))
        elif kind == POINTS:  # a mixture channel: its exact density
            pos = _categorical(system.observed[:, stream], w, f"channel {label}")
            channels.append(DatasetChannel(label, kind, indices=pos))
        else:  # confidence data: the super-class law, coded into the oracle class probabilities
            dist = m.instance_marginal if spec.members is None else _superclass_probability(spec, j.joint)
            idx = _categorical(dist, w, f"channel {label}")  # the instances are the codes: one array
            channels.append(DatasetChannel(label, kind, indices=idx, table=m.class_probabilities.T, codes=idx))
    return WeakDataset(spec=spec, seed=int(seed), channels=tuple(channels))


def _sample_label_stream(system: _System, count: int, seed: int) -> WeakDataset:
    """(compound label, instance) draws, grouped into per-label channels by
    one stable sort of the label codes, each in stream order.

    A record with a ``size_law`` (MCL) is sampled in its stated two stages:
    the excluded-set size first (independent of x), then the (label, x) pair
    from that size's conditional law.
    """
    spec, j = system.spec, system.j
    n_x = j.n_x
    labels = spec.labels(j.K)
    flat = system.observed.T  # (m_channels, n_x), channel-major

    if spec.size_law is not None:
        # the labels of size d are the rows start[d - 1]:start[d] of flat, in canonical order
        start = np.searchsorted([len(s) for s in compound_label_space(j.K)], np.arange(1, j.K + 1))
        d_draw = _categorical(np.asarray(spec.size_law), philox_words(seed, 0, count), "size law") + 1
        w2 = philox_words(seed, 1, count)
        code = np.empty(count, dtype=int)
        for d in range(1, j.K):
            mask = d_draw == d
            if mask.any():
                pos = _categorical(flat[start[d - 1]:start[d]], w2[mask], f"size-{d} conditional")
                code[mask] = start[d - 1] * n_x + pos
    else:
        code = _categorical(flat, philox_words(seed, 0, count), "label stream")
    # the label of every draw, in the narrowest type, and its instance in stream order within a label
    chan = np.floor_divide(code, n_x, out=np.empty(count, np.min_scalar_type(len(labels) - 1)), casting="unsafe")
    order = np.argsort(chan, kind="stable")  # a radix sort
    inst = code.take(order)
    split = np.split(np.remainder(inst, n_x, out=inst), np.searchsorted(chan[order], np.arange(1, len(labels))))
    channels = tuple(DatasetChannel(label, POINTS, indices=idx) for label, idx in zip(labels, split))
    return WeakDataset(spec=spec, seed=int(seed), channels=channels)


# ---------------------------------------------------------------------------
# JSON: {"spec": {...}, "seed": u64, "channels": [{"label", "kind", "items"}]}
# ---------------------------------------------------------------------------

_encode = json.JSONEncoder(check_circular=False).encode  # values are fresh lists and scalars


def _int_texts(values: np.ndarray) -> tuple:
    """(codes, texts): the JSON text of every integer in ``values`` is
    ``texts[code]``, the codes in ``values``' order, flattened.  Values in
    [0, 2 n + 64) for n values index a table over that range; wider or
    negative ones a table over their distinct values."""
    flat = values.ravel()
    if flat.size and 0 <= flat.min() and flat.max() < 2 * flat.size + 64:
        return flat, list(map(str, range(int(flat.max()) + 1)))
    distinct, codes = np.unique(flat, return_inverse=True)
    return codes.ravel(), list(map(str, distinct.tolist()))  # the inverse's shape varies with numpy


def _item_list(head: str, fields: tuple) -> str:
    """The JSON list of one or more items, item i being ``head`` followed
    by, for each field ``(codes, texts, literal)``, ``texts[codes[i]] +
    literal``.  Each table text is joined to its literal once, and the
    whole list in one ``"".join``: the last field's literal carries the
    ``", "`` and the next item's ``head``, cut again after the last item."""
    parts = np.empty((len(fields[0][0]), len(fields)), dtype=object)
    for j, (codes, texts, literal) in enumerate(fields):
        if j == len(fields) - 1:
            literal += ", " + head
        parts[:, j] = np.array([t + literal for t in texts], dtype=object)[codes]
    return "[" + head + "".join(parts.ravel().tolist())[:-len(", " + head)] + "]"


def _entry_texts(table: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """The JSON text of every table row or value that a code reads, "" for
    the others, from one encoder call (no number's text holds ", " or "], [")."""
    present = np.bincount(codes, minlength=len(table)) > 0
    texts = np.full(len(table), "", dtype=object)
    listed = _encode(table[present].tolist())
    texts[present] = (listed[1:-1].split(", ") if table.ndim == 1
                      else ["[" + t + "]" for t in listed[2:-2].split("], [")])
    return texts


def _items_json(c: DatasetChannel) -> str:
    """The channel's item list as JSON text, built from per-field text
    tables (see :func:`_item_list`).  Integers are written by ``str`` from a
    table over their range or distinct values (:func:`_int_texts`), and a
    confidence channel's rows or values from its table, each entry that a
    draw reads formatted once by the C encoder."""
    if c.n_draws == 0:
        return "[]"
    if c.kind == POINTS:
        return _item_list("", (_int_texts(c.indices) + ("",),))
    if c.kind == CONF_POINTS:
        return _item_list('{"index": ', (_int_texts(c.indices) + (', "confidences": ',),
                                         (c.codes, _entry_texts(c.table, c.codes), "}")))
    ints, texts = _int_texts(c.pairs)
    a, b = ints.reshape(-1, 2).T
    if c.kind == PAIRS:
        return _item_list("[", ((a, texts, ", "), (b, texts, "]")))
    return _item_list('{"pair": [', ((a, texts, ", "), (b, texts, '], "confidence": '),
                                     (c.codes, _entry_texts(c.table, c.codes), "}")))


def dataset_to_json(ds: WeakDataset) -> str:
    """One line of JSON, ``{"spec", "seed", "channels": [{"label", "kind",
    "items"}]}``, with the default separators.  The text is what ``json.dumps``
    writes for the dataset as nested lists and dicts; it is assembled from
    per-channel fragments so that each confidence row or value that a draw
    reads is formatted once (see :func:`_items_json`)."""
    channels = ", ".join(f'{{"label": {_encode(c.label)}, "kind": {_encode(c.kind)}, '
                         f'"items": {_items_json(c)}}}' for c in ds.channels)
    return (f'{{"spec": {_encode(_spec_object(ds.spec))}, "seed": {_encode(ds.seed)}, '
            f'"channels": [{channels}]}}')


def _item_array(items, key: Optional[str], kind: str, shape: tuple) -> np.ndarray:
    """Field ``key`` of every item (the items themselves when None) as integers
    (``kind`` "i") or numbers ("f") of shape ``shape``, None matching any
    length; anything else is a SchemaMismatch."""
    what = "items" if key is None else f"item field {key!r}"
    try:
        arr = np.asarray(items if key is None else [it[key] for it in items])
    except (TypeError, KeyError, ValueError) as e:  # no such field, ragged nesting
        raise SchemaMismatch(f"bad channel {what}: {e!r}") from e
    if arr.shape[:1] == (0,):
        arr = np.empty([n or 0 for n in shape])
    else:
        _checked(arr, what, kind, shape, SchemaMismatch)
    return arr.astype(np.int64 if kind == "i" else np.float64)


# kind -> (field, item key, integers "i" or numbers "f", shape) of each array
_CHANNEL_FIELDS = {
    POINTS: (("indices", None, "i", (None,)),),
    PAIRS: (("pairs", None, "i", (None, 2)),),
    CONF_POINTS: (("indices", "index", "i", (None,)),
                  ("confidences", "confidences", "f", (None, None))),
    CONF_PAIRS: (("pairs", "pair", "i", (None, 2)),
                 ("confidences", "confidence", "f", (None,))),
}


def _channel(label, kind, items, codes: Optional[np.ndarray] = None) -> DatasetChannel:
    """A channel from its parsed items; a confidence channel keeps their
    confidences as the table its codes read.  With ``codes``, ``items`` are
    the distinct items and ``codes`` the position of every draw's item in
    them, and the instances or pairs are gathered; without, every draw is
    one item and its own code."""
    if not isinstance(kind, str) or kind not in _CHANNEL_FIELDS:
        raise SchemaMismatch(f"unknown channel kind {kind!r}")
    fields = {f: _item_array(items, key, t, shape) for f, key, t, shape in _CHANNEL_FIELDS[kind]}
    if "confidences" in fields:
        where = _CHANNEL_FIELDS[kind][0][0]
        if codes is None:
            codes = np.arange(len(fields[where]))
        else:
            fields[where] = fields[where][codes]
        fields.update(table=fields.pop("confidences"), codes=codes)
    return DatasetChannel(label, kind, **fields)


def _dataset(spec: ScenarioSpec, seed, channels: list) -> WeakDataset:
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise SchemaMismatch(f"dataset seed must be an integer, got {seed!r}")
    if not 0 <= seed < 2 ** 64:
        raise SchemaMismatch(f"dataset seed must lie in [0, 2**64), got {seed}")
    return WeakDataset(spec=spec, seed=seed, channels=tuple(channels))


def _read_generic(text: str) -> WeakDataset:
    """Any dataset JSON, through one ``json.loads``; every reading error is
    raised here."""
    raw = parse_json(text, "dataset JSON")
    if not isinstance(raw, dict) or not {"spec", "seed", "channels"} <= raw.keys():
        raise SchemaMismatch('dataset JSON needs keys "spec", "seed", "channels"')
    if not isinstance(raw["channels"], list):
        raise SchemaMismatch(f'dataset "channels" must be a list, got {raw["channels"]!r}')
    spec = _scenario_from_object(raw["spec"])
    channels = []
    for c in raw["channels"]:
        if not isinstance(c, dict) or not {"label", "kind", "items"} <= c.keys():
            raise SchemaMismatch('each channel needs keys "label", "kind", "items"')
        channels.append(_channel(c["label"], c["kind"], c["items"]))
    return _dataset(spec, raw["seed"], channels)


def _expect(text: str, pos: int, literal: str) -> int:
    """The position after ``literal``, which must stand at ``pos``."""
    if not text.startswith(literal, pos):
        raise ValueError(f"expected {literal!r} at {pos}")
    return pos + len(literal)


def _distinct_items(decode, text: str, start: int, stop: int) -> tuple:
    """(distinct items, the code of every item) of the conf-points or
    conf-pairs item texts ``text[start:stop]`` holds between its outer ``[{``
    and ``}]``.  Each distinct item text is decoded once, and must be decoded
    whole."""
    pieces = text[start:stop].split("}, {")
    distinct = dict.fromkeys(pieces)
    items = []
    for k, piece in enumerate(distinct):
        item = "{" + piece + "}"
        value, used = decode(item)
        if used != len(item):
            raise ValueError(f"{item!r} is not one JSON value")
        items.append(value)
        distinct[piece] = k
    return items, np.fromiter(map(distinct.__getitem__, pieces), dtype=np.intp, count=len(pieces))


# kind -> (the opening and closing literals of a non-empty item list, and
# the literals between its integers, each replaced by ", " to leave them alone)
_NUMERIC_LISTS = {
    POINTS: ("[", "]", ()),
    PAIRS: ("[[", "]]", ("], [",)),
}


def _numeric_items(text: str, pos: int, label, kind: str) -> tuple:
    """(channel, the position after its item list) for the non-empty points
    or pairs item list at ``pos``, read as one array by one
    ``np.fromstring``.  The array is accepted only when :func:`_items_json`
    writes it back as exactly the list's text; anything else raises
    ValueError.  A parse that stops early raises under numpy 2, and under
    numpy 1 warns and returns what it read: a short read cannot be written
    back as the whole text, and a warning raised as an error
    (DeprecationWarning) rejects too."""
    head, close, between = _NUMERIC_LISTS[kind]
    numbers = text[_expect(text, pos, head):text.index(close, pos)]
    for literal in between:
        numbers = numbers.replace(literal, ", ")
    ints = np.fromstring(numbers, dtype=np.int64, sep=",")
    c = (DatasetChannel(label, kind, indices=ints) if kind == POINTS
         else DatasetChannel(label, kind, pairs=ints.reshape(-1, 2)))
    written = _items_json(c)  # holds ``close`` only at its end
    if not text.startswith(written, pos):
        raise ValueError(f"the {kind} list at {pos} is not the writer's text")
    return c, pos + len(written)


def _read_carved(text: str) -> Optional[WeakDataset]:
    """The dataset in ``text`` when it has the writer's layout, else None.

    The text is cut into the writer's fixed literals and the holes between
    them.  The spec, the seed and each label and kind are each one hole,
    read by one decoder call.  Each item list takes the one path of its
    kind.  An empty ``[]`` list is an empty channel.  A non-empty points or
    pairs list is read as one array, accepted when the writer writes it
    back as exactly its text (:func:`_numeric_items`): the writer maps
    arrays to one text each, so that text decodes to this array.  A
    conf-points or conf-pairs list that opens with ``[{`` is split on the
    ``}, {`` between its items, and each distinct item text is decoded and
    converted once: the channel keeps the distinct confidences as its table
    and every item's code (:func:`_distinct_items`).
    Every character then lies in a literal or in a hole the decoder or the
    writer accepted whole, and every hole is followed by ``,``, ``]`` or
    ``}``, so as JSON is unambiguous the values are those ``json.loads``
    gives, and the arrays those :func:`_read_generic` builds (the distinct
    items hold the same set of values, so dtype and shape agree).  Any
    other list, any departure, and any hole or conversion that fails give
    None and leave the text and every error to :func:`_read_generic`."""
    if not isinstance(text, str):
        return None
    decode = json.JSONDecoder().raw_decode
    try:
        spec_object, pos = decode(text, _expect(text, 0, '{"spec": '))
        seed, pos = decode(text, _expect(text, pos, ', "seed": '))
        pos = _expect(text, pos, ', "channels": [')
        channels = []
        while not text.startswith("]}", pos):
            label, pos = decode(text, _expect(text, pos, ', {"label": ' if channels else '{"label": '))
            kind, pos = decode(text, _expect(text, pos, ', "kind": '))
            pos = _expect(text, pos, ', "items": ')
            if text.startswith("[]", pos):
                channel, pos = _channel(label, kind, []), pos + 2
            elif kind in (POINTS, PAIRS):
                channel, pos = _numeric_items(text, pos, label, kind)
            elif kind in (CONF_POINTS, CONF_PAIRS) and text.startswith("[{", pos):
                stop = text.index("}]}", pos)  # the list's end, if the layout holds
                channel, pos = _channel(label, kind, *_distinct_items(decode, text, pos + 2, stop)), stop + 2
            else:
                return None
            channels.append(channel)
            pos = _expect(text, pos, "}")
        if text[pos + 2:].strip(" \t\n\r"):  # json.loads allows trailing whitespace
            return None
        return _dataset(_scenario_from_object(spec_object), seed, channels)
    # JSONDecodeError and ValidationError are ValueErrors; numpy 1 warns of a short parse
    except (ValueError, RecursionError, DeprecationWarning):
        return None


def dataset_from_json(text: str) -> WeakDataset:
    """The dataset :func:`dataset_to_json` wrote, or a typed error.

    Text with the writer's layout is read piecewise (:func:`_read_carved`):
    points and pairs item lists as whole arrays, and conf-points and
    conf-pairs lists one distinct item at a time.  Any other text goes
    through one ``json.loads`` (:func:`_read_generic`), which alone raises
    errors."""
    ds = _read_carved(text)
    return ds if ds is not None else _read_generic(text)
