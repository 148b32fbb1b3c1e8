"""Weak dataset sampling from the exact channel distributions.

Sampling is integer-only and platform-stable: a counter-based Philox
generator keyed by (seed, stream index) produces raw 64-bit words, each
mapped to a uniform in [0, 1) and inverted against the channel's cumulative
probabilities in a fixed order.  The same (spec, joint, n, seed) therefore
always yields the same dataset.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .core import FiniteJoint, marginals as compute_marginals
from .errors import (
    EmptyChannel,
    ParseError,
    SchemaMismatch,
    ValidationError,
    ZeroChannelMass,
)
from .scenarios import (
    FAMILY_CCN,
    FAMILY_MCD,
    FAMILY_SCONF,
    MCL,
    Soft,
    ScenarioSpec,
    channel_labels,
    compound_label_space,
    observed_distribution,
    pair_distribution,
    scenario_from_json,
    scenario_to_json,
    validate_spec,
    _sconf_confidences,
    _superclass_probability,
)

POINTS = "points"
PAIRS = "pairs"
CONF_POINTS = "conf-points"
CONF_PAIRS = "conf-pairs"


def philox_uniforms(seed: int, stream: int, n: int) -> np.ndarray:
    """n uniforms in [0, 1) from the Philox counter generator keyed by
    (seed, stream); draw index is the counter position."""
    key = np.array([seed & (2 ** 64 - 1), stream & (2 ** 64 - 1)], dtype=np.uint64)
    raw = np.random.Philox(key=key).random_raw(n)
    return (raw >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)


def _categorical(probs: np.ndarray, u: np.ndarray, what: str) -> np.ndarray:
    """Invert uniforms against the cumulative of a flat probability vector."""
    flat = probs.ravel()
    total = float(flat.sum())
    if total <= 0.0:
        raise ZeroChannelMass(f"{what} has zero total probability")
    cum = np.cumsum(flat / total)
    pos = np.searchsorted(cum, u, side="right")
    # u >= cum[-1] < 1 by rounding: take the last item that has mass
    return np.minimum(pos, np.flatnonzero(flat > 0)[-1])


@dataclass(eq=False)
class DatasetChannel:
    label: str
    kind: str
    indices: Optional[np.ndarray] = None      # (n,) instance indices
    pairs: Optional[np.ndarray] = None        # (n, 2) index pairs
    confidences: Optional[np.ndarray] = None  # (n, K) vectors or (n,) pair values

    @property
    def n_draws(self) -> int:
        if self.kind in (POINTS, CONF_POINTS):
            return int(self.indices.shape[0])
        return int(self.pairs.shape[0])


@dataclass(eq=False)
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
    from .scenarios import specs_equal
    if not specs_equal(a.spec, b.spec) or a.seed != b.seed or len(a.channels) != len(b.channels):
        return False
    for ca, cb in zip(a.channels, b.channels):
        if ca.label != cb.label or ca.kind != cb.kind:
            return False
        for f in ("indices", "pairs", "confidences"):
            va, vb = getattr(ca, f), getattr(cb, f)
            if (va is None) != (vb is None):
                return False
            if va is not None and not np.array_equal(va, vb):
                return False
    return True


def sampling_channels(spec: ScenarioSpec, K: int) -> tuple:
    """Channel names a sample-size request may address."""
    if spec.family == FAMILY_MCD:
        # Pcomp observes one stream of comparison pairs, not two point channels
        return ("PC",) if spec.name == "Pcomp" else channel_labels(spec, K)
    if spec.family == FAMILY_SCONF:
        return ("XX",)
    if spec.family == FAMILY_CCN:
        return ("SX",)
    return ("X",)


def dataset_channels(spec: ScenarioSpec, K: int) -> tuple:
    """(label, kind) of every channel of a sampled dataset, in order."""
    if spec.family == FAMILY_MCD:
        return tuple((label, PAIRS if label in ("S", "D", "PC") else POINTS)
                     for label in sampling_channels(spec, K))
    if spec.family == FAMILY_SCONF:
        return (("XX", CONF_PAIRS),)
    if spec.family == FAMILY_CCN:
        return tuple((label, POINTS) for label in channel_labels(spec, K))
    return (("X", CONF_POINTS),)


def _resolve_sizes(spec: ScenarioSpec, K: int, n: Union[int, dict]) -> dict:
    names = sampling_channels(spec, K)
    if isinstance(n, (int, np.integer)):
        if n < 0:
            raise ValidationError("sample size must be nonnegative")
        return {name: int(n) for name in names}
    unknown = set(n) - set(names)
    if unknown:
        raise ValidationError(f"unknown channel names {sorted(unknown)}; this scenario has {list(names)}")
    out = {name: int(n.get(name, 0)) for name in names}
    if any(v < 0 for v in out.values()):
        raise ValidationError("sample sizes must be nonnegative")
    return out


def sample_weak_dataset(spec: ScenarioSpec, j: FiniteJoint, n: Union[int, dict], seed: int) -> WeakDataset:
    """Draw a weak dataset under the scenario's data-generating process.

    ``n`` is a per-channel size map (or one size for every channel); channel
    names follow :func:`sampling_channels`.  Mixture channels sample
    instances from their exact densities, pair channels sample index pairs
    from the exact pair law, label channels sample (compound label, x)
    jointly, and confidence channels attach the oracle class probabilities.
    """
    m = compute_marginals(j)
    validate_spec(spec, m)
    sizes = _resolve_sizes(spec, j.K, n)
    n_x = j.n_x

    if spec.family == FAMILY_MCD:
        cm = observed_distribution(spec, j)
        channels = []
        for stream, (label, kind) in enumerate(dataset_channels(spec, j.K)):
            count = sizes[label]
            u = philox_uniforms(seed, stream, count)
            if kind == PAIRS:
                q = pair_distribution(spec, j, channel=label).matrix
                pos = _categorical(q, u, f"pair channel {label}")
                channels.append(DatasetChannel(label, kind,
                                               pairs=np.stack([pos // n_x, pos % n_x], axis=1)))
            else:
                pos = _categorical(cm.observed[:, stream], u, f"channel {label}")
                channels.append(DatasetChannel(label, kind, indices=pos))
        return WeakDataset(spec=spec, seed=int(seed), channels=tuple(channels))

    if spec.family == FAMILY_SCONF:
        count = sizes["XX"]
        q = pair_distribution(spec, j, channel="XX").matrix
        pos = _categorical(q, philox_uniforms(seed, 0, count), "pair channel XX")
        pairs = np.stack([pos // n_x, pos % n_x], axis=1)
        conf = _sconf_confidences(m, np.arange(n_x), np.arange(n_x))[pairs[:, 0], pairs[:, 1]]
        return WeakDataset(spec=spec, seed=int(seed),
                           channels=(DatasetChannel("XX", CONF_PAIRS, pairs=pairs, confidences=conf),))

    if spec.family == FAMILY_CCN:
        return _sample_label_stream(spec, j, sizes["SX"], seed)

    # confidence family: instances from the conditional sample law, oracle vectors attached
    dist = m.instance_marginal if isinstance(spec, Soft) else _superclass_probability(spec, j.joint)
    idx = _categorical(dist, philox_uniforms(seed, 0, sizes["X"]), "channel X")
    conf = m.class_probabilities[:, idx].T.copy()
    return WeakDataset(spec=spec, seed=int(seed),
                       channels=(DatasetChannel("X", CONF_POINTS, indices=idx, confidences=conf),))


def _sample_label_stream(spec: ScenarioSpec, j: FiniteJoint, count: int, seed: int) -> WeakDataset:
    """(compound label, instance) draws, grouped into per-label channels.

    MCL is sampled in its stated two stages: the excluded-set size first
    (independent of x), then the (label, x) pair from that size's
    conditional law.
    """
    n_x = j.n_x
    labels = channel_labels(spec, j.K)
    cm = observed_distribution(spec, j)
    flat = cm.observed.T  # (m_channels, n_x), channel-major

    if isinstance(spec, MCL):
        space = compound_label_space(j.K)
        sizes_of = np.array([len(s) for s in space])
        q = np.asarray(spec.q)
        d_draw = _categorical(q, philox_uniforms(seed, 0, count), "size law") + 1
        u2 = philox_uniforms(seed, 1, count)
        chan = np.empty(count, dtype=int)
        inst = np.empty(count, dtype=int)
        for d in range(1, j.K):
            mask = d_draw == d
            if not np.any(mask):
                continue
            rows = np.nonzero(sizes_of == d)[0]
            block = flat[rows, :]
            pos = _categorical(block, u2[mask], f"size-{d} conditional")
            chan[mask] = rows[pos // n_x]
            inst[mask] = pos % n_x
    else:
        pos = _categorical(flat, philox_uniforms(seed, 0, count), "label stream")
        chan = pos // n_x
        inst = pos % n_x

    channels = tuple(
        DatasetChannel(label, POINTS, indices=inst[chan == c])
        for c, label in enumerate(labels)
    )
    return WeakDataset(spec=spec, seed=int(seed), channels=channels)


# ---------------------------------------------------------------------------
# JSON: {"spec": {...}, "seed": u64, "channels": [{"label", "kind", "items"}]}
# ---------------------------------------------------------------------------

def dataset_to_json(ds: WeakDataset) -> str:
    """One-line JSON without indentation, written by the C encoder; the items
    are fresh lists, so the encoder's cycle check is skipped."""
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
    elif (arr.dtype.kind not in ("i" if kind == "i" else "if") or arr.ndim != len(shape)
            or any(n not in (None, m) for n, m in zip(shape, arr.shape))):
        raise SchemaMismatch(f"channel {what} must be {'integers' if kind == 'i' else 'numbers'} "
                             f"of shape {shape}, got {arr.dtype} values of shape {arr.shape}")
    return arr.astype(np.int64 if kind == "i" else np.float64)


def dataset_from_json(text: str) -> WeakDataset:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid dataset JSON: {e}") from e
    if not isinstance(raw, dict) or not {"spec", "seed", "channels"} <= raw.keys():
        raise SchemaMismatch('dataset JSON needs keys "spec", "seed", "channels"')
    spec = scenario_from_json(json.dumps(raw["spec"]))
    channels = []
    for c in raw["channels"]:
        if not isinstance(c, dict) or not {"label", "kind", "items"} <= c.keys():
            raise SchemaMismatch('each channel needs keys "label", "kind", "items"')
        kind, items = c["kind"], c["items"]
        if kind == POINTS:
            fields = {"indices": _item_array(items, None, "i", (None,))}
        elif kind == PAIRS:
            fields = {"pairs": _item_array(items, None, "i", (None, 2))}
        elif kind == CONF_POINTS:
            fields = {"indices": _item_array(items, "index", "i", (None,)),
                      "confidences": _item_array(items, "confidences", "f", (None, None))}
        elif kind == CONF_PAIRS:
            fields = {"pairs": _item_array(items, "pair", "i", (None, 2)),
                      "confidences": _item_array(items, "confidence", "f", (None,))}
        else:
            raise SchemaMismatch(f"unknown channel kind {kind!r}")
        channels.append(DatasetChannel(c["label"], kind, **fields))
    seed = raw["seed"]
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise SchemaMismatch(f"dataset seed must be an integer, got {seed!r}")
    return WeakDataset(spec=spec, seed=seed, channels=tuple(channels))
