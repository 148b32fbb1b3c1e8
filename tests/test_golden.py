"""Golden hashes of sampled datasets and observed channel masses.

Sampling reads the observed channel masses of the mixture and label
families, so these digests pin both: a refactor of the contamination
kernels must leave every sampled array and every observed mass
bit-identical.  The digests cover dtype-normalized array bytes and shapes
(little-endian int64 and float64), channel labels and kinds.  The dataset
JSON text is pinned too, for one scenario per channel kind, and so is the
layout of the default ``verify-all`` report.
"""

import hashlib
import json

import numpy as np
import pytest

from wslrr.datagen import dataset_to_json, sample_weak_dataset
from wslrr.scenarios import observed_distribution
from wslrr.verify import ABSTRACT_SCENARIO_NAMES, ALL_SCENARIO_NAMES, make_spec, scenario_joint

# scenario -> (sampled dataset digest, observed masses digest); Sconf has no
# per-instance observed masses
GOLDEN = {
    "PU": ("bddee545de616d343ad6d32029528fb80b5d652e3ead5ff0f0370d564ee8ea18",
              "43a89e1dd80b07c5c8c8bc8165a5c3b11c789f39536d94db86ef5d2fba56565e"),
    "Pconf": ("dbb2413d52f3cc35b01f1377d2f18974757083d0bc0d9e16d47c34b53ad03377",
              "51a8eaae6741e52aa315688ec5335c5b750a332a719f1b7c9f4c3ecfe9f80447"),
    "UU": ("c20654618cb072392108b8d89833e6262d4839098c0cd8a9cd9a985be63fcb67",
              "310615f3e74124f495c8a890229900f36288a7c66c54a0825a61781ba7486765"),
    "SU": ("443938018c9b54550e9f62ed59b7807672b9c71eada005b0d818ca6cdfe97a42",
              "f464b959b5cf527d3a864a0bfdda5f25372c6de57a28b3fda90f258cc04038dc"),
    "DU": ("c6bc104841a620848427dccdd532bc8121fde32dd414bb65b4c2db71a2018770",
              "bbe992c0b3113dfc2cfc5d6453e836465fc742a090776a689729c5597087bde7"),
    "SD": ("78513912fbbbca3c4a874302d15cd808bc8be3221af08c0bfb882a74fa6609d5",
              "d803753eecf8a3ce72bfb4b7b3fe143568eca48a4d56bccbe179a0aeb595e9ac"),
    "Pcomp": ("a4b51670922cf9a8967cdaa8f8f199992296e1dff41fe88cd638ad60f70ccdbd",
              "18cc0f6755810db2b91fbc5d9405298085b0e6484c288fa6d713c666a508d93b"),
    "Sconf": ("643dae46b6f931a2bc0ec872d2acd789df4595f39e944f90074a0c7ccb1aba1f",
              None),
    "CL": ("80b2173df479c405764b007d942d3af2405ff179e1ca20e3bce01a7447c457bc",
              "f6e25c7fb38854aa362150fdfa9b9ec73065e941311d029129c3799df6c80886"),
    "MCL": ("ef4d5b5704fd1f088b00f8ea5ff93bfb5824c7ae7a8d98efa2a53cc22ffa93e1",
              "b075a5c602cf15602cc8c5aeb3462dd95090a7e18e0230e1d4488e041a6f6fc6"),
    "PCPL": ("15b6e1bc83aea645c49bf0b96722eb943791801897e705a79c4df8e89dd2f85c",
              "61e4a043eb2800c290ced0edb08e0c17d28734bd68f1452161daec3aa802af47"),
    "PPL": ("585746db545e6c8f98712f99a85a6133b8cca596cb747af0bd025b5d2ff1c6bb",
              "0ac6c0aa58cd3dd99051fc78b4072299b00252b207143e20841d79d3308aa7a3"),
    "SCConf": ("07500cf7c2afee86086d468fdb784dce433f5f7271ddf3ca1d54c480d4f2ecd6",
              "e73f0fceea37d658284cfc2879b25a52222936fe54a399c05cd4ca3d74d83e67"),
    "SubConf": ("5b95c9e3296634c2fde85886e4db3c266a86eaf8f83ac62c8199679ea242d1e0",
              "5658baacecd03ffc276c8bfa995ea6ad51b0c6743dd83074a507b5f25bf9cde6"),
    "Soft": ("2b8151082f4b2fb0454637fcab7ac3e3c6065e6c94238aa9495101a29b3dd71d",
              "6f1c95a6e2eb9cd3aa57442cf73816886ef9abac8042643986bc7f29ecac6b97"),
    "MCD": ("07fdf7317e39515cc1729bdfafcacc48ce8cc6919637b89e049262545b9c6a9a",
              "310615f3e74124f495c8a890229900f36288a7c66c54a0825a61781ba7486765"),
    "CCN": ("376f96834f43cd98835fe75a7258332572173aa4ca1264eb0f907bc70059c070",
              "fc8531fa0cb8d4a9fb41faab19102dae50d42481453173a0067ab16fd99baf8b"),
    "GCCN": ("7df62b84597ad474ce340237dccdcdaddfbcaf7c6ab5c2f805a3c20c765c7d96",
              "8c5b4962cc55e05730c7a6c056c81f049c9eaecac98aa0702bf42b68689393df"),
}


# sha256 of the dataset JSON text: points (PU), pairs and points (SU),
# conf-points (Soft), conf-pairs (Sconf), an array-valued spec (GCCN), two
# pair channels (SD) and conf-points with a spec tuple (SubConf)
JSON_GOLDEN = {
    "PU": "be122ad01e17d79dc50c646cffba5bae9faef0e81f24428bc120d7d0b79f7c58",
    "SU": "8e92930905535e996bf69d657df5b41dbb0edc6eb0d9a965b1008cc95aa0566f",
    "Soft": "0b39d1d2980dba699cba43bf1399db719c25b2aafc0f0d0ca83592eee388cb6d",
    "Sconf": "42a6232f4a434a7988eb7cf7208a7eb9095c8ff4f8b7917df90f877614a36c9e",
    "GCCN": "68c281029cf937321973f5e58f3abc86e63fb3a18a524a1ee75638416ed3f78b",
    "SD": "c1eea015e526288c2777c35eb14416c49c07d30ca236a9e70dfa673d26d83ae6",
    "SubConf": "932728eedcdfd41d3bca35e4fd6ce54a7a87dacd89d2a99e6a42fe29ea16b027",
}

# sha256 of the default verify-all report's layout: each check's name,
# scenario, tolerance and sorted params keys, in report order; the errors
# are deliberately not pinned
VERIFY_ALL_LAYOUT = "8e68e44392e9c4949c40d1971b6fb6f8f32c90c4c46c6baf77f2a761eb5d76a1"


def _digest(parts) -> str:
    h = hashlib.sha256()
    for a in parts:
        if isinstance(a, str):
            h.update(a.encode() + b"\0")
            continue
        a = np.asarray(a)
        a = a.astype("<i8" if a.dtype.kind in "iu" else "<f8")
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _case(name):
    j = scenario_joint(name, 4, 9, 3, seed=13, trial=2)
    return make_spec(name, j, 13, 2), j


def test_every_scenario_is_pinned():
    assert set(GOLDEN) == set(ALL_SCENARIO_NAMES + ABSTRACT_SCENARIO_NAMES)


@pytest.mark.parametrize("name", ALL_SCENARIO_NAMES + ABSTRACT_SCENARIO_NAMES)
def test_sampled_dataset_hash(name):
    spec, j = _case(name)
    ds = sample_weak_dataset(spec, j, 400, seed=29)
    parts = []
    for c in ds.channels:
        parts += [c.label, c.kind]
        parts += [getattr(c, f) for f in ("indices", "pairs", "confidences") if getattr(c, f) is not None]
    assert _digest(parts) == GOLDEN[name][0]


@pytest.mark.parametrize("name", ALL_SCENARIO_NAMES + ABSTRACT_SCENARIO_NAMES)
def test_observed_masses_hash(name):
    spec, j = _case(name)
    cm = observed_distribution(spec, j)
    got = None if cm.observed is None else _digest([cm.observed])
    assert got == GOLDEN[name][1]


@pytest.mark.parametrize("name", sorted(JSON_GOLDEN))
def test_dataset_json_hash(name):
    spec, j = _case(name)
    text = dataset_to_json(sample_weak_dataset(spec, j, 400, seed=29))
    assert hashlib.sha256(text.encode()).hexdigest() == JSON_GOLDEN[name]


def test_verify_all_layout(default_report):
    report, _ = default_report
    layout = [[c.name, c.scenario, c.tol, sorted(c.params)] for c in report.checks]
    assert hashlib.sha256(json.dumps(layout).encode()).hexdigest() == VERIFY_ALL_LAYOUT


# scenario -> sampled dataset digest at 20 draws per channel, far below the
# draw count from which the inversion buckets its search (its searches must
# cost more than the table's 2**13 steps): every draw is converted to a
# uniform and searched
SMALL_GOLDEN = {
    "PU": "a40e6e3833da006f6db96c2f9c5177069978f1036e6faca3d2b4705ed2fc61fb",
    "Pconf": "4f48e29a04c3ffea0595f060def2354cd5cf3b8c3579f540722ecc72828f2799",
    "UU": "b39d5220708939eb049321aa56d6eb682509934bca6dd0aa0f8389909e4d7dd6",
    "SU": "1093315e2662b909c60f33748cad8901b531d323040493649b70cb0b2d8e7236",
    "DU": "dd6207531edbc6f353641554785b4366aa4037439a50e899108a69f59e2fe7af",
    "SD": "fec90a14e5578daed887847ab7e3676df8ed32ba1108ba435b8dddc0294290fd",
    "Pcomp": "a5366dde0da039bc139547bf93cfa181bc4b07aa2bfa2926e843027143cf2bd2",
    "Sconf": "ec88ee1a83ec870c61f2fc4fad3115b52b865fa669af3aaa3e26b8377a788edc",
    "CL": "ba6c145306a1b261871c31dcfe235d290a7e9e5a7d8569ee25e537a90ce9a9ef",
    "MCL": "b9184c3c7c5d0272cb8ea4f7266fa5e24675682d3e9cf9be2a19f8e2fe09798b",
    "PCPL": "36e76af9333d252bd1b61e18e3c6fa4cc69a349ac2ec9c8de7bbd81d38b3e9cd",
    "PPL": "27999a4697c8295260d889769c9a73e3633330304fe66750fc9e266b91e88213",
    "SCConf": "8475ee5fe6050cd1a6d60e56678030257d2ebff3e55d1ba67484079a90678156",
    "SubConf": "d1ebae89851355344b9c40bee1ffb08258574f07db1ee3b228d43ad70c8ee400",
    "Soft": "075952f0287bda4df584aff4eb57b793c0f8eb6a8a9f7138ef9a0046a6b0fa22",
    "MCD": "d1b079c5284f029fb58b6dc394acda89769f127ee51f7e28595ef085ac715721",
    "CCN": "f75f1ab401c21ac67a926346535d2bb2fda7fad74cc1ffed72dc5da3d2ee8f5d",
    "GCCN": "4dde5fe2b74a076da4f2185b555aa9b583e7c56769b72db11faae65f2664bce6",
}
SMALL_COUNT = 20


@pytest.mark.parametrize("name", ALL_SCENARIO_NAMES + ABSTRACT_SCENARIO_NAMES)
def test_sampled_dataset_hash_below_the_bucketing_switch(name):
    assert set(SMALL_GOLDEN) == set(GOLDEN)
    spec, j = _case(name)
    assert SMALL_COUNT * 64 < 2 ** 13  # searched on any law: bit_length(items) <= 64
    ds = sample_weak_dataset(spec, j, SMALL_COUNT, seed=29)
    parts = []
    for c in ds.channels:
        parts += [c.label, c.kind]
        parts += [getattr(c, f) for f in ("indices", "pairs", "confidences") if getattr(c, f) is not None]
    assert _digest(parts) == SMALL_GOLDEN[name]
