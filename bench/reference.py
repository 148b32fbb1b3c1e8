"""Reference computations for the benchmark's correctness checks.

Everything here is written from the paper's definitions with numpy alone and
never imports ``wslrr``, so a check compares the program against an
independent computation rather than against itself.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np


# ---- counter-based uniforms, the input convention of the harness and init_model

def philox_uniforms(seed: int, stream: int, n: int) -> np.ndarray:
    """n uniforms in [0, 1): the top 53 bits of Philox words keyed by (seed, stream)."""
    key = np.array([seed % 2 ** 64, stream % 2 ** 64], dtype=np.uint64)
    words = np.random.Philox(key=key).random_raw(n)
    return (words >> np.uint64(11)).astype(np.float64) / 2.0 ** 53


def initial_model(K: int, d: int, seed: int) -> tuple:
    """(W, b) of the linear model ``train`` starts from: Uniform(-0.1, 0.1)."""
    v = 0.2 * philox_uniforms(seed, 0, K * d + K) - 0.1
    return v[: K * d].reshape(K, d), v[K * d:]


# ---- losses and the exact risk ------------------------------------------------

def loss_table(loss: str, scores: np.ndarray) -> np.ndarray:
    """(K, n) table: entry (k, i) is the loss at scores[i] when the class is k+1.

    logistic is one-vs-all: softplus(-g_k) + sum over j != k of softplus(g_j);
    squared is ||g - e_k||^2; zero-one misses unless k is the first argmax.
    """
    g = np.asarray(scores, dtype=np.float64)
    n, K = g.shape
    onehot = np.eye(K)[:, None, :]                      # (K, 1, K)
    if loss == "logistic":
        plus, minus = np.logaddexp(0.0, g), np.logaddexp(0.0, -g)
        others = np.where(onehot == 1.0, 0.0, plus[None, :, :]).sum(axis=2)
        return others + minus.T
    if loss == "squared":
        return ((g[None, :, :] - onehot) ** 2).sum(axis=2)
    if loss == "zero-one":
        return (np.arange(K)[:, None] != np.argmax(g, axis=1)[None, :]).astype(np.float64)
    raise ValueError(f"unknown loss {loss!r}")


def exact_risk(joint: np.ndarray, features: np.ndarray, W: np.ndarray, b: np.ndarray,
               loss: str) -> float:
    """sum over k, i of P(Y=k, x_i) * loss_k(g(x_i)) with g(x) = W x + b."""
    table = loss_table(loss, features @ np.asarray(W).T + np.asarray(b))
    return math.fsum((np.asarray(joint) * table).ravel())


# ---- channel laws -------------------------------------------------------------

def compound_labels(K: int) -> list:
    """Nonempty strict subsets of {1..K}, by size and then lexicographically."""
    return [s for d in range(1, K) for s in combinations(range(1, K + 1), d)]


def label_channel_law(name: str, joint: np.ndarray, params: dict) -> np.ndarray:
    """(n_channels, n_x) joint law P(S = s_c, x_i) of a label-channel setting."""
    K, n_x = joint.shape
    if name == "CL":        # one complementary label, uniform over the other classes
        cond = (1.0 - np.eye(K)) / (K - 1)               # cond[c, k] = P(S=c | Y=k)
        return cond @ joint
    if name == "MCL":       # excluded set s of size d drawn with q[d-1] / C(K-1, d)
        rows = []
        for s in compound_labels(K):
            d = len(s)
            outside = np.array([0.0 if k + 1 in s else 1.0 for k in range(K)])
            rows.append(params["q"][d - 1] / math.comb(K - 1, d) * outside)
        return np.array(rows) @ joint
    if name == "GCCN":      # cond[i, j, k] = P(S = s_j | Y = k+1, x_i)
        return np.einsum("ijk,ki->ji", np.asarray(params["cond"]), joint)
    raise ValueError(f"{name} is not a label-channel setting here")


def point_channel_laws(name: str, joint: np.ndarray, params: dict) -> dict:
    """Channel label -> unnormalized mass over instances, for point channels."""
    K = joint.shape[0]
    px = joint.sum(axis=0)
    if name == "PU":
        return {"P": joint[0], "U": px}
    if name == "Soft":
        return {"X": px}
    if name == "SubConf":
        return {"X": joint[[c - 1 for c in params["Y_s"]]].sum(axis=0)}
    law = label_channel_law(name, joint, params)
    if name == "CL":
        labels = [str(k) for k in range(1, K + 1)]
    else:
        labels = [",".join(str(c) for c in s) for s in compound_labels(K)]
    return dict(zip(labels, law))


def pair_law(tag: str, joint: np.ndarray) -> np.ndarray:
    """Exact pair law of a binary joint: similar S, dissimilar D, comparison PC,
    or the independent pair XX."""
    pi = joint.sum(axis=1)
    cp, cn = joint[0] / pi[0], joint[1] / pi[1]
    if tag == "S":
        return (pi[0] ** 2 * np.outer(cp, cp) + pi[1] ** 2 * np.outer(cn, cn)) / (pi[0] ** 2 + pi[1] ** 2)
    if tag == "D":
        return (np.outer(cp, cn) + np.outer(cn, cp)) / 2.0
    if tag == "PC":
        z = pi[0] ** 2 + pi[0] * pi[1] + pi[1] ** 2
        return (pi[0] ** 2 * np.outer(cp, cp) + pi[0] * pi[1] * np.outer(cp, cn)
                + pi[1] ** 2 * np.outer(cn, cn)) / z
    if tag == "XX":
        px = joint.sum(axis=0)
        return np.outer(px, px)
    raise ValueError(f"unknown pair channel {tag!r}")


def super_class_mass(name: str, joint: np.ndarray, params: dict) -> np.ndarray:
    """P(Y in the sampled classes, x): the confidence-family channel mass."""
    if name == "Soft":
        return joint.sum(axis=0)
    if name == "Pconf":
        return joint[0]
    if name == "SCConf":
        return joint[params["y_s"] - 1]
    return joint[[c - 1 for c in params["Y_s"]]].sum(axis=0)


# ---- the verify-all inputs whose exact risk the harness report states --------

def harness_joint(name: str, K: int, nx: int, d: int, seed: int, trial: int) -> tuple:
    """(joint, features) of the default harness's Monte-Carlo check: seeded
    uniforms plus 0.05, normalized, redrawn until every class probability
    is at least 1e-3 (the only admissibility rule for PU, CL and Soft)."""
    if name == "PU":
        K = 2
    for attempt in range(200):
        stream = 1000 * trial + 2 * attempt + 11
        u = philox_uniforms(seed, stream, K * nx).reshape(K, nx) + 0.05
        u /= u.sum()
        joint = u / u.sum()      # normalized twice, as the harness does, to the last bit
        feats = 2.0 * philox_uniforms(seed, stream + 1, nx * d).reshape(nx, d) - 1.0
        if np.min(joint / joint.sum(axis=0)) >= 1e-3:
            return joint, feats
    raise ValueError(f"no admissible joint for {name}")
