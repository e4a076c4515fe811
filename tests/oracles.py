"""Brute-force reference implementations used to verify the metric code
and the tensor-product message kernel.

Everything here is written longhand (python loops, explicit rank formulas,
one einsum per coupling path) and stays independent of the vectorized
implementations under test.
"""

import math

import numpy as np

from cpi3d.so3 import clebsch_gordan, sh_slice


def ci_oracle(preds, labels):
    n = len(preds)
    num, den = 0.0, 0
    for i in range(n):
        for j in range(i + 1, n):
            if labels[i] == labels[j]:
                continue
            den += 1
            if preds[i] == preds[j]:
                num += 0.5
            elif (preds[i] - preds[j]) * (labels[i] - labels[j]) > 0:
                num += 1.0
    return num / den


def rank_oracle(values):
    out = []
    for x in values:
        less = sum(1 for y in values if y < x)
        equal = sum(1 for y in values if y == x)
        out.append(less + (equal - 1) / 2.0 + 1.0)
    return out


def pearson_oracle(a, b):
    n = len(a)
    ma = sum(a) / n
    mb = sum(b) / n
    cov = sum((x - ma) * (y - mb) for x, y in zip(a, b))
    va = sum((x - ma) ** 2 for x in a)
    vb = sum((y - mb) ** 2 for y in b)
    return cov / math.sqrt(va * vb)


def spearman_oracle(a, b):
    return pearson_oracle(rank_oracle(a), rank_oracle(b))


def ef_oracle(scores, labels, x):
    n = len(scores)
    order = sorted(range(n), key=lambda i: (-scores[i], i))
    m = math.ceil(n * x / 100.0)
    top = sum(labels[i] for i in order[:m])
    total = sum(labels)
    return (top / m) / (total / n)


def bedroc_oracle(scores, labels, alpha):
    n_total = len(scores)
    order = sorted(range(n_total), key=lambda i: (-scores[i], i))
    ranks = [r + 1 for r, i in enumerate(order) if labels[i]]
    n = len(ranks)
    ra = n / n_total
    rie = sum(math.exp(-alpha * r / n_total) for r in ranks) / (
        ra * (1 - math.exp(-alpha)) / (math.exp(alpha / n_total) - 1)
    )
    factor = ra * math.sinh(alpha / 2) / (
        math.cosh(alpha / 2) - math.cosh(alpha / 2 - alpha * ra)
    )
    return rie * factor + 1.0 / (1.0 - math.exp(alpha * (1.0 - ra)))


def tp_message_oracle(h_blocks, sh, gates, weights, paths, out_muls):
    """Per-path tensor-product message in plain numpy.

    For each path (l_in, l_sh, l_out): one three-operand Clebsch-Gordan
    einsum over the source block and the harmonic block, the per-edge gate,
    then a channel-mixing einsum with the path's (m_in, m_out) weights.
    Returns the output blocks keyed by l_out, zeros where no path lands.
    """
    n_e = sh.shape[0]
    out = {l: np.zeros((n_e, m, 2 * l + 1)) for l, m in enumerate(out_muls) if m > 0}
    for idx, (li, ls, lo) in enumerate(paths):
        coupled = np.einsum("Mab,eca,eb->ecM", clebsch_gordan(li, ls, lo),
                            h_blocks[li], sh[:, sh_slice(ls)])
        gated = coupled * gates[:, idx].reshape(n_e, 1, 1)
        out[lo] = out[lo] + np.einsum("ecM,cd->edM", gated, weights[(li, ls, lo)])
    return out
