"""Regression and virtual-screening metrics plus the random-guessing
baseline simulator.

Ranking metrics order by descending score with ties broken by input order
(stable sort), and all of them are invariant under strictly increasing
transforms of the scores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError


def _arrays(preds, labels):
    p = np.asarray(preds, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if p.shape != y.shape or p.ndim != 1:
        raise ValidationError(f"need aligned 1-d arrays, got {p.shape} and {y.shape}")
    if not (np.all(np.isfinite(p)) and np.all(np.isfinite(y))):
        raise ValidationError("scores and labels must be finite")
    return p, y


def concordance_index(preds, labels) -> float:
    """Probability that a comparable pair is ordered concordantly.

    Parameters
    ----------
    preds : array-like, shape (n,)
        Predicted scores.
    labels : array-like, shape (n,)
        Ground-truth values. Pairs with equal labels are not comparable.

    Returns
    -------
    ci : float
        Fraction of comparable pairs whose predictions agree with the label
        order, counting tied predictions as half. 0.5 is chance level.
    """
    p, y = _arrays(preds, labels)
    if p.size < 2:
        raise ValidationError("need at least two points")
    n = p.size
    y_code = np.unique(y, return_inverse=True)[1].ravel()
    p_code = np.unique(p, return_inverse=True)[1].ravel()
    n_comp = n * (n - 1) // 2 - _tied_pairs(y_code)
    if n_comp == 0:
        raise ValidationError("concordance undefined: all labels equal")
    tied = _tied_pairs(p_code) - _tied_pairs(y_code * n + p_code)
    # in (label, prediction) order a prediction inversion is exactly a
    # comparable pair ordered against its labels
    discordant = _count_inversions(p_code[np.lexsort((p_code, y_code))])
    concordant = n_comp - discordant - tied
    return float((concordant + 0.5 * tied) / n_comp)


def _tied_pairs(codes: np.ndarray) -> int:
    """Number of index pairs holding equal codes."""
    counts = np.unique(codes, return_counts=True)[1]
    return int((counts * (counts - 1) // 2).sum())


def _count_inversions(codes: np.ndarray) -> int:
    """Pairs k < l with codes[k] > codes[l], for integer codes in [0, n).

    Such a pair first differs at one bit b, where codes[k] holds the 1 and
    codes[l] the 0 below a shared prefix. From the top bit down, the codes
    stay grouped by their prefix above b and in input order within a group
    (a stable radix partition), so each level counts, for every 0 bit, the
    1 bits before it in its group. Each level is O(n) array work, so the
    count takes O(n log n) time and O(n) memory.
    """
    c = codes.astype(np.int64)
    n = c.size
    count = 0
    for b in range(int(n - 1).bit_length() - 1, -1, -1):
        bit = (c >> b) & 1
        prefix = c >> (b + 1)
        head = np.flatnonzero(np.concatenate(([True], prefix[1:] != prefix[:-1])))
        size = np.diff(np.append(head, n))
        group = np.repeat(np.arange(head.size), size)
        start = head[group]
        ones_before = np.cumsum(bit) - bit
        ones_before -= ones_before[start]
        count += int(ones_before[bit == 0].sum())
        # stable partition of every group: its 0 bits, then its 1 bits
        zeros = (size - np.add.reduceat(bit, head))[group]
        offset = np.where(bit == 1, zeros + ones_before, np.arange(n) - start - ones_before)
        moved = np.empty_like(c)
        moved[start + offset] = c
        c = moved
    return count


def pearson(preds, labels) -> float:
    p, y = _arrays(preds, labels)
    if p.size < 2:
        raise ValidationError("need at least two points")
    pc = p - p.mean()
    yc = y - y.mean()
    denom = math.sqrt(float((pc * pc).sum()) * float((yc * yc).sum()))
    if denom == 0:
        raise ValidationError("correlation undefined: zero variance")
    return float((pc * yc).sum() / denom)


def average_ranks(values) -> np.ndarray:
    """1-based ranks; tied values share the mean of their rank range."""
    v = np.asarray(values, dtype=np.float64)
    order = np.argsort(v, kind="stable")
    sv = v[order]
    start = np.flatnonzero(np.concatenate(([True], sv[1:] != sv[:-1])))
    end = np.append(start[1:], v.size) - 1
    ranks = np.empty(v.size, dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (start + end) + 1.0, end - start + 1)
    return ranks


def spearman(preds, labels) -> float:
    """Pearson correlation of average ranks."""
    p, y = _arrays(preds, labels)
    return pearson(average_ranks(p), average_ranks(y))


def mse(preds, labels) -> float:
    p, y = _arrays(preds, labels)
    return float(np.mean((p - y) ** 2))


def _binary_labels(labels) -> np.ndarray:
    y = np.asarray(labels)
    if y.dtype == bool:
        return y
    return np.asarray(y, dtype=np.float64) != 0


def _descending_order(scores) -> np.ndarray:
    s = np.asarray(scores, dtype=np.float64)
    if not np.all(np.isfinite(s)):
        raise ValidationError("scores must be finite")
    return np.argsort(-s, kind="stable")


def enrichment_factor(scores, labels, x_percent: float = 1.0) -> float:
    """Early-enrichment ratio for the top x% of a ranked screen.

    Parameters
    ----------
    scores : array-like, shape (n,)
        Screening scores, higher = more likely active. Descending-score
        ties keep their input order.
    labels : array-like, shape (n,)
        Binary activity (nonzero = active).
    x_percent : float
        Percentage of the list to inspect; the top set holds
        m = ceil(n * x / 100) entries, so m >= 1.

    Returns
    -------
    ef : float
        (actives in top m / m) / (total actives / n); 1.0 is chance level.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = _binary_labels(labels)
    if s.shape != y.shape:
        raise ValidationError("scores and labels must align")
    if not 0 < x_percent <= 100:
        raise ValidationError(f"x_percent must be in (0, 100], got {x_percent}")
    n = s.size
    n_actives = int(y.sum())
    if n_actives == 0:
        raise ValidationError("enrichment undefined: no actives")
    m = math.ceil(n * x_percent / 100.0)
    top = _descending_order(s)[:m]
    return float((y[top].sum() / m) / (n_actives / n))


def bedroc(scores, labels, alpha: float = 80.5) -> float:
    """Boltzmann-enhanced discrimination of ROC (Truchon-Bailey).

    With n actives of N total at descending-score ranks r_i (1-based),
    Ra = n/N:
        RIE    = sum_i exp(-alpha r_i / N) / (Ra (1 - e^-alpha) / (e^{alpha/N} - 1))
        BEDROC = RIE * Ra sinh(alpha/2) / (cosh(alpha/2) - cosh(alpha/2 - alpha Ra))
                 + 1 / (1 - e^{alpha (1 - Ra)})
    """
    s = np.asarray(scores, dtype=np.float64)
    y = _binary_labels(labels)
    if s.shape != y.shape:
        raise ValidationError("scores and labels must align")
    if not (math.isfinite(alpha) and alpha > 0):
        raise ValidationError(f"alpha must be positive and finite, got {alpha}")
    N = s.size
    n = int(y.sum())
    if n == 0 or n == N:
        raise ValidationError("bedroc undefined: need both actives and inactives")
    order = _descending_order(s)
    ranks = np.nonzero(y[order])[0] + 1.0
    ra = n / N
    rie = np.exp(-alpha * ranks / N).sum() / (ra * (1 - math.exp(-alpha))
                                              / (math.exp(alpha / N) - 1))
    factor = ra * math.sinh(alpha / 2) / (math.cosh(alpha / 2)
                                          - math.cosh(alpha / 2 - alpha * ra))
    return float(rie * factor + 1.0 / (1.0 - math.exp(alpha * (1.0 - ra))))


@dataclass
class MetricReport:
    n: int
    values: dict[str, float] = field(default_factory=dict)
    omitted: dict[str, str] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"n": self.n, "values": dict(sorted(self.values.items())),
                "omitted": dict(sorted(self.omitted.items()))}


def _parse_metric(name: str):
    if name in ("ci", "spearman", "pearson", "mse"):
        return name, None
    for kind, default in (("ef", 1.0), ("bedroc", 80.5)):
        if name.startswith(kind):
            suffix = name[len(kind):]
            try:
                return kind, float(suffix) if suffix else default
            except ValueError:
                break
    raise ValidationError(f"unknown metric {name!r}")


def evaluate(preds, labels=None, metrics: list[str] = ()) -> MetricReport:
    """Dispatch to the requested metrics; mathematically undefined ones are
    omitted with the reason instead of raising."""
    p = np.asarray(preds, dtype=np.float64)
    report = MetricReport(n=int(p.size))
    for name in metrics:
        kind, param = _parse_metric(name)
        try:
            if kind == "ci":
                report.values[name] = concordance_index(p, labels)
            elif kind == "spearman":
                report.values[name] = spearman(p, labels)
            elif kind == "pearson":
                report.values[name] = pearson(p, labels)
            elif kind == "mse":
                report.values[name] = mse(p, labels)
            elif kind == "ef":
                report.values[name] = enrichment_factor(p, labels, x_percent=param)
            elif kind == "bedroc":
                report.values[name] = bedroc(p, labels, alpha=param)
        except ValidationError as exc:
            report.omitted[name] = str(exc)
    return report


def evaluate_grouped(preds, labels, metrics: list[str], groups) -> dict:
    """Per-group reports plus the mean and standard deviation of each
    metric across groups (the per-target aggregation convention)."""
    p = np.asarray(preds, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    groups = np.asarray(groups)
    out: dict = {"groups": {}, "aggregate": {}}
    collected: dict[str, list[float]] = {}
    for g in sorted(set(groups.tolist())):
        mask = groups == g
        report = evaluate(p[mask], y[mask], metrics)
        out["groups"][str(g)] = report.to_dict()
        for name, value in report.values.items():
            collected.setdefault(name, []).append(value)
    for name, vals in sorted(collected.items()):
        arr = np.asarray(vals)
        out["aggregate"][name] = {
            "mean": float(arr.mean()),
            "std": sample_std(arr),
            "n_groups": int(arr.size),
        }
    return out


def sample_std(values) -> float:
    """Sample standard deviation (ddof 1); 0.0 for a single value."""
    arr = np.asarray(values, dtype=np.float64)
    return float(arr.std(ddof=1)) if arr.size > 1 else 0.0


def simulate_random_screen(n_actives: int, n_decoys: int, trials: int = 200,
                           seed: int = 0, ef_percent: float = 1.0,
                           alpha: float = 80.5) -> dict:
    """Monte-Carlo baseline: random scores against a fixed active/decoy
    composition, evaluated with the same metric code as real screens.
    Trial t draws from a generator seeded with seed + t, so results are
    reproducible regardless of execution order."""
    if n_actives < 1 or n_decoys < 1:
        raise ValidationError("need at least one active and one decoy")
    if trials < 1:
        raise ValidationError(f"need at least one trial, got {trials}")
    N = n_actives + n_decoys
    labels = np.zeros(N, dtype=bool)
    labels[:n_actives] = True
    efs, beds = [], []
    for t in range(trials):
        rng = np.random.default_rng(seed + t)
        scores = rng.standard_normal(N)
        efs.append(enrichment_factor(scores, labels, x_percent=ef_percent))
        beds.append(bedroc(scores, labels, alpha=alpha))
    return {
        "n_actives": n_actives, "n_decoys": n_decoys, "trials": trials,
        "seed": seed, "ef_percent": ef_percent, "alpha": alpha,
        "ef_mean": float(np.mean(efs)), "ef_std": sample_std(efs),
        "bedroc_mean": float(np.mean(beds)), "bedroc_std": sample_std(beds),
    }
