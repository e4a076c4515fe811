"""Output checks, the brute-force metric oracle and the checks' self-test.

Checks that hold for any seed: predictions are finite and a rigidly moved
copy of one screen-pocket complex scores within 1e-9 relative of the
original; rerank ranks follow the fused scores recomputed from the output;
split reports no leakage, places every record once and keeps each planted
family in one fold; every eval metric matches the oracle below within
1e-12. For the default seed the outputs must also match the stored
reference: predictions and losses within 1e-9 relative (the bound for
changes that reorder sums), rerank energies within 1e-12 relative with the
same order, and the identical fold assignment. Outputs of later operations
in a run must match the run's first operation in the same way.
"""

from __future__ import annotations

import csv
import json
import math
import os
import statistics

import numpy as np

PRED_RTOL = 1e-9
ENERGY_RTOL = 1e-12
METRIC_TOL = 1e-12


def _close(a: float, b: float, rtol: float, atol: float = 0.0) -> bool:
    return math.isclose(a, b, rel_tol=rtol, abs_tol=atol)


def _csv_rows(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def _manifest_ids(path: str) -> list[str]:
    return [row["complex_id"] for row in _csv_rows(path)]


# ---- predictions and losses ------------------------------------------
def read_predictions(path: str) -> dict[str, float]:
    return {row["complex_id"]: float(row["prediction"]) for row in _csv_rows(path)}


def check_predictions(preds: dict[str, float], ids: list[str],
                      expected: dict[str, float] | None) -> str | None:
    if sorted(preds) != sorted(ids):
        return f"prediction ids {sorted(preds)[:3]}... do not match the manifest"
    bad = [k for k, v in preds.items() if not math.isfinite(v)]
    if bad:
        return f"non-finite predictions for {bad[:3]}"
    if expected is not None:
        off = [k for k in ids if not _close(preds[k], expected[k], PRED_RTOL)]
        if off:
            k = off[0]
            return f"{len(off)} predictions differ, e.g. {k}: {preds[k]!r} vs {expected[k]!r}"
    return None


def read_losses(path: str) -> list[float]:
    return [float(row["loss"]) for row in _csv_rows(path)]


def check_losses(losses: list[float], steps: int, expected: list[float] | None) -> str | None:
    if len(losses) != steps:
        return f"{len(losses)} losses for {steps} steps"
    if not all(math.isfinite(v) for v in losses):
        return "non-finite training loss"
    if expected is not None:
        off = [i for i, (a, b) in enumerate(zip(losses, expected)) if not _close(a, b, PRED_RTOL)]
        if off:
            i = off[0]
            return f"loss at step {i} is {losses[i]!r}, expected {expected[i]!r}"
    return None


# ---- rerank ----------------------------------------------------------
def read_rerank(path: str) -> list[dict]:
    return [{"pose": int(r["pose_index"]), "e": float(r["e_vina"]),
             "conf": float(r["confidence"]), "fused": float(r["fused"]),
             "rank": int(r["rank"])} for r in _csv_rows(path)]


def check_rerank(rows: list[dict], confidences: list[float],
                 expected: list[list] | None) -> str | None:
    n = len(confidences)
    if sorted(r["pose"] for r in rows) != list(range(n)):
        return "rerank output does not list every pose once"
    if [r["rank"] for r in rows] != list(range(n)):
        return "rank column is not 0..n-1 in row order"
    by_pose = sorted(rows, key=lambda r: r["pose"])
    if any(r["conf"] != c for r, c in zip(by_pose, confidences)):
        return "confidences do not echo the input"
    e = [r["e"] for r in by_pose]
    mean = math.fsum(e) / n
    std = math.sqrt(math.fsum((x - mean) ** 2 for x in e) / (n - 1))
    for r in by_pose:
        fused = r["conf"] - (r["e"] - mean) / std
        if not _close(r["fused"], fused, ENERGY_RTOL, ENERGY_RTOL):
            return f"pose {r['pose']}: fused {r['fused']!r} != {fused!r}"
    order = sorted(rows, key=lambda r: (-r["fused"], r["pose"]))
    if [r["pose"] for r in order] != [r["pose"] for r in rows]:
        return "poses are not sorted by fused score"
    if expected is not None:
        if [r["pose"] for r in rows] != [p for p, _ in expected]:
            return "pose ranking differs from the expected ranking"
        for r, (_, e_ref) in zip(rows, expected):
            if not _close(r["e"], e_ref, ENERGY_RTOL):
                return f"pose {r['pose']}: energy {r['e']!r} vs expected {e_ref!r}"
    return None


def rerank_summary(rows: list[dict]) -> list[list]:
    return [[r["pose"], r["e"]] for r in rows]


# ---- split -----------------------------------------------------------
def read_folds(path: str) -> tuple[dict[str, int], bool]:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    fold_of: dict[str, int] = {}
    for fold, ids in doc["folds"].items():
        for rid in ids:
            fold_of[rid] = -1 if rid in fold_of else int(fold)
    return fold_of, doc["leakage"]["passed"] is True


def check_folds(fold_of: dict[str, int], leakage_passed: bool, ids: list[str],
                expected: dict[str, int] | None) -> str | None:
    if not leakage_passed:
        return "split reports leakage.passed != true"
    if sorted(fold_of) != sorted(ids) or -1 in fold_of.values():
        return "folds do not hold every record exactly once"
    family_fold: dict[str, int] = {}
    for rid, fold in fold_of.items():
        family = rid.split("_rec")[0]
        if family_fold.setdefault(family, fold) != fold:
            return f"planted family {family} spans folds"
    if expected is not None and fold_of != expected:
        moved = sorted(k for k in ids if fold_of[k] != expected.get(k))
        return f"fold assignment differs for {moved[:3]}"
    return None


# ---- eval oracle -----------------------------------------------------
def _avg_ranks(values: list[float]) -> list[float]:
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    start = 0
    while start < len(order):
        stop = start
        while stop + 1 < len(order) and values[order[stop + 1]] == values[order[start]]:
            stop += 1
        for k in range(start, stop + 1):
            ranks[order[k]] = (start + stop) / 2.0 + 1.0
        start = stop + 1
    return ranks


def _pearson(a: list[float], b: list[float]) -> float:
    ma, mb = math.fsum(a) / len(a), math.fsum(b) / len(b)
    cov = math.fsum((x - ma) * (y - mb) for x, y in zip(a, b))
    va = math.fsum((x - ma) ** 2 for x in a)
    vb = math.fsum((y - mb) ** 2 for y in b)
    return cov / math.sqrt(va * vb)


def _ci(p: list[float], y: list[float]) -> float:
    """Every pair with different labels, counted class pair by class pair."""
    classes: dict[float, list[float]] = {}
    for pi, yi in zip(p, y):
        classes.setdefault(yi, []).append(pi)
    levels = sorted(classes)
    num2 = den = 0
    for a, lo in enumerate(levels):
        low = np.array(classes[lo])
        for hi in levels[a + 1:]:
            high = np.array(classes[hi])
            # a pair (low, high) is concordant when the high-label score is larger
            num2 += 2 * int((high[:, None] > low[None, :]).sum())
            num2 += int((high[:, None] == low[None, :]).sum())
            den += low.size * high.size
    return (num2 / 2.0) / den


def _ordered_labels(scores: list[float], labels: list[float]) -> list[float]:
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    return [labels[i] for i in order]


def _ef(scores, labels, x_percent: float) -> float:
    n = len(scores)
    m = math.ceil(n * x_percent / 100.0)
    top = sum(1 for v in _ordered_labels(scores, labels)[:m] if v)
    total = sum(1 for v in labels if v)
    return (top / m) / (total / n)


def _bedroc(scores, labels, alpha: float) -> float:
    n_total = len(scores)
    ranks = [r + 1 for r, v in enumerate(_ordered_labels(scores, labels)) if v]
    ra = len(ranks) / n_total
    rie = math.fsum(math.exp(-alpha * r / n_total) for r in ranks) / (
        ra * (1 - math.exp(-alpha)) / (math.exp(alpha / n_total) - 1))
    factor = ra * math.sinh(alpha / 2) / (math.cosh(alpha / 2) - math.cosh(alpha / 2 - alpha * ra))
    return rie * factor + 1.0 / (1.0 - math.exp(alpha * (1.0 - ra)))


def eval_oracle(scores_csv: str) -> dict[str, dict[str, float]]:
    """Per target: ci, spearman, pearson, mse, ef1 and bedroc80.5."""
    groups: dict[str, tuple[list[float], list[float]]] = {}
    for row in _csv_rows(scores_csv):
        p, y = groups.setdefault(row["target"], ([], []))
        p.append(float(row["prediction"]))
        y.append(float(row["label"]))
    out = {}
    for target, (p, y) in groups.items():
        out[target] = {
            "ci": _ci(p, y),
            "spearman": _pearson(_avg_ranks(p), _avg_ranks(y)),
            "pearson": _pearson(p, y),
            "mse": math.fsum((a - b) ** 2 for a, b in zip(p, y)) / len(p),
            "ef1": _ef(p, y, 1.0),
            "bedroc80.5": _bedroc(p, y, 80.5),
        }
    return out


def check_eval(doc: dict, oracle: dict[str, dict[str, float]]) -> str | None:
    if sorted(doc.get("groups", {})) != sorted(oracle):
        return "eval groups do not match the targets"
    for target, want in oracle.items():
        got = doc["groups"][target]
        if got.get("omitted"):
            return f"{target}: metrics omitted: {got['omitted']}"
        for name, value in want.items():
            if not _close(got["values"].get(name, math.nan), value, METRIC_TOL, METRIC_TOL):
                return f"{target} {name}: {got['values'].get(name)!r} vs oracle {value!r}"
    for name in next(iter(oracle.values())):
        vals = [oracle[t][name] for t in oracle]
        agg = doc["aggregate"][name]
        mean, std = math.fsum(vals) / len(vals), statistics.stdev(vals)
        if not (_close(agg["mean"], mean, METRIC_TOL, METRIC_TOL)
                and _close(agg["std"], std, METRIC_TOL, METRIC_TOL)):
            return f"aggregate {name}: {agg} vs oracle mean {mean!r} std {std!r}"
    return None


# ---- per-operation dispatch -------------------------------------------
class Checker:
    """Checks each operation's output files in a run's work directory.

    The expectation for an output is the stored reference for the default
    seed and otherwise the run's first output of the same phase."""

    def __init__(self, workdir: str, reference: dict | None):
        self.workdir = workdir
        self.reference = reference or {}
        self.first: dict[str, object] = {}
        self._oracle = None
        self._ids: dict[str, list[str]] = {}

    def _path(self, *parts: str) -> str:
        return os.path.join(self.workdir, *parts)

    def _argv_value(self, argv: list[str], flag: str) -> str:
        return argv[argv.index(flag) + 1]

    def _ids_of(self, manifest: str) -> list[str]:
        if manifest not in self._ids:
            self._ids[manifest] = _manifest_ids(self._path(manifest))
        return self._ids[manifest]

    def _expected(self, key: str, value):
        """Reference value for `key`, else the first value seen for it."""
        if key in self.reference:
            return self.reference[key]
        return self.first.setdefault(key, value)

    def check(self, phase: str, argv: list[str]) -> str | None:
        """Error message for one finished operation, or None when it passed."""
        out = self._path(self._argv_value(argv, "--out"))
        try:
            if phase == "predict":
                preds = read_predictions(out)
                manifest = self._argv_value(argv, "--manifest")
                return check_predictions(preds, self._ids_of(manifest),
                                         self._expected(f"predict:{manifest}", preds))
            if phase == "train":
                losses = read_losses(self._path(self._argv_value(argv, "--loss-out")))
                if not os.path.exists(out):
                    return "train wrote no checkpoint"
                steps = int(self._argv_value(argv, "--steps"))
                return check_losses(losses, steps, self._expected("train", losses))
            if phase == "rerank":
                rows = read_rerank(out)
                conf_path = self._path(self._argv_value(argv, "--confidences"))
                with open(conf_path, encoding="utf-8") as fh:
                    conf = [float(line) for line in fh if line.strip()]
                return check_rerank(rows, conf, self._expected("rerank", rerank_summary(rows)))
            if phase == "split":
                fold_of, passed = read_folds(out)
                ids = self._ids_of(self._argv_value(argv, "--manifest"))
                return check_folds(fold_of, passed, ids, self._expected("split", fold_of))
            if phase == "eval":
                with open(out, encoding="utf-8") as fh:
                    doc = json.load(fh)
                if self._oracle is None:
                    self._oracle = eval_oracle(self._path(self._argv_value(argv, "--pred")))
                return check_eval(doc, self._oracle)
        except (OSError, ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
            return f"unreadable {phase} output: {exc!r}"
        return f"no check for phase {phase!r}"

    def check_moved_copy(self, argv: list[str]) -> str | None:
        """The rigidly moved copy of lig0 must score like the original."""
        try:
            moved = read_predictions(self._path(self._argv_value(argv, "--out")))["lig0"]
        except (OSError, ValueError, KeyError) as exc:
            return f"unreadable moved-copy output: {exc!r}"
        original = self._expected("predict:library.csv", None)
        if original is None or not _close(moved, original["lig0"], PRED_RTOL):
            return f"moved copy scores {moved!r}, original {original and original['lig0']!r}"
        return None


def self_test(checker: Checker, ops: list[dict]) -> list[tuple[str, bool]]:
    """Corrupt copies of this run's first outputs and report, for each,
    whether the checks count it as a failed operation."""
    results = []
    first = {}
    for op in ops:
        first.setdefault(op["phase"], op["argv"])
    for phase, argv in first.items():
        if phase not in ("predict", "rerank", "split"):
            continue
        out = checker._path(checker._argv_value(argv, "--out"))
        bad = argv.copy()
        bad[bad.index("--out") + 1] = "corrupt_" + os.path.basename(out)
        with open(out, encoding="utf-8") as fh:
            text = fh.read()
        if phase == "predict":
            name = "prediction perturbed by 1e-6 relative"
            lines = text.splitlines()
            i = next(k for k, line in enumerate(lines) if line and line[0] not in "#c")
            cid, value = lines[i].split(",")
            lines[i] = f"{cid},{float(value) * (1 + 1e-6)!r}"
            text = "\n".join(lines) + "\n"
        elif phase == "rerank":
            name = "two rerank ranks swapped"
            lines = text.splitlines()
            head = next(k for k, line in enumerate(lines) if line.startswith("pose_index"))
            a, b = lines[head + 1].rsplit(",", 1), lines[head + 2].rsplit(",", 1)
            lines[head + 1], lines[head + 2] = f"{a[0]},{b[1]}", f"{b[0]},{a[1]}"
            text = "\n".join(lines) + "\n"
        elif phase == "split":
            name = "one record moved to another fold"
            doc = json.loads(text)
            moved = doc["folds"]["0"].pop(0)
            doc["folds"]["1"].append(moved)
            text = json.dumps(doc)
        with open(checker._path(bad[bad.index("--out") + 1]), "w", encoding="utf-8") as fh:
            fh.write(text)
        results.append((name, checker.check(phase, bad) is not None))
    return results
