"""Classification metrics and the statistical tests used for config comparisons."""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, astuple, dataclass, fields

from .corpus import INVALID_LABEL, LabelSchema  # INVALID_LABEL is re-exported
from .postprocess import ParsedLabel


class MetricsError(ValueError):
    pass


@dataclass(frozen=True)
class ConfusionMatrix:
    """Counts indexed [gold][predicted]; INVALID is a predicted-only pseudo-class."""

    classes: tuple[str, ...]
    counts: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return sum(map(sum, self.counts))

    def index(self, label: str) -> int:
        return self.classes.index(label)


def confusion(preds: list[ParsedLabel], gold: list[str], schema: LabelSchema) -> ConfusionMatrix:
    """Tally a confusion matrix; invalid predictions land in the INVALID column."""
    if len(preds) != len(gold):
        raise MetricsError(f"length mismatch: {len(preds)} predictions vs {len(gold)} gold labels")
    classes = tuple(schema.valid_labels) + (INVALID_LABEL,)
    idx = {c: i for i, c in enumerate(classes)}
    counts = [[0] * len(classes) for _ in classes]
    for p, g in zip(preds, gold):
        if g not in idx or g == INVALID_LABEL:
            raise MetricsError(f"gold label {g!r} not in schema")
        p_label = p.label if p.is_valid else INVALID_LABEL
        if p_label not in idx:
            raise MetricsError(f"predicted label {p_label!r} not in schema")
        counts[idx[g]][idx[p_label]] += 1
    return ConfusionMatrix(classes=classes, counts=tuple(map(tuple, counts)))


@dataclass(frozen=True)
class MetricsReport:
    accuracy: float
    macro_precision: float
    micro_precision: float
    macro_recall: float
    micro_recall: float
    macro_f1: float
    micro_f1: float

    def csv_row(self) -> list[float]:
        """Metric values in the result-table column order."""
        return list(astuple(self))


# Column order of the benchmark result tables.
TABLE_COLUMNS = tuple(f.name for f in fields(MetricsReport))


def _safe_div(num: float, den: float) -> float:
    return num / den if den else 0.0


def compute_metrics(cm: ConfusionMatrix) -> MetricsReport:
    """Accuracy plus macro/micro precision, recall, and F1 from a confusion matrix.

    Macro averages run over gold classes with support > 0; the INVALID
    pseudo-class is excluded from averaging but its counts still act as misses
    for the gold classes.
    """
    n = cm.n
    if n == 0:
        raise MetricsError("empty confusion matrix")
    gold_classes = [c for c in cm.classes if c != INVALID_LABEL]
    macro_terms = []
    tp_total = 0
    for c in gold_classes:
        i = cm.index(c)
        tp = cm.counts[i][i]
        tp_total += tp
        support = sum(cm.counts[i])
        if support > 0:
            precision = _safe_div(tp, sum(row[i] for row in cm.counts))
            recall = tp / support
            f1 = _safe_div(2 * precision * recall, precision + recall)
            macro_terms.append((precision, recall, f1))
    if not macro_terms:
        raise MetricsError("no gold class has support > 0")
    macro_p, macro_r, macro_f1 = (sum(col) / len(macro_terms) for col in zip(*macro_terms))
    # Single-label full coverage: every item carries exactly one prediction, so
    # global FP == global FN == n - TP and the micro metrics collapse to accuracy.
    micro = _safe_div(tp_total, n)
    return MetricsReport(
        accuracy=micro,
        macro_precision=macro_p,
        micro_precision=micro,
        macro_recall=macro_r,
        micro_recall=micro,
        macro_f1=macro_f1,
        micro_f1=micro,
    )


# ----------------------------------------------------------------------------
# Student t CDF via the regularized incomplete beta function (Lentz continued
# fraction). Documented tolerance: |error| <= 1e-9 over the tested range.
# ----------------------------------------------------------------------------

_TINY = 1e-300


def _nonzero(v: float) -> float:
    return _TINY if abs(v) < _TINY else v


def _betacf(a: float, b: float, x: float, max_iter: int = 400, eps: float = 1e-15) -> float:
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 / _nonzero(1.0 - qab * x / qap)
    h = d
    for m in range(1, max_iter + 1):
        m2 = 2 * m
        # the even then the odd coefficient of term m, each one Lentz step
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 / _nonzero(1.0 + aa * d)
            c = _nonzero(1.0 + aa / c)
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < eps:
            return h
    raise MetricsError("incomplete beta continued fraction did not converge")


def _betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_pre = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    pre = math.exp(ln_pre)
    if x < (a + 1.0) / (a + b + 2.0):
        return pre * _betacf(a, b, x) / a
    return 1.0 - pre * _betacf(b, a, 1.0 - x) / b


def t_two_sided_p(t: float, df: float) -> float:
    """Two-sided p-value for a t statistic with df degrees of freedom."""
    # t = ±inf gives x = 0 and p = 0, t = 0 gives x = 1 and p = 1: _betainc's bounds
    return float(_betainc(df / 2.0, 0.5, float(df / (df + t * t))))


@dataclass(frozen=True)
class StatTestResult:
    test: str
    statistic: float
    df: float | None
    p_value: float | None
    n: tuple[int, ...]

    def to_dict(self) -> dict:
        return {**asdict(self), "n": list(self.n)}


def _samples(name: str, min_n: int, a, b,
             paired: bool = False) -> tuple[list[float], list[float]]:
    """The two samples of statistic `name` as lists of floats: each a flat
    sequence of at least min_n finite numbers, of equal lengths when paired."""
    samples = []
    for x in (a, b):
        try:
            sample = [float(v) for v in x] if not isinstance(x, (str, bytes)) else []
        except (TypeError, ValueError):
            sample = []
        if len(sample) < min_n or not all(map(math.isfinite, sample)):
            raise MetricsError(f"{name}: need a 1-d sample of n >= {min_n} finite numbers")
        samples.append(sample)
    if paired and len(samples[0]) != len(samples[1]):
        raise MetricsError(f"{name}: samples must have equal length")
    return samples[0], samples[1]


def _mean(x: list[float]) -> float:
    return math.fsum(x) / len(x)


def _var(x: list[float]) -> float:
    """Sample variance, with the n - 1 denominator."""
    m = _mean(x)
    return math.fsum((v - m) * (v - m) for v in x) / (len(x) - 1)


def student_t(a, b) -> StatTestResult:
    """Independent two-sample t-test with pooled variance."""
    a, b = _samples("student_t", 2, a, b)
    na, nb = len(a), len(b)
    va, vb = _var(a), _var(b)
    sp2 = ((na - 1) * va + (nb - 1) * vb) / (na + nb - 2)
    se = math.sqrt(sp2 * (1.0 / na + 1.0 / nb))
    if se == 0.0:
        raise MetricsError("student_t: zero variance in both samples, t undefined")
    t = (_mean(a) - _mean(b)) / se
    df = na + nb - 2
    return StatTestResult("student_t", t, float(df), t_two_sided_p(t, df), (na, nb))


def welch_t(a, b) -> StatTestResult:
    """Welch's t-test with Welch-Satterthwaite degrees of freedom."""
    a, b = _samples("welch_t", 2, a, b)
    na, nb = len(a), len(b)
    ua, ub = _var(a) / na, _var(b) / nb
    se2 = ua + ub
    if se2 == 0.0:
        raise MetricsError("welch_t: zero variance in both samples, t undefined")
    t = (_mean(a) - _mean(b)) / math.sqrt(se2)
    # from each sample's share of se2, which cannot underflow as ua * ua can
    sa, sb = ua / se2, ub / se2
    df = 1.0 / (sa * sa / (na - 1) + sb * sb / (nb - 1))
    return StatTestResult("welch_t", t, df, t_two_sided_p(t, df), (na, nb))


def paired_t(a, b) -> StatTestResult:
    """Paired-samples t-test; identical samples yield the null result t=0, p=1."""
    a, b = _samples("paired_t", 2, a, b, paired=True)
    d = [x - y for x, y in zip(a, b)]
    n = len(d)
    mean = _mean(d)
    sd = math.sqrt(_var(d))
    if sd == 0.0:
        if mean == 0.0:
            return StatTestResult("paired_t", 0.0, float(n - 1), 1.0, (n, n))
        raise MetricsError("paired_t: constant nonzero differences, t undefined")
    t = mean / (sd / math.sqrt(n))
    df = n - 1
    return StatTestResult("paired_t", t, float(df), t_two_sided_p(t, df), (n, n))


def _average_ranks(x: list[float]) -> list[float]:
    """Ranks 1..n with ties assigned the average rank of their run."""
    ranks = [0.0] * len(x)
    order = sorted(range(len(x)), key=x.__getitem__)
    first = 0  # 0-based position in `order` of the run's first item
    for _, run in itertools.groupby(order, key=x.__getitem__):
        run = list(run)
        last = first + len(run) - 1
        for k in run:
            ranks[k] = (first + last) / 2.0 + 1.0
        first = last + 1
    return ranks


def spearman(x, y) -> StatTestResult:
    """Spearman rank correlation with average-rank ties and a t-approximation p."""
    x, y = _samples("spearman", 3, x, y, paired=True)
    if x.count(x[0]) == len(x) or y.count(y[0]) == len(y):
        raise MetricsError("spearman: constant input vector, ranks degenerate")
    rx, ry = _average_ranks(x), _average_ranks(y)
    mx, my = _mean(rx), _mean(ry)
    rx = [r - mx for r in rx]
    ry = [r - my for r in ry]
    cov = math.fsum(p * q for p, q in zip(rx, ry))
    rho = cov / math.sqrt(math.fsum(p * p for p in rx) * math.fsum(q * q for q in ry))
    rho = max(-1.0, min(1.0, rho))
    n = len(x)
    if abs(rho) == 1.0:
        return StatTestResult("spearman", rho, float(n - 2), 0.0, (n, n))
    t = rho * math.sqrt((n - 2) / (1.0 - rho * rho))
    return StatTestResult("spearman", rho, float(n - 2), t_two_sided_p(t, n - 2), (n, n))


def cohens_d(a, b) -> float:
    """Standardized mean difference with (n-1)-weighted pooled standard deviation."""
    a, b = _samples("cohens_d", 2, a, b)
    na, nb = len(a), len(b)
    sp2 = ((na - 1) * _var(a) + (nb - 1) * _var(b)) / (na + nb - 2)
    if sp2 == 0.0:
        raise MetricsError("cohens_d: zero pooled standard deviation")
    return (_mean(a) - _mean(b)) / math.sqrt(sp2)
