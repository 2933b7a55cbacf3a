"""Longitudinal dataset parsing and the full per-visit-pair analysis.

Input is wide (header id,exposure,y1,...,yT: one row per subject) or
long (header id,exposure,visit,y: one row per observation).  A plain
file (see _plaincsv) is read as bytes and split into fields with array
operations.  That path raises no ParseError: on any other input, or any
faulty row, it declines and the csv reader parses the input from the
start, one row at a time; the first faulty row raises ParseError with
its line number.  Both paths end in the same code, so their datasets are
equal.

Subjects with any missing outcome are dropped and counted (complete-case
rule).  A dataset holds only complete subjects, as columns: their ids, a
read-only exposure flag per subject and a read-only subjects x visits
int8 outcome matrix; Subject records are built only on request.  The
dataset constructor keeps an id array of ASCII bytes (S dtype) as it is,
so the byte path's ids are decoded only when they are read.  Parsing
holds one block of input (on the csv path, one row) and, per row, its id
and its codes: on the byte path of a long file one byte of label and
outcome codes and a visit of one byte up to visit 255 (see _plaincsv for
the peak); the csv reader keeps a long file's ids as an id table, and
the (subject, visit) of each row in a set, so that a duplicate visit is
found at its row.  The dataset of a long file is built from its rows
CHUNK_ROWS at a time, so that no temporary is as long as the rows.  A
long file whose largest visit exceeds its number of observation rows is
rejected, since no subject can then have every visit, so parse and
analysis work stay linear in the input size.

For each requested visit pair (j, k) the analysis stratifies the time-j
exposure-by-outcome table on the time-k outcome (one bincount) and
reports the crude and conditional risk ratios with CIs plus the
within-group outcome correlations.  Degenerate cells yield "not
estimable" entries, never a crash; report.txt gives each one's reason.
"""

import csv
import functools
import math
import os
from dataclasses import dataclass, field
from itertools import compress

import numpy as np

from . import _plaincsv
from ._plaincsv import EMPTY as _EMPTY
from ._run import write_table
from ._version import __version__
from .errors import DegenerateTableError, DomainError, ParseError
from .measures import (
    RiskRatioEstimate,
    StratifiedTables,
    StratumTable,
    phi_correlations,
    rr0_estimate,
    rr1_estimate,
    rr_crude,
    z_quantile,
)

RISKS_CSV_HEADER = "visit,group,risk"
MEASURES_CSV_HEADER = "j,k,measure,point,ci_lower,ci_upper,rho_E,rho_nonE"

GROUP_EXPOSED = "E"
GROUP_UNEXPOSED = "nonE"

_OUTCOME_CODES = {"0": 0, "1": 1, "": _EMPTY}
_BAD = 3  # outcome code of any other token


@dataclass(frozen=True)
class Subject:
    id: str
    exposed: bool
    outcomes: tuple


@dataclass(frozen=True, eq=False, init=False)
class LongitudinalDataset:
    """Complete-case cohort: every subject has all n_visits outcomes.

    ids holds the subject ids as a tuple (file order for wide input,
    first-seen order for long), exposed a read-only bool per subject and
    outcomes a read-only int8 matrix of 0/1, subjects x visits.  The
    constructor keeps ids given as an array of ASCII bytes (NumPy S
    dtype), as the byte path reads them, and decodes it on the first read
    of ids or subjects, which the analysis never does; any other iterable
    of ids becomes a tuple.  It checks that outcomes hold only 0 and 1
    before it stores them as int8.
    """

    _ids: object = field(repr=False)  # a tuple, or an array of ASCII bytes
    exposed: np.ndarray
    outcomes: np.ndarray
    n_visits: int
    dropped_incomplete: int
    exposed_label: str
    unexposed_label: str

    def __init__(self, ids, exposed, outcomes, n_visits: int, dropped_incomplete: int,
                 exposed_label: str, unexposed_label: str):
        if not (isinstance(ids, np.ndarray) and ids.dtype.kind == "S"):
            ids = tuple(ids)
        exposed = np.array(exposed, dtype=bool)
        outcomes = np.asarray(outcomes)
        if exposed.shape != (len(ids),) or outcomes.shape != (len(ids), n_visits):
            raise ValueError(
                f"{len(ids)} ids need exposed of shape ({len(ids)},) and outcomes of shape "
                f"({len(ids)}, {n_visits}), got {exposed.shape} and {outcomes.shape}"
            )
        if not ((outcomes == 0) | (outcomes == 1)).all():
            raise ValueError("outcomes must be 0 or 1")
        outcomes = outcomes.astype(np.int8)  # checked first, so no value wraps into 0 or 1
        exposed.setflags(write=False)
        outcomes.setflags(write=False)
        for name, value in (("_ids", ids), ("exposed", exposed), ("outcomes", outcomes),
                            ("n_visits", n_visits), ("dropped_incomplete", dropped_incomplete),
                            ("exposed_label", exposed_label), ("unexposed_label", unexposed_label)):
            object.__setattr__(self, name, value)

    @functools.cached_property
    def ids(self) -> tuple:
        """The subject ids as a tuple."""
        return _decoded(self._ids)

    @property
    def n_exposed(self) -> int:
        return int(np.count_nonzero(self.exposed))

    @property
    def n_unexposed(self) -> int:
        return len(self.exposed) - self.n_exposed

    @property
    def subjects(self) -> tuple:
        """One Subject per subject, built from the columns on each call; the analysis does not use it."""
        return tuple(
            Subject(id=sid, exposed=exposed, outcomes=tuple(outcomes))
            for sid, exposed, outcomes in zip(self.ids, self.exposed.tolist(), self.outcomes.tolist())
        )


def _decoded(ids) -> tuple:
    """ids as a tuple: an array of ASCII bytes decoded to str, a tuple as it is."""
    if isinstance(ids, np.ndarray):
        return tuple(map(bytes.decode, ids.tolist()))
    return ids


def _blank(row) -> bool:
    return not any(f.strip() for f in row)


def _read_header(reader) -> list:
    for row in reader:
        if not _blank(row):
            return [f.strip() for f in row]
    raise ParseError("empty file")


def _rows(reader):
    """The non-blank rows after the header, each with its line number.

    A row's line number is reader.line_num after it, the last line of a
    row that a quoted newline spans.
    """
    for row in reader:
        if (row and row[0].strip()) or not _blank(row):  # a non-empty id settles most rows
            yield row, reader.line_num


def _label_code(labels: dict, label: str, line: int) -> int:
    """The code of an exposure label, a new one coded in first-seen order; a third is a fault."""
    code = labels.setdefault(label, len(labels))
    if code >= 2:
        raise ParseError(f"exposure column has more than two values (third value {label!r})", line=line)
    return code


def parse_dataset(source, exposed_value: str) -> LongitudinalDataset:
    """Parse the wide per-subject CSV: header id,exposure,y1,...,yT.

    exposed_value names the exposure label coded as exposed.  Subjects
    with empty outcome cells are dropped and counted; structurally bad
    rows raise ParseError with the line number.
    """
    return _wide_dataset(*_parse(source, _plaincsv.read_wide, _csv_wide), exposed_value)


def parse_long_dataset(source, exposed_value: str) -> LongitudinalDataset:
    """Parse the long per-observation CSV: header id,exposure,visit,y.

    Visits must be integers 1..T; T is the largest visit in the file,
    and may not exceed the number of observation rows.  A subject
    missing any visit (or with an empty y) is dropped and counted.
    Conflicting exposure labels or duplicate (id, visit) rows raise
    ParseError.
    """
    return _long_dataset(*_parse(source, _plaincsv.read_long, _csv_long), exposed_value)


def _parse(source, plain, fallback):
    """plain(read) on the input's bytes, or fallback(handle) if it declines.

    A path is opened again for the fallback, and a handle is read again
    from where the parse started; a handle that cannot seek goes to the
    fallback at once.
    """
    if not hasattr(source, "read"):
        try:
            with open(source, "rb") as handle:
                return plain(handle.read)
        except _plaincsv.Declined:
            pass
        with open(source, "r", encoding="utf-8", newline="") as handle:
            return fallback(handle)
    if source.seekable():
        start = source.tell()
        try:
            return plain(lambda size: _plaincsv.ascii_bytes(source.read(size)))
        except _plaincsv.Declined:
            source.seek(start)
    return fallback(source)


def _wide_dataset(
    ids, labels: dict, label: np.ndarray, y: np.ndarray, exposed_value: str,
) -> LongitudinalDataset:
    """The dataset of a wide file's rows: id, exposure label code and outcome codes of each."""
    complete = ~(y == _EMPTY).any(axis=1)
    return _dataset(ids, labels, label, complete, y[complete], exposed_value)


def _long_dataset(
    ids, labels: dict, subject_label: np.ndarray,
    subject: np.ndarray, visit: np.ndarray, y: np.ndarray, n_visits: int, exposed_value: str,
) -> LongitudinalDataset:
    """The dataset of a long file's rows: subject number, visit and outcome code of each.

    ids and subject_label hold each subject's id and exposure label code,
    in first-seen order.  No (subject, visit) repeats and every visit is
    in 1..n_visits.
    """
    # With no duplicate and every visit in 1..T, T rows with an outcome make a subject complete.
    # The rows are taken CHUNK_ROWS at a time, so no temporary is as long as the rows.
    chunks = [slice(i, i + _plaincsv.CHUNK_ROWS) for i in range(0, len(subject), _plaincsv.CHUNK_ROWS)]
    answered = np.zeros(len(subject_label), dtype=np.intp)
    for rows in chunks:
        np.add.at(answered, subject[rows][y[rows] != _EMPTY], 1)
    complete = answered == n_visits
    del answered
    n_complete = int(np.count_nonzero(complete))
    # Each kept row's flat cell is row * n_visits + visit - 1: base[subject] + visit,
    # as int32 when every cell number fits
    base = np.cumsum(complete, dtype=_plaincsv.cell_type(n_complete, n_visits))
    base -= 1
    base *= n_visits
    base -= 1
    outcomes = np.zeros(n_complete * n_visits, dtype=np.int8)
    for rows in chunks:
        keep = complete[subject[rows]]
        cell = base[subject[rows][keep]]
        cell += visit[rows][keep]
        outcomes[cell] = y[rows][keep]
    del base
    return _dataset(ids, labels, subject_label, complete, outcomes.reshape(n_complete, n_visits),
                    exposed_value)


def _dataset(ids, labels: dict, label: np.ndarray, complete: np.ndarray, outcomes: np.ndarray,
             exposed_value: str) -> LongitudinalDataset:
    """The dataset of the complete subjects, from each subject's id and exposure label code.

    ids is an array of ASCII bytes or an iterable of str; labels maps
    each exposure label to its code, in first-seen order; outcomes holds
    the complete subjects' outcomes.
    """
    if len(label) > 0 and exposed_value not in labels:
        found = ", ".join(repr(v) for v in labels) or "none"
        raise ParseError(
            f"exposed value {exposed_value!r} not present in exposure column (found: {found})"
        )
    others = [v for v in labels if v != exposed_value]
    return LongitudinalDataset(
        ids=ids[complete] if isinstance(ids, np.ndarray) else compress(ids, complete.tolist()),
        exposed=label[complete] == labels.get(exposed_value, -1),
        outcomes=outcomes,
        n_visits=outcomes.shape[1],
        dropped_incomplete=len(label) - len(outcomes),
        exposed_label=exposed_value,
        unexposed_label=others[0] if others else "",
    )


def _csv_wide(handle) -> tuple:
    """(ids, labels, label codes, outcome codes) of a wide file, for _wide_dataset."""
    reader = csv.reader(handle)
    header = _read_header(reader)
    n_visits = len(header) - 2
    expected = ["id", "exposure"] + [f"y{i}" for i in range(1, n_visits + 1)]
    if n_visits < 2 or header != expected:
        raise ParseError(
            f"header must be id,exposure,y1,...,yT with T >= 2, got {','.join(header)}",
            line=reader.line_num,
        )
    labels = {}
    ids, codes, outcomes = [], bytearray(), bytearray()
    for row, line in _rows(reader):
        if len(row) != n_visits + 2:
            raise ParseError(f"expected {n_visits + 2} fields, got {len(row)}", line=line)
        code = _label_code(labels, row[1].strip(), line)
        tokens = [t.strip() for t in row[2:]]
        y = [_OUTCOME_CODES.get(t, _BAD) for t in tokens]
        if _BAD in y:
            raise ParseError(
                f"outcome value must be 0, 1, or empty, got {tokens[y.index(_BAD)]!r}", line=line
            )
        ids.append(row[0].strip())
        codes.append(code)
        outcomes.extend(y)
    y = np.frombuffer(outcomes, dtype=np.int8).reshape(-1, n_visits)
    return ids, labels, np.frombuffer(codes, dtype=np.int8), y


def _csv_long(handle) -> tuple:
    """The arguments of _long_dataset, for any long file; raises ParseError at the first fault."""
    reader = csv.reader(handle)
    header = _read_header(reader)
    if header != ["id", "exposure", "visit", "y"]:
        raise ParseError(
            f"header must be id,exposure,visit,y, got {','.join(header)}",
            line=reader.line_num,
        )
    index = {}  # subject id -> subject number, in first-seen order
    labels = {}  # exposure label -> code, in first-seen order
    subject_label = bytearray()  # label code per subject number
    subjects, visits, outcomes = [], [], bytearray()
    seen = set()  # (subject number, visit) of every row
    max_visit, max_line = 0, None
    for row, line in _rows(reader):
        if len(row) != 4:
            raise ParseError(f"expected 4 fields, got {len(row)}", line=line)
        token = row[2].strip()
        try:
            visit = int(token)
        except ValueError:
            raise ParseError(f"visit must be an integer, got {token!r}", line=line) from None
        if visit < 1:
            raise ParseError(f"visit must be >= 1, got {visit}", line=line)
        token = row[3].strip()
        y = _OUTCOME_CODES.get(token, _BAD)
        if y == _BAD:
            raise ParseError(f"outcome value must be 0, 1, or empty, got {token!r}", line=line)
        code = _label_code(labels, row[1].strip(), line)
        sid = row[0].strip()
        subject = index.setdefault(sid, len(index))
        if subject == len(subject_label):
            subject_label.append(code)
        elif subject_label[subject] != code:
            names = list(labels)
            raise ParseError(
                f"subject {sid!r} has conflicting exposure labels "
                f"{names[subject_label[subject]]!r} and {names[code]!r}",
                line=line,
            )
        if (subject, visit) in seen:
            raise ParseError(f"duplicate visit {visit} for subject {sid!r}", line=line)
        seen.add((subject, visit))
        subjects.append(subject)
        visits.append(visit)
        outcomes.append(y)
        if visit > max_visit:
            max_visit, max_line = visit, line
    if max_visit > len(visits):
        raise ParseError(
            f"visit {max_visit} exceeds the number of observation rows ({len(visits)}), "
            "so no subject can have every visit",
            line=max_line,
        )
    if max_visit < 2:
        raise ParseError("need outcomes for at least 2 visits")
    return (
        index, labels, np.frombuffer(subject_label, dtype=np.int8),
        np.array(subjects, dtype=np.int64), np.array(visits, dtype=np.int64),
        np.frombuffer(outcomes, dtype=np.int8), max_visit,
    )


def build_conditional_tables(data: LongitudinalDataset, j: int, k: int) -> StratifiedTables:
    """Time-j exposure-by-outcome tables stratified on the time-k outcome."""
    if not 1 <= k < j <= data.n_visits:
        raise DomainError(
            f"need 1 <= k < j <= {data.n_visits}, got j={j}, k={k}"
        )
    # cell within a stratum: a, b (exposed, outcome 1/0 at j), then c, d (non-exposed)
    cell = 2 * ~data.exposed + (1 - data.outcomes[:, j - 1])
    counts = np.bincount(4 * data.outcomes[:, k - 1] + cell, minlength=8).tolist()
    zero, one = counts[:4], counts[4:]
    return StratifiedTables(
        stratum1=StratumTable(a=one[0], b=one[1], c=one[2], d=one[3]),
        stratum0=StratumTable(a=zero[0], b=zero[1], c=zero[2], d=zero[3]),
    )


def visit_risks(data: LongitudinalDataset) -> list:
    """Rows (visit, exposed risk, non-exposed risk); nan when a group is empty."""
    n_e = data.n_exposed
    n_ne = data.n_unexposed
    yes_e = data.outcomes[data.exposed].sum(axis=0).tolist()
    yes_ne = data.outcomes[~data.exposed].sum(axis=0).tolist()
    rows = []
    for visit in range(1, data.n_visits + 1):
        risk_e = yes_e[visit - 1] / n_e if n_e else math.nan
        risk_ne = yes_ne[visit - 1] / n_ne if n_ne else math.nan
        rows.append((visit, risk_e, risk_ne))
    return rows


@dataclass(frozen=True)
class VisitPairAnalysis:
    """All measures for one visit pair; None/nan marks not-estimable cells.

    reasons holds a (measure, message) pair for each measure that is not
    estimable: measure "rr", "rr1" or "rr0", or "rho" for both
    correlations, and the message of the error that its estimator raised.
    """

    j: int
    k: int
    tables: StratifiedTables
    rr: RiskRatioEstimate | None
    rr1: RiskRatioEstimate | None
    rr0: RiskRatioEstimate | None
    rho_e: float
    rho_ne: float
    reasons: tuple = ()


@dataclass(frozen=True)
class AnalysisReport:
    n_visits: int
    n_exposed: int
    n_unexposed: int
    dropped_incomplete: int
    exposed_label: str
    unexposed_label: str
    level: float
    risks: tuple
    pairs: tuple


def default_pairs(n_visits: int) -> tuple:
    """Consecutive visit pairs (2,1), (3,2), ..., (T, T-1)."""
    return tuple((j, j - 1) for j in range(2, n_visits + 1))


def analyze_pair(
    data: LongitudinalDataset, j: int, k: int,
    level: float = 0.95, paper_literal_rho: bool = False,
) -> VisitPairAnalysis:
    tables = build_conditional_tables(data, j, k)
    s1, s0 = tables.stratum1, tables.stratum0
    crude = StratumTable(a=s1.a + s0.a, b=s1.b + s0.b, c=s1.c + s0.c, d=s1.d + s0.d)

    reasons = []

    def attempt(measure, fn, *args):
        try:
            return fn(*args)
        except DegenerateTableError as exc:  # UndefinedCorrelationError too
            reasons.append((measure, str(exc)))
            return None

    rr = attempt("rr", rr_crude, crude, level)
    rr1 = attempt("rr1", rr1_estimate, tables, level)
    rr0 = attempt("rr0", rr0_estimate, tables, level)
    rhos = attempt("rho", phi_correlations, tables, paper_literal_rho)
    rho_e, rho_ne = rhos if rhos is not None else (math.nan, math.nan)
    return VisitPairAnalysis(j=j, k=k, tables=tables, rr=rr, rr1=rr1, rr0=rr0,
                             rho_e=rho_e, rho_ne=rho_ne, reasons=tuple(reasons))


def analyze(
    data: LongitudinalDataset,
    pairs=None,
    level: float = 0.95,
    paper_literal_rho: bool = False,
) -> AnalysisReport:
    """Per-visit risks plus every requested visit-pair analysis."""
    z_quantile(level)  # checks the level
    if pairs is None:
        pairs = default_pairs(data.n_visits)
    analyses = tuple(
        analyze_pair(data, j, k, level=level, paper_literal_rho=paper_literal_rho)
        for j, k in pairs
    )
    return AnalysisReport(
        n_visits=data.n_visits,
        n_exposed=data.n_exposed,
        n_unexposed=data.n_unexposed,
        dropped_incomplete=data.dropped_incomplete,
        exposed_label=data.exposed_label,
        unexposed_label=data.unexposed_label,
        level=level,
        risks=tuple(visit_risks(data)),
        pairs=analyses,
    )


def _fmt_full(value) -> str:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return ""
    return repr(float(value))


def write_risks_csv(report: AnalysisReport, out) -> None:
    """risks.csv: one row per (visit, group), full-precision risks."""
    write_table(out, RISKS_CSV_HEADER, (
        (str(visit), group, _fmt_full(risk))
        for visit, risk_e, risk_ne in report.risks
        for group, risk in ((GROUP_EXPOSED, risk_e), (GROUP_UNEXPOSED, risk_ne))
    ))


def write_measures_csv(report: AnalysisReport, out) -> None:
    """measures.csv: one row per (pair, measure), full precision, empty = not estimable."""
    write_table(out, MEASURES_CSV_HEADER, _measure_rows(report))


def _measure_rows(report):
    for pair in report.pairs:
        rho_e = _fmt_full(pair.rho_e)
        rho_ne = _fmt_full(pair.rho_ne)
        for name, est in (("rr", pair.rr), ("rr1", pair.rr1), ("rr0", pair.rr0)):
            if est is None:
                point = lower = upper = ""
            else:
                point = _fmt_full(est.point)
                lower = _fmt_full(est.ci_lower)
                upper = _fmt_full(est.ci_upper)
            yield (str(pair.j), str(pair.k), name, point, lower, upper, rho_e, rho_ne)


def _pct(value: float) -> str:
    if value is None or math.isnan(value):
        return "not estimable"
    return f"{100.0 * value:.1f}"


def _not_estimable(reason) -> str:
    return "not estimable" if reason is None else f"not estimable ({reason})"


def _est_line(label: str, est, level: float, reason=None) -> str:
    pct = f"{100.0 * level:g}%"
    if est is None:
        return f"  {label}: {_not_estimable(reason)}"
    return (
        f"  {label}: {est.point:.2f} ({pct} CI {est.ci_lower:.2f}, {est.ci_upper:.2f})"
    )


def _rho_text(value: float, reason=None) -> str:
    return _not_estimable(reason) if math.isnan(value) else f"{value:.2f}"


def format_report(report: AnalysisReport) -> str:
    """Human-readable analysis summary (risks in %, measures to 2 decimals)."""
    total = report.n_exposed + report.n_unexposed
    lines = [
        f"condrisk {__version__} analysis report",
        "",
        f"subjects analyzed: {total} "
        f"(exposed [{report.exposed_label}]: {report.n_exposed}, "
        f"non-exposed [{report.unexposed_label}]: {report.n_unexposed})",
        f"subjects dropped (incomplete outcomes): {report.dropped_incomplete}",
        f"visits: {report.n_visits}",
        f"confidence level: {100.0 * report.level:g}%",
        "",
        "Outcome risk (%) by visit",
        f"{'visit':>5}  {'exposed':>12}  {'non-exposed':>12}",
    ]
    for visit, risk_e, risk_ne in report.risks:
        lines.append(f"{visit:>5}  {_pct(risk_e):>12}  {_pct(risk_ne):>12}")
    for pair in report.pairs:
        lines.append("")
        lines.append(f"Visit pair j={pair.j}, k={pair.k} (outcome at {pair.j}, conditioning on {pair.k})")
        why = dict(pair.reasons)
        lines.append(_est_line("crude risk ratio          ", pair.rr, report.level, why.get("rr")))
        lines.append(_est_line("risk ratio | earlier = yes", pair.rr1, report.level, why.get("rr1")))
        lines.append(_est_line("risk ratio | earlier = no ", pair.rr0, report.level, why.get("rr0")))
        lines.append(
            f"  correlation (exposed): {_rho_text(pair.rho_e, why.get('rho'))}, "
            f"correlation (non-exposed): {_rho_text(pair.rho_ne, why.get('rho'))}"
        )
    lines.append("")
    return "\n".join(lines)


def write_report_files(report: AnalysisReport, out_dir: str) -> dict:
    """Write report.txt, risks.csv, and measures.csv into out_dir."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "report": os.path.join(out_dir, "report.txt"),
        "risks": os.path.join(out_dir, "risks.csv"),
        "measures": os.path.join(out_dir, "measures.csv"),
    }
    with open(paths["report"], "w", encoding="utf-8") as handle:
        handle.write(format_report(report))
    write_risks_csv(report, paths["risks"])
    write_measures_csv(report, paths["measures"])
    return paths
