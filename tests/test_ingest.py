"""Dataset parsing (wide and long), table building, analysis, writers."""

import csv
import io
import math
import struct
import textwrap
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _oracles import (
    loop_conditional_tables,
    loop_parse_long,
    loop_parse_wide,
    loop_visit_risks,
)
from condrisk import __version__, _plaincsv, ingest
from condrisk.errors import DomainError, ParseError
from condrisk.ingest import (
    GROUP_EXPOSED,
    GROUP_UNEXPOSED,
    MEASURES_CSV_HEADER,
    RISKS_CSV_HEADER,
    LongitudinalDataset,
    Subject,
    analyze,
    analyze_pair,
    build_conditional_tables,
    default_pairs,
    format_report,
    parse_dataset,
    parse_long_dataset,
    visit_risks,
    write_measures_csv,
    write_report_files,
    write_risks_csv,
)
from condrisk.mc import equal_marginal_spec, simulate_cohort
from condrisk.measures import (
    StratifiedTables,
    StratumTable,
    phi_correlations,
    rr0_estimate,
    rr1_estimate,
)

WIDE_TEXT = textwrap.dedent(
    """\
    id,exposure,y1,y2,y3
    s1,150,1,0,1
    s2,100,0,0,1
    s3,150,1,1,1
    """
)

LONG_TEXT = textwrap.dedent(
    """\
    id,exposure,visit,y
    s1,150,1,1
    s2,100,1,0
    s1,150,2,0
    s3,150,1,1
    s2,100,2,0
    s3,150,2,1
    s1,150,3,1
    s2,100,3,1
    s3,150,3,1
    """
)


def dataset_from_subjects(subjects, n_visits, exposed_label="150", unexposed_label="100"):
    return LongitudinalDataset(
        ids=tuple(s.id for s in subjects),
        exposed=np.array([s.exposed for s in subjects], dtype=bool),
        outcomes=np.array([s.outcomes for s in subjects], dtype=np.int8).reshape(len(subjects), n_visits),
        n_visits=n_visits,
        dropped_incomplete=0,
        exposed_label=exposed_label,
        unexposed_label=unexposed_label,
    )


def expand_tables(tables: StratifiedTables) -> LongitudinalDataset:
    """Subjects with outcomes (earlier, later) reproducing the given counts."""
    subjects = []

    def add(count, exposed, earlier, later):
        for _ in range(count):
            subjects.append(
                Subject(id=f"s{len(subjects)}", exposed=exposed, outcomes=(earlier, later))
            )

    s1, s0 = tables.stratum1, tables.stratum0
    add(s1.a, True, 1, 1)
    add(s1.b, True, 1, 0)
    add(s1.c, False, 1, 1)
    add(s1.d, False, 1, 0)
    add(s0.a, True, 0, 1)
    add(s0.b, True, 0, 0)
    add(s0.c, False, 0, 1)
    add(s0.d, False, 0, 0)
    return dataset_from_subjects(subjects, n_visits=2)


class TestParseWide:
    def test_basic_fixture(self):
        ds = parse_dataset(io.StringIO(WIDE_TEXT), exposed_value="150")
        assert ds.n_visits == 3
        assert ds.dropped_incomplete == 0
        assert [s.id for s in ds.subjects] == ["s1", "s2", "s3"]
        assert [s.exposed for s in ds.subjects] == [True, False, True]
        assert ds.subjects[0].outcomes == (1, 0, 1)
        assert (ds.exposed_label, ds.unexposed_label) == ("150", "100")
        assert ds.n_exposed == 2 and ds.n_unexposed == 1

    def test_incomplete_subject_dropped_and_counted(self):
        text = WIDE_TEXT.replace("s2,100,0,0,1", "s2,100,0,,1")
        ds = parse_dataset(io.StringIO(text), exposed_value="150")
        assert ds.dropped_incomplete == 1
        assert [s.id for s in ds.subjects] == ["s1", "s3"]
        # the label of a dropped subject still counts as seen
        assert ds.unexposed_label == "100"

    def test_blank_lines_and_padding_ignored(self):
        text = "id,exposure,y1,y2\n\n a ,150,1,0\n   \nb,100,0,1\n"
        ds = parse_dataset(io.StringIO(text), exposed_value="150")
        assert [s.id for s in ds.subjects] == ["a", "b"]

    def test_reads_from_path(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text(WIDE_TEXT)
        ds = parse_dataset(path, exposed_value="150")
        assert len(ds.subjects) == 3

    def test_empty_file(self):
        with pytest.raises(ParseError, match="empty file"):
            parse_dataset(io.StringIO(""), exposed_value="150")
        with pytest.raises(ParseError, match="empty file"):
            parse_dataset(io.StringIO("\n  \n"), exposed_value="150")

    def test_bad_header(self):
        with pytest.raises(ParseError, match="header must be") as exc:
            parse_dataset(io.StringIO("id,arm,y1,y2\nx,150,0,1\n"), exposed_value="150")
        assert exc.value.line == 1

    def test_too_few_visits_rejected(self):
        with pytest.raises(ParseError, match="T >= 2"):
            parse_dataset(io.StringIO("id,exposure,y1\nx,150,0\n"), exposed_value="150")

    def test_wrong_field_count_carries_line(self):
        text = "id,exposure,y1,y2\nx,150,1,0\ny,100,1\n"
        with pytest.raises(ParseError, match="expected 4 fields") as exc:
            parse_dataset(io.StringIO(text), exposed_value="150")
        assert exc.value.line == 3

    def test_bad_outcome_value(self):
        text = "id,exposure,y1,y2\nx,150,1,2\n"
        with pytest.raises(ParseError, match="outcome value") as exc:
            parse_dataset(io.StringIO(text), exposed_value="150")
        assert exc.value.line == 2

    def test_three_exposure_labels(self):
        text = "id,exposure,y1,y2\nx,150,1,0\ny,100,1,0\nz,200,1,0\n"
        with pytest.raises(ParseError, match="more than two") as exc:
            parse_dataset(io.StringIO(text), exposed_value="150")
        assert exc.value.line == 4

    def test_exposed_value_must_appear(self):
        text = "id,exposure,y1,y2\nx,100,1,0\n"
        with pytest.raises(ParseError, match="not present"):
            parse_dataset(io.StringIO(text), exposed_value="150")

    def test_single_label_cohort_is_allowed(self):
        text = "id,exposure,y1,y2\nx,150,1,0\ny,150,0,1\n"
        ds = parse_dataset(io.StringIO(text), exposed_value="150")
        assert ds.n_exposed == 2 and ds.n_unexposed == 0
        assert ds.unexposed_label == ""


class TestParseLong:
    def test_matches_wide(self):
        wide = parse_dataset(io.StringIO(WIDE_TEXT), exposed_value="150")
        long = parse_long_dataset(io.StringIO(LONG_TEXT), exposed_value="150")
        assert long.subjects == wide.subjects
        assert long.n_visits == wide.n_visits
        assert (long.exposed_label, long.unexposed_label) == ("150", "100")

    def test_missing_visit_drops_subject(self):
        text = LONG_TEXT.replace("s2,100,2,0\n", "")
        ds = parse_long_dataset(io.StringIO(text), exposed_value="150")
        assert ds.dropped_incomplete == 1
        assert [s.id for s in ds.subjects] == ["s1", "s3"]

    def test_empty_outcome_drops_subject(self):
        text = LONG_TEXT.replace("s2,100,2,0\n", "s2,100,2,\n")
        ds = parse_long_dataset(io.StringIO(text), exposed_value="150")
        assert ds.dropped_incomplete == 1

    # (rows added to LONG_TEXT, message, line): a visit past int64 is
    # compared as given, and the row-count bound names the largest.
    @pytest.mark.parametrize("extra, message, line", [
        ("s1,150,2,1\n", "duplicate visit 2 for subject 's1'", 11),
        ("s1,150,99999999999999999999999,1\ns1,150,99999999999999999999999,0\n",
         "duplicate visit 99999999999999999999999 for subject 's1'", 12),
        ("s1,150,99999999999999999999999,1\ns2,100,99999999999999999999998,0\n",
         "visit 99999999999999999999999 exceeds the number of observation rows", 11),
    ], ids=["small", "huge twice", "two huge"])
    def test_duplicate_visit(self, extra, message, line):
        with pytest.raises(ParseError, match=message) as exc:
            parse_long_dataset(io.StringIO(LONG_TEXT + extra), exposed_value="150")
        assert exc.value.line == line

    def test_conflicting_exposure(self):
        text = LONG_TEXT.replace("s1,150,3,1", "s1,100,3,1")
        with pytest.raises(ParseError, match="conflicting exposure"):
            parse_long_dataset(io.StringIO(text), exposed_value="150")

    def test_bad_visit_values(self):
        with pytest.raises(ParseError, match="visit must be an integer"):
            parse_long_dataset(
                io.StringIO("id,exposure,visit,y\nx,150,one,1\n"), exposed_value="150"
            )
        with pytest.raises(ParseError, match="visit must be >= 1"):
            parse_long_dataset(
                io.StringIO("id,exposure,visit,y\nx,150,0,1\n"), exposed_value="150"
            )

    def test_needs_two_visits(self):
        text = "id,exposure,visit,y\nx,150,1,1\ny,100,1,0\n"
        with pytest.raises(ParseError, match="at least 2 visits"):
            parse_long_dataset(io.StringIO(text), exposed_value="150")

    def test_bad_header(self):
        with pytest.raises(ParseError, match="header must be"):
            parse_long_dataset(io.StringIO("id,visit,y\n"), exposed_value="150")


class TestVisitBound:
    def test_stray_visit_is_rejected_quickly(self):
        text = "id,exposure,visit,y\na,E,1,1\na,E,2,0\nb,N,1,0\nb,N,100000000,1\n"
        start = time.perf_counter()
        with pytest.raises(ParseError, match="visit 100000000 exceeds the number of observation rows") as exc:
            parse_long_dataset(io.StringIO(text), exposed_value="E")
        assert time.perf_counter() - start < 2.0
        assert exc.value.line == 5

    def test_row_faults_come_first(self):
        text = "id,exposure,visit,y\na,E,100000000,1\na,E,1,2\nb,N,1,0\n"
        with pytest.raises(ParseError, match="outcome value") as exc:
            parse_long_dataset(io.StringIO(text), exposed_value="E")
        assert exc.value.line == 3


# Random wide and long texts: mostly well-formed rows, plus blank and
# whitespace-only rows, padded and quoted fields (an embedded newline
# makes line numbers run ahead of row numbers) and injected faults.  Half
# are drawn plain (no padding, quoting or blank rows), the files the byte
# tokenizer reads; their injected faults make it decline.
_IDS = ["s1", "s2", "s3", "a,b", "c\nd", "e f"]
_PLAIN_IDS = ["s1", "s2", "s3", "s01", "S:4/x", "subject-0001", "subject-0002"]  # some over 8 bytes
_BLANKS = ["", "   ", " , ,  , ", ",,,", ","]
_EXPOSED_VALUES = ["E", "E", "E", "N", "Q"]


def _pad(draw, token, plain):
    return token if plain else draw(st.sampled_from([token, token, token, f" {token}", f"{token} "]))


def _render(draw, header, records):
    out = io.StringIO()
    terminator = draw(st.sampled_from(["\n", "\n", "\r\n"]))
    writer = csv.writer(out, lineterminator=terminator)
    writer.writerow(header)
    for record in records:
        if isinstance(record, str):
            out.write(record + terminator)
        else:
            writer.writerow(record)
    return out.getvalue()


def _insert(draw, records, extras):
    for extra in extras:
        records.insert(draw(st.integers(0, len(records))), extra)
    return records


@st.composite
def long_texts(draw):
    plain = draw(st.booleans())
    ids = _PLAIN_IDS if plain else _IDS
    labels = {sid: draw(st.sampled_from(["E", "N"])) for sid in ids}
    n_visits = draw(st.integers(2, 3))
    keys = []
    for sid in draw(st.lists(st.sampled_from(ids), unique=True, min_size=1, max_size=5)):
        visits = range(1, n_visits + 1)
        if draw(st.integers(0, 3)) == 0:  # most subjects have every visit
            visits = draw(st.lists(st.sampled_from(visits), unique=True))
        keys.extend((sid, visit) for visit in visits)
    records = [
        [_pad(draw, sid, plain), _pad(draw, labels[sid], plain), _pad(draw, str(visit), plain),
         _pad(draw, draw(st.sampled_from(["0", "1", "0", "1", ""])), plain)]
        for sid, visit in draw(st.permutations(keys))
    ]
    n_faults = draw(st.sampled_from([0, 0, 1, 1, 2]))
    faults = []
    for _ in range(n_faults):
        sid = draw(st.sampled_from(ids))
        row = [sid, labels[sid], draw(st.sampled_from(["1", "2", "3"])), "1"]
        kind = draw(st.sampled_from([
            "fields", "visit", "visit_low", "outcome", "third", "conflict", "duplicate", "big", "huge",
        ]))
        if kind == "fields":
            row = row[:3] if draw(st.booleans()) else row + ["0"]
        elif kind == "visit":
            row[2] = draw(st.sampled_from(["x", "", "1.5", " 2x"]))
        elif kind == "visit_low":
            row[2] = draw(st.sampled_from(["0", "-1", " -7 "]))
        elif kind == "outcome":
            row[3] = draw(st.sampled_from(["2", "yes", " -1 "]))
        elif kind == "third":
            row[1] = "Z"
        elif kind == "conflict":
            row[1] = "N" if labels[sid] == "E" else "E"
        elif kind == "duplicate" and records:
            row = list(draw(st.sampled_from(records)))
        elif kind == "big":
            row[2] = "50"
        elif kind == "huge":
            row[2] = draw(st.sampled_from(["99999999999999999999999", "4611686018427387904"]))
        faults.append(row)
    blanks = [] if plain else draw(st.lists(st.sampled_from(_BLANKS), max_size=3))
    text = _render(draw, ["id", "exposure", "visit", "y"], _insert(draw, _insert(draw, records, faults), blanks))
    return ("" if plain else draw(st.sampled_from(["", "\n", "  \n"]))) + text


@st.composite
def wide_texts(draw):
    plain = draw(st.booleans())
    n_visits = draw(st.integers(2, 3))
    records = []
    for _ in range(draw(st.integers(0, 8))):
        label = draw(st.sampled_from(["E", "N", "N"]))
        outcomes = [_pad(draw, draw(st.sampled_from(["0", "1", "1", "0", ""])), plain) for _ in range(n_visits)]
        sid = draw(st.sampled_from(_PLAIN_IDS if plain else _IDS))
        records.append([_pad(draw, sid, plain), _pad(draw, label, plain), *outcomes])
    faults = []
    for _ in range(draw(st.sampled_from([0, 0, 1, 1, 2]))):
        row = ["f", "E"] + ["1"] * n_visits
        kind = draw(st.sampled_from(["fields", "outcome", "third"]))
        if kind == "fields":
            row = row[:-1] if draw(st.booleans()) else row + ["0"]
        elif kind == "outcome":
            row[draw(st.integers(2, n_visits + 1))] = draw(st.sampled_from(["2", "x", " 11"]))
        else:
            row[1] = "Z"
        faults.append(row)
    blanks = [] if plain else draw(st.lists(st.sampled_from(_BLANKS), max_size=3))
    header = ["id", "exposure"] + [f"y{v}" for v in range(1, n_visits + 1)]
    return _render(draw, header, _insert(draw, _insert(draw, records, faults), blanks))


def _parsed(parse, source, exposed_value):
    """A parse of a text, a handle or a Path as plain values, or its error's type, message and line."""
    if isinstance(source, str):
        source = io.StringIO(source)
    try:
        ds = parse(source, exposed_value)
    except (ParseError, UnicodeDecodeError, csv.Error) as exc:
        return (type(exc).__name__, str(exc), getattr(exc, "line", None))
    if isinstance(ds, tuple):
        return ds
    return (ds.ids, ds.exposed.tolist(), ds.outcomes.tolist(), ds.n_visits,
            ds.dropped_incomplete, ds.exposed_label, ds.unexposed_label)


# Bytes per plain block; a test id names the size.
_BLOCK_BYTES = [1, 7, 64, _plaincsv.BLOCK_BYTES]


class TestParsersAgainstLoopOracles:
    @pytest.mark.parametrize("block_bytes", _BLOCK_BYTES, ids=str)
    @given(text=long_texts(), exposed_value=st.sampled_from(_EXPOSED_VALUES))
    @settings(max_examples=300, deadline=None)
    def test_long(self, block_bytes, text, exposed_value):
        want = _parsed(loop_parse_long, text, exposed_value)
        with mock.patch.object(_plaincsv, "BLOCK_BYTES", block_bytes):
            assert _parsed(parse_long_dataset, text, exposed_value) == want

    @pytest.mark.parametrize("block_bytes", _BLOCK_BYTES, ids=str)
    @given(text=wide_texts(), exposed_value=st.sampled_from(_EXPOSED_VALUES))
    @settings(max_examples=300, deadline=None)
    def test_wide(self, block_bytes, text, exposed_value):
        want = _parsed(loop_parse_wide, text, exposed_value)
        with mock.patch.object(_plaincsv, "BLOCK_BYTES", block_bytes):
            assert _parsed(parse_dataset, text, exposed_value) == want

    # A row that breaks two rules reports the one the loop checks first.
    @pytest.mark.parametrize("parse, oracle, text, row", [
        (parse_long_dataset, loop_parse_long, LONG_TEXT, "s4,Z,x,1,0"),  # field count, third label
        (parse_long_dataset, loop_parse_long, LONG_TEXT, "s4,Z,0,1"),  # visit, third label
        (parse_long_dataset, loop_parse_long, LONG_TEXT, "s4,Z,1,2"),  # outcome, third label
        (parse_long_dataset, loop_parse_long, LONG_TEXT, "s1,100,1,2"),  # outcome, conflicting label
        (parse_long_dataset, loop_parse_long, LONG_TEXT, "s1,Z,1,1"),  # third label, duplicate
        (parse_long_dataset, loop_parse_long, LONG_TEXT, "s1,100,1,1"),  # conflicting label, duplicate
        (parse_dataset, loop_parse_wide, WIDE_TEXT, "s4,Z,0,1,2"),  # third label, outcome
        (parse_dataset, loop_parse_wide, WIDE_TEXT, "s4,Z,0,2"),  # field count, third label
    ], ids=["long fields", "long visit", "long outcome", "long outcome conflict", "long third label",
            "long conflict", "wide third label", "wide fields"])
    def test_row_with_two_faults(self, parse, oracle, text, row):
        text += row + "\n"
        want = _parsed(oracle, text, "150")
        assert want[0] == "ParseError" and want[2] == text.count("\n")
        assert _parsed(parse, text, "150") == want


def _cohort_texts(n_subjects=3000, n_visits=4):
    """A seeded cohort written wide and long the way the benchmark writes it.

    Ids S000000...; labels "exposed" and "control"; 3% of subjects miss
    one outcome, as an empty y or, in half the long cases, an absent row;
    long rows come visit by visit.
    """
    rng = np.random.default_rng(8)
    labels = np.where(rng.random(n_subjects) < 0.4, "exposed", "control")
    cells = (rng.random((n_subjects, n_visits)) < 0.3).astype(int).astype(str).astype(object)
    missing = np.where(rng.random(n_subjects) < 0.03, rng.integers(0, n_visits, n_subjects), -1)
    cells[missing >= 0, missing[missing >= 0]] = ""
    absent = (missing >= 0) & (rng.random(n_subjects) < 0.5)
    ids = [f"S{i:06d}" for i in range(n_subjects)]
    wide = "id,exposure," + ",".join(f"y{v}" for v in range(1, n_visits + 1)) + "\n" + "".join(
        f"{sid},{label},{','.join(row)}\n" for sid, label, row in zip(ids, labels, cells)
    )
    long_ = "id,exposure,visit,y\n" + "".join(
        f"{ids[s]},{labels[s]},{v + 1},{cells[s, v]}\n"
        for v in range(n_visits) for s in range(n_subjects) if not (absent[s] and missing[s] == v)
    )
    return wide, long_


_CSV_PATH = {parse_dataset: "_csv_wide", parse_long_dataset: "_csv_long"}


def _via_csv(parse, source, exposed_value="E"):
    """_parsed with the byte tokenizer switched off."""
    with mock.patch.object(_plaincsv, "read_wide", side_effect=_plaincsv.Declined), \
            mock.patch.object(_plaincsv, "read_long", side_effect=_plaincsv.Declined):
        return _parsed(parse, source, exposed_value)


def _spied(parse, source, exposed_value="E"):
    """_parsed, and whether the parse entered the csv reader path."""
    name = _CSV_PATH[parse]
    with mock.patch.object(ingest, name, wraps=getattr(ingest, name)) as spy:
        return _parsed(parse, source, exposed_value), spy.called


_LONG = "id,exposure,visit,y\ns1,E,1,1\ns2,N,1,0\ns1,E,2,0\ns2,N,2,\ns3,E,1,1\ns3,E,2,1\n"
_WIDE = "id,exposure,y1,y2\ns1,E,1,0\ns2,N,0,\ns3,E,1,1\n"

# Each case breaks one rule of a plain file: (parse, text, old, new), new
# taking the place of the first old in text.
_DECLINES = {
    "quote": (parse_long_dataset, _LONG, "s2,N,1,0", '"s2",N,1,0'),
    "space": (parse_long_dataset, _LONG, "s2,N,1,0", "s2 ,N,1,0"),
    "tab": (parse_long_dataset, _LONG, "s2,N,1,0", "s2,N\t,1,0"),
    "blank line": (parse_long_dataset, _LONG, "s2,N,1,0\n", "s2,N,1,0\n\n"),
    "lone CR ending a line": (parse_long_dataset, _LONG, "s2,N,1,0\n", "s2,N,1,0\r"),
    "lone CR in a field": (parse_long_dataset, _LONG, "s2,N,1,0", "s2,N\r,1,0"),
    "non-ASCII id": (parse_long_dataset, _LONG, "s2", "sé2"),
    "BOM": (parse_long_dataset, _LONG, "id,", "\ufeffid,"),
    "19-digit visit": (parse_long_dataset, _LONG, "s3,E,2,1", "s3,E,1000000000000000002,1"),
    "long id": (parse_long_dataset, _LONG, "s2", "s2" + "x" * _plaincsv.NAME_BYTES),
    "padded header": (parse_long_dataset, _LONG, "id,exposure", "id, exposure"),
    "empty id": (parse_long_dataset, _LONG, "s2,N,1,0", ",N,1,0"),
    "blank row": (parse_long_dataset, _LONG, "s2,N,1,0\n", "s2,N,1,0\n,,,\n"),
    "field count": (parse_long_dataset, _LONG, "s2,N,1,0", "s2,N,1,0,1"),
    "signed visit": (parse_long_dataset, _LONG, "s2,N,1,0", "s2,N,+1,0"),
    "visit not an integer": (parse_long_dataset, _LONG, "s2,N,1,0", "s2,N,x,0"),
    # ":" follows "9", so read as a digit it would make visit 10, within 10 rows
    "visit not a digit": (parse_long_dataset, _LONG + "t1,N,1,0\nt2,N,1,0\nt3,N,1,0\nt4,N,1,0\n",
                          "s2,N,1,0", "s2,N,:,0"),
    "visit 0": (parse_long_dataset, _LONG, "s2,N,1,0", "s2,N,0,0"),
    "bad outcome": (parse_long_dataset, _LONG, "s2,N,1,0", "s2,N,1,2"),
    "third label": (parse_long_dataset, _LONG, "s3,E,2,1\n", "s3,E,2,1\ns4,Z,1,1\n"),
    "conflicting label": (parse_long_dataset, _LONG, "s1,E,2,0", "s1,N,2,0"),
    "duplicate visit": (parse_long_dataset, _LONG, "s3,E,2,1\n", "s3,E,2,1\ns1,E,2,1\n"),
    "visit past the rows": (parse_long_dataset, _LONG, "s3,E,2,1", "s3,E,9,1"),
    "one visit": (parse_long_dataset, _LONG, "s1,E,2,0\ns2,N,2,\ns3,E,1,1\ns3,E,2,1\n", ""),
    "wide field count": (parse_dataset, _WIDE, "s2,N,0,", "s2,N,0"),
    "wide bad outcome": (parse_dataset, _WIDE, "s2,N,0,", "s2,N,0,x"),
    "wide third label": (parse_dataset, _WIDE, "s3,E", "s3,Z"),
    "wide blank row": (parse_dataset, _WIDE, "s2,N,0,\n", "s2,N,0,\n,,,\n"),
    "wide quote": (parse_dataset, _WIDE, "s1", '"s1"'),
}


class TestPlainPath:
    """The byte tokenizer reads plain files; it leaves any other to the csv reader."""

    @pytest.mark.parametrize("block_bytes", [4096, _plaincsv.BLOCK_BYTES])
    @pytest.mark.parametrize("terminator", ["\n", "\r\n"])
    def test_reads_a_cohort_file_without_the_csv_reader(self, tmp_path, block_bytes, terminator):
        wide, long_ = _cohort_texts()
        results = []
        for parse, text in ((parse_dataset, wide), (parse_long_dataset, long_)):
            text = text.replace("\n", terminator)
            path = tmp_path / f"{_CSV_PATH[parse]}.csv"
            path.write_bytes(text.encode("ascii"))
            want = _via_csv(parse, path, "exposed")
            assert want[0] and want[4] > 0  # subjects kept and dropped
            with mock.patch.object(_plaincsv, "BLOCK_BYTES", block_bytes):
                for source in (path, text):
                    assert _spied(parse, source, "exposed") == (want, False)
            results.append(want)
        assert results[0] == results[1]

    def test_analysis_leaves_the_ids_undecoded(self):
        wide, long_ = _cohort_texts()
        for parse, text in ((parse_dataset, wide), (parse_long_dataset, long_)):
            with mock.patch.object(ingest, "_decoded", wraps=ingest._decoded) as decode:
                ds = parse(io.StringIO(text), "exposed")
                analyze(ds)
                assert decode.call_count == 0
                assert ds.ids == _via_csv(parse, text, "exposed")[0]

    def test_visit_keys_past_32_bits_do_not_collide(self):
        # 85,900 subjects and T = 50,000: subject 85,899 at visit 17,297 has the
        # (subject, visit) key 85,899 * T + 17,297 = 2**32 + 1, which 32-bit
        # arithmetic would wrap onto subject 0's key at visit 1
        rows = [f"s{i},E,1,1" for i in range(85899)] + ["s85899,E,17297,1", "s1,E,50000,0"]
        got, used_csv = _spied(parse_long_dataset, "id,exposure,visit,y\n" + "\n".join(rows) + "\n")
        assert not used_csv and got[4] == 85900  # parsed as bytes, every subject dropped

    # (BLOCK_BYTES, CHUNK_ROWS): many blocks and sorted-id chunks, then the defaults
    @pytest.mark.parametrize("block_bytes, chunk_rows", [(4096, 1000), (_plaincsv.BLOCK_BYTES, _plaincsv.CHUNK_ROWS)])
    @pytest.mark.parametrize("row_order", ["visit-major", "subject-major", "shuffled"])
    def test_row_order_does_not_matter(self, block_bytes, chunk_rows, row_order):
        header, *rows = _cohort_texts()[1].splitlines(keepends=True)
        if row_order == "subject-major":
            rows.sort(key=lambda row: row.partition(",")[0])  # stable: visits stay in order
        elif row_order == "shuffled":
            rows = [rows[i] for i in np.random.default_rng(3).permutation(len(rows))]
        text = header + "".join(rows)
        want = _via_csv(parse_long_dataset, text, "exposed")
        assert want[0] and want[4] > 0  # subjects kept and dropped
        with mock.patch.object(_plaincsv, "BLOCK_BYTES", block_bytes), \
                mock.patch.object(_plaincsv, "CHUNK_ROWS", chunk_rows):
            assert _spied(parse_long_dataset, text, "exposed") == (want, False)

    def test_ids_widening_across_blocks(self):
        # each 64-byte block holds a few rows, so the id column widens at s10, s100, s1000, s10000
        rows = [f"s{i},{'EN'[i % 2]},{v},{(i + v) % 2}" for v in (1, 2) for i in range(1, 20001)]
        text = "id,exposure,visit,y\n" + "\n".join(rows) + "\n"
        want = _via_csv(parse_long_dataset, text)
        assert len(want[0]) == 20000
        with mock.patch.object(_plaincsv, "BLOCK_BYTES", 64):
            assert _spied(parse_long_dataset, text) == (want, False)

    @pytest.mark.parametrize("top, visit_type", [(255, np.uint8), (256, np.uint16),
                                                  (65_535, np.uint16), (65_536, np.uint32)])
    def test_visits_widen_across_blocks(self, top, visit_type):
        # 2,000 subjects with visits 1 and 2 fill the first blocks; then u and w have every
        # visit up to top, so the visit column widens in a later block
        rows = [f"s{i},{'EN'[i % 2]},{v},{(i + v) % 2}" for v in (1, 2) for i in range(2000)]
        rows += [f"{sid},{label},{v},{v % 3 % 2}"
                 for v in range(1, top + 1) for sid, label in (("u", "E"), ("w", "N"))]
        text = "id,exposure,visit,y\n" + "\n".join(rows) + "\n"
        want = _via_csv(parse_long_dataset, text)
        assert want[0] == ("u", "w") and want[3] == top
        with mock.patch.object(_plaincsv, "BLOCK_BYTES", 4096):
            assert _plaincsv.read_long(io.BytesIO(text.encode("ascii")).read)[4].dtype == visit_type
            assert _spied(parse_long_dataset, text) == (want, False)

    @pytest.mark.parametrize("chunk_rows", [1, 2, 3, 4, _plaincsv.CHUNK_ROWS])
    def test_odd_row_count(self, chunk_rows):
        # 7 rows: the row order's buffer is trimmed to 4 int64, 7 int32 row numbers and one slot spare
        text = _LONG + "s4,N,2,1\n"
        want = _via_csv(parse_long_dataset, text)
        with mock.patch.object(_plaincsv, "CHUNK_ROWS", chunk_rows):
            assert _spied(parse_long_dataset, text) == (want, False)

    @staticmethod
    def _peak_per_row(call, data: bytes) -> float:
        rows = data.count(b"\n") - 1
        tracemalloc.start()
        try:
            call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak / rows

    def test_read_long_peak_memory_per_row(self):
        # 22.9 bytes per row measured on this 79,696-row file, pinned with a tenth to spare:
        # the id, one byte of label and outcome codes and a uint8 visit are 9 of them
        data = _cohort_texts(20_000)[1].encode("ascii")
        assert self._peak_per_row(lambda: _plaincsv.read_long(io.BytesIO(data).read), data) <= 25.2

    def test_read_wide_peak_memory_per_row(self):
        # 50.0 bytes per row measured on this 20,000-row file, pinned with a tenth to spare:
        # the id, label code and four outcome codes of a row are 12 of them
        data = _cohort_texts(20_000)[0].encode("ascii")
        assert self._peak_per_row(lambda: _plaincsv.read_wide(io.BytesIO(data).read), data) <= 55.1

    def test_parse_long_dataset_peak_memory_per_row(self, tmp_path):
        # 17.5 bytes per row measured on this visit-major 398,478-row file: the peak is the
        # sort's int64 row order beside the 9 bytes per row of the columns
        path = tmp_path / "long.csv"
        path.write_text(_cohort_texts(100_000)[1], encoding="ascii")
        data = path.read_bytes()
        assert self._peak_per_row(lambda: parse_long_dataset(path, "exposed"), data) <= 20.0
        want = _via_csv(parse_long_dataset, path, "exposed")
        assert _spied(parse_long_dataset, path, "exposed") == (want, False)

    @pytest.mark.parametrize("case", list(_DECLINES))
    def test_declines_to_the_csv_reader(self, tmp_path, case):
        parse, text, old, new = _DECLINES[case]
        assert old in text
        text = text.replace(old, new, 1)
        path = tmp_path / "in.csv"
        path.write_bytes(text.encode("utf-8"))
        for source in (path, text):
            assert _spied(parse, source) == (_via_csv(parse, source), True)

    def test_declines_on_invalid_utf8(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_bytes(_LONG.encode("ascii").replace(b"s2", b"s\xff2"))
        got, used_csv = _spied(parse_long_dataset, path)
        assert used_csv and got[0] == "UnicodeDecodeError"
        assert got == _via_csv(parse_long_dataset, path)

    def test_plain_file_errors_left_after_the_rows(self):
        # the exposed value is checked after the rows, on either path
        for parse, text in ((parse_dataset, _WIDE), (parse_long_dataset, _LONG)):
            got, used_csv = _spied(parse, text, "Q")
            assert not used_csv
            assert got == _via_csv(parse, text, "Q") == (
                "ParseError", "exposed value 'Q' not present in exposure column (found: 'E', 'N')", None
            )

    def test_handle_is_read_again_from_where_the_parse_started(self):
        text = _LONG.replace("s2,N,1,0", '"s2",N,1,0')
        handle = io.StringIO("skipped\n" + text)
        handle.readline()
        got, used_csv = _spied(parse_long_dataset, handle)
        assert used_csv and got == _via_csv(parse_long_dataset, text)

    def test_handle_that_cannot_seek_takes_the_csv_reader(self):
        class Pipe(io.StringIO):
            def seekable(self):
                return False

        got, used_csv = _spied(parse_long_dataset, Pipe(_LONG))
        assert used_csv and got == _via_csv(parse_long_dataset, _LONG)


@st.composite
def columnar_datasets(draw):
    n_visits = draw(st.integers(2, 5))
    n = draw(st.integers(0, 40))
    exposed = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    outcomes = draw(st.lists(st.lists(st.integers(0, 1), min_size=n_visits, max_size=n_visits),
                             min_size=n, max_size=n))
    return LongitudinalDataset(
        ids=tuple(f"s{i}" for i in range(n)),
        exposed=np.array(exposed, dtype=bool),
        outcomes=np.array(outcomes, dtype=np.int8).reshape(n, n_visits),
        n_visits=n_visits, dropped_incomplete=0, exposed_label="E", unexposed_label="N",
    )


def _bits(x):
    return struct.pack("<d", x)


class TestColumnarAnalysis:
    @given(columnar_datasets())
    @settings(max_examples=200, deadline=None)
    def test_tables_and_risks_match_loop_oracles(self, ds):
        exposed, outcomes = ds.exposed.tolist(), ds.outcomes.tolist()
        for j in range(2, ds.n_visits + 1):
            for k in range(1, j):
                tables = build_conditional_tables(ds, j, k)
                got = [[t.a, t.b, t.c, t.d] for t in (tables.stratum1, tables.stratum0)]
                assert got == loop_conditional_tables(exposed, outcomes, j, k)
                assert all(type(count) is int for row in got for count in row)
        want = loop_visit_risks(exposed, outcomes, ds.n_visits)
        got = visit_risks(ds)
        assert [(v, _bits(e), _bits(ne)) for v, e, ne in got] == [
            (v, _bits(e), _bits(ne)) for v, e, ne in want
        ]

    def test_columns_are_read_only(self):
        ds = parse_dataset(io.StringIO(WIDE_TEXT), exposed_value="150")
        with pytest.raises(ValueError):
            ds.outcomes[0, 0] = 0
        with pytest.raises(ValueError):
            ds.exposed[0] = False

    def test_subjects_round_trip(self):
        ds = parse_long_dataset(io.StringIO(LONG_TEXT), exposed_value="150")
        subjects = ds.subjects
        assert all(isinstance(s, Subject) for s in subjects)
        again = dataset_from_subjects(subjects, n_visits=ds.n_visits)
        assert again.ids == ds.ids == ("s1", "s2", "s3")
        assert again.exposed.tolist() == ds.exposed.tolist()
        assert again.outcomes.tolist() == ds.outcomes.tolist()
        assert subjects[0] == Subject("s1", True, (1, 0, 1))

    def test_constructor_takes_any_iterable_of_ids_as_a_tuple(self):
        ds = LongitudinalDataset(
            ids=iter(["s1", "s2"]), exposed=[True, False], outcomes=[[0, 1], [1, 1]],
            n_visits=2, dropped_incomplete=0, exposed_label="E", unexposed_label="N",
        )
        assert ds.ids == ("s1", "s2") and ds.n_unexposed == 1

    @pytest.mark.parametrize("outcomes", [np.array([[256, 257]]), np.array([[0.5, 1.9]]), [[256, 257]]],
                             ids=["int array past int8", "float array", "list past int8"])
    def test_constructor_checks_outcomes_before_casting_them(self, outcomes):
        with pytest.raises(ValueError, match="^outcomes must be 0 or 1$"):
            LongitudinalDataset(
                ids=("a",), exposed=[True], outcomes=outcomes,
                n_visits=2, dropped_incomplete=0, exposed_label="E", unexposed_label="N",
            )

    @pytest.mark.parametrize("outcomes", [np.array([[0.0, 1.0]]), np.array([[False, True]]),
                                          np.array([[0, 1]], dtype=np.int8)],
                             ids=["float", "bool", "int8"])
    def test_constructor_stores_a_copy_of_0_1_outcomes_as_int8(self, outcomes):
        ds = LongitudinalDataset(
            ids=("a",), exposed=[True], outcomes=outcomes,
            n_visits=2, dropped_incomplete=0, exposed_label="E", unexposed_label="N",
        )
        assert ds.outcomes.dtype == np.int8 and ds.outcomes.tolist() == [[0, 1]]
        assert not np.shares_memory(ds.outcomes, outcomes)


class TestBuildTables:
    def test_four_subject_example(self):
        subjects = [
            Subject("a", True, (1, 1)),
            Subject("b", True, (0, 1)),
            Subject("c", False, (1, 0)),
            Subject("d", False, (0, 0)),
        ]
        ds = dataset_from_subjects(subjects, n_visits=2)
        tables = build_conditional_tables(ds, 2, 1)
        assert tables.stratum1 == StratumTable(1, 0, 0, 1)
        assert tables.stratum0 == StratumTable(1, 0, 0, 1)

    def test_all_earlier_positive_empties_stratum0(self):
        subjects = [Subject(str(i), i % 2 == 0, (1, i % 3 == 0)) for i in range(6)]
        subjects = [
            Subject(s.id, s.exposed, (1, int(s.outcomes[1]))) for s in subjects
        ]
        ds = dataset_from_subjects(subjects, n_visits=2)
        tables = build_conditional_tables(ds, 2, 1)
        assert tables.stratum0 == StratumTable(0, 0, 0, 0)
        assert tables.n_exposed == 3 and tables.n_unexposed == 3

    def test_pair_validation(self):
        ds = parse_dataset(io.StringIO(WIDE_TEXT), exposed_value="150")
        for j, k in [(1, 1), (2, 2), (1, 2), (4, 1), (2, 0)]:
            with pytest.raises(DomainError):
                build_conditional_tables(ds, j, k)

    def test_count_conservation(self):
        ds = parse_dataset(io.StringIO(WIDE_TEXT), exposed_value="150")
        for j, k in [(2, 1), (3, 1), (3, 2)]:
            tables = build_conditional_tables(ds, j, k)
            assert tables.n_exposed == ds.n_exposed
            assert tables.n_unexposed == ds.n_unexposed

    def test_round_trip_from_simulated_counts(self):
        spec = equal_marginal_spec(350, 364, 0.5, 0.5, 0.5, 0.5, seed=42, reps=1)
        simulated = simulate_cohort(spec, rep=0)
        ds = expand_tables(simulated)
        assert build_conditional_tables(ds, 2, 1) == simulated

    def test_simulated_correlation_near_truth(self):
        # sampling check on the ingest path: with rho = 0.5 and n = 2000
        # per group the empirical phi should sit within 3 standard errors
        # (se ~ (1 - rho^2)/sqrt(n)) of 0.5
        spec = equal_marginal_spec(2000, 2000, 0.5, 0.5, 0.5, 0.5, seed=2024, reps=1)
        ds = expand_tables(simulate_cohort(spec, rep=0))
        rho_e, rho_ne = phi_correlations(build_conditional_tables(ds, 2, 1))
        bound = 3.0 * (1.0 - 0.25) / math.sqrt(2000.0)
        assert abs(rho_e - 0.5) < bound
        assert abs(rho_ne - 0.5) < bound


class TestAnalyze:
    def fixture(self):
        # 16 subjects, 2 visits, chosen so every measure is estimable
        rows = ["id,exposure,y1,y2"]
        pattern = [
            ("150", 1, 1), ("150", 1, 1), ("150", 1, 0), ("150", 0, 1),
            ("150", 0, 0), ("150", 0, 0), ("150", 1, 1), ("150", 0, 1),
            ("100", 1, 1), ("100", 1, 0), ("100", 1, 0), ("100", 0, 0),
            ("100", 0, 1), ("100", 0, 0), ("100", 1, 1), ("100", 0, 0),
        ]
        for i, (arm, y1, y2) in enumerate(pattern):
            rows.append(f"p{i},{arm},{y1},{y2}")
        return parse_dataset(io.StringIO("\n".join(rows) + "\n"), exposed_value="150")

    def test_default_pairs(self):
        assert default_pairs(4) == ((2, 1), (3, 2), (4, 3))
        assert default_pairs(2) == ((2, 1),)
        assert default_pairs(1) == ()

    def test_matches_direct_measure_calls(self):
        ds = self.fixture()
        report = analyze(ds)
        [pair] = report.pairs
        tables = build_conditional_tables(ds, 2, 1)
        assert pair.tables == tables
        assert pair.rr1 == rr1_estimate(tables)
        assert pair.rr0 == rr0_estimate(tables)
        assert (pair.rho_e, pair.rho_ne) == phi_correlations(tables)

    def test_risk_table_consistency(self):
        ds = self.fixture()
        tables = build_conditional_tables(ds, 2, 1)
        [(v1, r1e, r1ne), (v2, r2e, r2ne)] = visit_risks(ds)
        assert (v1, v2) == (1, 2)
        s1, s0 = tables.stratum1, tables.stratum0
        assert r2e == (s1.a + s0.a) / ds.n_exposed
        assert r2ne == (s1.c + s0.c) / ds.n_unexposed
        assert r1e == tables.stratum1.n_exposed / ds.n_exposed
        assert r1ne == tables.stratum1.n_unexposed / ds.n_unexposed

    def test_explicit_pairs_and_level(self):
        ds = parse_dataset(io.StringIO(WIDE_TEXT), exposed_value="150")
        report = analyze(ds, pairs=[(3, 1)], level=0.9)
        assert [(p.j, p.k) for p in report.pairs] == [(3, 1)]
        assert report.level == 0.9
        with pytest.raises(DomainError):
            analyze(ds, level=1.0)
        with pytest.raises(DomainError):
            analyze(ds, pairs=[(5, 1)])

    def test_paper_literal_rho_passthrough(self):
        tables = StratifiedTables(StratumTable(3, 1, 2, 2), StratumTable(2, 4, 1, 2))
        ds = expand_tables(tables)
        corrected = analyze(ds).pairs[0]
        literal = analyze(ds, paper_literal_rho=True).pairs[0]
        assert corrected.rho_ne != literal.rho_ne
        assert literal.rho_ne == phi_correlations(tables, paper_literal=True)[1]
        assert corrected.rho_e == literal.rho_e

    def test_never_any_outcome_is_not_estimable(self):
        text = "id,exposure,y1,y2\n" + "".join(
            f"s{i},{'150' if i % 2 else '100'},0,0\n" for i in range(8)
        )
        ds = parse_dataset(io.StringIO(text), exposed_value="150")
        report = analyze(ds)
        [pair] = report.pairs
        assert pair.rr is None and pair.rr1 is None and pair.rr0 is None
        assert math.isnan(pair.rho_e) and math.isnan(pair.rho_ne)
        zero_count = "zero outcome count (a=0, c=0): estimate or its log undefined"
        zero_margin = "zero margin: within-subject correlation undefined"
        assert pair.reasons == (("rr", zero_count), ("rr1", "empty exposure row in stratum table"),
                                ("rr0", zero_count), ("rho", zero_margin))
        lines = [line for line in format_report(report).splitlines() if "not estimable" in line]
        assert lines == [
            f"  crude risk ratio          : not estimable ({zero_count})",
            "  risk ratio | earlier = yes: not estimable (empty exposure row in stratum table)",
            f"  risk ratio | earlier = no : not estimable ({zero_count})",
            f"  correlation (exposed): not estimable ({zero_margin}), "
            f"correlation (non-exposed): not estimable ({zero_margin})",
        ]


class TestWriters:
    def make_report(self):
        ds = TestAnalyze().fixture()
        return analyze(ds)

    def test_risks_csv(self):
        report = self.make_report()
        buf = io.StringIO()
        write_risks_csv(report, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == f"# condrisk {__version__}"
        assert lines[1] == RISKS_CSV_HEADER
        assert len(lines) == 2 + 2 * report.n_visits
        visit, group, risk = lines[2].split(",")
        assert (visit, group) == ("1", GROUP_EXPOSED)
        assert float(risk) == report.risks[0][1]  # repr round-trips exactly
        assert lines[3].split(",")[1] == GROUP_UNEXPOSED

    def test_measures_csv(self):
        report = self.make_report()
        buf = io.StringIO()
        write_measures_csv(report, buf)
        lines = buf.getvalue().splitlines()
        assert lines[1] == MEASURES_CSV_HEADER
        assert len(lines) == 2 + 3 * len(report.pairs)
        rows = [line.split(",") for line in lines[2:]]
        assert [r[2] for r in rows] == ["rr", "rr1", "rr0"]
        [pair] = report.pairs
        rr1_row = rows[1]
        assert (rr1_row[0], rr1_row[1]) == ("2", "1")
        assert float(rr1_row[3]) == pair.rr1.point
        assert float(rr1_row[4]) == pair.rr1.ci_lower
        assert float(rr1_row[6]) == pair.rho_e

    def test_not_estimable_cells_are_empty(self):
        text = "id,exposure,y1,y2\n" + "".join(
            f"s{i},{'150' if i % 2 else '100'},0,0\n" for i in range(4)
        )
        report = analyze(parse_dataset(io.StringIO(text), exposed_value="150"))
        buf = io.StringIO()
        write_measures_csv(report, buf)
        for line in buf.getvalue().splitlines()[2:]:
            assert line.split(",")[3:] == [""] * 5

    def test_report_text_shape(self):
        report = self.make_report()
        text = format_report(report)
        assert "subjects analyzed: 16" in text
        assert "confidence level: 95%" in text
        assert "Visit pair j=2, k=1" in text
        assert "risk ratio | earlier = yes" in text
        assert all(pair.reasons == () for pair in report.pairs) and "not estimable" not in text
        # risks are percentages to one decimal
        assert f"{100.0 * report.risks[0][1]:.1f}" in text

    def test_write_report_files(self, tmp_path):
        report = self.make_report()
        paths = write_report_files(report, str(tmp_path / "out"))
        assert sorted(paths) == ["measures", "report", "risks"]
        for path in paths.values():
            with open(path, "r", encoding="utf-8") as handle:
                assert handle.read()

    def test_empty_group_risk_is_blank(self):
        text = "id,exposure,y1,y2\nx,150,1,0\ny,150,0,1\n"
        ds = parse_dataset(io.StringIO(text), exposed_value="150")
        report = analyze(ds, pairs=())
        buf = io.StringIO()
        write_risks_csv(report, buf)
        non_exposed_rows = [
            line for line in buf.getvalue().splitlines()[2:]
            if line.split(",")[1] == GROUP_UNEXPOSED
        ]
        assert all(line.endswith(",") for line in non_exposed_rows)
        assert "not estimable" in format_report(report)
