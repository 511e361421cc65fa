"""The compiled TSV row decoders against a per-field reference parser.

``compile_dns_decoder``/``compile_conn_decoder`` resolve a ``#fields``
header's column positions once and decode each line with one split and
one pick. The reference below looks every field up by name on every
line, the straightforward reading of the format; both must agree on
every header layout and report malformed lines with the same reasons.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LogFormatError
from repro.monitor.ingest import iter_records
from repro.monitor.logs import (
    CONN_FIELDS,
    DNS_FIELDS,
    conn_record_to_line,
    dns_record_to_line,
)
from repro.monitor.records import ConnRecord, DnsAnswer, DnsRecord, Proto

from .strategies import full_conn_records, full_dns_records


# -- the per-field reference parser ------------------------------------------


def _field(columns, index_by_name, name):
    index = index_by_name.get(name)
    if index is None or index >= len(columns):
        raise LogFormatError(f"missing field {name!r}")
    return columns[index]


def _vector(text):
    return [] if text in ("-", "") else text.split(",")


def reference_dns(line, index_by_name):
    columns = line.split("\t")
    data = _vector(_field(columns, index_by_name, "answers"))
    ttls = _vector(_field(columns, index_by_name, "TTLs"))
    types = _vector(
        _field(columns, index_by_name, "answer_types") if "answer_types" in index_by_name else "-"
    )
    answers = tuple(
        DnsAnswer(data, float(ttls[i]) if ttls else 0.0, types[i] if i < len(types) else "A")
        for i, data in enumerate(data)
    )
    rtt_text = _field(columns, index_by_name, "rtt")
    return DnsRecord(
        ts=float(_field(columns, index_by_name, "ts")),
        uid=_field(columns, index_by_name, "uid"),
        orig_h=_field(columns, index_by_name, "id.orig_h"),
        orig_p=int(_field(columns, index_by_name, "id.orig_p")),
        resp_h=_field(columns, index_by_name, "id.resp_h"),
        resp_p=int(_field(columns, index_by_name, "id.resp_p")),
        proto=Proto.parse(_field(columns, index_by_name, "proto")),
        query=_field(columns, index_by_name, "query"),
        qtype=_field(columns, index_by_name, "qtype_name"),
        rcode=_field(columns, index_by_name, "rcode_name"),
        rtt=0.0 if rtt_text == "-" else float(rtt_text),
        answers=answers,
    )


def reference_conn(line, index_by_name):
    columns = line.split("\t")
    duration_text = _field(columns, index_by_name, "duration")
    return ConnRecord(
        ts=float(_field(columns, index_by_name, "ts")),
        uid=_field(columns, index_by_name, "uid"),
        orig_h=_field(columns, index_by_name, "id.orig_h"),
        orig_p=int(_field(columns, index_by_name, "id.orig_p")),
        resp_h=_field(columns, index_by_name, "id.resp_h"),
        resp_p=int(_field(columns, index_by_name, "id.resp_p")),
        proto=Proto.parse(_field(columns, index_by_name, "proto")),
        service=_field(columns, index_by_name, "service"),
        duration=0.0 if duration_text == "-" else float(duration_text),
        orig_bytes=int(_field(columns, index_by_name, "orig_bytes")),
        resp_bytes=int(_field(columns, index_by_name, "resp_bytes")),
        conn_state=_field(columns, index_by_name, "conn_state"),
    )


# -- writing logs in other column layouts -------------------------------------


def relayout(lines, fields, layout):
    """*lines* (written in *fields* order) rewritten in *layout* order.

    Columns of *layout* that *fields* does not name are extra columns;
    each gets a constant value the decoders must ignore.
    """
    rows = []
    for line in lines:
        value_of = dict(zip(fields, line.split("\t")))
        rows.append("\t".join(value_of.get(name, f"x-{name}") for name in layout))
    return ["#fields\t" + "\t".join(layout), *rows]


layouts = st.tuples(
    st.randoms(use_true_random=False), st.integers(min_value=0, max_value=3)
)


def shuffled_layout(fields, rng, extras):
    """*fields* shuffled, with *extras* unknown columns mixed in. An
    extra column always leads, so no line starts with a text field that
    could spell a ``#`` comment."""
    layout = list(fields) + [f"extra{i}" for i in range(extras)]
    rng.shuffle(layout)
    return ["lead", *layout]


def decode_all(lines, kind, strict=True):
    quarantine = []
    records = list(iter_records([line + "\n" for line in lines], kind, "tsv", strict, quarantine))
    return records, quarantine


def index_of(header_line):
    return {name: index for index, name in enumerate(header_line.split("\t")[1:])}


class TestMatchesReference:
    @settings(max_examples=60, deadline=None)
    @given(records=full_dns_records(min_size=1), layout=layouts)
    def test_dns_any_layout(self, records, layout):
        rng, extras = layout
        fields = shuffled_layout(DNS_FIELDS, rng, extras)
        lines = relayout([dns_record_to_line(r) for r in records], DNS_FIELDS, fields)
        decoded, quarantine = decode_all(lines, "dns")
        index = index_of(lines[0])
        assert decoded == [reference_dns(line, index) for line in lines[1:]]
        assert not quarantine
        # The layout does not matter: the standard layout decodes alike.
        assert decoded == decode_all(
            relayout([dns_record_to_line(r) for r in records], DNS_FIELDS, DNS_FIELDS), "dns"
        )[0]

    @settings(max_examples=60, deadline=None)
    @given(records=full_conn_records(min_size=1), layout=layouts)
    def test_conn_any_layout(self, records, layout):
        rng, extras = layout
        fields = shuffled_layout(CONN_FIELDS, rng, extras)
        lines = relayout([conn_record_to_line(r) for r in records], CONN_FIELDS, fields)
        decoded, quarantine = decode_all(lines, "conn")
        index = index_of(lines[0])
        assert decoded == [reference_conn(line, index) for line in lines[1:]]
        assert not quarantine

    @settings(max_examples=30, deadline=None)
    @given(
        first=full_dns_records(min_size=1, max_size=5),
        second=full_dns_records(min_size=1, max_size=5),
        rng=st.randoms(use_true_random=False),
    )
    def test_fields_header_change_mid_stream(self, first, second, rng):
        # A rotated log re-sends its header, possibly in another layout;
        # the lines after it decode under the new one.
        layout = shuffled_layout(DNS_FIELDS, rng, 1)
        head = relayout([dns_record_to_line(r) for r in first], DNS_FIELDS, DNS_FIELDS)
        tail = relayout([dns_record_to_line(r) for r in second], DNS_FIELDS, layout)
        decoded, _ = decode_all(["#path\tdns", *head, "#close\tx", *tail], "dns")
        expected = [reference_dns(line, index_of(head[0])) for line in head[1:]]
        expected += [reference_dns(line, index_of(tail[0])) for line in tail[1:]]
        assert decoded == expected

    @settings(max_examples=30, deadline=None)
    @given(records=full_dns_records(min_size=1))
    def test_logs_without_answer_types(self, records):
        fields = [name for name in DNS_FIELDS if name != "answer_types"]
        lines = relayout([dns_record_to_line(r) for r in records], DNS_FIELDS, fields)
        decoded, _ = decode_all(lines, "dns")
        assert decoded == [reference_dns(line, index_of(lines[0])) for line in lines[1:]]
        assert all(answer.rtype == "A" for record in decoded for answer in record.answers)

    def test_upper_case_proto_still_parses(self):
        line = dns_record_to_line(
            DnsRecord(ts=1.0, uid="D1", orig_h="h", orig_p=1, resp_h="r", resp_p=53, query="q")
        ).replace("\tudp\t", "\tUDP\t")
        (decoded,) = decode_all(relayout([line], DNS_FIELDS, DNS_FIELDS), "dns")[0]
        assert decoded.proto is Proto.UDP


# -- validation at the boundary -----------------------------------------------

_DNS_LINE = dns_record_to_line(
    DnsRecord(
        ts=1.0,
        uid="D1",
        orig_h="10.0.0.1",
        orig_p=1,
        resp_h="8.8.8.8",
        resp_p=53,
        query="q.example",
        rtt=0.5,
        answers=(DnsAnswer("1.2.3.4", 60.0, "A"),),
    )
)
_CONN_LINE = conn_record_to_line(
    ConnRecord(
        ts=2.0,
        uid="C1",
        orig_h="10.0.0.1",
        orig_p=40000,
        resp_h="1.2.3.4",
        resp_p=443,
        proto=Proto.TCP,
        duration=1.0,
        orig_bytes=10,
        resp_bytes=20,
    )
)


def _swap(line, fields, name, value):
    columns = line.split("\t")
    columns[fields.index(name)] = value
    return "\t".join(columns)


_HEADER = {"dns": "#fields\t" + "\t".join(DNS_FIELDS), "conn": "#fields\t" + "\t".join(CONN_FIELDS)}

#: (kind, header, data line, the bare reason the line is refused with).
_FAILURES = [
    pytest.param(
        "dns",
        "#fields\t" + "\t".join(name for name in DNS_FIELDS if name != "query"),
        _DNS_LINE,
        "missing field 'query'",
        id="header-lacks-column",
    ),
    pytest.param(
        "dns", _HEADER["dns"], "\t".join(_DNS_LINE.split("\t")[:12]), "missing field 'TTLs'",
        id="dns-short-line",
    ),
    pytest.param(
        "conn", _HEADER["conn"], "\t".join(_CONN_LINE.split("\t")[:5]),
        "missing field 'duration'", id="conn-short-line",
    ),
    pytest.param(
        "dns", _HEADER["dns"], _swap(_DNS_LINE, DNS_FIELDS, "TTLs", "60.0,30.0"),
        "1 answers but 2 TTLs", id="answers-ttls-mismatch",
    ),
    pytest.param(
        "dns", _HEADER["dns"], _swap(_DNS_LINE, DNS_FIELDS, "rtt", "-0.5"),
        "rtt cannot be negative: -0.5", id="negative-rtt",
    ),
    pytest.param(
        "conn", _HEADER["conn"], _swap(_CONN_LINE, CONN_FIELDS, "duration", "-1.0"),
        "duration cannot be negative: -1.0", id="negative-duration",
    ),
    pytest.param(
        "conn", _HEADER["conn"], _swap(_CONN_LINE, CONN_FIELDS, "resp_bytes", "-3"),
        "byte counts cannot be negative", id="negative-bytes",
    ),
    pytest.param(
        "conn", _HEADER["conn"], _swap(_CONN_LINE, CONN_FIELDS, "proto", "sctp"),
        "unknown protocol 'sctp'", id="unknown-proto",
    ),
    pytest.param(
        "dns", _HEADER["dns"], _swap(_DNS_LINE, DNS_FIELDS, "ts", "soon"),
        "could not convert string to float: 'soon'", id="unparsable-number",
    ),
    pytest.param("dns", "", _DNS_LINE, "data before #fields header", id="no-header"),
]


class TestValidation:
    @pytest.mark.parametrize("kind, header, line, reason", _FAILURES)
    def test_strict_message_and_quarantine_reason(self, kind, header, line, reason):
        lines = ["#path\t" + kind, header, line] if header else [line]
        number = len(lines)
        with pytest.raises(LogFormatError) as caught:
            decode_all(lines, kind)
        assert str(caught.value) == f"line {number}: {reason}"
        records, quarantine = decode_all(lines, kind, strict=False)
        assert records == []
        assert [(q.line_number, q.reason, q.text) for q in quarantine] == [(number, reason, line)]
