"""RBLG binary trace format: round-trips, corruption, conversion.

The format's contract is exactness — `record -> binlog -> record` is
the identity, and `TSV -> binlog -> TSV` is byte-identical — plus loud
failure on anything torn or mislabelled. Property tests drive the
field domains (unicode strings, boundary ports, u64 byte counts);
directed tests pin the failure modes (bad magic, checksum mismatch,
truncation, kind confusion) and the lenient conversion path, which
runs through the :mod:`repro.monitor.ingest` front door.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.errors import LogFormatError
from repro.monitor.binlog import (
    BINLOG_MAGIC,
    CONN_KIND,
    DNS_KIND,
    encode_conn_binlog,
    encode_dns_binlog,
    iter_conn_binlog,
    iter_dns_binlog,
    load_conn_binlog,
    load_dns_binlog,
    read_conn_binlog,
    read_dns_binlog,
    save_conn_binlog,
    save_dns_binlog,
    sniff_binlog,
)
from repro.monitor.ingest import open_log, save_log, sniff_log
from repro.monitor.logs import save_conn_log, save_dns_log
from repro.monitor.records import ConnRecord, DnsAnswer, DnsRecord, Proto

from .strategies import full_conn_records, full_dns_records


def _dns(ts: float = 1.0, uid: str = "D0", **overrides) -> DnsRecord:
    fields = dict(
        ts=ts,
        uid=uid,
        orig_h="10.0.0.1",
        orig_p=40000,
        resp_h="8.8.8.8",
        resp_p=53,
        query="example.com",
        answers=(DnsAnswer(data="93.184.216.34", ttl=300.0),),
    )
    fields.update(overrides)
    return DnsRecord(**fields)


def _conn(ts: float = 2.0, uid: str = "C0", **overrides) -> ConnRecord:
    fields = dict(
        ts=ts,
        uid=uid,
        orig_h="10.0.0.1",
        orig_p=50000,
        resp_h="93.184.216.34",
        resp_p=443,
        proto=Proto.TCP,
        duration=1.5,
        orig_bytes=1200,
        resp_bytes=48000,
        service="tls",
    )
    fields.update(overrides)
    return ConnRecord(**fields)


class TestRecordRoundTrip:
    @settings(max_examples=50, deadline=None)
    @given(records=full_dns_records())
    def test_dns_records_round_trip_exactly(self, records):
        assert read_dns_binlog(encode_dns_binlog(records)) == records

    @settings(max_examples=50, deadline=None)
    @given(records=full_conn_records())
    def test_conn_records_round_trip_exactly(self, records):
        assert read_conn_binlog(encode_conn_binlog(records)) == records

    @settings(max_examples=20, deadline=None)
    @given(records=full_dns_records(min_size=1))
    def test_small_blocks_round_trip(self, records):
        payload = encode_dns_binlog(records, block_records=2)
        assert read_dns_binlog(payload) == records

    def test_empty_logs_round_trip(self):
        assert read_dns_binlog(encode_dns_binlog([])) == []
        assert read_conn_binlog(encode_conn_binlog([])) == []

    def test_empty_strings_round_trip(self):
        # The TSV format aliases "" to "(empty)"; the binary dictionary
        # must not — emptiness survives.
        record = _dns(query="", qtype="", rcode="")
        assert read_dns_binlog(encode_dns_binlog([record])) == [record]

    def test_tsv_marker_strings_round_trip(self):
        # Strings spelling TSV's sentinels ("-" for unset, "(empty)"
        # for "") alias on a TSV read; the binary format stores them
        # verbatim.
        record = _conn(service="-", conn_state="(empty)")
        assert read_conn_binlog(encode_conn_binlog([record])) == [record]

    def test_extreme_values_round_trip(self):
        dns = _dns(
            orig_p=0,
            resp_p=65535,
            query="ümläut.例.example",
            answers=(DnsAnswer(data="x" * 300, ttl=0.1234567890123),),
        )
        conn = _conn(orig_bytes=(1 << 64) - 1, resp_bytes=0, proto=Proto.UDP)
        assert read_dns_binlog(encode_dns_binlog([dns])) == [dns]
        assert read_conn_binlog(encode_conn_binlog([conn])) == [conn]

    def test_out_of_range_port_rejected(self):
        with pytest.raises(LogFormatError, match="port out of u16 range"):
            encode_dns_binlog([_dns(orig_p=70000)])

    def test_negative_rtt_rejected_at_decode(self):
        # Records are plain NamedTuples, so a hostile value can be
        # *encoded*; the decode boundary is where it must be caught.
        payload = encode_dns_binlog([_dns(rtt=-1.0)])
        with pytest.raises(LogFormatError, match="rtt cannot be negative"):
            read_dns_binlog(payload)

    def test_negative_duration_rejected_at_decode(self):
        payload = encode_conn_binlog([_conn(duration=-2.0)])
        with pytest.raises(LogFormatError, match="duration cannot be negative"):
            read_conn_binlog(payload)


class TestFilesAndIterators:
    def test_save_load_and_iter_agree(self, tmp_path):
        records = [_dns(ts=float(i), uid=f"D{i}") for i in range(10)]
        path = str(tmp_path / "dns.rblg")
        assert save_dns_binlog(path, records, block_records=3) == 10
        assert load_dns_binlog(path) == records
        assert list(iter_dns_binlog(path)) == records

    def test_conn_save_load_and_iter_agree(self, tmp_path):
        records = [_conn(ts=float(i), uid=f"C{i}") for i in range(7)]
        path = str(tmp_path / "conn.rblg")
        assert save_conn_binlog(path, records, block_records=2) == 7
        assert load_conn_binlog(path) == records
        assert list(iter_conn_binlog(path)) == records

    def test_sniffing(self, tmp_path):
        dns_path = str(tmp_path / "dns.rblg")
        conn_path = str(tmp_path / "conn.rblg")
        tsv_path = str(tmp_path / "dns.log")
        json_path = str(tmp_path / "conn.json")
        save_dns_binlog(dns_path, [_dns()])
        save_conn_binlog(conn_path, [_conn()])
        save_dns_log(tsv_path, [_dns()])
        save_log(json_path, "conn", "json", [_conn()])
        assert sniff_binlog(dns_path) == DNS_KIND
        assert sniff_binlog(conn_path) == CONN_KIND
        assert sniff_binlog(tsv_path) is None
        assert sniff_binlog(json_path) is None
        assert sniff_binlog(str(tmp_path / "missing.rblg")) is None
        assert sniff_log(dns_path) == ("rblg", "dns")
        assert sniff_log(conn_path) == ("rblg", "conn")
        assert sniff_log(tsv_path) == ("tsv", "dns")
        assert sniff_log(json_path) == ("json", None)
        # One front door reads all three formats to the same records.
        assert list(open_log(json_path, "conn")) == [_conn()]
        assert list(open_log(conn_path, "conn")) == [_conn()]
        assert list(open_log(tsv_path, "dns")) == list(open_log(dns_path, "dns"))
        empty_path = tmp_path / "empty.log"
        empty_path.write_text("\n")
        assert sniff_log(str(empty_path)) == (None, None)
        assert list(open_log(str(empty_path), "dns")) == []


class TestCorruption:
    def test_bad_magic_rejected(self):
        with pytest.raises(LogFormatError, match="bad magic"):
            read_dns_binlog(b"NOPE" + bytes(12))

    def test_short_header_rejected(self):
        with pytest.raises(LogFormatError, match="shorter than its file header"):
            read_dns_binlog(BINLOG_MAGIC)

    def test_kind_mismatch_rejected(self):
        payload = encode_conn_binlog([_conn()])
        with pytest.raises(LogFormatError, match="holds conn records, expected dns"):
            read_dns_binlog(payload)

    def test_flipped_payload_byte_fails_checksum(self):
        payload = bytearray(encode_dns_binlog([_dns()]))
        payload[-1] ^= 0xFF
        with pytest.raises(LogFormatError, match="checksum mismatch"):
            read_dns_binlog(bytes(payload))

    def test_truncated_block_rejected(self):
        payload = encode_dns_binlog([_dns(uid=f"D{i}") for i in range(5)])
        with pytest.raises(LogFormatError, match="truncated"):
            read_dns_binlog(payload[:-10])


def _convert(src: str, dst: str, kind: str, fmt: str, lenient: bool = False):
    """What ``repro-dns convert`` does: read any format, write *fmt*."""
    log = open_log(src, kind, strict=not lenient)
    return save_log(dst, kind, fmt, log), log.report()


class TestTsvConverters:
    @settings(max_examples=25, deadline=None)
    @given(records=full_dns_records())
    def test_dns_tsv_binlog_tsv_is_byte_identical(self, records):
        import tempfile
        import os

        with tempfile.TemporaryDirectory() as tmp:
            first = os.path.join(tmp, "dns.log")
            binary = os.path.join(tmp, "dns.rblg")
            second = os.path.join(tmp, "dns2.log")
            save_dns_log(first, records)
            total, report = _convert(first, binary, "dns", "rblg")
            assert total == len(records)
            assert report.ok and report.parsed == total
            assert _convert(binary, second, "dns", "tsv")[0] == len(records)
            with open(first, "rb") as a, open(second, "rb") as b:
                assert a.read() == b.read()

    @settings(max_examples=25, deadline=None)
    @given(records=full_conn_records())
    def test_conn_tsv_binlog_tsv_is_byte_identical(self, records):
        import tempfile
        import os

        with tempfile.TemporaryDirectory() as tmp:
            first = os.path.join(tmp, "conn.log")
            binary = os.path.join(tmp, "conn.rblg")
            second = os.path.join(tmp, "conn2.log")
            save_conn_log(first, records)
            total, report = _convert(first, binary, "conn", "rblg")
            assert total == len(records)
            assert report.ok and report.parsed == total
            assert _convert(binary, second, "conn", "tsv")[0] == len(records)
            with open(first, "rb") as a, open(second, "rb") as b:
                assert a.read() == b.read()

    def test_strict_conversion_raises_on_garbage_row(self, tmp_path):
        src = tmp_path / "dns.log"
        save_dns_log(str(src), [_dns()])
        with open(src, "a", encoding="utf-8") as stream:
            stream.write("not\ta\tvalid\trow\n")
        with pytest.raises(LogFormatError):
            _convert(str(src), str(tmp_path / "dns.rblg"), "dns", "rblg")

    def test_lenient_conversion_quarantines_garbage_row(self, tmp_path):
        src = tmp_path / "dns.log"
        save_dns_log(str(src), [_dns(), _dns(ts=2.0, uid="D1")])
        with open(src, "a", encoding="utf-8") as stream:
            stream.write("not\ta\tvalid\trow\n")
        dst = str(tmp_path / "dns.rblg")
        total, report = _convert(str(src), dst, "dns", "rblg", lenient=True)
        assert total == 2
        assert report.parsed == 2
        assert len(report.quarantined) == 1
        assert len(load_dns_binlog(dst)) == 2

    @pytest.mark.parametrize("kind", ["dns", "conn"])
    def test_cli_convert_json_to_binlog_to_tsv(self, tmp_path, capsys, kind):
        from repro.cli import main

        records = (
            [_dns(ts=float(i), uid=f"D{i}") for i in range(5)]
            if kind == "dns"
            else [_conn(ts=float(i), uid=f"C{i}") for i in range(5)]
        )
        source = str(tmp_path / f"{kind}.json")
        binary = str(tmp_path / f"{kind}.rblg")
        text = str(tmp_path / f"{kind}.log")
        expected = str(tmp_path / f"{kind}.expected.log")
        save_log(source, kind, "json", records)
        assert main(["convert", "--kind", kind, source, binary]) == 0
        assert main(["convert", binary, text]) == 0
        assert f"({len(records)} {kind} records, TSV)" in capsys.readouterr().out
        save_log(expected, kind, "tsv", records)
        with open(text, "rb") as converted, open(expected, "rb") as reference:
            assert converted.read() == reference.read()
