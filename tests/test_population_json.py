"""Tests for repro.core.population and the JSON-streaming log format."""

import io

import pytest

from repro.core.population import characterize, popularity_skew
from repro.errors import AnalysisError, LogFormatError
from repro.monitor.capture import Trace
from repro.monitor.ingest import iter_records
from repro.monitor.json_logs import write_conn_json, write_dns_json
from repro.monitor.records import ConnRecord, DnsAnswer, DnsRecord, Proto
from repro.workload.scenario import smoke_scenario


def read_dns_json(stream):
    return list(iter_records(stream, "dns", "json", True, None))


def read_conn_json(stream):
    return list(iter_records(stream, "conn", "json", True, None))


def dns(uid, ts, query, house="10.77.0.10", ttl=300.0):
    return DnsRecord(
        ts=ts, uid=uid, orig_h=house, orig_p=40000, resp_h="8.8.8.8", resp_p=53,
        query=query, rtt=0.01, answers=(DnsAnswer("1.2.3.4", ttl, "A"),),
    )


def conn(uid, ts, house="10.77.0.10", proto=Proto.TCP):
    return ConnRecord(
        ts=ts, uid=uid, orig_h=house, orig_p=50000, resp_h="1.2.3.4", resp_p=443,
        proto=proto, duration=1.0, orig_bytes=100, resp_bytes=900,
    )


class TestCharacterize:
    def _trace(self):
        trace = Trace(
            dns=[
                dns("D1", 1.0, "a.example.com"),
                dns("D2", 2.0, "a.example.com", house="10.77.0.11"),
                dns("D3", 3.0, "b.example.com", ttl=60.0),
            ],
            conns=[
                conn("C1", 1.5),
                conn("C2", 2.5, house="10.77.0.11"),
                conn("C3", 3.5, proto=Proto.UDP),
            ],
            duration=100.0,
            houses=2,
        )
        return trace

    def test_counts(self):
        stats = characterize(self._trace())
        assert stats.houses == 2
        assert stats.conns == 3
        assert stats.dns_transactions == 3
        assert stats.distinct_names == 2

    def test_protocol_mix(self):
        stats = characterize(self._trace())
        assert stats.tcp_fraction == pytest.approx(2 / 3)
        assert stats.udp_fraction == pytest.approx(1 / 3)

    def test_per_house(self):
        stats = characterize(self._trace())
        by_house = {activity.house: activity for activity in stats.per_house}
        assert by_house["10.77.0.10"].conns == 2
        assert by_house["10.77.0.10"].lookups == 2
        assert by_house["10.77.0.11"].bytes_total == 1000

    def test_top_queries(self):
        stats = characterize(self._trace())
        assert stats.top_queries[0] == ("a.example.com", 2)

    def test_ttl_quantiles(self):
        stats = characterize(self._trace())
        assert stats.ttl_quantiles["p10"] <= stats.ttl_quantiles["p50"] <= stats.ttl_quantiles["p90"]

    def test_summary_renders(self):
        text = characterize(self._trace()).summary()
        assert "3 DNS transactions" in text
        assert "2 houses" in text

    def test_empty_trace_rejected(self):
        with pytest.raises(AnalysisError):
            characterize(Trace())

    def test_synthetic_trace_is_zipf_like(self):
        from repro.workload.generate import generate_trace

        trace = generate_trace(smoke_scenario(seed=31))
        skew = popularity_skew(trace)
        # Top 10% of names should carry far more than a uniform 10%.
        assert skew > 0.25

    def test_popularity_requires_dns(self):
        with pytest.raises(AnalysisError):
            popularity_skew(Trace())


class TestJsonLogs:
    def test_dns_roundtrip(self):
        records = [dns("D1", 1.0, "x.example.com"), dns("D2", 2.0, "y.example.com")]
        buffer = io.StringIO()
        assert write_dns_json(buffer, records) == 2
        buffer.seek(0)
        loaded = read_dns_json(buffer)
        assert loaded[0].query == "x.example.com"
        assert loaded[0].addresses() == ("1.2.3.4",)
        assert loaded[0].rtt == pytest.approx(0.01)

    def test_conn_roundtrip(self):
        records = [conn("C1", 1.0), conn("C2", 2.0, proto=Proto.UDP)]
        buffer = io.StringIO()
        assert write_conn_json(buffer, records) == 2
        buffer.seek(0)
        loaded = read_conn_json(buffer)
        assert loaded[0].uid == "C1"
        assert loaded[1].proto == Proto.UDP

    def test_blank_lines_skipped(self):
        buffer = io.StringIO()
        write_conn_json(buffer, [conn("C1", 1.0)])
        text = "\n" + buffer.getvalue() + "\n  \n\n"
        assert len(read_conn_json(io.StringIO(text))) == 1

    def test_invalid_json_rejected(self):
        with pytest.raises(LogFormatError):
            read_conn_json(io.StringIO("{not json}\n"))

    def test_non_object_rejected(self):
        with pytest.raises(LogFormatError):
            read_conn_json(io.StringIO("[1, 2, 3]\n"))

    def test_missing_field_rejected(self):
        with pytest.raises(LogFormatError):
            read_conn_json(io.StringIO('{"ts": 1.0}\n'))

    def test_ttl_mismatch_rejected(self):
        line = (
            '{"ts":1.0,"uid":"D1","id.orig_h":"10.0.0.1","id.orig_p":1,'
            '"id.resp_h":"8.8.8.8","query":"q.com",'
            '"answers":["1.2.3.4","5.6.7.8"],"TTLs":[60.0]}'
        )
        with pytest.raises(LogFormatError):
            read_dns_json(io.StringIO(line + "\n"))

    @pytest.mark.parametrize(
        "vector", ['"answers":5', '"TTLs":5', '"answer_types":{"0":"A"}']
    )
    def test_non_list_answer_vector_rejected_and_quarantined(self, vector):
        line = (
            '{"ts":1.0,"uid":"D1","id.orig_h":"10.0.0.1","id.orig_p":1,'
            '"id.resp_h":"8.8.8.8","query":"q.com","answers":["1.2.3.4"],'
            + vector
            + "}"
        )
        with pytest.raises(LogFormatError, match="must be a list"):
            read_dns_json(io.StringIO(line + "\n"))
        quarantine = []
        lines = [line + "\n"]
        assert list(iter_records(lines, "dns", "json", False, quarantine)) == []
        assert len(quarantine) == 1

    def test_defaults_applied(self):
        line = (
            '{"ts":1.0,"uid":"D1","id.orig_h":"10.0.0.1","id.orig_p":1,'
            '"id.resp_h":"8.8.8.8","query":"q.com"}'
        )
        loaded = read_dns_json(io.StringIO(line + "\n"))
        assert loaded[0].resp_p == 53
        assert loaded[0].qtype == "A"
        assert loaded[0].answers == ()

    def test_json_tsv_equivalence(self):
        """Both formats carry the same analysis-relevant content."""
        from repro.monitor.logs import read_dns_log, write_dns_log

        records = [dns("D1", 1.0, "x.example.com")]
        tsv_buffer = io.StringIO()
        write_dns_log(tsv_buffer, records)
        tsv_buffer.seek(0)
        json_buffer = io.StringIO()
        write_dns_json(json_buffer, records)
        json_buffer.seek(0)
        from_tsv = read_dns_log(tsv_buffer)[0]
        from_json = read_dns_json(json_buffer)[0]
        assert from_tsv.query == from_json.query
        assert from_tsv.addresses() == from_json.addresses()
        assert from_tsv.completed_at == pytest.approx(from_json.completed_at)
