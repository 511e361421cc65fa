"""Passive monitor substrate: Zeek-style records, logs, capture, pcap ingest."""

from repro.monitor.binlog import (
    iter_conn_binlog,
    iter_dns_binlog,
    load_conn_binlog,
    load_dns_binlog,
    save_conn_binlog,
    save_dns_binlog,
    sniff_binlog,
)
from repro.monitor.capture import MonitorCapture, Trace, merge_traces
from repro.monitor.logs import (
    load_conn_log,
    load_dns_log,
    read_conn_log,
    read_dns_log,
    save_conn_log,
    save_dns_log,
    write_conn_log,
    write_dns_log,
)
from repro.monitor.ingest import LogReader, open_log, save_log, sniff_log
from repro.monitor.json_logs import write_conn_json, write_dns_json
from repro.monitor.pcap_ingest import PcapIngest, trace_from_pcap
from repro.monitor.records import (
    ConnRecord,
    DnsAnswer,
    DnsRecord,
    GroundTruth,
    Proto,
    TruthClass,
)

__all__ = [
    "ConnRecord",
    "DnsAnswer",
    "DnsRecord",
    "GroundTruth",
    "LogReader",
    "MonitorCapture",
    "PcapIngest",
    "Proto",
    "Trace",
    "TruthClass",
    "iter_conn_binlog",
    "iter_dns_binlog",
    "load_conn_binlog",
    "load_conn_log",
    "load_dns_binlog",
    "load_dns_log",
    "merge_traces",
    "open_log",
    "read_conn_log",
    "read_dns_log",
    "save_conn_binlog",
    "save_log",
    "save_conn_log",
    "save_dns_binlog",
    "save_dns_log",
    "sniff_binlog",
    "sniff_log",
    "trace_from_pcap",
    "write_conn_json",
    "write_conn_log",
    "write_dns_json",
    "write_dns_log",
]
