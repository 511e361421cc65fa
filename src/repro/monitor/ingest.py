"""One front door for trace logs: sniff the format, read lazily, write.

The same two record schemas (``dns`` and ``conn``) travel in three
on-disk formats: Zeek TSV (:mod:`repro.monitor.logs`), Zeek
JSON-streaming (:mod:`repro.monitor.json_logs`) and the RBLG binary
columnar format (:mod:`repro.monitor.binlog`). Every command reads
through :func:`open_log` and writes through :func:`save_log`, so the
format is decided in exactly one place. :func:`sniff_log` looks at the
first bytes of the file once:

* an RBLG header gives the format and the record kind;
* a first non-blank ``{`` means JSON;
* anything else is TSV, its kind taken from ``#path`` or the caller.

What each format supports:

======  ======  =================  ====  ======
format  strict  lenient            lazy  follow
======  ======  =================  ====  ======
TSV     yes     quarantines lines  yes   yes
JSON    yes     quarantines lines  yes   yes
RBLG    yes     refused            yes   refused
======  ======  =================  ====  ======

RBLG blocks are checksum-verified, so a corrupt block is a hard decode
error rather than a quarantinable line, and the format has no notion of
a partially appended record to follow.
"""

from __future__ import annotations

from contextlib import closing
from itertools import chain
from typing import Iterable, Iterator

from repro.errors import LogFormatError
from repro.monitor.binlog import (
    iter_binlog_blocks,
    read_binlog_kind,
    save_conn_binlog,
    save_dns_binlog,
)
from repro.monitor.json_logs import (
    conn_record_from_json,
    dns_record_from_json,
    write_conn_json,
    write_dns_json,
)
from repro.monitor.logs import (
    IngestReport,
    QuarantinedLine,
    _parse_lines,
    compile_conn_decoder,
    compile_dns_decoder,
    tail_lines,
    write_conn_log,
    write_dns_log,
)

KINDS = ("dns", "conn")
#: TSV decoders are compiled per ``#fields`` header; JSON lines decode alone.
_TSV_DECODER_COMPILERS = {"dns": compile_dns_decoder, "conn": compile_conn_decoder}
_JSON_DECODERS = {"dns": dns_record_from_json, "conn": conn_record_from_json}
_TEXT_WRITERS = {
    ("tsv", "dns"): write_dns_log,
    ("tsv", "conn"): write_conn_log,
    ("json", "dns"): write_dns_json,
    ("json", "conn"): write_conn_json,
}
_BINLOG_WRITERS = {"dns": save_dns_binlog, "conn": save_conn_binlog}


def _text_format(line: str) -> str:
    """The text format a non-blank first line announces."""
    return "json" if line.lstrip().startswith("{") else "tsv"


def sniff_log(path: str) -> tuple[str | None, str | None]:
    """The ``(format, kind)`` of the log at *path*.

    *format* is ``None`` while the file holds no non-blank line yet; the
    reader then decides from the first line it gets. *kind* is ``None``
    for JSON and for TSV without a ``#path`` header; the caller names it
    then.
    """
    with open(path, "rb") as stream:
        kind = read_binlog_kind(stream)
        if kind is not None:
            return "rblg", kind
        stream.seek(0)
        fmt = None
        for raw in stream:
            line = raw.decode("utf-8", "replace").strip()
            if not line:
                continue
            fmt = _text_format(line)
            if fmt == "json":
                return fmt, None
            if not line.startswith("#"):
                break
            parts = line.split("\t")
            if parts[0] == "#path" and len(parts) > 1 and parts[1] in KINDS:
                kind = parts[1]
    return fmt, kind


def iter_records(
    lines: Iterable[str],
    kind: str,
    fmt: str,
    strict: bool,
    quarantine: list[QuarantinedLine] | None,
) -> Iterator:
    """Parse text log *lines* (TSV or JSON) into records of *kind*.

    The shared text path behind :func:`open_log`, usable on any line
    source (an open file, a list, a live tail). With ``strict=False``
    malformed lines are appended to *quarantine* (when given) instead
    of raising.
    """
    if fmt == "tsv" and kind in _TSV_DECODER_COMPILERS:
        return _parse_lines(
            lines, strict, quarantine, compile_fields=_TSV_DECODER_COMPILERS[kind]
        )
    if fmt == "json" and kind in _JSON_DECODERS:
        return _parse_lines(lines, strict, quarantine, decode=_JSON_DECODERS[kind])
    raise ValueError(f"no text parser for {fmt!r} {kind!r} logs")


class LogReader:
    """An opened trace log: iterate it once for records, then ask
    :meth:`report` what was parsed and quarantined."""

    def __init__(
        self,
        path: str,
        fmt: str | None,
        kind: str,
        strict: bool,
        follow: bool,
        idle_timeout_s: float | None,
    ) -> None:
        self.path = path
        self.fmt = fmt
        self.kind = kind
        self.parsed = 0
        self._strict = strict
        self._follow = follow
        self._idle_timeout_s = idle_timeout_s
        self._quarantine: list[QuarantinedLine] = []

    def __iter__(self) -> Iterator:
        if self.fmt == "rblg":
            for block in iter_binlog_blocks(self.path, self.kind):
                self.parsed += len(block)
                yield from block
            return
        if self._follow:
            source = tail_lines(self.path, idle_timeout_s=self._idle_timeout_s)
        else:
            source = open(self.path, "r", encoding="utf-8")
        with closing(source):
            lines: Iterable[str] = source
            if self.fmt is None:
                lines = self._decide_format(source)
            for record in iter_records(
                lines, self.kind, self.fmt, self._strict, self._quarantine
            ):
                self.parsed += 1
                yield record

    def _decide_format(self, lines: Iterator[str]) -> Iterator[str]:
        """Set :attr:`fmt` from the first non-blank line of *lines* (a
        file that was missing or empty when opened) and hand every line
        on, that one included. A source that ends blank reads as TSV."""
        head = []
        for line in lines:
            head.append(line)
            if line.strip():
                self.fmt = _text_format(line)
                break
        else:
            self.fmt = "tsv"
        return chain(head, lines)

    def report(self) -> IngestReport:
        """What the read so far parsed and quarantined."""
        return IngestReport(
            path_label=self.kind, parsed=self.parsed, quarantined=tuple(self._quarantine)
        )


def open_log(
    path: str,
    kind: str,
    strict: bool = True,
    follow: bool = False,
    idle_timeout_s: float | None = None,
) -> LogReader:
    """Open the trace log of *kind* records at *path* in whichever
    format it is written.

    The format is sniffed here, once. For TSV and JSON, ``strict=False``
    quarantines malformed lines into :meth:`LogReader.report` and
    ``follow`` tails a growing file across rotation and truncation. A
    followed file that does not exist yet, or holds no line yet, takes
    its format from the first line that lands. RBLG refuses both.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown record kind {kind!r}; expected dns or conn")
    try:
        fmt = sniff_log(path)[0]
    except FileNotFoundError:
        if not follow:
            raise
        fmt = None
    if fmt == "rblg":
        if follow:
            raise LogFormatError("--follow supports TSV logs only, not RBLG binlogs")
        if not strict:
            raise LogFormatError(
                "--lenient applies to TSV logs; RBLG binlogs are "
                "checksum-verified per block instead"
            )
    # An RBLG decoder checks its header kind against the one asked for.
    return LogReader(path, fmt, kind, strict, follow, idle_timeout_s)


def save_log(path: str, kind: str, fmt: str, records: Iterable) -> int:
    """Write *records* of *kind* to *path* in *fmt*; returns the count.

    RBLG files are written atomically (see :mod:`repro.monitor.binlog`);
    TSV and JSON stream line by line.
    """
    if fmt == "rblg" and kind in _BINLOG_WRITERS:
        return _BINLOG_WRITERS[kind](path, records)
    write = _TEXT_WRITERS.get((fmt, kind))
    if write is None:
        raise ValueError(f"cannot write {fmt!r} {kind!r} logs")
    with open(path, "w", encoding="utf-8") as stream:
        return write(stream, records)
