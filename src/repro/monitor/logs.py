"""Zeek-style TSV log serialization.

The on-disk format follows Zeek's ASCII logs closely enough to feel
familiar: ``#fields`` / ``#types`` header lines, tab-separated values,
``-`` for unset fields, and comma-separated vectors. Readers accept any
field order and ignore unknown fields, so logs written by other tools
(or future versions) still load.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from itertools import repeat
from operator import itemgetter
from typing import IO, Any, Callable, Iterable, Iterator, NoReturn, Sequence

from repro.errors import LogFormatError
from repro.monitor.records import ConnRecord, DnsAnswer, DnsRecord, Proto


@dataclass(frozen=True, slots=True)
class QuarantinedLine:
    """One malformed log line set aside by a lenient read."""

    line_number: int
    reason: str
    text: str


@dataclass(frozen=True, slots=True)
class IngestReport:
    """What a log read parsed and what it quarantined.

    Every read through :func:`repro.monitor.ingest.open_log` hands one
    back, whatever the format; only a lenient read quarantines. Real
    capture infrastructure produces the occasional truncated or
    corrupt line (disk-full, rotation races, mid-write crashes); the
    paper's conservative stance is to analyse what is unambiguous and
    account for the rest, not to abort. ``quarantined`` preserves line
    numbers and reasons so the discarded population can be audited.
    """

    path_label: str
    parsed: int
    quarantined: tuple[QuarantinedLine, ...] = ()

    @property
    def ok(self) -> bool:
        """True when every line parsed cleanly."""
        return not self.quarantined

    @property
    def quarantine_fraction(self) -> float:
        """Share of data lines that had to be quarantined."""
        total = self.parsed + len(self.quarantined)
        if not total:
            return 0.0
        return len(self.quarantined) / total

    def summary(self) -> str:
        """A one-line human-readable digest."""
        if self.ok:
            return f"{self.path_label}: {self.parsed} records, no quarantined lines"
        return (
            f"{self.path_label}: {self.parsed} records, "
            f"{len(self.quarantined)} quarantined lines "
            f"({100.0 * self.quarantine_fraction:.2f}%)"
        )

_UNSET = "-"
_SEPARATOR = "\t"
_VECTOR_SEPARATOR = ","

DNS_FIELDS = (
    "ts",
    "uid",
    "id.orig_h",
    "id.orig_p",
    "id.resp_h",
    "id.resp_p",
    "proto",
    "query",
    "qtype_name",
    "rcode_name",
    "rtt",
    "answers",
    "TTLs",
    "answer_types",
)

CONN_FIELDS = (
    "ts",
    "uid",
    "id.orig_h",
    "id.orig_p",
    "id.resp_h",
    "id.resp_p",
    "proto",
    "service",
    "duration",
    "orig_bytes",
    "resp_bytes",
    "conn_state",
)


def _format_float(value: float) -> str:
    return f"{value:.6f}"


def _escape(value: str) -> str:
    if value == "":
        return "(empty)"
    return value.replace(_SEPARATOR, " ")


def write_header(stream: IO[str], path_label: str, fields: tuple[str, ...]) -> None:
    """Write Zeek-style header lines."""
    stream.write("#separator \\x09\n")
    stream.write(f"#path\t{path_label}\n")
    stream.write("#fields\t" + _SEPARATOR.join(fields) + "\n")


def dns_record_to_line(record: DnsRecord) -> str:
    """Serialize one DNS record as a TSV line."""
    answers = _VECTOR_SEPARATOR.join(_escape(a.data) for a in record.answers) or _UNSET
    ttls = _VECTOR_SEPARATOR.join(_format_float(a.ttl) for a in record.answers) or _UNSET
    types = _VECTOR_SEPARATOR.join(a.rtype for a in record.answers) or _UNSET
    values = (
        _format_float(record.ts),
        record.uid,
        record.orig_h,
        str(record.orig_p),
        record.resp_h,
        str(record.resp_p),
        record.proto.value,
        _escape(record.query),
        record.qtype,
        record.rcode,
        _format_float(record.rtt),
        answers,
        ttls,
        types,
    )
    return _SEPARATOR.join(values)


def conn_record_to_line(record: ConnRecord) -> str:
    """Serialize one connection record as a TSV line."""
    values = (
        _format_float(record.ts),
        record.uid,
        record.orig_h,
        str(record.orig_p),
        record.resp_h,
        str(record.resp_p),
        record.proto.value,
        record.service or _UNSET,
        _format_float(record.duration),
        str(record.orig_bytes),
        str(record.resp_bytes),
        record.conn_state,
    )
    return _SEPARATOR.join(values)


def write_dns_log(stream: IO[str], records: Iterable[DnsRecord]) -> int:
    """Write a complete dns.log; returns the number of records written."""
    write_header(stream, "dns", DNS_FIELDS)
    count = 0
    for record in records:
        stream.write(dns_record_to_line(record) + "\n")
        count += 1
    return count


def write_conn_log(stream: IO[str], records: Iterable[ConnRecord]) -> int:
    """Write a complete conn.log; returns the number of records written."""
    write_header(stream, "conn", CONN_FIELDS)
    count = 0
    for record in records:
        stream.write(conn_record_to_line(record) + "\n")
        count += 1
    return count


def _check_order(fields: tuple[str, ...], first: tuple[str, ...]) -> tuple[str, ...]:
    """*fields* with *first* moved to the front."""
    return (*first, *(name for name in fields if name not in first))


#: The order in which a short line is searched for its first missing
#: column: the vector and validated numeric columns lead, and a
#: truncated line names the same column whatever the header layout.
_DNS_CHECK_ORDER = _check_order(DNS_FIELDS, ("answers", "TTLs", "answer_types", "rtt"))
_CONN_CHECK_ORDER = _check_order(CONN_FIELDS, ("duration", "orig_bytes", "resp_bytes"))
_PROTOS = {proto.value: proto for proto in Proto}


def _parse_vector(text: str) -> list[str]:
    if text == _UNSET or text == "":
        return []
    return text.split(_VECTOR_SEPARATOR)


def _decode_answers(answers_text: str, ttls_text: str, types_text: str) -> tuple[DnsAnswer, ...]:
    """One dns.log line's answer section, from its three vector columns."""
    data = _parse_vector(answers_text)
    ttls = _parse_vector(ttls_text)
    if ttls and len(ttls) != len(data):
        raise LogFormatError(f"{len(data)} answers but {len(ttls)} TTLs")
    if not data:
        return ()
    types = _parse_vector(types_text)
    if len(types) < len(data):
        types += ["A"] * (len(data) - len(types))
    return tuple(map(DnsAnswer, data, map(float, ttls) if ttls else repeat(0.0), types))


def _layout(
    fields: Sequence[str], check_order: tuple[str, ...]
) -> tuple[dict[str, int], list[str], str | None]:
    """Where a ``#fields`` header puts each column a decoder reads.

    Returns the column positions, the columns present in *check_order*
    and, when the header lacks a required column, the reason every data
    line under it fails. Only ``answer_types`` may be absent.
    """
    position = {name: index for index, name in enumerate(fields)}
    present = [name for name in check_order if name in position]
    absent = [name for name in check_order if name not in position and name != "answer_types"]
    return position, present, f"missing field {absent[0]!r}" if absent else None


def _short_line(present: list[str], position: dict[str, int], values: list[str]) -> LogFormatError:
    """The error of a data line with fewer columns than its header."""
    missing = next(name for name in present if position[name] >= len(values))
    return LogFormatError(f"missing field {missing!r}")


def _failing_decoder(reason: str) -> Callable[[str], NoReturn]:
    """The decoder under a header that lacks a required column."""

    def decode(line: str) -> NoReturn:
        raise LogFormatError(reason)

    return decode


def compile_dns_decoder(fields: Sequence[str]) -> Callable[[str], DnsRecord]:
    """The decoder of dns.log data lines under the header *fields*.

    *fields* are the column names of a ``#fields`` line, in any order;
    unknown columns are ignored and ``answer_types`` may be absent
    (every answer then reads as an ``A`` record). The column positions
    are resolved here, once per header, so decoding a line is one split
    and one pick. Malformed lines raise :class:`LogFormatError` (or
    :class:`ValueError` for an unparsable number) with the bare reason;
    the parse loop adds the line number.
    """
    position, present, failure = _layout(fields, _DNS_CHECK_ORDER)
    if failure is not None:
        return _failing_decoder(failure)
    width = max(position[name] for name in present) + 1
    pick = itemgetter(*(position[name] for name in DNS_FIELDS if name != "answer_types"))
    types_at = position.get("answer_types")
    protos = _PROTOS

    def decode(line: str) -> DnsRecord:
        values = line.split(_SEPARATOR)
        if len(values) < width:
            raise _short_line(present, position, values)
        (ts, uid, orig_h, orig_p, resp_h, resp_p, proto, query, qtype, rcode, rtt_text,
         answers_text, ttls_text) = pick(values)
        types_text = _UNSET if types_at is None else values[types_at]
        rtt = 0.0 if rtt_text == _UNSET else float(rtt_text)
        # Boundary validation: the record types are plain NamedTuples, so
        # untrusted values are checked here, where the bytes come in.
        if rtt < 0:
            raise LogFormatError(f"rtt cannot be negative: {rtt}")
        return DnsRecord(
            float(ts),
            uid,
            orig_h,
            int(orig_p),
            resp_h,
            int(resp_p),
            query,
            qtype,
            rcode,
            rtt,
            _decode_answers(answers_text, ttls_text, types_text),
            protos.get(proto) or Proto.parse(proto),
        )

    return decode


def compile_conn_decoder(fields: Sequence[str]) -> Callable[[str], ConnRecord]:
    """The decoder of conn.log data lines under the header *fields*; see
    :func:`compile_dns_decoder`."""
    position, present, failure = _layout(fields, _CONN_CHECK_ORDER)
    if failure is not None:
        return _failing_decoder(failure)
    width = max(position[name] for name in present) + 1
    pick = itemgetter(*(position[name] for name in CONN_FIELDS))
    protos = _PROTOS

    def decode(line: str) -> ConnRecord:
        values = line.split(_SEPARATOR)
        if len(values) < width:
            raise _short_line(present, position, values)
        (ts, uid, orig_h, orig_p, resp_h, resp_p, proto, service, duration_text,
         orig_text, resp_text, conn_state) = pick(values)
        duration = 0.0 if duration_text == _UNSET else float(duration_text)
        orig_bytes = int(orig_text)
        resp_bytes = int(resp_text)
        # Boundary validation (see compile_dns_decoder).
        if duration < 0:
            raise LogFormatError(f"duration cannot be negative: {duration}")
        if orig_bytes < 0 or resp_bytes < 0:
            raise LogFormatError("byte counts cannot be negative")
        return ConnRecord(
            float(ts),
            uid,
            orig_h,
            int(orig_p),
            resp_h,
            int(resp_p),
            protos.get(proto) or Proto.parse(proto),
            duration,
            orig_bytes,
            resp_bytes,
            service,
            conn_state,
        )

    return decode


def read_dns_log(stream: IO[str]) -> list[DnsRecord]:
    """Parse a dns.log written by :func:`write_dns_log` (or Zeek-like).

    Strict: a malformed line raises. Lenient reading, with a quarantine
    report, goes through :func:`repro.monitor.ingest.open_log`.
    """
    return list(_parse_lines(stream, True, None, compile_fields=compile_dns_decoder))


def read_conn_log(stream: IO[str]) -> list[ConnRecord]:
    """Parse a conn.log written by :func:`write_conn_log` (or Zeek-like).

    Strict, like :func:`read_dns_log`.
    """
    return list(_parse_lines(stream, True, None, compile_fields=compile_conn_decoder))


def save_dns_log(path: str, records: Iterable[DnsRecord]) -> int:
    """Write a dns.log file at *path*."""
    with open(path, "w", encoding="utf-8") as stream:
        return write_dns_log(stream, records)


def save_conn_log(path: str, records: Iterable[ConnRecord]) -> int:
    """Write a conn.log file at *path*."""
    with open(path, "w", encoding="utf-8") as stream:
        return write_conn_log(stream, records)


def load_dns_log(path: str) -> list[DnsRecord]:
    """Read a dns.log file from *path*."""
    with open(path, "r", encoding="utf-8") as stream:
        return read_dns_log(stream)


def load_conn_log(path: str) -> list[ConnRecord]:
    """Read a conn.log file from *path*."""
    with open(path, "r", encoding="utf-8") as stream:
        return read_conn_log(stream)


def _parse_lines(
    lines: Iterable[str],
    strict: bool,
    quarantine: list[QuarantinedLine] | None,
    decode: Callable[[str], Any] | None = None,
    compile_fields: Callable[[Sequence[str]], Callable[[str], Any]] | None = None,
) -> Iterator:
    """The one parse loop behind every text reader: TSV and JSON, whole
    file, lazy and tailing alike.

    JSON lines name their own fields: *decode* turns one non-blank line
    into a record. TSV passes *compile_fields* instead: ``#`` lines are
    headers, and every ``#fields`` line compiles the decoder for the
    lines below it, so a tailed stream that crosses a rotation boundary
    picks up the new file's header transparently. Decoders raise the
    bare reason a line is malformed. With ``strict`` that raises
    :class:`LogFormatError` as ``line N: reason``; otherwise the line
    goes to *quarantine* (when given) with the reason and its line
    number, and is skipped, keeping a long-lived tail alive across the
    occasional torn line.
    """
    headers = compile_fields is not None
    for number, line in enumerate(lines, start=1):
        line = line.rstrip("\n")
        if not line or (not headers and line.isspace()):
            continue
        if headers and line[0] == "#":
            if line.startswith("#fields"):
                decode = compile_fields(line.split(_SEPARATOR)[1:])
            continue
        try:
            if decode is None:
                raise LogFormatError("data before #fields header")
            record = decode(line)
        except (ValueError, LogFormatError) as exc:
            if strict:
                raise LogFormatError(f"line {number}: {exc}") from exc
            if quarantine is not None:
                quarantine.append(QuarantinedLine(number, str(exc), line))
            continue
        yield record


def tail_lines(
    path: str,
    poll_interval_s: float = 0.25,
    idle_timeout_s: float | None = None,
    stop: Callable[[], bool] | None = None,
) -> Iterator[str]:
    """Follow a growing log file, yielding complete lines as they land.

    The live-ingest primitive: reads in binary so byte positions are
    exact, buffers a partial trailing line until its newline arrives,
    and survives the two things log writers do to followers —

    * **truncation** (``copytruncate``-style rotation): the file's size
      drops below our read position; re-seek to the start and drop any
      buffered partial line, since its continuation is gone.
    * **rotation** (rename-and-recreate): the path's inode changes.
      The old stream is drained to EOF first — nothing more will be
      appended to a renamed-away file — then the new file is opened
      from the beginning. A buffered partial line from the old file is
      flushed as-is: the writer closed that file, so the line is final.

    A missing file (not yet created, or mid-rotation) is waited out.
    ``idle_timeout_s`` ends the tail after that much time with no new
    data; ``stop`` is polled between reads for cooperative shutdown.
    Decoding replaces invalid UTF-8 rather than raising, leaving
    malformed-line policy to the record-level parser.
    """
    if poll_interval_s <= 0.0:
        raise ValueError(f"poll_interval_s must be positive, got {poll_interval_s}")
    if idle_timeout_s is not None and idle_timeout_s <= 0.0:
        raise ValueError(f"idle_timeout_s must be positive, got {idle_timeout_s}")
    stream: IO[bytes] | None = None
    inode: int | None = None
    buffer = b""
    last_data_s = time.monotonic()
    while True:
        if stream is None:
            try:
                stream = open(path, "rb")
            except FileNotFoundError:
                if stop is not None and stop():
                    return
                if (
                    idle_timeout_s is not None
                    and time.monotonic() - last_data_s >= idle_timeout_s
                ):
                    return
                time.sleep(poll_interval_s)
                continue
            inode = os.fstat(stream.fileno()).st_ino
            buffer = b""
        chunk = stream.read(65536)
        if chunk:
            last_data_s = time.monotonic()
            buffer += chunk
            while True:
                newline = buffer.find(b"\n")
                if newline < 0:
                    break
                yield buffer[:newline].decode("utf-8", errors="replace")
                buffer = buffer[newline + 1 :]
            continue
        # At EOF of the current stream: check for truncation, rotation,
        # shutdown, and idleness — in that order.
        size = os.fstat(stream.fileno()).st_size
        if size < stream.tell():
            stream.seek(0)
            buffer = b""
            continue
        rotated = False
        try:
            rotated = os.stat(path).st_ino != inode
        except FileNotFoundError:
            # Mid-rotation window: the old file persists via our fd;
            # keep polling it until the new file appears.
            pass
        if rotated:
            if buffer:
                yield buffer.decode("utf-8", errors="replace")
            stream.close()
            stream = None
            continue
        if stop is not None and stop():
            if buffer:
                yield buffer.decode("utf-8", errors="replace")
            stream.close()
            return
        if (
            idle_timeout_s is not None
            and time.monotonic() - last_data_s >= idle_timeout_s
        ):
            stream.close()
            return
        time.sleep(poll_interval_s)
