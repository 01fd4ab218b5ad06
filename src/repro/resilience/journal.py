"""Checkpoint journal for long sweeps: atomic appends, checksummed lines.

A :class:`SweepJournal` is an append-only JSONL file recording one
line per *completed cell* of a sweep (a table cell, a growth-curve
point, an (app, mapping) timing block).  An interrupted run — Ctrl-C,
OOM, power loss — leaves a valid prefix; rerunning with ``--resume``
loads the journal, skips every recorded cell (replaying its exact
payload), and recomputes only the remainder.  Because the sweep's seed
plan is laid out before any cell executes, a resumed run is
**bit-identical** to an uninterrupted fresh run (asserted by
``tests/test_resume.py``).

Integrity model
---------------
* The first line is a **header** binding the journal to one run
  identity (experiment name, parameters, seed fingerprint, code
  fingerprint).  Resuming against a mismatched header raises
  :class:`JournalMismatch` instead of silently mixing results from
  different runs or different code.
* Every line carries a truncated SHA-256 over its content.  A torn
  tail line (the crash case an append-only file can actually produce)
  or any corrupted line — including one that is not valid UTF-8 —
  fails its checksum and is ignored: the cell is simply recomputed.
  Resuming cuts a torn tail off before the first append, so the next
  record starts on a line of its own.
* Appends are flushed and fsynced per record, so a completed cell
  survives anything short of filesystem loss.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "JournalError",
    "JournalMismatch",
    "JournalReport",
    "SweepJournal",
    "record_checksum",
    "tail_records",
    "verify_journal",
]

_MAGIC = "repro-journal-v1"


class JournalError(RuntimeError):
    """A journal file could not be used."""


class JournalMismatch(JournalError):
    """The journal on disk belongs to a different run identity."""


def record_checksum(record: dict) -> str:
    """Truncated SHA-256 over a record's canonical JSON encoding.

    This is the integrity primitive shared by journal lines and the
    fabric's result envelopes (:mod:`repro.fabric.workers`): both sides
    of a hand-off compute it over the same sorted-key JSON body, so a
    flipped bit anywhere in the payload fails verification.
    """
    body = json.dumps(record, sort_keys=True)
    return hashlib.sha256((_MAGIC + body).encode()).hexdigest()[:16]


# Internal alias kept for the module's own call sites.
_line_checksum = record_checksum


def _encode_line(record: dict) -> str:
    return json.dumps({**record, "sha": _line_checksum(record)}, sort_keys=True)


def _decode_line(raw: bytes) -> dict | None:
    """Parse + verify one journal line; ``None`` if torn/corrupt."""
    try:
        payload = json.loads(raw.decode("utf-8"))
    except ValueError:  # covers UnicodeDecodeError and bad JSON
        return None
    if not isinstance(payload, dict):
        return None
    sha = payload.pop("sha", None)
    if sha != _line_checksum(payload):
        return None
    return payload


class SweepJournal:
    """One sweep's completion journal.

    Parameters
    ----------
    path:
        The JSONL file (parent directories are created).
    header:
        The run identity this journal must match: any JSON-serializable
        dict (experiment name, parameters, seed/code fingerprints).
    resume:
        ``True`` loads an existing file (validating its header) and
        continues it; ``False`` truncates and starts fresh.

    Notes
    -----
    ``completed`` maps cell key -> recorded payload.  Duplicate keys
    keep the last record (a cell re-recorded after a partial resume is
    harmless — the payload is identical by construction).
    """

    def __init__(
        self,
        path: str | Path,
        header: dict,
        resume: bool = True,
    ) -> None:
        self.path = Path(path)
        self.header = dict(header)
        self.completed: dict[str, object] = {}
        self.skipped_lines = 0
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            if resume and self.path.exists():
                self._load()
            else:
                self._start_fresh()
        except OSError as exc:
            raise JournalError(f"{self.path}: unusable journal path ({exc})") from exc

    # -- construction ----------------------------------------------------

    def _start_fresh(self) -> None:
        with open(self.path, "w") as handle:
            handle.write(_encode_line({"header": self.header}) + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    def _load(self) -> None:
        data = self.path.read_bytes()
        lines = data.splitlines()
        if not lines:
            self._start_fresh()
            return
        head = _decode_line(lines[0])
        if head is None or "header" not in head:
            raise JournalError(
                f"{self.path}: not a sweep journal (bad or missing header line)"
            )
        if head["header"] != self.header:
            raise JournalMismatch(
                f"{self.path}: journal belongs to a different run.\n"
                f"  on disk: {json.dumps(head['header'], sort_keys=True)}\n"
                f"  this run: {json.dumps(self.header, sort_keys=True)}\n"
                "Delete the journal (or pass a different --journal path) to "
                "start fresh."
            )
        for line in lines[1:]:
            record = _decode_line(line)
            if record is None or "key" not in record:
                self.skipped_lines += 1
                continue
            self.completed[record["key"]] = record.get("payload")
        # What follows the last newline is empty unless a crash cut a
        # write short.  Appending to it would glue the next record onto
        # the torn one, so end the file on a line boundary first.
        tail = data[data.rfind(b"\n") + 1 :]
        if tail:
            with open(self.path, "r+b") as handle:
                if _decode_line(tail) is None:
                    handle.truncate(len(data) - len(tail))
                else:  # a complete line that only lacks its newline
                    handle.seek(0, os.SEEK_END)
                    handle.write(b"\n")
                handle.flush()
                os.fsync(handle.fileno())

    # -- recording / replay ----------------------------------------------

    def get(self, key: str):
        """The recorded payload for ``key``, or ``None`` if not done."""
        return self.completed.get(key)

    def __contains__(self, key: str) -> bool:
        return key in self.completed

    def __len__(self) -> int:
        return len(self.completed)

    def record(self, key: str, payload) -> None:
        """Append one completed cell (flush + fsync before returning)."""
        with open(self.path, "a") as handle:
            handle.write(_encode_line({"key": key, "payload": payload}) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        self.completed[key] = payload


# -- offline inspection (``repro journal verify|stats|tail``) -------------


@dataclass
class JournalReport:
    """What :func:`verify_journal` found in one journal file.

    Attributes
    ----------
    path:
        The inspected file.
    header:
        The decoded header dict, or ``None`` if the header line itself
        is missing/corrupt (which makes the whole file unusable).
    records:
        Valid data lines, in file order, as ``(line_no, key, payload)``
        with 1-based line numbers.  Duplicate keys are kept — ``keys``
        deduplicates the way resume does.
    bad_lines:
        ``(line_no, reason)`` for every line that failed checksum or
        JSON decoding.  A *single* bad final line with no newline after
        it is the torn-tail crash signature resume tolerates; anything
        else is corruption.
    tail_line:
        Line number of the bytes after the last newline — the only line
        a crash can cut short — or 0 when the file ends in a newline.
    """

    path: Path
    header: dict | None = None
    records: list[tuple[int, str, object]] = field(default_factory=list)
    bad_lines: list[tuple[int, str]] = field(default_factory=list)
    tail_line: int = 0

    @property
    def keys(self) -> dict[str, object]:
        """Last-wins key -> payload view (what resume would load)."""
        return {key: payload for _, key, payload in self.records}

    @property
    def torn_tail_only(self) -> bool:
        """True when the only damage is a single torn final line.

        Only bytes after the last newline can be torn: a complete,
        newline-terminated bad line is corruption, wherever it sits.
        """
        if self.header is None or len(self.bad_lines) != 1:
            return False
        return self.tail_line > 1 and self.bad_lines[0][0] == self.tail_line

    @property
    def ok(self) -> bool:
        """Fully intact: valid header, every line verified."""
        return self.header is not None and not self.bad_lines


def verify_journal(path: str | Path) -> JournalReport:
    """Validate every line of a journal file without loading it as a run.

    Unlike constructing a :class:`SweepJournal` (which needs the
    expected header and silently skips bad lines), this reports what is
    actually on disk: the header, each valid record, and the line
    number and failure mode of every line that does not verify.
    """
    path = Path(path)
    report = JournalReport(path=path)
    try:
        data = path.read_bytes()
    except OSError as exc:  # missing file, a directory, no permission
        report.bad_lines.append((0, f"unreadable path: {exc.strerror or exc}"))
        return report
    lines = data.splitlines()
    if not data.endswith(b"\n"):
        report.tail_line = len(lines)
    if not lines:
        report.bad_lines.append((0, "empty file (no header line)"))
        return report
    head = _decode_line(lines[0])
    if head is None:
        report.bad_lines.append((1, "header line failed checksum/decoding"))
    elif "header" not in head:
        report.bad_lines.append((1, "first line is not a header record"))
    else:
        report.header = head["header"]
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        record = _decode_line(line)
        if record is None:
            report.bad_lines.append((line_no, "failed checksum/decoding"))
        elif "key" not in record:
            report.bad_lines.append((line_no, "valid line without a cell key"))
        else:
            report.records.append((line_no, record["key"], record.get("payload")))
    return report


def tail_records(path: str | Path, count: int = 10) -> list[tuple[int, str, object]]:
    """The last ``count`` valid records of a journal, oldest first.

    Raises :class:`JournalError` when the file is missing or its header
    is unusable (a tail of garbage is not worth printing).
    """
    report = verify_journal(path)
    if report.header is None:
        reasons = "; ".join(reason for _, reason in report.bad_lines)
        raise JournalError(f"{path}: {reasons or 'no valid header'}")
    return report.records[-count:] if count > 0 else []
