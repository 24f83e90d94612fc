"""The JSON-lines framing shared by the repo's versioned record files.

Arrival traces (:mod:`repro.workloads.traces`, ``docs/TRACES.md``) and
failure schedules (:mod:`repro.cluster.chaos`, ``docs/CHAOS.md``) are
both one JSON object per line: a header carrying a ``kind``
discriminator and a format ``version``, then one record per line.
This module owns that framing — the line loop, the header checks, the
field validators and the writer — so each format's parser keeps only
its own field and cross-line rules.

Every diagnostic is a :class:`ValueError` whose message starts with
``source:line``.  Blank lines are permitted and keep their line
numbers; the header must be the first non-blank line.

>>> lines = read('{"kind": "demo", "version": 1}\\n\\n{"x": 2}', "<demo>",
...              noun="demo", kind="demo", versions=(1,),
...              header_keys={"kind", "version"})
>>> list(lines)
[(1, {'kind': 'demo', 'version': 1}), (3, {'x': 2})]
>>> dump({"kind": "demo", "version": 1}, [{"x": 2}])
'{"kind": "demo", "version": 1}\\n{"x": 2}\\n'
"""

from __future__ import annotations

import json
from typing import Callable, Dict, Iterable, Iterator, Optional, Tuple


def fail(source: str, line_no: int, message: str) -> None:
    """Raise the ``source:line``-addressed format error."""
    raise ValueError(f"{source}:{line_no}: {message}")


def require_int(record: Dict, key: str, source: str, line_no: int,
                minimum: int, default: Optional[int] = None) -> int:
    """``record[key]`` (or ``default``) as an integer >= ``minimum``."""
    value = record.get(key, default)
    if not isinstance(value, int) or isinstance(value, bool):
        fail(source, line_no, f"{key!r} must be an integer, "
                              f"got {value!r}")
    if value < minimum:
        fail(source, line_no, f"{key!r} must be >= {minimum}, "
                              f"got {value}")
    return value


def require_rate(record: Dict, key: str, source: str,
                 line_no: int) -> float:
    """``record[key]`` as a float in ``[0, 1)`` (a loss rate)."""
    value = record.get(key)
    if not isinstance(value, (int, float)) or isinstance(value, bool) \
            or not 0.0 <= value < 1.0:
        fail(source, line_no, f"\"{key}\" must be a number in "
                              f"[0, 1), got {value!r}")
    return float(value)


def read(text: str, source: str, *, noun: str, kind: str,
         versions: Tuple[int, ...],
         header_keys) -> Iterator[Tuple[int, Dict]]:
    """Yield ``(line_no, record)`` for each non-blank line of ``text``.

    The first record yielded is the header, already checked for its
    ``kind``, a supported ``version`` and unknown fields; ``noun``
    ("trace", "schedule") names the format in diagnostics.  Lines are
    decoded lazily, so a parser that rejects a record stops before
    later lines are read and the first bad line is the one reported.
    Text without a header raises the empty-file diagnostic.
    """
    header_seen = False
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as error:
            fail(source, line_no, f"malformed JSON ({error.msg} at "
                                  f"column {error.colno})")
        if not isinstance(record, dict):
            fail(source, line_no, f"every {noun} line must be a JSON "
                                  f"object, got {type(record).__name__}")
        if not header_seen:
            if record.get("kind") != kind:
                fail(source, line_no,
                     f"first line must be the {noun} header with "
                     f"\"kind\": \"{kind}\", "
                     f"got kind={record.get('kind')!r}")
            version = record.get("version")
            if not isinstance(version, int) or isinstance(version, bool):
                fail(source, line_no, f"\"version\" must be an integer, "
                                      f"got {version!r}")
            if version not in versions:
                readable = (f"version {versions[0]}" if len(versions) == 1
                            else f"versions {versions[0]}-{versions[-1]}")
                fail(source, line_no,
                     f"unsupported {noun} version {version} (this parser "
                     f"reads {readable})")
            unknown = sorted(set(record) - header_keys)
            if unknown:
                fail(source, line_no,
                     f"unknown header field(s): {', '.join(unknown)}")
            header_seen = True
        yield line_no, record
    if not header_seen:
        fail(source, 1, f"empty {noun}: expected a header line "
                        f"({{\"kind\": \"{kind}\", \"version\": "
                        f"{versions[-1]}}})")


def dump(header: Dict, records: Iterable[Dict]) -> str:
    """``header`` then ``records`` as JSON lines (sorted keys)."""
    lines = [json.dumps(header, sort_keys=True)]
    lines += [json.dumps(record, sort_keys=True) for record in records]
    return "\n".join(lines) + "\n"


def save(path: str, text: str) -> str:
    """Write serialized ``text`` to ``path`` and return the path."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)
    return path


def load(path: str, parse: Callable[..., object]):
    """Read ``path`` and ``parse(text, source=path)`` it."""
    with open(path, encoding="utf-8") as f:
        return parse(f.read(), source=path)
