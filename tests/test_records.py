"""The shared JSON-lines framing of arrival traces and failure schedules.

Both formats read through ``repro.workloads.records``, so every framing
diagnostic must come out the same for each, differing only in the
format's noun, kind and versions.
"""

import pytest

from repro.cluster.chaos import parse_schedule
from repro.workloads.traces import parse_trace

#: format -> the parser and the words its diagnostics are filled with.
FORMATS = {
    "trace": (parse_trace, dict(SOURCE="<trace>", NOUN="trace",
                                KIND="cheetah-trace",
                                READS="versions 1-2", NEWEST="2")),
    "schedule": (parse_schedule, dict(SOURCE="<schedule>",
                                      NOUN="schedule",
                                      KIND="cheetah-chaos",
                                      READS="version 1", NEWEST="1")),
}

HEADER = '{"kind": "KIND", "version": 1}'

#: case -> (text, expected message), with the FORMATS words as
#: placeholders.
CASES = {
    "malformed-json": (
        HEADER + '\n\n{"tick": 1,',
        "SOURCE:3: malformed JSON (Expecting property name enclosed in "
        "double quotes at column 12)"),
    "non-object-line": (
        HEADER + "\n[1, 2]",
        "SOURCE:2: every NOUN line must be a JSON object, got list"),
    "wrong-kind": (
        '{"kind": "cheetah-other", "version": 1}',
        'SOURCE:1: first line must be the NOUN header with "kind": '
        "\"KIND\", got kind='cheetah-other'"),
    "bad-version": (
        '{"kind": "KIND", "version": 99}',
        "SOURCE:1: unsupported NOUN version 99 (this parser reads READS)"),
    "unknown-header-field": (
        '{"kind": "KIND", "version": 1, "zeta": 0, "alpha": 0}',
        "SOURCE:1: unknown header field(s): alpha, zeta"),
    "empty-file": (
        "\n  \n",
        'SOURCE:1: empty NOUN: expected a header line ({"kind": "KIND", '
        '"version": NEWEST})'),
}


def fill(template, words):
    for placeholder, word in words.items():
        template = template.replace(placeholder, word)
    return template


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_framing_diagnostic(fmt, case):
    parse, words = FORMATS[fmt]
    text, message = CASES[case]
    with pytest.raises(ValueError) as error:
        parse(fill(text, words))
    assert str(error.value) == fill(message, words)
