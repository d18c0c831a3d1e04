"""Golden: parse errors, with their spans, for one-token deletions.

For each paper figure and ``examples/quickstart.pcf``, every token in
turn is cut out of the source text and the result parsed.  The outcome
(``ok``, or the error class, message and span) is pinned in
``parse_error_spans.json``, frozen from the char-at-a-time lexer and the
recursive-descent expression parser that preceded the current front end.
This covers the error paths, where tokens build their spans on demand;
the round-trip tests compare ASTs without spans.

Regenerate (only for an intended change of diagnostics)::

    PYTHONPATH=src python tests/golden/test_parse_error_spans.py
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List

import pytest

from repro.lang import LangError, parse_program
from repro.lang.lexer import tokenize
from repro.paper.programs import SOURCES

ROOT = Path(__file__).resolve().parents[2]
GOLDEN = Path(__file__).with_name("parse_error_spans.json")


def sources() -> Dict[str, str]:
    out = dict(SOURCES)
    out["quickstart"] = (ROOT / "examples" / "quickstart.pcf").read_text(encoding="utf-8")
    return out


def deletion_outcomes(source: str) -> List[str]:
    """One line per token with source text: what parsing gives without it."""
    line_starts = [0] + [i + 1 for i, ch in enumerate(source) if ch == "\n"]

    def offset(pos) -> int:
        return line_starts[pos.line - 1] + pos.column - 1

    out = []
    for tok in tokenize(source):
        start, end = offset(tok.span.start), offset(tok.span.end)
        if start == end:  # the synthesized final NEWLINE and EOF
            continue
        try:
            parse_program(source[:start] + source[end:])
            result = "ok"
        except LangError as exc:
            result = f"{type(exc).__name__}: {exc.message} @ {exc.span.start}-{exc.span.end}"
        out.append(f"{tok.span.start} {tok.text!r}: {result}")
    return out


def load_golden() -> Dict[str, List[str]]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("key", sorted(sources()))
def test_deletion_outcomes_match_golden(key):
    assert deletion_outcomes(sources()[key]) == load_golden()[key]


def test_golden_covers_every_program_and_both_outcomes():
    golden = load_golden()
    assert sorted(golden) == sorted(sources())
    lines = [line for outcomes in golden.values() for line in outcomes]
    assert any(line.endswith(": ok") for line in lines)
    assert any("ParseError" in line for line in lines)


if __name__ == "__main__":
    data = {key: deletion_outcomes(src) for key, src in sorted(sources().items())}
    GOLDEN.write_text(json.dumps(data, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"wrote {sum(map(len, data.values()))} outcomes to {GOLDEN}")
