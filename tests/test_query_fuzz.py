"""The SQL front door ends every input in a named outcome: ``compile_sql`` fuzzed.

``repro.query.compile_sql`` is where hostile text meets the engine.  Its
contract, with the admission battery (``admit=True``) and without it
(``admit=False``): every input ends in a compiled plan, a ``ParseError``
that carries its ``line`` and ``col``, a ``CompileError`` or an
``AdmissionError`` -- never another exception.  Two kinds of input are
drawn: token soup (the grammar's keywords, operators, identifiers, number
and string literals at their edges, comments, suppressions and characters
the lexer has no token for, in any order) and the example queries under
``examples/queries/`` with slices deleted, repeated or swapped and tokens
or characters inserted, so most inputs are nearly valid specs.
"""

from __future__ import annotations

import pathlib

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.query import AdmissionError, CompiledPlan, CompileError, ParseError, compile_sql

EXAMPLES = sorted(
    path.read_text(encoding="utf-8")
    for path in pathlib.Path(__file__).resolve().parents[1].glob("examples/queries/*/*.sql")
)

TOKENS = [
    "SELECT", "COUNT", "(*)", "FROM", "AS", "CROSS", "INNER", "JOIN", "ON", "WHERE", "AND",
    "ABS", "BETWEEN", "WINDOW", "POLICY", "QUEUE", "SCALE", "DOMAIN", "TO", "KEYS", "INT",
    "FLOAT", "TRUE", "FALSE", "select", "a", "b", "a.k", "b.k", "a.k - b.k", "o1.price",
    ".", ",", "(", ")", "*", "+", "-", "=", "<", "<=", ">", ">=", "<>", "0", "1", "10", "-1",
    "2.5", ".5", "1e308", "1e999", "1e-999", "9007199254740993", "99999999999999999999999",
    "'tuples:5000'", "'batches:16'", "'unbounded'", "'decay:0.5'", "'tuples:0'",
    "'batches:-1'", "'shed'", "'block'", "'drop_oldest'", "'nope'", "''", "'", "'\\'",
    "-- repro: ignore[QRY002]", "-- repro: ignore[QRY999]", "--", "\n", " ", "\t", "@",
    "\x00", "é", ";", "nan", "inf", "NaN",
]

#: Soup alone, or after the head of a valid spec, so it reaches the clauses.
HEADS = ["", "SELECT COUNT(*) FROM a JOIN b ON ", "SELECT COUNT(*) FROM a JOIN b ON a.k = b.k "]
SOUP = st.tuples(st.sampled_from(HEADS), st.lists(st.sampled_from(TOKENS), max_size=30)).map(
    lambda parts: parts[0] + " ".join(parts[1])
)


@st.composite
def mutated_examples(draw) -> str:
    """An example query with a few slices deleted, repeated or swapped and
    tokens or characters inserted."""
    text = draw(st.sampled_from(EXAMPLES))
    for _ in range(draw(st.integers(1, 4))):
        size = len(text)
        start = draw(st.integers(0, size))
        stop = draw(st.integers(start, min(size, start + 40)))
        edit = draw(st.sampled_from(["delete", "repeat", "insert", "character", "swap"]))
        if edit == "delete":
            text = text[:start] + text[stop:]
        elif edit == "repeat":
            text = text[:stop] + text[start:stop] + text[stop:]
        elif edit == "insert":
            text = text[:start] + f" {draw(st.sampled_from(TOKENS))} " + text[start:]
        elif edit == "character":
            text = text[:start] + draw(st.characters()) + text[start + 1:]
        else:
            other = draw(st.integers(0, size))
            text = text[:start] + text[other:other + 20] + text[stop:]
    return text


def _ends_in_a_named_outcome(sql: str) -> None:
    for admit in (True, False):
        try:
            plan = compile_sql(sql, admit=admit)
        except ParseError as error:
            assert isinstance(error.line, int) and error.line >= 1, sql
            assert isinstance(error.col, int) and error.col >= 0, sql
        except (CompileError, AdmissionError):
            pass
        else:
            assert isinstance(plan, CompiledPlan), sql


def test_every_example_compiles_or_is_refused_by_name():
    assert EXAMPLES
    for sql in EXAMPLES:
        _ends_in_a_named_outcome(sql)


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(sql=SOUP)
def test_token_soup_ends_in_a_named_outcome(sql):
    _ends_in_a_named_outcome(sql)


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(sql=mutated_examples())
def test_a_mutated_example_ends_in_a_named_outcome(sql):
    _ends_in_a_named_outcome(sql)
