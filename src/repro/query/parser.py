"""Parsing SQL-ish join specs into :mod:`repro.query.nodes` trees.

One self-contained tokenizer and recursive-descent parser covers the full
documented grammar (``docs/query.md``), with exact token positions for
findings and ``--`` comment capture for suppressions.  No dependencies.

The literal path preserves exact integers: a literal spelled without a
decimal point or exponent is parsed with :func:`int`, never routed through
:func:`float` — a band width of ``9007199254740993`` (2**53 + 1) written
in a query reaches :class:`repro.joins.conditions.BandJoinCondition`
un-rounded (the ``exact_integer_keys`` discipline).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.query.nodes import (
    COMPARISON_OPS,
    AndCondition,
    BandPredicate,
    ColumnRef,
    Comparison,
    JoinClause,
    KeysClause,
    Literal,
    Node,
    PolicyClause,
    ScaleClause,
    SelectStmt,
    TableRef,
    WindowClause,
)

__all__ = [
    "ParseError",
    "Token",
    "tokenize_sql",
    "parse_sql",
]

_KEYWORDS = frozenset(
    {
        "SELECT", "COUNT", "FROM", "AS", "CROSS", "INNER", "JOIN", "ON",
        "WHERE", "AND", "ABS", "BETWEEN", "WINDOW", "POLICY", "QUEUE",
        "SCALE", "DOMAIN", "TO", "KEYS", "INT", "FLOAT", "TRUE", "FALSE",
    }
)

_TOKEN_RE = re.compile(
    r"""
    (?P<comment>--[^\n]*)
  | (?P<string>'(?:[^'\\]|\\.)*')
  | (?P<number>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)
  | (?P<word>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op><=|>=|<>|[=<>().,*+\-])
  | (?P<space>\s+)
  | (?P<bad>.)
    """,
    re.VERBOSE,
)


class ParseError(ValueError):
    """A join spec that does not fit the grammar, with a position.

    Attributes
    ----------
    line, col:
        1-based line and 0-based column of the offending token.
    """

    def __init__(self, message: str, line: int = 1, col: int = 0) -> None:
        super().__init__(f"line {line}:{col}: {message}")
        self.line = line
        self.col = col


@dataclass(frozen=True)
class Token:
    """One lexed token: kind, text, and position."""

    kind: str  # KEYWORD | IDENT | NUMBER | STRING | OP | EOF
    text: str
    line: int
    col: int


def tokenize_sql(source: str) -> "tuple[list[Token], list[tuple[int, int, str]]]":
    """Lex a join spec; return ``(tokens, comments)``.

    Comments are ``(line, col, text)`` triples for every ``--`` comment,
    in the shape :func:`repro.analysis.engine.scan_suppressions` consumes —
    suppression comments in query files are real comment tokens, never
    string contents.
    """
    tokens: list[Token] = []
    comments: list[tuple[int, int, str]] = []
    line = 1
    line_start = 0
    for match in _TOKEN_RE.finditer(source):
        col = match.start() - line_start
        text = match.group()
        kind = match.lastgroup or "bad"
        if kind == "space":
            newlines = text.count("\n")
            if newlines:
                line += newlines
                line_start = match.start() + text.rfind("\n") + 1
            continue
        if kind == "comment":
            comments.append((line, col, text))
            continue
        if kind == "bad":
            raise ParseError(f"unexpected character {text!r}", line, col)
        if kind == "word":
            upper = text.upper()
            kind = "KEYWORD" if upper in _KEYWORDS else "IDENT"
        elif kind == "string":
            kind = "STRING"
        elif kind == "number":
            kind = "NUMBER"
        else:
            kind = "OP"
        tokens.append(Token(kind, text, line, col))
    tokens.append(Token("EOF", "", line, len(source) - line_start))
    return tokens, comments


def _literal_value(text: str) -> "int | float":
    """Parse a numeric literal, preserving exact integers.

    Integer-spelled text goes through :func:`int` — never ``float`` — so
    int64-range values above 2**53 survive bit-exact.
    """
    if re.fullmatch(r"\d+", text):
        return int(text)
    return float(text)


class _Parser:
    """Recursive-descent parser over the token stream."""

    def __init__(self, tokens: "list[Token]") -> None:
        self.tokens = tokens
        self.pos = 0

    # -- token plumbing -------------------------------------------------
    @property
    def current(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        token = self.current
        if token.kind != "EOF":
            self.pos += 1
        return token

    def at_keyword(self, *words: str) -> bool:
        token = self.current
        return token.kind == "KEYWORD" and token.text.upper() in words

    def expect_keyword(self, word: str) -> Token:
        if not self.at_keyword(word):
            raise ParseError(
                f"expected {word}, got {self.current.text or 'end of input'!r}",
                self.current.line,
                self.current.col,
            )
        return self.advance()

    def expect_op(self, op: str) -> Token:
        token = self.current
        if token.kind != "OP" or token.text != op:
            raise ParseError(
                f"expected {op!r}, got {token.text or 'end of input'!r}",
                token.line,
                token.col,
            )
        return self.advance()

    def expect_ident(self, what: str) -> Token:
        token = self.current
        if token.kind != "IDENT":
            raise ParseError(
                f"expected {what}, got {token.text or 'end of input'!r}",
                token.line,
                token.col,
            )
        return self.advance()

    def expect_string(self, what: str) -> Token:
        token = self.current
        if token.kind != "STRING":
            raise ParseError(
                f"expected a quoted {what} string, "
                f"got {token.text or 'end of input'!r}",
                token.line,
                token.col,
            )
        return self.advance()

    def expect_number(self, what: str) -> Token:
        token = self.current
        if token.kind != "NUMBER":
            raise ParseError(
                f"expected a {what} number, got {token.text or 'end of input'!r}",
                token.line,
                token.col,
            )
        return self.advance()

    # -- grammar --------------------------------------------------------
    def statement(self) -> SelectStmt:
        start = self.expect_keyword("SELECT")
        projection = self.projection()
        self.expect_keyword("FROM")
        left = self.table_ref()
        join = self.join_clause()
        window: "WindowClause | None" = None
        policy: "PolicyClause | None" = None
        scale: "ScaleClause | None" = None
        keys: "KeysClause | None" = None
        while self.current.kind != "EOF":
            token = self.current
            if self.at_keyword("WHERE"):
                self.advance()
                if join.condition is not None:
                    raise ParseError(
                        "both ON and WHERE give a join condition; use one",
                        token.line,
                        token.col,
                    )
                condition = self.condition()
                join = JoinClause(
                    kind=join.kind,
                    table=join.table,
                    condition=condition,
                    line=join.line,
                    col=join.col,
                )
            elif self.at_keyword("WINDOW"):
                if window is not None:
                    raise ParseError("duplicate WINDOW clause", token.line, token.col)
                self.advance()
                spec = self.expect_string("window spec")
                window = WindowClause(
                    spec=spec.text[1:-1], line=token.line, col=token.col
                )
            elif self.at_keyword("POLICY"):
                if policy is not None:
                    raise ParseError("duplicate POLICY clause", token.line, token.col)
                self.advance()
                spec = self.expect_string("policy mode")
                queue: "int | None" = None
                if self.at_keyword("QUEUE"):
                    self.advance()
                    queue_tok = self.expect_number("queue depth")
                    value = _literal_value(queue_tok.text)
                    if not isinstance(value, int):
                        raise ParseError(
                            "queue depth must be an integer",
                            queue_tok.line,
                            queue_tok.col,
                        )
                    queue = value
                policy = PolicyClause(
                    spec=spec.text[1:-1],
                    queue=queue,
                    line=token.line,
                    col=token.col,
                )
            elif self.at_keyword("SCALE"):
                if scale is not None:
                    raise ParseError("duplicate SCALE clause", token.line, token.col)
                self.advance()
                scale_tok = self.expect_number("scale")
                lo = hi = 0.0
                if self.at_keyword("DOMAIN"):
                    self.advance()
                    lo = float(self.signed_number("domain lower bound"))
                    self.expect_keyword("TO")
                    hi = float(self.signed_number("domain upper bound"))
                scale = ScaleClause(
                    scale=float(scale_tok.text),
                    domain_min=lo,
                    domain_max=hi,
                    line=token.line,
                    col=token.col,
                )
            elif self.at_keyword("KEYS"):
                if keys is not None:
                    raise ParseError("duplicate KEYS clause", token.line, token.col)
                self.advance()
                if not self.at_keyword("INT", "FLOAT"):
                    raise ParseError(
                        f"expected INT or FLOAT, got {self.current.text!r}",
                        self.current.line,
                        self.current.col,
                    )
                dtype = self.advance()
                keys = KeysClause(
                    dtype=dtype.text.lower(), line=token.line, col=token.col
                )
            else:
                raise ParseError(
                    f"unexpected {token.text!r} after the join",
                    token.line,
                    token.col,
                )
        return SelectStmt(
            projection=projection,
            left=left,
            join=join,
            window=window,
            policy=policy,
            scale=scale,
            keys=keys,
            line=start.line,
            col=start.col,
        )

    def projection(self) -> str:
        if self.at_keyword("COUNT"):
            self.advance()
            self.expect_op("(")
            self.expect_op("*")
            self.expect_op(")")
            return "count(*)"
        self.expect_op("*")
        return "*"

    def table_ref(self) -> TableRef:
        name = self.expect_ident("a table name")
        alias: "str | None" = None
        if self.at_keyword("AS"):
            self.advance()
            alias = self.expect_ident("an alias").text
        elif self.current.kind == "IDENT":
            alias = self.advance().text
        return TableRef(
            name=name.text, alias=alias, line=name.line, col=name.col
        )

    def join_clause(self) -> JoinClause:
        token = self.current
        if token.kind == "OP" and token.text == ",":
            # Comma form: FROM r1, r2 [WHERE cond] — an implicit join whose
            # condition (if any) arrives later via WHERE.
            self.advance()
            table = self.table_ref()
            return JoinClause(
                kind="implicit", table=table, line=token.line, col=token.col
            )
        kind = "inner"
        if self.at_keyword("CROSS"):
            kind = "cross"
            self.advance()
        elif self.at_keyword("INNER"):
            self.advance()
        join_tok = self.expect_keyword("JOIN")
        table = self.table_ref()
        condition: "Node | None" = None
        if self.at_keyword("ON"):
            self.advance()
            condition = self.condition()
        return JoinClause(
            kind=kind,
            table=table,
            condition=condition,
            line=join_tok.line,
            col=join_tok.col,
        )

    def condition(self) -> Node:
        terms = [self.conjunct()]
        start = terms[0]
        while self.at_keyword("AND"):
            self.advance()
            terms.append(self.conjunct())
        if len(terms) == 1:
            return terms[0]
        return AndCondition(
            terms=tuple(terms), line=start.line, col=start.col
        )

    def conjunct(self) -> Node:
        if self.at_keyword("ABS"):
            return self.band_abs()
        if self.at_keyword("TRUE", "FALSE"):
            token = self.advance()
            return Literal(
                value=token.text.upper() == "TRUE",
                raw=token.text,
                line=token.line,
                col=token.col,
            )
        left = self.operand()
        if self.at_keyword("BETWEEN"):
            if not isinstance(left, ColumnRef):
                raise ParseError(
                    "BETWEEN band form needs a column on the left",
                    self.current.line,
                    self.current.col,
                )
            return self.band_between(left)
        op_tok = self.current
        if op_tok.kind != "OP" or op_tok.text not in COMPARISON_OPS:
            raise ParseError(
                f"expected a comparison operator, got {op_tok.text!r}",
                op_tok.line,
                op_tok.col,
            )
        self.advance()
        right = self.operand()
        return Comparison(
            op=op_tok.text, left=left, right=right, line=left.line, col=left.col
        )

    def band_abs(self) -> BandPredicate:
        """``ABS(a.x - b.y) <= w``."""
        abs_tok = self.expect_keyword("ABS")
        self.expect_op("(")
        left = self.column()
        self.expect_op("-")
        right = self.column()
        self.expect_op(")")
        self.expect_op("<=")
        width = self.literal("band width")
        return BandPredicate(
            left=left,
            right=right,
            width=width,
            form="abs",
            line=abs_tok.line,
            col=abs_tok.col,
        )

    def band_between(self, left: ColumnRef) -> BandPredicate:
        """``a.x BETWEEN b.y - w AND b.y + w`` (same column, same width)."""
        between_tok = self.expect_keyword("BETWEEN")
        lo_col = self.column()
        self.expect_op("-")
        lo_width = self.literal("band width")
        self.expect_keyword("AND")
        hi_col = self.column()
        self.expect_op("+")
        hi_width = self.literal("band width")
        if (lo_col.table, lo_col.column) != (hi_col.table, hi_col.column):
            raise ParseError(
                "BETWEEN band form must reference one column on both bounds "
                f"(got {lo_col.text()} and {hi_col.text()})",
                hi_col.line,
                hi_col.col,
            )
        if lo_width.raw != hi_width.raw:
            raise ParseError(
                "BETWEEN band form must use one width on both bounds "
                f"(got {lo_width.raw} and {hi_width.raw})",
                hi_width.line,
                hi_width.col,
            )
        return BandPredicate(
            left=left,
            right=lo_col,
            width=lo_width,
            form="between",
            line=between_tok.line,
            col=between_tok.col,
        )

    def operand(self) -> Node:
        token = self.current
        if token.kind == "IDENT":
            return self.column()
        if token.kind == "NUMBER" or (token.kind == "OP" and token.text == "-"):
            return self.literal("a numeric literal")
        raise ParseError(
            f"expected a column or literal, got {token.text or 'end of input'!r}",
            token.line,
            token.col,
        )

    def column(self) -> ColumnRef:
        first = self.expect_ident("a column reference")
        if self.current.kind == "OP" and self.current.text == ".":
            self.advance()
            second = self.expect_ident("a column name")
            return ColumnRef(
                table=first.text,
                column=second.text,
                line=first.line,
                col=first.col,
            )
        return ColumnRef(
            table=None, column=first.text, line=first.line, col=first.col
        )

    def literal(self, what: str) -> Literal:
        sign = ""
        token = self.current
        if token.kind == "OP" and token.text == "-":
            sign = "-"
            self.advance()
        number = self.expect_number(what)
        value = _literal_value(number.text)
        return Literal(
            value=-value if sign else value,
            raw=sign + number.text,
            line=token.line,
            col=token.col,
        )

    def signed_number(self, what: str) -> float:
        sign = 1.0
        if self.current.kind == "OP" and self.current.text == "-":
            sign = -1.0
            self.advance()
        return sign * float(self.expect_number(what).text)


def parse_sql(sql: str) -> SelectStmt:
    """Parse one join spec into a :class:`~repro.query.nodes.SelectStmt`.

    ``docs/query.md`` has the grammar.  Raises :class:`ParseError` when the
    text does not fit it.
    """
    tokens, _ = tokenize_sql(sql)
    return _Parser(tokens).statement()
