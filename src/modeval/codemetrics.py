"""Static source metrics: SLOC, comment density, cyclomatic complexity,
Halstead volume, maintainability index, function count.

Everything is computed lexically from a tolerant hand-rolled tokenizer, not
a parse tree, so slightly broken generated code still gets measured.  The
maintainability index is

    MI = max(0, 171 - 5.2*log2(V) - 0.23*CC - 16.2*log2(LOC)
                + 50*sin(sqrt(2.46*C)))

with every log2 term defined as 0 when its argument is <= 1, V the Halstead
volume, CC the cyclomatic complexity, LOC the source lines of code and C the
comment-line ratio in [0, 1].  A ``variant="ln"`` switch swaps in the
natural-log / 2.4-coefficient flavor used by older analyzers for
cross-checking; the log2 form is the default.
"""

from __future__ import annotations

import keyword
import math
import re
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from importlib import resources
from typing import Iterable, NamedTuple


class TokenKind(str, Enum):
    OPERATOR = "operator"
    OPERAND = "operand"
    KEYWORD = "keyword"
    COMMENT = "comment"
    STRING = "string"
    NUMBER = "number"
    NEWLINE = "newline"
    INDENT = "indent-marker"
    ERROR = "error"


class Token(NamedTuple):
    kind: TokenKind
    text: str
    line: int


TokenStream = list[Token]

# Decision points: 1 + their count is the cyclomatic complexity.  `else`
# never adds a path beyond its `if`; comprehension `for`/`if` clauses count
# because they are loop/branch keywords lexically.
DECISION_KEYWORDS = frozenset({"if", "elif", "for", "while", "and", "or", "except"})

_KEYWORDS = frozenset(keyword.kwlist)

_NUMBER_RE = re.compile(
    r"""
    0[xX][0-9a-fA-F_]+ | 0[oO][0-7_]+ | 0[bB][01_]+
    | (?:\d[\d_]*)?\.\d[\d_]*(?:[eE][+-]?\d+)?[jJ]?
    | \d[\d_]*\.(?!\.)(?:[eE][+-]?\d+)?[jJ]?
    | \d[\d_]*(?:[eE][+-]?\d+)?[jJ]?
    """,
    re.VERBOSE,
)
_NAME_RE = re.compile(r"[^\W\d]\w*")  # unicode identifiers allowed, like the language
_STRING_PREFIX_RE = re.compile(r"[rRbBuUfF]{0,2}(\"\"\"|'''|\"|')")

_OPERATORS = [
    "**=", "//=", ">>=", "<<=", "...", "!=", ">=", "<=", "==", "->", ":=",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "@=", "**", "//",
    "<<", ">>", "+", "-", "*", "/", "%", "@", "&", "|", "^", "~", "<",
    ">", "=", "(", ")", "[", "]", "{", "}", ",", ":", ".", ";",
]
# Operators grouped by width, widest first, for a longest-match lookup.
_OPERATORS_BY_WIDTH = [
    (width, frozenset(op for op in _OPERATORS if len(op) == width)) for width in (3, 2, 1)
]


def _scan_string(source: str, start: int, quote: str) -> int:
    """Index just past the closing quote, honoring backslash escapes.

    Unterminated strings run to end of source (single-quote flavors stop at
    the end of the line) so lexing can continue.
    """
    i = start
    n = len(source)
    triple = len(quote) == 3
    while i < n:
        ch = source[i]
        if ch == "\\":
            i += 2
            continue
        if not triple and ch == "\n":
            return i  # unterminated single-line string
        if source.startswith(quote, i):
            return i + len(quote)
        i += 1
    return n


def tokenize(source: str) -> TokenStream:
    """Lex Python-style surface grammar, tolerantly.

    Unknown characters become error tokens and lexing continues.  Every
    non-whitespace character of the source lands in some token, so the
    stream reproduces the source's line structure.
    """
    tokens: TokenStream = []
    i = 0
    n = len(source)
    line = 1
    at_line_start = True
    while i < n:
        ch = source[i]
        if at_line_start:
            j = i
            while j < n and source[j] in " \t":
                j += 1
            if j >= n:
                break
            if source[j] == "\n":
                tokens.append(Token(TokenKind.NEWLINE, "\n", line))
                line += 1
                i = j + 1
                continue
            if j > i:
                tokens.append(Token(TokenKind.INDENT, source[i:j], line))
            i = j
            at_line_start = False
            continue
        if ch == "\n":
            tokens.append(Token(TokenKind.NEWLINE, "\n", line))
            line += 1
            i += 1
            at_line_start = True
            continue
        if ch in " \t\r\f":
            i += 1
            continue
        if ch == "\\" and i + 1 < n and source[i + 1] == "\n":
            # explicit line continuation: swallow, logical line continues
            tokens.append(Token(TokenKind.ERROR, "\\", line))
            line += 1
            i += 2
            continue
        if ch == "#":
            end = source.find("\n", i)
            end = n if end == -1 else end
            tokens.append(Token(TokenKind.COMMENT, source[i:end], line))
            i = end
            continue

        m = _STRING_PREFIX_RE.match(source, i)
        if m:
            quote = m.group(1)
            end = _scan_string(source, m.end(), quote)
            text = source[i:end]
            tokens.append(Token(TokenKind.STRING, text, line))
            line += text.count("\n")
            i = end
            continue

        if ch.isdigit() or (ch == "." and i + 1 < n and source[i + 1].isdigit()):
            m = _NUMBER_RE.match(source, i)
            if m:
                tokens.append(Token(TokenKind.NUMBER, m.group(), line))
                i = m.end()
                continue

        m = _NAME_RE.match(source, i)
        if m:
            text = m.group()
            kind = TokenKind.KEYWORD if text in _KEYWORDS else TokenKind.OPERAND
            tokens.append(Token(kind, text, line))
            i = m.end()
            continue

        for width, operators in _OPERATORS_BY_WIDTH:
            op = source[i:i + width]
            if op in operators:
                tokens.append(Token(TokenKind.OPERATOR, op, line))
                i += width
                break
        else:
            tokens.append(Token(TokenKind.ERROR, ch, line))
            i += 1
    return tokens


_CONTENT_KINDS = frozenset(
    {TokenKind.OPERATOR, TokenKind.OPERAND, TokenKind.KEYWORD,
     TokenKind.STRING, TokenKind.NUMBER, TokenKind.ERROR}
)


def _standalone_string_spans(tokens: TokenStream) -> set[int]:
    """Lines covered by docstring-style standalone string literals."""
    spans: set[int] = set()
    content = [t for t in tokens if t.kind in _CONTENT_KINDS or t.kind is TokenKind.NEWLINE]
    for idx, tok in enumerate(content):
        if tok.kind is not TokenKind.STRING:
            continue
        prev_ok = idx == 0 or content[idx - 1].kind is TokenKind.NEWLINE
        nxt = content[idx + 1] if idx + 1 < len(content) else None
        next_ok = nxt is None or nxt.kind is TokenKind.NEWLINE
        if prev_ok and next_ok:
            spans.update(range(tok.line, tok.line + tok.text.count("\n") + 1))
    return spans


def sloc_and_comments(source: str) -> tuple[int, int, int, float]:
    """(sloc, comment_lines, total_lines, comment_density).

    sloc counts lines holding at least one non-comment, non-blank token;
    comment lines are pure-comment lines plus docstring-only lines; the
    density is comment_lines / total_lines (0 for empty source).
    """
    return _line_counts(tokenize(source), len(source.splitlines()))


def _line_counts(tokens: TokenStream, total_lines: int) -> tuple[int, int, int, float]:
    doc_lines = _standalone_string_spans(tokens)
    code_lines: set[int] = set()
    comment_lines: set[int] = set()
    for tok in tokens:
        if tok.kind is TokenKind.COMMENT:
            comment_lines.add(tok.line)
        elif tok.kind in _CONTENT_KINDS:
            span = range(tok.line, tok.line + tok.text.count("\n") + 1)
            if tok.kind is TokenKind.STRING and tok.line in doc_lines:
                comment_lines.update(span)
            else:
                code_lines.update(span)
    comment_only = (comment_lines - code_lines) & set(range(1, total_lines + 1))
    sloc = len(code_lines)
    c = len(comment_only) / total_lines if total_lines else 0.0
    return sloc, len(comment_only), total_lines, c


def cyclomatic_complexity(source: str) -> int:
    """1 + number of decision tokens (see DECISION_KEYWORDS)."""
    return _cyclomatic(tokenize(source))


def _cyclomatic(tokens: TokenStream) -> int:
    return 1 + sum(
        1 for t in tokens if t.kind is TokenKind.KEYWORD and t.text in DECISION_KEYWORDS
    )


@lru_cache(maxsize=None)
def halstead_classes() -> dict[str, str]:
    """Keyword classification table, loaded from the packaged data file."""
    table: dict[str, str] = {}
    text = resources.files("modeval").joinpath("data", "halstead_classes.tsv").read_text(
        encoding="utf-8"
    )
    for line in text.splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        lexeme, klass = line.split("\t")
        table[lexeme] = klass.strip()
    return table


def _halstead_class(token: Token) -> str | None:
    if token.kind in (TokenKind.COMMENT, TokenKind.NEWLINE, TokenKind.INDENT, TokenKind.ERROR):
        return None
    if token.kind is TokenKind.KEYWORD:
        return halstead_classes().get(token.text, "operator")
    if token.kind is TokenKind.OPERATOR:
        return "operator"
    return "operand"  # identifiers, numbers, strings


def halstead_volume(stream: Iterable[Token]) -> float:
    """V = N * log2(n): total vs distinct operator/operand occurrences."""
    operators: dict[str, int] = {}
    operands: dict[str, int] = {}
    for token in stream:
        klass = _halstead_class(token)
        if klass == "operator":
            operators[token.text] = operators.get(token.text, 0) + 1
        elif klass == "operand":
            operands[token.text] = operands.get(token.text, 0) + 1
    total = sum(operators.values()) + sum(operands.values())
    distinct = len(operators) + len(operands)
    if distinct <= 1:
        return 0.0
    return total * math.log2(distinct)


def maintainability_index(
    volume: float, cyclomatic: int, loc: int, comment_density: float,
    variant: str = "log2",
) -> float:
    """Composite maintainability score, clamped at 0 (max is 171 + 50)."""
    if not (0.0 <= comment_density <= 1.0):
        raise ValueError(f"comment density must be in [0, 1], got {comment_density}")
    if volume < 0:
        raise ValueError("Halstead volume must be >= 0")
    if cyclomatic < 1:
        raise ValueError("cyclomatic complexity must be >= 1")
    if loc < 0:
        raise ValueError("LOC must be >= 0")
    if variant == "log2":
        log = lambda x: math.log2(x) if x > 1 else 0.0
        coef = 2.46
    elif variant == "ln":
        log = lambda x: math.log(x) if x > 1 else 0.0
        coef = 2.4
    else:
        raise ValueError(f"unknown variant {variant!r}")
    mi = (
        171.0
        - 5.2 * log(volume)
        - 0.23 * cyclomatic
        - 16.2 * log(loc)
        + 50.0 * math.sin(math.sqrt(coef * comment_density))
    )
    return max(0.0, mi)


def function_count(source: str, top_level_only: bool = False) -> int:
    """Number of ``def`` definitions, at any nesting depth by default."""
    return _count_defs(tokenize(source), top_level_only)


def _count_defs(tokens: TokenStream, top_level_only: bool) -> int:
    indents: dict[int, str] = {}
    for tok in tokens:
        if tok.kind is TokenKind.INDENT and tok.line not in indents:
            indents[tok.line] = tok.text
    count = 0
    for tok in tokens:
        if tok.kind is TokenKind.KEYWORD and tok.text == "def":
            if top_level_only and indents.get(tok.line, ""):
                continue
            count += 1
    return count


@dataclass
class CodeMetrics:
    halstead_volume: float
    cyclomatic: int
    sloc: int
    comment_density: float
    maintainability: float
    function_count: int


def analyze(source: str, variant: str = "log2", top_level_functions_only: bool = False) -> CodeMetrics:
    """All metrics for one program in a single pass over the token stream."""
    tokens = tokenize(source)
    sloc, _, _, density = _line_counts(tokens, len(source.splitlines()))
    cc = _cyclomatic(tokens)
    volume = halstead_volume(tokens)
    mi = maintainability_index(volume, cc, sloc, density, variant=variant)
    defs = _count_defs(tokens, top_level_functions_only)
    return CodeMetrics(
        halstead_volume=volume,
        cyclomatic=cc,
        sloc=sloc,
        comment_density=density,
        maintainability=mi,
        function_count=defs,
    )
