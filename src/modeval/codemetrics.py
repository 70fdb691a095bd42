"""Static source metrics: SLOC, comment density, cyclomatic complexity,
Halstead volume, maintainability index, function count.

Everything is computed lexically from a tolerant lexer, not a parse tree,
so slightly broken generated code still gets measured.  The lexer is one
compiled regular expression whose alternatives are tried in priority order
at each position (newline, blanks, line continuation, comment, string,
number, name, operator, any other character as an error token).  The
metrics do not go through ``tokenize``'s ``Token`` list: one ``findall``
of the same alternatives, with the blanks after each lexeme folded into it,
returns the lexemes' texts; a ``Counter`` of them gives Halstead's counts
and the decision keywords, each distinct lexeme is classified once, and one
loop over the texts tracks lines, docstrings and top-level ``def``s.  Lines
are the ``\\n``-terminated lines of the source.

``MetricsCache`` replays ``analyze`` results from an append-only log.

The maintainability index is

    MI = max(0, 171 - 5.2*log2(V) - 0.23*CC - 16.2*log2(LOC)
                + 50*sin(sqrt(2.46*C)))

with every log2 term defined as 0 when its argument is <= 1, V the Halstead
volume, CC the cyclomatic complexity, LOC the source lines of code and C the
comment-line ratio in [0, 1].
"""

from __future__ import annotations

import hashlib
import json
import keyword
import math
import re
from collections import Counter
from dataclasses import asdict, dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, NamedTuple

from .corpus import EntryLog, decode


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

# Part of every metrics-cache key.  Bump it when a change can change a
# metric's value for some source, so metrics recorded before the change miss
# once instead of being replayed.
METRICS_SEMANTICS = 1

_KEYWORDS = frozenset(keyword.kwlist)

_OPERATORS = [
    "**=", "//=", ">>=", "<<=", "...", "!=", ">=", "<=", "==", "->", ":=",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "@=", "**", "//",
    "<<", ">>", "+", "-", "*", "/", "%", "@", "&", "|", "^", "~", "<",
    ">", "=", "(", ")", "[", "]", "{", "}", ",", ":", ".", ";",
]

# Strings take up to two prefix letters and honor backslash escapes.  An
# unterminated string runs to the end of the source, except that a
# single-quote one stops before its line break, so lexing can continue.
# Operators are listed longest first, so the longest one at a position wins.
_TOKEN_RE = re.compile(
    r"""
      (?P<newline>\n)
    | (?P<blank>[ \t]+)
    | (?P<space>[\r\f]+)
    | (?P<continuation>\\\n)
    | (?P<comment>\#[^\n]*)
    | (?P<string>[rRbBuUfF]{0,2}(?:
          '''[^\\']*(?:(?:\\[\s\S]?|'(?!''))[^\\']*)*(?:''')?
        | \"\"\"[^\\"]*(?:(?:\\[\s\S]?|"(?!""))[^\\"]*)*(?:\"\"\")?
        | '[^\\'\n]*(?:\\[\s\S]?[^\\'\n]*)*'?
        | "[^\\"\n]*(?:\\[\s\S]?[^\\"\n]*)*"?
      ))
    | (?P<number>
          0[xX][0-9a-fA-F_]+ | 0[oO][0-7_]+ | 0[bB][01_]+
        | (?:\d[\d_]*)?\.\d[\d_]*(?:[eE][+-]?\d+)?[jJ]?
        | \d[\d_]*\.(?!\.)(?:[eE][+-]?\d+)?[jJ]?
        | \d[\d_]*(?:[eE][+-]?\d+)?[jJ]?
      )
    | (?P<name>[^\W\d]\w*)
    | (?P<operator>"""
    + "|".join(re.escape(op) for op in sorted(_OPERATORS, key=len, reverse=True))
    + r""")
    | (?P<error>.)
    """,
    re.VERBOSE,
)
_GROUP_KINDS = {
    "comment": TokenKind.COMMENT,
    "number": TokenKind.NUMBER,
    "operator": TokenKind.OPERATOR,
    "error": TokenKind.ERROR,
}
_HALSTEAD_KINDS = frozenset({
    TokenKind.OPERATOR, TokenKind.OPERAND, TokenKind.KEYWORD, TokenKind.STRING, TokenKind.NUMBER,
})


def tokenize(source: str) -> TokenStream:
    """Lex Python-style surface grammar, tolerantly.

    Unknown characters become error tokens and lexing continues.  Every
    non-whitespace character of the source lands in some token, so the
    stream reproduces the source's line structure.  A run of blanks and
    tabs opening a line that holds anything else is an INDENT token; an
    explicit line continuation is an error token ``\\`` that does not start
    a new line.
    """
    tokens: TokenStream = []
    append = tokens.append
    token = tuple.__new__  # token(Token, fields) skips Token's pure-Python __new__
    keywords = _KEYWORDS
    # per-token loops read kinds from locals: TokenKind.X is a slow class lookup
    indent, newline, keyword, operand, string, error = (
        TokenKind.INDENT, TokenKind.NEWLINE, TokenKind.KEYWORD, TokenKind.OPERAND,
        TokenKind.STRING, TokenKind.ERROR,
    )
    kinds = _GROUP_KINDS
    line = 1
    at_line_start = True
    for m in _TOKEN_RE.finditer(source):
        group = m.lastgroup
        if group == "blank":
            if at_line_start:
                at_line_start = False
                end = m.end()
                if source[end:end + 1] not in ("", "\n"):
                    append(token(Token, (indent, m.group(), line)))
            continue
        if group == "newline":
            append(token(Token, (newline, "\n", line)))
            line += 1
            at_line_start = True
            continue
        at_line_start = False
        if group == "name":
            text = m.group()
            append(token(Token, (keyword if text in keywords else operand, text, line)))
        elif group == "string":
            text = m.group()
            append(token(Token, (string, text, line)))
            line += text.count("\n")
        elif group == "continuation":
            append(token(Token, (error, "\\", line)))
            line += 1
        elif group != "space":
            append(token(Token, (kinds[group], m.group(), line)))
    return tokens


# The counter's scan: the lexer's alternatives, unnamed, in the one group
# that ``findall`` returns, each match swallowing the blanks after it.  A line
# break keeps its blanks, so a lexeme of a line break and blanks opens an
# indented line.  Blanks open a match only at the start of the source.
_LEXEME_RE = re.compile(
    "(" + re.sub(r"\(\?P<\w+>", "(?:", _TOKEN_RE.pattern).replace(r"(?:\n)", r"(?:\n[ \t]*)", 1)
    + r")[ \t]*",
    re.VERBOSE,
)
_COUNTED = frozenset({"operator", "name", "def", "number", "string"})  # Halstead's
_PLAIN = frozenset({"operator", "name", "number", "error"})  # code, and nothing else


def _measure(source: str) -> tuple[float, int, int, int, int, int, int]:
    """(volume, decisions, functions, top_level_functions, sloc, comment_lines,
    total_lines) of ``source``, counted straight off one ``_LEXEME_RE`` scan.

    Each distinct lexeme is classified once.  Halstead's N counts operator and
    operand lexemes and n the distinct ones.  A line is code when a lexeme
    other than a comment covers it, and comment when a comment or a docstring
    does; a docstring is a string that is the only lexeme of its logical line
    besides comments.  A ``def`` is top level when no blanks open its line.
    """
    lexemes = _LEXEME_RE.findall(source)
    counts = Counter(lexemes)
    kinds = {lexeme: "def" if lexeme == "def" else _TOKEN_RE.match(lexeme).lastgroup
             for lexeme in counts}
    counted = [n for lexeme, n in counts.items() if kinds[lexeme] in _COUNTED]
    volume = sum(counted) * math.log2(len(counted)) if len(counted) > 1 else 0.0

    code_lines: set[int] = set()
    comment_lines: set[int] = set()
    add_code = code_lines.add
    line, top_level = 1, 0
    indented = 1 if source[:1] in (" ", "\t") else 0  # the latest line that blanks open
    opened = False  # a lexeme other than a comment stands on this logical line
    # A string that opens its logical line stays pending until the line break:
    # it is a docstring unless a lexeme lands on its last line after it.
    doc = range(0)
    for lexeme in lexemes:
        kind = kinds[lexeme]
        if kind in _PLAIN:
            add_code(line)
            opened = True
            continue
        if kind == "newline":
            if doc:
                (code_lines if doc[-1] in code_lines else comment_lines).update(doc)
                doc = range(0)
            line += 1
            if len(lexeme) > 1:
                indented = line
            opened = False
            continue
        if kind == "string":
            lines = range(line, line + lexeme.count("\n") + 1)
            if opened:
                code_lines.update(lines)
            else:
                doc = lines
            line = lines[-1]
        elif kind == "def":
            add_code(line)
            top_level += line != indented
        elif kind == "continuation":
            add_code(line)
            line += 1
        elif kind == "comment":
            comment_lines.add(line)
            continue
        else:  # blanks that open the source, \r and \f
            continue
        opened = True
    if doc:
        (code_lines if doc[-1] in code_lines else comment_lines).update(doc)

    total = source.count("\n") + (bool(source) and not source.endswith("\n"))
    sloc = len({ln for ln in code_lines if ln <= total})
    comment_only = len({ln for ln in comment_lines - code_lines if ln <= total})
    decisions = sum(counts[lexeme] for lexeme in DECISION_KEYWORDS)
    return volume, decisions, counts["def"], top_level, sloc, comment_only, total


def sloc_and_comments(source: str) -> tuple[int, int, int, float]:
    """(sloc, comment_lines, total_lines, comment_density).

    sloc counts lines holding at least one non-comment, non-blank token;
    comment lines are pure-comment lines plus docstring-only lines; the
    density is comment_lines / total_lines (0 for empty source), where the
    total counts the ``\\n``-terminated lines, plus an unterminated last one.
    """
    *_, sloc, comments, total = _measure(source)
    return sloc, comments, total, comments / total if total else 0.0


def cyclomatic_complexity(source: str) -> int:
    """1 + number of decision tokens (see DECISION_KEYWORDS)."""
    return 1 + _measure(source)[1]


def halstead_volume(stream: Iterable[Token]) -> float:
    """V = N * log2(n): total vs distinct operator/operand occurrences."""
    texts = [text for kind, text, _ in stream if kind in _HALSTEAD_KINDS]
    distinct = len(set(texts))
    return len(texts) * math.log2(distinct) if distinct > 1 else 0.0


def maintainability_index(volume: float, cyclomatic: int, loc: int, comment_density: float) -> float:
    """Composite maintainability score, clamped at 0 (max is 171 + 50)."""
    if not (0.0 <= comment_density <= 1.0):
        raise ValueError(f"comment density must be in [0, 1], got {comment_density}")
    if volume < 0:
        raise ValueError("Halstead volume must be >= 0")
    if cyclomatic < 1:
        raise ValueError("cyclomatic complexity must be >= 1")
    if loc < 0:
        raise ValueError("LOC must be >= 0")
    log = lambda x: math.log2(x) if x > 1 else 0.0
    mi = (
        171.0
        - 5.2 * log(volume)
        - 0.23 * cyclomatic
        - 16.2 * log(loc)
        + 50.0 * math.sin(math.sqrt(2.46 * comment_density))
    )
    return max(0.0, mi)


def function_count(source: str, top_level_only: bool = False) -> int:
    """Number of ``def`` definitions, at any nesting depth by default."""
    return _measure(source)[3 if top_level_only else 2]


@dataclass
class CodeMetrics:
    halstead_volume: float
    cyclomatic: int
    sloc: int
    comment_density: float
    maintainability: float
    function_count: int


def analyze(source: str, top_level_functions_only: bool = False) -> CodeMetrics:
    """All metrics for one program from one counting pass."""
    volume, decisions, functions, top_level, sloc, comments, total = _measure(source)
    density = comments / total if total else 0.0
    cc = 1 + decisions
    return CodeMetrics(
        halstead_volume=volume,
        cyclomatic=cc,
        sloc=sloc,
        comment_density=density,
        maintainability=maintainability_index(volume, cc, sloc, density),
        function_count=top_level if top_level_functions_only else functions,
    )


def _metrics_from_json(obj: dict) -> CodeMetrics:
    """Metrics from their ``asdict`` JSON, or TypeError or ValueError unless
    ``analyze`` could have returned them: each float a finite float (an int
    would print differently), and each value in its range."""
    m = decode(CodeMetrics, obj, "metrics")
    floats = (m.halstead_volume, m.comment_density, m.maintainability)
    if not all(type(v) is float and math.isfinite(v) for v in floats):
        raise TypeError(f"metrics floats must be finite floats, got {floats}")
    if not (m.halstead_volume >= 0 and m.cyclomatic >= 1 and m.sloc >= 0
            and 0 <= m.comment_density <= 1 and 0 <= m.maintainability <= 221
            and m.function_count >= 0):
        raise ValueError(f"metrics out of range: {obj}")
    return m


class MetricsCache:
    """Disk cache of ``analyze`` results keyed by source,
    ``top_level_functions_only`` and ``METRICS_SEMANTICS``.

    A rerun with an unchanged program reads its metrics back instead of
    measuring it again.  A miss calls the module-level ``analyze``.
    """

    def __init__(self, root: Path) -> None:
        self._log = EntryLog(Path(root))
        self.hits = self.misses = 0

    def analyze(self, source: str, top_level_functions_only: bool = False) -> CodeMetrics:
        """``analyze`` of the same arguments, replayed from disk when recorded."""
        payload = json.dumps([source, top_level_functions_only, METRICS_SEMANTICS])
        key = hashlib.sha256(payload.encode("utf-8")).hexdigest()
        metrics = self._log.get(key, _metrics_from_json)
        if metrics is not None:
            self.hits += 1
            return metrics
        metrics = analyze(source, top_level_functions_only)
        self.misses += 1
        self._log.put(key, asdict(metrics))
        return metrics
