"""Static source metrics: SLOC, comment density, cyclomatic complexity,
Halstead volume, maintainability index, function count.

Everything is computed lexically from a tolerant tokenizer, not a parse
tree, so slightly broken generated code still gets measured.  The tokenizer
is one compiled regular expression whose alternatives are tried in priority
order at each position (newline, blanks, line continuation, comment, string,
number, name, operator, any other character as an error token); the loop
over its matches keeps only the line number and whether it stands at the
start of a line.  Every metric then comes from a single counting pass over
the token stream.  Lines are the ``\\n``-terminated lines of the source.

The maintainability index is

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


@dataclass(frozen=True)
class _Counts:
    """What one pass over a token stream counts."""

    volume: float
    decisions: int
    functions: int
    top_level_functions: int
    code_lines: set[int]
    comment_lines: set[int]

    def line_stats(self, source: str) -> tuple[int, int, int, float]:
        """(sloc, comment_lines, total_lines, comment_density) of ``source``."""
        total = source.count("\n")
        if source and not source.endswith("\n"):
            total += 1
        sloc = len({ln for ln in self.code_lines if ln <= total})
        comment_only = len({ln for ln in self.comment_lines - self.code_lines if ln <= total})
        return sloc, comment_only, total, comment_only / total if total else 0.0


def _count(tokens: TokenStream) -> _Counts:
    """Count everything the metrics need in one pass over ``tokens``.

    Halstead: operators are operator tokens and the keywords the table calls
    operators; operands are names, numbers, strings and the other keywords.
    Lines: a line is code when a token other than a comment covers it, and
    comment when a comment or a docstring does; a docstring is a string that
    is the only token of its logical line besides comments.  A ``def`` is
    top level when no INDENT opens its line.
    """
    keyword_class = halstead_classes()
    operators: set[str] = set()
    operands: set[str] = set()
    code_lines: set[int] = set()
    comment_lines: set[int] = set()
    add_operator, add_operand = operators.add, operands.add
    add_code, add_comment = code_lines.add, comment_lines.add
    operator, operand, keyword, string, number, newline, indent, comment = (
        TokenKind.OPERATOR, TokenKind.OPERAND, TokenKind.KEYWORD, TokenKind.STRING,
        TokenKind.NUMBER, TokenKind.NEWLINE, TokenKind.INDENT, TokenKind.COMMENT,
    )
    uncounted = decisions = functions = top_level_functions = 0  # uncounted: not Halstead
    indented = 0  # line of the latest INDENT token
    opened = False  # a token other than a comment stands on this logical line
    # A string that opens its logical line stays pending until the NEWLINE:
    # it is a docstring unless a token lands on its last line after it.
    doc = range(0)
    for kind, text, line in tokens:
        if kind is operator:
            add_operator(text)
            add_code(line)
        elif kind is operand:
            add_operand(text)
            add_code(line)
        elif kind is newline:
            if doc:
                (code_lines if doc[-1] in code_lines else comment_lines).update(doc)
                doc = range(0)
            uncounted += 1
            opened = False
            continue
        elif kind is indent:
            indented = line
            uncounted += 1
            continue
        elif kind is keyword:
            if keyword_class.get(text, "operator") == "operator":
                add_operator(text)
            else:
                add_operand(text)
            add_code(line)
            if text in DECISION_KEYWORDS:
                decisions += 1
            elif text == "def":
                functions += 1
                if line != indented:
                    top_level_functions += 1
        elif kind is string:
            add_operand(text)
            lines = range(line, line + text.count("\n") + 1)
            if opened:
                code_lines.update(lines)
            else:
                doc = lines
        elif kind is number:
            add_operand(text)
            add_code(line)
        elif kind is comment:
            add_comment(line)
            uncounted += 1
            continue
        else:  # error tokens
            add_code(line)
            uncounted += 1
        opened = True
    if doc:
        (code_lines if doc[-1] in code_lines else comment_lines).update(doc)
    distinct = len(operators) + len(operands)
    volume = (len(tokens) - uncounted) * math.log2(distinct) if distinct > 1 else 0.0
    return _Counts(volume, decisions, functions, top_level_functions, code_lines, comment_lines)


def sloc_and_comments(source: str) -> tuple[int, int, int, float]:
    """(sloc, comment_lines, total_lines, comment_density).

    sloc counts lines holding at least one non-comment, non-blank token;
    comment lines are pure-comment lines plus docstring-only lines; the
    density is comment_lines / total_lines (0 for empty source), where the
    total counts the ``\\n``-terminated lines, plus an unterminated last one.
    """
    return _count(tokenize(source)).line_stats(source)


def cyclomatic_complexity(source: str) -> int:
    """1 + number of decision tokens (see DECISION_KEYWORDS)."""
    return 1 + _count(tokenize(source)).decisions


def halstead_volume(stream: Iterable[Token]) -> float:
    """V = N * log2(n): total vs distinct operator/operand occurrences."""
    return _count(list(stream)).volume


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
    counts = _count(tokenize(source))
    return counts.top_level_functions if top_level_only else counts.functions


@dataclass
class CodeMetrics:
    halstead_volume: float
    cyclomatic: int
    sloc: int
    comment_density: float
    maintainability: float
    function_count: int


def analyze(source: str, variant: str = "log2", top_level_functions_only: bool = False) -> CodeMetrics:
    """All metrics for one program from one tokenization and one counting pass."""
    counts = _count(tokenize(source))
    sloc, _, _, density = counts.line_stats(source)
    cc = 1 + counts.decisions
    return CodeMetrics(
        halstead_volume=counts.volume,
        cyclomatic=cc,
        sloc=sloc,
        comment_density=density,
        maintainability=maintainability_index(counts.volume, cc, sloc, density, variant=variant),
        function_count=counts.top_level_functions if top_level_functions_only else counts.functions,
    )
