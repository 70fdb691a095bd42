"""Independent reference implementations used only to check the library.

These deliberately take different routes than the production code: the
cyclomatic oracle walks a real parse tree, the Halstead oracle counts via the
stdlib tokenizer, and the pass@k oracle enumerates subsets outright.  The
character-at-a-time lexer and the several-pass ``analyze`` at the end are
the earlier production code, kept as a differential oracle for the
one-regex lexer and its single counting pass.  ``normalize_statement_regex``
is likewise the earlier regex form of ``corpus.normalize_statement``.
"""

import ast
import io
import keyword
import math
import re
import string
import tokenize as stdtok
from itertools import combinations
from typing import Iterable

from modeval.codemetrics import (
    DECISION_KEYWORDS,
    CodeMetrics,
    Token,
    TokenKind,
    TokenStream,
    maintainability_index,
)


def normalize_statement_regex(text: str) -> str:
    """Lowercase, blank out ASCII punctuation, turn each ``\\s+`` run into one
    space and strip the ends."""
    text = text.lower().translate({ord(c): " " for c in string.punctuation})
    return re.sub(r"\s+", " ", text).strip()


def cyclomatic_ast(source: str) -> int:
    """Decision-point count from the AST: 1 + if/ternary/loop/boolop/
    comprehension-clause/except-handler occurrences."""
    tree = ast.parse(source)
    cc = 1
    for node in ast.walk(tree):
        if isinstance(node, (ast.If, ast.IfExp, ast.For, ast.AsyncFor, ast.While)):
            cc += 1
        elif isinstance(node, ast.BoolOp):
            cc += len(node.values) - 1
        elif isinstance(node, ast.comprehension):
            cc += 1 + len(node.ifs)
        elif isinstance(node, ast.ExceptHandler):
            cc += 1
    return cc


# Keywords that act as values count as operands, all others as operators.
_VALUE_KEYWORDS = {"True", "False", "None"}


def halstead_volume_std(source: str) -> float:
    """Halstead volume from the stdlib tokenizer with the classical
    classification: keywords are operators (value keywords operands),
    names/literals are operands, punctuation is operators."""
    operators: dict[str, int] = {}
    operands: dict[str, int] = {}
    for tok in stdtok.generate_tokens(io.StringIO(source).readline):
        if tok.type == stdtok.OP:
            operators[tok.string] = operators.get(tok.string, 0) + 1
        elif tok.type == stdtok.NAME:
            if keyword.iskeyword(tok.string) and tok.string not in _VALUE_KEYWORDS:
                operators[tok.string] = operators.get(tok.string, 0) + 1
            else:
                operands[tok.string] = operands.get(tok.string, 0) + 1
        elif tok.type in (stdtok.NUMBER, stdtok.STRING):
            operands[tok.string] = operands.get(tok.string, 0) + 1
    total = sum(operators.values()) + sum(operands.values())
    distinct = len(operators) + len(operands)
    if distinct <= 1:
        return 0.0
    return total * math.log2(distinct)


def pass_at_k_enumerated(n: int, c: int, k: int) -> float:
    """Fraction of k-subsets of n samples containing a correct one, where the
    first c samples are the correct ones.  Brute force."""
    subsets = list(combinations(range(n), k))
    hits = sum(1 for subset in subsets if any(i < c for i in subset))
    return hits / len(subsets)


# --- the character-at-a-time lexer and several-pass analyze --------------------
# Unchanged but for the names and the line total, which counts the source's
# "\n"-terminated lines (plus an unterminated last one) as the tokenizer does.

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


def tokenize_reference(source: str) -> TokenStream:
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
    sloc = len(code_lines & set(range(1, total_lines + 1)))
    c = len(comment_only) / total_lines if total_lines else 0.0
    return sloc, len(comment_only), total_lines, c


def _cyclomatic(tokens: TokenStream) -> int:
    return 1 + sum(
        1 for t in tokens if t.kind is TokenKind.KEYWORD and t.text in DECISION_KEYWORDS
    )


def _halstead_class(token: Token) -> str | None:
    if token.kind in (TokenKind.COMMENT, TokenKind.NEWLINE, TokenKind.INDENT, TokenKind.ERROR):
        return None
    if token.kind is TokenKind.KEYWORD:
        return "operand" if token.text in _VALUE_KEYWORDS else "operator"
    if token.kind is TokenKind.OPERATOR:
        return "operator"
    return "operand"  # identifiers, numbers, strings


def _halstead_volume(stream: Iterable[Token]) -> float:
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


def analyze_reference(source: str, top_level_functions_only: bool = False) -> CodeMetrics:
    """All metrics for one program in a single pass over the token stream."""
    tokens = tokenize_reference(source)
    total_lines = source.count("\n") + (bool(source) and not source.endswith("\n"))
    sloc, _, _, density = _line_counts(tokens, total_lines)
    cc = _cyclomatic(tokens)
    volume = _halstead_volume(tokens)
    mi = maintainability_index(volume, cc, sloc, density)
    defs = _count_defs(tokens, top_level_functions_only)
    return CodeMetrics(
        halstead_volume=volume,
        cyclomatic=cc,
        sloc=sloc,
        comment_density=density,
        maintainability=mi,
        function_count=defs,
    )
