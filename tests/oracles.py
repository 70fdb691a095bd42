"""Independent reference implementations used only to check the library.

These deliberately take different routes than the production code: the
cyclomatic oracle walks a real parse tree, the Halstead oracle counts via the
stdlib tokenizer, and the pass@k oracle enumerates subsets outright.  The
character-at-a-time lexer and the several-pass ``analyze`` at the end are
the earlier production code, kept as a differential oracle for the
one-regex lexer and its single counting pass.  ``normalize_statement_regex``
is likewise the earlier regex form of ``corpus.normalize_statement``.  The
scanners at the very end are the earlier forms of the ``promptgen`` response
scanners: the ``*_splitlines`` ones broke lines wherever ``str.splitlines``
does, and ``parse_mot_response_splitlines`` cut the response into its two step
bodies before scanning them.
"""

import ast
import io
import keyword
import math
import re
import string
import tokenize as stdtok
from dataclasses import dataclass
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
from modeval.promptgen import (
    _DEF_RE,
    _DOCSTRING_OPEN,
    _FENCE_CLOSE,
    _FENCE_OPEN,
    STEP1_DELIMITER,
    STEP2_DELIMITER,
    ModularSolution,
    ParseError,
    SubModule,
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


@dataclass
class StepSplit:
    """The two step bodies of a MoT response and where their delimiter lines start."""

    step1: str
    step2: str
    step1_char: int  # char offset of the STEP 1 delimiter line start
    step2_char: int


def split_steps_splitlines(raw: str) -> StepSplit:
    lines = raw.splitlines(keepends=True)
    offsets: list[int] = []
    pos = 0
    for ln in lines:
        offsets.append(pos)
        pos += len(ln)

    step1_idx = step2_idx = None
    for i, ln in enumerate(lines):
        stripped = ln.strip()
        if step1_idx is None and stripped.startswith(STEP1_DELIMITER):
            step1_idx = i
        elif step1_idx is not None and stripped.startswith(STEP2_DELIMITER):
            step2_idx = i
            break
    end = len(raw.encode("utf-8"))
    if step1_idx is None:
        raise ParseError("missing_step", end, f"no {STEP1_DELIMITER!r} delimiter")
    if step2_idx is None:
        raise ParseError("missing_step", end, f"no {STEP2_DELIMITER!r} delimiter")

    step1_start = offsets[step1_idx] + len(lines[step1_idx])
    step2_delim = offsets[step2_idx]
    step2_start = step2_delim + len(lines[step2_idx])
    return StepSplit(
        step1=raw[step1_start:step2_delim],
        step2=raw[step2_start:],
        step1_char=offsets[step1_idx],
        step2_char=step2_delim,
    )


def parse_outline_splitlines(step1_text: str) -> tuple[list[SubModule], list[str]]:
    entries: list[SubModule] = []
    strays: list[str] = []
    lines = step1_text.splitlines()
    i = 0
    while i < len(lines):
        line = lines[i]
        stripped = line.strip()
        if (
            not stripped
            or stripped.startswith("#")
            or _FENCE_OPEN.match(line)
            or stripped in ("pass", "...")
        ):
            i += 1
            continue
        m = _DEF_RE.match(line)
        if not m:
            strays.append(stripped)
            i += 1
            continue

        name = m.group(1)
        header_lines = [line]
        while not header_lines[-1].rstrip().endswith(":") and i + 1 < len(lines):
            i += 1
            header_lines.append(lines[i])
            if len(header_lines) > 8:
                break
        header = "\n".join(header_lines)
        if not header.rstrip().endswith(":"):
            strays.append(stripped)
            i += 1
            continue
        i += 1

        while i < len(lines) and not lines[i].strip():
            i += 1
        doc_open = _DOCSTRING_OPEN.match(lines[i]) if i < len(lines) else None
        if doc_open is None:
            strays.append(f"{name}: header without docstring")
            continue
        quote = doc_open.group(1)
        rest = lines[i][doc_open.end():]
        if quote in rest:
            doc = rest[: rest.index(quote)]
            i += 1
        else:
            doc_parts = [rest]
            i += 1
            while i < len(lines) and quote not in lines[i]:
                doc_parts.append(lines[i])
                i += 1
            if i < len(lines):
                doc_parts.append(lines[i][: lines[i].index(quote)])
                i += 1
            doc = "\n".join(doc_parts)
        doc = doc.strip()
        if not doc:
            strays.append(f"{name}: empty docstring")
            continue
        entries.append(SubModule(name=name, header=header, docstring=doc))
    return entries, strays


def extract_code_blocks_splitlines(text: str) -> list[tuple[str, int]]:
    blocks: list[tuple[str, int]] = []
    lines = text.splitlines(keepends=True)
    pos = 0
    open_at: int | None = None
    content: list[str] = []
    for ln in lines:
        body = ln.rstrip("\n")
        if open_at is None:
            if _FENCE_OPEN.match(body):
                open_at = pos
                content = []
        else:
            if _FENCE_CLOSE.match(body):
                blocks.append(("\n".join(content), open_at))
                open_at = None
            else:
                content.append(body)
        pos += len(ln)
    if open_at is not None:
        blocks.append(("\n".join(content), open_at))
    return blocks


def parse_mot_response_splitlines(raw: str) -> ModularSolution:
    """The two-step grammar over the step bodies that ``split_steps_splitlines``
    cuts: a block's offset in the final body is shifted by where that body starts."""
    split = split_steps_splitlines(raw)

    def code_blocks(text: str, shift: int) -> list[tuple[str, int]]:
        return [(code, shift + at) for code, at in extract_code_blocks_splitlines(text)
                if code.strip()]

    def byte_offset(char_index: int) -> int:
        return len(raw[:char_index].encode("utf-8"))

    early = code_blocks(raw[:split.step1_char], 0)
    if early:
        raise ParseError("code_before_outline", byte_offset(early[0][1]),
                         "code block appears before the outline region")
    outline, strays = parse_outline_splitlines(split.step1)
    if not outline:
        raise ParseError("no_submodules", byte_offset(split.step1_char), "no sub-modules outlined")
    if strays:
        raise ParseError("outline_strays", byte_offset(split.step1_char),
                         f"outline contains more than headers and docstrings: {strays[0]!r}")
    blocks = code_blocks(split.step2, len(raw) - len(split.step2))
    if not blocks:
        raise ParseError("no_final_code", byte_offset(split.step2_char),
                         "0 code blocks in the final region")
    if len(blocks) > 1:
        raise ParseError("multiple_main", byte_offset(blocks[1][1]),
                         f"{len(blocks)} code blocks in the final region")
    return ModularSolution(outline=outline, final_code=blocks[0][0])
