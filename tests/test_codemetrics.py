import json
import math
import random
from dataclasses import asdict
from pathlib import Path

import pytest

import modeval

from modeval import codemetrics
from modeval.codemetrics import (
    METRICS_SEMANTICS,
    CodeMetrics,
    MetricsCache,
    TokenKind,
    analyze,
    cyclomatic_complexity,
    function_count,
    halstead_volume,
    maintainability_index,
    sloc_and_comments,
    tokenize,
)

from conftest import FIXTURES, cache_entries, count_analyze_calls, edit_cache_entry
from oracles import analyze_reference, tokenize_reference

PROGRAMS = sorted((FIXTURES / "programs").glob("p*.py"))


class TestTokenize:
    def test_simple_assignment(self):
        kinds = [(t.kind, t.text) for t in tokenize("x = 1")]
        assert kinds == [
            (TokenKind.OPERAND, "x"),
            (TokenKind.OPERATOR, "="),
            (TokenKind.NUMBER, "1"),
        ]

    def test_comment_line_single_token(self):
        tokens = [t for t in tokenize("# a full comment line\n") if t.kind is not TokenKind.NEWLINE]
        assert len(tokens) == 1
        assert tokens[0].kind is TokenKind.COMMENT
        assert tokens[0].text == "# a full comment line"

    def test_hand_annotated_mixed_fixture(self):
        source = (
            "def f(n):\n"
            '    """Doc."""\n'
            "    # halve it\n"
            "    return n // 2\n"
        )
        got = [(t.kind.value, t.text) for t in tokenize(source)
               if t.kind not in (TokenKind.NEWLINE, TokenKind.INDENT)]
        assert got == [
            ("keyword", "def"), ("operand", "f"), ("operator", "("),
            ("operand", "n"), ("operator", ")"), ("operator", ":"),
            ("string", '"""Doc."""'),
            ("comment", "# halve it"),
            ("keyword", "return"), ("operand", "n"), ("operator", "//"), ("number", "2"),
        ]

    def test_line_numbers_non_decreasing(self):
        for path in PROGRAMS:
            tokens = tokenize(path.read_text())
            lines = [t.line for t in tokens]
            assert lines == sorted(lines), path.name

    def test_every_nonspace_char_is_covered(self):
        # concatenating token texts reproduces the source minus whitespace
        for path in PROGRAMS:
            source = path.read_text()
            tokens = tokenize(source)
            compact = "".join(t.text for t in tokens if t.kind is not TokenKind.NEWLINE)
            strip = lambda s: "".join(s.split())
            assert strip(compact) == strip(source), path.name

    def test_multiline_string_spans_lines(self):
        tokens = tokenize('x = """a\nb\nc"""\ny = 1\n')
        string_tok = next(t for t in tokens if t.kind is TokenKind.STRING)
        assert string_tok.text.count("\n") == 2
        y_tok = next(t for t in tokens if t.text == "y")
        assert y_tok.line == 4

    def test_unknown_char_is_error_token(self):
        tokens = tokenize("x = 1 $ 2")
        assert any(t.kind is TokenKind.ERROR and t.text == "$" for t in tokens)
        assert any(t.kind is TokenKind.NUMBER and t.text == "2" for t in tokens)

    def test_number_flavors(self):
        source = "a = 0xFF + 0b101 + 1_000 + 3.14 + .5 + 2e10 + 7j"
        nums = [t.text for t in tokenize(source) if t.kind is TokenKind.NUMBER]
        assert nums == ["0xFF", "0b101", "1_000", "3.14", ".5", "2e10", "7j"]

    def test_string_prefixes(self):
        source = "a = rb'x' + f\"y{n}\" + '''tri'''"
        strs = [t.text for t in tokenize(source) if t.kind is TokenKind.STRING]
        assert strs == ["rb'x'", 'f"y{n}"', "'''tri'''"]

    def test_empty_source(self):
        assert tokenize("") == []

    def test_every_operator(self):
        operators = [
            "**=", "//=", ">>=", "<<=", "...", "!=", ">=", "<=", "==", "->", ":=",
            "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "@=", "**", "//",
            "<<", ">>", "+", "-", "*", "/", "%", "@", "&", "|", "^", "~", "<",
            ">", "=", "(", ")", "[", "]", "{", "}", ",", ":", ".", ";",
        ]
        tokens = tokenize(" ".join(operators))
        assert [(t.kind, t.text) for t in tokens] == [(TokenKind.OPERATOR, op) for op in operators]

    @pytest.mark.parametrize("source, expected", [
        ("a**=b", [("operand", "a"), ("operator", "**="), ("operand", "b")]),
        ("a***b", [("operand", "a"), ("operator", "**"), ("operator", "*"), ("operand", "b")]),
        ("a<<=b<<c<=d", [("operand", "a"), ("operator", "<<="), ("operand", "b"),
                         ("operator", "<<"), ("operand", "c"), ("operator", "<="),
                         ("operand", "d")]),
        ("x[...]", [("operand", "x"), ("operator", "["), ("operator", "..."),
                    ("operator", "]")]),
        ("....", [("operator", "..."), ("operator", ".")]),
        ("f()->int", [("operand", "f"), ("operator", "("), ("operator", ")"),
                      ("operator", "->"), ("operand", "int")]),
        ("->>", [("operator", "->"), ("operator", ">")]),
        ("(n:=5)", [("operator", "("), ("operand", "n"), ("operator", ":="),
                    ("number", "5"), ("operator", ")")]),
        ("x=.5", [("operand", "x"), ("operator", "="), ("number", ".5")]),
        ("a.b", [("operand", "a"), ("operator", "."), ("operand", "b")]),
        ("a!b", [("operand", "a"), ("error", "!"), ("operand", "b")]),
        ("a!==b", [("operand", "a"), ("operator", "!="), ("operator", "="), ("operand", "b")]),
        ("a//", [("operand", "a"), ("operator", "//")]),
    ])
    def test_maximal_munch(self, source, expected):
        assert [(t.kind.value, t.text) for t in tokenize(source)] == expected


class TestSlocAndComments:
    def test_pure_code(self):
        assert sloc_and_comments("a = 1\nb = 2\nc = 3\nd = 4\n") == (4, 0, 4, 0.0)

    def test_three_code_one_comment(self):
        sloc, comments, total, c = sloc_and_comments("a = 1\nb = 2\nc = 3\n# note\n")
        assert (sloc, comments, total) == (3, 1, 4)
        assert c == 0.25

    def test_empty_source(self):
        assert sloc_and_comments("") == (0, 0, 0, 0.0)

    def test_blank_lines_neither_code_nor_comment(self):
        sloc, comments, total, c = sloc_and_comments("a = 1\n\n\nb = 2\n")
        assert (sloc, comments, total) == (2, 0, 4)

    def test_docstring_lines_count_as_comments(self):
        source = 'def f():\n    """One.\n    Two.\n    """\n    return 1\n'
        sloc, comments, total, c = sloc_and_comments(source)
        assert comments == 3
        assert sloc == 2  # def line and return line

    def test_inline_comment_is_code(self):
        sloc, comments, total, c = sloc_and_comments("a = 1  # inline\n")
        assert (sloc, comments) == (1, 0)

    def test_assigned_string_is_code(self):
        sloc, comments, total, c = sloc_and_comments('s = """not a docstring"""\n')
        assert (sloc, comments) == (1, 0)

    @pytest.mark.parametrize("source, expected", [
        ("a = 1\n\x0c\n# c\n", (1, 1, 3, 1 / 3)),  # form feed is no line break
        ('x = "\u2028"\n# c\n', (1, 1, 2, 0.5)),  # nor is a line separator in a string
        ("a = 1\r# c\r", (1, 0, 1, 0.0)),  # nor a lone carriage return
        ("x = '''abc\n", (1, 0, 1, 0.0)),  # an unterminated string ends at the last line
    ], ids=["form_feed", "line_separator", "carriage_return", "unterminated_string"])
    def test_total_counts_newline_terminated_lines(self, source, expected):
        assert sloc_and_comments(source) == expected
        assert analyze(source).comment_density == expected[3]


class TestCyclomaticComplexity:
    def test_straight_line(self):
        assert cyclomatic_complexity("a = 1\nb = a * 2\nprint(b)\n") == 1

    def test_if_else_counts_once(self):
        assert cyclomatic_complexity("if a:\n    x = 1\nelse:\n    x = 2\n") == 2

    def test_if_and_while(self):
        assert cyclomatic_complexity("if a and b:\n    pass\nwhile c:\n    pass\n") == 4

    def test_elif_chain(self):
        source = "if a:\n    pass\nelif b:\n    pass\nelif c:\n    pass\n"
        assert cyclomatic_complexity(source) == 4

    def test_comprehension_clauses(self):
        # for-clause and if-filter each add a path
        assert cyclomatic_complexity("ys = [x for x in xs if x > 0]\n") == 3

    def test_ternary(self):
        assert cyclomatic_complexity("y = 1 if flag else 2\n") == 2

    def test_except_handlers(self):
        source = "try:\n    f()\nexcept ValueError:\n    pass\nexcept KeyError:\n    pass\n"
        assert cyclomatic_complexity(source) == 3

    def test_keywords_in_strings_ignored(self):
        assert cyclomatic_complexity("s = 'if and while or for'\n") == 1

    def test_nonempty_source_at_least_one(self):
        for path in PROGRAMS:
            assert cyclomatic_complexity(path.read_text()) >= 1


class TestHalsteadVolume:
    def test_empty_stream(self):
        assert halstead_volume([]) == 0.0

    def test_single_distinct_token_is_zero(self):
        assert halstead_volume(tokenize("x x x")) == 0.0

    def test_hand_counted_assignment(self):
        # a = b + c: operators {=, +} x2, operands {a, b, c} x3
        # V = 5 * log2(5)
        volume = halstead_volume(tokenize("a = b + c"))
        assert volume == pytest.approx(5 * math.log2(5), abs=1e-9)
        assert volume == pytest.approx(11.6096, abs=1e-4)

    def test_value_keywords_are_operands(self):
        # x = True: operands {x, True}, operators {=}
        volume = halstead_volume(tokenize("x = True"))
        assert volume == pytest.approx(3 * math.log2(3), abs=1e-9)


class TestMaintainabilityIndex:
    def test_vanishing_terms(self):
        assert maintainability_index(1, 1, 1, 0.0) == pytest.approx(170.77, abs=0.01)

    def test_reference_point(self):
        assert maintainability_index(8, 3, 4, 0.0) == pytest.approx(122.31, abs=0.01)

    def test_comment_term(self):
        # adds 50*sin(sqrt(2.46 * 0.25)) to the zero-comment value
        expected = 122.31 + 50 * math.sin(math.sqrt(2.46 * 0.25))
        assert maintainability_index(8, 3, 4, 0.25) == pytest.approx(expected, abs=0.01)
        assert maintainability_index(8, 3, 4, 0.25) == pytest.approx(157.6236, abs=0.01)

    def test_clamped_at_zero(self):
        assert maintainability_index(2 ** 60, 500, 10 ** 9, 0.0) == 0.0

    def test_comment_density_range_checked(self):
        with pytest.raises(ValueError):
            maintainability_index(1, 1, 1, 1.5)
        with pytest.raises(ValueError):
            maintainability_index(1, 1, 1, -0.1)

    def test_input_domain_checked(self):
        with pytest.raises(ValueError):
            maintainability_index(-1, 1, 1, 0.0)
        with pytest.raises(ValueError):
            maintainability_index(1, 0, 1, 0.0)

    def test_monotone_spot_checks(self):
        base = maintainability_index(100, 5, 50, 0.1)
        assert maintainability_index(200, 5, 50, 0.1) < base      # more volume, worse
        assert maintainability_index(100, 6, 50, 0.1) < base      # more branches, worse
        assert maintainability_index(100, 5, 80, 0.1) < base      # more lines, worse
        assert maintainability_index(100, 5, 50, 0.3) > base      # more comments, better

    def test_bounded_above(self):
        assert maintainability_index(0, 1, 0, 1.0) <= 221.0


class TestFunctionCount:
    def test_no_definitions(self):
        assert function_count("x = 1\nprint(x)\n") == 0

    def test_nested_definitions_counted(self):
        source = "def a():\n    def b():\n        pass\n    return b\ndef c():\n    pass\n"
        assert function_count(source) == 3

    def test_modular_solution_shape(self):
        # three helpers plus a main entry point
        source = (
            "def read_input():\n    pass\n"
            "def solve(xs):\n    pass\n"
            "def fmt(ans):\n    pass\n"
            "def main():\n    pass\n"
            "main()\n"
        )
        assert function_count(source) == 4

    def test_top_level_only_flag(self):
        source = "def a():\n    def b():\n        pass\nclass C:\n    def m(self):\n        pass\n"
        assert function_count(source) == 3
        assert function_count(source, top_level_only=True) == 1

    def test_async_def_counted_once(self):
        assert function_count("async def f():\n    pass\n") == 1

    def test_lambda_not_counted(self):
        assert function_count("f = lambda x: x + 1\n") == 0

    def test_concat_additivity(self):
        parts = [p.read_text() for p in PROGRAMS[:4]]
        total = function_count("\n".join(parts))
        assert total == sum(function_count(p) for p in parts)

    def test_def_in_string_not_counted(self):
        assert function_count("s = 'def fake():'\n") == 0


class TestAnalyze:
    def test_empty_source(self):
        metrics = analyze("")
        assert metrics.halstead_volume == 0.0
        assert metrics.sloc == 0
        assert metrics.comment_density == 0.0
        assert metrics.function_count == 0
        assert metrics.cyclomatic == 1
        # MI from zero inputs: 171 - 0.23*1, log terms vanish
        assert metrics.maintainability == pytest.approx(170.77, abs=0.01)

    def test_single_assignment_composition(self):
        metrics = analyze("a = b + c")
        assert metrics.cyclomatic == 1
        assert metrics.sloc == 1
        assert metrics.comment_density == 0.0
        assert metrics.halstead_volume == pytest.approx(11.6096, abs=1e-4)
        expected_mi = 171 - 5.2 * math.log2(metrics.halstead_volume) - 0.23
        assert metrics.maintainability == pytest.approx(expected_mi, abs=1e-9)

    def test_mean_mi_equals_mean_of_per_program_mi(self):
        values = [analyze(p.read_text()).maintainability for p in PROGRAMS]
        mean_of_values = sum(values) / len(values)
        again = [analyze(p.read_text()).maintainability for p in PROGRAMS]
        assert sum(again) / len(again) == pytest.approx(mean_of_values, abs=1e-12)

    def test_matches_individual_operations(self):
        assert len(PROGRAMS) == 10
        for path in PROGRAMS:
            source = path.read_text()
            sloc, _, _, density = sloc_and_comments(source)
            for top_level_only in (False, True):
                metrics = analyze(source, top_level_functions_only=top_level_only)
                assert metrics.sloc == sloc, path.name
                assert metrics.comment_density == density, path.name
                assert metrics.cyclomatic == cyclomatic_complexity(source), path.name
                assert metrics.halstead_volume == halstead_volume(tokenize(source)), path.name
                assert metrics.function_count == function_count(source, top_level_only), path.name

    def test_builds_no_tokens(self, monkeypatch):
        # the counter reads the lexer's matches; it never calls tokenize
        calls = []
        real = codemetrics.tokenize
        monkeypatch.setattr(codemetrics, "tokenize", lambda source: calls.append(1) or real(source))
        analyze(PROGRAMS[1].read_text())
        assert calls == []

    def test_top_level_only_parameter(self):
        source = "def a():\n    def b():\n        pass\n"
        assert analyze(source).function_count == 2
        assert analyze(source, top_level_functions_only=True).function_count == 1


class TestTokenizerRobustness:
    """Mangled inputs must still lex with the structural invariants intact."""

    def test_mutated_sources_never_crash(self):
        import random

        rng = random.Random(42)
        garbage = "$?`\\\x00¬πé\"'#\n\t "
        sources = [p.read_text() for p in PROGRAMS]
        for base in sources:
            for _ in range(20):
                chars = list(base)
                for _ in range(rng.randint(1, 8)):
                    op = rng.randrange(3)
                    pos = rng.randrange(len(chars)) if chars else 0
                    if op == 0 and chars:
                        del chars[pos]
                    elif op == 1:
                        chars.insert(pos, rng.choice(garbage))
                    elif chars:
                        chars[pos] = rng.choice(garbage)
                mutated = "".join(chars)
                tokens = tokenize(mutated)
                lines = [t.line for t in tokens]
                assert lines == sorted(lines)
                metrics = analyze(mutated)
                assert metrics.cyclomatic >= 1
                assert 0.0 <= metrics.comment_density <= 1.0
                assert metrics.halstead_volume >= 0.0
                assert 0.0 <= metrics.maintainability <= 221.0

    def test_pathological_shapes(self):
        cases = [
            "'" , '"""', "\\", "((((", "0x", "def", "def (:", "\n\n\n",
            "#" * 1000, "x" + "=" * 50, "'" + "a" * 100, "🎉 = 1",
        ]
        for source in cases:
            metrics = analyze(source)
            assert metrics.cyclomatic >= 1


# Pieces that reach every branch of the lexer: string prefixes, quotes,
# continuations, whitespace it skips or rejects, every operator character,
# characters no rule takes, a digit that is not a decimal digit ("\u00b2"),
# a non-ASCII letter, number parts, keywords and indentation.
PIECES = (
    list("rRbBuUfF'\"") + ["'''", '"""', "\\\n", "\\"]
    + list("\t\r\x0c\x0b\xa0 \n#") + list("*/=><.!-:+%&|^@~()[]{},;")
    + list("$?\u00b2\u00e90123456789.eEjJxXoO_") + ["def ", "if ", "True", "\n    "]
)


def random_source(rng: random.Random) -> str:
    length = rng.randint(0, 60)
    pieces = []
    while sum(map(len, pieces)) < length:
        pieces.append(rng.choice(PIECES))
    return "".join(pieces)[:length]


class TestDifferentialOracle:
    """Tokens and metrics equal the earlier character-at-a-time lexer's."""

    @staticmethod
    def assert_same(source):
        assert tokenize(source) == tokenize_reference(source), repr(source)
        for top_level_only in (False, True):
            assert (analyze(source, top_level_functions_only=top_level_only)
                    == analyze_reference(source, top_level_functions_only=top_level_only)), \
                repr(source)

    def test_fixture_programs_and_library_sources(self):
        library = sorted(Path(modeval.__file__).parent.glob("*.py"))
        assert len(PROGRAMS) == 10 and library
        for path in PROGRAMS + library:
            self.assert_same(path.read_text(encoding="utf-8"))

    def test_random_sources(self):
        rng = random.Random(20261018)
        for _ in range(20000):
            self.assert_same(random_source(rng))


def test_fixture_program_metrics_pinned():
    """The metrics of the fixture programs, as recorded at METRICS_SEMANTICS."""
    pins = [json.loads(line) for line in
            (FIXTURES / "program_metrics.jsonl").read_text(encoding="utf-8").splitlines()]
    assert len(pins) == 2 * len(PROGRAMS) == 20
    for pin in pins:
        name, top_level_only = pin["program"], pin["top_level_functions_only"]
        assert pin["metrics_semantics"] == METRICS_SEMANTICS, (
            "METRICS_SEMANTICS was bumped: re-record tests/fixtures/program_metrics.jsonl")
        source = (FIXTURES / "programs" / name).read_text(encoding="utf-8")
        got = asdict(analyze(source, top_level_functions_only=top_level_only))
        assert set(got) == set(pin["metrics"])
        for field, want in pin["metrics"].items():
            same = (type(got[field]) is type(want)
                    and (got[field] == want if type(want) is int
                         else got[field] == pytest.approx(want, rel=1e-12)))
            assert same, (
                f"{name} (top_level_functions_only={top_level_only}) {field}: got "
                f"{got[field]!r}, pinned {want!r}. A metric changed: bump "
                f"codemetrics.METRICS_SEMANTICS, so that cached metrics miss, and re-record "
                f"the pins")


class TestMetricsCache:
    SOURCE = "pass\n"  # integral float metrics: an int in their place reads the same

    def test_hit_prints_as_computed(self, tmp_path, monkeypatch):
        source = PROGRAMS[1].read_text()
        first = MetricsCache(tmp_path).analyze(source)
        calls = count_analyze_calls(monkeypatch)
        cache = MetricsCache(tmp_path)  # a later run
        second = cache.analyze(source)
        assert (cache.hits, cache.misses, calls) == (1, 0, [])
        assert second == first == analyze(source)
        assert json.dumps(asdict(second)) == json.dumps(asdict(analyze(source)))

    def test_key_names_flag_and_semantics(self, tmp_path, monkeypatch):
        source = PROGRAMS[1].read_text()
        cache = MetricsCache(tmp_path)
        assert cache.analyze(source) == analyze(source)
        assert (cache.analyze(source, top_level_functions_only=True)
                == analyze(source, top_level_functions_only=True))
        monkeypatch.setattr(codemetrics, "METRICS_SEMANTICS", METRICS_SEMANTICS + 1)
        cache.analyze(source)
        assert (cache.hits, cache.misses) == (0, 3)
        assert len({key for key, _ in cache_entries(tmp_path)}) == 3

    def assert_measured_again(self, tmp_path, monkeypatch):
        """A later run misses, measures the program once more and appends a
        line that supersedes the bad one; the run after that hits."""
        calls = count_analyze_calls(monkeypatch)
        cache = MetricsCache(tmp_path)
        metrics = cache.analyze(self.SOURCE)
        assert (cache.hits, cache.misses, len(calls)) == (0, 1, 1)
        assert json.dumps(asdict(metrics)) == json.dumps(asdict(analyze(self.SOURCE)))
        lines = (tmp_path / "entries.jsonl").read_text().split("\n")
        assert len(lines) == 3 and lines[-1] == "" and lines[0][:65] == lines[1][:65]
        later = MetricsCache(tmp_path)
        assert later.analyze(self.SOURCE) == metrics and later.hits == 1

    def test_torn_last_line_is_a_miss(self, tmp_path, monkeypatch):
        MetricsCache(tmp_path).analyze(self.SOURCE)
        log = tmp_path / "entries.jsonl"
        log.write_bytes(log.read_bytes()[:-10])
        self.assert_measured_again(tmp_path, monkeypatch)

    @pytest.mark.parametrize("edit", [
        lambda entry: "{broken",
        lambda entry: dict(entry, sloc="12"),
        lambda entry: dict(entry, cyclomatic=True),
        lambda entry: dict(entry, comment_density=1.5),
        lambda entry: dict(entry, cyclomatic=0),
        lambda entry: dict(entry, sloc=-1),
        lambda entry: dict(entry, function_count=-1),
        lambda entry: dict(entry, halstead_volume=-1.0),
        lambda entry: dict(entry, maintainability=221.5),
        lambda entry: dict(entry, halstead_volume=float("nan")),
        lambda entry: dict(entry, maintainability=float("inf")),
        lambda entry: dict(entry, halstead_volume=0),
        lambda entry: dict(entry, comment_density=0),
        lambda entry: {k: v for k, v in entry.items() if k != "sloc"},
        lambda entry: dict(entry, extra=1),
    ], ids=["not_json", "sloc_string", "cyclomatic_bool", "density_above_one", "cyclomatic_zero",
            "negative_sloc", "negative_function_count", "negative_volume", "maintainability_above_max",
            "nan", "infinity", "int_volume", "int_density", "missing_field", "unknown_field"])
    def test_rejected_entry_is_a_miss(self, tmp_path, monkeypatch, edit):
        MetricsCache(tmp_path).analyze(self.SOURCE)
        edit_cache_entry(tmp_path, edit)
        self.assert_measured_again(tmp_path, monkeypatch)
