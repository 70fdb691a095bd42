import collections
import json
import os
import random
import string
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import pytest

from modeval import cli, corpus
from modeval.corpus import (
    Corpus,
    CorpusError,
    Difficulty,
    EntryLog,
    Split,
    TestCase,
    corpus_stats,
    dedup_against,
    jaccard_similarity,
    load_corpus,
    map_in_threads,
    normalize_statement,
    sha256_hex,
)

from conftest import cache_entries, corpus_of, make_problem
from oracles import normalize_statement_regex


def write_jsonl(path, objs):
    with path.open("w") as fh:
        for obj in objs:
            fh.write(json.dumps(obj) + "\n")


def problem_obj(pid="a", question="Add numbers.", solutions=("print(1)",),
                inputs=("1\n",), outputs=("1\n",), difficulty="introductory",
                source="alpha", testable=True):
    obj = {"id": pid, "question": question, "solutions": list(solutions),
           "difficulty": difficulty, "source": source}
    if testable:
        obj["input_output"] = {"inputs": list(inputs), "outputs": list(outputs)}
    return obj


class TestLoadCorpus:
    def test_two_well_formed_lines(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [problem_obj("a"), problem_obj("b")])
        corpus = load_corpus(path, Split.TRAIN)
        assert len(corpus) == 2
        assert [p.id for p in corpus] == ["a", "b"]
        assert corpus.diagnostics == []

    def test_empty_file(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("")
        corpus = load_corpus(path)
        assert len(corpus) == 0
        assert corpus.diagnostics == []

    def test_missing_id_becomes_diagnostic(self, tmp_path):
        path = tmp_path / "c.jsonl"
        bad = problem_obj()
        del bad["id"]
        write_jsonl(path, [problem_obj("a"), bad, problem_obj("c")])
        corpus = load_corpus(path)
        assert [p.id for p in corpus] == ["a", "c"]
        assert len(corpus.diagnostics) == 1
        assert corpus.diagnostics[0].line_number == 2

    def test_unparseable_json_becomes_diagnostic(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps(problem_obj("a")) + "\n{not json\n")
        corpus = load_corpus(path)
        assert len(corpus) == 1
        assert corpus.diagnostics[0].line_number == 2

    def test_unicode_line_separators_stay_inside_their_line(self, tmp_path):
        # a JSONL line ends at "\n" only; U+2028 and friends are legal in a JSON string
        path = tmp_path / "c.jsonl"
        question = "Add\u2028two\u2029numbers\x85now."
        path.write_text("".join(json.dumps(obj, ensure_ascii=False) + "\n" for obj in [
            problem_obj("a", question=question), problem_obj("b"),
        ]) + "{not json\n", encoding="utf-8")
        corpus = load_corpus(path)
        assert [p.id for p in corpus] == ["a", "b"]
        assert corpus.problems[0].statement == question
        assert [d.line_number for d in corpus.diagnostics] == [3]

    def test_invalid_utf8_line_becomes_diagnostic(self, tmp_path):
        path = tmp_path / "c.jsonl"
        good = json.dumps(problem_obj("a"), ensure_ascii=False).encode("utf-8")
        path.write_bytes(good + b"\n" + good.replace(b'"a"', b'"b\xff"') + b"\n")
        corpus = load_corpus(path)
        assert [p.id for p in corpus] == ["a"]
        [diagnostic] = corpus.diagnostics
        assert diagnostic.line_number == 2 and "utf-8" in diagnostic.reason

    def test_lone_carriage_return_stays_inside_its_line(self, tmp_path):
        # "\r" is JSON whitespace, not a line end: the record parses whole and
        # the malformed line after it keeps its number
        path = tmp_path / "c.jsonl"
        split = json.dumps(problem_obj("a")).replace(", ", ",\r", 1)
        path.write_bytes(f"{split}\n{{not json\n{json.dumps(problem_obj('b'))}\n".encode())
        corpus = load_corpus(path)
        assert [p.id for p in corpus] == ["a", "b"]
        assert [d.line_number for d in corpus.diagnostics] == [2]

    def test_peak_is_about_what_it_keeps(self, tmp_path):
        # one line at a time: the file is never held whole beside its problems
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [problem_obj(f"p{i}", question=f"Problem {i}: " + "add numbers " * 200,
                                       solutions=["print(sum(map(int, input().split())))"] * 4)
                           for i in range(200)])
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            corpus = load_corpus(path)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(corpus) == 200
        assert peak - base <= 1.5 * (kept - base), (peak - base, kept - base)

    def test_duplicate_id_fatal_with_line_numbers(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [problem_obj("dup"), problem_obj("b"), problem_obj("dup")])
        with pytest.raises(CorpusError) as exc:
            load_corpus(path)
        assert "1" in str(exc.value) and "3" in str(exc.value)

    def test_unreadable_file_fatal(self, tmp_path):
        with pytest.raises(CorpusError):
            load_corpus(tmp_path / "missing.jsonl")

    @pytest.mark.parametrize("kwargs", [{"testable": False}, {"inputs": (), "outputs": ()}],
                             ids=["missing", "empty"])
    def test_missing_input_output_marks_untestable(self, tmp_path, kwargs):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [problem_obj("a", **kwargs)])
        corpus = load_corpus(path)
        assert corpus.problems[0].untestable
        assert corpus.problems[0].tests == []

    def test_mismatched_io_lengths_is_diagnostic(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [problem_obj("a", inputs=("1\n", "2\n"), outputs=("1\n",))])
        corpus = load_corpus(path)
        assert len(corpus) == 0
        assert "mismatch" in corpus.diagnostics[0].reason

    def test_string_io_is_diagnostic(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [dict(problem_obj("a"), input_output={"inputs": "12", "outputs": "24"})])
        corpus = load_corpus(path)
        assert len(corpus) == 0
        assert "inputs" in corpus.diagnostics[0].reason

    @pytest.mark.parametrize("value, loaded", [
        ("APPS", "APPS"), (None, ""), (..., ""), (7, "7"), (0, "0"),
        (["x"], None), ({"name": "x"}, None), (True, None), (1.5, None),
    ], ids=["string", "null", "missing", "int", "zero", "list", "object", "bool", "float"])
    def test_source_value(self, tmp_path, value, loaded):
        obj = problem_obj("a")
        if value is ...:
            del obj["source"]
        else:
            obj["source"] = value
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [obj, problem_obj("b")])
        corpus = load_corpus(path)
        if loaded is None:  # a malformed line: skipped, with a diagnostic
            assert [p.id for p in corpus] == ["b"]
            assert "source" in corpus.diagnostics[0].reason
        else:
            assert corpus.problems[0].source == loaded
            assert not corpus.diagnostics

    def test_unknown_difficulty_maps_to_unknown(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [problem_obj("a", difficulty="weird")])
        corpus = load_corpus(path)
        assert corpus.problems[0].difficulty is Difficulty.UNKNOWN


class TestCorpusInvariants:
    def test_duplicate_ids_rejected_at_construction(self):
        with pytest.raises(CorpusError):
            corpus_of(make_problem("x"), make_problem("x"))

    def test_nonempty_id_required(self):
        with pytest.raises(ValueError):
            make_problem(pid="")


class TestSelectSolutions:
    """transform rewrites the first ``solution_cap`` solutions of each problem, in stored order."""

    def transform(self, tmp_path, solutions, cap):
        """(solution_index, final_code) of each MoT row transform writes, or None if it fails."""
        (tmp_path / "mock").mkdir(parents=True)
        write_jsonl(tmp_path / "c.jsonl", [problem_obj("u", solutions=solutions, testable=False)])
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "corpus": {"train": str(tmp_path / "c.jsonl")}, "solution_cap": cap,
            "data_types": ["mot"], "mock_provider": str(tmp_path / "mock"),
            "outdir": str(tmp_path / "out"),
        }))
        if cli.main(["transform", "--config", str(config)]) != 0:
            return None
        rows = (tmp_path / "out" / "transform" / "mot.jsonl").read_text(encoding="utf-8")
        return [(row["solution_index"], row["final_code"])
                for row in map(json.loads, rows.splitlines())]

    def test_below_cap_returns_all(self, tmp_path):
        assert self.transform(tmp_path, ["print(1)", "print(2)", "print(3)"], 100) == [
            (0, "print(1)"), (1, "print(2)"), (2, "print(3)")]

    def test_cap_truncates_in_stored_order(self, tmp_path):
        assert self.transform(tmp_path, ["print(1)", "print(2)", "print(3)"], 2) == [
            (0, "print(1)"), (1, "print(2)")]

    def test_no_solutions(self, tmp_path):
        assert self.transform(tmp_path, [], 100) == []

    def test_cap_must_be_positive(self, tmp_path, capsys):
        assert self.transform(tmp_path, ["print(1)"], 0) is None
        assert "solution_cap must be >= 1" in capsys.readouterr().err

    def test_deterministic(self, tmp_path):
        solutions = [f"print({i})" for i in range(10)]
        first = self.transform(tmp_path / "a", solutions, 5)
        assert first == self.transform(tmp_path / "b", solutions, 5)


class TestDedup:
    def test_byte_identical_statement_removed(self):
        train = corpus_of(make_problem("t1", statement="Exact same text."))
        holdout = corpus_of(make_problem("h1", statement="Exact same text."))
        deduped, removed = dedup_against(train, holdout)
        assert len(deduped) == 0
        assert removed[0].train_id == "t1"
        assert removed[0].holdout_id == "h1"
        assert removed[0].similarity == 1.0

    def test_whitespace_and_case_variant_removed_via_normalization(self):
        train = corpus_of(make_problem("t1", statement="Count   the WORDS, please!"))
        holdout = corpus_of(make_problem("h1", statement="count the words please"))
        deduped, removed = dedup_against(train, holdout, jaccard_threshold=0.9)
        assert len(deduped) == 0
        assert removed[0].similarity == 1.0

    def test_unrelated_statements_kept(self):
        train = corpus_of(make_problem("t1", statement="alpha beta gamma"))
        holdout = corpus_of(make_problem("h1", statement="delta epsilon zeta"))
        deduped, removed = dedup_against(train, holdout)
        assert len(deduped) == 1
        assert removed == []

    def test_jaccard_threshold_boundary(self):
        # 9 shared words out of 10 union -> similarity 0.9
        shared = "one two three four five six seven eight nine"
        train = corpus_of(make_problem("t1", statement=shared + " extra"))
        holdout = corpus_of(make_problem("h1", statement=shared))
        removed_at_09, _ = dedup_against(train, holdout, jaccard_threshold=0.9)
        assert len(removed_at_09) == 0  # removed: similarity 0.9 >= 0.9
        kept_at_095, _ = dedup_against(train, holdout, jaccard_threshold=0.95)
        assert len(kept_at_095) == 1

    def test_idempotent(self):
        train = corpus_of(
            make_problem("t1", statement="Shared problem statement here."),
            make_problem("t2", statement="Completely different thing."),
        )
        holdout = corpus_of(make_problem("h1", statement="Shared problem statement here."))
        once, _ = dedup_against(train, holdout)
        twice, removed = dedup_against(once, holdout)
        assert [p.id for p in twice] == [p.id for p in once]
        assert removed == []

    def test_diagnostics_kept(self, tmp_path):
        path = tmp_path / "train.jsonl"
        path.write_text(json.dumps(problem_obj("a")) + "\n{not json\n")
        train = load_corpus(path)
        holdout = corpus_of(make_problem("h1", statement="Unrelated holdout text."))
        deduped, _ = dedup_against(train, holdout)
        assert [p.id for p in deduped] == ["a"]
        assert deduped.diagnostics == train.diagnostics
        assert len(deduped.diagnostics) == 1

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            dedup_against(corpus_of(), corpus_of(), jaccard_threshold=0.0)
        with pytest.raises(ValueError):
            dedup_against(corpus_of(), corpus_of(), jaccard_threshold=1.5)

    def test_normalize_statement(self):
        assert normalize_statement("  Hello,   WORLD!! ") == "hello world"

    def test_jaccard_of_empty_sets_is_one(self):
        assert jaccard_similarity(frozenset(), frozenset()) == 1.0


# every character str.isspace() accepts, which is what re's \s matches in a str pattern
WHITESPACE = [c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace()]
# letters whose case mapping changes length or leaves ASCII, other punctuation, and
# format characters that look blank but are not whitespace
OTHER = ["İ", "ẞ", "ß", "Σ", "ς", "ǅ", "ﬁ", "\u212a", "é", "¿", "—", "“",
         "\u200b", "\u180e", "\ufeff"]


class TestNormalizeStatement:
    def test_whitespace_covers_the_unicode_separators(self):
        separators = {"\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0", "\u2028", "\u3000"}
        assert separators <= set(WHITESPACE)
        assert "\u200b" not in WHITESPACE and "\u180e" not in WHITESPACE

    def test_matches_the_regex_form(self):
        rng = random.Random("normalize")
        alphabet = [*string.punctuation, *string.ascii_letters, *string.digits, *OTHER]
        for _ in range(20_000):
            text = "".join(rng.choice(WHITESPACE) if rng.random() < 0.3 else rng.choice(alphabet)
                           for _ in range(rng.randint(0, 24)))
            assert normalize_statement(text) == normalize_statement_regex(text), repr(text)
        for c in WHITESPACE + OTHER:  # every character alone and between words
            for text in (c, f"a{c}b", f"{c}{c}A{c}"):
                assert normalize_statement(text) == normalize_statement_regex(text), repr(text)



def brute_force_dedup(train, holdout, threshold):
    """Every train statement against every holdout statement: the reference."""
    holdout_norm = [(p.id, normalize_statement(p.statement)) for p in holdout.problems]
    exact = {}
    for hid, norm in holdout_norm:
        exact.setdefault(norm, hid)
    kept, removed = [], []
    for problem in train.problems:
        norm = normalize_statement(problem.statement)
        if norm in exact:
            removed.append((problem.id, exact[norm], 1.0, "exact"))
            continue
        tokens = frozenset(norm.split())
        best = None
        for hid, hnorm in holdout_norm:
            sim = jaccard_similarity(tokens, frozenset(hnorm.split()))
            if sim >= threshold and (best is None or sim > best[2]):
                best = (problem.id, hid, sim, "jaccard")
        if best is None:
            kept.append(problem.id)
        else:
            removed.append(best)
    return kept, removed


def assert_matches_brute_force(train, holdout, threshold):
    deduped, removals = dedup_against(train, holdout, jaccard_threshold=threshold)
    kept, removed = brute_force_dedup(train, holdout, threshold)
    assert [p.id for p in deduped] == kept
    assert [(r.train_id, r.holdout_id, r.similarity, r.reason)
            for r in removals] == removed
    return removals


def random_statement(rng, vocab):
    roll = rng.random()
    if roll < 0.05:
        return ""
    if roll < 0.1:
        return rng.choice(["?!", "...", " ;, ", "--"])
    words = [rng.choice(vocab) for _ in range(rng.randint(1, 10))]
    words = [w.upper() if rng.random() < 0.2 else w for w in words]
    return " ".join(w + rng.choice(["", "", ",", "."]) for w in words)


def random_corpora(rng):
    vocab = [f"w{i}" for i in range(rng.choice([2, 3, 5, 8, 12]))]
    holdout = [random_statement(rng, vocab) for _ in range(rng.randint(0, 8))]
    train = []
    for _ in range(rng.randint(0, 10)):
        if holdout and rng.random() < 0.25:
            # a token-reordered (or verbatim) copy of a holdout statement
            words = normalize_statement(rng.choice(holdout)).split()
            rng.shuffle(words)
            train.append(" ".join(words))
        else:
            train.append(random_statement(rng, vocab))
    return (corpus_of(*(make_problem(f"t{i}", statement=s) for i, s in enumerate(train))),
            corpus_of(*(make_problem(f"h{i}", statement=s) for i, s in enumerate(holdout))))


THRESHOLDS = [0.1, 1 / 3, 0.5, 2 / 3, 0.7, 0.9, 1.0]


class TestDedupEquivalence:
    def test_prefix_order_is_frequency_then_first_occurrence(self):
        rng = random.Random("prefix-order")
        ties = 0
        for _ in range(200):
            vocab = [f"w{i}" for i in range(rng.randint(1, 30))]
            statements = [" ".join(rng.choices(vocab, k=rng.randint(0, 2 * len(vocab))))
                          for _ in range(rng.randint(0, 12))]
            df: dict[str, int] = {}
            first: dict[str, int] = {}  # position of each token's first occurrence
            for words in map(str.split, statements):
                for tok in set(words):  # a repeated word counts once per statement
                    df[tok] = df.get(tok, 0) + 1
                for tok in words:
                    first.setdefault(tok, len(first))
            rank = corpus._PrefixIndex(statements, 0.5)._rank
            assert sorted(rank, key=rank.__getitem__) == sorted(df, key=lambda t: (df[t], first[t]))
            assert sorted(rank.values()) == list(range(len(df)))
            ties += len(df) - len(set(df.values()))
        assert ties > 1000

    @pytest.mark.parametrize("threshold", THRESHOLDS)
    def test_random_corpora_match_brute_force(self, threshold):
        rng = random.Random(f"dedup-{threshold}")
        for _ in range(300):
            train, holdout = random_corpora(rng)
            assert_matches_brute_force(train, holdout, threshold)

    @pytest.mark.parametrize("threshold", THRESHOLDS)
    def test_one_side_empty(self, threshold):
        some = corpus_of(make_problem("a", statement="alpha beta"),
                         make_problem("b", statement="?!"))
        assert_matches_brute_force(some, corpus_of(), threshold)
        assert_matches_brute_force(corpus_of(), some, threshold)

    @pytest.mark.parametrize("threshold", THRESHOLDS)
    def test_token_reordered_copy_is_jaccard_one(self, threshold):
        train = corpus_of(make_problem("t1", statement="Delta gamma, beta alpha."))
        holdout = corpus_of(make_problem("h0", statement="unrelated words only"),
                            make_problem("h1", statement="alpha beta gamma delta"),
                            make_problem("h2", statement="gamma delta alpha beta"))
        [removal] = assert_matches_brute_force(train, holdout, threshold)
        assert (removal.holdout_id, removal.similarity, removal.reason) == ("h1", 1.0, "jaccard")

    def test_threshold_equal_to_similarity_is_found(self):
        # A pair sharing i of u union tokens is removed at threshold i/u: the
        # filters must not lose it to float rounding (0.1 * 30 > 3.0 in floats).
        for union in range(1, 41):
            for shared in range(1, union + 1):
                extra = union - shared
                for left in {0, extra // 2, extra}:
                    train = corpus_of(make_problem("t", statement=" ".join(
                        [f"s{k}" for k in range(shared)] + [f"a{k}" for k in range(left)])))
                    holdout = corpus_of(make_problem("h", statement=" ".join(
                        [f"s{k}" for k in range(shared)]
                        + [f"b{k}" for k in range(extra - left)])))
                    removals = assert_matches_brute_force(train, holdout, shared / union)
                    assert len(removals) == 1

    def test_verifies_few_pairs(self, monkeypatch):
        calls = []

        def counting(a, b):
            calls.append(1)
            return jaccard_similarity(a, b)

        monkeypatch.setattr(corpus, "jaccard_similarity", counting)
        rng = random.Random(7)
        common = [f"common{k}" for k in range(15)]

        def private(prefix):
            return [f"{prefix}x{k}" for k in range(10)]

        holdout_words = [common + private(f"h{h}") for h in range(200)]
        train_words = [common + private(f"t{t}") for t in range(400)]
        for t in range(0, 400, 40):  # ten near copies: one word swapped
            train_words[t] = holdout_words[t // 2][:-1] + [f"t{t}swap"]
        for words in holdout_words + train_words:
            rng.shuffle(words)
        train = corpus_of(*(make_problem(f"t{t}", statement=" ".join(w))
                            for t, w in enumerate(train_words)))
        holdout = corpus_of(*(make_problem(f"h{h}", statement=" ".join(w))
                              for h, w in enumerate(holdout_words)))
        deduped, removals = dedup_against(train, holdout, jaccard_threshold=0.9)
        assert [(r.train_id, r.holdout_id) for r in removals] == [
            (f"t{t}", f"h{t // 2}") for t in range(0, 400, 40)]
        assert len(deduped) == 390
        assert 10 <= len(calls) < 1000  # against 80,000 pairs in a full scan


class TestCorpusStats:
    def test_empty_corpus_all_zero(self):
        stats = corpus_stats(corpus_of())
        assert stats.total_problems == 0
        assert stats.by_source == {}
        assert stats.untestable_count == 0
        assert stats.total_solutions == 0

    def test_counts_by_difficulty(self):
        stats = corpus_stats(corpus_of(
            make_problem("a", difficulty=Difficulty.INTRODUCTORY),
            make_problem("b", difficulty=Difficulty.INTRODUCTORY),
            make_problem("c", difficulty=Difficulty.COMPETITION),
        ))
        assert stats.by_difficulty == {"introductory": 2, "competition": 1}

    def test_scaled_table_fixture(self):
        # 117 alpha-source problems and 154 beta-source problems, built to
        # known counts; the report must reproduce the construction exactly.
        problems = [make_problem(f"a{i}", source="APPS") for i in range(117)]
        problems += [make_problem(f"c{i}", source="CodeContests") for i in range(154)]
        stats = corpus_stats(corpus_of(*problems))
        assert stats.by_source == {"APPS": 117, "CodeContests": 154}
        assert stats.total_problems == 271

    def test_totals_equal_sum_of_partitions(self):
        problems = [
            make_problem(f"p{i}",
                         difficulty=list(Difficulty)[i % 4],
                         source=["alpha", "beta"][i % 2],
                         tests=() if i % 5 == 0 else (("1\n", "1\n"),))
            for i in range(23)
        ]
        stats = corpus_stats(corpus_of(*problems))
        assert sum(stats.by_source.values()) == stats.total_problems
        assert sum(stats.by_difficulty.values()) == stats.total_problems
        assert sum(stats.by_source_difficulty_split.values()) == stats.total_problems


class TestSha256Hex:
    @pytest.mark.parametrize("text", ["", "abc", "na\u00efve \u2713 \U0001f600", "a\u2028b\n"],
                             ids=["empty", "ascii", "non_ascii", "line_separator"])
    def test_matches_hashlib(self, text):
        import hashlib

        assert sha256_hex(text) == hashlib.sha256(text.encode("utf-8")).hexdigest()

    def test_only_large_payloads_load_hashlib(self):
        # the built-in below HASHLIB_MIN_BYTES of UTF-8, hashlib from there on; same digests
        src = Path(corpus.__file__).resolve().parent.parent
        subprocess.run([sys.executable, "-S", "-c", (
            "import sys\n"
            "from modeval.corpus import HASHLIB_MIN_BYTES as n, sha256_hex\n"
            "small, large = 'x' * (n - 1), '\\u00e9' * (n // 2)\n"
            "digests = [sha256_hex(small)]\n"
            "assert 'hashlib' not in sys.modules, 'loaded for a small payload'\n"
            "digests.append(sha256_hex(large))\n"
            "assert 'hashlib' in sys.modules, 'not loaded for a large payload'\n"
            "import hashlib\n"
            "assert digests == [hashlib.sha256(t.encode()).hexdigest() for t in (small, large)]\n"
        )], check=True, env={**os.environ, "PYTHONPATH": str(src)})


class TestEntryLog:
    def test_two_processes_append_whole_lines(self, tmp_path):
        # each writer puts 200 distinct 16 KB entries once both have started
        writer = ("import sys; from pathlib import Path; from modeval.corpus import EntryLog\n"
                  "log, w = EntryLog(Path(sys.argv[1])), sys.argv[2]\n"
                  "print('ready', flush=True); sys.stdin.read()\n"
                  "for i in range(200):\n"
                  "    log.put(f'{w}{i:063x}', {'writer': w, 'i': i, 'pad': w * 16384})\n")
        src = Path(corpus.__file__).resolve().parent.parent
        procs = [subprocess.Popen([sys.executable, "-c", writer, str(tmp_path), w],
                                  stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                  env={**os.environ, "PYTHONPATH": str(src)})
                 for w in "ab"]
        assert [proc.stdout.readline() for proc in procs] == [b"ready\n"] * 2
        for proc in procs:
            proc.stdin.close()  # both write from here on
        for proc in procs:
            proc.stdout.close()
            assert proc.wait(timeout=60) == 0
        expected = {f"{w}{i:063x}": {"writer": w, "i": i, "pad": w * 16384}
                    for w in "ab" for i in range(200)}
        entries = cache_entries(tmp_path)  # every line whole: none interleaved
        assert len(entries) == 400 and dict(entries) == expected
        log = EntryLog(tmp_path)
        assert all(log.get(key, lambda e: e) == entry for key, entry in expected.items())

    def test_threads_append_each_key_once(self, tmp_path):
        # 8 threads race to put the same 50 keys; a lost index update would
        # append a key twice
        log = EntryLog(tmp_path)
        keys = [f"{i:064x}" for i in range(50)]
        start = threading.Barrier(8)

        def worker(n):
            start.wait(timeout=60)
            for key in keys:
                if log.get(key, lambda e: e) is None:
                    log.put(key, {"thread": n})

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(n,)) for n in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        entries = cache_entries(tmp_path)
        assert sorted(key for key, _ in entries) == keys  # each key once
        assert all(log.get(key, lambda e: e) == entry for key, entry in entries)

    def test_threads_first_lookups_all_hit(self, tmp_path):
        # 8 threads look up a written log at once through one fresh EntryLog:
        # none reads the index before the first lookup has built it
        keys = [f"{i:064x}" for i in range(2000)]
        writer = EntryLog(tmp_path)
        for i, key in enumerate(keys):
            writer.put(key, {"i": i})
        log, start, misses = EntryLog(tmp_path), threading.Barrier(8), []

        def reader():
            start.wait(timeout=60)
            misses.extend(key for key in keys if log.get(key, lambda e: e) is None)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=reader) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert misses == []

    @pytest.mark.parametrize("cut", [1, 20], ids=["newline", "mid_entry"])
    def test_torn_last_line_is_a_miss_and_superseded(self, tmp_path, cut):
        whole, torn = "b" * 64, "a" * 64
        log = EntryLog(tmp_path)
        log.put(whole, {"v": "whole"})
        log.put(torn, {"v": "first"})
        path = tmp_path / "entries.jsonl"
        path.write_bytes(path.read_bytes()[:-cut])  # its writer died mid-line
        log = EntryLog(tmp_path)  # a later run
        assert log.get(torn, lambda e: e) is None
        assert log.get(whole, lambda e: e) == {"v": "whole"}
        log.put(torn, {"v": "second"})
        assert log.get(torn, lambda e: e) == {"v": "second"}
        later = EntryLog(tmp_path)
        assert later.get(torn, lambda e: e) == {"v": "second"}
        assert later.get(whole, lambda e: e) == {"v": "whole"}
        lines = path.read_bytes().split(b"\n")
        assert len(lines) == 4 and lines[-1] == b""  # the torn line was ended, not joined
        assert lines[2] == torn.encode() + b'\t{"v": "second"}'


class TestMapInThreads:
    def test_results_in_input_order(self):
        # later items finish first
        assert map_in_threads(lambda i: time.sleep(0.002 * (8 - i)) or i * i, range(8), 3) == \
            [i * i for i in range(8)]

    @pytest.mark.parametrize("workers", [2, 3])
    def test_at_most_workers_calls_at_once(self, workers):
        lock, running, peak = threading.Lock(), [0], [0]

        def call(i):
            with lock:
                running[0] += 1
                peak[0] = max(peak[0], running[0])
            time.sleep(0.01)
            with lock:
                running[0] -= 1
            return i

        assert map_in_threads(call, range(12), workers) == list(range(12))
        assert 1 < peak[0] <= workers

    def test_each_item_called_once_under_frequent_switches(self):
        lock, calls = threading.Lock(), collections.Counter()

        def call(i):
            with lock:
                calls[i] += 1
            return -i

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = map_in_threads(call, range(2000), 8)  # more workers than cores
        finally:
            sys.setswitchinterval(interval)
        assert results == [-i for i in range(2000)]
        assert calls == collections.Counter(range(2000))

    @pytest.mark.parametrize("workers, items", [(1, range(5)), (4, [7]), (4, [])],
                             ids=["one_worker", "one_item", "no_item"])
    def test_caller_alone_starts_no_thread(self, monkeypatch, workers, items):
        def no_start(thread):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(threading.Thread, "start", no_start)
        caller = threading.get_ident()
        assert map_in_threads(lambda i: (i, threading.get_ident()), items, workers) == \
            [(i, caller) for i in items]

    def test_lowest_index_exception_raised(self):
        def call(i):
            if i in (2, 3):
                time.sleep(0.02 if i == 2 else 0.0)  # item 3 fails first
                raise ValueError(i)
            return i

        with pytest.raises(ValueError) as info:
            map_in_threads(call, range(10), 2)
        assert info.value.args == (2,)

    def test_one_worker_calls_nothing_after_a_failure(self):
        called = []

        def call(i):
            called.append(i)
            if i == 2:
                raise KeyError(i)
            return i

        with pytest.raises(KeyError):
            map_in_threads(call, range(6), 1)
        assert called == [0, 1, 2]
