"""Problem corpora: JSONL loading, normalization, dedup and summary stats;
``decode``, the typed reader of every JSON value the pipeline reads back;
``EntryLog``, the append-only store under every disk cache, which makes its
keys and counts its hits and misses, and ``sha256_hex``, the hash of its keys;
and ``map_in_threads``, the worker map of every concurrent stage.

A corpus is an ordered list of competitive-programming problems in the
de facto APPS/CodeContests JSONL layout, one problem per line:

    {"id": str, "question": str, "solutions": [str],
     "input_output": {"inputs": [str], "outputs": [str]},
     "difficulty": str, "source": str | int}

A problem whose ``input_output`` is missing, ``null`` or empty has no tests
and is untestable.  Loading is forgiving about malformed lines (they become
diagnostics) but strict about duplicate ids, which indicate a broken export.
"""

from __future__ import annotations

import fcntl
import json
import math
import os
import re
import string
import threading
import types
import typing
import weakref
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from enum import Enum
from functools import lru_cache
from pathlib import Path

try:  # hashlib is heavy to load (OpenSSL's libcrypto): small payloads use CPython's built-in SHA-256
    from _sha256 import sha256 as _builtin_sha256
except ImportError:
    try:
        from _sha2 import sha256 as _builtin_sha256  # Python 3.12+
    except ImportError:
        _builtin_sha256 = None

# Payloads of at least this many bytes hash with hashlib, loaded by the first
# of them.  Loading costs about 3.5 ms of CPU and 3.5 MB of memory once; the
# built-in costs about 3.4 ms more CPU per MB, 0.2 ms on a payload this size.
# Below it the built-in also spares the worker map GIL handoffs: hashlib
# releases the GIL for each payload of 2 KiB or more.
HASHLIB_MIN_BYTES = 64 << 10


@lru_cache(maxsize=None)
def _shape(tp) -> tuple[object, object]:
    """``decode``'s plan for ``tp``: its generic origin and arguments, ``Enum``
    for an enum, or ``dataclass`` and the resolved types of its init fields."""
    origin = typing.get_origin(tp)
    if origin is not None:
        return (typing.Union if origin is types.UnionType else origin), typing.get_args(tp)
    if is_dataclass(tp):
        hints = typing.get_type_hints(tp)
        return dataclass, {f.name: hints[f.name] for f in fields(tp) if f.init}
    return (Enum if issubclass(tp, Enum) else None), ()


def decode(tp, value, name: str):
    """Build a ``tp`` from the parsed JSON ``value``, checking every type on the way.

    ``tp`` is a dataclass (from an object of its init fields), an enum (from
    one of its values), ``list[X]``, ``tuple[X, Y]`` (from an array of that
    length), ``dict[K, V]`` (from an object), ``X | None``, a union of
    scalar types, ``dict`` or a JSON scalar type: only a bool fits ``bool``, and an int also fits ``float``
    (and stays an int).  Raises TypeError or ValueError naming ``name``, the
    path of the value.
    """
    if type(value) is tp or (tp is float and type(value) is int):
        return value
    kind, args = _shape(tp)
    if kind is typing.Union:  # X | None, or scalars such as str | int | None
        if type(value) in args:
            return value
        if len(args) == 2:
            return decode(args[0], value, name)
    if kind is list and type(value) is list:
        return [decode(args[0], v, f"{name}[{i}]") for i, v in enumerate(value)]
    if kind is tuple and type(value) is list and len(value) == len(args):
        return tuple([decode(a, v, f"{name}[{i}]") for i, (a, v) in enumerate(zip(args, value))])
    if kind is dict and type(value) is dict:
        return {decode(args[0], k, f"{name} key"): decode(args[1], v, f"{name}.{k}")
                for k, v in value.items()}
    if kind is dataclass and type(value) is dict:
        unknown = value.keys() - args
        if unknown:
            raise TypeError(f"{name} has unknown fields {sorted(unknown)}")
        return tp(**{k: decode(args[k], v, f"{name}.{k}") for k, v in value.items()})
    if kind is Enum:
        try:
            return tp(value)
        except ValueError:
            raise ValueError(f"{name} must be one of {[m.value for m in tp]}, got {value!r}") from None
    expected = tp.__name__ if kind in (None, dataclass) else re.sub(r"[\w.]+\.", "", str(tp))
    raise TypeError(f"{name} must be {expected}, got {value!r}")


def sha256_hex(text: str) -> str:
    """The hex SHA-256 digest of ``text`` in UTF-8: every cache key and manifest config hash.

    The digests are the ones ``hashlib`` gives.  They name cache entries and
    guard nothing, so CPython's built-in (non-FIPS) implementation serves
    payloads under ``HASHLIB_MIN_BYTES``.
    """
    data = text.encode("utf-8")
    sha256 = _builtin_sha256
    if sha256 is None or len(data) >= HASHLIB_MIN_BYTES:
        import hashlib

        sha256 = hashlib.sha256
    return sha256(data).hexdigest()


class EntryLog:
    """JSON entries in one append-only ``<root>/entries.jsonl``, a
    ``<64-hex key>\\t<json>\\n`` line each; the last complete line of a key wins.

    ``key`` makes every cache key.  The first lookup indexes the log, key to
    byte range, in one pass, and ``get`` reads only its own entry, counted as a
    hit when served and as a miss otherwise.  ``put`` appends a whole line with
    one ``os.write`` under ``flock``, after indexing what other processes appended.
    """

    def __init__(self, root: Path) -> None:
        root.mkdir(parents=True, exist_ok=True)
        self.path = root / "entries.jsonl"
        self._fd = os.open(self.path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o644)
        weakref.finalize(self, os.close, self._fd)
        self._lock = threading.Lock()
        self._index: dict[str, tuple[int, int]] = {}  # key -> (offset, length) of its JSON
        self._end = 0  # offset past the last complete line indexed
        self._looked = False
        self.hits = self.misses = 0
        self._counting = threading.Lock()  # not _lock: a lookup never waits out a put's write

    @staticmethod
    def key(parts) -> str:
        """The key of an entry made from ``parts``: the hash of their sorted-key JSON."""
        return sha256_hex(json.dumps(parts, sort_keys=True))

    def _scan(self) -> None:
        """Index the complete lines past ``_end``; the caller holds ``_lock``."""
        with open(self._fd, "rb", closefd=False) as fh:
            fh.seek(self._end)
            for line in fh:
                if not line.endswith(b"\n"):
                    break  # torn, or still being written
                if line[64:65] == b"\t":
                    self._index[line[:64].decode("latin-1")] = (self._end + 65, len(line) - 66)
                self._end += len(line)

    def get(self, key: str, read):
        """``read`` of the entry under ``key``, or None.  An entry that does not
        parse, or that ``read`` rejects with ValueError, KeyError or TypeError,
        leaves the index, so the next ``put`` of its key supersedes it."""
        if not self._looked:
            with self._lock:
                if not self._looked:
                    self._scan()
                    self._looked = True
        where = self._index.get(key)  # unlocked: racing a put of the key, it misses or hits
        value = None
        if where is not None:
            try:
                value = read(json.loads(os.pread(self._fd, where[1], where[0])))
            except (ValueError, KeyError, TypeError):
                with self._lock:
                    if self._index.get(key) == where:
                        del self._index[key]
        with self._counting:
            self.hits += value is not None
            self.misses += value is None
        return value

    def replay(self, parts, read, compute):
        """``read`` of the entry made from ``parts``, or else ``compute()``, recorded
        as its ``asdict``."""
        key = self.key(parts)
        value = self.get(key, read)
        if value is None:
            value = compute()
            self.put(key, asdict(value))
        return value

    def put(self, key: str, entry) -> None:
        """Append ``entry`` under ``key`` unless an entry of the key is indexed."""
        line = f"{key}\t{json.dumps(entry, sort_keys=True)}\n".encode("ascii")
        with self._lock:
            fcntl.flock(self._fd, fcntl.LOCK_EX)
            try:
                end = os.fstat(self._fd).st_size
                if end != self._end:  # lines not indexed yet, or a torn last line
                    self._scan()
                if key not in self._index:
                    torn = end > self._end  # end it, so that ours starts a line of its own
                    os.write(self._fd, b"\n" + line if torn else line)
                    self._index[key] = (end + torn + 65, len(line) - 66)
                    self._end = end + torn + len(line)
            finally:
                fcntl.flock(self._fd, fcntl.LOCK_UN)


def map_in_threads(fn, items, workers: int) -> list:
    """``[fn(item) for item in items]`` with at most ``workers`` calls at once.

    The calling thread is one of the workers: it starts one thread fewer than
    it needs and takes items itself, so one worker or one item starts none.
    Items are handed out in order.  Once a call raises, no worker takes
    another item, and after every thread has joined, the exception of the
    lowest-index failing item is raised.
    """
    items = list(items)
    results: list = [None] * len(items)
    failures: dict[int, BaseException] = {}
    pending = iter(range(len(items)))
    lock = threading.Lock()

    def work() -> None:
        while True:
            with lock:
                i = None if failures else next(pending, None)
            if i is None:
                return
            try:
                results[i] = fn(items[i])
            except BaseException as exc:  # a KeyboardInterrupt in the caller stops the others too
                with lock:
                    failures[i] = exc

    threads = [threading.Thread(target=work) for _ in range(min(workers, len(items)) - 1)]
    for thread in threads:
        thread.start()
    try:
        work()
    finally:
        for thread in threads:
            thread.join()
    if failures:
        raise failures[min(failures)]
    return results


class Difficulty(str, Enum):
    INTRODUCTORY = "introductory"
    INTERVIEW = "interview"
    COMPETITION = "competition"
    UNKNOWN = "unknown"

    @classmethod
    def parse(cls, value: str | None) -> "Difficulty":
        try:
            return cls(str(value).strip().lower())
        except ValueError:
            return cls.UNKNOWN


class Split(str, Enum):
    TRAIN = "train"
    VALID = "valid"
    TEST = "test"


class CorpusError(Exception):
    """Fatal corpus problem: unreadable file or duplicate problem ids."""


@dataclass(frozen=True)
class TestCase:
    """One I/O test: the stdin text and the stdout it expects."""

    input: str
    expected_output: str


@dataclass
class Problem:
    """One corpus problem: statement, reference solutions and I/O tests."""

    id: str
    statement: str
    solutions: list[str]
    tests: list[TestCase]
    difficulty: Difficulty = Difficulty.UNKNOWN
    source: str = ""
    split: Split = Split.TRAIN

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("problem id must be nonempty")

    @property
    def untestable(self) -> bool:
        return not self.tests


@dataclass
class LineDiagnostic:
    """A JSONL line that was skipped: its 1-based number and why."""

    line_number: int
    reason: str


@dataclass
class Corpus:
    """The problems of one split, in file order and unique by id, with the skipped lines."""

    problems: list[Problem]
    diagnostics: list[LineDiagnostic] = field(default_factory=list)

    def __post_init__(self) -> None:
        seen: dict[str, int] = {}
        for i, p in enumerate(self.problems):
            if p.id in seen:
                raise CorpusError(
                    f"duplicate problem id {p.id!r} (entries {seen[p.id]} and {i})"
                )
            seen[p.id] = i
        self._by_id = {p.id: p for p in self.problems}

    def __len__(self) -> int:
        return len(self.problems)

    def __iter__(self):
        return iter(self.problems)

    def get(self, problem_id: str) -> Problem | None:
        return self._by_id.get(problem_id)

    def __contains__(self, problem_id: str) -> bool:
        return problem_id in self._by_id


def _problem_from_obj(obj: dict, split: Split) -> Problem:
    obj = decode(dict, obj, "line")
    io = decode(dict | None, obj.get("input_output"), "input_output")
    tests: list[TestCase] = []
    if io is not None:
        inputs = decode(list[str], io.get("inputs", []), "input_output.inputs")
        outputs = decode(list[str], io.get("outputs", []), "input_output.outputs")
        if len(inputs) != len(outputs):
            raise ValueError(
                f"input_output length mismatch ({len(inputs)} inputs, {len(outputs)} outputs)"
            )
        tests = [TestCase(input=inp, expected_output=out) for inp, out in zip(inputs, outputs)]

    source = decode(str | int | None, obj.get("source"), "source")  # some exports number them
    return Problem(
        id=decode(str, obj.get("id"), "id"),
        statement=decode(str, obj.get("question", ""), "question"),
        solutions=decode(list[str], obj.get("solutions", []), "solutions"),
        tests=tests,
        difficulty=Difficulty.parse(obj.get("difficulty", "unknown")),
        source="" if source is None else str(source),
        split=split,
    )


def read_jsonl(path: str | Path, parse) -> tuple[list, list[LineDiagnostic]]:
    """``parse(lineno, value)`` of each nonblank line of the JSONL file ``path``,
    read one binary line at a time (a line ends at ``"\\n"`` alone), and a
    :class:`LineDiagnostic` for each line that is not strict UTF-8 or JSON or
    that ``parse`` rejects with ValueError, TypeError or KeyError."""
    values: list = []
    diagnostics: list[LineDiagnostic] = []
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                text = line.decode("utf-8")
                if text.strip():
                    values.append(parse(lineno, json.loads(text)))
            except (ValueError, TypeError, KeyError) as exc:
                diagnostics.append(LineDiagnostic(lineno, str(exc)))
    return values, diagnostics


def load_corpus(path: str | Path, split: Split = Split.TRAIN) -> Corpus:
    """Load a JSONL corpus file through :func:`read_jsonl`.

    Malformed lines, invalid UTF-8 among them, are skipped and recorded as
    diagnostics on the returned corpus.  Duplicate ids raise
    :class:`CorpusError` naming both offending line numbers.  An unreadable
    file raises :class:`CorpusError`.
    """
    id_lines: dict[str, int] = {}

    def parse(lineno: int, obj) -> Problem:
        problem = _problem_from_obj(obj, split)
        if problem.id in id_lines:
            raise CorpusError(f"duplicate problem id {problem.id!r} at lines "
                              f"{id_lines[problem.id]} and {lineno} of {path}")
        id_lines[problem.id] = lineno
        return problem

    try:
        problems, diagnostics = read_jsonl(path, parse)
    except OSError as exc:
        raise CorpusError(f"cannot read corpus file {path}: {exc}") from exc
    return Corpus(problems=problems, diagnostics=diagnostics)


_PUNCT_TABLE = str.maketrans({c: " " for c in string.punctuation})


def normalize_statement(text: str) -> str:
    """Lowercase, strip punctuation, collapse whitespace (each ``str.isspace`` character)."""
    return " ".join(text.lower().translate(_PUNCT_TABLE).split())


def _token_set(normalized: str) -> frozenset[str]:
    return frozenset(normalized.split())


def jaccard_similarity(a: frozenset[str], b: frozenset[str]) -> float:
    if not a and not b:
        return 1.0
    union = len(a | b)
    return len(a & b) / union if union else 0.0


@dataclass
class DedupRemoval:
    """One training problem that dedup dropped, and the holdout problem it matched."""

    train_id: str
    holdout_id: str
    similarity: float
    reason: str  # "exact" or "jaccard"


# The filters below may only over-approximate the pairs at Jaccard >= t.  A
# bound derived from a float ``t * size`` is loosened by this much, far more
# than its rounding error, so no pair the verification accepts is pruned.
_SLACK = 1e-9


def _prefix_length(size: int, threshold: float) -> int:
    """How many of a set's first tokens, in the global order, to index or probe.

    Sets ``A`` and ``B`` at Jaccard ``>= t`` share at least ``t * max(|A|, |B|)``
    tokens, and two sets sharing ``o`` tokens share one among their first
    ``|A| - o + 1`` and ``|B| - o + 1`` tokens of any common order (prefix
    filtering).  So each set needs only ``size - ceil(t * size) + 1`` of them.
    """
    return size - max(1, math.ceil(threshold * size - _SLACK)) + 1


class _PrefixIndex:
    """Normalized holdout statements' token sets indexed by their prefixes, for
    an exact Jaccard join; the index keeps no token set.

    Tokens are ordered by ascending holdout document frequency, ties in the
    order of first occurrence (statement by statement, word by word), so
    prefixes hold the rarest tokens and posting lists stay short.  Tokens
    absent from the holdout come first in that order and match nothing, so a
    probe only counts them against its prefix.
    """

    def __init__(self, statements: list[str], threshold: float) -> None:
        rank: dict[str, int] = {}  # each token's document frequency, then its rank
        self._sizes: list[int] = []
        for norm in statements:
            tokens = dict.fromkeys(norm.split())
            self._sizes.append(len(tokens))
            for tok in tokens:
                rank[tok] = rank.get(tok, 0) + 1
        for r, tok in enumerate(sorted(rank, key=rank.__getitem__)):  # stable: ties keep order
            rank[tok] = r
        self._rank = rank
        self._threshold = threshold
        self._postings: dict[int, list[int]] = {}
        for h, norm in enumerate(statements):
            ranks = sorted(map(rank.__getitem__, _token_set(norm)))
            for r in ranks[:_prefix_length(self._sizes[h], threshold)]:
                self._postings.setdefault(r, []).append(h)

    def candidates(self, tokens: frozenset[str]) -> list[int]:
        """Ascending holdout positions that pass the prefix and size filters."""
        t, size = self._threshold, len(tokens)
        known = sorted(map(self._rank.__getitem__, self._rank.keys() & tokens))
        unknown = size - len(known)  # the first tokens of the order, in no posting list
        probe = known[:max(0, _prefix_length(size, t) - unknown)]
        found = {h for r in probe for h in self._postings.get(r, ())}
        return sorted(h for h in found
                      if t * max(size, self._sizes[h]) - _SLACK <= min(size, self._sizes[h]))


def dedup_against(
    train: Corpus, holdout: Corpus, jaccard_threshold: float = 0.9
) -> tuple[Corpus, list[DedupRemoval]]:
    """Drop training problems that leak into the holdout set: the kept
    training corpus, and one removal per dropped problem in training order.

    A training problem is removed when its normalized statement exactly
    equals a holdout statement (reason ``"exact"``, first such holdout), or
    else when the word-token Jaccard similarity with some holdout statement
    reaches ``jaccard_threshold`` (reason ``"jaccard"``).  The reported match
    is the most similar holdout; on a tie, the earliest in holdout order.

    The Jaccard stage is an exact similarity join (size and prefix filtering
    over a global token order, as in AllPairs and PPJoin): it removes exactly
    the problems a comparison against every holdout statement would, with the
    same matches.  The filters only skip pairs that cannot reach the
    threshold; every remaining pair is decided by :func:`jaccard_similarity`.
    Cost grows with the statements' token counts and the candidate pairs,
    which are the pairs sharing one of their rarest tokens, instead of with
    ``len(train) * len(holdout)``.
    """
    if not (0.0 < jaccard_threshold <= 1.0):
        raise ValueError(f"jaccard_threshold must be in (0, 1], got {jaccard_threshold}")

    holdout_norm = [(p.id, normalize_statement(p.statement)) for p in holdout.problems]
    exact_index: dict[str, str] = {}
    for hid, norm in holdout_norm:
        exact_index.setdefault(norm, hid)
    index = _PrefixIndex([norm for _, norm in holdout_norm], jaccard_threshold)

    kept: list[Problem] = []
    removed: list[DedupRemoval] = []
    for problem in train.problems:
        norm = normalize_statement(problem.statement)
        hit = exact_index.get(norm)
        if hit is not None:
            removed.append(DedupRemoval(problem.id, hit, 1.0, "exact"))
            continue
        tokens = _token_set(norm)
        best: DedupRemoval | None = None
        for h in index.candidates(tokens):
            sim = jaccard_similarity(tokens, _token_set(holdout_norm[h][1]))
            if sim >= jaccard_threshold and (best is None or sim > best.similarity):
                best = DedupRemoval(problem.id, holdout_norm[h][0], sim, "jaccard")
        if best is not None:
            removed.append(best)
        else:
            kept.append(problem)

    return replace(train, problems=kept), removed


@dataclass
class StatsReport:
    """The counts ``corpus_stats`` reports for one corpus."""

    total_problems: int
    by_source: dict[str, int]
    by_difficulty: dict[str, int]
    by_source_difficulty_split: dict[tuple[str, str, str], int]
    untestable_count: int
    total_solutions: int
    total_tests: int


def corpus_stats(corpus: Corpus) -> StatsReport:
    """Count problems per source/difficulty/split plus solution and test totals."""
    by_source: dict[str, int] = {}
    by_difficulty: dict[str, int] = {}
    by_cell: dict[tuple[str, str, str], int] = {}
    untestable = 0
    solutions = 0
    tests = 0
    for p in corpus.problems:
        by_source[p.source] = by_source.get(p.source, 0) + 1
        by_difficulty[p.difficulty.value] = by_difficulty.get(p.difficulty.value, 0) + 1
        cell = (p.source, p.difficulty.value, p.split.value)
        by_cell[cell] = by_cell.get(cell, 0) + 1
        untestable += p.untestable
        solutions += len(p.solutions)
        tests += len(p.tests)
    return StatsReport(
        total_problems=len(corpus.problems),
        by_source=by_source,
        by_difficulty=by_difficulty,
        by_source_difficulty_split=by_cell,
        untestable_count=untestable,
        total_solutions=solutions,
        total_tests=tests,
    )
