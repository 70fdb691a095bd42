"""Chat-completion client: pluggable providers, retry, caching, concurrency.

The HTTP provider speaks the common hosted chat-completions JSON shape, so
any compatible endpoint works.  A deterministic mock provider serves tests
and offline pipeline runs: it replays scripted items, matches rules from a
fixture directory, and otherwise synthesizes a structurally valid response
from the content embedded in the prompt itself.

Responses are cached on disk, content-addressed by (prompt text, model,
temperature, max_output_tokens), so pipeline reruns cost nothing.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from .corpus import EntryLog, decode, map_in_threads, read_jsonl
from .settings import ProviderConfig

if TYPE_CHECKING:
    from .promptgen import Prompt


@dataclass
class Completion:
    """One model response, with the provider's metadata and whether the cache replayed it."""

    text: str
    provider_meta: dict
    cached: bool = False


class ProviderError(Exception):
    """Provider call failed; ``kind`` is transient, auth, or protocol."""

    def __init__(self, kind: str, message: str) -> None:
        super().__init__(f"{kind}: {message}")
        self.kind = kind


def _post(url: str, body: bytes, headers: dict[str, str], timeout: float) -> tuple[int, str]:
    """POST ``body`` to ``url``; the HTTP status and response text, error statuses included.

    A failure to get any response (refused connection, timeout, broken
    stream) is a transient ProviderError.  urllib is imported here, not at
    module level: it costs tens of milliseconds and mock runs never send.
    """
    import http.client
    import urllib.error
    import urllib.request

    if not url.startswith(("http://", "https://")):
        raise ProviderError("protocol", f"endpoint is not an http(s) URL: {url!r}")
    request = urllib.request.Request(url, data=body, headers=headers, method="POST")
    try:
        try:
            resp = urllib.request.urlopen(request, timeout=timeout)
        except urllib.error.HTTPError as exc:
            resp = exc  # an error status still carries its body
        with resp:
            return resp.status, resp.read().decode("utf-8", errors="replace")
    except (OSError, http.client.HTTPException) as exc:  # URLError and timeouts are OSErrors
        raise ProviderError("transient", f"request failed: {exc}") from exc


class HttpProvider:
    """POSTs chat-completion requests to a hosted-model-compatible endpoint."""

    def send(self, prompt: Prompt, cfg: ProviderConfig) -> tuple[str, dict]:
        if not cfg.endpoint:
            raise ProviderError("protocol", "no endpoint configured")
        api_key = os.environ.get(cfg.api_key_env, "")
        if not api_key:
            raise ProviderError("auth", f"environment variable {cfg.api_key_env} is not set")
        payload = {
            "model": cfg.model_name,
            "temperature": cfg.temperature,
            "max_tokens": cfg.max_output_tokens,
            "messages": [
                {"role": "system", "content": prompt.system},
                {"role": "user", "content": prompt.user},
            ],
        }
        status, reply = _post(
            cfg.endpoint,
            json.dumps(payload).encode("utf-8"),
            {"Authorization": f"Bearer {api_key}", "Content-Type": "application/json"},
            cfg.timeout,
        )
        if status in (401, 403):
            raise ProviderError("auth", f"HTTP {status}")
        if status == 429 or status >= 500:
            raise ProviderError("transient", f"HTTP {status}")
        if status != 200:
            raise ProviderError("protocol", f"HTTP {status}: {reply[:200]}")
        try:
            body = json.loads(reply)
            choice = body["choices"][0]
            text = choice["message"]["content"]
            finish = choice.get("finish_reason", "")
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise ProviderError("protocol", f"malformed response body: {exc}") from exc
        if not isinstance(text, str):  # null, or a list of content parts
            raise ProviderError("protocol", f"response content is not text: {text!r:.200}")
        meta = {
            "finish_reason": finish,
            "truncated": finish == "length",
            "usage": body.get("usage", {}),
        }
        return text, meta


@dataclass
class _MockRule:
    """One line of a mock ``rules.jsonl``, as written there."""

    contains: list[str] | None = None  # a single string is read as a list of one
    tag: str | None = None  # a PromptTag value
    response: str = ""
    response_file: str | None = None  # read into the response when the provider is built


class MockProvider:
    """Deterministic provider for tests and offline runs.

    Resolution order per request: scripted items (tests), then rules from the
    fixture directory, then ``default.txt``, then tag-aware synthesis from the
    prompt content.  Rules live in ``rules.jsonl``: one JSON object per line
    with ``contains`` (substring, or list of substrings that must all appear,
    in the prompt user text), optional ``tag``, and either ``response`` or
    ``response_file``, and no other key.  A malformed rule, an unknown tag or
    an unreadable response file raises ValueError naming the file and line
    when the provider is built, and so does a ``rules.jsonl`` or
    ``default.txt`` that cannot be read (a directory, say).  ``calls`` counts
    the requests; the mock keeps no prompt.
    """

    def __init__(
        self,
        fixture_dir: str | Path | None = None,
        script: Sequence[object] | None = None,
        synthesize: bool = True,
        latency: float = 0.0,
    ) -> None:
        self.fixture_dir = Path(fixture_dir) if fixture_dir else None
        self._script: list[object] = list(script or [])
        self.synthesize = synthesize
        self.latency = latency
        self.calls = 0
        self._lock = threading.Lock()
        self._inflight = 0
        self.peak_inflight = 0
        self._rules: list[tuple] = []  # (tag or None, needles, response)
        self._default: str | None = None
        from .promptgen import echo_response  # here, so importing llm_client loads no promptgen

        self._echo = echo_response
        if self.fixture_dir is not None:
            rules_path = self.fixture_dir / "rules.jsonl"
            default_path = self.fixture_dir / "default.txt"
            try:
                if rules_path.exists():
                    self._rules, bad = read_jsonl(rules_path, lambda _, obj: self._load_rule(obj))
                    if bad:
                        where = f"{rules_path}:{bad[0].line_number}"
                        raise ValueError(f"{where}: bad mock rule: {bad[0].reason}")
                if default_path.exists():
                    self._default = default_path.read_text(encoding="utf-8")
            except OSError as exc:  # a directory or an unreadable file
                raise ValueError(str(exc)) from exc

    def _load_rule(self, obj) -> tuple:
        """A rules.jsonl object decoded as a ``_MockRule``, as ``(tag, needles, response)``."""
        from .promptgen import PromptTag

        obj = decode(dict, obj, "rule")
        if isinstance(obj.get("contains"), str):
            obj = {**obj, "contains": [obj["contains"]]}
        rule = decode(_MockRule, obj, "rule")
        tag, response = decode(PromptTag | None, rule.tag, "rule.tag"), rule.response
        if rule.response_file is not None:
            try:
                response = (self.fixture_dir / rule.response_file).read_text(encoding="utf-8")
            except OSError as exc:
                raise ValueError(str(exc)) from exc
        return tag, rule.contains or [], response

    def _rule_response(self, prompt: Prompt) -> str | None:
        """The response of the first rule whose tag and every ``contains`` needle match."""
        tag, user = prompt.tag, prompt.user
        for rule_tag, needles, response in self._rules:
            if rule_tag is not None and rule_tag is not tag:
                continue
            for needle in needles:
                if needle not in user:
                    break
            else:
                return response
        return None

    def send(self, prompt: Prompt, cfg: ProviderConfig) -> tuple[str, dict]:
        with self._lock:
            self.calls += 1
            self._inflight += 1
            self.peak_inflight = max(self.peak_inflight, self._inflight)
            scripted = self._script.pop(0) if self._script else None
        try:
            if self.latency:
                time.sleep(self.latency)
            if scripted is not None:
                if isinstance(scripted, Exception):
                    raise scripted
                if callable(scripted):
                    scripted = scripted(prompt)
                return str(scripted), {"finish_reason": "stop", "truncated": False}
            text = self._rule_response(prompt)
            if text is None:
                text = self._default
            if text is None:
                if not self.synthesize:
                    raise ProviderError("protocol", "mock has no response for this prompt")
                text = self._echo(prompt)
            return text, {"finish_reason": "stop", "truncated": False}
        finally:
            with self._lock:
                self._inflight -= 1


class ResponseCache:
    """Completion store: an ``EntryLog`` under ``root`` keyed by ``key``."""

    def __init__(self, root: str | Path) -> None:
        self._log = EntryLog(Path(root))

    hits = property(lambda self: self._log.hits)
    misses = property(lambda self: self._log.misses)

    @staticmethod
    def key(prompt: Prompt, cfg: ProviderConfig) -> str:
        return EntryLog.key([prompt.system, prompt.user, cfg.model_name, cfg.temperature,
                             cfg.max_output_tokens])

    def get(self, key: str) -> Completion | None:
        return self._log.get(key, lambda obj: decode(
            Completion, {"text": obj["response"], "provider_meta": obj.get("meta", {}),
                         "cached": True}, "entry"))

    def put(self, key: str, completion: Completion) -> None:
        """Record ``completion`` under ``key``, which already commits to the prompt and
        the settings that shape the answer."""
        self._log.put(key, {"response": completion.text, "meta": completion.provider_meta})


def complete(
    prompt: Prompt,
    cfg: ProviderConfig,
    *,
    provider=None,
    cache: ResponseCache | None = None,
) -> Completion:
    """One completion with retry on transient failures and optional caching.

    Transient errors are retried with exponential backoff up to
    ``cfg.retry_limit`` times; auth and protocol errors are not retried.
    """
    provider = provider if provider is not None else HttpProvider()
    key = ResponseCache.key(prompt, cfg) if cache is not None else ""
    if cache is not None:
        hit = cache.get(key)
        if hit is not None:
            return hit

    for attempt in range(cfg.retry_limit + 1):
        try:
            text, meta = provider.send(prompt, cfg)
            break
        except ProviderError as exc:
            if exc.kind != "transient" or attempt == cfg.retry_limit:
                raise
            time.sleep(cfg.retry_backoff * (2 ** attempt))

    completion = Completion(text=text, provider_meta=meta, cached=False)
    if cache is not None:
        cache.put(key, completion)
    return completion


def complete_batch(
    prompts: Sequence,
    cfg: ProviderConfig,
    *,
    provider=None,
    cache: ResponseCache | None = None,
    build=None,
    then=None,
) -> list:
    """Complete many prompts with at most ``cfg.max_inflight`` outstanding;
    the calling thread counts as one of them.

    Results are positional: item i answers prompts[i].  A failing item is
    returned as its ProviderError; it never aborts the other items.  With
    ``build``, item i sends ``build(prompts[i])``, built in the worker that
    sends it.  With ``then``, item i is ``then(prompt, result)``, computed in
    that worker, so a prompt and its completion live only until ``then``
    returns.  An exception from ``build`` or ``then`` ends the batch as
    ``map_in_threads`` says.
    """
    provider = provider if provider is not None else HttpProvider()

    def one(item):
        prompt = item if build is None else build(item)
        try:
            result = complete(prompt, cfg, provider=provider, cache=cache)
        except ProviderError as exc:
            result = exc
        return result if then is None else then(prompt, result)

    return map_in_threads(one, prompts, cfg.max_inflight)
