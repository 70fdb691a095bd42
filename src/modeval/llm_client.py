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

import hashlib
import json
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from . import promptgen
from .promptgen import Prompt, PromptTag, ModularSolution, SubModule


@dataclass(frozen=True)
class ProviderConfig:
    endpoint: str = ""
    model_name: str = "mock"
    temperature: float = 0.0
    max_output_tokens: int = 2048
    api_key_env: str = "MODEVAL_API_KEY"
    max_inflight: int = 4
    retry_limit: int = 3
    timeout: float = 60.0
    retry_backoff: float = 0.5  # seconds; doubles per retry

    def __post_init__(self) -> None:
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if self.max_output_tokens < 1:
            raise ValueError("max_output_tokens must be >= 1")
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if not (0 <= self.retry_limit <= 10):
            raise ValueError("retry_limit must be in [0, 10]")
        if self.timeout <= 0:
            raise ValueError("timeout must be > 0")


@dataclass
class Completion:
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
        if text is None:
            raise ProviderError("protocol", "response carried no text")
        meta = {
            "finish_reason": finish,
            "truncated": finish == "length",
            "usage": body.get("usage", {}),
        }
        return text, meta


def _synthesize_mot(user_text: str) -> str:
    """Echo-style modular response built from the solution inside the prompt."""
    solution = promptgen.extract_fenced_section(user_text, "ORIGINAL SOLUTION")
    if solution is None:
        solution = "print()"
    outline = []
    for line in solution.splitlines():
        stripped = line.strip()
        if stripped.startswith("def ") and stripped.endswith(":"):
            name = stripped[4:].split("(", 1)[0].strip()
            if name.isidentifier():
                outline.append(
                    SubModule(name=name, header=stripped, docstring="Helper used by the final solution.")
                )
    if not outline:
        outline = [
            SubModule(
                name="solve",
                header="def solve():",
                docstring="Read standard input, compute the answer, print it.",
            )
        ]
    rendered = promptgen.render_modular_solution(
        ModularSolution(outline=outline, final_code=solution, raw_response="")
    )
    return rendered


def _synthesize(prompt: Prompt) -> str:
    if prompt.tag is PromptTag.MOT:
        return _synthesize_mot(prompt.user)
    if prompt.tag is PromptTag.CLEAN:
        solution = promptgen.extract_fenced_section(prompt.user, "ORIGINAL SOLUTION") or "print()"
        return f"```python\n{solution}\n```\n"
    if prompt.tag is PromptTag.REFLECT:
        attempt = promptgen.extract_fenced_section(prompt.user, "PRIOR ATTEMPT") or "print()"
        return f"```python\n{attempt}\n```\n"
    return "```python\nprint()\n```\n"


class MockProvider:
    """Deterministic provider for tests and offline runs.

    Resolution order per request: scripted items (tests), then rules from the
    fixture directory, then ``default.txt``, then tag-aware synthesis from the
    prompt content.  Rules live in ``rules.jsonl``: one JSON object per line
    with ``contains`` (substring, or list of substrings that must all appear,
    in the prompt user text), optional ``tag``, and either ``response`` or
    ``response_file``.  A malformed rule or an unreadable response file raises
    ValueError naming the file and line when the provider is built.
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
        self.calls: list[Prompt] = []
        self._lock = threading.Lock()
        self._inflight = 0
        self.peak_inflight = 0
        self._rules: list[dict] = []
        self._default: str | None = None
        if self.fixture_dir is not None:
            rules_path = self.fixture_dir / "rules.jsonl"
            if rules_path.exists():
                lines = rules_path.read_text(encoding="utf-8").splitlines()
                for lineno, line in enumerate(lines, start=1):
                    if line.strip():
                        self._rules.append(self._load_rule(line, f"{rules_path}:{lineno}"))
            default_path = self.fixture_dir / "default.txt"
            if default_path.exists():
                self._default = default_path.read_text(encoding="utf-8")

    def _load_rule(self, line: str, where: str) -> dict:
        """One rules.jsonl line, ``contains`` as a list and ``response_file``
        read into ``response``."""
        try:
            rule = json.loads(line)
            if not isinstance(rule, dict):
                raise ValueError("a rule must be a JSON object")
            if "response_file" in rule:
                path = self.fixture_dir / rule.pop("response_file")
                rule["response"] = path.read_text(encoding="utf-8")
            needles = rule.get("contains") or []
            rule["contains"] = needles if isinstance(needles, list) else [needles]
            texts = [*rule["contains"], rule.get("tag") or "", rule.get("response", "")]
            if not all(isinstance(text, str) for text in texts):
                raise ValueError("contains, tag and response must be strings")
        except (ValueError, TypeError, OSError) as exc:
            raise ValueError(f"{where}: bad mock rule: {exc}") from exc
        return rule

    def _rule_response(self, prompt: Prompt) -> str | None:
        for rule in self._rules:
            if rule.get("tag") and rule["tag"] != prompt.tag.value:
                continue
            if any(needle not in prompt.user for needle in rule["contains"]):
                continue
            return rule.get("response", "")
        return None

    def send(self, prompt: Prompt, cfg: ProviderConfig) -> tuple[str, dict]:
        with self._lock:
            self.calls.append(prompt)
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
                text = _synthesize(prompt)
            return text, {"finish_reason": "stop", "truncated": False}
        finally:
            with self._lock:
                self._inflight -= 1


class ResponseCache:
    """Content-addressed completion store: ``<root>/<sha256-of-key>.json``."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    @staticmethod
    def key(prompt: Prompt, cfg: ProviderConfig) -> str:
        payload = json.dumps(
            [prompt.system, prompt.user, cfg.model_name, cfg.temperature,
             cfg.max_output_tokens],
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def get(self, key: str) -> Completion | None:
        path = self._path(key)
        if not path.exists():
            return None
        try:
            obj = json.loads(path.read_text(encoding="utf-8"))
            return Completion(text=obj["response"], provider_meta=obj.get("meta", {}), cached=True)
        except (ValueError, KeyError, TypeError):
            return None

    def put(self, key: str, prompt: Prompt, cfg: ProviderConfig, completion: Completion) -> None:
        obj = {
            "key": {
                "prompt_sha256": hashlib.sha256(
                    (prompt.system + "\n" + prompt.user).encode("utf-8")
                ).hexdigest(),
                "model_name": cfg.model_name,
                "temperature": cfg.temperature,
                "max_output_tokens": cfg.max_output_tokens,
            },
            "response": completion.text,
            "meta": completion.provider_meta,
            "timestamp": time.time(),
        }
        path = self._path(key)
        tmp = path.with_suffix(f".tmp-{os.getpid()}-{threading.get_ident()}")
        tmp.write_text(json.dumps(obj, sort_keys=True), encoding="utf-8")
        os.replace(tmp, path)


def complete(
    prompt: Prompt,
    cfg: ProviderConfig,
    *,
    provider=None,
    cache: ResponseCache | None = None,
    bypass_cache: bool = False,
) -> Completion:
    """One completion with retry on transient failures and optional caching.

    Transient errors are retried with exponential backoff up to
    ``cfg.retry_limit`` times; auth and protocol errors are not retried.
    """
    provider = provider if provider is not None else HttpProvider()
    key = ResponseCache.key(prompt, cfg) if cache is not None else ""
    if cache is not None and not bypass_cache:
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
        cache.put(key, prompt, cfg, completion)
    return completion


def complete_batch(
    prompts: Sequence[Prompt],
    cfg: ProviderConfig,
    *,
    provider=None,
    cache: ResponseCache | None = None,
    bypass_cache: bool = False,
) -> list[Completion | ProviderError]:
    """Complete many prompts with at most ``cfg.max_inflight`` outstanding.

    Results are positional: item i answers prompts[i].  A failing item is
    returned as its ProviderError; it never aborts the other items.
    """
    provider = provider if provider is not None else HttpProvider()

    def one(prompt: Prompt) -> Completion | ProviderError:
        try:
            return complete(prompt, cfg, provider=provider, cache=cache, bypass_cache=bypass_cache)
        except ProviderError as exc:
            return exc

    if not prompts:
        return []
    with ThreadPoolExecutor(max_workers=cfg.max_inflight) as pool:
        return list(pool.map(one, prompts))
