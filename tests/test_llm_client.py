import json
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from modeval.llm_client import (
    Completion,
    HttpProvider,
    MockProvider,
    ProviderConfig,
    ProviderError,
    ResponseCache,
    complete,
    complete_batch,
)
from modeval.promptgen import Prompt, PromptTag

from conftest import cache_entries, edit_cache_entry

CFG = ProviderConfig(model_name="test-model", retry_limit=3, retry_backoff=0.001)


def prompt_of(text: str) -> Prompt:
    return Prompt(system="sys", user=text, tag=PromptTag.DIRECT)


class TestProviderConfig:
    @pytest.mark.parametrize("kwargs", [
        {"temperature": -0.1},
        {"max_inflight": 0},
        {"retry_limit": 11},
        {"retry_limit": -1},
        {"timeout": 0},
        {"max_output_tokens": 0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ProviderConfig(**kwargs)


class TestComplete:
    def test_mock_fixture_table_and_cache_flag(self, tmp_path):
        provider = MockProvider(script=["fixture answer"])
        cache = ResponseCache(tmp_path / "cache")
        first = complete(prompt_of("q"), CFG, provider=provider, cache=cache)
        assert first.text == "fixture answer"
        assert first.cached is False
        second = complete(prompt_of("q"), CFG, provider=provider, cache=cache)
        assert second.cached is True
        assert second.text == first.text
        assert provider.calls == 1  # second answer came from the cache

    def test_success_after_two_transient_failures(self):
        provider = MockProvider(script=[
            ProviderError("transient", "HTTP 500"),
            ProviderError("transient", "HTTP 500"),
            "recovered",
        ])
        result = complete(prompt_of("q"), CFG, provider=provider)
        assert result.text == "recovered"
        assert provider.calls == 3

    def test_transient_exhausts_retries(self):
        provider = MockProvider(script=[ProviderError("transient", "x")] * 10)
        cfg = ProviderConfig(retry_limit=2, retry_backoff=0.001)
        with pytest.raises(ProviderError) as exc:
            complete(prompt_of("q"), cfg, provider=provider)
        assert exc.value.kind == "transient"
        assert provider.calls == 3  # initial + 2 retries

    def test_auth_error_not_retried(self):
        provider = MockProvider(script=[ProviderError("auth", "denied"), "never"])
        with pytest.raises(ProviderError) as exc:
            complete(prompt_of("q"), CFG, provider=provider)
        assert exc.value.kind == "auth"
        assert provider.calls == 1

    def test_missing_api_key_is_auth_error(self, monkeypatch):
        monkeypatch.delenv("TEST_KEY_VAR", raising=False)
        cfg = ProviderConfig(endpoint="https://example.invalid/v1", api_key_env="TEST_KEY_VAR")
        with pytest.raises(ProviderError) as exc:
            complete(prompt_of("q"), cfg, provider=HttpProvider())
        assert exc.value.kind == "auth"

    def test_retries_do_not_duplicate_cache_entries(self, tmp_path):
        provider = MockProvider(script=[ProviderError("transient", "x"), "ok"])
        cache = ResponseCache(tmp_path / "cache")
        complete(prompt_of("q"), CFG, provider=provider, cache=cache)
        entries = cache_entries(tmp_path / "cache")
        assert len(entries) == 1

    def test_cache_key_distinguishes_model_and_temperature(self, tmp_path):
        p = prompt_of("q")
        keys = {
            ResponseCache.key(p, ProviderConfig(model_name="a", temperature=0.0)),
            ResponseCache.key(p, ProviderConfig(model_name="a", temperature=0.7)),
            ResponseCache.key(p, ProviderConfig(model_name="b", temperature=0.0)),
        }
        assert len(keys) == 3

    def test_cache_key_distinguishes_max_output_tokens(self):
        p = prompt_of("q")
        short = ResponseCache.key(p, ProviderConfig(model_name="a", max_output_tokens=100))
        long = ResponseCache.key(p, ProviderConfig(model_name="a", max_output_tokens=4000))
        assert short != long

    def test_cache_file_schema(self, tmp_path):
        provider = MockProvider(script=["answer"])
        cache = ResponseCache(tmp_path / "cache")
        complete(prompt_of("q"), CFG, provider=provider, cache=cache)
        [(key, entry)] = cache_entries(tmp_path / "cache")
        assert key == ResponseCache.key(prompt_of("q"), CFG)
        # the key commits to the prompt and to the settings that shape the answer
        assert entry == {"response": "answer", "meta": {"finish_reason": "stop", "truncated": False}}

    def test_key_pinned(self):
        # computed with hashlib.sha256: existing caches hit only while this holds
        prompt = Prompt(system="You rewrite programs.", user="Rewrite: print(1) \u00e9",
                        tag=PromptTag.CLEAN)
        cfg = ProviderConfig(model_name="m-1", temperature=0.5, max_output_tokens=512)
        assert (ResponseCache.key(prompt, cfg)
                == "4a261b4cd1cb69dc97f87fbbcb9b673c2c15fe31ca1d0488368e66d2fd808c0b")

    def test_entry_with_prompt_digest_still_reads(self, tmp_path):
        # entries once also held the key's settings, the prompt's own SHA-256 and a
        # timestamp, which nothing reads
        complete(prompt_of("q"), CFG, provider=MockProvider(script=["answer"]),
                 cache=ResponseCache(tmp_path))
        edit_cache_entry(tmp_path, lambda entry: dict(
            entry, key={"model_name": CFG.model_name, "temperature": CFG.temperature,
                        "max_output_tokens": CFG.max_output_tokens, "prompt_sha256": 64 * "0"},
            timestamp=1700000000.25))
        again = complete(prompt_of("q"), CFG, provider=MockProvider(synthesize=False),
                         cache=ResponseCache(tmp_path))
        assert (again.text, again.cached) == ("answer", True)

    def test_cache_counts_hits_and_misses(self, tmp_path):
        # a served entry is a hit; an absent or malformed one is a miss
        provider = MockProvider(script=["first", "second"])
        cache = ResponseCache(tmp_path)
        complete(prompt_of("q"), CFG, provider=provider, cache=cache)
        complete(prompt_of("q"), CFG, provider=provider, cache=cache)
        assert (cache.hits, cache.misses) == (1, 1)
        edit_cache_entry(tmp_path, lambda entry: dict(entry, response=5))
        later = ResponseCache(tmp_path)  # a later run
        assert complete(prompt_of("q"), CFG, provider=provider, cache=later).text == "second"
        assert (later.hits, later.misses) == (0, 1)

    @pytest.mark.parametrize("edit", [
        lambda entry: [],
        lambda entry: dict(entry, response=5),
    ], ids=["non_object", "response_int"])
    def test_malformed_entry_is_a_miss(self, tmp_path, edit):
        provider = MockProvider(script=["first", "second"])
        cache = ResponseCache(tmp_path / "cache")
        complete(prompt_of("q"), CFG, provider=provider, cache=cache)
        edit_cache_entry(tmp_path / "cache", edit)
        cache = ResponseCache(tmp_path / "cache")  # a later run
        again = complete(prompt_of("q"), CFG, provider=provider, cache=cache)
        assert (again.text, again.cached) == ("second", False)
        assert cache_entries(tmp_path / "cache")[-1][1]["response"] == "second"
        later = complete(prompt_of("q"), CFG, provider=provider,
                         cache=ResponseCache(tmp_path / "cache"))
        assert (later.text, later.cached) == ("second", True)  # the last line wins


class TestCompleteBatch:
    def test_empty(self):
        assert complete_batch([], CFG, provider=MockProvider()) == []

    def test_order_preserved(self):
        provider = MockProvider(script=[lambda p: f"answer to {p.user}" ] * 5)
        prompts = [prompt_of(f"q{i}") for i in range(5)]
        results = complete_batch(prompts, CFG, provider=provider)
        assert [r.text for r in results] == [f"answer to q{i}" for i in range(5)]

    def test_middle_failure_isolated(self):
        provider = MockProvider(script=["ok0", ProviderError("auth", "no"), "ok2"])
        results = complete_batch([prompt_of(f"q{i}") for i in range(3)],
                                 ProviderConfig(retry_limit=0), provider=provider)
        assert results[0].text == "ok0"
        assert isinstance(results[1], ProviderError)
        assert results[2].text == "ok2"

    def test_bounded_concurrency(self):
        provider = MockProvider(latency=0.02)
        cfg = ProviderConfig(max_inflight=2)
        results = complete_batch([prompt_of(f"q{i}") for i in range(6)], cfg, provider=provider)
        assert len(results) == 6
        assert provider.peak_inflight <= 2

    def test_then_runs_in_the_worker_in_order(self):
        sent_on, checked_on = {}, {}

        def send(prompt):
            sent_on[prompt.user] = threading.get_ident()
            if prompt.user == "q2":
                raise ProviderError("auth", "no")
            return prompt.user.upper()

        def then(prompt, result):
            checked_on[prompt.user] = threading.get_ident()
            return prompt.user, result if isinstance(result, ProviderError) else result.text

        provider = MockProvider(script=[send] * 6, latency=0.02)
        results = complete_batch([prompt_of(f"q{i}") for i in range(6)],
                                 ProviderConfig(max_inflight=3, retry_limit=0),
                                 provider=provider, then=then)
        assert [user for user, _ in results] == [f"q{i}" for i in range(6)]
        assert [text for _, text in results if isinstance(text, str)] == ["Q0", "Q1", "Q3", "Q4", "Q5"]
        assert isinstance(results[2][1], ProviderError) and results[2][1].kind == "auth"
        assert checked_on == sent_on and len(set(sent_on.values())) > 1

    def test_build_runs_in_the_worker_that_sends(self):
        built_on, sent_on = {}, {}

        def build(i):
            built_on[i] = threading.get_ident()
            return prompt_of(f"q{i}")

        def send(prompt):
            sent_on[int(prompt.user[1:])] = threading.get_ident()
            return prompt.user.upper()

        results = complete_batch(range(6), ProviderConfig(max_inflight=3, retry_limit=0),
                                 provider=MockProvider(script=[send] * 6, latency=0.02),
                                 build=build, then=lambda prompt, result: (prompt.user, result.text))
        assert results == [(f"q{i}", f"Q{i}") for i in range(6)]
        assert built_on == sent_on and len(set(sent_on.values())) > 1

    def test_failing_build_raises_the_lowest_index_and_sends_no_later_item(self):
        def build(i):
            if i in (1, 3):
                raise ValueError(f"item {i}")
            return prompt_of(f"q{i}")

        provider = MockProvider()
        with pytest.raises(ValueError, match="item 1"):
            complete_batch(range(5), ProviderConfig(max_inflight=1), provider=provider, build=build)
        assert provider.calls == 1

    def test_failing_then_raises_the_lowest_index(self):
        def then(prompt, result):
            if prompt.user in ("q1", "q3"):
                raise ValueError(prompt.user)
            return result

        with pytest.raises(ValueError, match="q1"):
            complete_batch([prompt_of(f"q{i}") for i in range(5)], ProviderConfig(max_inflight=4),
                           provider=MockProvider(latency=0.01), then=then)

    def test_concurrent_cache_writes_single_entry(self, tmp_path):
        provider = MockProvider(latency=0.01)
        cache = ResponseCache(tmp_path / "cache")
        prompts = [prompt_of("same question")] * 4
        results = complete_batch(prompts, ProviderConfig(max_inflight=4),
                                 provider=provider, cache=cache)
        texts = {r.text for r in results}
        assert len(texts) == 1
        assert len(cache_entries(tmp_path / "cache")) == 1


class TestHttpProvider:
    def test_happy_path_and_truncation_flag(self, monkeypatch):
        monkeypatch.setenv("TEST_KEY_VAR", "secret")
        captured = {}

        def fake_post(url, body, headers, timeout):
            captured["url"] = url
            captured["payload"] = json.loads(body)
            captured["auth"] = headers["Authorization"]
            return 200, json.dumps({
                "choices": [{"message": {"content": "hello"}, "finish_reason": "length"}],
                "usage": {"total_tokens": 7},
            })

        monkeypatch.setattr("modeval.llm_client._post", fake_post)
        cfg = ProviderConfig(endpoint="https://api.example/v1/chat", api_key_env="TEST_KEY_VAR",
                             model_name="m1", temperature=0.3)
        text, meta = HttpProvider().send(prompt_of("question"), cfg)
        assert text == "hello"
        assert meta["truncated"] is True
        assert captured["auth"] == "Bearer secret"
        assert captured["payload"]["model"] == "m1"
        assert captured["payload"]["messages"][1]["content"] == "question"

    @pytest.mark.parametrize("content", [None, [{"type": "text", "text": "hi"}]],
                             ids=["null", "parts"])
    def test_content_that_is_not_text_is_protocol_error(self, monkeypatch, content):
        monkeypatch.setenv("TEST_KEY_VAR", "secret")
        reply = {"choices": [{"message": {"content": content}, "finish_reason": "stop"}]}
        monkeypatch.setattr("modeval.llm_client._post", lambda *a, **k: (200, json.dumps(reply)))
        cfg = ProviderConfig(endpoint="https://api.example/v1", api_key_env="TEST_KEY_VAR")
        with pytest.raises(ProviderError) as exc:
            HttpProvider().send(prompt_of("q"), cfg)
        assert exc.value.kind == "protocol"

    @pytest.mark.parametrize("status,kind", [
        (500, "transient"), (429, "transient"), (401, "auth"), (403, "auth"), (400, "protocol"),
    ])
    def test_status_mapping(self, monkeypatch, status, kind):
        monkeypatch.setenv("TEST_KEY_VAR", "secret")
        monkeypatch.setattr("modeval.llm_client._post", lambda *a, **k: (status, "{}"))
        cfg = ProviderConfig(endpoint="https://api.example/v1", api_key_env="TEST_KEY_VAR")
        with pytest.raises(ProviderError) as exc:
            HttpProvider().send(prompt_of("q"), cfg)
        assert exc.value.kind == kind


class ScriptedHandler(BaseHTTPRequestHandler):
    """Answers each POST with the server's ``reply`` (status, body text), after
    waiting up to ``delay`` seconds for the server's ``release`` event."""

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        self.server.received.append((dict(self.headers), json.loads(self.rfile.read(length))))
        self.server.release.wait(self.server.delay)
        status, body = self.server.reply
        data = body.encode("utf-8")
        try:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)
        except OSError:  # the client gave up waiting
            pass

    def log_message(self, format, *args):
        pass


@pytest.fixture
def loopback_env(monkeypatch):
    monkeypatch.setenv("TEST_KEY_VAR", "secret")
    monkeypatch.setenv("no_proxy", "127.0.0.1")  # a proxy set in the environment must not intercept


@pytest.fixture
def server(loopback_env):
    srv = ThreadingHTTPServer(("127.0.0.1", 0), ScriptedHandler)
    srv.reply, srv.delay, srv.release, srv.received = (200, "{}"), 0.0, threading.Event(), []
    thread = threading.Thread(target=srv.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    try:
        yield srv
    finally:
        srv.release.set()
        srv.shutdown()
        srv.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()


def endpoint_cfg(port, **kwargs):
    return ProviderConfig(endpoint=f"http://127.0.0.1:{port}/v1/chat",
                          api_key_env="TEST_KEY_VAR", model_name="m1", **kwargs)


class TestHttpTransport:
    """HttpProvider over a real loopback HTTP server: no patched seam."""

    def test_truncated_reply_with_usage(self, server):
        server.reply = (200, json.dumps({
            "choices": [{"message": {"content": "hello"}, "finish_reason": "length"}],
            "usage": {"total_tokens": 7},
        }))
        text, meta = HttpProvider().send(prompt_of("question"), endpoint_cfg(server.server_port))
        assert text == "hello"
        assert meta == {"finish_reason": "length", "truncated": True,
                        "usage": {"total_tokens": 7}}
        (headers, payload), = server.received
        assert headers["Authorization"] == "Bearer secret"
        assert headers["Content-Type"] == "application/json"
        assert payload["model"] == "m1"
        assert payload["messages"][1]["content"] == "question"

    @pytest.mark.parametrize("status,kind", [
        (500, "transient"), (429, "transient"), (401, "auth"), (403, "auth"), (400, "protocol"),
    ])
    def test_status_mapping(self, server, status, kind):
        server.reply = (status, json.dumps({"error": "scripted"}))
        with pytest.raises(ProviderError) as exc:
            HttpProvider().send(prompt_of("q"), endpoint_cfg(server.server_port))
        assert exc.value.kind == kind

    def test_malformed_body_is_protocol(self, server):
        server.reply = (200, "not json")
        with pytest.raises(ProviderError) as exc:
            HttpProvider().send(prompt_of("q"), endpoint_cfg(server.server_port))
        assert exc.value.kind == "protocol"

    def test_closed_port_is_transient(self, loopback_env):
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        with pytest.raises(ProviderError) as exc:
            HttpProvider().send(prompt_of("q"), endpoint_cfg(port))
        assert exc.value.kind == "transient"

    def test_timeout_is_transient(self, server):
        server.delay = 5.0  # released at teardown, long after the client gives up
        with pytest.raises(ProviderError) as exc:
            HttpProvider().send(prompt_of("q"), endpoint_cfg(server.server_port, timeout=0.2))
        assert exc.value.kind == "transient"

    def test_non_http_endpoint_is_protocol(self, loopback_env):
        cfg = ProviderConfig(endpoint="file:///etc/hostname", api_key_env="TEST_KEY_VAR")
        with pytest.raises(ProviderError) as exc:
            HttpProvider().send(prompt_of("q"), cfg)
        assert exc.value.kind == "protocol"


class TestMockSynthesis:
    def test_mot_synthesis_round_trips_the_solution(self):
        from conftest import make_problem
        from modeval.promptgen import build_mot_prompt, parse_mot_response

        prompt = build_mot_prompt(make_problem(), "x = input()\nprint(x)")
        text, _ = MockProvider().send(prompt, CFG)
        sol = parse_mot_response(text)
        assert sol.final_code == "x = input()\nprint(x)"
        assert sol.outline

    def test_rules_from_fixture_dir(self, tmp_path):
        rules = tmp_path / "rules.jsonl"
        rules.write_text(json.dumps({"contains": "magic", "response": "matched!"}) + "\n")
        provider = MockProvider(fixture_dir=tmp_path)
        text, _ = provider.send(prompt_of("some magic words"), CFG)
        assert text == "matched!"

    def test_rule_with_a_unicode_line_separator(self, tmp_path):
        rule = {"contains": "magic\u2028words", "response": "matched\x85!"}
        (tmp_path / "rules.jsonl").write_text(json.dumps(rule, ensure_ascii=False) + "\n",
                                              encoding="utf-8")
        provider = MockProvider(fixture_dir=tmp_path)
        assert provider.send(prompt_of("some magic\u2028words"), CFG)[0] == "matched\x85!"

    def test_lone_carriage_return_does_not_end_a_rule_line(self, tmp_path):
        # "\r" between JSON tokens is whitespace: the rule is one line, and a bad
        # line after it keeps its number
        rule = json.dumps({"contains": "magic", "response": "matched!"}).replace(", ", ",\r")
        (tmp_path / "rules.jsonl").write_bytes(f"{rule}\n{{not json\n".encode())
        with pytest.raises(ValueError, match=r"rules\.jsonl:2: bad mock rule"):
            MockProvider(fixture_dir=tmp_path)
        (tmp_path / "rules.jsonl").write_bytes(f"{rule}\n".encode())
        assert MockProvider(fixture_dir=tmp_path).send(prompt_of("magic"), CFG)[0] == "matched!"

    def test_rules_all_substrings_must_match(self, tmp_path):
        rules = [{"contains": ["alpha", "beta"], "response": "both"}, {"response": "fallback"}]
        (tmp_path / "rules.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rules))
        provider = MockProvider(fixture_dir=tmp_path, synthesize=False)
        assert provider.send(prompt_of("alpha beta"), CFG)[0] == "both"
        assert provider.send(prompt_of("alpha only"), CFG)[0] == "fallback"

    def test_first_rule_matching_tag_and_needles_wins(self, tmp_path):
        rules = [{"tag": "clean", "contains": "x", "response": "clean x"},
                 {"contains": ["x", "y"], "response": "x and y"},
                 {"contains": [], "response": "any"},
                 {"contains": "x", "response": "unreached"}]
        (tmp_path / "rules.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rules))
        provider = MockProvider(fixture_dir=tmp_path, synthesize=False)
        clean = Prompt(system="sys", user="x", tag=PromptTag.CLEAN)
        assert provider.send(clean, CFG)[0] == "clean x"
        assert provider.send(prompt_of("x y"), CFG)[0] == "x and y"
        assert provider.send(prompt_of("x"), CFG)[0] == "any"

    def test_default_txt_is_refused_until_a_rule_reads_it(self, tmp_path):
        # the mock has no fallback file: one that no rule reads would be ignored silently
        (tmp_path / "default.txt").write_text("fallback")
        with pytest.raises(ValueError, match=r'default\.txt: .*add \{"response_file": "default\.txt"\} '
                                             r"as the last line of .*rules\.jsonl"):
            MockProvider(fixture_dir=tmp_path)
        rules = [{"contains": "magic", "response": "matched!"}, {"response_file": "./default.txt"}]
        (tmp_path / "rules.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rules))
        provider = MockProvider(fixture_dir=tmp_path, synthesize=False)
        assert provider.send(prompt_of("magic"), CFG)[0] == "matched!"
        assert provider.send(prompt_of("other"), CFG)[0] == "fallback"
