import pytest
import requests
from hypothesis import given, settings, strategies as st

from helpers import reference_render_prompt, render_outcome
from vdsagent import dsl, llm
from vdsagent.errors import ConfigError
from vdsagent.knowledge import (PRIMITIVE_CATEGORIES, Exemplar, Primitive,
                                RetrievedContext)

DIGEST = "nodes: 3\nedges: 4\nagvs: 1\ntasks: 1"

RETRIEVED = RetrievedContext(
    primitives=(Primitive("p1", "constraint_formulation", "Flow balance",
                          "Every route must be connected."),),
    exemplars=(Exemplar("ex1", "a worked case", "digest text",
                        "model m\nobjective minimize total_travel_time\n"
                        "constraints {\n  flow_balance all\n}"),),
    scores=(1.5,),
)


# empty and whitespace-only strings as well as arbitrary text
TEXT = st.sampled_from(("", " ", "\n\t ")) | st.text(max_size=30)
OPTIONAL_TEXT = st.none() | TEXT
PRIMITIVES = st.builds(Primitive, TEXT, st.sampled_from(PRIMITIVE_CATEGORIES),
                       TEXT, TEXT)
EXEMPLARS = st.builds(Exemplar, TEXT, TEXT, TEXT, TEXT)
RETRIEVED_CONTEXTS = st.builds(
    lambda primitives, exemplars: RetrievedContext(
        primitives=tuple(primitives), exemplars=tuple(exemplars),
        scores=(1.0,) * len(exemplars)),
    st.lists(PRIMITIVES, max_size=3), st.lists(EXEMPLARS, max_size=3))
CONTEXTS = st.builds(
    llm.PromptContext, env_digest=TEXT,
    requirements=st.lists(TEXT, max_size=3).map(tuple),
    retrieved=st.none() | RETRIEVED_CONTEXTS,
    corrections=st.lists(TEXT, max_size=3).map(tuple),
    scheme=OPTIONAL_TEXT, failed_program=OPTIONAL_TEXT,
    error_message=OPTIONAL_TEXT)


def ctx(**kwargs):
    base = dict(env_digest=DIGEST, requirements=("Close the road.",))
    base.update(kwargs)
    return llm.PromptContext(**base)


class TestRenderPrompt:
    def test_modeler_sections(self):
        bundle = llm.render_prompt("modeler", ctx(retrieved=RETRIEVED))
        assert bundle.role == "modeler"
        for title in ("## Terminal environment", "## Operational requirements",
                      "## Modeling primitives", "## Worked exemplars",
                      "## Correction instructions", "## Instruction"):
            assert title in bundle.user
        assert "1. Close the road." in bundle.user
        assert "Flow balance" in bundle.user
        assert "### ex1" in bundle.user

    def test_no_retrieval_omits_sections(self):
        bundle = llm.render_prompt("modeler", ctx(retrieved=None))
        assert "## Modeling primitives" not in bundle.user
        assert "## Worked exemplars" not in bundle.user

    def test_empty_sections_render_none_marker(self):
        bundle = llm.render_prompt("modeler", ctx(requirements=()))
        assert "## Operational requirements\n(none)" in bundle.user
        assert "## Correction instructions\n(none)" in bundle.user

    def test_corrections_are_numbered(self):
        bundle = llm.render_prompt(
            "modeler", ctx(corrections=("fix the edge", "add the reverse")))
        assert "1. fix the edge\n2. add the reverse" in bundle.user

    def test_coder_requires_scheme(self):
        with pytest.raises(llm.MissingContext):
            llm.render_prompt("coder", ctx())
        bundle = llm.render_prompt("coder", ctx(scheme="1. minimize time"))
        assert "## Modeling scheme\n1. minimize time" in bundle.user

    def test_coder_system_embeds_grammar_and_fence(self):
        bundle = llm.render_prompt("coder", ctx(scheme="s"))
        assert dsl.GRAMMAR in bundle.system
        assert dsl.FENCE_TAG in bundle.user

    def test_debugger_requires_failure_context(self):
        with pytest.raises(llm.MissingContext):
            llm.render_prompt("debugger", ctx(failed_program="model m"))
        bundle = llm.render_prompt(
            "debugger", ctx(failed_program="model broken",
                            error_message="parse error at line 1"))
        assert "## Failed program\nmodel broken" in bundle.user
        assert "## Error message\nparse error at line 1" in bundle.user
        assert "## Terminal environment" not in bundle.user

    def test_unknown_role(self):
        with pytest.raises(ConfigError):
            llm.render_prompt("retriever", ctx())

    def test_deterministic(self):
        a = llm.render_prompt("modeler", ctx(retrieved=RETRIEVED))
        b = llm.render_prompt("modeler", ctx(retrieved=RETRIEVED))
        assert a == b

    def test_token_budget(self):
        with pytest.raises(llm.PromptBudgetExceeded):
            llm.render_prompt("modeler", ctx(), token_budget=10)
        llm.render_prompt("modeler", ctx(), token_budget=100000)

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_renderer(self, data):
        # every role, including an unknown one, and every missing context
        role = data.draw(st.sampled_from(llm.ROLES + ("retriever",)))
        context = data.draw(CONTEXTS)
        reference = render_outcome(reference_render_prompt, role, context,
                                   10 ** 9)
        tokens = 0
        if isinstance(reference, llm.PromptBundle):
            tokens = (len(reference.system) + len(reference.user)) // 4
        # a budget on either side of the prompt's size
        budget = tokens + data.draw(st.integers(-2, 2))
        assert (render_outcome(llm.render_prompt, role, context, budget)
                == render_outcome(reference_render_prompt, role, context,
                                  budget))


class TestParseReflection:
    def test_both_markers(self):
        r = llm.parse_reflection(
            "DIAGNOSIS: the edge is reversed.\n"
            "CORRECTION: remove (6, 7) instead of (7, 6).")
        assert r.diagnosis == "the edge is reversed."
        assert r.correction == "remove (6, 7) instead of (7, 6)."

    def test_reversed_order(self):
        r = llm.parse_reflection("CORRECTION: do it right.\nDIAGNOSIS: bad.")
        assert r.correction == "do it right."
        assert r.diagnosis == "bad."

    def test_missing_markers_fall_back_to_full_text(self):
        r = llm.parse_reflection("  just fix the braces  ")
        assert r.diagnosis == ""
        assert r.correction == "just fix the braces"

    def test_empty_correction_falls_back(self):
        text = "DIAGNOSIS: oops.\nCORRECTION:"
        r = llm.parse_reflection(text)
        assert r.correction == text.strip()

    def test_first_occurrence_wins(self):
        r = llm.parse_reflection(
            "CORRECTION: first.\nCORRECTION: second.\nDIAGNOSIS: d.")
        assert r.correction == "first.\nCORRECTION: second."


def bundle_for(role, text="hello"):
    return llm.PromptBundle(role=role, system="sys", user=text)


class TestMockBackend:
    def test_per_role_order(self):
        mock = llm.MockBackend({"modeler": ["m1", "m2"], "coder": ["c1"]})
        assert mock.complete(bundle_for("modeler")) == "m1"
        assert mock.complete(bundle_for("coder")) == "c1"
        assert mock.complete(bundle_for("modeler")) == "m2"

    def test_exhaustion_names_call_number(self):
        mock = llm.MockBackend({"modeler": ["only"]})
        mock.complete(bundle_for("modeler"))
        with pytest.raises(llm.BackendExhausted) as exc:
            mock.complete(bundle_for("modeler"))
        assert "call #2" in str(exc.value)
        with pytest.raises(llm.BackendExhausted):
            mock.complete(bundle_for("coder"))

    def test_unknown_role_in_script(self):
        with pytest.raises(ConfigError):
            llm.MockBackend({"oracle": ["x"]})

    # a string is a sequence, but not a list of responses
    @pytest.mark.parametrize("responses", ("hello", 5))
    def test_role_not_mapped_to_list(self, responses):
        with pytest.raises(ConfigError):
            llm.MockBackend({"coder": responses})

    def test_conditional_entry(self):
        mock = llm.MockBackend({"coder": [
            {"if_contains": "closed", "then": "A", "else": "B"}]})
        assert mock.complete(bundle_for("coder", "road is closed")) == "A"
        mock = llm.MockBackend({"coder": [
            {"if_contains": "closed", "then": "A", "else": "B"}]})
        assert mock.complete(bundle_for("coder", "all clear")) == "B"

    def test_conditional_checks_system_too(self):
        mock = llm.MockBackend({"coder": [
            {"if_contains": "sys", "then": "A", "else": "B"}]})
        assert mock.complete(bundle_for("coder", "nothing")) == "A"

    def test_bad_entry(self):
        with pytest.raises(ConfigError):
            llm.MockBackend({"coder": [{"then": "A"}]})

    # every entry is checked when the script is read, not when it is used
    @pytest.mark.parametrize("entry", (
        3, None, ["a"], {"if_contains": 3, "then": "a", "else": "b"},
        {"if_contains": "x", "then": "a", "else": None}))
    def test_bad_entry_names_role_and_index(self, entry):
        with pytest.raises(ConfigError) as exc:
            llm.MockBackend({"modeler": ["ok"], "debugger": ["ok", entry]})
        assert str(exc.value).startswith("mock script debugger[1]: ")

    @pytest.mark.parametrize("script", (5, "text", ["modeler"], None))
    def test_script_not_an_object(self, script):
        with pytest.raises(ConfigError) as exc:
            llm.MockBackend(script)
        assert "expected an object" in str(exc.value)


class FakeResponse:
    def __init__(self, status_code=200, body=None, raw=None):
        self.status_code = status_code
        self._body = body
        self._raw = raw

    def json(self):
        if self._raw is not None:
            raise ValueError("not json")
        return self._body


class TestHttpBackend:
    def ok_body(self, text="the answer"):
        return {"choices": [{"message": {"content": text}}]}

    def test_payload_shape_and_auth(self):
        calls = {}

        def post(url, json=None, headers=None, timeout=None):
            calls.update(url=url, payload=json, headers=headers,
                         timeout=timeout)
            return FakeResponse(body=self.ok_body())

        backend = llm.HttpBackend("http://api.test/v1", "small-model",
                                  key="sk-1", timeout=7.0, post=post)
        text = backend.complete(bundle_for("modeler", "user text"))
        assert text == "the answer"
        assert calls["url"] == "http://api.test/v1"
        assert calls["timeout"] == 7.0
        payload = calls["payload"]
        assert payload["model"] == "small-model"
        assert payload["temperature"] == 0
        assert payload["messages"] == [
            {"role": "system", "content": "sys"},
            {"role": "user", "content": "user text"},
        ]
        assert calls["headers"]["Authorization"] == "Bearer sk-1"

    def test_no_key_no_auth_header(self):
        seen = {}

        def post(url, json=None, headers=None, timeout=None):
            seen.update(headers=headers)
            return FakeResponse(body=self.ok_body())

        llm.HttpBackend("u", "m", post=post).complete(bundle_for("coder"))
        assert "Authorization" not in seen["headers"]

    def test_non_200(self):
        backend = llm.HttpBackend(
            "u", "m", post=lambda *a, **k: FakeResponse(status_code=503))
        with pytest.raises(llm.TransportError) as exc:
            backend.complete(bundle_for("coder"))
        assert "503" in str(exc.value)

    def test_request_exception(self):
        def post(*a, **k):
            raise requests.ConnectionError("refused")

        backend = llm.HttpBackend("u", "m", post=post)
        with pytest.raises(llm.TransportError):
            backend.complete(bundle_for("coder"))

    def test_malformed_body(self):
        backend = llm.HttpBackend(
            "u", "m", post=lambda *a, **k: FakeResponse(raw="oops"))
        with pytest.raises(llm.FormatError):
            backend.complete(bundle_for("coder"))

    def test_missing_choices(self):
        backend = llm.HttpBackend(
            "u", "m", post=lambda *a, **k: FakeResponse(body={"choices": []}))
        with pytest.raises(llm.FormatError):
            backend.complete(bundle_for("coder"))

    def test_text_field_fallback(self):
        backend = llm.HttpBackend(
            "u", "m",
            post=lambda *a, **k: FakeResponse(
                body={"choices": [{"text": "plain"}]}))
        assert backend.complete(bundle_for("coder")) == "plain"

    def test_non_string_content(self):
        backend = llm.HttpBackend(
            "u", "m",
            post=lambda *a, **k: FakeResponse(
                body={"choices": [{"message": {"content": 5}}]}))
        with pytest.raises(llm.FormatError):
            backend.complete(bundle_for("coder"))

    def test_from_env(self, monkeypatch):
        monkeypatch.delenv(llm.ENV_URL, raising=False)
        monkeypatch.delenv(llm.ENV_MODEL, raising=False)
        with pytest.raises(ConfigError):
            llm.HttpBackend.from_env()
        monkeypatch.setenv(llm.ENV_URL, "http://api.test")
        with pytest.raises(ConfigError):
            llm.HttpBackend.from_env()
        monkeypatch.setenv(llm.ENV_MODEL, "m")
        backend = llm.HttpBackend.from_env()
        assert isinstance(backend, llm.HttpBackend)


class FlakyBackend:
    def __init__(self, failures, text="ok"):
        self.failures = failures
        self.calls = 0
        self.text = text

    def complete(self, bundle):
        self.calls += 1
        if self.calls <= self.failures:
            raise llm.TransportError("flaky")
        return self.text


class TestCompleteRetries:
    @pytest.fixture(autouse=True)
    def no_sleep(self, monkeypatch):
        self.sleeps = []
        monkeypatch.setattr(llm, "_sleep", self.sleeps.append)

    def test_retries_then_succeeds(self):
        backend = FlakyBackend(failures=2)
        assert llm.complete(backend, bundle_for("modeler")) == "ok"
        assert backend.calls == 3
        assert len(self.sleeps) == 2

    def test_gives_up_after_retries(self):
        backend = FlakyBackend(failures=3)
        with pytest.raises(llm.TransportError):
            llm.complete(backend, bundle_for("modeler"))
        assert backend.calls == 3

    def test_empty_completion_is_format_error(self):
        backend = FlakyBackend(failures=0, text="   \n")
        with pytest.raises(llm.FormatError):
            llm.complete(backend, bundle_for("modeler"))

    def test_non_string_completion_is_format_error(self):
        backend = FlakyBackend(failures=0, text=5)
        with pytest.raises(llm.FormatError) as exc:
            llm.complete(backend, bundle_for("modeler"))
        assert str(exc.value).startswith("backend returned a non-string")

    def test_format_errors_not_retried(self):
        class BadBackend:
            calls = 0

            def complete(self, bundle):
                self.calls += 1
                raise llm.FormatError("weird shape")

        backend = BadBackend()
        with pytest.raises(llm.FormatError):
            llm.complete(backend, bundle_for("modeler"))
        assert backend.calls == 1
