import dataclasses
import json
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

import helpers
from vdsagent import bench, injection
from vdsagent import knowledge as kn
from vdsagent.cli import main
from vdsagent.errors import ValidationError
from vdsagent.env import (EXPERTISE_LEVELS, Agv, Edge, FleetConfig, Network,
                          Node, Requirements, Task, TerminalEnv, env_digest)
from vdsagent.instances import generate_instances, with_level

CLOSURE_EXEMPLAR = kn.Exemplar(
    id="ex-closure",
    description=("Road closure on a terminal segment; both directions of "
                 "the closed road are removed."),
    env_digest="",
    program="""model closure_example
objective minimize total_travel_time
constraints {
  flow_balance all
  remove_edge (6, 7)
  remove_edge (7, 6)
}""",
)

FORBIDDEN_EXEMPLAR = kn.Exemplar(
    id="ex-forbidden",
    description=("Over-height vehicle forbidden from a height-restricted "
                 "road segment."),
    env_digest="",
    program="""model forbidden_example
objective minimize total_travel_time
constraints {
  flow_balance all
  forbid_edge vehicle "AGV-4" (5, 6)
  forbid_edge vehicle "AGV-4" (6, 5)
}""",
)

ROUTE_EXEMPLAR = kn.Exemplar(
    id="ex-route",
    description=("Dangerous goods task must follow a designated route "
                 "through the yard."),
    env_digest="",
    program="""model designated_example
objective minimize total_travel_time
constraints {
  flow_balance all
  require_subpath task "T3" [6, 10, 11]
}""",
)

THREE = (CLOSURE_EXEMPLAR, FORBIDDEN_EXEMPLAR, ROUTE_EXEMPLAR)

VALID_PROGRAM = ("model m\nobjective minimize total_travel_time\n"
                 "constraints {\n  flow_balance all\n}")


class TestTokenize:
    def test_lowercase_alnum_runs(self):
        assert kn.tokenize('Remove_edge (6, 7) "AGV-4"!') == \
            ["remove", "edge", "6", "7", "agv", "4"]

    @pytest.mark.parametrize("text", [
        "\u212a",                      # Kelvin sign, lowercases to ASCII k
        "\u0130stanbul",               # dotted capital I: i + combining dot
        "\uff11\uff12 gate\uff13",     # full-width digits are separators
        "a\ud800b",                    # lone surrogate
        "x\x00y\tz\n\r\n7 \x00",       # NUL, tabs and newlines
        "", "   ", "AGV-4\u00e9t\u00e9",
    ])
    def test_matches_regex_on_edge_cases(self, text):
        assert kn.tokenize(text) == helpers.regex_tokenize(text)

    @settings(max_examples=400, deadline=None)
    @given(st.text(st.one_of(
        st.sampled_from("aZ09 _-.\t\n\x00"),
        st.characters(exclude_categories=()))))
    @example("\u212a\u0130\ud800\uff10")
    def test_matches_regex(self, text):
        assert kn.tokenize(text) == helpers.regex_tokenize(text)


class TestValidateExemplar:
    def test_valid(self):
        kn.validate_exemplar(CLOSURE_EXEMPLAR)

    def test_rejects_empty_id(self):
        with pytest.raises(ValidationError):
            kn.validate_exemplar(kn.Exemplar("", "d", "", VALID_PROGRAM))

    @pytest.mark.parametrize("ident", [7, None, "sub/dir-x", "../escape",
                                       ".hidden", "-flag", "a b", "x\\y"])
    def test_rejects_unsafe_id(self, ident):
        with pytest.raises(ValidationError) as exc:
            kn.validate_exemplar(kn.Exemplar(ident, "d", "", VALID_PROGRAM))
        assert "exemplar id" in str(exc.value)

    @pytest.mark.parametrize("ident", ["acc-0001", "ex.v2_a", "7"])
    def test_accepts_file_stem_id(self, ident):
        kn.validate_exemplar(kn.Exemplar(ident, "d", "", VALID_PROGRAM))

    @pytest.mark.parametrize("field", ["description", "env_digest", "program"])
    def test_rejects_non_string_field(self, field):
        ex = dataclasses.replace(CLOSURE_EXEMPLAR, **{field: 5})
        with pytest.raises(ValidationError) as exc:
            kn.validate_exemplar(ex)
        assert f"needs string field '{field}'" in str(exc.value)

    def test_rejects_blank_description(self):
        with pytest.raises(ValidationError):
            kn.validate_exemplar(kn.Exemplar("x", "  ", "", VALID_PROGRAM))

    def test_rejects_unparseable_program(self):
        with pytest.raises(ValidationError) as exc:
            kn.validate_exemplar(kn.Exemplar("x", "d", "", "model only"))
        assert "does not parse" in str(exc.value)

    def test_rejects_static_failure(self):
        bad = ("model m\nobjective minimize total_travel_time\n"
               "constraints {\n  remove_edge (1, 2)\n}")
        with pytest.raises(ValidationError) as exc:
            kn.validate_exemplar(kn.Exemplar("x", "d", "", bad))
        assert "static" in str(exc.value)


class TestKnowledgeBase:
    def test_duplicate_ids_rejected(self):
        message = f"^duplicate exemplar id {CLOSURE_EXEMPLAR.id}$"
        with pytest.raises(ValidationError, match=message):
            kn.KnowledgeBase(exemplars=(CLOSURE_EXEMPLAR, CLOSURE_EXEMPLAR))
        flow = kn.Primitive("flow", "constraint_formulation", "t", "b")
        with pytest.raises(ValidationError,
                           match="^duplicate primitive id flow$"):
            kn.KnowledgeBase(primitives=(flow, flow))

    def test_append_validates(self):
        kb = kn.KnowledgeBase()
        with pytest.raises(ValidationError):
            kb.append_exemplar(kn.Exemplar("x", "d", "", "nonsense"))
        assert kb.exemplars == ()

    def test_append_rejects_duplicate_id(self):
        kb = kn.KnowledgeBase(exemplars=(CLOSURE_EXEMPLAR,))
        with pytest.raises(ValidationError):
            kb.append_exemplar(CLOSURE_EXEMPLAR)

    def test_next_exemplar_id_skips_collisions(self):
        kb = kn.KnowledgeBase()
        assert kb.next_exemplar_id() == "acc-0001"
        kb.append_exemplar(kn.Exemplar("acc-0002", "d", "", VALID_PROGRAM))
        # one stored entry -> counter starts at 2, which is taken
        assert kb.next_exemplar_id() == "acc-0003"

    def test_snapshot_isolation(self):
        kb = kn.KnowledgeBase(exemplars=(CLOSURE_EXEMPLAR,))
        snap = kb.snapshot()
        kb.append_exemplar(FORBIDDEN_EXEMPLAR)
        assert len(snap.exemplars) == 1
        snap.append_exemplar(ROUTE_EXEMPLAR)
        assert len(kb.exemplars) == 2
        assert snap.root is None

    def test_snapshot_keeps_its_own_ids(self):
        kb = kn.KnowledgeBase(exemplars=(CLOSURE_EXEMPLAR,))
        snap = kb.snapshot()
        kb.append_exemplar(kn.Exemplar("acc-0002", "d", "", VALID_PROGRAM))
        assert kb.next_exemplar_id() == "acc-0003"
        assert snap.next_exemplar_id() == "acc-0002"
        snap.append_exemplar(kn.Exemplar("acc-0002", "e", "", VALID_PROGRAM))
        with pytest.raises(ValidationError, match="acc-0002 already present"):
            kb.append_exemplar(kn.Exemplar("acc-0002", "e", "", VALID_PROGRAM))


class TestLoadAndPersist:
    def write_kb(self, root):
        prim = root / "primitives"
        prim.mkdir(parents=True)
        (prim / "a.md").write_text(
            "---\nid: flow\ncategory: constraint_formulation\n"
            "title: Flow balance\n---\n\nKeep routes connected.\n")
        ex = root / "exemplars"
        ex.mkdir()
        (ex / "one.json").write_text(json.dumps({
            "id": "one", "description": "closure example",
            "env_digest": "", "program": CLOSURE_EXEMPLAR.program}))

    def test_load_round_trip(self, tmp_path):
        self.write_kb(tmp_path)
        kb = kn.load(tmp_path)
        assert [p.id for p in kb.primitives] == ["flow"]
        assert kb.primitives[0].body == "Keep routes connected."
        assert [e.id for e in kb.exemplars] == ["one"]
        assert kb.root == tmp_path

    def test_load_rejects_non_object_exemplar(self, tmp_path):
        self.write_kb(tmp_path)
        (tmp_path / "exemplars" / "two.json").write_text("[1]")
        with pytest.raises(ValidationError) as exc:
            kn.load(tmp_path)
        assert "two.json" in str(exc.value)

    def test_load_missing_dir(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            kn.load(tmp_path / "nope")

    def test_bad_front_matter(self, tmp_path):
        prim = tmp_path / "primitives"
        prim.mkdir()
        (prim / "bad.md").write_text("no front matter at all\n")
        with pytest.raises(ValidationError):
            kn.load(tmp_path)

    def test_unknown_category_rejected(self, tmp_path):
        prim = tmp_path / "primitives"
        prim.mkdir()
        (prim / "bad.md").write_text(
            "---\nid: x\ncategory: philosophy\ntitle: T\n---\nbody\n")
        with pytest.raises(ValidationError):
            kn.load(tmp_path)

    @pytest.mark.parametrize("text, message", [
        ("---\nid: x\ncategory: objective_function\n",
         "unterminated front-matter"),
        ("---\nid: [x\n---\nbody\n", "bad front-matter ("),
        ("---\n- id\n- x\n---\nbody\n", "front-matter must be a mapping"),
        ("---\ncategory: objective_function\ntitle: T\n---\n",
         "front-matter needs 'id'"),
        ("---\nid: x\ncategory: 5\ntitle: T\n---\n",
         "front-matter needs 'category'"),
        ("---\nid: x\ncategory: objective_function\n---\n",
         "front-matter needs 'title'"),
    ], ids=["unterminated", "bad-yaml", "list", "no-id", "int-category",
            "no-title"])
    def test_load_and_cli_reject_bad_primitive(self, tmp_path, capsys, text,
                                               message):
        self.write_kb(tmp_path)
        (tmp_path / "primitives" / "bad.md").write_text(text)
        self.assert_rejected(tmp_path, capsys, f"bad.md: {message}")

    def test_load_and_cli_reject_duplicate_primitive_id(self, tmp_path,
                                                        capsys):
        self.write_kb(tmp_path)
        prim = tmp_path / "primitives"
        (prim / "b.md").write_text((prim / "a.md").read_text())
        self.assert_rejected(tmp_path, capsys,
                             "b.md: duplicate primitive id flow, also in a.md")

    def test_load_and_cli_reject_invalid_stored_exemplar(self, tmp_path,
                                                         capsys):
        self.write_kb(tmp_path)
        (tmp_path / "exemplars" / "two.json").write_text(json.dumps({
            "id": "two", "description": "no flow balance", "env_digest": "",
            "program": injection.UNGROUNDED_PROGRAM}))
        self.assert_rejected(tmp_path, capsys,
                             "two.json: exemplar two: program fails static "
                             "checks")

    @staticmethod
    def assert_rejected(root, capsys, prefix):
        with pytest.raises(ValidationError) as exc:
            kn.load(root)
        assert str(exc.value).startswith(prefix)
        assert main(["kb", "list", "--kb", str(root)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {prefix}")

    def test_append_persists_and_reloads(self, tmp_path):
        self.write_kb(tmp_path)
        kb = kn.load(tmp_path)
        kb.append_exemplar(ROUTE_EXEMPLAR)
        assert (tmp_path / "exemplars" / "ex-route.json").is_file()
        again = kn.load(tmp_path)
        assert {e.id for e in again.exemplars} == {"one", "ex-route"}

    @pytest.mark.parametrize("ident", [7, "sub/dir-x", "../escape"])
    def test_append_unsafe_id_writes_nothing(self, tmp_path, ident):
        root = tmp_path / "kb"
        self.write_kb(root)
        before = sorted(tmp_path.rglob("*"))
        kb = kn.load(root)
        with pytest.raises(ValidationError):
            kb.append_exemplar(kn.Exemplar(ident, "d", "", VALID_PROGRAM))
        assert sorted(tmp_path.rglob("*")) == before
        assert [e.id for e in kb.exemplars] == ["one"]

    @pytest.mark.parametrize("indexed", [False, True])
    def test_failed_write_leaves_base_unchanged(self, tmp_path, monkeypatch,
                                                indexed):
        self.write_kb(tmp_path)
        kb = kn.load(tmp_path)
        query = kn.tokenize("road closure example")
        if indexed:
            kn.retrieve(kb, query, 3)
        before = kn.retrieve(kb, query, 3)

        def full_disk(path, data):
            raise OSError(28, "No space left on device")
        monkeypatch.setattr(kn, "write_json", full_disk)
        twin = kn.Exemplar("two", "closure example", "",
                           CLOSURE_EXEMPLAR.program)
        for ex in (twin, ROUTE_EXEMPLAR):
            with pytest.raises(OSError):
                kb.append_exemplar(ex)
        assert [e.id for e in kb.exemplars] == ["one"]
        assert kb.next_exemplar_id() == "acc-0002"
        assert kn.retrieve(kb, query, 3) == before
        assert sorted(p.name for p in (tmp_path / "exemplars").iterdir()) \
            == ["one.json"]
        monkeypatch.undo()
        kb.append_exemplar(twin)  # the id was never taken
        ctx = kn.retrieve(kb, query, 3)
        assert [e.id for e in ctx.exemplars] == ["one", "two"]
        assert ([e.id for e in ctx.exemplars], list(ctx.scores)) \
            == ranked_by_reference(kb, "road closure example", 3)

    def test_load_rejects_id_not_matching_file(self, tmp_path):
        self.write_kb(tmp_path)
        (tmp_path / "exemplars" / "a.json").write_text(json.dumps({
            "id": "b", "description": "d", "env_digest": "",
            "program": VALID_PROGRAM}))
        with pytest.raises(ValidationError) as exc:
            kn.load(tmp_path)
        assert "does not match the file name" in str(exc.value)

    def test_seed_kb_contents(self):
        kb = kn.load_seed_kb()
        assert len(kb.primitives) >= 3
        categories = {p.category for p in kb.primitives}
        assert categories == {"variable_definition", "constraint_formulation",
                              "objective_function"}
        assert len(kb.exemplars) == 1
        assert kb.exemplars[0].id == "classic-dispatch"
        assert kb.root is None  # packaged base never persists appends

    def test_seed_exemplar_matches_default_env(self, closure_instance):
        env, _ = closure_instance
        kb = kn.load_seed_kb()
        assert kb.exemplars[0].env_digest == env_digest(env)


def token_base(token_lists, ids=None):
    """A base holding each token list as one exemplar's description (ids
    d000, d001, ... unless given), so its document is those tokens."""
    ids = ids or [f"d{i:03d}" for i in range(len(token_lists))]
    return kn.KnowledgeBase(exemplars=[
        kn.Exemplar(ident, " ".join(tokens), "", "")
        for ident, tokens in zip(ids, token_lists)])


def store_order_scores(kb, terms):
    """Every exemplar's score, in store order, from `retrieve` with k =
    |exemplars|, whose whole ranking must be the reference's."""
    n = len(kb.exemplars)
    ctx = kn.retrieve(kb, terms, n)
    ids, scores = ranked_by_reference(kb, terms, n)
    assert [e.id for e in ctx.exemplars] == ids
    assert list(ctx.scores) == scores
    by_id = dict(zip(ids, scores))
    return [by_id[e.id] for e in kb.exemplars]


class TestBm25:
    QUERY = "The road between node 6 and node 7 is closed."

    def docs(self):
        return [kn.tokenize(e.document()) for e in THREE]

    def test_frozen_fixture_scores(self):
        scores = store_order_scores(token_base(self.docs()),
                                    kn.tokenize(self.QUERY))
        expected = [3.6053741191844946, 0.6346745904418587,
                    0.6292782218552455]
        assert scores == pytest.approx(expected, rel=1e-12)

    def test_zero_overlap_scores_zero(self):
        scores = store_order_scores(token_base(self.docs()), ["xylophone"])
        assert scores == [0.0, 0.0, 0.0]

    def test_duplicate_query_terms_count_once(self):
        kb = token_base(self.docs())
        once = store_order_scores(kb, kn.tokenize("road closed"))
        twice = store_order_scores(kb, kn.tokenize("road road closed closed"))
        assert once == twice

    def test_unrelated_document_never_reorders(self):
        rng = random.Random(5)
        vocab = [f"w{i}" for i in range(12)]
        for _ in range(500):
            docs = [[rng.choice(vocab) for _ in range(rng.randint(1, 8))]
                    for _ in range(rng.randint(2, 5))]
            query = [rng.choice(vocab) for _ in range(rng.randint(1, 4))]
            before = store_order_scores(token_base(docs), query)
            unrelated = ["zzz"] * rng.randint(1, 30)
            after = store_order_scores(token_base(docs + [unrelated]), query)
            assert after[:len(docs)] == before
            assert after[-1] == 0.0


class TestRetrieve:
    def base(self):
        return kn.KnowledgeBase(
            primitives=(
                kn.Primitive("obj", "objective_function", "t", "b"),
                kn.Primitive("vars", "variable_definition", "t", "b"),
                kn.Primitive("balance", "constraint_formulation", "t", "b"),
                kn.Primitive("bans", "constraint_formulation", "t", "b"),
            ),
            exemplars=THREE,
        )

    def test_text_query_rejected(self):
        # iterating a string would rank by its characters
        with pytest.raises(TypeError):
            kn.retrieve(self.base(), "road closed", 1)

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            kn.retrieve(self.base(), kn.tokenize("road closed"), -1)

    def test_k_zero_keeps_primitives(self):
        ctx = kn.retrieve(self.base(), kn.tokenize("road closed"), 0)
        assert ctx.exemplars == ()
        assert ctx.scores == ()
        assert len(ctx.primitives) == 4

    def test_primitives_ordered_by_category_then_id(self):
        kb = self.base()
        ctx = kn.retrieve(kb, kn.tokenize("anything"), 1)
        assert [p.id for p in ctx.primitives] == \
            ["vars", "balance", "bans", "obj"]
        # the base holds them in that order once; retrieval sorts nothing
        assert ctx.primitives is kb.primitives

    def test_top_k_ranking(self):
        ctx = kn.retrieve(
            self.base(),
            kn.tokenize("The road between node 6 and node 7 is closed."), 2)
        assert [e.id for e in ctx.exemplars] == ["ex-closure", "ex-forbidden"]
        assert ctx.scores[0] > ctx.scores[1]

    def test_k_larger_than_store(self):
        ctx = kn.retrieve(self.base(), kn.tokenize("road"), 50)
        assert len(ctx.exemplars) == 3

    def test_tie_broken_by_id(self):
        twin_a = kn.Exemplar("a-twin", "identical words", "", VALID_PROGRAM)
        twin_b = kn.Exemplar("b-twin", "identical words", "", VALID_PROGRAM)
        kb = kn.KnowledgeBase(exemplars=(twin_b, twin_a))
        ctx = kn.retrieve(kb, kn.tokenize("identical words"), 2)
        assert [e.id for e in ctx.exemplars] == ["a-twin", "b-twin"]


def ranked_by_reference(kb, query, k):
    """Top-k (ids, scores) by the list-count scorer, ties by id; `query`
    is text or a collection of terms."""
    exemplars = kb.exemplars
    terms = kn.tokenize(query) if isinstance(query, str) else list(query)
    scores = helpers.list_count_bm25(
        terms, [kn.tokenize(e.document()) for e in exemplars])
    order = sorted(range(len(exemplars)),
                   key=lambda i: (-scores[i], exemplars[i].id))[:k]
    return [exemplars[i].id for i in order], [scores[i] for i in order]


class TestRetrieveMatchesReference:
    """Cached term counts rank and score exactly as re-counting tokens."""

    # Shared by descriptions and queries; program keywords are shared by
    # every document, and "xylophone" by none.
    VOCAB = ("road", "closed", "node", "vehicle", "route", "ban", "gate",
             "quay", "yard", "6", "7", "agv", "4")
    QUERY_ONLY = ("xylophone", "constraints", "forbid", "edge", "model")
    PROGRAMS = tuple(e.program for e in THREE) + (VALID_PROGRAM,)

    def random_base(self, rng, size):
        ids = [f"ex-{n:03d}" for n in rng.sample(range(1000), size)]
        exemplars = []
        for ident in ids:
            if exemplars and rng.random() < 0.2:  # same text, tied score
                twin = rng.choice(exemplars)
                exemplars.append(kn.Exemplar(ident, twin.description, "",
                                             twin.program))
                continue
            words = rng.choices(self.VOCAB, k=rng.randint(1, 12))
            exemplars.append(kn.Exemplar(ident, " ".join(words), "",
                                         rng.choice(self.PROGRAMS)))
        return exemplars

    def random_query(self, rng):
        pool = self.VOCAB + self.QUERY_ONLY
        return " ".join(rng.choices(pool, k=rng.randint(1, 8)))

    def assert_matches(self, kb, query, k):
        ctx = kn.retrieve(kb, kn.tokenize(query), k)
        ids, scores = ranked_by_reference(kb, query, k)
        assert [e.id for e in ctx.exemplars] == ids
        assert list(ctx.scores) == scores

    def test_random_bases(self):
        rng = random.Random(11)
        for _ in range(60):
            kb = kn.KnowledgeBase(
                exemplars=self.random_base(rng, rng.randint(1, 40)))
            for _ in range(8):
                k = rng.choice((1, 3, len(kb.exemplars)))
                self.assert_matches(kb, self.random_query(rng), k)
        self.assert_matches(kb, "xylophone", len(kb.exemplars))

    def test_append_to_base_and_snapshot(self):
        rng = random.Random(12)
        for round_ in range(20):
            kb = kn.KnowledgeBase(
                exemplars=self.random_base(rng, rng.randint(1, 20)))
            queries = [self.random_query(rng) for _ in range(5)]
            for query in queries:  # fill the per-exemplar caches first
                self.assert_matches(kb, query, 3)
            snap = kb.snapshot()
            added, other = self.random_base(rng, 2)
            added = kn.Exemplar(f"new-{round_}", added.description, "",
                                added.program)
            other = kn.Exemplar(f"other-{round_}", other.description, "",
                                other.program)
            kb.append_exemplar(added)
            snap.append_exemplar(other)
            assert added.id not in {e.id for e in snap.exemplars}
            assert other.id not in {e.id for e in kb.exemplars}
            for query in queries + [added.description]:
                for base in (kb, snap):
                    self.assert_matches(base, query, len(base.exemplars))


class TestTopK:
    """Heavily tied bases, zero scores and k of 0 or past the store rank
    as the reference's key function does."""

    ref = TestRetrieveMatchesReference()

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_key_function_ranking(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 30)
        ids = [f"ex-{i:03d}" for i in rng.sample(range(1000), n)]
        texts = [" ".join(rng.choices(("road", "closed", "gate"),
                                      k=rng.randint(1, 3)))
                 for _ in range(rng.randint(1, 3))]
        kb = kn.KnowledgeBase(exemplars=[
            kn.Exemplar(i, rng.choice(texts), "", VALID_PROGRAM) for i in ids])
        for query in ("road", "closed gate", "quay road", "xylophone"):
            for k in (0, 1, 3, n, n + 2):
                self.ref.assert_matches(kb, query, k)


class TestIndexLifecycle:
    """The inverted index, built lazily and extended in place, always
    ranks and scores exactly as the list-count reference."""

    ref = TestRetrieveMatchesReference()

    def exemplar(self, rng, ident, extra=""):
        (base,) = self.ref.random_base(rng, 1)
        return kn.Exemplar(ident, f"{base.description} {extra}", "",
                           base.program)

    def assert_all_match(self, kb, queries):
        for query in queries:
            for k in (1, 3, len(kb.exemplars)):
                self.ref.assert_matches(kb, query, k)

    def test_append_before_and_after_first_retrieval(self):
        rng = random.Random(21)
        for round_ in range(20):
            kb = kn.KnowledgeBase(
                exemplars=self.ref.random_base(rng, rng.randint(1, 15)))
            queries = [self.ref.random_query(rng) for _ in range(4)]
            # terms new to the base must get postings of their own
            queries.append("xylophone road")
            kb.append_exemplar(self.exemplar(rng, f"before-{round_}",
                                             "xylophone"))
            self.assert_all_match(kb, queries)
            kb.append_exemplar(self.exemplar(rng, f"after-{round_}",
                                             "xylophone xylophone"))
            kb.append_exemplar(self.exemplar(rng, f"later-{round_}"))
            self.assert_all_match(kb, queries)

    def test_snapshot_of_indexed_base(self):
        rng = random.Random(22)
        for round_ in range(20):
            kb = kn.KnowledgeBase(
                exemplars=self.ref.random_base(rng, rng.randint(1, 15)))
            queries = [self.ref.random_query(rng) for _ in range(4)]
            queries.append("xylophone gate")
            self.assert_all_match(kb, queries)
            snap = kb.snapshot()
            if round_ % 2:  # the snapshot's own index, built or not yet
                self.assert_all_match(snap, queries)
            mine = self.exemplar(rng, f"mine-{round_}", "xylophone")
            theirs = self.exemplar(rng, f"theirs-{round_}", "xylophone")
            kb.append_exemplar(mine)
            snap.append_exemplar(theirs)
            self.assert_all_match(kb, queries)
            self.assert_all_match(snap, queries)
            assert theirs.id not in {e.id for e in kb.exemplars}
            assert mine.id not in {e.id for e in snap.exemplars}
            top = kn.retrieve(snap, kn.tokenize("xylophone"),
                              len(snap.exemplars))
            assert top.exemplars[0] == theirs
            assert top.scores[1:] == (0.0,) * (len(top.scores) - 1)

    def test_base_grown_by_accumulate(self, closure_instance):
        env, _ = closure_instance
        rng = random.Random(23)
        kb = kn.KnowledgeBase(exemplars=THREE)
        queries = [self.ref.random_query(rng) for _ in range(6)]
        for n in range(300):
            ex = self.exemplar(rng, "unused")
            kn.accumulate(kb, env, ex.program, ex.description)
            if n % 60 == 0:
                self.ref.assert_matches(kb, queries[n % 6], 5)
        assert len(kb.exemplars) == 303
        assert kb.exemplars[-1].id == "acc-0303"
        self.assert_all_match(kb, queries)

    def test_no_matching_term_and_k_past_the_matches(self):
        kb = kn.KnowledgeBase(exemplars=THREE)
        ctx = kn.retrieve(kb, kn.tokenize("xylophone harpsichord"), 5)
        assert [e.id for e in ctx.exemplars] == sorted(e.id for e in THREE)
        assert ctx.scores == (0.0, 0.0, 0.0)
        self.ref.assert_matches(kb, "xylophone harpsichord", 5)
        # "height" is in one document only; the rest follow at 0, by id
        ctx = kn.retrieve(kb, kn.tokenize("height xylophone"), 5)
        assert [e.id for e in ctx.exemplars] == [
            "ex-forbidden", "ex-closure", "ex-route"]
        assert ctx.scores[0] > 0.0 and ctx.scores[1:] == (0.0, 0.0)
        self.ref.assert_matches(kb, "height xylophone", 5)

    def test_bm25_scores_matches_reference(self):
        rng = random.Random(24)
        vocab = [f"w{i}" for i in range(15)]
        for _ in range(300):
            docs = [rng.choices(vocab, k=rng.randint(0, 20))
                    for _ in range(rng.randint(0, 8))]
            query = rng.choices(vocab + ["zzz"], k=rng.randint(0, 6))
            assert (store_order_scores(token_base(docs), query)
                    == helpers.list_count_bm25(query, docs))


def yard_env(seed, side=20, fleet=100):
    """A side x side grid yard whose vehicles each carry one task."""
    rng = random.Random(seed)
    network = Network(
        tuple(Node(i) for i in range(side * side)),
        tuple(Edge(u, v, w) for (u, v), w in helpers.grid_edges(side).items()))
    trips = [rng.sample(range(side * side), 2) for _ in range(fleet)]
    text = (f"Attention: the two-way road between nodes {side + 1} and "
            f"{side + 2} is closed. AGV-7 must not drive the link from "
            f"node 3 to node 4.")
    return TerminalEnv(
        network,
        FleetConfig(tuple(Agv(f"AGV-{k + 1}") for k in range(fleet)),
                    tuple(Task(f"T{k + 1}", f"AGV-{k + 1}", o, d)
                          for k, (o, d) in enumerate(trips))),
        Requirements("engineer", (text,)))


def golden_envs(**config):
    """(kind, env) of every golden suite instance at every level, for the
    default suite or one with the given `SuiteConfig` fields."""
    config = bench.SuiteConfig(**config)
    return [(kind, with_level(base, spec, level))
            for kind in config.scenarios
            for base, spec in generate_instances(
                config.seed, kind, config.instances_per_scenario)
            for level in EXPERTISE_LEVELS]


@pytest.fixture(scope="module")
def grown_base():
    """The seed base plus 500 golden exemplars added by `accumulate`."""
    kb = kn.load_seed_kb().snapshot()
    envs = golden_envs()
    for n in range(500):
        kind, env = envs[n % len(envs)]
        kn.accumulate(kb, env, injection.CORRECT_PROGRAMS[kind],
                      " ".join(env.requirements.texts))
    return kb


@pytest.fixture(scope="module")
def small_base():
    return kn.KnowledgeBase(exemplars=THREE + kn.load_seed_kb().exemplars)


class TestQueryTerms:
    """A transfer's terms, built from the sets cached on its network and
    fleet, rank and score exactly as tokenizing its whole query text."""

    def assert_equivalent(self, kb, env, k=3):
        text = "\n".join((*env.requirements.texts, env.network.digest,
                          env.fleet.digest))
        terms = kn.query_terms(env)
        assert terms == set(kn.tokenize(text))
        ctx = kn.retrieve(kb, terms, k)
        got = [e.id for e in ctx.exemplars], list(ctx.scores)
        tokens = kn.retrieve(kb, kn.tokenize(text), k)
        assert got == ([e.id for e in tokens.exemplars], list(tokens.scores))
        # a base of the documents' token lists, queried by the text's tokens
        listed = token_base([kn.tokenize(e.document()) for e in kb.exemplars],
                            [e.id for e in kb.exemplars])
        ctx = kn.retrieve(listed, kn.tokenize(text), k)
        assert got == ([e.id for e in ctx.exemplars], list(ctx.scores))
        assert got == ranked_by_reference(kb, text, k)

    def test_yard(self, seed_kb, grown_base):
        env = yard_env(1)
        assert len(kn.query_terms(env)) > 500
        for kb in (seed_kb, grown_base):
            self.assert_equivalent(kb, env)

    def test_golden_instances_at_every_level(self, seed_kb):
        kb = seed_kb
        kb.append_exemplar(CLOSURE_EXEMPLAR)
        kb.append_exemplar(ROUTE_EXEMPLAR)
        for _, env in golden_envs():
            self.assert_equivalent(kb, env)

    def test_base_grown_by_accumulate(self, grown_base):
        assert len(grown_base.exemplars) == 501
        for _, env in golden_envs()[::4]:
            self.assert_equivalent(grown_base, env, k=5)

    @settings(max_examples=200, deadline=None)
    @given(texts=st.lists(st.text(st.one_of(
        st.sampled_from("aZ09 \u0130\u03a3.,-()[]:;\n"),
        st.characters(exclude_categories=()))), max_size=3))
    @example(texts=[])
    @example(texts=[""])
    @example(texts=["\u0130stanbul \u03a3 ROAD (6,7).", "AGV-4,node7:closed"])
    def test_generated_requirements(self, small_base, texts):
        env = yard_env(2, side=5, fleet=6)
        env = dataclasses.replace(
            env, requirements=Requirements("engineer", tuple(texts)))
        self.assert_equivalent(small_base, env)

    def test_levels_share_the_cached_term_sets(self, closure_instance):
        base, spec = closure_instance
        envs = [with_level(base, spec, level) for level in EXPERTISE_LEVELS]
        for part in ("network", "fleet"):
            first, *rest = (getattr(env, part).digest_terms for env in envs)
            assert all(terms is first for terms in rest)
            assert first == frozenset(kn.tokenize(getattr(base, part).digest))


class TestDuplicateDocuments:
    """Accumulated bases repeat documents; the index holds each distinct
    (description, program) once and still scores every exemplar exactly
    as the list-count reference."""

    ref = TestRetrieveMatchesReference()
    FIVE = THREE + (
        kn.Exemplar("ex-valid", "Plain dispatch with no restriction.", "",
                    VALID_PROGRAM),
        kn.Exemplar("ex-short", "road", "", VALID_PROGRAM))

    def copies(self, rng, size, prefix):
        ids = [f"{prefix}-{n:03d}" for n in rng.sample(range(1000), size)]
        return [dataclasses.replace(rng.choice(self.FIVE), id=ident)
                for ident in ids]

    def assert_matches(self, kb, queries):
        docs = [kn.tokenize(e.document()) for e in kb.exemplars]
        for query in queries:
            terms = kn.tokenize(query)
            assert store_order_scores(kb, terms) == \
                helpers.list_count_bm25(terms, docs)
            for k in (1, 3, len(docs)):
                self.ref.assert_matches(kb, query, k)

    def grow(self, rng, kb, tag):
        """Append one more copy of a held document and one new document."""
        kb.append_exemplar(dataclasses.replace(rng.choice(kb.exemplars),
                                               id=f"dup-{tag}"))
        kb.append_exemplar(kn.Exemplar(f"new-{tag}", f"xylophone {tag} road",
                                       "", VALID_PROGRAM))

    def test_base_of_five_documents(self):
        rng = random.Random(31)
        for round_ in range(4):
            kb = kn.KnowledgeBase(exemplars=self.copies(rng, 300, "ex"))
            queries = [self.ref.random_query(rng) for _ in range(4)]
            queries += ["xylophone road", "height closed yard"]
            self.grow(rng, kb, f"{round_}a")  # before the first retrieval
            self.assert_matches(kb, queries)
            self.grow(rng, kb, f"{round_}b")  # extends the built index
            self.assert_matches(kb, queries)
            held = kb.exemplars
            snap = kb.snapshot()
            if round_ % 2:  # the snapshot's own index, built or not yet
                self.assert_matches(snap, queries)
            self.grow(rng, snap, f"{round_}c")
            self.assert_matches(snap, queries)
            self.grow(rng, snap, f"{round_}d")
            self.assert_matches(snap, queries)
            assert kb.exemplars == held
            self.assert_matches(kb, queries)
            assert len(kb._index.lengths) == 7
            assert len(snap._index.lengths) == 9

    def test_copies_index_as_one_document(self):
        kb = kn.KnowledgeBase(exemplars=[
            dataclasses.replace(CLOSURE_EXEMPLAR, id=f"c-{n:03d}")
            for n in range(300)])
        ctx = kn.retrieve(kb, kn.tokenize("road closed"), 3)
        assert [e.id for e in ctx.exemplars] == ["c-000", "c-001", "c-002"]
        index = kb._index
        counts = Counter(kn.tokenize(CLOSURE_EXEMPLAR.document()))
        held = list(kb.exemplars)
        assert index.lengths == [sum(counts.values())]
        assert index.copies == [held]
        assert index.postings == {term: [[0], [freq], 300]
                                  for term, freq in counts.items()}
        route = dataclasses.replace(ROUTE_EXEMPLAR, id="r-1")
        closure = dataclasses.replace(CLOSURE_EXEMPLAR, id="c-300")
        kb.append_exemplar(route)
        kb.append_exemplar(closure)
        assert index.copies == [held + [closure], [route]]
        assert index.postings["road"] == [[0], [counts["road"]], 301]
        assert index.postings["flow"][2] == 302
        self.assert_matches(kb, ["road closed", "designated route yard"])

    def test_token_lists_with_copies(self):
        rng = random.Random(32)
        vocab = [f"w{i}" for i in range(10)]
        for _ in range(300):
            pool = [rng.choices(vocab, k=rng.randint(0, 12))
                    for _ in range(rng.randint(1, 4))]
            docs = [list(rng.choice(pool)) for _ in range(rng.randint(0, 30))]
            query = rng.choices(vocab + ["zzz"], k=rng.randint(0, 5))
            kb = token_base(docs)
            assert len(kb.index.lengths) == len({tuple(d) for d in docs})
            assert (store_order_scores(kb, query)
                    == helpers.list_count_bm25(query, docs))

    def test_tie_spans_documents(self):
        """Two documents of the same tokens in another order score alike;
        a k that cuts their tied copies takes the lowest ids of both."""
        rng = random.Random(33)
        texts = ("road closed", "closed road") * 5
        exemplars = [kn.Exemplar(f"t-{n:02d}", text, "", VALID_PROGRAM)
                     for n, text in enumerate(texts)]
        exemplars.append(kn.Exemplar("a-road", "road", "", VALID_PROGRAM))
        rng.shuffle(exemplars)
        kb = kn.KnowledgeBase(exemplars=exemplars)
        for k in (1, 2, 3, 6, 9, 10, 11, 12):
            ctx = kn.retrieve(kb, kn.tokenize("road closed"), k)
            assert ([e.id for e in ctx.exemplars], list(ctx.scores)) \
                == ranked_by_reference(kb, "road closed", k)
            assert [e.id for e in ctx.exemplars][:10] == \
                [f"t-{n:02d}" for n in range(min(k, 10))]
        assert len(kb.index.lengths) == 3
        tied = ctx.scores[0]
        assert ctx.scores[:10] == (tied,) * 10 and ctx.scores[10] < tied

    def test_suite_traffic_on_an_accumulated_base(self):
        """Golden exemplars of one seed's suite, queried by another's."""
        kb = kn.load_seed_kb().snapshot()
        for kind, env in golden_envs(seed=7):
            kn.accumulate(kb, env, injection.CORRECT_PROGRAMS[kind],
                          " ".join(env.requirements.texts))
        assert len(kb.exemplars) == 46
        envs = golden_envs(seed=8)
        assert len(envs) == 45
        for _, env in envs:
            terms = kn.query_terms(env)
            ctx = kn.retrieve(kb, terms, 3)
            assert ([e.id for e in ctx.exemplars], list(ctx.scores)) \
                == ranked_by_reference(kb, terms, 3)
        assert len(kb._index.lengths) < len(kb.exemplars) / 4


class TestAccumulate:
    def test_appends_with_digest(self, closure_instance):
        env, _ = closure_instance
        kb = kn.KnowledgeBase()
        kn.accumulate(kb, env, CLOSURE_EXEMPLAR.program,
                      description="closed road transfer")
        assert len(kb.exemplars) == 1
        stored = kb.exemplars[0]
        assert stored.id == "acc-0001"
        assert stored.env_digest == env_digest(env)
        assert stored.description == "closed road transfer"

    def test_persisted_file_text(self, closure_instance, tmp_path):
        env, _ = closure_instance
        kb = kn.KnowledgeBase(root=tmp_path)
        kn.accumulate(kb, env, CLOSURE_EXEMPLAR.program,
                      description="closed road transfer")
        expected = json.dumps({
            "id": "acc-0001", "description": "closed road transfer",
            "env_digest": env_digest(env),
            "program": CLOSURE_EXEMPLAR.program}, indent=2) + "\n"
        text = (tmp_path / "exemplars" / "acc-0001.json").read_text(
            encoding="utf-8")
        assert text == expected
