import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import parse_outcome, random_ast, reference_parse
from vdsagent import dsl, injection as inj

HEAD = "model m\nobjective minimize total_travel_time\n"

CLEAN = """\
model closure_transfer
objective minimize total_travel_time
constraints {
  flow_balance all
  remove_edge (6, 7)
  remove_edge (7, 6)
}
"""


class TestParse:
    def test_every_statement_kind(self):
        text = """
        # dispatch model with one of everything
        model kitchen_sink
        objective minimize total_travel_time
        constraints {
          flow_balance all          # mandatory
          remove_edge (6, 7)
          forbid_edge vehicle "AGV-4" (5, 6)
          require_subpath task "T3" [6, 10, 11]
          require_exact_path vehicle "AGV-9" [0, 1, 2]
        }
        """
        ast = dsl.parse(text)
        assert ast.name == "kitchen_sink"
        assert dsl.render(ast).split("\n")[1] == \
            f"objective minimize {dsl.OBJECTIVE}"
        assert ast.statements == (
            dsl.FlowBalanceAll(),
            dsl.RemoveEdge(6, 7),
            dsl.ForbidEdge(dsl.SubjectRef("vehicle", "AGV-4"), 5, 6),
            dsl.RequireSubpath(dsl.SubjectRef("task", "T3"), (6, 10, 11)),
            dsl.RequireExactPath(dsl.SubjectRef("vehicle", "AGV-9"), (0, 1, 2)),
        )

    def test_empty_constraints_block(self):
        ast = dsl.parse("model m\nobjective minimize total_travel_time\n"
                        "constraints { }")
        assert ast.statements == ()

    def test_comments_and_whitespace_ignored(self):
        squeezed = ("model m#c\nobjective minimize total_travel_time\n"
                    "constraints{flow_balance all}")
        assert dsl.parse(squeezed) == dsl.parse(
            "model m\nobjective  minimize\ttotal_travel_time\n"
            "constraints {\n  flow_balance all  # why not\n}\n")

    @pytest.mark.parametrize("text,line,column,fragment", [
        (HEAD + "constraints {\n  flow_balance some\n}", 4, 16,
         "expected 'all'"),
        ("# header\n" + HEAD + "constraints { bogus }", 4, 15,
         "expected a statement keyword, got 'bogus'"),
        ((HEAD + "constraints {\n  flow_balance some\n}").replace("\n", "\r\n"),
         4, 16, "expected 'all'"),
        (HEAD + "constraints {\n\tremove_edge (6 7)\n}", 4, 17,
         "expected ',', got '7'"),
        (HEAD + "constraints { ; }", 3, 15, "unexpected character ';'"),
        (HEAD + "constraints {\n  flow_balance all\n", 5, 1,
         "expected a statement or '}', got end of input"),
        (HEAD + "constraints {\n  remove_edge (" + "9" * 641 + ", 7)\n}", 4, 16,
         "integer literal of 641 digits is too long"),
        (HEAD + "constraints {\n  forbid_edge \"v\" (1, 2)\n}", 4, 15,
         "expected 'vehicle' or 'task', got 'v'"),
    ], ids=["keyword", "after-comment", "crlf", "tab", "bad-char", "eof",
            "long-int", "string"])
    def test_error_position_reported(self, text, line, column, fragment):
        with pytest.raises(dsl.DslError) as exc:
            dsl.parse(text)
        assert exc.value.kind == "parse"
        assert (exc.value.line, exc.value.column) == (line, column)
        assert str(exc.value).startswith(
            f"parse error at line {line}, column {column}:")
        assert fragment in exc.value.message

    @pytest.mark.parametrize("text,fragment", [
        ("", "expected 'model'"),
        ("model", "expected a model name"),
        ("model m objective minimize makespan", "expected 'total_travel_time'"),
        ("model m objective minimize total_travel_time", "expected 'constraints'"),
        ("model m objective minimize total_travel_time constraints {",
         "expected a statement or '}'"),
        ("model m objective minimize total_travel_time constraints "
         "{ flow_balance all } trailing", "expected end of input"),
        ("model m objective minimize total_travel_time constraints "
         "{ remove_edge (6 7) }", "expected ','"),
        ("model m objective minimize total_travel_time constraints "
         "{ forbid_edge lane \"x\" (1, 2) }", "expected 'vehicle' or 'task'"),
        ("model m objective minimize total_travel_time constraints "
         "{ require_subpath task \"T1\" [6] }", "expected ','"),
        ("model m objective minimize total_travel_time constraints "
         "{ park_vehicle all }", "expected a statement keyword"),
    ])
    def test_parse_failures(self, text, fragment):
        with pytest.raises(dsl.DslError) as exc:
            dsl.parse(text)
        assert exc.value.kind == "parse"
        assert fragment in exc.value.message

    def test_unexpected_character(self):
        with pytest.raises(dsl.DslError) as exc:
            dsl.parse("model m; objective minimize total_travel_time")
        assert "unexpected character" in exc.value.message

    def test_unterminated_string(self):
        with pytest.raises(dsl.DslError):
            dsl.parse('model m objective minimize total_travel_time '
                      'constraints { forbid_edge vehicle "AGV (1, 2) }')

    def test_negative_numbers_are_not_ints(self):
        with pytest.raises(dsl.DslError):
            dsl.parse("model m objective minimize total_travel_time "
                      "constraints { remove_edge (-1, 2) }")

    def test_oversized_integer_is_a_parse_error(self):
        # 5000 digits is past Python's default int-from-string limit (4300)
        with pytest.raises(dsl.DslError) as exc:
            dsl.parse("model m objective minimize total_travel_time "
                      "constraints { remove_edge (" + "9" * 5000 + ", 7) }")
        assert exc.value.kind == "parse"
        assert "5000 digits" in exc.value.message
        assert len(str(exc.value)) < 200

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="interpreter has no int-from-string limit")
    def test_integer_bound_without_interpreter_limit(self):
        def program(digits):
            return ("model m objective minimize total_travel_time "
                    "constraints { remove_edge (" + "9" * digits + ", 7) }")
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)  # no limit, as on Python <= 3.10.6
        try:
            longest = dsl.parse(program(dsl.MAX_INT_DIGITS))
            with pytest.raises(dsl.DslError) as exc:
                dsl.parse(program(dsl.MAX_INT_DIGITS + 1))
        finally:
            sys.set_int_max_str_digits(saved)
        assert longest.statements[0].source == 10 ** dsl.MAX_INT_DIGITS - 1
        assert exc.value.kind == "parse"
        assert "641 digits" in exc.value.message


class TestStaticCheck:
    def check(self, text):
        return dsl.static_check(dsl.parse(text))

    def test_clean_program(self):
        assert self.check(CLEAN) == []

    def test_missing_flow_balance(self):
        problems = self.check(
            "model m\nobjective minimize total_travel_time\n"
            "constraints { remove_edge (1, 2) }")
        assert len(problems) == 1
        assert problems[0].kind == "static"
        assert "flow_balance" in problems[0].message

    def test_duplicate_flow_balance(self):
        problems = self.check(
            "model m\nobjective minimize total_travel_time\n"
            "constraints { flow_balance all\nflow_balance all }")
        assert [p.message for p in problems] == \
            ["duplicate 'flow_balance all' statement"]

    def test_duplicate_removal_flagged_directionally(self):
        problems = self.check(
            "model m\nobjective minimize total_travel_time\nconstraints {\n"
            "flow_balance all\nremove_edge (6, 7)\nremove_edge (6, 7)\n}")
        assert [p.message for p in problems] == ["duplicate remove_edge (6, 7)"]
        # opposite direction is not a duplicate
        assert self.check(CLEAN) == []

    def test_conflicting_path_requirements(self):
        problems = self.check(
            'model m\nobjective minimize total_travel_time\nconstraints {\n'
            'flow_balance all\n'
            'require_subpath task "T3" [1, 2]\n'
            'require_exact_path task "T3" [0, 1, 2, 3]\n}')
        assert [p.message for p in problems] == \
            ['conflicting path requirements for task "T3"']

    def test_multiple_same_kind_requirements(self):
        problems = self.check(
            'model m\nobjective minimize total_travel_time\nconstraints {\n'
            'flow_balance all\n'
            'require_subpath task "T3" [1, 2]\n'
            'require_subpath task "T3" [3, 4]\n}')
        assert [p.message for p in problems] == \
            ['multiple path requirements for task "T3"']

    def test_same_ident_different_subject_kind_ok(self):
        problems = self.check(
            'model m\nobjective minimize total_travel_time\nconstraints {\n'
            'flow_balance all\n'
            'require_subpath task "X" [1, 2]\n'
            'require_subpath vehicle "X" [3, 4]\n}')
        assert problems == []

    def test_multiple_problems_in_scan_order(self):
        problems = self.check(
            "model m\nobjective minimize total_travel_time\nconstraints {\n"
            "remove_edge (1, 2)\nremove_edge (1, 2)\n}")
        assert [p.message for p in problems] == [
            "missing required statement 'flow_balance all'",
            "duplicate remove_edge (1, 2)",
        ]


class TestRender:
    def test_canonical_form(self):
        ast = dsl.parse(CLEAN)
        assert dsl.render(ast) == CLEAN

    def test_path_statements_differ_only_in_keyword(self):
        subject = dsl.SubjectRef("task", "T3")
        sub = dsl.RequireSubpath(subject, [6, 10])
        exact = dsl.RequireExactPath(subject, (6, 10))
        assert sub == dsl.RequireSubpath(subject, (6, 10))
        assert sub != exact and hash(sub) == hash(exact)
        assert repr(exact) == ("RequireExactPath(subject=SubjectRef(kind='task', "
                               "ident='T3'), nodes=(6, 10))")
        assert sub.render() == 'require_subpath task "T3" [6, 10]'
        assert exact.render() == 'require_exact_path task "T3" [6, 10]'
        with pytest.raises(AttributeError):
            exact.nodes = (6,)

    def test_round_trip_bulk(self):
        rng = random.Random(7)
        for _ in range(2000):
            ast = random_ast(rng)
            assert dsl.parse(dsl.render(ast)) == ast

    @settings(max_examples=200)
    @given(st.randoms(use_true_random=False))
    def test_round_trip_property(self, rng):
        ast = random_ast(rng)
        assert dsl.parse(dsl.render(ast)) == ast


class TestMemo:
    def test_equal_text_returns_the_same_ast(self):
        first = dsl.parse(CLEAN)
        equal = CLEAN[:7] + CLEAN[7:]
        assert equal is not CLEAN
        assert dsl.parse(equal) is first

    def test_failing_text_raises_afresh_and_is_not_kept(self):
        text = HEAD + "constraints {\n  remove_edge (1 2)\n}\n"
        errors = []
        for _ in range(2):
            with pytest.raises(dsl.DslError) as exc:
                dsl.parse(text)
            errors.append(exc.value)
        assert errors[0] is not errors[1]
        assert errors[0] == errors[1]
        assert (errors[0].line, errors[0].column) == (4, 18)
        assert dsl._parse.cache_info().currsize == 0

    def test_memo_holds_at_most_its_size(self):
        for i in range(dsl.PARSE_MEMO_SIZE + 10):
            dsl.parse(f"model m{i}\nobjective minimize total_travel_time\n"
                      f"constraints {{ flow_balance all }}\n")
        info = dsl._parse.cache_info()
        assert info.misses == dsl.PARSE_MEMO_SIZE + 10
        assert info.currsize <= dsl.PARSE_MEMO_SIZE


class TestFuzz:
    @settings(max_examples=300)
    @given(st.text(max_size=80))
    def test_parser_never_crashes(self, text):
        # a DslError is the only acceptable failure, equal to the reference's
        assert parse_outcome(dsl.parse, text) == parse_outcome(reference_parse, text)

    def test_grammar_constant_mentions_every_statement(self):
        for word in ("flow_balance", "remove_edge", "forbid_edge",
                     "require_subpath", "require_exact_path", "vehicle",
                     "task", "minimize"):
            assert word in dsl.GRAMMAR


class TestExtraction:
    def test_missing_block(self):
        with pytest.raises(dsl.ExtractionError):
            dsl.extract_dsl_block("some prose without code")
        with pytest.raises(dsl.ExtractionError):
            dsl.extract_dsl_block("```python\nprint('hi')\n```")

    def test_last_block_wins(self):
        text = ("First try:\n```vds-dsl\nmodel a\n```\n"
                "Corrected version:\n```vds-dsl\nmodel b\n```\n")
        assert dsl.extract_dsl_block(text) == "model b\n"

    def test_tag_with_trailing_spaces(self):
        assert dsl.extract_dsl_block("```vds-dsl  \nbody\n```") == "body\n"

    def test_crlf_line_endings(self):
        block = inj.fenced(inj.CORRECT_PROGRAMS["road_closure"])
        crlf = block.replace("\n", "\r\n")
        assert dsl.parse(dsl.extract_dsl_block(crlf)) == \
            dsl.parse(dsl.extract_dsl_block(block))

    def test_round_trip_through_fence(self):
        block = f"answer below\n```vds-dsl\n{CLEAN}```"
        assert dsl.parse(dsl.extract_dsl_block(block)) == dsl.parse(CLEAN)
