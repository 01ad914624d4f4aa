"""The bench matrix of `output_manifest` writes the recorded outputs."""

import json

import output_manifest


def test_bench_matrix_outputs_match_the_recorded_manifest(tmp_path):
    expected = json.loads(output_manifest.EXPECTED.read_text())
    actual = output_manifest.manifest(tmp_path)
    difference = output_manifest.first_difference(expected, actual)
    assert difference is None


def test_first_difference_names_the_run_and_output():
    expected = {"a": {"exit": 0, "stdout": "1"}, "b": {"exit": 0}}
    assert output_manifest.first_difference(expected, expected) is None
    assert output_manifest.first_difference(
        expected, {"a": {"exit": 0, "stdout": "2"}, "b": {"exit": 1}}) == \
        "a: stdout"
    assert output_manifest.first_difference(
        expected, {**expected, "b": {"exit": 0, "x.json": "3"}}) == "b: x.json"
    assert output_manifest.first_difference(
        expected, {"a": expected["a"]}) == "b: exit"
