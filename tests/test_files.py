"""A malformed or undecodable document is reported the same way wherever
it enters."""

import json

import pytest

from vdsagent import injection as inj
from vdsagent.cli import main
from vdsagent.env import parse_fleet_config, parse_network, parse_requirements
from vdsagent.errors import SchemaError, ValidationError
from vdsagent.knowledge import load

MALFORMED = {"invalid": ("{nodes: [}", "invalid JSON"),
             "list": ("[1, 2]", "expected an object, got list"),
             "nested": ("[" * 200000, "invalid JSON (nested too deeply)"),
             # more digits than Python converts to an int
             "long-int": ('{"nodes": [{"id": ' + "9" * 5000 + "}]}",
                          "invalid JSON (Exceeds the limit")}

# bytes that do not decode as UTF-8, for the documents read from a file
NON_UTF8 = (b"\xff\xfe{}", "not UTF-8")

ENV_PARSERS = {"network": parse_network, "config": parse_fleet_config,
               "requirements": parse_requirements}

# the knowledge-base files `load` reads: (folder, file name)
KB_FILES = {"exemplar file": ("exemplars", "bad.json"),
            "primitive file": ("primitives", "bad.md")}

# `main` arguments that read the document at `doc` (exit 2 with `error:`)
CLI_ARGS = {
    "mock script": lambda doc, tmp: ["run", "--llm", f"mock:{doc}"],
    "suite": lambda doc, tmp: ["bench", "--suite", doc,
                               "--llm", f"mock:{tmp / 'golden.json'}",
                               "--out", str(tmp / "out")],
    "scenario": lambda doc, tmp: ["oracle", "--scenario", doc],
    "kb add exemplar": lambda doc, tmp: ["kb", "add", "--kb", str(tmp),
                                         "--exemplar", doc],
    "oracle --net": lambda doc, tmp: ["oracle", "--net", doc],
}

# the text each document's error message starts with
NAMES = {"network": "network: ", "config": "config: ",
         "requirements": "requirements: ", "exemplar file": "bad.json: ",
         "primitive file": "bad.md: ",
         "mock script": "error: mock script file ",
         "suite": "error: suite file ", "scenario": "error: scenario file ",
         "kb add exemplar": "error: exemplar file ",
         "oracle --net": "error: network file "}

# A primitive is Markdown, not JSON, and `oracle --net` hands the text it
# decodes to `parse_network`, whose messages are checked as "network".
NOT_JSON = ("primitive file", "oracle --net")
CASES = ([(doc, bad) for doc in NAMES if doc not in NOT_JSON
          for bad in sorted(MALFORMED)]
         + [(doc, "non-utf8") for doc in NAMES if doc not in ENV_PARSERS])


def _write(path, content):
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)


def _message(document, content, tmp_path, capsys):
    """The error one malformed document produces where it enters."""
    if document in ENV_PARSERS:
        with pytest.raises(SchemaError) as exc:
            ENV_PARSERS[document](content)
        return str(exc.value)
    if document in KB_FILES:
        folder, name = KB_FILES[document]
        (tmp_path / folder).mkdir()
        _write(tmp_path / folder / name, content)
        with pytest.raises(ValidationError) as exc:
            load(tmp_path)
        return str(exc.value)
    doc = tmp_path / "doc.json"
    _write(doc, content)
    (tmp_path / "golden.json").write_text(json.dumps(inj.golden_script()))
    assert main(CLI_ARGS[document](str(doc), tmp_path)) == 2
    err = capsys.readouterr().err
    assert str(doc) in err
    return err


@pytest.mark.parametrize("document, malformed", CASES)
def test_malformed_document_is_named(tmp_path, capsys, document, malformed):
    content, problem = (NON_UTF8 if malformed == "non-utf8"
                        else MALFORMED[malformed])
    message = _message(document, content, tmp_path, capsys)
    assert message.startswith(NAMES[document])
    assert problem in message
