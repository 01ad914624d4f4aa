"""A malformed JSON document is reported the same way wherever it enters."""

import json

import pytest

from vdsagent import injection as inj
from vdsagent.cli import main
from vdsagent.env import parse_fleet_config, parse_network, parse_requirements
from vdsagent.errors import SchemaError, ValidationError
from vdsagent.knowledge import load

MALFORMED = {"invalid": ("{nodes: [}", "invalid JSON"),
             "list": ("[1, 2]", "expected an object, got list")}

ENV_PARSERS = {"network": parse_network, "config": parse_fleet_config,
               "requirements": parse_requirements}

# `main` arguments that read the document at `doc` (exit 2 with `error:`)
CLI_ARGS = {
    "mock script": lambda doc, tmp: ["run", "--llm", f"mock:{doc}"],
    "suite": lambda doc, tmp: ["bench", "--suite", doc,
                               "--llm", f"mock:{tmp / 'golden.json'}",
                               "--out", str(tmp / "out")],
    "scenario": lambda doc, tmp: ["oracle", "--scenario", doc],
    "kb add exemplar": lambda doc, tmp: ["kb", "add", "--kb", str(tmp),
                                         "--exemplar", doc],
}

# the text each document's error message starts with
NAMES = {"network": "network: ", "config": "config: ",
         "requirements": "requirements: ", "exemplar file": "bad.json: ",
         "mock script": "error: mock script file ",
         "suite": "error: suite file ", "scenario": "error: scenario file ",
         "kb add exemplar": "error: exemplar file "}


def _message(document, text, tmp_path, capsys):
    """The error one malformed document produces where it enters."""
    if document in ENV_PARSERS:
        with pytest.raises(SchemaError) as exc:
            ENV_PARSERS[document](text)
        return str(exc.value)
    if document == "exemplar file":
        (tmp_path / "exemplars").mkdir()
        (tmp_path / "exemplars" / "bad.json").write_text(text)
        with pytest.raises(ValidationError) as exc:
            load(tmp_path)
        return str(exc.value)
    doc = tmp_path / "doc.json"
    doc.write_text(text)
    (tmp_path / "golden.json").write_text(json.dumps(inj.golden_script()))
    assert main(CLI_ARGS[document](str(doc), tmp_path)) == 2
    err = capsys.readouterr().err
    assert str(doc) in err
    return err


@pytest.mark.parametrize("malformed", sorted(MALFORMED))
@pytest.mark.parametrize("document", list(NAMES))
def test_malformed_document_is_named(tmp_path, capsys, document, malformed):
    text, problem = MALFORMED[malformed]
    message = _message(document, text, tmp_path, capsys)
    assert message.startswith(NAMES[document])
    assert problem in message
