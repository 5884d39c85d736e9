"""Shared fixtures: every JSON file a CLI command writes in these tests is
checked against ``json.dumps(result, indent=2, default=str)``."""

import json

import pytest

from l0bounds import cli


@pytest.fixture(autouse=True)
def _json_writer_gives_json_dumps_bytes(monkeypatch):
    real = cli._json_text

    def checked(result):
        text = real(result)
        assert text == json.dumps(result, indent=2, default=str)
        return text

    monkeypatch.setattr(cli, "_json_text", checked)
