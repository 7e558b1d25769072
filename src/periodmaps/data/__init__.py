"""The recorded data, each file parsed once per process: the invariant-variety
generators (``varieties.json``) and the recurrence fixtures
(``fixtures.json``)."""

import json
from importlib import resources


def _load(name: str) -> dict:
    with resources.files(__name__).joinpath(name).open(
            "r", encoding="utf-8") as fh:
        return json.load(fh)


VARIETIES = _load("varieties.json")
FIXTURES = _load("fixtures.json")
