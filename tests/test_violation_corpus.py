"""The golden violation corpus: every message, in order, stays as frozen.

``violation_corpus.json`` holds small valid trees and edits to them (wrong
types, bool-as-int, NaN and infinities, huge ints, reversed segments and
boxes, dropped and extra keys, duplicate ids, ragged probability rows).
For each edited tree it records the ``validate_dataset`` and
``unknown_keys`` lists and what the loader did. Regenerate it with
``tests/make_violation_corpus.py`` only when a message is meant to change.
"""

import json
from pathlib import Path

import pytest

from make_violation_corpus import CORPUS, observe, replay

_CORPUS = json.loads(CORPUS.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(_CORPUS["bases"]))
def test_violations_and_warnings_match_the_corpus(name, tmp_path):
    base = _CORPUS["bases"][name]
    cases = [case for case in _CORPUS["cases"] if case["tree"] == name]
    assert len(cases) > 50
    for case in cases:
        got = observe(name, replay(base, case["edits"]), tmp_path)
        expected = {key: case[key] for key in got}
        assert got == expected, f"edits {case['edits']}"
