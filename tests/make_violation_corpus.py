"""Regenerate ``tests/violation_corpus.json``, the golden violation corpus.

Usage, from the root of a checkout:

    PYTHONPATH=src python tests/make_violation_corpus.py

The corpus holds one small valid tree per loader (the trees of
``test_validated_loading``, cut to a few records) and a seeded list of
edits to them: every mutation of ``test_validated_loading._mutations`` on
the first record of every list, plus huge ints, negative zero, extra keys
and random combinations of up to three edits anywhere in the tree, and
then the first record's segment or box at the overflow bound, each string
of the first records as a list and as an object, and last each header key
that another schema allows, added where the tree lacks it. For each
edited tree it freezes what ``validate_dataset`` and ``unknown_keys`` return
and what the loader does: the error it raises, the warnings it gives, and a
fingerprint of the records it builds. ``test_violation_corpus.py`` replays
the edits and compares. Regenerate only when a message is meant to change.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import tempfile
import warnings
from pathlib import Path
from typing import Any, Mapping

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from test_validated_loading import (  # noqa: E402
    LOADERS,
    SYNTH_FILES,
    _clips_tree,
    _get,
    _mutations,
    _paths,
    _scored_lta_tree,
    _set,
)

from egoforge import cli  # noqa: E402
from egoforge.errors import DataError, SchemaError  # noqa: E402
from egoforge.model import unknown_keys, validate_dataset  # noqa: E402

CORPUS = HERE / "violation_corpus.json"
SEED = 20261018
RECORDS_PER_LIST = 2  # top-level lists are cut to this many records
RANDOM_CASES = 20  # per tree, on top of the systematic first-record edits
HUGE = 10**401


def base_trees() -> dict[str, Any]:
    """One small valid tree per loader name."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        with open(out / "stdout.txt", "w") as sink:
            stdout, sys.stdout = sys.stdout, sink
            try:
                assert cli.main(["synth", "--out", str(out), "--seed", "5", "--num-videos", "2"]) == 0
            finally:
                sys.stdout = stdout
        trees = {name: json.loads((out / f"{name}.json").read_text(encoding="utf-8")) for name in SYNTH_FILES}
    trees["pred_lta_scored"] = _scored_lta_tree(config=False)
    trees["pred_lta_config"] = _scored_lta_tree(config=True)
    trees["clips_lta"] = _clips_tree()
    for tree in trees.values():
        tree["instances"] = tree["instances"][:RECORDS_PER_LIST]
        for rec in tree["instances"]:
            if "sequence" in rec:
                rec["sequence"] = rec["sequence"][:4]
            if "candidates" in rec and len(rec["candidates"][0]) == 20:
                rec["candidates"] = [seq[:4] for seq in rec["candidates"][:3]]
        if tree.get("config", {}).get("z") == 20:
            tree["config"]["z"] = 4
    trees = {name: _short(tree) for name, tree in trees.items()}
    assert set(trees) == set(LOADERS)
    for tree in trees.values():
        assert validate_dataset(tree) == [], tree["schema"]
    return trees


def _short(node: Any) -> Any:
    """Reals cut to three decimals; probability rows replaced by powers of two
    (a rotation of 1/2, 1/4, ..., which sums to exactly 1)."""
    if isinstance(node, dict):
        if set(node) == {"verb", "noun"}:
            return {key: [_halves(len(row), r) for r, row in enumerate(rows)] for key, rows in node.items()}
        return {key: _short(value) for key, value in node.items()}
    if isinstance(node, list):
        return [_short(value) for value in node]
    return round(node, 3) if isinstance(node, float) else node


def _halves(width: int, shift: int) -> list[float]:
    row = [2.0 ** -(i + 1) for i in range(width - 1)] + [2.0 ** -(width - 1)]
    shift %= width
    return row[shift:] + row[:shift]


def corpus_mutations(value: Any) -> list[Any]:
    """The guard tests' mutations, plus a huge int, -0.0 and an extra key;
    a string's list and object come in ``container_id_edits`` instead."""
    if value == HUGE:  # an earlier edit; float(value) would overflow
        return [0, -1, None]
    out = _mutations(value)
    if isinstance(value, str):
        out = [v for v in out if not isinstance(v, (list, dict))]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        out += [HUGE, -0.0]
    if isinstance(value, dict):
        out.append({**value, "extra_note": 1})
    return out


def first_record_paths(tree: Any) -> list[tuple]:
    """Each field of each first record: paths whose every list index is 0,
    and that enter only the first keyframe tag."""
    return [
        p
        for p in _paths(tree)
        if all(k == 0 for k in p if isinstance(k, int))
        and all(tag == "c" for key, tag in zip(p, p[1:]) if key == "keyframes")
    ]


def fingerprint(obj: Any) -> Any:
    """A plain, version-independent picture of a loader's result."""
    if isinstance(obj, np.ndarray):
        return ["ndarray", str(obj.dtype), list(obj.shape), obj.tolist()]
    if hasattr(obj, "__dataclass_fields__"):
        return [type(obj).__name__] + [fingerprint(getattr(obj, f)) for f in obj.__dataclass_fields__]
    if isinstance(obj, Mapping):  # a dict, or a loader's typed view
        return ["dict"] + [[fingerprint(k), fingerprint(v)] for k, v in obj.items()]
    if isinstance(obj, (list, tuple)):
        return [type(obj).__name__] + [fingerprint(v) for v in obj]
    return repr(obj)


def load_outcome(name: str, tree: Any, directory: Path) -> dict[str, Any]:
    """What the loader does with ``tree``, with its file path as ``<file>``."""
    path = directory / f"{name}.json"
    path.write_text(json.dumps(tree), encoding="utf-8")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = LOADERS[name][0](path)
        except SchemaError:
            # Its text is the violation list, which the case holds already.
            outcome: dict[str, Any] = {"error": "SchemaError"}
        except DataError as e:
            outcome = {"error": f"DataError: {e}".replace(str(path), "<file>")}
        else:
            text = json.dumps(fingerprint(result))
            outcome = {"records": hashlib.sha256(text.encode()).hexdigest()[:16]}
    outcome["warnings"] = [str(w.message).replace(str(path), "<file>") for w in caught]
    return outcome


def _fresh(value: Any) -> Any:
    """A copy as the corpus file gives it back: no node shared twice."""
    return json.loads(json.dumps(value))


def replay(base: Any, edits: list[list[Any]]) -> Any:
    tree = _fresh(base)
    for path, value in edits:
        _set(tree, tuple(path), _fresh(value))
    return tree


def observe(name: str, tree: Any, directory: Path) -> dict[str, Any]:
    return {
        "violations": validate_dataset(tree),
        "unknown_keys": unknown_keys(tree),
        "load": load_outcome(name, tree, directory),
    }


def edit_lists(base: Any, rng: random.Random) -> list[list[list[Any]]]:
    """Systematic single edits, then random runs of one to three edits."""
    out = [[]]
    out.append([[["extra_top"], 1]])
    for path in first_record_paths(base):
        out.extend([[list(path), value]] for value in corpus_mutations(_get(base, path)))
    for _ in range(RANDOM_CASES):
        tree = _fresh(base)
        edits = []
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.1:
                path: tuple = ("extra_top",)
                value: Any = rng.choice([1, None, "x"])
            else:
                path = rng.choice(list(_paths(tree)))
                value = rng.choice(corpus_mutations(_get(tree, path)))
            _set(tree, path, _fresh(value))
            edits.append([list(path), value])
        out.append(edits)
    return out


# Geometry at the overflow bound: a segment length, box width, height or
# area may be at most HALF_MAX, so that twice it is finite.
HALF_MAX = sys.float_info.max / 2
OVER_HALF_MAX = float(np.nextafter(HALF_MAX, np.inf))
SEGMENTS = [(0.0, 1e308), (0.0, HALF_MAX), (0.0, OVER_HALF_MAX), (1.0, OVER_HALF_MAX)]
BOXES = [
    [0.0, 0.0, 1e200, 1e200],
    [-1e308, 0.0, 1e308, 1.0],
    [0.0, 0.0, 1.0, HALF_MAX],
    [0.0, 0.0, 1.0, OVER_HALF_MAX],
    [0.0, 0.0, 2.0, HALF_MAX],
]


def overflow_edits(base: Any) -> list[list[list[Any]]]:
    """Segments and boxes of the first record at the overflow bound."""
    rec = base["instances"][0]
    if "box" in rec:
        return [[[["instances", 0, "box"], box]] for box in BOXES]
    if "start_s" in rec:
        return [[[["instances", 0, "start_s"], a], [["instances", 0, "end_s"], b]] for a, b in SEGMENTS]
    return []


def container_id_edits(base: Any) -> list[list[list[Any]]]:
    """Each string of the first records replaced by a list and an object,
    which a set of ids cannot hold."""
    return [[[list(path), bad]] for path in first_record_paths(base) if isinstance(_get(base, path), str) for bad in ([], {})]


# The top-level keys besides schema and instances that some schema allows.
HEADER_KEYS = ("resolution", "videos", "images", "num_classes", "config")


def header_key_edits(bases: Mapping[str, Any], base: Any) -> list[list[list[Any]]]:
    """Each header key that ``base`` lacks, added with the value of the
    first base tree that has it, valid there: it pins the keys each schema
    allows at the top level."""
    values = {key: next(bases[name][key] for name in sorted(bases) if key in bases[name]) for key in HEADER_KEYS}
    return [[[[key], value]] for key, value in values.items() if key not in base]


def main() -> int:
    rng = random.Random(SEED)
    bases = base_trees()
    cases, seen = [], set()
    # The overflow cases, then the list and object ids, then the header keys
    # were added after the first corpus, so they come last and leave the
    # earlier cases as they were.
    runs = [(name, edit_lists(bases[name], rng)) for name in sorted(bases)]
    runs += [(name, overflow_edits(bases[name])) for name in sorted(bases)]
    runs += [(name, container_id_edits(bases[name])) for name in sorted(bases)]
    runs += [(name, header_key_edits(bases, bases[name])) for name in sorted(bases)]
    with tempfile.TemporaryDirectory() as tmp:
        for name, edit_list in runs:
            for edits in edit_list:
                tree = replay(bases[name], edits)
                key = json.dumps([name, tree])
                if key not in seen:  # several edits can give the same tree
                    seen.add(key)
                    cases.append({"tree": name, "edits": edits, **observe(name, tree, Path(tmp))})
    compact = {"separators": (",", ":")}
    lines = ['{"bases":' + json.dumps(bases, sort_keys=True, **compact) + ',\n"cases":[']
    lines.append(",\n".join(json.dumps(case, **compact) for case in cases))
    lines.append("]}\n")
    CORPUS.write_text("\n".join(lines), encoding="utf-8")
    bad = sum(1 for c in cases if c["violations"])
    print(f"wrote {len(cases)} cases ({bad} with violations) to {CORPUS}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
