"""The sliced load gives what the whole-file walk gives.

``fileio._load_annotations`` reads an annotation file's header value by
value and its ``instances`` in slices of about ``fileio.SLICE_CHARS``
characters, each checked by the column scan or, where the scan refuses it,
by the per-record loop, so that a fault, an unknown key or an id two slices
share is told slice by slice. A file is read whole by ``model._walk`` only
when the slices cannot read its text (a syntax error, a key given twice or
after ``instances``, bytes that are not UTF-8, a read error, a pipe), when
it declares another schema, or when it has no violations but the scan
refused one of its several slices. Most of these tests run the loaders at
a slice size of one character, so that every record is a slice of its
own; each requires the columns, the messages and the warnings of
``_walk(json.loads(text))``, and names the path each file took.
"""

import dataclasses
import errno
import io
import json
import os
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from egoforge import fileio
from egoforge.errors import DataError, SchemaError
from egoforge.model import _walk

from make_violation_corpus import observe, replay
from test_violation_corpus import _CORPUS

BASES = _CORPUS["bases"]


@pytest.fixture
def one_char(monkeypatch):
    """Slices of one character, and the list of what ``_sliced`` gave each
    file: True where the sliced load read it, False where the whole-file
    path did."""
    monkeypatch.setattr(fileio, "SLICE_CHARS", 1)
    taken = []
    sliced = fileio._sliced

    def spy(f, schema):
        walked = sliced(f, schema)
        taken.append(walked is not None)
        return walked

    monkeypatch.setattr(fileio, "_sliced", spy)
    return taken


def _instances_last(tree):
    """``tree`` with its ``instances`` last, where the savers write them
    and the sliced load reads them (the corpus holds its keys sorted)."""
    if isinstance(tree, dict) and "instances" in tree:
        return {key: value for key, value in tree.items() if key != "instances"} | {"instances": tree["instances"]}
    return tree


def test_the_violation_corpus_is_unchanged_with_one_record_a_slice(tmp_path, one_char):
    for name, base in BASES.items():
        for case in (case for case in _CORPUS["cases"] if case["tree"] == name):
            tree = replay(base, case["edits"])
            for order in (tree, _instances_last(tree)):
                got = observe(name, order, tmp_path)
                assert got == {key: case[key] for key in got}, f"{name}: edits {case['edits']}"
    # Both paths ran: the stored trees, whose keys are sorted so that
    # ``instances`` comes first, whole.
    assert set(one_char) == {True, False}


def _picture(value):
    """Every field of a header and its records; arrays by dtype, shape,
    bytes and writeability."""
    if isinstance(value, np.ndarray):
        data = value.tolist() if value.dtype == object else value.tobytes()
        return str(value.dtype), value.shape, data, value.flags.writeable
    if dataclasses.is_dataclass(value):
        return type(value).__name__, [_picture(getattr(value, f.name)) for f in dataclasses.fields(value)]
    if isinstance(value, dict):
        return [(_picture(k), _picture(v)) for k, v in value.items()]
    if isinstance(value, (list, tuple)):
        return type(value).__name__, [_picture(v) for v in value]
    return repr(value)


def _whole(text, schema):
    """What the whole-file path gives ``text``: json's error, the loader's
    schema check, or the walk's violations, or its unknown keys and a
    picture of its header and records."""
    try:
        raw = json.loads(text)
    except ValueError as e:
        return f"not valid JSON ({e})"
    if not isinstance(raw, dict) or raw.get("schema") != schema:
        return f"expected schema '{schema}', got {raw.get('schema') if isinstance(raw, dict) else None!r}"
    violations, extras, header, records = _walk(raw)
    return violations or ([f"unknown key {key}" for key in extras], _picture((header, records)))


def _loaded(path, schema):
    """What the loader gives the file in the same terms, paths left out."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            header, records = fileio._load_annotations(path, schema)
        except SchemaError as e:
            return e.violations
        except DataError as e:
            return str(e).replace(f"{path}: ", "")
    return [str(w.message).replace(f"{path}: ", "") for w in caught], _picture((header, records))


def _check(path, text, schema, one_char, sliced):
    path.write_text(text, encoding="utf-8")
    assert _loaded(path, schema) == _whole(text, schema)
    assert one_char == [sliced]


def _with(name, *edits):
    """The corpus tree ``name`` with ``edits`` applied, as its text."""
    return json.dumps(_instances_last(replay(BASES[name], [list(edit) for edit in edits])), indent=2)


def test_an_id_that_holds_a_record_boundary(tmp_path, one_char):
    # Each "}, {" inside the id is a cut json cannot read; the slice grows
    # past it.
    text = _with("pred_mq", (["instances", 0, "video_id"], "v}, {x}, {y"), (["instances", 1, "video_id"], "w},{"))
    _check(tmp_path / "f.json", text, "mq-pred/1", one_char, True)


def test_a_record_longer_than_a_slice(tmp_path, one_char, monkeypatch):
    monkeypatch.setattr(fileio, "SLICE_CHARS", 64)
    text = _with("pred_lta_scored")
    assert min(len(json.dumps(record)) for record in json.loads(text)["instances"]) > 64
    _check(tmp_path / "f.json", text, "lta-pred/1", one_char, True)


@pytest.mark.parametrize("name", sorted(BASES))
def test_compact_json_with_no_whitespace(tmp_path, one_char, name):
    tree = _instances_last(BASES[name])
    _check(tmp_path / "f.json", json.dumps(tree, separators=(",", ":")), tree["schema"], one_char, True)


@pytest.mark.parametrize("size", [1, 7, 64, 1 << 18])
@pytest.mark.parametrize("name", sorted(BASES))
def test_the_indented_files_the_savers_write(tmp_path, one_char, monkeypatch, name, size):
    monkeypatch.setattr(fileio, "SLICE_CHARS", size)
    tree = _instances_last(BASES[name])
    _check(tmp_path / "f.json", json.dumps(tree, indent=2) + "\n", tree["schema"], one_char, True)


def test_empty_instances(tmp_path, one_char):
    _check(tmp_path / "f.json", _with("gt_sta", (["instances"], [])), "sta/1", one_char, True)


def test_a_syntax_error_in_the_last_slice(tmp_path, one_char):
    # A "," after the last record, past the last record boundary.
    text = _with("gt_scod")
    end = text.rindex("\n  ]")
    text = text[:end] + "," + text[end:]
    _check(tmp_path / "f.json", text, "scod/1", one_char, False)


@pytest.mark.parametrize(
    "text",
    [
        '{"schema": "mq-pred/1", "instances": [], "extra": 1}',  # a key after instances
        '{"schema": "mq-pred/1", "instances": [{"video_id": "v"}], "instances": []}',
        '{"schema": "mq-pred/1", "instances": [}',  # the file ends inside the list
        '{"schema": "mq-pred/1", "instances": []',  # the file ends before its "}"
        '{"schema": "mq-pred/1", "instances": []} []',  # text after the file's "}"
        '{"schema": "mq-pred/1", "instances" []}',  # no ":"
        '{"schema": "mq-pred/1" "instances": []}',  # no ","
        '{"schema": "mq-pred/1", 5: 1, "instances": []}',  # a key that is not a string
        '{"schema": "mq-pred/1", "instances": {}}',  # instances not a list
        '["schema", "mq-pred/1"]',  # a top level that is not an object
        "",
    ],
)
def test_text_the_slices_do_not_read(tmp_path, one_char, text):
    _check(tmp_path / "f.json", text, "mq-pred/1", one_char, False)


def test_a_header_key_after_instances(tmp_path, one_char):
    tree = BASES["gt_nlq"]
    text = json.dumps({"schema": tree["schema"], "instances": tree["instances"], "videos": tree["videos"]})
    _check(tmp_path / "f.json", text, "nlq/1", one_char, False)


def test_a_duplicate_top_level_key(tmp_path, one_char):
    # json keeps the last value of a key; the whole-file path reads it so.
    text = _with("gt_mq").replace('"num_classes": ', '"num_classes": 0, "num_classes": ', 1)
    _check(tmp_path / "f.json", text, "mq/1", one_char, False)


@pytest.mark.parametrize(
    "name, keys",
    [
        ("gt_fhp", ["video_id"]),
        ("pred_fhp", ["video_id"]),
        ("gt_nlq", ["query_id"]),
        ("gt_lta", ["video_id", "clip_index"]),
        ("clips_lta", ["video_id", "clip_index", "clip"]),
        ("pred_lta_scored", ["video_id", "clip_index"]),
    ],
)
def test_an_id_two_slices_share(tmp_path, one_char, name, keys):
    # The second record takes the first one's id: each slice alone is clean.
    first, schema = BASES[name]["instances"][0], BASES[name]["schema"]
    text = _with(name, *[(["instances", 1, key], first[key]) for key in keys])
    violations = _whole(text, schema)
    assert len(violations) == 1 and "duplicate" in violations[0]
    _check(tmp_path / "f.json", text, schema, one_char, True)


@pytest.mark.parametrize(
    "name, edits, sliced",
    [
        pytest.param("gt_mq", [(["num_classes"], 0)], True, id="gt_mq-edits0"),  # a header _ranked_header refuses
        pytest.param("gt_mq", [(["extra_top"], 1)], True, id="gt_mq-edits1"),  # an unknown top-level key
        # A clean file, a slice of which the scan refuses: the loop's columns
        # do not join the scan's.
        pytest.param("gt_sta", [(["instances", 1, "extra"], 1)], False, id="gt_sta-edits2"),
        pytest.param("pred_mq", [(["instances", 1, "score"], 1)], False, id="pred_mq-edits3"),  # an int-valued real
    ],
)
def test_files_the_scan_refuses(tmp_path, one_char, name, edits, sliced):
    _check(tmp_path / "f.json", _with(name, *edits), BASES[name]["schema"], one_char, sliced)


def test_a_fault_in_a_file_of_several_slices_is_never_read_whole(tmp_path, monkeypatch):
    # At the default slice size: the faulty file gives the whole-file walk's
    # violations without being parsed whole, at about the clean file's peak.
    images = [{"keyframe_id": f"k{i}", "width": 640, "height": 480} for i in range(300)]
    records = [
        {"keyframe_id": f"k{i % 300}", "box": [1.0, 2.0, 30.5 + i % 50, 40.25], "noun": i % 9, "verb": i % 4, "ttc_s": 0.5 + i % 7, "score": 1 / (1 + i)}
        for i in range(6000)
    ]
    tree = {"schema": "sta-pred/1", "images": images, "instances": records}
    clean, faulty = tmp_path / "clean.json", tmp_path / "faulty.json"
    clean.write_text(json.dumps(tree, indent=2), encoding="utf-8")
    records[len(records) // 2]["score"] = "high"
    faulty.write_text(json.dumps(tree, indent=2), encoding="utf-8")
    assert faulty.stat().st_size > 3 * fileio.SLICE_CHARS
    violations = _walk(tree)[0]
    assert len(violations) == 1
    parsed, refused = [], []
    whole = fileio._parsed
    monkeypatch.setattr(fileio, "_parsed", lambda path, f: parsed.append(path) or whole(path, f))

    def peak(path):
        tracemalloc.start()
        try:
            fileio.load_sta_pred(path)
        except SchemaError as e:
            refused.append(e.violations)
        finally:
            top = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        return top

    clean_peak, faulty_peak = peak(clean), peak(faulty)
    assert refused == [violations]
    assert parsed == []
    assert faulty_peak <= 1.1 * clean_peak


def test_a_file_of_another_schema(tmp_path, one_char):
    _check(tmp_path / "f.json", _with("pred_mq"), "mq/1", one_char, False)


@pytest.mark.parametrize("text, cut", [('{"num_classes": 12345, "instances": [', 18), ('{"fps": 1.5e3, "instances": [', 10)])
def test_a_header_number_cut_by_a_block_is_read_again(monkeypatch, text, cut):
    # The first block ends inside the number, where json reads a shorter
    # one; a header value is taken only with the "," after it.
    monkeypatch.setattr(fileio, "SLICE_CHARS", cut)
    head = fileio._header(fileio._Text(io.StringIO(text)))
    assert head == json.loads(text[: text.index(', "instances"')] + "}")


def test_bytes_that_are_not_utf8(tmp_path, one_char):
    path = tmp_path / "f.json"
    path.write_bytes(_with("gt_sta").encode() + b"\xff")
    with pytest.raises(UnicodeDecodeError) as whole:
        path.read_text(encoding="utf-8")
    with pytest.raises(UnicodeDecodeError) as loaded:
        fileio._load_annotations(path, "sta/1")
    assert str(loaded.value) == str(whole.value)
    assert one_char == [False]


def test_a_read_error(tmp_path, one_char, monkeypatch):
    class Failing(io.StringIO):
        def read(self, size=-1):
            raise OSError(errno.EIO, os.strerror(errno.EIO))

    path = tmp_path / "f.json"
    monkeypatch.setattr(fileio, "_opened", lambda _: Failing())
    with pytest.raises(DataError) as failed:
        fileio.load_mq_pred(path)
    assert str(failed.value) == f"{path}: {OSError(errno.EIO, os.strerror(errno.EIO))}"
    assert one_char == [False]


def test_a_fifo_is_read_whole(tmp_path, one_char):
    path = tmp_path / "fifo.json"
    os.mkfifo(path)
    text = _with("gt_lta")

    def write():
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)

    writer = threading.Thread(target=write)
    writer.start()
    try:
        assert _loaded(path, "lta/1") == _whole(text, "lta/1")
    finally:
        writer.join()
    assert one_char == [False]
