"""``vote``, ``fuse post`` and ``fuse sta`` from columns to file.

The golden hashes pin the bytes each command writes on seeded inputs that
hold tied scores, groups present in only some files, integer-valued reals
and one pool of hundreds of rows. The equivalence tests hold
the column suppression kernel equal to the brute-force oracles and to the
typed public functions, and the guard checks that the three commands build
no per-row record objects.
"""

import hashlib
import io
import json
from collections import Counter
from contextlib import redirect_stdout

import numpy as np
import pytest

from egoforge import cli, fileio, fusion, model, oracles
from egoforge.metrics import _box_iou_pairs, _temporal_iou_pairs
from egoforge.model import BoundingBox, RankedSegment, ScoreMatrix, StaInstance, TemporalSegment

# Rows of one group in each of the three files: the pool of 390 runs for
# hundreds of suppression steps after the other pools have run out.
BIG = 130


def _real(rng, value):
    # About one whole-valued real in five is written as a JSON int.
    return int(value) if value == int(value) and rng.random() < 0.2 else value


def _write(path, tree):
    path.write_text(json.dumps(tree), encoding="utf-8")
    return str(path)


def _vote_input(path):
    rng = np.random.default_rng(41)
    z, c_v, c_n = 4, 6, 9
    instances = []

    def rows(width):
        out = []
        for _ in range(z):
            kind = rng.integers(4)
            if kind == 0:  # uniform: every class ties
                out.append([1.0 / width] * width)
            elif kind == 1:  # one-hot, written as ints
                row = [0] * width
                row[int(rng.integers(width))] = 1
                out.append(row)
            else:
                r = rng.random(width) * (rng.random(width) > 0.3) + 1e-3
                out.append((r / r.sum()).tolist())
        return out

    for e in range(7):
        first = {"verb": rows(c_v), "noun": rows(c_n)}
        for clip in range(1 + e % 5):
            # Some clips repeat the first clip exactly.
            matrix = first if clip % 3 == 2 else {"verb": rows(c_v), "noun": rows(c_n)}
            instances.append({"video_id": f"v{e % 3}", "clip_index": e, "clip": clip, "score_matrix": matrix})
    order = rng.permutation(len(instances))
    return _write(path, {"schema": "lta-pred/1", "instances": [instances[i] for i in order]})


def _post_inputs(tmp_path):
    rng = np.random.default_rng(43)
    paths = []
    for m in range(3):
        rows = []
        for q in range(10):
            if (q + m) % 4 == 3:  # query missing from this file
                continue
            for _ in range(int(rng.integers(1, 7))):
                start = float(rng.integers(0, 60)) / 2
                end = start + float(rng.integers(0, 16)) / 2
                rows.append({"query_id": f"q{q}", "start_s": _real(rng, start), "end_s": _real(rng, end), "score": _real(rng, round(float(rng.integers(0, 5)) / 4, 2))})
        for _ in range(BIG):
            start = float(rng.random() * 100)
            rows.append({"query_id": "big", "start_s": start, "end_s": start + float(rng.random() * 10), "score": round(float(rng.random()), 1)})
        order = rng.permutation(len(rows))
        paths.append(_write(tmp_path / f"nlq_{m}.json", {"schema": "nlq-pred/1", "instances": [rows[i] for i in order]}))
    return paths


def _sta_inputs(tmp_path):
    rng = np.random.default_rng(47)
    frames = [f"k{i}" for i in range(8)] + ["kf-é", "big", "empty"]
    sizes = {kid: (64 + i, 48 + i) for i, kid in enumerate(frames)}
    paths = []
    for m in range(3):
        listed = [kid for i, kid in enumerate(frames) if (i + m) % 5 != 4 or kid in ("big", "empty")]
        listed = [listed[i] for i in rng.permutation(len(listed))]
        rows = []
        for kid in listed:
            if kid == "empty":
                continue
            for _ in range(BIG if kid == "big" else int(rng.integers(0, 5))):
                x1, y1 = float(rng.integers(0, 40)), float(rng.integers(0, 30))
                x2, y2 = x1 + float(rng.integers(0, 20)), y1 + float(rng.integers(0, 16))
                rows.append(
                    {
                        "keyframe_id": kid,
                        "box": [_real(rng, x1), _real(rng, y1), _real(rng, x2), _real(rng, y2)],
                        "noun": int(rng.integers(0, 5)),
                        "verb": int(rng.integers(0, 3)),
                        "ttc_s": _real(rng, float(rng.integers(1, 5)) / 2),
                        "score": _real(rng, round(float(rng.integers(0, 5)) / 4, 2)),
                    }
                )
        order = rng.permutation(len(rows))
        tree = {
            "schema": "sta-pred/1",
            "images": [{"keyframe_id": kid, "width": sizes[kid][0], "height": sizes[kid][1]} for kid in listed],
            "instances": [rows[i] for i in order],
        }
        paths.append(_write(tmp_path / f"sta_{m}.json", tree))
    return paths


def _run(*argv):
    with redirect_stdout(io.StringIO()) as out:
        rc = cli.main(list(argv))
    assert rc == 0
    return out.getvalue()


def _sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


# The vote writes the k best sequences of the mean matrix.
VOTE_SHA = {
    1: "560f5a7e9289976048cf171390d432382928c05152e5d25288b81831a78df0df",
    5: "b3acb5042f56f8848a76af831a10651fd596b366a9cc1ce55c8c97270d19df0d",
}


@pytest.mark.parametrize("k", sorted(VOTE_SHA))
def test_vote_keeps_its_bytes(tmp_path, k):
    out = tmp_path / "voted.json"
    stdout = _run("vote", "--pred", _vote_input(tmp_path / "clips.json"), "--out", str(out), "--k", str(k))
    assert stdout == f"fused 7 episodes into {out}\n"
    assert _sha(out) == VOTE_SHA[k]


FUSE_SHA = {
    ("post", "0.5"): "19807713125673f959be46a7faab3bf28b09e0ffd574c72c5115698ba4eb96b4",
    ("post", "0.3"): "3852c772d6ed824cdd47b57daa566deb5834a0734bdca55fb5560ebbdf11c061",
    ("sta", "0.75"): "1301ab5715bd3faa317630931637261c49fcbbcaacda4570e7220da55095faa5",
    ("sta", "0.3"): "3b217aa2ff028da840148c1a169aa102e57809e981479855f76d8bb71b0211a5",
}


@pytest.mark.parametrize("mode, thresh", sorted(FUSE_SHA))
def test_fuse_keeps_its_bytes(tmp_path, mode, thresh):
    paths = _post_inputs(tmp_path) if mode == "post" else _sta_inputs(tmp_path)
    flag = "--tiou" if mode == "post" else "--nms-iou"
    out = tmp_path / "fused.json"
    assert _run("fuse", mode, "--pred", *paths, "--out", str(out), flag, thresh) == f"wrote {out}\n"
    assert _sha(out) == FUSE_SHA[mode, thresh]


# ---------------------------------------------------------------------------
# One suppression kernel: the oracles and the typed functions agree with it.
# ---------------------------------------------------------------------------


def _pools(rng, width, sizes):
    """Coordinate rows, scores and pool starts of pools of ``sizes`` rows:
    whole-numbered coordinates and scores from five values, so equal boxes,
    segments and scores are common."""
    n = sum(sizes)
    lo = rng.integers(0, 30, size=(n, width // 2)).astype(float)
    rows = np.concatenate([lo, lo + rng.integers(0, 12, size=(n, width // 2))], axis=1)
    scores = rng.integers(0, 5, size=n) / 4
    return rows, scores, np.concatenate(([0], np.cumsum(sizes)))


def _typed(rows, scores):
    if rows.shape[1] == 4:
        return [BoundingBox(*row) for row in rows.tolist()]
    return [RankedSegment(TemporalSegment(a, b), s, 0) for (a, b), s in zip(rows.tolist(), scores.tolist())]


@pytest.mark.parametrize(
    "sizes",
    [
        pytest.param([7, 0, 29, 1, 12, 3], id="unequal"),  # pools drop out of the steps one by one
        pytest.param([300], id="one-big"),
        pytest.param([25, 0, 300, 1, 4], id="big-among-small"),  # one pool runs on alone
    ],
)
@pytest.mark.parametrize("width", [2, 4])
@pytest.mark.parametrize("seed", range(6))
def test_kernel_keeps_what_the_oracle_and_the_typed_functions_keep(sizes, width, seed):
    # The kernel takes the r-th row of every pool in one step, largest pool
    # first; each pool must keep what greedy suppression of it alone keeps.
    rng = np.random.default_rng(seed)
    rows, scores, starts = _pools(rng, width, sizes)
    iou = _box_iou_pairs if width == 4 else _temporal_iou_pairs
    for thresh in (0.3, 0.5, 1.0):
        kept = fusion._greedy_suppress(rows, scores, starts, thresh, iou).tolist()
        expected = []
        for lo, hi in zip(starts[:-1].tolist(), starts[1:].tolist()):
            items = _typed(rows[lo:hi], scores[lo:hi])
            if width == 4:
                oracle = oracles.oracle_nms(items, scores[lo:hi].tolist(), thresh)
                assert fusion.nms(items, scores[lo:hi].tolist(), thresh) == oracle
            else:
                oracle = oracles.oracle_temporal_nms(items, thresh)
                assert fusion.temporal_nms(items, thresh) == oracle
            expected += [lo + i for i in oracle]
        assert kept == expected


@pytest.mark.parametrize("mode", ["post", "sta"])
def test_fuse_columns_is_the_typed_fusion_of_each_group(tmp_path, mode):
    if mode == "post":
        paths = _post_inputs(tmp_path)
        typed = [fileio.load_nlq_pred(p) for p in paths]
        groups = sorted({qid for t in typed for qid in t})
    else:
        paths = _sta_inputs(tmp_path)
        typed = [fileio.load_sta_pred(p) for p in paths]
        groups = sorted({kid for t in typed for kid in t.images})
    files = [t.columns if mode == "post" else t.instances.columns for t in typed]
    fused = fusion.fuse_columns(files, groups, 0.4)
    assert list(fused) == groups
    for key in groups:
        rows = fused[key]
        coords, scores = fused.coords[rows.start : rows.stop].tolist(), fused.score[rows.start : rows.stop].tolist()
        if mode == "post":
            expected = fusion.post_fuse_segments([t.get(key, ()) for t in typed], 0.4)
            assert coords == [[s.segment.start_s, s.segment.end_s] for s in expected]
        else:
            expected = fusion.splice_and_nms([t.instances.get(key, ()) for t in typed], 0.4)
            assert coords == [[s.box.x1, s.box.y1, s.box.x2, s.box.y2] for s in expected]
            for name, attr in (("label", "noun_id"), ("verb", "verb_id"), ("ttc", "ttc_s")):
                assert getattr(fused, name)[rows.start : rows.stop].tolist() == [getattr(s, attr) for s in expected]
        assert scores == [s.score for s in expected]
    assert 0 < len(fused.score) < sum(len(f.score) for f in files)


# ---------------------------------------------------------------------------
# No record objects in vote and fuse.
# ---------------------------------------------------------------------------

RECORDS = (StaInstance, RankedSegment, ScoreMatrix, BoundingBox, TemporalSegment)


def test_fusion_commands_build_no_record_objects(tmp_path, monkeypatch):
    built = Counter()
    validated = model._validated

    def counting(cls, /, **fields):
        built[cls.__name__] += 1
        return validated(cls, **fields)

    for module in (model, fusion):
        monkeypatch.setattr(module, "_validated", counting)
    for cls in RECORDS:

        def post_init(self, checked=cls.__post_init__, name=cls.__name__):
            built[name] += 1
            checked(self)

        monkeypatch.setattr(cls, "__post_init__", post_init)
    clips = _vote_input(tmp_path / "clips.json")
    nlq, sta = _post_inputs(tmp_path), _sta_inputs(tmp_path)
    # Reading the typed loaders' records builds them both ways, which the
    # count would catch.
    dict(fileio.load_lta_clip_probs(clips))
    dict(fileio.load_nlq_pred(nlq[0]))
    dict(fileio.load_sta_pred(sta[0]).instances)
    assert built["ScoreMatrix"] > 0 and built["RankedSegment"] > 0 and built["StaInstance"] > 0
    ScoreMatrix(verb=[[1.0]], noun=[[1.0]])
    assert built["ScoreMatrix"] > 1
    built.clear()
    _run("vote", "--pred", clips, "--out", str(tmp_path / "voted.json"))
    _run("fuse", "post", "--pred", *nlq, "--out", str(tmp_path / "nlq.json"))
    _run("fuse", "sta", "--pred", *sta, "--out", str(tmp_path / "sta.json"))
    assert not built


def test_forecast_writer_gives_the_bytes_of_json_dumps(tmp_path):
    from egoforge.model import ActionLabel, LtaForecast

    matrix = ScoreMatrix(verb=[[5e-324, 1.0], [-0.0, 1.0]], noun=[[0.1, 0.2, 0.7], [1.0, 0.0, 0.0]])
    seq = (ActionLabel(verb_id=1, noun_id=2**63), ActionLabel(verb_id=0, noun_id=0))
    forecasts = {
        ("vidéo", 3): LtaForecast(clip_index=3, candidates=(seq, seq[::-1]), score_matrix=matrix),
        ("v", 0): LtaForecast(clip_index=0, candidates=(seq,)),
    }
    expected = {
        "schema": "lta-pred/1",
        "instances": [
            {
                "video_id": vid,
                "clip_index": ci,
                "candidates": [[[a.verb_id, a.noun_id] for a in s] for s in f.candidates],
                **({"score_matrix": {"verb": f.score_matrix.verb.tolist(), "noun": f.score_matrix.noun.tolist()}} if f.score_matrix else {}),
            }
            for (vid, ci), f in forecasts.items()
        ],
    }
    fileio.save_lta_pred(tmp_path / "typed.json", forecasts)
    assert (tmp_path / "typed.json").read_text(encoding="utf-8") == json.dumps(expected, indent=2) + "\n"
    pairs = {key: ([[(a.verb_id, a.noun_id) for a in s] for s in f.candidates], matrix.verb, matrix.noun) for key, f in forecasts.items()}
    fileio.save_lta_pred(tmp_path / "pairs.json", pairs)
    assert fileio.load_lta_pred(tmp_path / "pairs.json")[("v", 0)].score_matrix == matrix
    fileio.save_lta_pred(tmp_path / "empty.json", {})
    assert (tmp_path / "empty.json").read_text(encoding="utf-8") == json.dumps({"schema": "lta-pred/1", "instances": []}, indent=2) + "\n"
