"""The generator's columns are the columns its files load as: every field of
every track's ``Columns`` or ``LtaColumns``, arrays by dtype, shape, bytes
and writeable flag."""

import contextlib
import dataclasses
import io

import numpy as np
import pytest

from egoforge import cli, fileio
from egoforge.synth import SynthConfig, generate_synthetic
from test_synth import EDGE_RANGES

# Each track's ground-truth file and the loaded columns of its records.
_LOADED = {
    "mq": ("gt_mq.json", lambda p: fileio.load_mq_gt(p).instances.columns),
    "nlq": ("gt_nlq.json", lambda p: fileio.load_nlq_gt(p).queries.columns),
    "fhp": ("gt_fhp.json", lambda p: fileio.load_fhp_gt(p).instances.columns),
    "lta": ("gt_lta.json", lambda p: fileio.load_lta_gt(p).sequences.columns),
    "sta": ("gt_sta.json", lambda p: fileio.load_sta_gt(p).instances.columns),
    "scod": ("gt_scod.json", lambda p: fileio.load_scod_gt(p).instances.columns),
}


def _picture(cols):
    """Every dataclass field of ``cols``; an array as its dtype, shape,
    bytes (so -0.0 differs from 0.0) and writeable flag."""

    def value(v):
        if isinstance(v, np.ndarray):
            return str(v.dtype), v.shape, v.tolist() if v.dtype == object else v.tobytes(), v.flags.writeable
        return v

    return type(cols).__name__, {f.name: value(getattr(cols, f.name)) for f in dataclasses.fields(cols)}


@pytest.mark.parametrize("overrides", [{}, *EDGE_RANGES], ids=["default", "one-value", "wide"])
def test_generator_columns_are_the_loaded_columns(tmp_path, monkeypatch, overrides):
    monkeypatch.setattr(cli, "SynthConfig", lambda **kw: SynthConfig(**kw, **overrides))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["synth", "--out", str(tmp_path)]) == 0
    config = fileio.load_config(tmp_path / "config.json")
    assert config == SynthConfig(**overrides)
    ds = generate_synthetic(config)
    for track, (name, load) in _LOADED.items():
        generated, loaded = _picture(getattr(ds, f"{track}_gt").columns), _picture(load(tmp_path / name))
        assert generated == loaded, track
