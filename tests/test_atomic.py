"""Weight and dataset files are replaced whole: a failed write keeps the old file or leaves none."""

import os

import numpy as np
import pytest

from splitseg import dataio
from splitseg import model as M
from splitseg.model import ModelConfig


def _tiny_weights():
    return M.build(ModelConfig(input_height=128, input_width=128, base_channels=4,
                               feature_channels=8, num_classes=3, ppm_bins=(1, 2), seed=3))


_RASTER = np.random.default_rng(1).integers(0, 256, size=(5, 7, 3), dtype=np.uint8)
_LABELS = np.random.default_rng(2).integers(0, 4, size=(5, 7))

# (writer, the files it writes in order)
WRITERS = {
    "weights": (lambda d: M.save_weights(_tiny_weights(), d / "w"), ["w.bin", "w.json"]),
    "ppm": (lambda d: dataio.save_ppm(d / "a.ppm", _RASTER), ["a.ppm"]),
    "pgm": (lambda d: dataio.save_pgm(d / "a.pgm", _LABELS), ["a.pgm"]),
}


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_failed_write_keeps_old_file_or_none(tmp_path, monkeypatch, fail_write_number, name):
    write, files = WRITERS[name]
    good = tmp_path / "good"
    good.mkdir()
    write(good)
    assert sorted(os.listdir(good)) == sorted(files)
    for n, failing in enumerate(files):
        old, fresh = tmp_path / f"old{n}", tmp_path / f"fresh{n}"
        old.mkdir()
        fresh.mkdir()
        for f in files:
            (old / f).write_bytes(b"old\n")
        for d in (old, fresh):
            with monkeypatch.context() as m:
                fail_write_number(m, n)
                with pytest.raises(OSError, match="No space left"):
                    write(d)
        # no temporary left behind; every file is whole: old, new, or absent
        assert sorted(os.listdir(old)) == sorted(files)
        assert (old / failing).read_bytes() == b"old\n"
        assert all((old / f).read_bytes() == (good / f).read_bytes() for f in files[:n])
        assert sorted(os.listdir(fresh)) == sorted(files[:n])

