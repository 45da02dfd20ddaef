"""Golden digests of a small CLI chain, run in-process.

The chain synthesizes two 128x128 zones; trains desk for 2 epochs with a
registry, paper for 1 epoch and desk with early stopping; predicts at
tiles 48 and 256; transfers zone B from A's model; evaluates with a CSV;
and inspects one GHSM and one GHSR. Every output file a manifest hashes,
and the inspect output, must match tests/golden.json. The chain runs on
one OpenBLAS thread.

Float bytes depend on numpy and on the BLAS kernels, so golden.json is
keyed by numpy's version and OpenBLAS's get_config string. Where the key
is not pinned, only the absolute digests are skipped: a tile-48 mosaic
has the tile-256 bytes, and predict_zone gives one mosaic at 1 and 2
workers, on any machine.

A change that moves output bytes on purpose re-pins the file with

    python tests/test_golden.py --repin
"""

import ctypes
import glob
import hashlib
import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

if __name__ == "__main__":  # run as a script: find the package in src/
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np
import pytest

from builtup import cli, model as model_mod, pipeline, raster

GOLDEN = Path(__file__).with_name("golden.json")


def blas_config():
    """get_config() of the OpenBLAS bundled with numpy, or None."""
    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir,
                           "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_get_config64_",
                     "scipy_openblas_get_config", "openblas_get_config64_",
                     "openblas_get_config"):
            config = getattr(lib, name, None)
            if config is not None:
                config.restype = ctypes.c_char_p
                return config().decode()
    return None


def environment_key() -> str:
    return f"numpy {np.__version__} | {blas_config()}"


def run(*argv):
    code = cli.main([str(a) for a in argv])
    assert code == 0, f"builtup {' '.join(map(str, argv))} exited {code}"


def run_chain(root: Path) -> dict:
    """Run the chain in root on one OpenBLAS thread; returns {output path
    relative to root, or "inspect <path>": sha256}."""
    with pipeline._one_blas_thread():
        data, models, pred = root / "data", root / "models", root / "pred"
        registry = root / "registry.json"
        run("synth", "--out", data, "--zones", 2, "--size", 128)
        run("train", "--zone", "A", "--data", data, "--out",
            models / "A.ghsm", "--epochs", 2, "--registry", registry)
        run("train", "--zone", "B", "--data", data, "--out",
            models / "Bpaper.ghsm", "--preset", "paper", "--epochs", 1)
        run("train", "--zone", "B", "--data", data, "--out",
            models / "Bes.ghsm", "--epochs", 4, "--early-stop-patience", 1,
            "--early-stop-min-delta", 0.05, "--seed", 3)
        for tile in (48, 256):
            run("predict", "--zone", "A", "--data", data, "--model",
                models / "A.ghsm", "--out", pred / f"A{tile}",
                "--tile-size", tile)
        run("predict", "--zone", "B", "--data", data, "--model",
            models / "Bpaper.ghsm", "--out", pred / "Bpaper")
        run("transfer", "--zone", "B", "--source-zone", "A", "--data", data,
            "--registry", registry, "--out", pred / "BA")
        run("evaluate", "--probs", pred / "A256", "--reference", data / "A",
            "--report", root / "reports" / "A.json", "--csv",
            root / "reports" / "A.csv")
        run("evaluate", "--probs", pred / "BA", "--reference", data / "B",
            "--report", root / "reports" / "BA.json")
        digests = {}
        for manifest in sorted(root.rglob("*manifest.json")):
            info = json.loads(manifest.read_text(encoding="utf-8"))
            assert info["status"] == "ok", manifest
            for path, sha in info["outputs"].items():
                digests[Path(path).relative_to(root).as_posix()] = sha
        for path in (models / "A.ghsm", data / "A" / "composite.ghsr"):
            printed = io.StringIO()
            with redirect_stdout(printed):
                run("inspect", path)
            digests[f"inspect {path.relative_to(root).as_posix()}"] = \
                hashlib.sha256(printed.getvalue().encode("utf-8")).hexdigest()
        return digests


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    return root, run_chain(root)


def mosaic(directory: Path) -> bytes:
    paths = sorted(directory.glob("*_prob.ghsr"))
    grid, places = pipeline.mosaic_layout(paths, len(paths))
    return pipeline.read_mosaic_rows(grid, places, 0, grid.height).tobytes()


def test_outputs_match_the_golden_digests(chain):
    _, digests = chain
    key = environment_key()
    pinned = json.loads(GOLDEN.read_text(encoding="utf-8"))
    if key not in pinned:
        pytest.skip(f"no golden digests for {key!r}; pinned: {sorted(pinned)}")
    assert digests == pinned[key]


def test_tile_48_mosaic_has_the_tile_256_bytes(chain):
    root, _ = chain
    assert mosaic(root / "pred" / "A48") == mosaic(root / "pred" / "A256")


def test_predict_zone_gives_one_mosaic_at_one_and_two_workers(chain):
    root, _ = chain
    net = model_mod.load_model(root / "models" / "A.ghsm")
    composite = raster.read_raster(root / "data" / "A" / "composite.ghsr")
    grids = []
    for workers in (1, 2):
        preds = pipeline.predict_zone(net, composite, 48, workers=workers)
        assert all(p.ok for p in preds)
        grids.append(b"".join(p.prob.tobytes() for p in preds))
    assert grids[0] == grids[1]


def repin() -> None:
    """Run the chain and write its digests to golden.json under this
    environment's key, keeping the other environments' entries."""
    with tempfile.TemporaryDirectory() as tmp:
        digests = run_chain(Path(tmp))
    pinned = (json.loads(GOLDEN.read_text(encoding="utf-8"))
              if GOLDEN.exists() else {})
    pinned[environment_key()] = digests
    GOLDEN.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"pinned {len(digests)} digests for {environment_key()!r}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--repin"]:
        sys.exit("usage: python tests/test_golden.py --repin")
    repin()
