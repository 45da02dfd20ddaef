"""Patch-based CNN toolkit for pixel-wise built-up probability mapping."""

from .model import (
    ArchitectureConfig,
    Model,
    PRESETS,
    build_model,
    count_params,
    load_model,
    save_model,
    train_step,
)
from .pipeline import (
    EarlyStopping,
    SamplingConfig,
    TrainingRun,
    ZoneRegistry,
    predict_zone,
    train_zone,
)
from .raster import RasterGrid, read_raster, write_raster
from .synth import SceneParams, synth_zone

__version__ = "0.1.0"
