"""Model arrays the tests read or copy, and the layer-by-layer inference
reference, outside the package: the program itself only serializes the
arrays (Model.serialization_arrays) and runs model.inference_stack."""

import numpy as np

from builtup.model import Model
from builtup.nncore import BatchNorm, Dropout


def trainable_arrays(net):
    """Each layer's param_names arrays in table order: views into
    net.params."""
    return [getattr(layer, attr) for layer in net.layers
            for attr in layer.param_names]


def moving_statistics(net):
    """Each layer's state_names arrays (BatchNorm's moving statistics) in
    table order."""
    return [getattr(layer, attr) for layer in net.layers
            for attr in layer.state_names]


def copy_model(net, dtype=np.float64):
    """A copy of net, metadata included, with every array cast to dtype."""
    clone = Model(net.arch, net.zone_id, net.seed, net.epochs_trained,
                  dtype=dtype)
    for dst, src in zip(clone.serialization_arrays(),
                        net.serialization_arrays()):
        dst[...] = src
    return clone


def layer_by_layer(net, x):
    """The inference pass the stack folds, run one layer at a time:
    every layer but Dropout (the identity in inference) through its own
    forward, BatchNorm with its moving statistics. x is (N, h+4, w+4,
    bands); returns (N, h, w)."""
    for layer in net.layers:
        if not isinstance(layer, Dropout):
            x = layer.forward(x)
    return x[..., 0]


def batchnorm_inputs(net, x):
    """The input of each BatchNorm in layer_by_layer's pass, in table
    order."""
    inputs = []
    for layer in net.layers:
        if isinstance(layer, BatchNorm):
            inputs.append(x)
        if not isinstance(layer, Dropout):
            x = layer.forward(x)
    return inputs
