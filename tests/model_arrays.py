"""Model arrays the tests read or copy, outside the package: the program
itself only serializes them (Model.serialization_arrays)."""

import numpy as np

from builtup.model import Model


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
