"""Model arrays the tests read or copy, the layer-by-layer inference
reference, the whole-batch dropout draw and a pull-back that returns its
arrays, outside the package: the program itself only serializes the
arrays (Model.serialization_arrays), runs model.inference_stack, draws
dropout masks slice by slice and writes pulled-back gradients into its
flat gradient."""

import numpy as np

from builtup.model import Model, compose_convs_adjoint
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


def batch_keep_flags(rng, shape):
    """Dropout's keep flags of a whole batch shaped `shape`, drawn with
    rng.random: the draw whose rows the train pass's slices take from the
    PCG64 stream (Dropout.keep_flags)."""
    return rng.random(shape) >= Dropout.rate


def pull_back(first, second, grad):
    """((dk1, db1), (dk2, db2)) of compose_convs_adjoint, its two tasks run
    in turn into fresh arrays."""
    out = [tuple(np.empty_like(a) for a in factor)
           for factor in (first, second)]
    for task in compose_convs_adjoint(first, second, grad, out):
        task()
    return out


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
