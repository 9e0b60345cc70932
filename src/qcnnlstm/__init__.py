"""Quantized CNN-LSTM time-series classification with a bit-accurate,
cycle-counting simulator of a shared-bus fixed-point accelerator.

Submodules:

* ``fxp`` saturating fixed-point arithmetic and LUT nonlinearities
* ``datagen`` synthetic datasets, windowing, datasets on disk
* ``analysis`` Fourier-domain distances and stochastic 2-D embedding
* ``model`` network config, model directories, fixed-point forward pass
* ``quant`` binary/ternary quantizers, STE, 2-bit packing
* ``train`` float forward pass, BPTT trainer with Adagrad and clipping
* ``fsm`` eight-state cycle-accurate accelerator simulator
* ``estimate`` analytic memory/MAC/latency estimators
* ``ingest`` UCR loading, Hilbert envelope, normalization, splits
* ``cli`` command-line entry point
"""

__version__ = "0.1.0"
