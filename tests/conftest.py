"""Shared fixtures: default parameters and a tiny network for fast tests."""

import os

import numpy as np
import pytest

from spikesim import (EncodingConfig, NetworkConfig, NeuronParams,
                      SimulationConfig, SynapsePopulation, build_network)

# Calibration constant for the default neuron (100 ms window, 10 spikes,
# dt=0.1 ms), frozen from the reference calibration run.
I_K_DEFAULT = 797.4


class _FailingFile:
    """A file whose write stores half of the data, then fails."""

    def __init__(self, f):
        self.f = f

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()

    def write(self, data):
        self.f.write(data[:len(data) // 2])
        raise OSError(28, "No space left on device")


def fail_writes(monkeypatch):
    """Make every later write to a file opened by os.fdopen store half of
    its data and then fail, as on a full disk."""
    real_fdopen = os.fdopen
    monkeypatch.setattr(os, "fdopen", lambda fd, *a, **k: _FailingFile(real_fdopen(fd, *a, **k)))


def population(name, pre_index, post_index, weight, sign, n_pre, n_post,
               plasticity=None):
    """A SynapsePopulation wired by connection pairs, which must be distinct
    and pre-major: they become the connection mask, whose C order is the
    order of `weight`."""
    pre, post = np.asarray(pre_index), np.asarray(post_index)
    connected = np.zeros((n_pre, n_post), dtype=bool)
    connected[pre, post] = True
    assert np.array_equal(np.flatnonzero(connected), pre * n_post + post), \
        "connection pairs must be distinct and pre-major"
    return SynapsePopulation(name, connected, weight, sign, plasticity)


@pytest.fixture
def params():
    return NeuronParams()


@pytest.fixture
def enc():
    return EncodingConfig(I_K=I_K_DEFAULT, target=10)


@pytest.fixture
def tiny_cfg():
    # 16 inputs -> 4 feature -> 4 inhib -> 4 readout (2 classes x 2)
    return NetworkConfig(rows=4, cols=4, n_classes=2, neurons_per_class=2,
                         seed=5)


@pytest.fixture
def tiny_net(tiny_cfg, params):
    return build_network(tiny_cfg, params)


@pytest.fixture
def sim():
    return SimulationConfig(epochs_phase1=1, epochs_phase2=1)
