"""Model bundles: one directory holding everything a prediction needs.

A trained QPP Net is three things — unit weights, the fitted featurizer
(vocabularies + whitening + latency scale) and the hyperparameter config.
``save_bundle`` / ``load_bundle`` round-trip all three, so a model
trained on one machine predicts identically on another:

    save_bundle(model, "artifacts/qppnet-tpch")
    model = load_bundle("artifacts/qppnet-tpch")
"""

from __future__ import annotations

import dataclasses
import io
import json
import os
import zipfile
from typing import Union

import numpy as np

from repro.featurize.serialize import featurizer_from_dict, featurizer_to_dict

from . import durable
from .config import QPPNetConfig
from .model import QPPNet

PathLike = Union[str, "os.PathLike[str]"]

WEIGHTS_FILE = "weights.npz"
FEATURIZER_FILE = "featurizer.json"
CONFIG_FILE = "config.json"


class BundleCorruptError(RuntimeError):
    """A bundle directory exists but one of its files cannot be loaded.

    Distinct from ``FileNotFoundError`` (file missing entirely): this is
    the torn-write / bit-rot / wrong-contents case.  ``path`` names the
    offending file and the underlying parse error is ``__cause__``.
    """

    def __init__(self, path: str, reason: str) -> None:
        self.path = path
        super().__init__(f"corrupt bundle file {path}: {reason}")


def save_bundle(model: QPPNet, directory: PathLike) -> str:
    """Persist ``model`` (weights + featurizer + config) as ``directory``,
    published whole and durable by :func:`repro.core.durable.publish_dir`
    (an existing ``directory`` is replaced)."""
    weights = io.BytesIO()
    np.savez(weights, **model.state_dict())
    featurizer = json.dumps(featurizer_to_dict(model.featurizer)).encode()
    config = json.dumps(dataclasses.asdict(model.config)).encode()
    files = {WEIGHTS_FILE: weights.getvalue(), FEATURIZER_FILE: featurizer, CONFIG_FILE: config}
    durable.publish_dir(directory, files)
    return str(directory)


def load_bundle(directory: PathLike) -> QPPNet:
    """Rebuild a model saved by :func:`save_bundle`.

    Raises ``FileNotFoundError`` when a bundle file is missing outright
    and :class:`BundleCorruptError` — naming the offending file, with
    the parse failure as ``__cause__`` — when a file exists but cannot
    be decoded (truncated JSON, torn npz, mismatched weights).
    """
    directory = str(directory)
    for required in (WEIGHTS_FILE, FEATURIZER_FILE, CONFIG_FILE):
        if not os.path.exists(os.path.join(directory, required)):
            raise FileNotFoundError(f"bundle at {directory} is missing {required}")
    featurizer_path = os.path.join(directory, FEATURIZER_FILE)
    try:
        with open(featurizer_path) as handle:
            featurizer = featurizer_from_dict(json.load(handle))
    except (json.JSONDecodeError, UnicodeDecodeError, KeyError, TypeError, ValueError) as error:
        raise BundleCorruptError(featurizer_path, str(error)) from error
    config_path = os.path.join(directory, CONFIG_FILE)
    try:
        with open(config_path) as handle:
            config = QPPNetConfig(**json.load(handle))
    except (json.JSONDecodeError, UnicodeDecodeError, TypeError, ValueError) as error:
        raise BundleCorruptError(config_path, str(error)) from error
    model = QPPNet(featurizer, config)
    weights_path = os.path.join(directory, WEIGHTS_FILE)
    try:
        model.load(weights_path)
    except (zipfile.BadZipFile, OSError, ValueError, KeyError, EOFError) as error:
        # np.load raises BadZipFile or EOFError on torn archives;
        # load_state_dict raises KeyError/ValueError when the weights do
        # not match the configured architecture.
        raise BundleCorruptError(weights_path, str(error)) from error
    return model
