"""Parameter loading for :class:`repro.nn.layers.Module`.

Reads a module's state dict from a single ``.npz`` archive without
unpickling arbitrary objects.  Trained QPP Net models are written
durably by :func:`repro.core.bundle.save_bundle`, and
:func:`~repro.core.bundle.load_bundle` reads their weights through here.
"""

from __future__ import annotations

import os
from typing import Union

import numpy as np

from .layers import Module

PathLike = Union[str, "os.PathLike[str]"]


def load_module(module: Module, path: PathLike) -> Module:
    """Load a ``.npz`` of ``module.state_dict()`` arrays into ``module`` in place."""
    with np.load(path) as archive:
        state = {key: archive[key] for key in archive.files}
    module.load_state_dict(state)
    return module
