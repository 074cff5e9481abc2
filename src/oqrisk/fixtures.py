"""Named regression fixtures.

``paper-example``: the two-mode oscillator used for regression pinning.
Its energy/coupling matrices and cost weight are embedded verbatim; the
test suite pins a hash of this data so silent drift fails loudly.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .model import OqhoModel, canonical_ccr, model_from_matrices

__all__ = ["PAPER_EXAMPLE", "paper_example_model", "fixture_model"]

PAPER_EXAMPLE = {
    "n": 4,
    "m": 4,
    "R": [
        [-0.1027, 1.3449, -0.2403, -1.3994],
        [1.3449, 1.5008, -0.1856, 0.9212],
        [-0.2403, -0.1856, -0.5704, -0.4146],
        [-1.3994, 0.9212, -0.4146, -0.3233],
    ],
    "M": [
        [0.8726, 0.1632, 2.1844, -1.9270],
        [0.1179, -0.8147, -0.0938, 0.5214],
        [-1.5031, 0.4037, -0.2942, -2.0544],
        [0.9218, 0.7562, -0.5048, -0.2698],
    ],
    "Pi": [
        [3.5050, -0.5447, 0.0672, -2.3918],
        [-0.5447, 4.0758, -1.1876, 0.0215],
        [0.0672, -1.1876, 5.1422, -1.4628],
        [-2.3918, 0.0215, -1.4628, 4.5416],
    ],
}


def paper_example_model() -> tuple[OqhoModel, np.ndarray]:
    """The pinned two-mode example: returns ``(model, Pi)``."""
    model = model_from_matrices(
        canonical_ccr(4).theta,
        np.array(PAPER_EXAMPLE["R"]),
        np.array(PAPER_EXAMPLE["M"]),
    )
    return model, np.array(PAPER_EXAMPLE["Pi"])


def fixture_model(name: str) -> tuple[OqhoModel, np.ndarray]:
    if name == "paper-example":
        return paper_example_model()
    raise ConfigError(f"unknown fixture {name!r}")
