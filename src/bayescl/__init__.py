"""Few-shot continual spoken-word classification.

A meta-trained encoder embeds audio clips (or synthetic vectors); a
conjugate Bayesian generative head learns one class at a time from a
handful of shots via closed-form updates, so earlier classes are never
touched when new ones arrive.
"""

__version__ = "0.1.0"

from .autodiff import DiffGraph, GraphError, Tensor

__all__ = ["DiffGraph", "GraphError", "Tensor", "__version__"]
