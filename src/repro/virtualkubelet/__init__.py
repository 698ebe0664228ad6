"""Virtual kubelet (mock pod provider), as used in the paper's evaluation."""

from .provider import MockProvider, VirtualKubelet

__all__ = ["MockProvider", "VirtualKubelet"]
