"""Gauss-Legendre quadrature helpers shared by assembly and metrics."""

from functools import lru_cache

import numpy as np

from .errors import DomainError


@lru_cache(maxsize=None)
def gauss_rule(order):
    """Nodes and weights of the order-point Gauss-Legendre rule on [-1, 1]."""
    if order < 1:
        raise DomainError(f"quadrature order must be >= 1, got {order}")
    nodes, weights = np.polynomial.legendre.leggauss(order)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def panel_nodes(lo, hi, order):
    """Map the reference rule onto the panel [lo, hi]; column bounds give one row per panel."""
    base, weights = gauss_rule(order)
    half = 0.5 * (hi - lo)
    return lo + half * (base + 1.0), half * weights


def subdivided_nodes(lo, hi, n_panels, order):
    """Nodes and weights tiling [lo, hi] with n_panels equal panels.

    Returns flat arrays of length n_panels * order, panel by panel.
    """
    if n_panels < 1:
        raise DomainError(f"need at least one panel, got {n_panels}")
    edges = np.linspace(lo, hi, n_panels + 1)
    xs, ws = panel_nodes(edges[:-1, None], edges[1:, None], order)
    return xs.ravel(), ws.ravel()


def composite_nodes(lo, hi, total_points, panel_order=16):
    """Composite rule with at least total_points nodes in panels of panel_order."""
    n_panels = max(1, -(-int(total_points) // panel_order))
    return subdivided_nodes(lo, hi, n_panels, panel_order)
