"""Tree-walk force computation (paper §5.3.1).

Forces are evaluated per *leaf group*: each tree leaf's particles walk
the tree together with a group-centred multipole acceptance criterion
(MAC).  Accepted nodes contribute centre-of-mass (monopole)
interactions; opened leaves contribute direct particle-particle
interactions.  The walk prunes subtrees exactly as equation (6)'s
softened force and the paper's description demand, and the interaction
counts are recorded for the flop ledger.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bodies import Bodies, G
from .counts import FLOPS_PER_INTERACTION
from .tree import Octree, build_octree

__all__ = ["ForceResult", "tree_forces", "direct_forces"]


@dataclass
class ForceResult:
    """Accelerations plus the interaction statistics of the walk."""

    accelerations: np.ndarray     #: (N, 3) in original body order
    approx_interactions: int      #: particle-node (monopole) interactions
    direct_interactions: int      #: particle-particle interactions

    @property
    def total_interactions(self) -> int:
        return self.approx_interactions + self.direct_interactions

    @property
    def flops(self) -> float:
        return FLOPS_PER_INTERACTION * self.total_interactions


def _pairwise_acc(targets: np.ndarray, sources: np.ndarray,
                  source_mass: np.ndarray, softening: float) -> np.ndarray:
    """Softened accelerations of ``targets`` due to point ``sources``."""
    d = sources[None, :, :] - targets[:, None, :]          # (T, S, 3)
    r2 = np.sum(d * d, axis=2) + softening ** 2
    # a zero separation (a particle and itself) contributes nothing
    safe = np.where(r2 > 0.0, r2, 1.0)
    inv_r3 = np.where(r2 > 0.0, safe ** -1.5, 0.0)
    return G * np.einsum("ts,s,tsd->td", inv_r3, source_mass, d)


def direct_forces(bodies: Bodies, softening: float = 0.01) -> np.ndarray:
    """O(N^2) reference accelerations (tests and small problems)."""
    return _pairwise_acc(bodies.positions, bodies.positions,
                         bodies.masses, softening)


def _quadrupole_acc(targets: np.ndarray, coms: np.ndarray,
                    quads: np.ndarray) -> np.ndarray:
    """Acceleration from traceless node quadrupoles.

    a = G [ Q r / r^5 - (5/2) (r^T Q r) r / r^7 ],  r = target - com.
    """
    r = targets[:, None, :] - coms[None, :, :]             # (T, A, 3)
    r2 = np.maximum(np.sum(r * r, axis=2), 1e-300)         # (T, A)
    qr = np.einsum("aij,taj->tai", quads, r)               # (T, A, 3)
    rqr = np.einsum("tai,tai->ta", qr, r)                  # (T, A)
    inv_r5 = r2 ** -2.5
    inv_r7 = r2 ** -3.5
    acc = G * (qr * inv_r5[:, :, None]
               - 2.5 * (rqr * inv_r7)[:, :, None] * r)
    return acc.sum(axis=1)


def tree_forces(bodies: Bodies, theta: float = 0.6,
                softening: float = 0.01, leaf_size: int = 16,
                tree: Octree | None = None,
                use_quadrupole: bool = False) -> ForceResult:
    """Barnes-Hut accelerations with opening angle ``theta``.

    ``use_quadrupole`` adds the nodes' traceless quadrupole moments to
    every accepted-node interaction (the paper's "high order moments of
    the mass distribution"), computing them on the tree if absent.
    """
    if theta <= 0:
        raise ValueError("opening angle must be positive")
    if tree is None:
        tree = build_octree(bodies, leaf_size=leaf_size)
    if use_quadrupole and tree.quadrupole is None:
        from .tree import compute_quadrupoles
        compute_quadrupoles(tree)
    acc_sorted = np.zeros_like(tree.positions)
    n_approx = 0
    n_direct = 0

    for group in tree.leaves():
        gs, ge = int(tree.start[group]), int(tree.end[group])
        gpos = tree.positions[gs:ge]
        gcenter = tree.center[group]
        gradius = float(tree.half_size[group]) * np.sqrt(3.0)

        approx_nodes = []
        direct_slices = []
        frontier = np.array([0], dtype=np.int64)
        while len(frontier):
            d = tree.com[frontier] - gcenter
            dist = np.sqrt(np.sum(d * d, axis=1))
            size = 2.0 * tree.half_size[frontier]
            # group MAC: the node must be well separated from the whole
            # group, not just its centre
            ok = size < theta * np.maximum(dist - gradius, 1e-12)
            ok &= dist > gradius  # never approximate an enclosing node
            for node in frontier[ok]:
                approx_nodes.append(node)
            opened = frontier[~ok]
            next_frontier = []
            for node in opened:
                if tree.is_leaf[node]:
                    direct_slices.append(
                        (int(tree.start[node]), int(tree.end[node])))
                else:
                    kids = tree.children[node]
                    next_frontier.extend(kids[kids >= 0])
            frontier = np.array(next_frontier, dtype=np.int64)

        acc = np.zeros_like(gpos)
        if approx_nodes:
            nodes = np.array(approx_nodes, dtype=np.int64)
            acc += _pairwise_acc(gpos, tree.com[nodes], tree.mass[nodes],
                                 softening)
            if use_quadrupole:
                acc += _quadrupole_acc(gpos, tree.com[nodes],
                                       tree.quadrupole[nodes])
            n_approx += len(gpos) * len(nodes)
        if direct_slices:
            src = np.concatenate(
                [tree.positions[s:e] for s, e in direct_slices])
            src_mass = np.concatenate(
                [tree.masses[s:e] for s, e in direct_slices])
            acc += _pairwise_acc(gpos, src, src_mass, softening)
            n_direct += len(gpos) * len(src)
        acc_sorted[gs:ge] = acc

    # un-sort back to the original body order
    accelerations = np.empty_like(acc_sorted)
    accelerations[tree.order] = acc_sorted
    return ForceResult(accelerations, n_approx, n_direct)
