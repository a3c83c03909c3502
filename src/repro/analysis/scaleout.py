"""Scale-out permutation sweep: large HammingMeshes, one batched solve each.

The figure sweeps in :mod:`repro.analysis.figures` stop at fig12-scale
clusters (a few thousand endpoints).  This module registers the
``scaleout_permutation`` sweep for the large-N regime — e.g. an
``Hx2Mesh(2,2,64,64)`` with 16,384 accelerators, whose route table stays
at tens of megabytes because its pair index is sparse (a dense ``n**2``
index alone would need ~7.7 GB; see ``DESIGN.md``).

The cells of one topology share a chunk, so the runner hands them to the
cell's batch companion and the permutations of a chunk are solved in one
vectorized :meth:`~repro.sim.flowsim.FlowSimulator.maxmin_rates_batch`
call.  A multi-worker runner splits oversized chunks into contiguous
slices (each slice batch-solves on its worker, seeded with the parent's
shared-memory route table), so one topology still fans out across the
pool.  Batching is bit-identical to the plain path, so this sweep's
numbers agree exactly with a per-cell run of the same grid.
"""

from __future__ import annotations

from typing import Any, Dict

from ..exp import Grid, RunReport, register_sweep
from ..exp.cells import maxmin_permutation_cell

__all__ = ["scaleout_grid"]


def scaleout_grid(
    *,
    a: int = 2,
    b: int = 2,
    x: int = 32,
    y: int = 32,
    num_permutations: int = 4,
    max_paths: int = 8,
    policy: str = "minimal",
    seed: int = 0,
) -> Grid:
    """Permutation sweep on one ``a x b`` boards of ``x x y`` HammingMesh.

    Defaults describe the CI smoke case (4,096 accelerators); pass
    ``x=64, y=64`` for the 16,384-accelerator headline configuration.
    All cells share one chunk (one topology): a serial run batch-solves
    them together, while a multi-worker run splits the chunk into
    contiguous slices — one batch solve per worker — with identical
    results either way.
    """
    grid = Grid(
        maxmin_permutation_cell,
        common={
            "a": a,
            "b": b,
            "x": x,
            "y": y,
            "max_paths": max_paths,
            "policy": policy,
        },
        chunk=lambda p: f"hx_{p['a']}x{p['b']}x{p['x']}x{p['y']}",
    )
    grid.cross(seed=[seed + i for i in range(num_permutations)])
    return grid


def _scaleout_post(report: RunReport) -> Dict[str, Any]:
    values = report.values()
    return {
        "num_permutations": len(values),
        "mean_fraction": (
            sum(v["mean_fraction"] for v in values) / len(values) if values else None
        ),
        "min_fraction": min((v["min_fraction"] for v in values), default=None),
        "permutations": values,
    }


register_sweep(
    "scaleout_permutation",
    build=scaleout_grid,
    post=_scaleout_post,
    description="Large-N HammingMesh permutation sweep, batch-solved per topology",
    artifact="scaleout_permutation",
)
