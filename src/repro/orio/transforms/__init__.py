"""Source-level loop transformations (Table I).

All three transformations are real AST-to-AST passes over the IR in
:mod:`repro.orio.ast`:

* :class:`CacheTile` — strip-mine + hoist to create cache-blocked tile
  loops (``T`` in ``2^0 .. 2^11``);
* :class:`RegisterTile` — strip-mine by a small factor and fully unroll
  the resulting point loop (``RT`` in ``2^0 .. 2^5``);
* :class:`UnrollJam` — unroll-and-jam a loop by ``U`` in ``1 .. 32``.

:func:`compose` applies a kernel's :class:`TransformSpec` for one
concrete configuration, mirroring Orio's ``Composite`` transform.
"""

from repro.orio.transforms.base import Transform, find_loop, replace_loop, fresh_name
from repro.orio.transforms.tile import CacheTile, tile_nest
from repro.orio.transforms.unroll import UnrollJam, expand_unroll, expand_all_unrolls
from repro.orio.transforms.regtile import RegisterTile
from repro.orio.transforms.scalarrep import ScalarReplacement, replaceable_targets
from repro.orio.transforms.pipeline import compose, TransformPlan

__all__ = [
    "Transform",
    "find_loop",
    "replace_loop",
    "fresh_name",
    "CacheTile",
    "tile_nest",
    "UnrollJam",
    "expand_unroll",
    "expand_all_unrolls",
    "RegisterTile",
    "ScalarReplacement",
    "replaceable_targets",
    "compose",
    "TransformPlan",
]
