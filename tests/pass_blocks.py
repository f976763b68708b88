"""One (operation, basis) block of a branch pass, as tests read it.

Import as ``from pass_blocks import pass_block``; pytest puts this
directory on ``sys.path`` for the test modules beside it.  The pass finds a
block's rows with one ``searchsorted`` over its sorted rows; this helper
picks them with a ``table_id == t`` mask over the record read at each
row's cell.
"""
from sqkdsim.measurement import Basis


def pass_block(enum, op, basis) -> dict:
    """The columns of one (operation, basis) block of an enumerator's pass,
    in row order and keyed by name: the pass's own columns of its one
    attack at the block's rows, and the record's labels at their cells."""
    ops = enum.config.variant.operations
    t = ops.index(op) + (len(ops) if basis is Basis.HADAMARD else 0)
    found = enum._pass
    rows = found.cells.table_id[found.cell] == t
    assert rows.any()
    cell = found.cell[rows]
    return {**{name: getattr(found, name)[0, rows]
               for name in ("probability", "eve_probe", "leaked")},
            **{name: getattr(found.cells, name)[cell] for name in
               ("alice_pattern", "bob_pattern", "interpretation", "alice_bit", "bob_bit")}}
