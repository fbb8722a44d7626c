"""Ablation: two-dimensional walk lengths emerge from page-table structure.

DESIGN.md: the 24-access (4 KB) and 19-access (2 MB) walk counts are
walked over real radix tables, not hard-coded.  This bench walks both
page sizes on the raw walker.
"""

from repro.analysis.report import ExperimentTable
from repro.mem.address import PAGE_SHIFT_2M, PAGE_SHIFT_4K
from repro.mem.allocator import FrameAllocator
from repro.mem.pagetable import AddressSpace
from repro.mem.walker import TwoDimensionalWalker


def _build():
    space = AddressSpace(
        FrameAllocator(base=0x4000_0000), FrameAllocator(base=0x10_0000_0000)
    )
    space.map_io_page(0x3480_0000, PAGE_SHIFT_4K)
    space.map_io_page(0xBBE0_0000, PAGE_SHIFT_2M)
    return TwoDimensionalWalker(space)


def _walk_table(_scale=None):
    walker = _build()
    table = ExperimentTable(
        experiment_id="Ablation",
        title="Two-dimensional walk lengths by page size",
        columns=["mapping", "phases", "memory accesses"],
    )
    for label, giova in (("4 KB (ring page)", 0x3480_0000),
                         ("2 MB (data page)", 0xBBE0_0000)):
        walk = walker.walk(giova)
        table.add_row(label, len(walk.phases), walk.total_memory_accesses)
    table.add_note("Paper/Table II: 24 accesses for 4-level 4 KB walks.")
    return table


def test_ablation_walk_lengths(run_experiment):
    table = run_experiment(_walk_table)
    accesses = dict(zip(table.column("mapping"), table.column("memory accesses")))
    assert accesses["4 KB (ring page)"] == 24
    assert accesses["2 MB (data page)"] == 19
