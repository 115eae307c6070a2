"""Columnar execution engine.

Executes (optimized) logical plans directly: each operator materializes a
:class:`repro.engine.chunk.Chunk` (a dict of cid -> value list).  Scans read
only the columns some ancestor operator reads, which together with the
optimizer's projection pruning gives the late-materialization behaviour the
paper attributes to columnar engines.
"""

from .chunk import Chunk  # noqa: F401
from .executor import Executor, QueryResult  # noqa: F401
