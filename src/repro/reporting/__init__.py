"""Plain-text reporting: aligned tables, ASCII charts, report text.

The benchmark harness regenerates every figure of the paper as printed
series; this package renders them readably in a terminal (no plotting
dependency is available offline).  :func:`render_analysis` is the one
renderer behind both ``repro analyze`` and the analysis service's fetch
responses — companion measures included — which is what keeps served
results bit-identical to offline output.
"""

from repro.reporting.analysis import render_analysis
from repro.reporting.ascii import scatter_chart
from repro.reporting.tables import format_float, render_table

__all__ = [
    "render_table",
    "format_float",
    "scatter_chart",
    "render_analysis",
]
