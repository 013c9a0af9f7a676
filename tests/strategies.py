"""Hypothesis strategies for property-based tests."""

from __future__ import annotations

from hypothesis import strategies as st

from repro.linkstream import LinkStream

#: The timestamp step of ``link_streams(float_time=True)``.
FLOAT_TIME_STEP = 0.1


@st.composite
def link_streams(
    draw,
    *,
    min_nodes: int = 2,
    max_nodes: int = 6,
    min_events: int = 1,
    max_events: int = 14,
    max_time: int = 20,
    directed: bool | None = None,
    float_time: bool = False,
) -> LinkStream:
    """Random small link streams (no self-loops).

    Timestamps are integers in ``[0, max_time]``; with ``float_time``
    they are those integers times :data:`FLOAT_TIME_STEP` instead — a
    non-dyadic step, so timestamps and their differences are inexact
    floats (``3 * 0.1 != 0.3``) — with ties as often as integer draws.
    """
    n = draw(st.integers(min_nodes, max_nodes))
    m = draw(st.integers(min_events, max_events))
    events = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1),
                st.integers(0, n - 1),
                st.integers(0, max_time),
            ).filter(lambda e: e[0] != e[1]),
            min_size=m,
            max_size=m,
        )
    )
    if directed is None:
        directed = draw(st.booleans())
    u, v, t = zip(*events)
    if float_time:
        t = [k * FLOAT_TIME_STEP for k in t]
    return LinkStream(u, v, t, directed=directed, num_nodes=n)


@st.composite
def occupancy_samples(draw, *, max_atoms: int = 30):
    """Weighted atom sets on (0, 1] for distribution-statistics tests."""
    atoms = draw(
        st.lists(
            st.fractions(min_value=0, max_value=1).filter(lambda f: f > 0),
            min_size=1,
            max_size=max_atoms,
        )
    )
    weights = draw(
        st.lists(
            st.integers(1, 50),
            min_size=len(atoms),
            max_size=len(atoms),
        )
    )
    return [float(a) for a in atoms], weights
