"""The analysis service: a long-lived daemon serving repro analyses.

Offline, every ``repro analyze`` pays process startup, a cold
series store, and a cold sweep cache.  The service keeps all of that
warm in one process: :class:`AnalysisService` owns the streams (by
content fingerprint), one shared :class:`~repro.engine.SweepEngine` on
the ``thread`` backend, and a :class:`~repro.engine.JobQueue` providing
admission control, per-request deadlines, and request coalescing.  The
HTTP daemon (:func:`serve`, CLI ``repro serve``) is a thin JSON
transport over that core; :class:`ServiceClient` (CLI ``repro
submit`` / ``status`` / ``fetch``) is its mirror image.

Served analyze responses are **bit-identical** to offline ``repro
analyze`` output: both sides render through
:func:`repro.reporting.render_analysis`.
"""

from repro.service.client import ServiceClient
from repro.service.daemon import AnalysisService, serve

__all__ = ["AnalysisService", "ServiceClient", "serve"]
