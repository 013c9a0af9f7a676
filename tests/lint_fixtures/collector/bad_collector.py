"""Fixture: a collector that spliced scans cannot reassemble."""


class LonelyCollector:
    def __init__(self) -> None:
        self.values: list = []

    def record(self, trip) -> None:
        self.values.append(trip)


class BatchOnlyCollector:
    """Batched feed without merge/empty — just as unmergeable."""

    def __init__(self) -> None:
        self.count = 0

    def record_batch(self, sources, dep, targets, arrivals, hops, durations) -> None:
        self.count += targets.size
