"""Fixture: an inline suppression silencing a real finding."""


class QuietProbe:  # repro: ignore[collector-contract] -- demo: not a scan collector
    def record(self, trip) -> None:
        return None
