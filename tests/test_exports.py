"""The package's export list: every name in `siexp.__all__` must exist, so
that `from siexp import *` cannot fail on a half-removed export."""
import siexp


def test_every_export_resolves():
    missing = [name for name in siexp.__all__ if not hasattr(siexp, name)]
    assert missing == []


def test_exports_are_sorted_without_duplicates():
    assert siexp.__all__ == sorted(set(siexp.__all__))

