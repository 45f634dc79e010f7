"""Golden regression: the figure reproductions must not drift.

The fixtures were generated on the pre-fault-injection engines; the
fault-injection refactor (timeouts, retries, abort plumbing) must be
behavior-neutral for fault-free runs, and any future engine change that
shifts the paper numbers must be an explicit decision (regenerate with
``PYTHONPATH=src python -m tests.golden.generate`` and commit the diff).
"""

import json

import pytest

from repro.simkernel import default_kernel
from tests.golden.generate import (
    FIXTURES,
    GOLDENS,
    canonical_json,
    strip_kernel_introspection,
)


@pytest.mark.parametrize("figure", sorted(GOLDENS))
def test_figure_matches_golden(figure):
    path = FIXTURES / f"{figure}.json"
    assert path.exists(), (
        f"missing fixture {path}; generate with "
        "'PYTHONPATH=src python -m tests.golden.generate'"
    )
    expected = path.read_text()
    actual = canonical_json(GOLDENS[figure]())
    if figure == "fig2_series" and default_kernel() != "fast":
        # The fixture pins the fast kernel's scheduler gauges; any other
        # kernel must match every simulation-time signal, byte for byte.
        expected = canonical_json(strip_kernel_introspection(
            json.loads(expected)))
        actual = canonical_json(strip_kernel_introspection(
            json.loads(actual)))
    assert actual == expected, (
        f"{figure} output drifted from the committed golden fixture. "
        "If the change is intentional, regenerate with "
        "'PYTHONPATH=src python -m tests.golden.generate' and commit."
    )
