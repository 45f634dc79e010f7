"""Pinned reference outputs for every benchmark cell.

``pins/<builder>.json`` maps each cell key (:attr:`cells.Cell.key`) to the
simulated outputs of that cell (:func:`cells.digest`): migration times,
downtimes, traffic by tag, per-VM elapsed times and aborts.  Floats are
rounded to 9 significant digits, the ``tests/golden`` convention, so the
comparison is exact without depending on sub-nano float noise.

Regenerate only after an intentional model change, and say so::

    python3 perfbench/pins.py            # every cell of every workload
    python3 perfbench/pins.py --check    # compare instead of writing
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
PIN_DIR = HERE / "pins"


def round9(node):
    """Round every float to 9 significant digits, recursively."""
    if isinstance(node, float):
        return float(f"{node:.9g}")
    if isinstance(node, dict):
        return {k: round9(v) for k, v in node.items()}
    if isinstance(node, (list, tuple)):
        return [round9(v) for v in node]
    return node


def load_pins() -> dict[str, dict]:
    """Every pinned cell, keyed by cell key."""
    pins: dict[str, dict] = {}
    for path in sorted(PIN_DIR.glob("*.json")):
        pins.update(json.loads(path.read_text()))
    return pins


def mismatch(pins: dict[str, dict], key: str, outputs: dict) -> str:
    """Empty when ``outputs`` match the pin for ``key``; else the reason."""
    expected = pins.get(key)
    if expected is None:
        return f"{key}: no pinned reference"
    actual = round9(outputs)
    if actual == expected:
        return ""
    fields = sorted(k for k in expected.keys() | actual.keys()
                    if expected.get(k) != actual.get(k))
    return f"{key}: {', '.join(fields)} differ from the pinned reference"


def main(argv: list[str] | None = None) -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    sys.path.insert(0, str(HERE))
    from cells import WORKLOADS, all_cells, digest, run_cell

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare against the committed pins")
    args = parser.parse_args(argv)

    cells = {cell.key: cell for workload in WORKLOADS
             for cell in all_cells(workload)}
    pins = load_pins()
    by_builder: dict[str, dict] = {}
    failures = 0
    for key, cell in cells.items():
        outputs = digest(run_cell(cell))
        if args.check:
            reason = mismatch(pins, key, outputs)
            if reason:
                failures += 1
                print(reason, file=sys.stderr)
        by_builder.setdefault(cell.builder, {})[key] = round9(outputs)
    if args.check:
        print(f"{len(cells) - failures}/{len(cells)} cells match")
        return 1 if failures else 0
    PIN_DIR.mkdir(exist_ok=True)
    for builder, table in sorted(by_builder.items()):
        path = PIN_DIR / f"{builder}.json"
        path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(table)} cells to {path.relative_to(HERE.parent)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
