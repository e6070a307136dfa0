#!/usr/bin/env python3
"""Strict-JSON check of exported artifacts by an independent parser.

Usage: python3 tools/check_json.py FILE...

Each FILE must load with Python's json module, which rejects what the
JSON grammar rejects (raw control characters in strings, NaN, trailing
commas, ...). Files ending in .jsonl must hold one JSON value on every
non-empty line. Exits 1 and names the first offending file and line.
"""

import json
import sys


def check(path):
    with open(path, encoding="utf-8") as f:
        if not path.endswith(".jsonl"):
            json.load(f, parse_constant=reject)
            return 1
        lines = 0
        for number, line in enumerate(f, 1):
            if not line.strip():
                continue
            try:
                json.loads(line, parse_constant=reject)
            except ValueError as e:
                raise ValueError(f"line {number}: {e}") from None
            lines += 1
        return lines


def reject(name):
    raise ValueError(f"non-standard constant {name}")


def main(paths):
    if not paths:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    for path in paths:
        try:
            values = check(path)
        except (OSError, ValueError) as e:
            print(f"error: {path}: {e}", file=sys.stderr)
            return 1
        print(f"{path}: strict JSON ({values} value(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
