"""Say what moved between two artifact directories, as one markdown table.

    python3 scripts/golden_artifacts.py PARENT_CHECKOUT /tmp/a > /dev/null
    python3 scripts/golden_artifacts.py .               /tmp/b > /dev/null
    python3 scripts/compare_artifacts.py /tmp/a /tmp/b

Each artifact is "same" when its bytes are equal, "echo" when only the
configuration it echoes moved (a JSON sidecar's ``config``, a CSV's
``# config:`` line), and "data" otherwise.  The echo is compared apart from
the data, key by key (-key removed, +key added, ~key changed).  Artifacts
whose result and moves agree share one row of the table, which names them
all unless they are the same.
The data are compared per key of a sidecar's ``data`` and per column of a
CSV, both read with the artifacts' own conventions: null or an empty field
is NaN, "inf" is infinity.  For a key that moved the table gives

  - its shape, old -> new, when that changed;
  - else the count of entries that changed, the largest |delta| over
    entries finite on both sides, and the NaN moves (``+k NaN`` entries
    that became NaN, ``-k NaN`` entries that stopped being NaN), which on a
    band or a surface are identified-mask moves;
  - for a single value (a critical value, a violation count), old -> new;
    a value that is not numeric is shown old -> new when short, else as
    "changed".
"""

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

ECHO = "# config: "


def _cell(text: str):
    """A CSV field as a number (an empty field is NaN, as JSON's null), else as text."""
    try:
        return float(text) if text else None
    except ValueError:
        return text


def _read(path: Path) -> tuple:
    """(echoed config or None, data as a dict of key -> value) of one artifact."""
    text = path.read_text()
    if path.suffix == ".json":
        payload = json.loads(text)
        if isinstance(payload, dict) and "data" in payload:
            return payload.get("config"), {"artifact": payload.get("artifact"),
                                           **payload["data"]}
        return None, {"": payload}
    lines = text.splitlines()
    echo = None
    if lines and lines[0].startswith(ECHO):
        echo = json.loads(lines.pop(0)[len(ECHO):])
    rows = list(csv.reader(lines))
    header, body = (rows[0], rows[1:]) if rows else ([], [])
    data = {"header": header}
    for k, name in enumerate(header):
        data[name] = [_cell(row[k]) if k < len(row) else None for row in body]
    return echo, data


def _as_float(value):
    """A JSON value as a float array, or None when it is not numeric."""
    def leaf(v):
        if isinstance(v, list):
            return [leaf(x) for x in v]
        if v is None:
            return math.nan
        if isinstance(v, str) and v in ("inf", "-inf"):
            return float(v)
        if isinstance(v, (bool, int, float)):
            return float(v)
        raise ValueError
    try:
        return np.asarray(leaf(value), dtype=float)
    except ValueError:
        return None


def _key_move(key: str, old, new) -> str:
    a, b = _as_float(old), _as_float(new)
    if a is None or b is None or a.ndim == 0 or b.ndim == 0:
        text = f"{json.dumps(old)} -> {json.dumps(new)}"
        return f"{key}: {text if len(text) <= 80 else 'changed'}"
    if a.shape != b.shape:
        return f"{key}: shape {a.shape} -> {b.shape}"
    nan_a, nan_b = np.isnan(a), np.isnan(b)
    changed = ~((a == b) | (nan_a & nan_b))
    finite = np.isfinite(a) & np.isfinite(b)
    delta = float(np.max(np.abs(a - b)[finite], initial=0.0))
    parts = [f"{int(changed.sum())}/{a.size} changed", f"max |delta| {delta:.3g}"]
    parts += [f"{sign}{int(k)} NaN" for sign, k in
              (("+", (nan_b & ~nan_a).sum()), ("-", (nan_a & ~nan_b).sum())) if k]
    return f"{key}: {', '.join(parts)}"


def _dict_moves(old: dict, new: dict, keys_only: bool) -> list:
    moves = [f"-{k}" for k in old if k not in new] + [f"+{k}" for k in new if k not in old]
    for key in (k for k in old if k in new and old[k] != new[k]):
        moves.append(f"~{key}" if keys_only else _key_move(key, old[key], new[key]))
    return moves


def compare(old_dir: Path, new_dir: Path) -> list:
    """One (artifact, result, what moved) row per file in either directory."""
    rows = []
    for name in sorted({p.name for p in old_dir.iterdir()} | {p.name for p in new_dir.iterdir()}):
        old, new = old_dir / name, new_dir / name
        if not (old.exists() and new.exists()):
            rows.append((name, "only in " + ("old" if old.exists() else "new"), ""))
            continue
        if old.read_bytes() == new.read_bytes():
            rows.append((name, "same", ""))
            continue
        (echo_a, data_a), (echo_b, data_b) = _read(old), _read(new)
        data = _dict_moves(data_a, data_b, keys_only=False)
        echo = _dict_moves(echo_a or {}, echo_b or {}, keys_only=True)
        detail = "; ".join(data + (["echo " + " ".join(echo)] if echo else []))
        rows.append((name, "data" if data else "echo", detail))
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path, help="artifact directory before the change")
    parser.add_argument("new", type=Path, help="artifact directory after the change")
    args = parser.parse_args()
    rows = compare(args.old, args.new)
    groups = {}
    for name, *moves in rows:
        groups.setdefault(tuple(moves), []).append(name)
    print("| artifacts | result | what moved |")
    print("| --- | --- | --- |")
    for (result, detail), names in groups.items():
        listed = "" if result == "same" else ": " + ", ".join(names)
        cells = (f"{len(names)}{listed}", result, detail)
        print("| " + " | ".join(c.replace("|", "\\|") for c in cells) + " |")
    counts = {r: sum(row[1] == r for row in rows) for r in dict.fromkeys(row[1] for row in rows)}
    print("\n" + ", ".join(f"{k}: {v}" for k, v in counts.items()) + f" of {len(rows)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
