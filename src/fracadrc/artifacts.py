"""Artifact file formats shared by every writer in the package.

CSV tables, all written by `write_rows`, are a header line and a line of
comma-joined text cells per row, a value as its double's round-trip repr;
JSON documents are indented with sorted keys and end in a newline.  Both are
deterministic, so a re-run with the same inputs rewrites the same bytes.
"""

from __future__ import annotations

import json

import numpy as np


# rows converted to Python floats at a time: bounds the extra memory of a
# long trajectory while keeping a 1 s run at 8 kHz in one block
CSV_BLOCK_ROWS = 8192


def write_rows(path, header, rows) -> None:
    """Write the `header` names, then each row of text cells, as CSV."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(row) + "\n" for row in rows)


def write_csv(path, header, columns) -> None:
    """Write equal-length float columns under the names in `header`."""
    columns = [np.asarray(c, dtype=float) for c in columns]
    blocks = (zip(*(c[i : i + CSV_BLOCK_ROWS].tolist() for c in columns))
              for i in range(0, columns[0].size, CSV_BLOCK_ROWS))
    write_rows(path, header,
               (map(repr, row) for rows in blocks for row in rows))


def write_json(path, document) -> None:
    """Write `document` as indented JSON with sorted keys."""
    with open(path, "w") as fh:
        json.dump(document, fh, indent=2, sort_keys=True)
        fh.write("\n")
