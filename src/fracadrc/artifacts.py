"""Artifact file formats shared by every writer in the package.

CSV tables, all written by `write_rows`, are a header line and a line of
comma-joined text cells per row, a value as its double's round-trip repr;
JSON documents are indented with sorted keys and end in a newline.  Both are
deterministic, so a re-run with the same inputs rewrites the same bytes.
"""

from __future__ import annotations

import json

import numpy as np


# rows per block: a block holds every cell's text, so this bounds its memory
CSV_BLOCK_ROWS = 512


def write_rows(path, header, blocks) -> None:
    """Write the `header` names, then each block's rows of text cells, as
    CSV, with one join and one write call per block."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header))
        for rows in blocks:
            # the leading "" ends the line before; an empty block adds nothing
            fh.write("\n".join(["", *map(",".join, rows)]))
        fh.write("\n")


def write_csv(path, header, columns) -> None:
    """Write equal-length 1-D float columns under the names in `header`;
    raises ValueError, before opening the file, if the table is malformed."""
    columns = [np.asarray(c, dtype=float) for c in columns]
    if not columns or len(header) != len(columns):
        raise ValueError(f"CSV needs one name per column and at least one "
                         f"column, not {len(header)} names for "
                         f"{len(columns)} columns")
    for name, c in zip(header, columns):
        if c.ndim != 1:
            raise ValueError(f"column {name} is {c.ndim}-D, not 1-D")
        if c.size != columns[0].size:
            raise ValueError(f"column {name} has {c.size} rows, not the "
                             f"{columns[0].size} of column {header[0]}")
    write_rows(path, header,
               (zip(*[list(map(repr, c[i : i + CSV_BLOCK_ROWS].tolist()))
                      for c in columns])
                for i in range(0, columns[0].size, CSV_BLOCK_ROWS)))


def write_json(path, document) -> None:
    """Write `document` as indented JSON with sorted keys."""
    with open(path, "w") as fh:
        json.dump(document, fh, indent=2, sort_keys=True)
        fh.write("\n")
