"""Compact output references and the tolerance check against them.

A table (CSV file or in-memory trajectory) is reduced per column to its row
count, largest magnitude, values at SAMPLES evenly spaced rows and sums over
SAMPLES contiguous blocks; a column of at most 2*SAMPLES rows keeps every
value.  Two tables match when every stored value agrees within TOL times
the reference column's largest magnitude, and every block sum within that
times the block's row count, so a change confined to rows between the
samples still shows in its block sum.  Text columns must be equal.

Run this file to regenerate the committed references at the default seed
from the current program:

    python3 perfbench/reference.py
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import shutil
from pathlib import Path

if __name__ == "__main__":
    # the benchmark pins BLAS threads before numpy is imported; do the same
    # so that the references match its runs bit for bit
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import numpy as np  # noqa: E402

TOL = 1e-12
SAMPLES = 16
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def fingerprint(columns: dict) -> dict:
    """Fingerprint of named columns (sequences of floats or of strings)."""
    out = {}
    for name, values in columns.items():
        if len(values) and isinstance(values[0], str):
            out[name] = {"text": list(values)}
            continue
        col = np.asarray(values, dtype=float)
        n = int(col.size)
        present = np.abs(col[~np.isnan(col)])
        entry = {"n": n,
                 "max_abs": float(present.max()) if present.size else 0.0}
        if n <= 2 * SAMPLES:
            entry["values"] = col.tolist()
        else:
            rows = np.linspace(0, n - 1, SAMPLES).round().astype(int)
            entry["samples"] = col[rows].tolist()
            entry["block_sums"] = [float(b.sum())
                                   for b in np.array_split(col, SAMPLES)]
        out[name] = entry
    return out


def _close(a: float, b: float, tol: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= tol


def matches(ref: dict, new: dict) -> bool:
    """True when fingerprint `new` agrees with `ref` within TOL."""
    if ref.keys() != new.keys():
        return False
    for name, r in ref.items():
        c = new[name]
        if "text" in r or "text" in c:
            if r != c:
                return False
            continue
        if r["n"] != c["n"] or r.keys() != c.keys():
            return False
        tol = TOL * r["max_abs"]
        if not _close(r["max_abs"], c["max_abs"], tol):
            return False
        for key in ("values", "samples"):
            if key in r and not all(_close(a, b, tol)
                                    for a, b in zip(r[key], c[key])):
                return False
        if "block_sums" in r:
            block = math.ceil(r["n"] / SAMPLES)
            if not all(_close(a, b, tol * block)
                       for a, b in zip(r["block_sums"], c["block_sums"])):
                return False
    return True


def trajectory_columns(traj) -> dict:
    from fracadrc.control import TRAJECTORY_COLUMNS
    return {name: getattr(traj, name) for name in TRAJECTORY_COLUMNS}


def csv_columns(path: Path) -> dict:
    """Columns of a CSV file; a column is numeric when every cell parses as
    a float (an empty cell reads as NaN)."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    columns = {}
    for i, name in enumerate(header):
        cells = [row[i] for row in body]
        try:
            columns[name] = [float(c) if c else math.nan for c in cells]
        except ValueError:
            columns[name] = cells
    return columns


def file_record(path: Path) -> dict:
    """sha256 plus what the value comparison needs for one artifact."""
    data = path.read_bytes()
    record = {"sha256": hashlib.sha256(data).hexdigest()}
    if path.suffix == ".csv":
        record["fingerprint"] = fingerprint(csv_columns(path))
    elif path.name == "stability_report.json":
        report = json.loads(data)
        record["verdict"] = {"stable": report["stable"],
                             "degree": report["degree"]}
    else:
        record["json"] = json.loads(data)
    return record


def compare_file(ref: dict, path: Path) -> str:
    """'same' (identical bytes), 'values' (bytes differ, values match) or
    'failed'."""
    data = path.read_bytes()
    if hashlib.sha256(data).hexdigest() == ref["sha256"]:
        return "same"
    try:
        new = file_record(path)
    except (ValueError, KeyError, IndexError, OSError):
        return "failed"
    if "fingerprint" in ref:
        ok = matches(ref["fingerprint"], new.get("fingerprint", {}))
    elif "verdict" in ref:
        ok = ref["verdict"] == new.get("verdict")
    else:
        ok = ref["json"] == new.get("json")
    return "values" if ok else "failed"


def load(name: str) -> dict:
    with open(REFERENCE_DIR / name) as fh:
        return json.load(fh)


def main() -> int:
    import run
    run.import_program()
    import workloads

    REFERENCE_DIR.mkdir(exist_ok=True)
    workdir = Path(run.WORK_ROOT) / "reference"
    for name in workloads.WORKLOADS:
        workload = workloads.make(name, workloads.DEFAULT_SEED, workdir)
        data = workload.make_reference()
        with open(REFERENCE_DIR / workload.reference_name, "w") as fh:
            json.dump(data, fh, sort_keys=True, separators=(",", ":"))
            fh.write("\n")
        print(f"wrote {REFERENCE_DIR / workload.reference_name}")
    shutil.rmtree(run.WORK_ROOT)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
