"""File formats: fixed-point reports (JSON), iteration trajectories and
learning curves (comma-separated tables with a metadata comment block).

Tables carry their provenance in leading "# key = value" comment lines and
are re-parseable by this module.  Solver, GAMP and rBP runs all return a
`RunRecord` whose trajectory is a list of `OrderParameters` with one
residual per entry; one row builder writes any of them in the layout of
`KeyedBlocks.blocks()` / `flat()` (per key q, V, m, theta, then v), so the
tables can be joined on the iteration index.
"""

from __future__ import annotations

import json
from dataclasses import fields
from pathlib import Path
from typing import Optional

import numpy as np

from .model import Dimensions, OrderParameters, RunRecord


# ----------------------------------------------------------------------
# Matrices inside JSON documents: row-major data with explicit shape.
# ----------------------------------------------------------------------

def _encode_array(a: np.ndarray) -> dict:
    a = np.asarray(a)
    return {"shape": list(a.shape), "data": a.reshape(-1).tolist()}


def _encode_blocks(state) -> dict:
    """Every field of an overlap or conjugate state, in declaration order;
    keyed fields map "ell,k" to a matrix."""
    out = {}
    for f in fields(state):
        val = getattr(state, f.name)
        out[f.name] = ({f"{k[0]},{k[1]}": _encode_array(a) for k, a in val.items()}
                       if isinstance(val, dict) else _encode_array(val))
    return out


def report_to_dict(report) -> dict:
    return {
        "converged": bool(report.converged),
        "iterations": int(report.iterations),
        "residual_history": [float(x) for x in report.residual_history],
        "rejected_steps": int(report.rejected_steps),
        "free_entropy": float(report.free_entropy),
        "free_entropy_stderr": float(report.free_entropy_stderr),
        "test_error": float(report.test_error),
        "test_error_stderr": float(report.test_error_stderr),
        "train_loss": float(report.train_loss),
        "train_loss_stderr": float(report.train_loss_stderr),
        "params": _encode_blocks(report.params),
        "conj": _encode_blocks(report.conj),
    }


def save_report(report, path) -> None:
    Path(path).write_text(json.dumps(report_to_dict(report)))


# ----------------------------------------------------------------------
# Tables.
# ----------------------------------------------------------------------

def write_table(path, header: list[str], rows: list[list], metadata: Optional[dict] = None) -> None:
    lines = []
    for key, val in (metadata or {}).items():
        lines.append(f"# {key} = {val}")
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_format_cell(x) for x in row))
    Path(path).write_text("\n".join(lines) + "\n")


def _format_cell(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def read_table(path) -> tuple[dict, list[str], list[list[str]]]:
    """Parse a table written by write_table: (metadata, header, string rows)."""
    metadata: dict = {}
    header: list[str] = []
    rows: list[list[str]] = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body:
                key, val = body.split("=", 1)
                metadata[key.strip()] = val.strip()
            continue
        cells = line.split(",")
        if not header:
            header = cells
        else:
            rows.append(cells)
    return metadata, header, rows


def trajectory_header(dims: Dimensions) -> list[str]:
    """The columns of `trajectory_rows`: the iteration, every entry of
    `OrderParameters.blocks()` named by its block and index (q_0_1_00,
    m_0_1_0, v_00, ...), then the residual."""
    cols = [f"{name}_{''.join(map(str, idx))}"
            for name, a in OrderParameters.zeros(dims).blocks().items()
            for idx in np.ndindex(a.shape)]
    return ["iteration"] + cols + ["residual"]


def trajectory_rows(record: RunRecord) -> list[list]:
    """One row per recorded iteration of a run, counting from 1: the
    iterate's `flat()` entries and the iteration's residual."""
    pairs = zip(record.trajectory, record.residual_history, strict=True)
    return [[t] + stats.flat().tolist() + [residual]
            for t, (stats, residual) in enumerate(pairs, 1)]


CURVE_HEADER = [
    "model", "alpha", "lam", "seed", "eg", "eg_stderr", "et",
    "grad_norm", "iterations", "converged",
]


def curve_row(
    model: str, alpha: float, lam: float, seed, eg: float, eg_stderr: float,
    et: float, grad_norm: float, iterations: int, converged: bool,
) -> list:
    return [model, alpha, lam, seed, eg, eg_stderr, et, grad_norm, iterations, converged]
