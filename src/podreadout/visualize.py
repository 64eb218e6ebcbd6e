"""Stream functions, grid CSV export, and self-contained SVG heatmaps.

CSV grids are written ny rows by nx columns at 17 significant digits, the
same layout the CSV ingestion path reads, so every exported panel can be
loaded back bit for bit.  The SVG renderer is decoration: a plain rect
heatmap with a diverging palette, no external tooling involved.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import FieldError
from .flow import Field2D
from .io_util import atomic_write_text
from .pipeline import COMPONENTS, fmt

METHOD_LABELS = {"FSR": "FSR (idealized)"}  # every other method is labelled by its name


def stream_function(u_x: Field2D) -> Field2D:
    """Cumulative trapezoidal integral of u_x in y, zero on the bottom row."""
    u = u_x.grid()
    dy = 1.0 / (u_x.ny - 1)
    psi = np.zeros_like(u)
    np.cumsum(0.5 * dy * (u[:-1, :] + u[1:, :]), axis=0, out=psi[1:, :])
    return Field2D.from_grid(psi)


def write_grid_csv(field: Field2D, path) -> None:
    rows = [",".join(map(fmt, row)) for row in field.grid().tolist()]
    atomic_write_text(path, "\n".join(rows) + "\n")


# blue to white for t < 0, then white to red: entry k + 256 * (t >= 0)
_PALETTE = np.array([f"#{k:02x}{k:02x}ff" for k in range(256)]
                    + [f"#ff{k:02x}{k:02x}" for k in range(256)])


def _diverging_colors(t: np.ndarray) -> np.ndarray:
    """Map t, clipped to [-1, 1], to blue-white-red hex colors elementwise.

    The channel that fades is int(255 * (1 + t)) below zero and
    int(255 * (1 - t)) from zero up (-0.0 included), white at t = 0.
    """
    t = np.fmax(np.fmin(t, 1.0), -1.0)  # like max(-1, min(1, t)): NaN goes to 1
    warm = t >= 0
    fade = np.where(warm, 1.0 - t, 1.0 + t)
    return _PALETTE[(255 * fade).astype(np.intp) + 256 * warm]


def svg_heatmap(field: Field2D, path, title: str = "") -> None:
    """Minimal vector-graphic heatmap; y increases upward like the domain."""
    g = field.grid()
    scale = float(np.abs(g).max()) or 1.0
    cell = 8
    width, height = field.nx * cell, field.ny * cell
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height + 20}" viewBox="0 0 {width} {height + 20}">',
        f'<text x="4" y="14" font-family="monospace" font-size="12">{title}</text>',
    ]
    for j, row in enumerate(_diverging_colors(g / scale).tolist()):
        y = 20 + (field.ny - 1 - j) * cell
        parts.extend(
            f'<rect x="{i * cell}" y="{y}" width="{cell}" height="{cell}" fill="{color}"/>'
            for i, color in enumerate(row)
        )
    parts.append("</svg>")
    atomic_write_text(path, "\n".join(parts) + "\n")


def emit_visual_comparison(cfg, reports, targets):
    """Export u_x, u_y and psi panels for each method plus the truth.

    reports maps method name to {"ux": ReadoutReport, "uy": ReadoutReport}
    at one shared shot budget; targets maps "ux" and "uy" to the
    readout.Target they read, whose x is the truth panel.  Writes under
    cfg.out_dir/visual and returns the list of written file paths.
    """
    out_dir = os.path.join(cfg.out_dir, "visual")
    os.makedirs(out_dir, exist_ok=True)
    panels = {"truth": {c: targets[c].x for c in COMPONENTS}}
    for method, comp_reports in reports.items():
        if set(comp_reports) != set(COMPONENTS):
            raise FieldError(f"method {method} must report both components")
        panels[method] = {c: comp_reports[c].reconstruction for c in COMPONENTS}

    written = []
    for name, comps in panels.items():
        fields = {
            c: Field2D(nx=cfg.nx, ny=cfg.ny, values=np.asarray(v))
            for c, v in comps.items()
        }
        fields["psi"] = stream_function(fields["ux"])
        label = METHOD_LABELS.get(name, name)
        for c, f in fields.items():
            csv_path = os.path.join(out_dir, f"{name}_{c}.csv")
            write_grid_csv(f, csv_path)
            svg_path = os.path.join(out_dir, f"{name}_{c}.svg")
            svg_heatmap(f, svg_path, title=f"{label} {c}")
            written.extend([csv_path, svg_path])
    return written

