"""Plots of the per-generation traces a selection run wrote to disk, as SVG from the standard library."""

from __future__ import annotations

from pathlib import Path
from xml.sax.saxutils import escape

WIDTH, HEIGHT, PAD = 480, 160, 40  # one panel's plot area and the margin around it, in SVG user units
PANELS = (  # per panel: its title, (column, colour) per polyline, and a fixed y range or None for the data's own
    ("fitness: best (blue), mean (green)", (("best_fitness", "#1f77b4"), ("mean_fitness", "#2ca02c")), None),
    ("p_inter: inter-cluster mutation probability", (("p_inter", "#ff7f0e"),), (0.0, 1.0)),
)


class PlottingError(RuntimeError):
    """No trace file under the run's select/ directory, or a trace file without a row or with a ragged one."""


def read_trace(path: Path | str) -> dict[str, list[float]]:
    """Parse a tab-separated trace file into one list per column."""
    path = Path(path)
    lines = [line for line in path.read_text(encoding="utf-8").splitlines() if line]
    if len(lines) < 2:
        raise PlottingError(f"{path}: trace holds no row")
    header = lines[0].split("\t")
    columns: dict[str, list[float]] = {name: [] for name in header}
    for line in lines[1:]:
        values = line.split("\t")
        if len(values) != len(header):
            raise PlottingError(f"{path}: ragged trace row")
        for name, token in zip(header, values):
            columns[name].append(float(token))
    return columns


def _scaled(values: list[float], lo: float, hi: float, start: float, length: float) -> list[float]:
    """Each value's place on an axis that runs from `start` at `lo` to `start + length` at `hi`."""
    span = (hi - lo) or 1.0  # a flat range, or a single generation, sits at `start`
    return [start + length * (value - lo) / span for value in values]


def trace_svg(columns: dict[str, list[float]], title: str) -> str:
    """Two stacked panels over the generations; coordinates at two decimals, so the text depends only on the trace."""
    generations = columns["generation"]
    xs = _scaled(generations, generations[0], generations[-1], PAD, WIDTH)
    heading = f"{escape(title)}, generations {generations[0]:g} to {generations[-1]:g}"
    parts = [f'<text x="{PAD}" y="{PAD // 2}">{heading}</text>']
    for index, (name, series, fixed) in enumerate(PANELS):
        top = PAD + index * (HEIGHT + PAD)
        lo, hi = fixed or (min(min(columns[c]) for c, _ in series), max(max(columns[c]) for c, _ in series))
        parts.append(f'<rect x="{PAD}" y="{top}" width="{WIDTH}" height="{HEIGHT}" fill="none" stroke="#999999"/>')
        parts.append(f'<text x="{PAD}" y="{top - 6}">{name}, y from {lo:.4f} to {hi:.4f}</text>')
        for column, colour in series:
            ys = _scaled(columns[column], lo, hi, top + HEIGHT, -HEIGHT)
            points = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs, ys))
            parts.append(f'<polyline points="{points}" fill="none" stroke="{colour}"/>')
    size = f'width="{WIDTH + 2 * PAD}" height="{2 * HEIGHT + 3 * PAD}" font-size="12"'
    return f'<svg xmlns="http://www.w3.org/2000/svg" {size}>\n' + "\n".join(parts) + "\n</svg>\n"


def render_plots(output_dir: Path | str) -> list[Path]:
    """One `plots/trace_k{k}.svg` per `select/trace_k{k}.tsv`: fitness above, p_inter on [0, 1] below."""
    root = Path(output_dir)
    traces = sorted((root / "select").glob("trace_k*.tsv"))
    if not traces:
        raise PlottingError(f"no trace files under {root / 'select'}")
    plots_dir = root / "plots"
    plots_dir.mkdir(parents=True, exist_ok=True)
    written = [plots_dir / trace_path.with_suffix(".svg").name for trace_path in traces]
    for trace_path, path in zip(traces, written):
        title = f"pool size {trace_path.stem.removeprefix('trace_k')}"
        path.write_text(trace_svg(read_trace(trace_path), title), encoding="utf-8")
    return written
