"""Static SVG rendering of power curves.

The renderer is a pure function of the CSV text produced by
experiments.power_curve_csv, so regenerating the figure from a written CSV
file reproduces it byte for byte.
"""

from __future__ import annotations

from .errors import ConfigError
from .experiments import POWER_HEADER

_WIDTH = 800.0
_HEIGHT = 600.0
_X0, _X1 = 70.0, 770.0
_Y0, _Y1 = 30.0, 540.0

_STYLES = {
    "alr": ("#000000", None),
    "hc": ("#d62728", "6 3"),
    "bj": ("#1f77b4", "6 3 2 3"),
}
_FALLBACK_STYLE = ("#2ca02c", "2 3")


def _parse_rows(csv_text: str) -> list[tuple[float, str, float]]:
    text = csv_text if isinstance(csv_text, str) else ""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines or lines[0] != POWER_HEADER:
        raise ConfigError(f"expected power-curve CSV with header {POWER_HEADER!r}")
    rows = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 8:
            raise ConfigError(f"malformed power-curve CSV row: {ln!r}")
        try:
            rows.append((float(parts[0]), parts[1], float(parts[2])))
        except ValueError:
            raise ConfigError(f"malformed power-curve CSV row: {ln!r}") from None
    if not rows:
        raise ConfigError("power-curve CSV has no data rows")
    return rows


def svg_from_power_csv(csv_text: str) -> str:
    """Render beta-vs-power polylines (one per statistic) as an SVG document."""
    rows = _parse_rows(csv_text)
    betas = sorted({b for b, _, _ in rows})
    kinds = list(dict.fromkeys(k for _, k, _ in rows))
    lo, hi = betas[0], betas[-1]
    span = hi - lo if hi > lo else 1.0

    def sx(beta: float) -> float:
        return _X0 + (beta - lo) / span * (_X1 - _X0)

    def sy(power: float) -> float:
        return _Y1 + power * (_Y0 - _Y1)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_WIDTH:.0f} {_HEIGHT:.0f}" '
        f'width="{_WIDTH:.0f}" height="{_HEIGHT:.0f}">',
        f'<rect x="0" y="0" width="{_WIDTH:.0f}" height="{_HEIGHT:.0f}" fill="#ffffff"/>',
    ]
    for k in range(6):
        y = sy(k / 5.0)
        out.append(
            f'<line x1="{_X0:.2f}" y1="{y:.2f}" x2="{_X1:.2f}" y2="{y:.2f}" '
            'stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_X0 - 8:.2f}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="14">{k / 5.0:.1f}</text>'
        )
    for b in betas:
        x = sx(b)
        out.append(
            f'<line x1="{x:.2f}" y1="{_Y1:.2f}" x2="{x:.2f}" y2="{_Y1 + 6:.2f}" '
            'stroke="#000000" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{x:.2f}" y="{_Y1 + 22:.2f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{b:.2f}</text>'
        )
    out.append(
        f'<rect x="{_X0:.2f}" y="{_Y0:.2f}" width="{_X1 - _X0:.2f}" '
        f'height="{_Y1 - _Y0:.2f}" fill="none" stroke="#000000" stroke-width="1"/>'
    )
    out.append(
        f'<text x="{(_X0 + _X1) / 2:.2f}" y="{_HEIGHT - 14:.2f}" text-anchor="middle" '
        'font-family="sans-serif" font-size="16">beta</text>'
    )
    out.append(
        f'<text x="20" y="{(_Y0 + _Y1) / 2:.2f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16" '
        f'transform="rotate(-90 20 {(_Y0 + _Y1) / 2:.2f})">power</text>'
    )
    for idx, kind in enumerate(kinds):
        color, dash = _STYLES.get(kind, _FALLBACK_STYLE)
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        pts = " ".join(
            f"{sx(b):.2f},{sy(p):.2f}" for b, k, p in rows if k == kind
        )
        out.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="2"{dash_attr}/>'
        )
        ly = _Y0 + 18 + 22 * idx
        out.append(
            f'<line x1="{_X1 - 130:.2f}" y1="{ly:.2f}" x2="{_X1 - 95:.2f}" y2="{ly:.2f}" '
            f'stroke="{color}" stroke-width="2"{dash_attr}/>'
        )
        out.append(
            f'<text x="{_X1 - 88:.2f}" y="{ly + 5:.2f}" font-family="sans-serif" '
            f'font-size="14">{kind.upper()}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"
