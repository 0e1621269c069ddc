"""Self-contained HTML (and JSON) rendering of PDES overhead attribution.

:func:`write_report` takes the attribution document produced by
:meth:`repro.pdes.flight.FlightLog.attribution` and writes

* a machine-readable JSON document (``schema`` versioned), and
* a single-file HTML report with **no external assets** (inline CSS,
  inline SVG, same discipline as :mod:`repro.trace.profile_report`):
  per-worker and driver wall-clock tilings as stacked share bars, the
  measured serial-equivalent fraction, ring telemetry (always-on
  :class:`~repro.pdes.rings.RingStats` counters plus the per-round
  series) and the run's window-protocol facts.

:func:`validate` is the schema check the CI ``pdes-observability`` job
and the test suite share: it asserts the document shape, that every
process's phase buckets tile at least :data:`MIN_COVERAGE` of its
measured wall-clock span, and that the serial-equivalent fraction lies
in ``[0, workers]`` (summed compute over wall: above 1 when workers
compute in parallel, which is how partitioning beats a serial run).
"""

from __future__ import annotations

import html
import json
from typing import Dict, List

#: JSON document schema version.
SCHEMA = 1

#: Minimum fraction of a process's wall-clock span its phase buckets
#: must explain for the document to validate (the remainder is loop
#: bookkeeping between clock reads).
MIN_COVERAGE = 0.95

#: Worker phase buckets, window-loop order (mirrors
#: :data:`repro.pdes.flight.WORKER_PHASES`; duplicated here so the
#: report layer does not import the engine).
WORKER_BUCKETS = (
    "import-drain",
    "compute",
    "export-serialize",
    "ring-push",
    "peer-signal",
    "barrier-wait",
    "horizon",
)

#: Driver phase buckets (mirrors :data:`repro.pdes.flight.DRIVER_PHASES`).
DRIVER_BUCKETS = ("start", "fan-in")

#: What each bucket measures: one cause per bucket (legend tooltips and
#: the legend table).
BUCKET_MEANING = {
    "import-drain": "fetch the peers' batches (ring pop + decode) and inject",
    "compute": "the serial kernel pumping this window's events",
    "export-serialize": "group exports per destination and encode them",
    "ring-push": "copy encoded batches into the peer rings",
    "peer-signal": "store the round header, write one frame per peer",
    "barrier-wait": "blocked until every peer's frame has arrived",
    "horizon": "read all round headers and apply the window rule",
    "start": "release the workers after the start-up handshake",
    "fan-in": "wait for the workers' results (the whole run)",
}

#: Phase colors (colorblind-safe-ish categorical palette; ``compute``
#: shares the profile report's compute blue on purpose).
_COLORS = {
    "compute": "#4477aa",
    "export-serialize": "#66ccee",
    "ring-push": "#aa3377",
    "peer-signal": "#ee6677",
    "barrier-wait": "#dddddd",
    "import-drain": "#ff9955",
    "horizon": "#228833",
    "start": "#ee6677",
    "fan-in": "#ccbb44",
    "other": "#f7f7f7",
}

_CSS = """
body { font-family: -apple-system, 'Segoe UI', Helvetica, Arial, sans-serif;
       margin: 24px auto; max-width: 1100px; color: #1c1c1c; }
h1 { font-size: 1.5em; } h2 { font-size: 1.2em; margin-top: 1.6em; }
h3 { font-size: 1.0em; margin-bottom: 0.3em; }
table { border-collapse: collapse; margin: 8px 0 16px; font-size: 0.85em; }
th, td { border: 1px solid #ccc; padding: 3px 8px; text-align: right; }
th { background: #f2f2f2; } td.l, th.l { text-align: left; }
.bar { display: flex; height: 16px; width: 100%; max-width: 720px;
       border: 1px solid #aaa; margin: 2px 0; }
.bar div { height: 100%; }
.strip { display: flex; align-items: center; margin: 1px 0; }
.strip .lbl { width: 86px; font-size: 0.75em; color: #555; }
.legend { font-size: 0.8em; margin: 6px 0; }
.legend span { display: inline-block; margin-right: 12px; }
.legend i { display: inline-block; width: 10px; height: 10px;
            margin-right: 4px; border: 1px solid #888; }
.big { font-size: 1.3em; font-weight: 600; }
.note { color: #666; font-size: 0.8em; }
"""


class AttributionError(ValueError):
    """The attribution document failed schema validation."""


def validate(doc: dict) -> None:
    """Assert ``doc`` is a well-formed attribution document.

    Raises :class:`AttributionError` naming the first violation; used
    by the tests and the CI ``pdes-observability`` validation step.
    """
    if doc.get("schema") != SCHEMA:
        raise AttributionError(f"schema {doc.get('schema')!r} != {SCHEMA}")
    if doc.get("kind") != "pdes-attribution":
        raise AttributionError(f"kind {doc.get('kind')!r}")
    drv = doc.get("driver") or {}
    for key in ("span_s", "wall_s", "coverage", "buckets"):
        if key not in drv:
            raise AttributionError(f"driver missing {key!r}")
    if set(drv["buckets"]) != set(DRIVER_BUCKETS):
        raise AttributionError(
            f"driver buckets {sorted(drv['buckets'])} != "
            f"{sorted(DRIVER_BUCKETS)}"
        )
    if not drv["coverage"] >= MIN_COVERAGE:
        raise AttributionError(
            f"driver buckets tile only {drv['coverage']:.1%} of the span "
            f"(need >= {MIN_COVERAGE:.0%})"
        )
    workers = doc.get("workers")
    if not workers:
        raise AttributionError("no worker tilings")
    for w in workers:
        label = f"worker {w.get('part')}"
        if set(w.get("buckets", ())) != set(WORKER_BUCKETS):
            raise AttributionError(
                f"{label} buckets {sorted(w.get('buckets', ()))} != "
                f"{sorted(WORKER_BUCKETS)}"
            )
        if not w["coverage"] >= MIN_COVERAGE:
            raise AttributionError(
                f"{label} buckets tile only {w['coverage']:.1%} of the "
                f"span (need >= {MIN_COVERAGE:.0%})"
            )
        for value in w["buckets"].values():
            if value < 0:
                raise AttributionError(f"{label} has a negative bucket")
    frac = (doc.get("serial_equivalent") or {}).get("fraction")
    if frac is None or not 0.0 <= frac <= len(workers) + 1e-9:
        raise AttributionError(f"serial-equivalent fraction {frac!r}")
    if not isinstance(doc.get("rounds"), list):
        raise AttributionError("missing per-round ring telemetry series")


# -- HTML ---------------------------------------------------------------------
def _fmt_ms(seconds: float) -> str:
    return f"{seconds * 1e3:.2f}"


def _legend(keys) -> str:
    parts = [
        f'<span title="{html.escape(BUCKET_MEANING.get(k, "unattributed"))}">'
        f'<i style="background:{_COLORS.get(k, "#888")}"></i>'
        f"{html.escape(k)}</span>"
        for k in keys
    ]
    rows = "".join(
        f"<tr><td class='l'>{html.escape(k)}</td>"
        f"<td class='l'>{html.escape(BUCKET_MEANING[k])}</td></tr>"
        for k in keys
        if k in BUCKET_MEANING
    )
    return (
        f'<div class="legend">{"".join(parts)}</div>'
        f"<table><tr><th class='l'>bucket</th><th class='l'>measures</th>"
        f"</tr>{rows}</table>"
    )


def _share_bar(parts: Dict[str, float], total: float, title: str = "") -> str:
    if total <= 0:
        return '<div class="bar"></div>'
    cells = []
    for name, value in parts.items():
        if value <= 0:
            continue
        pct = 100.0 * value / total
        if pct < 0.05:
            continue
        tip = f"{html.escape(name)}: {_fmt_ms(value)}ms ({pct:.1f}%)"
        cells.append(
            f'<div style="width:{pct:.2f}%;'
            f'background:{_COLORS.get(name, "#888")}" title="{tip}"></div>'
        )
    return f'<div class="bar" title="{html.escape(title)}">{"".join(cells)}</div>'


def _tiling_strip(label: str, tile: dict, buckets) -> str:
    parts = {b: tile["buckets"].get(b, 0.0) for b in buckets}
    explained = sum(parts.values())
    span = tile["span_s"]
    if span > explained:
        parts["other"] = span - explained
    bar = _share_bar(parts, span, title=label)
    return (
        f'<div class="strip"><span class="lbl">{html.escape(label)}</span>'
        f"{bar}</div>"
    )


def _bucket_table(doc: dict) -> str:
    head = (
        "<tr><th class='l'>process</th><th>span (ms)</th>"
        + "".join(f"<th>{html.escape(b)}</th>" for b in WORKER_BUCKETS)
        + "<th>coverage</th></tr>"
    )
    rows = []
    for w in doc["workers"]:
        cells = "".join(
            f"<td>{_fmt_ms(w['buckets'][b])}</td>" for b in WORKER_BUCKETS
        )
        rows.append(
            f"<tr><td class='l'>worker {w['part']}</td>"
            f"<td>{_fmt_ms(w['span_s'])}</td>{cells}"
            f"<td>{w['coverage'] * 100:.1f}%</td></tr>"
        )
    return f"<table>{head}{''.join(rows)}</table>"


def _driver_table(doc: dict) -> str:
    drv = doc["driver"]
    head = (
        "<tr><th class='l'>process</th><th>span (ms)</th>"
        + "".join(f"<th>{html.escape(b)}</th>" for b in DRIVER_BUCKETS)
        + "<th>coverage</th></tr>"
    )
    cells = "".join(
        f"<td>{_fmt_ms(drv['buckets'][b])}</td>" for b in DRIVER_BUCKETS
    )
    row = (
        f"<tr><td class='l'>driver</td><td>{_fmt_ms(drv['span_s'])}</td>"
        f"{cells}<td>{drv['coverage'] * 100:.1f}%</td></tr>"
    )
    return f"<table>{head}{row}</table>"


def _ring_table(doc: dict) -> str:
    rows = []
    for w in doc["workers"]:
        ring = w.get("ring") or {}
        exp = ring.get("exports")
        if exp is None:
            continue
        rows.append(
            f"<tr><td class='l'>worker {w['part']}</td>"
            f"<td>{exp['pushes']}</td><td>{exp['bytes_pushed']}</td>"
            f"<td>{exp['high_water']}</td><td>{exp['spills']}</td>"
            f"<td>{exp['fence_errors']}</td></tr>"
        )
    if not rows:
        return (
            '<p class="note">No ring telemetry (pipe transport or a '
            "single partition).</p>"
        )
    head = (
        "<tr><th class='l'>export rings</th><th>batches</th><th>bytes</th>"
        "<th>high-water (B)</th><th>spills</th><th>fence errors</th></tr>"
    )
    return f"<table>{head}{''.join(rows)}</table>"


def _rounds_svg(doc: dict) -> str:
    """Per-round exported-packet counts as a tiny inline-SVG series."""
    rounds: List[dict] = doc.get("rounds") or []
    if len(rounds) < 2:
        return '<p class="note">Too few rounds for a series.</p>'
    values = [row.get("exports", 0) for row in rounds]
    peak = max(values) or 1
    width, height = 720, 80
    n = len(values)
    bw = max(1.0, width / n - 1.0)
    bars = []
    for i, v in enumerate(values):
        h = round((height - 16) * v / peak, 1)
        x = round(i * width / n, 1)
        k = rounds[i].get("k", 1)
        bars.append(
            f'<rect x="{x}" y="{height - h}" width="{bw}" height="{h}" '
            f'fill="#4477aa"><title>round {rounds[i]["round"]}: {v} '
            f"export(s), K={k}</title></rect>"
        )
    return (
        f'<svg width="{width}" height="{height}" role="img">{"".join(bars)}'
        f"</svg>"
        f'<p class="note">{n} exchanges; bar height = exported '
        f"packets per exchange (peak {peak}).</p>"
    )


def _meta_table(meta: dict) -> str:
    keys = (
        "workers", "transport", "nodes", "cores_per_node", "rounds",
        "window_batch", "max_window_batch", "exported_packets",
        "spilled_batches", "lookahead", "elapsed_sim",
    )
    cells = "".join(
        f"<tr><td class='l'>{html.escape(k)}</td>"
        f"<td>{html.escape(str(meta.get(k)))}</td></tr>"
        for k in keys
        if k in meta
    )
    return f"<table><tr><th class='l'>run</th><th>value</th></tr>{cells}</table>"


def render_html(doc: dict) -> str:
    """Render the attribution document as one self-contained HTML page."""
    se = doc["serial_equivalent"]
    meta = doc.get("meta", {})
    title = (
        f"PDES overhead attribution: {meta.get('workers', '?')} workers, "
        f"{meta.get('transport', '?')} transport"
    )
    body = [
        f"<h1>{html.escape(title)}</h1>",
        '<p class="note">Host wall-clock tiling of one flight-recorded '
        "parallel-DES run (repro.pdes.flight).  Worker spans are "
        "clock-aligned via the handshake offset estimate; all times are "
        "milliseconds of host wall clock, not simulated time.</p>",
        "<h2>Serial-equivalent fraction</h2>",
        f'<p><span class="big">{se["fraction"] * 100:.1f}%</span> of the '
        f'run\'s {_fmt_ms(se["wall_s"])}ms wall-clock span was serial-'
        f'equivalent compute ({_fmt_ms(se["compute_s"])}ms summed across '
        f"workers); the rest is partitioning overhead -- serialization, "
        f"ring traffic, peer signalling and waiting for peers.</p>",
        "<h2>Worker wall-clock tiling</h2>",
        _legend(WORKER_BUCKETS + ("other",)),
    ]
    for w in doc["workers"]:
        body.append(
            _tiling_strip(f"worker {w['part']}", w, WORKER_BUCKETS)
        )
    body.append(_bucket_table(doc))
    body.append("<h2>Driver wall-clock tiling</h2>")
    body.append(_legend(DRIVER_BUCKETS + ("other",)))
    body.append(_tiling_strip("driver", doc["driver"], DRIVER_BUCKETS))
    body.append(_driver_table(doc))
    body.append(
        '<p class="note">The driver does no per-window work: the workers '
        "exchange round headers and batches directly, so fan-in spans "
        "the whole run.</p>"
    )
    body.append("<h2>Ring telemetry</h2>")
    body.append(_ring_table(doc))
    body.append(_rounds_svg(doc))
    body.append("<h2>Run facts</h2>")
    body.append(_meta_table(meta))
    return (
        "<!DOCTYPE html>\n<html><head><meta charset='utf-8'>"
        f"<title>{html.escape(title)}</title>"
        f"<style>{_CSS}</style></head><body>"
        + "".join(body)
        + "</body></html>\n"
    )


def write_report(doc: dict, html_path: str, json_path: str) -> None:
    """Validate ``doc`` and write the JSON + HTML report pair."""
    validate(doc)
    with open(json_path, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    with open(html_path, "w") as f:
        f.write(render_html(doc))
