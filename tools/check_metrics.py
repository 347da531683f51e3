#!/usr/bin/env python3
"""Prometheus exposition linter for the METRICS verb (the CI scrape check).

Validates the text exposition format the server emits, either from a
saved file (--file) or scraped live from a running server (--host /
--port: sends "METRICS\\n" on a fresh v1 connection and decodes the
"OK BLOB <n>" framing).

Checks:
  1. Every line is a comment, blank, or a well-formed sample
     `name{labels} value` (metric/label name charset, quoted label
     values, finite float value).
  2. Every sample belongs to a family announced by # HELP and # TYPE
     (in that order, immediately adjacent), with a known type, and each
     family is one contiguous group: its HELP line, its TYPE line, then
     all of its samples, as the text format requires.
  3. Counter families end in _total; counter and histogram samples are
     non-negative.
  4. No duplicate series (same name + label set twice).
  5. Histograms: every label-set has _bucket series with cumulative
     non-decreasing values over increasing `le`, a closing le="+Inf"
     bucket, and _sum/_count series with _count equal to the +Inf
     bucket.
  6. The exposition is non-empty and contains the hopdb_build_info and
     hopdb_requests_total families (the minimum useful scrape).

Exit status 0 = clean, 1 = at least one failure (each printed).
"""

import argparse
import math
import re
import socket
import sys

METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
# name{labels} value  — labels optional; value is the last token.
SAMPLE_RE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{.*\})?\s+(\S+)$")
LABEL_PAIR_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')
HELP_RE = re.compile(r"^# HELP ([a-zA-Z_:][a-zA-Z0-9_:]*) (.+)$")
TYPE_RE = re.compile(r"^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (\w+)$")
KNOWN_TYPES = {"counter", "gauge", "histogram"}
REQUIRED_FAMILIES = {"hopdb_build_info", "hopdb_requests_total"}
HISTOGRAM_SUFFIXES = ("_bucket", "_sum", "_count")


def scrape(host: str, port: int, timeout: float) -> str:
    """Fetches one METRICS exposition over the v1 line protocol."""
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.sendall(b"METRICS\n")
        buf = b""
        while b"\n" not in buf:
            chunk = sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed before the header line")
            buf += chunk
        header, _, buf = buf.partition(b"\n")
        m = re.match(rb"^OK BLOB (\d+)$", header.strip())
        if m is None:
            raise ValueError(f"expected 'OK BLOB <n>', got {header!r}")
        want = int(m.group(1)) + 1  # body plus the closing newline
        while len(buf) < want:
            chunk = sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed mid-blob")
            buf += chunk
        return buf[: want - 1].decode("utf-8")


def family_of(name: str, types: dict[str, str]) -> str:
    """Maps a sample name to its announced family (histogram suffixes)."""
    for suffix in HISTOGRAM_SUFFIXES:
        base = name.removesuffix(suffix)
        if base != name and types.get(base) == "histogram":
            return base
    return name


def check_groups(lines: list[str], types: dict[str, str]) -> list[str]:
    """Each family must be one group: HELP, TYPE right after it, then
    every sample of the family before the next family's HELP."""
    failures = []
    group = None  # the family whose HELP/TYPE lines were read last
    previous = ""
    for lineno, line in enumerate(lines, start=1):
        if m := HELP_RE.match(line):
            group = m.group(1)
        elif m := TYPE_RE.match(line):
            help_line = HELP_RE.match(previous)
            if help_line is None or help_line.group(1) != m.group(1):
                failures.append(
                    f"line {lineno}: # TYPE {m.group(1)} does not follow "
                    f"its # HELP line"
                )
        elif line.strip() and not line.startswith("#"):
            sample = SAMPLE_RE.match(line)
            if sample is not None:
                family = family_of(sample.group(1), types)
                # A family without a TYPE is reported on its own.
                if family in types and family != group:
                    failures.append(
                        f"line {lineno}: sample '{sample.group(1)}' is "
                        f"outside the group of family '{family}' "
                        f"(it follows the lines of '{group}')"
                    )
        previous = line
    return failures


def lint(text: str) -> list[str]:
    failures: list[str] = []
    if not text.strip():
        return ["exposition is empty"]

    helps: dict[str, str] = {}
    types: dict[str, str] = {}
    # First pass: families, so a sample's family resolves even where its
    # TYPE line comes later (which check_groups reports).
    for lineno, line in enumerate(text.splitlines(), start=1):
        if m := HELP_RE.match(line):
            if m.group(1) in helps:
                failures.append(f"line {lineno}: duplicate # HELP {m.group(1)}")
            helps[m.group(1)] = m.group(2)
        elif m := TYPE_RE.match(line):
            name, kind = m.groups()
            if name in types:
                failures.append(f"line {lineno}: duplicate # TYPE {name}")
            if kind not in KNOWN_TYPES:
                failures.append(
                    f"line {lineno}: # TYPE {name} has unknown type '{kind}'"
                )
            types[name] = kind

    failures += check_groups(text.splitlines(), types)

    seen_series: set[tuple[str, tuple[tuple[str, str], ...]]] = set()
    # family -> label-set (minus le) -> [(le, value)] / sums / counts
    buckets: dict[str, dict[tuple, list[tuple[float, float]]]] = {}
    sums: dict[str, dict[tuple, float]] = {}
    counts: dict[str, dict[tuple, float]] = {}

    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.startswith("#"):
            if line.startswith("#") and not (
                HELP_RE.match(line) or TYPE_RE.match(line)
            ):
                failures.append(f"line {lineno}: malformed comment: {line!r}")
            continue
        m = SAMPLE_RE.match(line)
        if m is None:
            failures.append(f"line {lineno}: malformed sample: {line!r}")
            continue
        name, label_blob, value_str = m.groups()
        labels: list[tuple[str, str]] = []
        if label_blob:
            inner = label_blob[1:-1].rstrip(",")
            pairs = LABEL_PAIR_RE.findall(inner)
            # Reassembling the pairs must consume the whole blob, else
            # something in it did not parse as label="value".
            reassembled = ",".join(f'{k}="{v}"' for k, v in pairs)
            if reassembled != inner:
                failures.append(
                    f"line {lineno}: malformed label set: {label_blob!r}"
                )
                continue
            for key, _ in pairs:
                if not LABEL_NAME_RE.match(key):
                    failures.append(f"line {lineno}: bad label name '{key}'")
            labels = pairs
        try:
            value = float(value_str)
        except ValueError:
            failures.append(f"line {lineno}: bad sample value '{value_str}'")
            continue
        if not METRIC_NAME_RE.match(name):
            failures.append(f"line {lineno}: bad metric name '{name}'")
            continue

        series = (name, tuple(sorted(labels)))
        if series in seen_series:
            failures.append(
                f"line {lineno}: duplicate series {name}{label_blob or ''}"
            )
        seen_series.add(series)

        family = family_of(name, types)
        if family not in types:
            failures.append(f"line {lineno}: sample '{name}' has no # TYPE")
            continue
        if family not in helps:
            failures.append(f"line {lineno}: sample '{name}' has no # HELP")
        kind = types[family]
        if kind == "counter" and not family.endswith("_total"):
            failures.append(
                f"line {lineno}: counter '{family}' does not end in _total"
            )
        if kind in ("counter", "histogram") and value < 0:
            failures.append(f"line {lineno}: negative {kind} sample: {line!r}")
        if math.isnan(value) or math.isinf(value):
            failures.append(f"line {lineno}: non-finite value: {line!r}")

        if kind == "histogram":
            non_le = tuple(sorted(p for p in labels if p[0] != "le"))
            if name.endswith("_bucket"):
                le = dict(labels).get("le")
                if le is None:
                    failures.append(f"line {lineno}: _bucket without le label")
                    continue
                le_value = math.inf if le == "+Inf" else float(le)
                buckets.setdefault(family, {}).setdefault(non_le, []).append(
                    (le_value, value)
                )
            elif name.endswith("_sum"):
                sums.setdefault(family, {})[non_le] = value
            elif name.endswith("_count"):
                counts.setdefault(family, {})[non_le] = value
            else:
                failures.append(
                    f"line {lineno}: histogram family '{family}' has a bare "
                    f"sample '{name}' (expected _bucket/_sum/_count)"
                )

    for family, kind in types.items():
        if kind != "histogram":
            continue
        label_sets = buckets.get(family, {})
        if not label_sets:
            failures.append(f"histogram '{family}' has no _bucket samples")
        for non_le, series in label_sets.items():
            where = f"{family}{{{', '.join(f'{k}={v}' for k, v in non_le)}}}"
            series.sort()
            les = [le for le, _ in series]
            values = [v for _, v in series]
            if not les or les[-1] != math.inf:
                failures.append(f"{where}: missing le=\"+Inf\" bucket")
                continue
            if any(b > a for a, b in zip(values[1:], values)):
                failures.append(f"{where}: bucket values are not cumulative")
            if non_le not in sums.get(family, {}):
                failures.append(f"{where}: missing _sum")
            count = counts.get(family, {}).get(non_le)
            if count is None:
                failures.append(f"{where}: missing _count")
            elif count != values[-1]:
                failures.append(
                    f"{where}: _count {count} != +Inf bucket {values[-1]}"
                )

    for family in sorted(REQUIRED_FAMILIES - set(types)):
        failures.append(f"required family '{family}' is missing")
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--file", help="lint a saved exposition file")
    source.add_argument("--host", help="scrape a live server at this address")
    parser.add_argument("--port", type=int, default=0,
                        help="server port (with --host)")
    parser.add_argument("--timeout", type=float, default=5.0,
                        help="scrape timeout in seconds")
    args = parser.parse_args()

    if args.file:
        with open(args.file, encoding="utf-8") as f:
            text = f.read()
        origin = args.file
    else:
        if args.port <= 0:
            parser.error("--host requires --port")
        try:
            text = scrape(args.host, args.port, args.timeout)
        except (OSError, ValueError, ConnectionError) as e:
            print(f"FAIL: scrape {args.host}:{args.port}: {e}",
                  file=sys.stderr)
            return 1
        origin = f"{args.host}:{args.port}"

    failures = lint(text)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        families = len(re.findall(r"^# TYPE ", text, re.MULTILINE))
        samples = sum(
            1
            for line in text.splitlines()
            if line.strip() and not line.startswith("#")
        )
        print(f"metrics OK: {origin}: {families} families, "
              f"{samples} samples, histograms consistent")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
